//! Ablation A1: the Martinez-Torrellas-Duato shared-adaptive variant of
//! strict avoidance (\[21\], discussed in Section 2.1) against plain SA —
//! only the escape channels stay partitioned per type; all remaining
//! channels form a common adaptive pool.
//!
//! `cargo run -p mdd-bench --release --bin ablation_sa_shared [--smoke]
//!  [--out DIR] [--jobs N] [--no-cache]`

use mdd_bench::cli::BenchCli;
use mdd_core::{default_loads, PatternSpec, Scheme, SimConfig};
use mdd_engine::Job;
use mdd_stats::Table;

fn main() {
    let cli = BenchCli::parse();
    let engine = cli.engine();
    // All four curves go to the engine as one batch; each keeps the ids
    // of its points to split the report back.
    let mut jobs = Vec::new();
    let mut curves = Vec::new();
    for vcs in [8u8, 16] {
        let loads = default_loads(0.05, 0.50, cli.scale.load_points);
        for (label, shared) in [("SA", false), ("SA+", true)] {
            let cfg = SimConfig::builder()
                .scheme(Scheme::StrictAvoidance {
                    shared_adaptive: shared,
                })
                .pattern(PatternSpec::pat271())
                .vcs(vcs)
                .windows(cli.scale.warmup, cli.scale.measure)
                .build()
                .expect("feasible at 8+ VCs");
            let first = jobs.len();
            for &load in &loads {
                jobs.push(Job::new(jobs.len(), label, cfg.at_load(load)));
            }
            curves.push((vcs, label, first..jobs.len()));
        }
    }
    let report = engine.submit(jobs).wait();
    for err in report.errors() {
        eprintln!("ablation_sa_shared: {err}");
    }
    let mut t = Table::new(vec!["vcs", "scheme", "load", "throughput", "latency"]);
    let mut csv = String::from("vcs,scheme,load,throughput,latency\n");
    for (vcs, label, ids) in curves {
        for p in &report.jobs(ids).curve(label).points {
            t.row(vec![
                vcs.to_string(),
                label.to_string(),
                format!("{:.3}", p.applied_load),
                format!("{:.4}", p.throughput),
                format!("{:.1}", p.latency),
            ]);
            csv.push_str(&format!(
                "{vcs},{label},{:.4},{:.6},{:.3}\n",
                p.applied_load, p.throughput, p.latency
            ));
        }
    }
    println!("Ablation A1 — SA vs SA+ (shared adaptive pool), PAT271\n");
    print!("{}", t.render());
    cli.write_reported("ablation_sa_shared.csv", &csv);
}
