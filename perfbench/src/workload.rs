//! The benchmark's workloads and how each one is measured.
//!
//! An untraced run (`--trace 0`) repeats the workload for the requested
//! number of seconds and reports the median of each end-to-end metric over
//! the repetitions. A traced run (`--trace 1`) runs the workload once
//! untraced and once through the traced replay, checks that both end in
//! the same state, and reports the per-layer metrics.

use crate::replay::{Fingerprint, LayerCounts, Replay};
use crate::report::{median, peak_rss_mib, percentile, ratio, Report};
use crate::trace::{write_spans_csv, Layer, Span, Tracer};
use mdd_core::{default_loads, PatternSpec, Scheme, SimConfig, SimResult, Simulator};
use mdd_engine::{Engine, Job, SweepReport};
use mdd_obs::CounterId;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 8 panel set at the `fast` scale through the engine.
    Sweep8x8,
    /// One saturated PR run on a 64x64 torus.
    Sat64x64,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::Sweep8x8, Workload::Sat64x64];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep8x8 => "sweep-8x8",
            Workload::Sat64x64 => "sat-64x64",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Engine workers for `sweep-8x8`.
const SWEEP_WORKERS: usize = 2;
/// The harness's `fast` scale: warm-up, window and points per curve.
const SWEEP_WARMUP: u64 = 4_000;
const SWEEP_MEASURE: u64 = 12_000;
const SWEEP_LOADS: usize = 7;

/// Accepted throughput may exceed the offered load only by arrival noise.
/// The smallest window in any workload (8x8 at load 0.05, 12k cycles)
/// offers about 38k flits, so 10% is more than five standard deviations
/// of the Poisson arrival count.
const LOAD_SLACK: f64 = 0.10;

/// Raw spans kept per traced point of the sweep, and per traced run of a
/// single-point workload.
const SWEEP_SPANS_PER_POINT: usize = 2_048;
const POINT_SPANS: usize = 1 << 17;

/// Where traced runs write their spans.
const SPAN_DIR: &str = ".bench_out";

/// The jobs of `sweep-8x8`: for each Figure 8 pattern, each scheme that
/// is feasible with 4 VCs, at 7 loads from 0.05 to the panel's maximum.
pub fn sweep_jobs(seed: u64) -> Vec<Job> {
    let sa = Scheme::StrictAvoidance {
        shared_adaptive: false,
    };
    let (dr, pr) = (Scheme::DeflectiveRecovery, Scheme::ProgressiveRecovery);
    let panels = [
        (PatternSpec::pat100(), [sa, pr], 0.45),
        (PatternSpec::pat721(), [dr, pr], 0.42),
        (PatternSpec::pat451(), [dr, pr], 0.42),
        (PatternSpec::pat271(), [dr, pr], 0.42),
        (PatternSpec::pat280(), [dr, pr], 0.42),
    ];
    let mut jobs = Vec::new();
    for (pattern, schemes, max_load) in panels {
        let loads = default_loads(0.05, max_load, SWEEP_LOADS);
        for scheme in schemes {
            let label = format!("{} {scheme:?}", pattern.name());
            let base = SimConfig::builder()
                .scheme(scheme)
                .pattern(pattern.clone())
                .vcs(4)
                .windows(SWEEP_WARMUP, SWEEP_MEASURE)
                .seed(seed)
                .build()
                .expect("every Figure 8 panel scheme is feasible with 4 VCs");
            for &load in &loads {
                jobs.push(Job::new(jobs.len(), label.clone(), base.at_load(load)));
            }
        }
    }
    jobs
}

/// Cycles `sat-64x64` simulates, from cycle 0. The network fills in about
/// 150 cycles and then streams; the first PR rescue episode, after which
/// the network stays frozen for thousands of cycles, began between cycles
/// 620 and 790 over 18 seeds. The window ends before it.
const SAT_CYCLES: u64 = 500;

/// `sat-64x64`'s configuration.
pub fn sat_config(seed: u64) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.30);
    cfg.radix = vec![64, 64];
    cfg.warmup = 0;
    cfg.measure = SAT_CYCLES;
    cfg.seed = seed;
    cfg
}

/// Run `w` and return its report.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report {
        correct: true,
        ..Report::default()
    };
    match (w, trace) {
        (Workload::Sweep8x8, false) => sweep_untraced(seed, seconds, &mut rep),
        (Workload::Sweep8x8, true) => sweep_traced(seed, &mut rep),
        (Workload::Sat64x64, false) => point_untraced(&sat_config(seed), seconds, &mut rep),
        (Workload::Sat64x64, true) => point_traced(&sat_config(seed), &mut rep),
    }
    rep
}

/// Call `f` repeatedly for about `seconds`: at least once, and not again
/// once the next call would likely end past the budget.
fn repeat<R>(seconds: f64, mut f: impl FnMut() -> R) -> Vec<R> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut durs = Vec::new();
    loop {
        let t = Instant::now();
        out.push(f());
        durs.push(t.elapsed().as_secs_f64());
        eprintln!("repetition {}: {:.3} s", durs.len(), durs[durs.len() - 1]);
        if start.elapsed().as_secs_f64() + median(&durs) > seconds {
            return out;
        }
    }
}

/// Is a finished point's output plausible: accepted throughput within
/// the offered load, and at least one message delivered?
fn point_ok(r: &SimResult) -> bool {
    let ok = r.throughput <= r.applied_load * (1.0 + LOAD_SLACK) && r.messages_delivered > 0;
    if !ok {
        eprintln!(
            "check failed: load {} accepted {} messages {}",
            r.applied_load, r.throughput, r.messages_delivered
        );
    }
    ok
}

// ---------------------------------------------------------------------
// The single-point workload, `sat-64x64`.
// ---------------------------------------------------------------------

struct PointRun {
    /// Simulation time after construction.
    sim_s: f64,
    /// Construction plus simulation.
    run_s: f64,
    result: SimResult,
    fp: Fingerprint,
}

/// Build and run one untraced `Simulator`.
fn point_run(cfg: &SimConfig) -> PointRun {
    let t0 = Instant::now();
    let mut sim = Simulator::new(cfg.clone()).expect("workload configuration is feasible");
    let t1 = Instant::now();
    let result = sim.run();
    let sim_s = t1.elapsed().as_secs_f64();
    let fp = Fingerprint::new(&result, sim.cycle(), sim.network().counters().flits_moved);
    PointRun {
        sim_s,
        run_s: t0.elapsed().as_secs_f64(),
        result,
        fp,
    }
}

/// Extra set-up samples taken before each repetition of a single-point
/// workload. One `Simulator::new` takes a few milliseconds and swings
/// with the host's momentary state, so the samples are spread over the
/// whole run rather than taken back to back.
const SETUP_SAMPLES_PER_REP: usize = 5;

fn point_untraced(cfg: &SimConfig, seconds: f64, rep: &mut Report) {
    let mut setup_s = Vec::new();
    let runs = repeat(seconds, || {
        for _ in 0..SETUP_SAMPLES_PER_REP {
            let t = Instant::now();
            let sim = Simulator::new(cfg.clone()).expect("workload configuration is feasible");
            setup_s.push(t.elapsed().as_secs_f64());
            drop(sim);
        }
        point_run(cfg)
    });
    for r in &runs {
        // Same seed, same state: every repetition must end identically.
        rep.note(point_ok(&r.result) && r.fp == runs[0].fp);
    }
    let cycles = (cfg.warmup + cfg.measure) as f64;
    let col = |f: &dyn Fn(&PointRun) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let run_s = col(&|r| r.run_s);
    rep.push("run_s", median(&run_s), "s");
    rep.push("setup_s", median(&setup_s), "s");
    rep.push(
        "sim_cycles_per_s",
        median(&col(&|r| cycles / r.sim_s)),
        "cycles/s",
    );
    rep.push(
        "ns_per_flit_hop",
        median(&col(&|r| r.sim_s * 1e9 / r.fp.flits_moved as f64)),
        "ns",
    );
    rep.push("point_s_p50", median(&run_s), "s");
    rep.push("point_s_p85", percentile(&run_s, 85.0), "s");
    rep.push("peak_rss_mib", peak_rss_mib(), "MiB");
    push_model(rep, &[&runs[0].result]);
}

fn point_traced(cfg: &SimConfig, rep: &mut Report) {
    let plain = point_run(cfg);
    rep.note(point_ok(&plain.result));

    mdd_obs::install(1);
    let t0 = Instant::now();
    let mut replay =
        Replay::new(cfg.clone(), Tracer::new(t0, 0, POINT_SPANS)).expect("feasible config");
    let (_, fp) = replay.run();
    let traced_s = t0.elapsed().as_secs_f64();
    let obs = obs_totals();
    mdd_obs::uninstall();

    let stale = u64::from(fp != plain.fp);
    rep.note_replay(stale == 0);
    let tr = replay.tracer();
    let totals = TraceTotals {
        self_ns: tr.self_ns_all(),
        counts: replay.counts(),
        builds: 1,
        obs,
    };
    push_layers(rep, &totals);
    push_outer(rep, &Outer::default());
    push_bench(rep, &totals, traced_s / plain.run_s, stale);
    write_spans(Workload::Sat64x64, tr.spans());
}

// ---------------------------------------------------------------------
// The sweep.
// ---------------------------------------------------------------------

struct TracedPoint {
    self_ns: [u64; Layer::COUNT],
    counts: LayerCounts,
    spans: Vec<Span>,
}

struct PointRec {
    start: Instant,
    end: Instant,
    fp: Fingerprint,
    traced: Option<TracedPoint>,
}

struct SweepRun {
    setup_s: f64,
    run_s: f64,
    submitted: Instant,
    report: SweepReport,
    points: Vec<Option<PointRec>>,
}

/// One pass of `jobs` through a fresh 2-worker, cache-less engine. With
/// `trace_base`, every point runs as a traced replay instead of a
/// `Simulator`.
fn sweep_run(jobs: Vec<Job>, trace_base: Option<Instant>) -> SweepRun {
    let t0 = Instant::now();
    let engine = Engine::builder()
        .jobs(SWEEP_WORKERS)
        .build()
        .expect("an engine without a cache on a fresh pool builds");
    let n = jobs.len();
    let recs: Arc<Mutex<Vec<Option<PointRec>>>> =
        Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let sink = Arc::clone(&recs);
    let handle = engine.submit_with(jobs, move |job: &Job| {
        let start = Instant::now();
        let (result, fp, traced) = match trace_base {
            None => {
                let (r, fp) = Fingerprint::of_simulator(&job.cfg)?;
                (r, fp, None)
            }
            Some(base) => {
                let tr = Tracer::new(base, job.id as u32, SWEEP_SPANS_PER_POINT);
                let mut replay = Replay::new(job.cfg.clone(), tr)?;
                let (r, fp) = replay.run();
                let counts = replay.counts();
                let tr = replay.into_tracer();
                let traced = TracedPoint {
                    self_ns: tr.self_ns_all(),
                    counts,
                    spans: tr.spans().to_vec(),
                };
                (r, fp, Some(traced))
            }
        };
        let rec = PointRec {
            start,
            end: Instant::now(),
            fp,
            traced,
        };
        sink.lock().expect("point records are never poisoned")[job.id] = Some(rec);
        Ok(result)
    });
    let submitted = Instant::now();
    let setup_s = (submitted - t0).as_secs_f64();
    let report = handle.wait();
    let run_s = t0.elapsed().as_secs_f64();
    // Drop the pool from this thread only once every task has released
    // its handle on it.
    while engine.pool_stats().executed < n as u64 {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(engine);
    let points = std::mem::take(&mut *recs.lock().expect("point records are never poisoned"));
    SweepRun {
        setup_s,
        run_s,
        submitted,
        report,
        points,
    }
}

/// Check every point of a sweep: it finished, its output is plausible,
/// and (given `expect`) it ended in the expected state.
fn check_sweep(run: &SweepRun, expect: Option<&SweepRun>, rep: &mut Report) {
    for o in &run.report.outcomes {
        let ok = match &o.result {
            Ok(r) => {
                let fp = run.points[o.job.id].as_ref().map(|p| p.fp);
                let same = expect.is_none_or(|e| e.points[o.job.id].as_ref().map(|p| p.fp) == fp);
                point_ok(r) && fp.is_some() && same
            }
            Err(e) => {
                eprintln!("point failed: {e}");
                false
            }
        };
        rep.note(ok);
    }
}

/// Extra set-up samples taken before each repetition of the sweep. Each
/// passes the sweep's jobs with empty windows through the same engine
/// path, so it times engine build and pre-flight verdicts without
/// simulating.
const SWEEP_SETUP_SAMPLES_PER_REP: usize = 2;

fn sweep_untraced(seed: u64, seconds: f64, rep: &mut Report) {
    let mut empty = sweep_jobs(seed);
    for job in &mut empty {
        job.cfg.warmup = 0;
        job.cfg.measure = 0;
    }
    let jobs = sweep_jobs(seed);
    let mut setup_s = Vec::new();
    let runs = repeat(seconds, || {
        for _ in 0..SWEEP_SETUP_SAMPLES_PER_REP {
            setup_s.push(sweep_run(empty.clone(), None).setup_s);
        }
        let run = sweep_run(jobs.clone(), None);
        setup_s.push(run.setup_s);
        run
    });
    for r in &runs {
        check_sweep(r, Some(&runs[0]), rep);
    }
    let mut run_s = Vec::new();
    let mut cps = Vec::new();
    let mut ns_hop = Vec::new();
    let mut p50 = Vec::new();
    let mut p85 = Vec::new();
    for r in &runs {
        let fps = r.points.iter().flatten().map(|p| p.fp);
        let cycles: u64 = fps.clone().map(|f| f.cycle).sum();
        let hops: u64 = fps.map(|f| f.flits_moved).sum();
        let walls: Vec<f64> = r
            .report
            .outcomes
            .iter()
            .map(|o| o.wall_micros as f64 / 1e6)
            .collect();
        run_s.push(r.run_s);
        cps.push(cycles as f64 / (r.run_s - r.setup_s));
        ns_hop.push(walls.iter().sum::<f64>() * 1e9 / hops as f64);
        p50.push(median(&walls));
        p85.push(percentile(&walls, 85.0));
    }
    rep.push("run_s", median(&run_s), "s");
    rep.push("setup_s", median(&setup_s), "s");
    rep.push("sim_cycles_per_s", median(&cps), "cycles/s");
    rep.push("ns_per_flit_hop", median(&ns_hop), "ns");
    rep.push("point_s_p50", median(&p50), "s");
    rep.push("point_s_p85", median(&p85), "s");
    rep.push("peak_rss_mib", peak_rss_mib(), "MiB");
    push_model(rep, &runs[0].report.results());
}

fn sweep_traced(seed: u64, rep: &mut Report) {
    let plain = sweep_run(sweep_jobs(seed), None);
    check_sweep(&plain, None, rep);

    // The engine's pre-flight, timed from here: one verdict per distinct
    // configuration shape of the sweep.
    let mut shapes: Vec<SimConfig> = Vec::new();
    for job in sweep_jobs(seed) {
        // Jobs of one curve share their pattern allocation.
        if !shapes
            .iter()
            .any(|c| Arc::ptr_eq(&c.pattern, &job.cfg.pattern))
        {
            shapes.push(job.cfg);
        }
    }
    let t = Instant::now();
    let verdicts = shapes
        .iter()
        .filter(|c| mdd_core::verify_config(c).is_ok())
        .count();
    let verify_s = t.elapsed().as_secs_f64();

    mdd_obs::install(1);
    let traced = sweep_run(sweep_jobs(seed), Some(Instant::now()));
    let obs = obs_totals();
    mdd_obs::uninstall();

    let mut totals = TraceTotals {
        obs,
        ..TraceTotals::default()
    };
    let mut spans = Vec::new();
    let mut waits = Vec::new();
    let mut busy = 0.0;
    let mut stale = 0;
    for (i, p) in traced.points.iter().enumerate() {
        let fp = |run: &SweepRun| run.points[i].as_ref().map(|p| p.fp);
        let matches = fp(&traced).is_some() && fp(&traced) == fp(&plain);
        if !matches {
            eprintln!("replay of point {i} differs from Simulator");
            stale += 1;
        }
        rep.note_replay(matches);
        let Some(p) = p else { continue };
        waits.push(
            p.start
                .saturating_duration_since(traced.submitted)
                .as_secs_f64()
                * 1e3,
        );
        busy += (p.end - p.start).as_secs_f64();
        if let Some(t) = &p.traced {
            for (acc, v) in totals.self_ns.iter_mut().zip(t.self_ns) {
                *acc += v;
            }
            totals.counts.add(&t.counts);
            totals.builds += 1;
            spans.extend_from_slice(&t.spans);
        }
    }
    push_layers(rep, &totals);
    push_outer(
        rep,
        &Outer {
            verify_s,
            verdicts: verdicts as f64,
            queue_wait_ms_p50: if waits.is_empty() {
                0.0
            } else {
                median(&waits)
            },
            worker_util: busy / (SWEEP_WORKERS as f64 * traced.run_s),
            points_failed: traced.report.failed() as f64,
        },
    );
    push_bench(rep, &totals, traced.run_s / plain.run_s, stale);
    write_spans(Workload::Sweep8x8, &spans);
}

// ---------------------------------------------------------------------
// Metric assembly.
// ---------------------------------------------------------------------

/// The simulated (model) results: the mean accepted throughput over the
/// points, and the median over the points of each point's mean message
/// latency (saturated points' latencies swing with the seed, so a mean
/// over points would mostly measure the seed).
fn push_model(rep: &mut Report, results: &[&SimResult]) {
    let acc: f64 = results.iter().map(|r| r.throughput).sum();
    let lat: Vec<f64> = results.iter().map(|r| r.avg_latency).collect();
    rep.push(
        "accepted_flits_per_node_cycle",
        acc / results.len() as f64,
        "flits/node/cycle",
    );
    rep.push("msg_latency_mean_cycles", median(&lat), "cycles");
}

/// The `mdd-obs` counters the per-layer metrics read.
#[derive(Default)]
struct ObsTotals {
    visits: u64,
    flit_hops: u64,
    vc_allocs: u64,
    vc_stalls: u64,
    ticks_skipped: u64,
    burst_flits: u64,
    token_hops: u64,
}

fn obs_totals() -> ObsTotals {
    let s = mdd_obs::counters_snapshot();
    ObsTotals {
        visits: s.get(CounterId::FusedPassRouters),
        flit_hops: s.get(CounterId::FlitsRouted),
        vc_allocs: s.get(CounterId::VcAllocs),
        vc_stalls: s.get(CounterId::VcStalls),
        ticks_skipped: s.get(CounterId::RouterTicksSkipped),
        burst_flits: s.get(CounterId::LinkBurstFlits),
        token_hops: s.get(CounterId::TokenHops),
    }
}

/// Everything one traced run produced.
#[derive(Default)]
struct TraceTotals {
    self_ns: [u64; Layer::COUNT],
    counts: LayerCounts,
    builds: u64,
    obs: ObsTotals,
}

fn push_layers(rep: &mut Report, t: &TraceTotals) {
    let c = &t.counts;
    let cycles = c.cycles as f64;
    let per_cycle = |l: Layer| t.self_ns[l as usize] as f64 / cycles;
    let f = |v: u64| v as f64;
    let o = &t.obs;
    rep.push(
        "router.self_ns_per_cycle",
        per_cycle(Layer::Router),
        "ns/cycle",
    );
    rep.push("router.visits", f(o.visits), "count");
    rep.push(
        "router.ns_per_visit",
        ratio(f(t.self_ns[Layer::Router as usize]), f(o.visits)),
        "ns",
    );
    rep.push("router.flit_hops", f(o.flit_hops), "count");
    rep.push(
        "router.vc_alloc_ratio",
        ratio(f(o.vc_allocs), f(o.vc_allocs + o.vc_stalls)),
        "ratio",
    );
    rep.push("router.ticks_skipped", f(o.ticks_skipped), "count");
    rep.push("router.burst_flits", f(o.burst_flits), "count");
    rep.push(
        "nic.inject.self_ns_per_cycle",
        per_cycle(Layer::NicInject),
        "ns/cycle",
    );
    rep.push("nic.inject.calls", f(c.inject_calls), "count");
    rep.push(
        "nic.inject.flits_per_call",
        ratio(f(c.flits_injected), f(c.inject_calls)),
        "flits/call",
    );
    rep.push(
        "nic.tick.self_ns_per_cycle",
        per_cycle(Layer::NicTick),
        "ns/cycle",
    );
    rep.push("nic.tick.ticks_run", f(c.ticks_run), "count");
    rep.push(
        "nic.tick.run_ratio",
        ratio(f(c.ticks_run), f(c.nic_cycles)),
        "ratio",
    );
    rep.push(
        "traffic.self_ns_per_cycle",
        per_cycle(Layer::Traffic),
        "ns/cycle",
    );
    rep.push("traffic.msgs_generated", f(c.generated), "count");
    rep.push(
        "nic.issue.self_ns_per_cycle",
        per_cycle(Layer::NicIssue),
        "ns/cycle",
    );
    rep.push(
        "nic.issue.issue_ratio",
        ratio(f(c.issued), f(c.issue_tries)),
        "ratio",
    );
    rep.push(
        "nic.deflect.self_ns_per_cycle",
        per_cycle(Layer::NicDeflect),
        "ns/cycle",
    );
    rep.push(
        "nic.deflect.success_ratio",
        ratio(f(c.deflections), f(c.deflect_calls)),
        "ratio",
    );
    rep.push(
        "recovery.self_ns_per_cycle",
        per_cycle(Layer::Recovery),
        "ns/cycle",
    );
    rep.push("recovery.episodes", f(c.episodes), "count");
    rep.push("recovery.lane_transfers", f(c.lane_transfers), "count");
    rep.push("recovery.token_hops", f(o.token_hops), "count");
    rep.push("routing.calls", f(c.routing_calls), "count");
    rep.push(
        "routing.candidates_per_call",
        ratio(f(c.routing_candidates), f(c.routing_calls)),
        "count",
    );
    rep.push(
        "nic.eject.accept_ratio",
        ratio(f(c.eject_accepted), f(c.eject_asked)),
        "ratio",
    );
    rep.push("core.ff_ratio", ratio(f(c.ff_cycles), cycles), "ratio");
    rep.push(
        "core.ff.self_ns_per_cycle",
        per_cycle(Layer::CoreFf),
        "ns/cycle",
    );
    rep.push(
        "core.build_s",
        ratio(f(t.self_ns[Layer::CoreBuild as usize]), f(t.builds)) / 1e9,
        "s",
    );
}

/// The layers around the simulation: pre-flight verification and the
/// engine. Zero on workloads that do not go through them.
#[derive(Default)]
struct Outer {
    verify_s: f64,
    verdicts: f64,
    queue_wait_ms_p50: f64,
    worker_util: f64,
    points_failed: f64,
}

fn push_outer(rep: &mut Report, o: &Outer) {
    rep.push("verify.self_s", o.verify_s, "s");
    rep.push("verify.verdicts", o.verdicts, "count");
    rep.push("engine.queue_wait_ms_p50", o.queue_wait_ms_p50, "ms");
    rep.push("engine.worker_util", o.worker_util, "ratio");
    rep.push("engine.points_failed", o.points_failed, "count");
}

fn push_bench(rep: &mut Report, t: &TraceTotals, overhead: f64, stale: u64) {
    let per_cycle = t.self_ns[Layer::Harness as usize] as f64 / t.counts.cycles as f64;
    rep.push("bench.harness.self_ns_per_cycle", per_cycle, "ns/cycle");
    rep.push("bench.trace_overhead", overhead, "ratio");
    rep.push("bench.replay_stale", stale as f64, "count");
}

fn write_spans(w: Workload, spans: &[Span]) {
    let path = Path::new(SPAN_DIR).join(format!("spans-{}.csv", w.name()));
    if let Err(e) = write_spans_csv(&path, spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
