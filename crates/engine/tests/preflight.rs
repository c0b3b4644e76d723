//! The static pre-flight runs on the pool, inside the point tasks: every
//! outcome — simulated, cache-served or cancelled — still carries the
//! verdict a serial `verify_config` gives its configuration, at any
//! worker count, and the pool runs exactly one task per job.

mod common;

use common::{fake_result, small_cfg, TempDir};
use mdd_core::{PatternSpec, Scheme, SimConfig};
use mdd_engine::{Engine, Job, SweepReport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// A batch over four configuration shapes, two loads each: PR, DR and SA
/// (all feasible on a 4x4 torus) plus SA with one VC, which is
/// infeasible and so has no verdict.
fn mixed_jobs() -> Vec<Job> {
    let pr = small_cfg();
    let mut dr = small_cfg();
    dr.scheme = Scheme::DeflectiveRecovery;
    let sa = SimConfig::builder()
        .scheme(Scheme::StrictAvoidance {
            shared_adaptive: false,
        })
        .pattern(PatternSpec::pat100())
        .radix(&[4, 4])
        .windows(100, 300)
        .build()
        .expect("SA on PAT100 is feasible with 4 VCs");
    let mut infeasible = small_cfg();
    infeasible.scheme = Scheme::StrictAvoidance {
        shared_adaptive: false,
    };
    infeasible.vcs = 1;
    let mut jobs = Vec::new();
    for (label, cfg) in [("PR", pr), ("DR", dr), ("SA", sa), ("SA-1vc", infeasible)] {
        for load in [0.05, 0.10] {
            jobs.push(Job::new(jobs.len(), label, cfg.at_load(load)));
        }
    }
    jobs
}

/// Every outcome's verdict equals a serial pre-flight of its own config.
fn assert_serial_verdicts(report: &SweepReport) {
    for o in &report.outcomes {
        let serial = mdd_core::verify_config(&o.job.cfg).ok();
        assert_eq!(
            o.verdict, serial,
            "verdict of point {} ({})",
            o.job.id, o.job.label
        );
    }
}

/// Once a batch is drained, the pool settles at exactly `n` executed
/// tasks: one per job, none extra.
fn assert_pool_executes(engine: &Engine, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.pool_stats().executed < n {
        assert!(Instant::now() < deadline, "pool never finished its tasks");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(engine.pool_stats().executed, n);
}

#[test]
fn simulated_and_cached_points_carry_the_serial_verdict() {
    for workers in WORKER_COUNTS {
        let tmp = TempDir::new(&format!("preflight-{workers}"));
        let engine = Engine::builder()
            .jobs(workers)
            .cache_dir(tmp.path())
            .build()
            .unwrap();
        let n = mixed_jobs().len() as u64;

        let cold = engine.submit(mixed_jobs()).wait();
        assert_eq!((cold.simulated(), cold.failed()), (6, 2), "jobs={workers}");
        assert_serial_verdicts(&cold);
        assert_pool_executes(&engine, n);

        let warm = engine.submit(mixed_jobs()).wait();
        assert_eq!((warm.cached(), warm.failed()), (6, 2), "jobs={workers}");
        assert_serial_verdicts(&warm);
        assert_pool_executes(&engine, 2 * n);
    }
}

#[test]
fn cancelled_points_carry_the_serial_verdict() {
    for workers in WORKER_COUNTS {
        let engine = Engine::builder().jobs(workers).build().unwrap();
        let jobs = mixed_jobs();
        let n = jobs.len();
        // Started points block until the batch is cancelled, so every
        // point no worker has picked up by then must come back cancelled.
        let released = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&released);
        let handle = engine.submit_with(jobs, move |job: &Job| {
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(fake_result(job.load()))
        });
        handle.cancel();
        released.store(true, Ordering::SeqCst);
        let report = handle.wait();

        assert_eq!(report.outcomes.len(), n);
        assert!(
            report.cancelled() >= (n - workers.min(n)) as u64,
            "jobs={workers}: only {} of {n} points cancelled",
            report.cancelled()
        );
        assert_serial_verdicts(&report);
        assert_pool_executes(&engine, n as u64);
    }
}
