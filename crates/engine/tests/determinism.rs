//! Worker-count independence: a sweep's assembled report — and the BNF
//! curve built from it — must be bit-identical whether it ran on 1, 4 or
//! 8 workers, with or without a panicking point, and regardless of how
//! cached and freshly simulated points interleave in completion order.
//!
//! This is the contract that makes `--jobs` a pure performance knob: the
//! streaming engine delivers outcomes in completion order (racy by
//! design), but [`JobHandle::wait`] orders the report by job id, and
//! each point's simulation is independently seeded.

mod common;

use common::{small_cfg, TempDir};
use mdd_engine::{Engine, Job, SweepReport};
use proptest::prelude::*;

/// Run the same sweep on an engine with `workers` dedicated workers.
fn sweep_at(workers: usize, loads: &[f64], panic_id: Option<usize>) -> SweepReport {
    let engine = Engine::builder().jobs(workers).build().expect("engine");
    engine
        .submit_with(
            Job::points(&small_cfg(), loads, "PR"),
            move |job: &Job| {
                if Some(job.id) == panic_id {
                    panic!("injected failure at point {}", job.id);
                }
                mdd_core::Simulator::new(job.cfg.clone()).map(|mut sim| sim.run())
            },
        )
        .wait()
}

/// Every observable of the curve, as exact bits.
fn curve_bits(report: &SweepReport) -> Vec<(u64, u64, u64, u64)> {
    report
        .curve("PR")
        .points
        .iter()
        .map(|p| {
            (
                p.applied_load.to_bits(),
                p.throughput.to_bits(),
                p.latency.to_bits(),
                p.messages_delivered,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn curves_are_bit_identical_across_worker_counts(
        loads in proptest::collection::vec(0.02f64..0.20, 3..6)
    ) {
        let baseline = sweep_at(1, &loads, None);
        prop_assert!(baseline.complete());
        for workers in [4, 8] {
            let report = sweep_at(workers, &loads, None);
            prop_assert_eq!(curve_bits(&baseline), curve_bits(&report),
                "jobs=1 vs jobs={}", workers);
        }
    }

    #[test]
    fn a_panicking_point_does_not_perturb_the_others(
        loads in proptest::collection::vec(0.02f64..0.20, 3..6),
        panic_slot in 0usize..3
    ) {
        let panic_id = Some(panic_slot % loads.len());
        let baseline = sweep_at(1, &loads, panic_id);
        prop_assert_eq!(baseline.failed(), 1);
        for workers in [4, 8] {
            let report = sweep_at(workers, &loads, panic_id);
            prop_assert_eq!(report.failed(), 1);
            // Same typed error on the same point...
            prop_assert_eq!(baseline.errors(), report.errors());
            // ...and the surviving points are untouched, bit for bit.
            prop_assert_eq!(curve_bits(&baseline), curve_bits(&report),
                "jobs=1 vs jobs={}", workers);
        }
    }
}

/// Golden pin for the cached/simulated interleave: warm the cache with
/// the even-indexed points, then sweep everything on 4 workers. Cache
/// hits return almost instantly, so completion order aggressively
/// interleaves hits and fresh simulations — the final curve must not
/// notice.
#[test]
fn cached_and_simulated_points_interleave_without_reordering_the_curve() {
    let tmp = TempDir::new("interleave");
    let loads = [0.03, 0.06, 0.09, 0.12, 0.15, 0.18];
    let warm: Vec<f64> = loads.iter().copied().step_by(2).collect();

    // Reference: the whole sweep, sequentially, uncached.
    let reference = sweep_at(1, &loads, None);

    let engine = Engine::builder()
        .jobs(4)
        .cache_dir(tmp.path())
        .build()
        .expect("open cache");
    assert_eq!(engine.submit_sweep(&small_cfg(), &warm, "PR").wait().simulated(), 3);

    let report = engine.submit_sweep(&small_cfg(), &loads, "PR").wait();
    assert_eq!(report.cached(), 3);
    assert_eq!(report.simulated(), 3);
    // Report order is job order, independent of which half raced ahead.
    let ids: Vec<usize> = report.outcomes.iter().map(|o| o.job.id).collect();
    assert_eq!(ids, (0..loads.len()).collect::<Vec<_>>());
    assert_eq!(curve_bits(&reference), curve_bits(&report));
}

/// The simulator behind a sweep: applied loads are monotone, the curve
/// saturates above zero, and latency rises with load.
#[test]
fn sweep_produces_monotone_applied_loads() {
    let base = mdd_core::SimConfig::small_test(
        mdd_core::Scheme::ProgressiveRecovery,
        mdd_core::PatternSpec::pat100(),
        4,
        0.0,
    );
    let loads = mdd_core::default_loads(0.05, 0.25, 3);
    let report = Engine::new().submit_sweep(&base, &loads, "PR").wait();
    assert_eq!(report.outcomes.len(), 3);
    assert!(report.complete());
    let curve = report.curve("PR");
    assert_eq!(curve.points.len(), 3);
    assert!(curve
        .points
        .windows(2)
        .all(|w| w[0].applied_load < w[1].applied_load));
    assert!(curve.saturation_throughput() > 0.0);
    // Latency grows with load.
    assert!(curve.points[2].latency >= curve.points[0].latency);
}

/// The pool-parallel fault frontier must classify exactly like the
/// sequential sweep in `mdd-verify`, point for point, at any worker
/// count — orbit grouping plus parallel re-verdicts is a pure
/// performance transformation.
#[test]
fn fault_frontier_matches_sequential_classification() {
    use mdd_verify::{classify_fault_points, single_link_faults, BaseAnalysis};

    let analysis = mdd_core::analysis_config(&small_cfg()).expect("small_cfg is feasible");
    let faults = single_link_faults(analysis.topo());

    let sequential = {
        let base = BaseAnalysis::analyze(analysis.clone());
        classify_fault_points(&base, faults.clone())
    };

    for workers in [1, 4] {
        let engine = Engine::builder().jobs(workers).build().expect("engine");
        let pooled = engine.fault_frontier(analysis.clone(), faults.clone());
        assert_eq!(pooled.base_verdict, sequential.base_verdict);
        assert_eq!(pooled.preserving, sequential.preserving);
        assert_eq!(pooled.degrading, sequential.degrading);
        assert_eq!(pooled.points.len(), sequential.points.len());
        for (p, s) in pooled.points.iter().zip(&sequential.points) {
            assert_eq!((p.label.as_str(), p.verdict, p.rank), (s.label.as_str(), s.verdict, s.rank));
        }
    }
}
