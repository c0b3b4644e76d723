//! The traced replay must end bit-identical to `Simulator` and account
//! for all of its cycle-loop time.

use mdd_core::{DestPattern, PatternSpec, Scheme, SimConfig};
use mdd_perfbench::replay::{Fingerprint, LayerCounts, Replay};
use mdd_perfbench::trace::{Layer, Tracer, NO_PARENT};
use std::time::Instant;

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};

fn small(scheme: Scheme, pattern: PatternSpec, load: f64) -> SimConfig {
    let mut cfg = SimConfig::small_test(scheme, pattern, 4, load);
    cfg.warmup = 500;
    cfg.measure = 2_000;
    cfg.seed = 11;
    cfg
}

/// Replay `cfg`, assert it matches `Simulator`, and check that the layer
/// self times add up to the cycle-loop spans.
fn replay_matches(cfg: &SimConfig) -> LayerCounts {
    let (_, expect) = Fingerprint::of_simulator(cfg).expect("feasible");
    let mut replay =
        Replay::new(cfg.clone(), Tracer::new(Instant::now(), 0, usize::MAX)).expect("feasible");
    let (_, got) = replay.run();
    assert_eq!(got, expect, "replay diverged from Simulator on {cfg:?}");

    let tr = replay.tracer();
    let loops: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.layer == Layer::Harness && s.parent == NO_PARENT)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let in_loop: u64 = Layer::ALL
        .iter()
        .filter(|&&l| l != Layer::CoreBuild)
        .map(|&l| tr.self_ns(l))
        .sum();
    assert_eq!(in_loop, loops, "self times must account for the loop time");
    let counts = replay.counts();
    assert_eq!(counts.cycles, cfg.warmup + cfg.measure);
    counts
}

#[test]
fn strict_avoidance() {
    replay_matches(&small(SA, PatternSpec::pat100(), 0.3));
}

#[test]
fn deflective_recovery() {
    let n = replay_matches(&small(
        Scheme::DeflectiveRecovery,
        PatternSpec::pat271(),
        0.9,
    ));
    assert!(n.deflect_calls > 0, "the DR path must be exercised");
}

#[test]
fn progressive_recovery() {
    replay_matches(&small(
        Scheme::ProgressiveRecovery,
        PatternSpec::pat271(),
        0.3,
    ));
}

/// Overload forces PR rescue episodes: the dense-tick and wake-all path.
#[test]
fn progressive_recovery_episode() {
    let mut cfg = small(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 0.8);
    cfg.warmup = 0;
    cfg.measure = 6_000;
    let n = replay_matches(&cfg);
    assert!(n.episodes > 0, "the overload must start a recovery episode");
}

/// Sparse arrivals at a tiny load leave quiescent stretches to skip.
#[test]
fn quiescent_fast_forward() {
    let mut cfg = small(SA, PatternSpec::pat100(), 0.002);
    cfg.dest = DestPattern::Neighbor;
    cfg.sparse_arrivals = true;
    let n = replay_matches(&cfg);
    assert!(n.ff_cycles > 0, "the run must fast-forward");
}
