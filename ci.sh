#!/usr/bin/env bash
# Local CI gate: build, test (incl. doctests), docs with warnings denied,
# and clippy when the component is installed. Mirrors what changes are
# held to — run it before sending a PR.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> perfbench tests (traced replay equals Simulator)"
# perfbench is a workspace of its own, so --workspace above skips it.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> traced replay smoke (sat-64x64, replay must not drift from Simulator::step)"
# The traced replay re-implements Simulator::step layer by layer. After a
# router-layer change it must still reproduce the simulator exactly: the
# run must be correct with no failed operation and no stale replay.
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml
trace_line=$(perfbench/target/release/mdd-perfbench \
    --workload sat-64x64 --seed 1 --seconds 1 --trace 1 | tail -n 1)
replay_check() { # pattern what
    echo "$trace_line" | grep -Eq "$1" || {
        echo "traced replay smoke: $2:"; echo "$trace_line"; exit 1; }
}
replay_check '"correct": true' "result is not correct"
replay_check '"failed": 0[,}]' "an operation failed"
replay_check '"bench\.replay_stale": \{"value": 0(\.0)?,' "bench.replay_stale is not 0"

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test --workspace --doc (doctests as a named gate)"
cargo test --workspace --doc -q

echo "==> engine cache smoke (re-run must be served from cache)"
CACHE_DIR=$(mktemp -d)
trap 'rm -rf "$CACHE_DIR"' EXIT
engine_sweep() {
    cargo run -q -p mdd-bench --release --bin mddsim -- \
        --scheme pr --pattern pat271 --vcs 4 --radix 4x4 \
        --sweep 0.05:0.15:3 --warmup 100 --measure 300 \
        --cache-dir "$CACHE_DIR"
}
first=$(engine_sweep)
echo "$first" | grep -q "3 points: 3 simulated" || {
    echo "engine smoke: cold run did not simulate 3 points:"; echo "$first"; exit 1; }
second=$(engine_sweep)
echo "$second" | grep -q "3 points: 0 simulated, 3 cached" || {
    echo "engine smoke: warm run was not fully cache-served:"; echo "$second"; exit 1; }

echo "==> --jobs equivalence (reports bit-identical across worker counts)"
jobs_sweep() { # n
    cargo run -q -p mdd-bench --release --bin mddsim -- \
        --scheme pr --pattern pat271 --vcs 4 --radix 4x4 \
        --sweep 0.05:0.15:3 --warmup 100 --measure 300 \
        --no-cache --jobs "$1" 2>/dev/null
}
jobs1=$(jobs_sweep 1)
jobs4=$(jobs_sweep 4)
[ "$jobs1" = "$jobs4" ] || {
    echo "jobs equivalence: --jobs 1 and --jobs 4 disagree:"
    diff <(echo "$jobs1") <(echo "$jobs4") || true; exit 1; }
# --jobs 0 must be rejected at the flag, not deep in the pool.
set +e
cargo run -q -p mdd-bench --release --bin mddsim -- \
    --scheme pr --pattern pat271 --vcs 4 --radix 4x4 \
    --sweep 0.05:0.15:3 --warmup 100 --measure 300 --jobs 0 >/dev/null 2>&1
jobs0_status=$?
set -e
[ "$jobs0_status" -eq 2 ] || {
    echo "jobs equivalence: --jobs 0 should exit 2, got $jobs0_status"; exit 1; }
# Bad --sweep bounds must be rejected at the flag too: empty or reversed
# ranges, fewer than two points, non-finite or negative loads.
for bad in 0.3:0.1:3 0.1:0.3:1 0.1:inf:2 -0.1:0.1:2; do
    set +e
    cargo run -q -p mdd-bench --release --bin mddsim -- \
        --scheme pr --pattern pat271 --vcs 4 --radix 4x4 \
        --sweep "$bad" --warmup 100 --measure 300 --no-cache >/dev/null 2>&1
    sweep_status=$?
    set -e
    [ "$sweep_status" -eq 2 ] || {
        echo "sweep bounds: --sweep $bad should exit 2, got $sweep_status"; exit 1; }
done

echo "==> --shards equivalence (one run bit-identical across shard counts)"
# Unlike --jobs (which farms out whole points), --shards parallelizes
# inside a single run — and the cache key deliberately ignores it, so
# the comparison MUST bypass the cache or the second run would be served
# from the first's entries and the check would be vacuous.
# 16x16 (four wake-set words), so shard boundaries fall inside the torus
# and cross-shard mailbox traffic is actually exercised.
shards_sweep() { # n
    cargo run -q -p mdd-bench --release --bin mddsim -- \
        --scheme pr --pattern pat271 --vcs 4 --radix 16x16 \
        --sweep 0.10:0.30:3 --warmup 100 --measure 300 \
        --no-cache --shards "$1" 2>/dev/null
}
shards1=$(shards_sweep 1)
shards4=$(shards_sweep 4)
[ "$shards1" = "$shards4" ] || {
    echo "shards equivalence: --shards 1 and --shards 4 disagree:"
    diff <(echo "$shards1") <(echo "$shards4") || true; exit 1; }
# --shards 0 must be rejected at the flag, like --jobs 0.
set +e
cargo run -q -p mdd-bench --release --bin mddsim -- \
    --scheme pr --pattern pat271 --vcs 4 --radix 16x16 \
    --sweep 0.10:0.30:3 --warmup 100 --measure 300 --shards 0 >/dev/null 2>&1
shards0_status=$?
set -e
[ "$shards0_status" -eq 2 ] || {
    echo "shards equivalence: --shards 0 should exit 2, got $shards0_status"; exit 1; }

echo "==> pool scaling perf gate (self-skips below 4 cores)"
cargo test -q -p mdd-engine --release --test perf -- --ignored

echo "==> shard scaling perf gate (self-skips below 4 cores)"
cargo test -q -p mdd-sim --release --test shard_perf -- --ignored

echo "==> static verifier smoke (mddsim --verify)"
verify_one() { # scheme vcs expected_verdict
    local out
    out=$(cargo run -q -p mdd-bench --release --bin mddsim -- \
        --verify --scheme "$1" --pattern pat271 --vcs "$2" --radix 8x8) || true
    echo "$out" | grep -q "verdict: $3" || {
        echo "verify smoke: $1 vcs=$2 expected $3, got:"; echo "$out"; exit 1; }
}
verify_one sa 8 ProvenFree
verify_one dr 8 RecoverableCycles
verify_one pr 4 RecoverableCycles
# One VC short of SA's budget must be rejected outright (exit status 3).
set +e
unsafe_out=$(cargo run -q -p mdd-bench --release --bin mddsim -- \
    --verify --scheme sa --pattern pat271 --vcs 7 --radix 8x8)
unsafe_status=$?
set -e
[ "$unsafe_status" -eq 3 ] || {
    echo "verify smoke: crippled SA should exit 3, got $unsafe_status"; exit 1; }
echo "$unsafe_out" | grep -q "verdict: Unsafe" || {
    echo "verify smoke: crippled SA should be Unsafe, got:"; echo "$unsafe_out"; exit 1; }

echo "==> golden verdicts (mdd-analyze --verdicts is bit-for-bit reproducible)"
GOLDEN_DIR=$(mktemp -d)
trap 'rm -rf "$CACHE_DIR" "$GOLDEN_DIR"' EXIT
./target/release/mdd-analyze --verdicts --out "$GOLDEN_DIR" >/dev/null
diff -u results/verdicts.json "$GOLDEN_DIR/verdicts.json" || {
    echo "golden verdicts: results/verdicts.json drifted from the analyzer;"
    echo "rerun ./target/release/mdd-analyze --verdicts --out results and commit"
    exit 1; }

echo "==> fault-frontier smoke (full 16x16 single-link sweep, engine pool)"
frontier_out=$(./target/release/mdd-analyze --frontier --topo 16x16 --out "$GOLDEN_DIR")
echo "$frontier_out" | grep '^frontier: ' | sed 's/^/    /'
# SA is the crippled-by-fault case: fault-free it is ProvenFree at 8 VCs,
# and at least one single-link fault must degrade that verdict.
echo "$frontier_out" | grep "^frontier: sa " | grep -Eq "[1-9][0-9]* degrading" || {
    echo "frontier smoke: no verdict-degrading fault on the SA line"; exit 1; }
# Every 512-fault scheme sweep must stay interactive: <10s per scheme.
slow=$(echo "$frontier_out" | grep '^frontier: ' |
    sed -E 's/.*\(([0-9.]+)s\)$/\1/' | awk '$1 >= 10.0')
[ -z "$slow" ] || {
    echo "frontier smoke: a scheme sweep blew the 10s budget: ${slow}s"; exit 1; }

echo "==> scaling smoke (orbit-quotiented verifier at 64x64, ladder sweep point)"
# The orbit quotient must classify a 4096-router torus interactively:
# three verdicts in <1s each. The release binary is invoked directly
# (already built above) so process spawn doesn't pollute the budget.
verify_big() { # scheme vcs expected_verdict
    local out t0 t1
    t0=$(date +%s%N)
    out=$(./target/release/mddsim \
        --verify --scheme "$1" --pattern pat271 --vcs "$2" --topo 64x64) || true
    t1=$(date +%s%N)
    echo "$out" | grep -q "verdict: $3" || {
        echo "scaling smoke: $1 vcs=$2 at 64x64 expected $3, got:"; echo "$out"; exit 1; }
    local ms=$(( (t1 - t0) / 1000000 ))
    [ "$ms" -lt 1000 ] || {
        echo "scaling smoke: 64x64 $1 verdict took ${ms}ms (budget 1000ms)"; exit 1; }
    echo "    64x64 $1 vcs=$2: $3 in ${ms}ms"
}
verify_big sa 8 ProvenFree
verify_big dr 8 RecoverableCycles
verify_big pr 4 RecoverableCycles
# One short 64x64 simulation point through the --topo preset path.
scale_out=$(./target/release/mddsim \
    --scheme pr --pattern pat100 --vcs 4 --topo 64x64 \
    --load 0.005 --warmup 100 --measure 200 --no-cache)
echo "$scale_out" | grep -q "throughput" || {
    echo "scaling smoke: 64x64 sweep point produced no result:"
    echo "$scale_out"; exit 1; }

echo "==> hot-path bench smoke (load ladder + activity-scheduler counters)"
# Written to target/ so the committed BENCH_hotpath.json (full-length
# numbers) is never clobbered by quick-mode smoke results.
smoke_json="$PWD/target/hotpath_smoke.json"
rm -f "$smoke_json"
HOTPATH_QUICK=1 HOTPATH_OUT="$smoke_json" \
    cargo bench -q -p mdd-bench --bench hotpath
[ -s "$smoke_json" ] || {
    echo "hotpath smoke: $smoke_json was not written"; exit 1; }
grep -q '"pr"' "$smoke_json" || {
    echo "hotpath smoke: output is missing the pr scheme:"
    cat "$smoke_json"; exit 1; }
for load in 0.05 0.30 0.55; do
    grep -q "\"load\": $load" "$smoke_json" || {
        echo "hotpath smoke: output is missing ladder rung $load:"
        cat "$smoke_json"; exit 1; }
done
# The size ladder must have produced every rung (the bench itself asserts
# sub-linear per-cycle cost growth, so rungs present ⇒ the gate passed).
for topo in 8x8 16x16 64x64 8x8x8; do
    grep -q "\"topo\": \"$topo\"" "$smoke_json" || {
        echo "hotpath smoke: output is missing size-ladder rung $topo:"
        cat "$smoke_json"; exit 1; }
done
# The shards block must time the 64x64 saturated rung at every count.
for shards in 1 2 4; do
    grep -q "\"shards\": $shards" "$smoke_json" || {
        echo "hotpath smoke: output is missing shards=$shards rung:"
        cat "$smoke_json"; exit 1; }
done
# At low load the activity scheduler must actually be skipping work.
if grep "\"load\": 0.05" "$smoke_json" | grep -Eq '"router_ticks_skipped": 0[,}]'; then
    echo "hotpath smoke: a low-load run skipped no router ticks:"
    cat "$smoke_json"; exit 1
fi
if grep "\"load\": 0.05" "$smoke_json" | grep -Eq '"nic_ticks_skipped": 0[,}]'; then
    echo "hotpath smoke: a low-load run skipped no NIC ticks:"
    cat "$smoke_json"; exit 1
fi

echo "==> hot-path throughput floors at load 0.30"
# Quick-mode cycles/sec measured at the PR5 commit on the CI machine:
# sa=47166, pr=39262. The floors pin those baselines (rounded down) so a
# hot-path regression that undoes the saturated-regime rework fails CI
# here instead of surfacing as a silent slowdown in the next paper sweep.
# Quick mode is best-of-3, which absorbs ordinary scheduler noise; a
# machine busy enough to land a *faster* build below its predecessor's
# floor is mismeasuring everything else in this script too.
floor_check() { # scheme floor
    # Exclude "topo"-keyed entries: the size-ladder and shards blocks
    # also run at their own loads and must not leak into the 8x8 floor.
    local cps
    cps=$(grep "\"scheme\": \"$1\"" "$smoke_json" | grep -v '"topo"' |
        grep '"load": 0.30' |
        sed -E 's/.*"cycles_per_sec": ([0-9.]+).*/\1/')
    [ -n "$cps" ] || {
        echo "hotpath floor: no $1@0.30 entry in $smoke_json"; exit 1; }
    awk -v c="$cps" -v f="$2" 'BEGIN { exit !(c >= f) }' || {
        echo "hotpath floor: $1@0.30 ran at $cps cycles/sec, floor is $2"
        exit 1; }
    echo "    $1@0.30: $cps cycles/sec (floor $2)"
}
floor_check sa 47000
floor_check pr 39000

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets"
    cargo clippy --workspace --all-targets -q -- -D warnings
else
    echo "==> cargo clippy not installed; skipping"
fi

echo "==> ci.sh: all green"
