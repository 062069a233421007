#!/bin/sh
# Tier-1 gate: everything here must pass before a change lands.
# The workspace has no external dependencies, so this runs fully offline.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> cargo test --doc"
cargo test --workspace --doc -q

# The benchmark package is its own workspace, so the steps above do not
# compile it, yet it drives the store and network APIs directly.
echo "==> perfbench tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml -q

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

if command -v rustfmt >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
else
    echo "==> rustfmt not installed; skipping format check"
fi

# Scheduler A/B smoke: the timing wheel must reproduce the heap's event
# order exactly, so a quick-scale figures run has to render byte-identical
# tables under both schedulers, and the simulated event counts must match
# the recorded baseline (wall times legitimately drift; event counts may
# not). Uses a small experiment subset to keep the gate fast.
echo "==> scheduler A/B smoke (figures --scheduler heap|wheel)"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
smoke_experiments="route fig6 churn"
for sched in heap wheel; do
    # shellcheck disable=SC2086
    ./target/release/figures --scale quick --jobs "$(nproc)" \
        --scheduler "$sched" --json "$smoke_dir/$sched.json" \
        $smoke_experiments >"$smoke_dir/$sched.tables" 2>/dev/null
done
if ! diff -u "$smoke_dir/heap.tables" "$smoke_dir/wheel.tables"; then
    echo "FAIL: heap and wheel render different tables" >&2
    exit 1
fi
# Compare per-experiment event counts against the committed baseline.
# Reports are one-line JSON; break records apart before extracting fields.
events_of() {
    tr '{' '\n' <"$1" |
        sed -n 's/.*"name": *"\([a-z0-9_]*\)".*"events": *\([0-9]*\).*/\1 \2/p'
}
events_of "$smoke_dir/wheel.json" >"$smoke_dir/wheel.events"
if [ -f BENCH_baseline.json ]; then
    events_of BENCH_baseline.json >"$smoke_dir/baseline.events"
    for exp in $smoke_experiments; do
        base=$(awk -v e="$exp" '$1 == e { print $2 }' "$smoke_dir/baseline.events")
        got=$(awk -v e="$exp" '$1 == e { print $2 }' "$smoke_dir/wheel.events")
        # Skip experiments the baseline didn't measure (recorded as 0).
        if [ -n "$base" ] && [ "$base" != "0" ] && [ "$got" != "$base" ]; then
            echo "FAIL: $exp simulated $got events, baseline recorded $base" >&2
            exit 1
        fi
    done
fi
echo "==> scheduler smoke passed (tables identical, event counts match baseline)"

# Overlay portability smoke: the generic deployment core must keep the
# Chord quick-scale figure tables byte-identical to the committed
# pre-refactor baseline, the same suite must run cleanly over the Pastry
# substrate (its experiments assert cross-overlay delivery parity
# internally), and a trace replayed over both substrates must produce the
# same delivered-set fingerprint.
echo "==> overlay smoke (figures/cbps --overlay chord|pastry)"
overlay_experiments="fig5 fig6 fig7 fig8 fig9a latency fig9b mcast partial hotspot vnodes"
# shellcheck disable=SC2086
./target/release/figures --scale quick --jobs "$(nproc)" \
    $overlay_experiments >"$smoke_dir/chord.tables" 2>/dev/null
if ! diff -u ci/baseline_overlay_chord.tables "$smoke_dir/chord.tables"; then
    echo "FAIL: chord tables drifted from the pre-refactor baseline" >&2
    exit 1
fi
# shellcheck disable=SC2086
./target/release/figures --scale quick --jobs "$(nproc)" --overlay pastry \
    $overlay_experiments >"$smoke_dir/pastry.tables" 2>/dev/null
./target/release/cbps gen-trace --out "$smoke_dir/smoke.trace" \
    --nodes 80 --subs 120 --pubs 240 --seed 5 --match 0.7 >/dev/null
for overlay in chord pastry; do
    ./target/release/cbps run-trace "$smoke_dir/smoke.trace" --nodes 80 --seed 5 \
        --overlay "$overlay" |
        sed -n 's/^delivered-set fingerprint: //p' >"$smoke_dir/$overlay.fp"
done
if ! diff "$smoke_dir/chord.fp" "$smoke_dir/pastry.fp"; then
    echo "FAIL: chord and pastry delivered different notification sets" >&2
    exit 1
fi
echo "==> overlay smoke passed (chord baseline byte-identical, fingerprints match)"

# Shard A/B smoke: the conservative-lookahead sharded engine must be an
# exact drop-in for the single-threaded loop. A quick-scale figures run
# has to render byte-identical tables at --shards 1 and --shards 4, and a
# replayed trace must print byte-identical run-trace output (including the
# delivered-set fingerprint) at both shard counts. Only stdout tables and
# fingerprints are diffed — NOT the report JSON: per-shard 1-in-64 queue
# sampling legitimately changes peak_queue_depth across shard counts.
echo "==> shard A/B smoke (figures/cbps --shards 1|4)"
shard_experiments="route fig6 mcast"
for shards in 1 4; do
    # shellcheck disable=SC2086
    ./target/release/figures --scale quick --jobs "$(nproc)" \
        --shards "$shards" \
        $shard_experiments >"$smoke_dir/shards$shards.tables" 2>/dev/null
    ./target/release/cbps run-trace "$smoke_dir/smoke.trace" --nodes 80 --seed 5 \
        --shards "$shards" >"$smoke_dir/shards$shards.rt"
done
if ! diff -u "$smoke_dir/shards1.tables" "$smoke_dir/shards4.tables"; then
    echo "FAIL: --shards 1 and --shards 4 render different tables" >&2
    exit 1
fi
if ! diff -u "$smoke_dir/shards1.rt" "$smoke_dir/shards4.rt"; then
    echo "FAIL: --shards 1 and --shards 4 replay a trace differently" >&2
    exit 1
fi
echo "==> shard smoke passed (tables and trace replay identical at 1 and 4 shards)"

# Match-engine A/B smoke: the sorted-segment index must be an exact
# drop-in for the store's row scan at rendezvous nodes. A quick-scale
# figures run has to render byte-identical tables under both engines, and
# a replayed trace must print byte-identical run-trace output (including
# the delivered-set fingerprint). A small `probe match` run then
# differentially checks both engines plus the covering store on a
# skewed workload — it exits non-zero on any match-set mismatch.
echo "==> match-engine A/B smoke (figures/cbps --match-engine scan|sorted)"
engine_experiments="route fig6 mcast"
for engine in scan sorted; do
    # shellcheck disable=SC2086
    ./target/release/figures --scale quick --jobs "$(nproc)" \
        --match-engine "$engine" \
        $engine_experiments >"$smoke_dir/$engine.tables" 2>/dev/null
    ./target/release/cbps run-trace "$smoke_dir/smoke.trace" --nodes 80 --seed 5 \
        --match-engine "$engine" >"$smoke_dir/$engine.rt"
done
if ! diff -u "$smoke_dir/scan.tables" "$smoke_dir/sorted.tables"; then
    echo "FAIL: scan and sorted engines render different tables" >&2
    exit 1
fi
if ! diff -u "$smoke_dir/scan.rt" "$smoke_dir/sorted.rt"; then
    echo "FAIL: scan and sorted engines replay a trace differently" >&2
    exit 1
fi
./target/release/probe match --subs 20000 --seed 7 >/dev/null
echo "==> match-engine smoke passed (tables and trace replay identical, probe differential clean)"

# Pool A/B smoke: the slab pool recycling in-flight envelope/timer slots
# is a pure allocation strategy, so a quick-scale figures run must render
# byte-identical tables with pooling on (reuse) and off (fresh), and a
# replayed trace must print byte-identical run-trace output (including
# the delivered-set fingerprint) under both modes. The allocation audit
# then re-runs the fixed workload under a counting global allocator —
# `probe alloc` exits non-zero unless the steady-state window after
# warmup performs exactly zero heap allocations with the reuse pool.
echo "==> pool A/B smoke (figures/cbps --pool reuse|fresh) and allocation audit"
pool_experiments="route fig6 mcast"
for pool in reuse fresh; do
    # shellcheck disable=SC2086
    ./target/release/figures --scale quick --jobs "$(nproc)" \
        --pool "$pool" \
        $pool_experiments >"$smoke_dir/pool-$pool.tables" 2>/dev/null
    ./target/release/cbps run-trace "$smoke_dir/smoke.trace" --nodes 80 --seed 5 \
        --pool "$pool" >"$smoke_dir/pool-$pool.rt"
done
if ! diff -u "$smoke_dir/pool-reuse.tables" "$smoke_dir/pool-fresh.tables"; then
    echo "FAIL: --pool reuse and --pool fresh render different tables" >&2
    exit 1
fi
if ! diff -u "$smoke_dir/pool-reuse.rt" "$smoke_dir/pool-fresh.rt"; then
    echo "FAIL: --pool reuse and --pool fresh replay a trace differently" >&2
    exit 1
fi
./target/release/probe alloc --nodes 120 --seed 7 >/dev/null
echo "==> pool smoke passed (tables and trace replay identical, steady state allocation-free)"

# Build-pipeline smoke: the deployment build path must stay near-linear
# and parallel construction must be behaviorally invisible. `probe scale`
# sweeps 10^3 and 10^4 nodes under a counting allocator and a build-time
# budget, checking per-node cost flatness (<= 2x across the sweep) and
# serial-vs-4-worker routing-table parity at every point — it exits
# non-zero on any drift. Then a quick-scale figures subset must render
# byte-identical tables at --jobs 1 and --jobs 4: --jobs drives both the
# sweep-point worker pool and the parallel node construction, so this is
# the end-to-end serial-vs-parallel byte-diff.
echo "==> build-pipeline smoke (probe scale, figures --jobs 1|4)"
./target/release/probe scale --max-nodes 10000 --budget-secs 60 >/dev/null
jobs_experiments="route fig6 mcast"
for jobs in 1 4; do
    # shellcheck disable=SC2086
    ./target/release/figures --scale quick --jobs "$jobs" \
        $jobs_experiments >"$smoke_dir/jobs$jobs.tables" 2>/dev/null
done
if ! diff -u "$smoke_dir/jobs1.tables" "$smoke_dir/jobs4.tables"; then
    echo "FAIL: --jobs 1 and --jobs 4 render different tables" >&2
    exit 1
fi
echo "==> build-pipeline smoke passed (near-linear build, parallel parity)"

# Rendezvous A/B smoke: the adaptive rendezvous policy splits hot keys'
# subscription populations across mirror arcs, which must be delivery-
# transparent: on a Zipf flash-crowd trace, static and adaptive runs must
# print the same delivered-set fingerprint at 1 and 4 shards, and the
# adaptive run's full output (including its split/merge counters) must be
# byte-identical across shard counts. `probe rendezvous` then checks the
# load-flattening claim end-to-end — it exits non-zero unless adaptive
# strictly lowers the max/mean node-load ratio with identical delivered
# sets and shard-independent control decisions.
echo "==> rendezvous A/B smoke (cbps --rendezvous static|adaptive, 1|4 shards)"
./target/release/cbps gen-trace --out "$smoke_dir/zipf.trace" \
    --nodes 100 --subs 300 --pubs 600 --selective 1 --flash-crowd 1200 \
    --seed 9 >/dev/null
for mode in static adaptive; do
    for shards in 1 4; do
        ./target/release/cbps run-trace "$smoke_dir/zipf.trace" --nodes 100 \
            --seed 9 --mapping m3 --rendezvous "$mode" --shards "$shards" \
            >"$smoke_dir/rdv-$mode-$shards.rt"
        sed -n 's/^delivered-set fingerprint: //p' \
            "$smoke_dir/rdv-$mode-$shards.rt" >"$smoke_dir/rdv-$mode-$shards.fp"
    done
done
for f in rdv-static-4 rdv-adaptive-1 rdv-adaptive-4; do
    if ! diff "$smoke_dir/rdv-static-1.fp" "$smoke_dir/$f.fp"; then
        echo "FAIL: $f delivered a different notification set than rdv-static-1" >&2
        exit 1
    fi
done
if ! diff -u "$smoke_dir/rdv-adaptive-1.rt" "$smoke_dir/rdv-adaptive-4.rt"; then
    echo "FAIL: adaptive rendezvous control decisions differ across shard counts" >&2
    exit 1
fi
if ! grep -q "^rendezvous splits: [1-9]" "$smoke_dir/rdv-adaptive-1.rt"; then
    echo "FAIL: flash crowd did not trip the adaptive split rule" >&2
    exit 1
fi
./target/release/probe rendezvous --nodes 150 >/dev/null
echo "==> rendezvous smoke passed (fingerprint parity, shard-deterministic splits, hotspot flattened)"

# Benchmark smoke: one short pub-match run through the benchmark binary
# must check every delivery against its timing-aware oracle and report
# `"correct":true` on its summary line.
echo "==> benchmark smoke (perfbench --workload pub-match)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload pub-match --seed 1 --seconds 1 --trace 0 >"$smoke_dir/perfbench.out"
if ! tail -n 1 "$smoke_dir/perfbench.out" | grep -q '"correct":true'; then
    echo "FAIL: perfbench pub-match smoke did not report correct:true" >&2
    tail -n 1 "$smoke_dir/perfbench.out" >&2
    exit 1
fi
echo "==> benchmark smoke passed"

echo "==> tier-1 gate passed"
