#!/usr/bin/env bash
# Tier-1 verification gate: the repo must build and test green, fully
# offline, with zero external crate dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== 1/17 dependency-creep check =="
# Every dependency must be an in-workspace path dependency; the three
# crates the hermetic-build PR removed must never come back.
if grep -rn "^rand\|^proptest\|^criterion" Cargo.toml crates/*/Cargo.toml; then
    echo "FAIL: external crate dependency found (see above)" >&2
    exit 1
fi
if grep -n '\(registry\|git\) *=' Cargo.toml crates/*/Cargo.toml; then
    echo "FAIL: non-path dependency source found (see above)" >&2
    exit 1
fi
echo "ok: all dependencies are in-tree path dependencies"

echo "== 2/17 formatting =="
cargo fmt --check

echo "== 3/17 clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== 4/17 rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps

echo "== 5/17 offline build =="
cargo build --offline --workspace

echo "== 6/17 tier-1: release build =="
cargo build --offline --release

echo "== 7/17 tier-1: full test suite =="
cargo test --offline --workspace -q

echo "== 8/17 observability smoke: repro profile q1 =="
# `repro profile` re-parses every export with the in-tree JSON parser
# before writing it (and panics otherwise), so a zero exit status
# asserts the exported JSON parses; the loop below just guards against
# the files silently not being written at all.
cargo run --offline --release -p gpl-bench --bin repro -- profile q1 --sf 0.01
for f in target/obs/profile-q1-kbe.trace.json \
         target/obs/profile-q1-gpl-noce.trace.json \
         target/obs/profile-q1-gpl.trace.json \
         target/obs/profile-q1-metrics.json; do
    [ -s "$f" ] || { echo "FAIL: missing export $f" >&2; exit 1; }
done
echo "ok: all four exports present and parse-checked"

echo "== 9/17 serving smoke: repro serve --workers 4 --queries 32 =="
# The experiment itself asserts a worker-count-independent result
# fingerprint and that every corpus query succeeds; a zero exit status
# is the gate.
cargo run --offline --release -p gpl-bench --bin repro -- serve --workers 4 --queries 32 --sf 0.01

echo "== 10/17 fault-injection smoke: repro faults =="
# The experiment asserts that recovered runs reproduce the fault-free
# rows fingerprint at every swept fault rate, that the breaker trips,
# and that shedding rejects exactly the overflow; zero exit = gate.
cargo run --offline --release -p gpl-bench --bin repro -- faults --sf 0.01

echo "== 11/17 seeded-fault determinism: five byte-identical reports =="
# Same seed, same report — the faults experiment writes only
# deterministic facts (no wall-clock), so five runs must produce a
# byte-identical target/obs/faults-report.txt.
ref_hash=""
for i in 1 2 3 4 5; do
    cargo run --offline --release -p gpl-bench --bin repro -- faults --sf 0.01 >/dev/null
    h=$(sha256sum target/obs/faults-report.txt | cut -d' ' -f1)
    if [ -z "$ref_hash" ]; then
        ref_hash="$h"
    elif [ "$h" != "$ref_hash" ]; then
        echo "FAIL: faults report differs on run $i ($h != $ref_hash)" >&2
        exit 1
    fi
done
echo "ok: five byte-identical fault reports ($ref_hash)"

echo "== 12/17 scheduler determinism, five runs =="
# The 32-query seed-42 workload at 1/2/8 workers must match its pinned
# fingerprint every time — run it repeatedly to shake out scheduling
# races that a single lucky run could hide.
for i in 1 2 3 4 5; do
    cargo test --offline --release -q --test determinism \
        serving_is_deterministic_across_worker_counts -- --exact \
        || { echo "FAIL: determinism run $i" >&2; exit 1; }
done
echo "ok: five consecutive deterministic runs"


echo "== 13/17 pipeline smoke: repro pipeline q14, byte-identical twice =="
# Cross-segment pipelining (DESIGN.md §9): the experiment asserts the
# fused run's rows bit-identical to sequential GPL before printing
# anything, and every reported number is simulated cycles — so stdout
# and the BENCH_pipeline.json artifact must not change between runs.
cargo run --offline --release -p gpl-bench --bin repro -- pipeline q14 --sf 0.01 > target/obs/pipeline-run1.txt
h1_out=$(sha256sum target/obs/pipeline-run1.txt | cut -d' ' -f1)
h1_json=$(sha256sum target/obs/BENCH_pipeline.json | cut -d' ' -f1)
cargo run --offline --release -p gpl-bench --bin repro -- pipeline q14 --sf 0.01 > target/obs/pipeline-run2.txt
h2_out=$(sha256sum target/obs/pipeline-run2.txt | cut -d' ' -f1)
h2_json=$(sha256sum target/obs/BENCH_pipeline.json | cut -d' ' -f1)
[ "$h1_out" = "$h2_out" ] || { echo "FAIL: pipeline stdout differs across runs" >&2; exit 1; }
[ "$h1_json" = "$h2_json" ] || { echo "FAIL: BENCH_pipeline.json differs across runs" >&2; exit 1; }
[ -s target/obs/BENCH_pipeline.json ] || { echo "FAIL: missing BENCH_pipeline.json" >&2; exit 1; }
echo "ok: pipeline experiment byte-identical across two runs ($h1_json)"

echo "== 14/17 shard smoke: repro shard q9, byte-identical twice =="
# Multi-device sharding (DESIGN.md §10): the experiment asserts rows
# bit-identical across placements and shard counts, and that 4 shards
# beat 1 on observed cycles, before printing anything; every reported
# number is simulated cycles, so stdout and the BENCH_shard.json
# artifact must not change between runs.
cargo run --offline --release -p gpl-bench --bin repro -- shard q9 > target/obs/shard-run1.txt
h1_out=$(sha256sum target/obs/shard-run1.txt | cut -d' ' -f1)
h1_json=$(sha256sum target/obs/BENCH_shard.json | cut -d' ' -f1)
cargo run --offline --release -p gpl-bench --bin repro -- shard q9 > target/obs/shard-run2.txt
h2_out=$(sha256sum target/obs/shard-run2.txt | cut -d' ' -f1)
h2_json=$(sha256sum target/obs/BENCH_shard.json | cut -d' ' -f1)
[ "$h1_out" = "$h2_out" ] || { echo "FAIL: shard stdout differs across runs" >&2; exit 1; }
[ "$h1_json" = "$h2_json" ] || { echo "FAIL: BENCH_shard.json differs across runs" >&2; exit 1; }
[ -s target/obs/BENCH_shard.json ] || { echo "FAIL: missing BENCH_shard.json" >&2; exit 1; }
echo "ok: shard experiment byte-identical across two runs ($h1_json)"

echo "== 15/17 chaos smoke: repro chaos, byte-identical twice =="
# Straggler defense (DESIGN.md §11): the experiment asserts every
# defended run's rows bit-identical to the fault-free baseline, that
# checkpointed resume tightens the sweep-wide p95/p99 inflation tails
# over whole-stage retry, and that hedging tightens the shard p95 —
# all before the gate asserts fire, and the report is written first so
# a failure leaves the evidence on disk. Every number is simulated
# cycles from seeded streams, so stdout, the report and the
# BENCH_chaos.json artifact must not change between runs.
cargo run --offline --release -p gpl-bench --bin repro -- chaos > target/obs/chaos-run1.txt
h1_out=$(sha256sum target/obs/chaos-run1.txt | cut -d' ' -f1)
h1_json=$(sha256sum target/obs/BENCH_chaos.json | cut -d' ' -f1)
cargo run --offline --release -p gpl-bench --bin repro -- chaos > target/obs/chaos-run2.txt
h2_out=$(sha256sum target/obs/chaos-run2.txt | cut -d' ' -f1)
h2_json=$(sha256sum target/obs/BENCH_chaos.json | cut -d' ' -f1)
[ "$h1_out" = "$h2_out" ] || { echo "FAIL: chaos stdout differs across runs" >&2; exit 1; }
[ "$h1_json" = "$h2_json" ] || { echo "FAIL: BENCH_chaos.json differs across runs" >&2; exit 1; }
[ -s target/obs/chaos-report.txt ] || { echo "FAIL: missing chaos-report.txt" >&2; exit 1; }
echo "ok: chaos experiment byte-identical across two runs ($h1_json)"

echo "== 16/17 bench artifacts: every cheap experiment emits a valid BENCH_*.json =="
# The dispatcher validates every artifact against gpl-bench-artifact-v1
# (and panics otherwise) before the experiment exits, so each zero
# status below asserts a well-formed file; the loop only guards against
# files silently not being written. Regenerate from scratch at pinned
# scales so the artifact set is exactly what gate 17's baseline pins.
# BENCH_chaos.json survives the sweep: gate 15 regenerated it twice at
# the pinned defaults moments ago, so re-running the three-minute
# chaos sweep here would add time without adding evidence.
find target/obs -name 'BENCH_*.json' ! -name 'BENCH_chaos.json' -delete
cargo run --offline --release -p gpl-bench --bin repro -- table1 > /dev/null
cargo run --offline --release -p gpl-bench --bin repro -- fig3 --sf 0.01 > /dev/null
cargo run --offline --release -p gpl-bench --bin repro -- profile q1 --sf 0.01 > /dev/null
cargo run --offline --release -p gpl-bench --bin repro -- pipeline q14 --sf 0.01 > /dev/null
cargo run --offline --release -p gpl-bench --bin repro -- faults --sf 0.01 > /dev/null
cargo run --offline --release -p gpl-bench --bin repro -- serve --workers 4 --queries 32 --sf 0.01 > /dev/null
cargo run --offline --release -p gpl-bench --bin repro -- shard q9 > /dev/null
# Gate 15 just ran chaos twice at the pinned defaults; reuse its
# artifact rather than paying the three-minute sweep a third time.
for e in table1 fig3 profile pipeline faults serve shard chaos; do
    [ -s "target/obs/BENCH_$e.json" ] || { echo "FAIL: missing artifact BENCH_$e.json" >&2; exit 1; }
done
# The aggregator reads ONLY the artifacts, so consecutive renders over
# an unchanged target/obs must be byte-identical.
cargo run --offline --release -p gpl-bench --bin repro -- bench > target/obs/bench-run1.txt
cargo run --offline --release -p gpl-bench --bin repro -- bench > target/obs/bench-run2.txt
cmp -s target/obs/bench-run1.txt target/obs/bench-run2.txt \
    || { echo "FAIL: repro bench table differs across runs" >&2; exit 1; }
echo "ok: seven artifacts valid, trajectory table byte-identical"

echo "== 17/17 bench regression gate: repro bench check =="
# Diffs the artifacts regenerated in gates 15-16 against the pinned
# baseline: fails if a pinned run disappeared or its simulated cycles
# drifted beyond the pinned tolerance (10%). Re-pin deliberately with
#   repro bench baseline scripts/bench_baseline.json
# and explain the movement in the commit.
cargo run --offline --release -p gpl-bench --bin repro -- bench check scripts/bench_baseline.json

echo "verify: all green"
