#!/usr/bin/env bash
# The full verification gate: the repo must build, lint and test green,
# fully offline, with zero external crate dependencies, and every pinned
# experiment must reproduce its committed BENCH_*.json byte for byte.
# Prints wall seconds per gate.
set -euo pipefail
cd "$(dirname "$0")/.."

n=0
gate() {
    n=$((n + 1))
    echo "== $n/8 $1 =="
    shift
    local t0=$SECONDS
    "$@"
    echo "ok: gate $n in $((SECONDS - t0)) s"
}

# Every dependency must be an in-workspace path dependency; the three
# crates the hermetic-build PR removed must never come back.
deps() {
    if grep -rn "^rand\|^proptest\|^criterion" Cargo.toml crates/*/Cargo.toml; then
        echo "FAIL: external crate dependency found (see above)" >&2
        return 1
    fi
    if grep -n '\(registry\|git\) *=' Cargo.toml crates/*/Cargo.toml; then
        echo "FAIL: non-path dependency source found (see above)" >&2
        return 1
    fi
}

# The 32-query seed-42 workload at 1/2/8 workers must match its pinned
# fingerprint every time — run it repeatedly to shake out scheduling
# races that a single lucky run could hide.
scheduler_determinism() {
    for i in 1 2 3 4 5; do
        cargo test --offline --release -q --test determinism \
            serving_is_deterministic_across_worker_counts -- --exact \
            || { echo "FAIL: determinism run $i" >&2; return 1; }
    done
}

gate "dependency-creep check" deps
gate "formatting" cargo fmt --check
gate "clippy (warnings are errors)" \
    cargo clippy --offline --workspace --all-targets -- -D warnings
gate "rustdoc (warnings are errors)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
gate "tier-1: release build" cargo build --offline --release
gate "tier-1: workspace test suite" cargo test --offline -q
gate "scheduler determinism, five runs" scheduler_determinism
# One table (crates/bench/src/experiments/verify.rs) of experiment,
# repeat count, outputs byte-compared across repeats, and committed pin:
# profile's exports, serve/pipeline/shard/chaos twice, faults five times,
# table1, fig3, fig11/fig24 twice (artifact only), fig16/fig20/fig21/
# fig22 twice, `repro bench` twice, then the fourteen root BENCH_*.json
# pins (BENCH_wall.json beside them is the host trajectory, not a pin).
# Re-pin a deliberate change with `cp target/obs/BENCH_*.json .` and
# explain the movement in the commit.
gate "repro verify: repeats and committed pins, by bytes" \
    cargo run --offline --release -p gpl-bench --bin repro -- verify

echo "verify: all green"
