#!/usr/bin/env bash
# The repository benchmark's one command: build, then run. See README.md
# beside this file for workloads, metrics and how to read the output.
#
#   benchmark/run.sh [--seed N] [--seconds S]            all four workloads
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --smoke                             quick, not comparable
#   benchmark/run.sh --compare a.json b.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is taken from the caller's directory, by
# cargo and here alike, so the build stays where the caller asked.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --offline --release --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/gpl-benchmark" --out "$here/out" "$@"
