//! # gpl-bench — the experiment harness
//!
//! One subcommand per table/figure of the paper (see DESIGN.md's
//! per-experiment index); the `repro` binary prints the same rows and
//! series the paper reports, in simulated cycles. `repro verify` re-runs
//! the pinned ones and byte-compares them with the committed
//! `BENCH_*.json` (see [`experiments::verify`]). Host wall-clock is the
//! repository benchmark's job (`benchmark/`).

pub mod artifact;
pub mod cli;
pub mod experiments;

pub use artifact::{ArtifactSink, BenchArtifact, RunEntry};
