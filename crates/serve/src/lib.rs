//! # gpl-serve — a concurrent multi-query serving layer
//!
//! The paper's engine answers one query on one thread; the roadmap's
//! north star is sustained traffic. This crate turns the reproduction
//! into a query *server* while keeping every result deterministic:
//!
//! * [`scheduler`] — a bounded pool of `std::thread` workers behind one
//!   FIFO admission queue, with per-query
//!   simulated-cycle timeouts and cooperative cancellation. Every query
//!   runs on a device pool — a single-device server's is a pool of one —
//!   through [`gpl_core::shard::run_pool`]: each worker builds a fresh
//!   [`gpl_core::ExecContext`] per pool device per query over the shared
//!   `Arc<TpchDb>`, so simulated cycles are a pure function of the
//!   request — results and cycle counts are byte-identical at any
//!   worker count (pinned by `tests/determinism.rs`).
//! * [`cache`] — the shared [`PlanCache`]: compiled plans *and* their
//!   placement (the Section-4 optimizer's configuration per pool device;
//!   a single-device server plans over a one-device pool), keyed by
//!   pool × shard plan × exec mode × normalized SQL, LRU-evicted, with
//!   hit/miss counters.
//! * [`request`] — request/response types; failures surface as
//!   structured [`ServeError`]s (the simulator's deadlock diagnostic
//!   survives verbatim) instead of aborting the process.
//! * [`report`] — batch aggregates over the responses: the
//!   deterministic simulated schedule and its latency percentiles,
//!   recovery and straggler-defense totals, and two FNV-1a digests —
//!   results with cycles, and results alone.
//! * [`breaker`] — the per-device circuit breaker, driven by simulated
//!   device clocks; [`Server::breaker_transitions`] logs its state
//!   changes.
//!
//! The `repro serve` experiment in `gpl-bench` drives this layer over
//! the TPC-H corpus at worker counts 1/2/4/8.

pub mod breaker;
pub mod cache;
pub mod report;
pub mod request;
pub mod scheduler;

/// Lock a serve-layer mutex, recovering the guard if a panicking thread
/// poisoned it. Sound for every mutex in this crate: each protects a
/// plain queue, LRU map or list whose updates are single pushes, pops
/// and inserts — valid at every step — and no caller-supplied code runs
/// under a lock.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use breaker::{BreakerConfig, BreakerState, BreakerStats, BreakerTransition, CircuitBreaker};
pub use cache::{PlanCache, PlanEntry};
pub use report::BatchReport;
pub use request::{QueryRequest, QueryResponse, QueryResult, ServeError};
pub use scheduler::{FaultConfig, ServeConfig, Server, ShardServeConfig};
