//! # gpl-core — the GPL pipelined query engine (the paper's contribution)
//!
//! Implements the system of *GPL: A GPU-based Pipelined Query Processing
//! Engine* (SIGMOD'16) against the `gpl-sim` device:
//!
//! * [`plan`] — segmented physical plans: pipelines of operators cut at
//!   blocking kernels, with hand-verified plans for the paper's workload
//!   (TPC-H Q5/Q7/Q8/Q9/Q14 and the Listing-1 example) and for
//!   Q1/Q3/Q6/Q10/Q12 ([`plan_for`]).
//! * [`segment`] — the shared segment IR: each stage lowers once to a
//!   kernel DAG (nodes, channel edges, eager/lazy leaf columns) that
//!   both executors and the Section-4 cost model consume, so the
//!   modeled pipeline and the executed pipeline agree by construction.
//! * [`kbe`] — the kernel-based-execution baseline (Section 2.2): one
//!   kernel at a time, map + prefix-sum + scatter decomposition, every
//!   intermediate materialized in global memory.
//! * [`gpl`] — the pipelined executor (Section 3): concurrent kernels in
//!   a segment connected by channels, tiled input, fine-grained
//!   work-group coordination.
//! * [`exec`] — the five execution modes (KBE / GPL w/o CE / GPL /
//!   pipelined GPL / the Ocelot baseline), configuration knobs (Δ, n,
//!   p, wg_Ki) and the query runner.
//! * [`expr`], [`ops`], [`ht`] — the operator/kernel building blocks.
//! * [`shard`] — multi-device sharding: per-shard tile streams over a
//!   heterogeneous CPU/GPU [`shard::DevicePool`] with a deterministic
//!   merge of blocking-terminal state.
//!
//! Results of every mode are validated bit-for-bit against the CPU
//! reference in `gpl-tpch`.

pub mod error;
pub mod exec;
pub mod expr;
pub mod gpl;
pub mod ht;
pub mod kbe;
pub mod ops;
pub mod plan;
pub mod recover;
pub mod replay;
pub mod segment;
pub mod shard;

pub use error::ExecError;
pub use exec::{
    run_query, try_run_query_cached, try_run_query_recovering, ExecContext, ExecLimits, ExecMode,
    HtCache, QueryConfig, QueryRun, StageConfig,
};
pub use expr::{CmpOp, Expr, Pred, Slot};
pub use ht::AggKind;
pub use plan::{plan_for, Agg, DisplayHint, PipeOp, QueryPlan, Stage, Terminal};
pub use recover::{RecoveryPolicy, RecoveryStats};
pub use segment::{
    overlap_pairs, ChannelEdge, InterSegmentEdge, KernelFlavour, KernelNode, LeafColumn, SegmentIr,
};
pub use shard::{
    try_run_query_sharded, DeviceKind, DevicePool, DeviceRun, HedgePlan, PoolDevice,
    ShardAssignment, ShardFaults, ShardPlan, ShardedRun,
};
