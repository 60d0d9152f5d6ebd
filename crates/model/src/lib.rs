//! # gpl-model — the analytical model of Section 4
//!
//! Determines the optimal pipelined-execution configuration (tile size Δ,
//! channel count `n`, packet size `p`, per-kernel work-group counts
//! `wg_Ki`) from query and hardware information:
//!
//! * [`gamma`] — the calibrated Γ(n, p, d) channel-throughput table
//!   (Eq. 1 / Eq. 11), built by running the Section 2.1 producer→consumer
//!   microbenchmark on the simulated device.
//! * [`stats`] — query-optimizer inputs: the λ data-reduction ratios,
//!   estimated by sampled pipeline evaluation.
//! * [`analyze`] — program-analysis inputs: per-kernel resources,
//!   instruction counts and stream widths.
//! * [`cost`] — Eq. 2–9: residency, computation, memory/channel and delay
//!   costs, combined into the segment time `T_Sk`.
//! * [`search`] — the pruned parameter search (n in \[1, 16\], p, the
//!   Figure 12 tile grid; wg_Ki kept at 4 × #CU, which Eq. 2–9 price the
//!   same as every count at or above #CU) with its <5 ms budget.
//! * [`overlap`] — the cross-segment pipelining predicate: decides per
//!   eligible build→probe pair whether overlapping the build terminal
//!   with the probe leaf pays off, and at how many slices K.
//! * [`error`] — Eq. 10 relative-error validation against the simulator.
//! * [`drift`] — the per-kernel predicted-vs-observed join (λ and Eq. 8
//!   cycles against the simulator's row counts and busy cycles),
//!   producing `gpl_obs` drift reports.

pub mod analyze;
pub mod cost;
pub mod drift;
pub mod error;
pub mod gamma;
pub mod joinopt;
pub mod overlap;
pub mod place;
pub mod search;
pub mod stats;

pub use analyze::{build_models, KernelModel, StageModel};
pub use cost::{estimate_query, estimate_stage, StageEstimate};
pub use drift::{drift_for_device_run, drift_for_run};
pub use error::{evaluate, relative_error, ModelEval};
pub use gamma::GammaTable;
pub use joinopt::{optimize_join_order, optimize_with_stats};
pub use overlap::{attach_overlap, OverlapDecision};
pub use place::{hedge_plan, place_query, place_with_stats, PlacedStage, Placement};
pub use search::{optimize, optimize_models, optimize_models_traced, SearchOutcome};
pub use stats::{estimate as estimate_stats, PlanStats};
