//! Heterogeneous CPU/GPU placement: extend the Section 4 search across
//! a device pool.
//!
//! For each pool device the pass runs the full Eq. 8 knob search
//! (`optimize_models`) against that device's spec and calibrated Γ
//! table, then assigns every stage (a fused sub-DAG of the shared
//! `SegmentIr`) to the device whose tuned per-stage estimate is lowest
//! — the operator-to-device assignment strategy of coupled CPU-GPU
//! co-processing (He et al., arXiv:1307.1955). The asymmetries the
//! choice keys on all flow through the IR: `ResourceUsage` bounds
//! residency per device, edge widths and eager/lazy byte volumes scale
//! the memory terms, and the per-device `launch_cycles` overhead is
//! what hands tiny build stages to the CPU.
//!
//! The output is a `gpl_core::shard::ShardAssignment` (anchor device
//! per stage + the per-device tuned configs), ready for
//! `try_run_query_sharded`, plus the per-device estimate matrix so
//! experiments can compare heterogeneous against homogeneous
//! placements in *modeled* cycles before observing simulated ones.

use crate::analyze::build_models;
use crate::cost::estimate_stage;
use crate::gamma::GammaTable;
use crate::search::optimize_models;
use crate::stats::{estimate as estimate_stats, PlanStats};
use gpl_core::plan::QueryPlan;
use gpl_core::shard::{DeviceKind, DevicePool, HedgePlan, ShardAssignment};
use gpl_tpch::TpchDb;

/// One stage's placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedStage {
    /// Chosen pool-device index (argmin of `estimates`, ties to the
    /// lowest index).
    pub device: usize,
    /// Eq. 9 total per pool device under that device's tuned config;
    /// `f64::INFINITY` where the device class was not allowed.
    pub estimates: Vec<f64>,
}

/// The placement pass's full output.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Anchor device per stage + per-device tuned configs, consumable
    /// by `gpl_core::shard::try_run_query_sharded`.
    pub assignment: ShardAssignment,
    pub per_stage: Vec<PlacedStage>,
    /// Sum of the chosen per-stage estimates — the modeled cycles of
    /// this (possibly heterogeneous) placement.
    pub modeled_total: f64,
    /// Modeled cycles of running *every* stage on each single device
    /// (the homogeneous baselines), `f64::INFINITY` where disallowed.
    pub device_totals: Vec<f64>,
}

/// Run the placement pass over `pool`. `gammas` holds one calibrated
/// table per pool device, in pool order. `restrict` limits candidate
/// devices to one class (`Some(DeviceKind::Gpu)` = the best homogeneous
/// all-GPU placement the acceptance comparison is made against).
///
/// Deterministic: the per-device searches and the argmin are pure
/// functions of (db, plan, specs, gammas) — the drift guard in
/// `tests/cross_engine.rs` pins cached placements to fresh ones.
pub fn place_query(
    pool: &DevicePool,
    gammas: &[GammaTable],
    db: &TpchDb,
    plan: &QueryPlan,
    restrict: Option<DeviceKind>,
) -> Placement {
    place_with_stats(pool, gammas, db, plan, &estimate_stats(db, plan), restrict)
}

/// [`place_query`] for a caller that already holds `plan`'s statistics
/// (a planner from SQL gets them from
/// [`crate::joinopt::optimize_with_stats`]), so the sample is not
/// evaluated again.
pub fn place_with_stats(
    pool: &DevicePool,
    gammas: &[GammaTable],
    db: &TpchDb,
    plan: &QueryPlan,
    stats: &PlanStats,
    restrict: Option<DeviceKind>,
) -> Placement {
    assert_eq!(gammas.len(), pool.len(), "one gamma table per device");
    let allowed: Vec<bool> = pool
        .devices()
        .iter()
        .map(|d| restrict.is_none_or(|k| d.kind() == k))
        .collect();
    assert!(
        allowed.iter().any(|&a| a),
        "restriction excludes the whole pool"
    );

    let mut configs = Vec::with_capacity(pool.len());
    // estimate_matrix[d][s]: tuned Eq. 9 total of stage s on device d.
    let mut matrix = Vec::with_capacity(pool.len());
    for (d, dev) in pool.devices().iter().enumerate() {
        let models = build_models(db, plan, stats, &dev.spec);
        let outcome = optimize_models(&dev.spec, &gammas[d], plan, &models);
        let per_stage: Vec<f64> = models
            .iter()
            .zip(&outcome.config.stages)
            .map(|(sm, cfg)| estimate_stage(&dev.spec, &gammas[d], sm, cfg).total)
            .collect();
        matrix.push(per_stage);
        configs.push(outcome.config);
    }

    let mut stage_device = Vec::with_capacity(plan.stages.len());
    let mut per_stage = Vec::with_capacity(plan.stages.len());
    let mut modeled_total = 0.0;
    for s in 0..plan.stages.len() {
        let estimates: Vec<f64> = matrix
            .iter()
            .zip(&allowed)
            .map(|(row, &ok)| if ok { row[s] } else { f64::INFINITY })
            .collect();
        let device = estimates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(d, _)| d)
            .expect("non-empty pool");
        modeled_total += estimates[device];
        stage_device.push(device);
        per_stage.push(PlacedStage { device, estimates });
    }
    let device_totals: Vec<f64> = (0..pool.len())
        .map(|d| {
            if allowed[d] {
                matrix[d].iter().sum()
            } else {
                f64::INFINITY
            }
        })
        .collect();

    Placement {
        assignment: ShardAssignment {
            stage_device,
            configs,
        },
        per_stage,
        modeled_total,
        device_totals,
    }
}

/// Lift a placement's per-stage estimate matrix into the shard runner's
/// straggler-hedging plan (DESIGN.md §11): `modeled[stage][device]` is
/// exactly the Eq. 8/9 cycle estimate `place_query` scored that device
/// with (`INFINITY` where the device was disallowed), and `threshold`
/// is the lateness multiple past which a shard gets a speculative
/// backup — [`HedgePlan::DEFAULT_THRESHOLD`] unless the caller tunes
/// it.
pub fn hedge_plan(placement: &Placement, threshold: f64) -> HedgePlan {
    HedgePlan::new(
        placement
            .per_stage
            .iter()
            .map(|ps| ps.estimates.clone())
            .collect(),
        threshold,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpl_core::plan::plan_for;
    use gpl_tpch::QueryId;

    fn small_gammas(pool: &DevicePool) -> Vec<GammaTable> {
        pool.devices()
            .iter()
            .map(|d| GammaTable::calibrate(&d.spec))
            .collect()
    }

    #[test]
    fn placement_is_deterministic_and_no_worse_than_homogeneous() {
        let db = TpchDb::at_scale(0.002);
        let pool = DevicePool::default_pool();
        let gammas = small_gammas(&pool);
        let plan = plan_for(&db, QueryId::Q9);
        let p1 = place_query(&pool, &gammas, &db, &plan, None);
        let p2 = place_query(&pool, &gammas, &db, &plan, None);
        assert_eq!(p1, p2, "placement is a pure function");
        // Free placement is never modeled worse than any homogeneous one.
        for &t in &p1.device_totals {
            assert!(p1.modeled_total <= t + 1e-9);
        }
        assert_eq!(p1.assignment.stage_device.len(), plan.stages.len());
        assert_eq!(p1.assignment.configs.len(), pool.len());
    }

    #[test]
    fn gpu_restriction_excludes_the_cpu() {
        let db = TpchDb::at_scale(0.002);
        let pool = DevicePool::default_pool();
        let gammas = small_gammas(&pool);
        let plan = plan_for(&db, QueryId::Q14);
        let p = place_query(&pool, &gammas, &db, &plan, Some(DeviceKind::Gpu));
        for (d, dev) in pool.devices().iter().enumerate() {
            if dev.kind() == DeviceKind::Cpu {
                assert!(p.assignment.stage_device.iter().all(|&a| a != d));
                assert!(p.device_totals[d].is_infinite());
            }
        }
    }
}
