//! Joining the model's predictions against a run's observed kernel
//! profiles into a [`DriftReport`] — the feedback seam an adaptive
//! re-optimizer reads.
//!
//! Both sides key by the same lowered-IR kernel names (the model is
//! built from [`StageModel::ir`], the executors launch from it), so the
//! join is positional and exact: kernel `j` of stage `i` in the
//! estimate is kernel `j` of `run.per_stage[i]` in the profile. Two
//! predictions are joined per kernel:
//!
//! * **λ** — the model's selectivity estimate ([`KernelModel::lambda`])
//!   against observed `rows_out / rows_in` from the simulator's
//!   row-counting plane.
//! * **cycles** — the Eq. 8 per-kernel estimate (`t(K)` × tiles)
//!   against observed busy cycles over the kernel's effective CUs
//!   (reconstructed from the residency the estimate carries, so both
//!   sides are wall-style).
//!
//! [`KernelModel::lambda`]: crate::analyze::KernelModel::lambda

use crate::analyze::StageModel;
use crate::cost::estimate_stage;
use crate::gamma::GammaTable;
use gpl_core::{QueryConfig, QueryRun};
use gpl_obs::{DriftReport, KernelDrift};
use gpl_sim::{DeviceSpec, LaunchProfile};

/// Join `run`'s observed per-stage kernel profiles against the model's
/// predictions. Stages beyond `run.per_stage` (or kernels the run never
/// launched) are reported with observed zeros rather than dropped, so
/// the report always covers the full plan.
pub fn drift_for_run(
    spec: &DeviceSpec,
    gamma: &GammaTable,
    models: &[StageModel],
    cfg: &QueryConfig,
    run: &QueryRun,
    query: &str,
    mode: &str,
) -> DriftReport {
    let mut report = DriftReport::new(query, mode);
    join_observed(&mut report, spec, gamma, models, cfg, &run.per_stage);
    report
}

/// The multi-device sibling of [`drift_for_run`]: join one pool
/// device's merged per-stage profiles (`gpl_core::shard::DeviceRun::
/// per_stage`) against *that device's* model predictions, keyed
/// `(device, kernel)` via [`DriftReport::for_device`]. Stages the
/// device never participated in carry `LaunchProfile::default()`
/// entries, so they join as observed zeros — the report still covers
/// the full plan per device.
#[allow(clippy::too_many_arguments)]
pub fn drift_for_device_run(
    spec: &DeviceSpec,
    gamma: &GammaTable,
    models: &[StageModel],
    cfg: &QueryConfig,
    per_stage: &[LaunchProfile],
    query: &str,
    device: &str,
    mode: &str,
) -> DriftReport {
    let mut report = DriftReport::for_device(query, device, mode);
    join_observed(&mut report, spec, gamma, models, cfg, per_stage);
    report
}

fn join_observed(
    report: &mut DriftReport,
    spec: &DeviceSpec,
    gamma: &GammaTable,
    models: &[StageModel],
    cfg: &QueryConfig,
    per_stage: &[LaunchProfile],
) {
    let num_cus = u64::from(spec.num_cus);
    for (i, (sm, scfg)) in models.iter().zip(&cfg.stages).enumerate() {
        let est = estimate_stage(spec, gamma, sm, scfg);
        let names = sm.ir.kernel_names();
        let observed = per_stage.get(i);
        for (j, ((kc, km), name)) in est
            .per_kernel
            .iter()
            .zip(&sm.kernels)
            .zip(&names)
            .enumerate()
        {
            let predicted = kc.t() * est.num_tiles as f64;
            // The model's t() is wall-style: total work over the CUs the
            // kernel effectively occupies. The simulator sums busy
            // cycles over every work-unit, so divide by the same
            // effective-CU count to compare like with like.
            let slots = (u64::from(kc.a_wg) * num_cus).min(u64::from(scfg.wg_counts[j]));
            let used_cus = slots.min(num_cus).max(1) as f64;
            let k = observed.and_then(|p| p.kernels.get(j));
            report.kernels.push(KernelDrift {
                stage: sm.name.clone(),
                kernel: name.to_string(),
                predicted_lambda: km.lambda,
                observed_lambda: k.map(|k| k.observed_lambda()).unwrap_or(0.0),
                rows_in: k.map(|k| k.rows_in).unwrap_or(0),
                rows_out: k.map(|k| k.rows_out).unwrap_or(0),
                predicted_cycles: predicted,
                observed_cycles: k
                    .map(|k| (k.compute_cycles + k.mem_cycles + k.dc_cycles) as f64 / used_cus)
                    .unwrap_or(0.0),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_models, stats};
    use gpl_core::{plan_for, run_query, ExecContext, ExecMode};
    use gpl_sim::amd_a10;
    use gpl_tpch::{QueryId, TpchDb};

    #[test]
    fn q14_drift_joins_every_kernel_with_observed_rows() {
        let spec = amd_a10();
        let gamma = GammaTable::calibrate_grid(
            &spec,
            vec![1, 4, 16],
            vec![16, 64],
            vec![256 << 10, 2 << 20, 16 << 20],
        );
        let mut ctx = ExecContext::new(spec, TpchDb::at_scale(0.002));
        let plan = plan_for(&ctx.db, QueryId::Q14);
        let st = stats::estimate(&ctx.db, &plan);
        let spec = ctx.spec();
        let models = build_models(&ctx.db, &plan, &st, &spec);
        let cfg = QueryConfig::default_for(&spec, &plan);
        let run = run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
        let report = drift_for_run(&spec, &gamma, &models, &cfg, &run, "q14", "gpl");

        let total: usize = models.iter().map(|m| m.kernels.len()).sum();
        assert_eq!(report.kernels.len(), total);
        // The probe stage's leaf consumed the whole driving relation.
        let leaf = report
            .kernels
            .iter()
            .find(|k| k.stage.starts_with("probe"))
            .expect("probe stage present");
        assert!(leaf.rows_in > 0, "observed rows flow through the join");
        // Terminals predict λ = 0 and observe rows_out = 0 → zero error.
        let term = report.kernels.last().unwrap();
        assert_eq!(term.rows_out, 0);
        assert_eq!(term.lambda_err(), 0.0);
        // Rendering is deterministic for identical runs.
        let report2 = drift_for_run(&spec, &gamma, &models, &cfg, &run, "q14", "gpl");
        assert_eq!(report.render(), report2.render());
    }
}
