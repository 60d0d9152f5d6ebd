//! Parameter search (Section 4.1, last part): explore Δ, n and p within
//! their feasible ranges and pick the configuration minimizing the
//! estimated segment time. The space is pruned as the paper describes —
//! n in [1, 16], a small tile-size grid — and the whole optimization must
//! stay in the low-millisecond range ("generally smaller than 5 ms").
//!
//! The paper also tunes the per-kernel work-group counts `wg_Ki`; here
//! every kernel keeps 4 × #CU and each (Δ, n, p) point is scored once.
//! Eq. 2–9 price `wg_Ki` only below #CU, so every count at or above #CU
//! costs the same to the last bit (a tripwire test in [`crate::cost`]
//! pins that) and a search over them could never move a pick.

use crate::analyze::{build_models, StageModel};
use crate::cost::{estimate_stage, query_total};
use crate::gamma::GammaTable;
use crate::stats;
use gpl_core::plan::QueryPlan;
use gpl_core::{QueryConfig, StageConfig};
use gpl_sim::DeviceSpec;
use gpl_tpch::TpchDb;
use std::time::{Duration, Instant};

/// The Δ grid of Figure 12: 256 KB to 16 MB.
pub fn tile_grid() -> Vec<u64> {
    vec![
        256 << 10,
        512 << 10,
        1 << 20,
        2 << 20,
        4 << 20,
        8 << 20,
        16 << 20,
    ]
}

/// Channel-count grid: the paper searches n in [1, 16], capped at the
/// device's channel fan-out (the CPU profile stops at 4) — a config past
/// the cap would abort at channel creation.
pub fn channel_grid(spec: &DeviceSpec) -> Vec<u32> {
    [1, 2, 4, 8, 16]
        .into_iter()
        .filter(|&n| n <= spec.channel.max_channels)
        .collect()
}

/// Packet-size grid (AMD only; NVIDIA's packet size is fixed).
pub fn packet_grid(spec: &DeviceSpec) -> Vec<u32> {
    if spec.channel.tunable_packet_size {
        vec![8, 16, 32, 64]
    } else {
        vec![spec.channel.fixed_packet_bytes]
    }
}

/// Overlap-slice grid (K) for cross-segment pipelining. This knob sits
/// next to Δ/n/p but is searched by [`crate::overlap::attach_overlap`]
/// as a *post-pass* over the already-optimized per-stage configs — the
/// base search stays byte-identical for the three sequential modes,
/// which pinned serve fingerprints depend on.
pub fn slice_grid() -> Vec<u32> {
    vec![1, 2, 4, 8]
}

/// Result of optimizing one plan.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    pub config: QueryConfig,
    /// Estimated total query cycles under `config`.
    pub estimate: f64,
    /// Wall time spent searching (the "<5 ms" claim of Section 4.1).
    pub elapsed: Duration,
    /// Cost-model evaluations performed.
    pub evaluated: usize,
}

/// Optimize every stage of `plan`.
pub fn optimize(
    spec: &DeviceSpec,
    gamma: &GammaTable,
    db: &TpchDb,
    plan: &QueryPlan,
) -> SearchOutcome {
    let stats = stats::estimate(db, plan);
    let models = build_models(db, plan, &stats, spec);
    optimize_models(spec, gamma, plan, &models)
}

/// Optimize given prebuilt stage models (lets callers reuse λ estimates).
pub fn optimize_models(
    spec: &DeviceSpec,
    gamma: &GammaTable,
    plan: &QueryPlan,
    models: &[StageModel],
) -> SearchOutcome {
    optimize_models_traced(spec, gamma, plan, models, None)
}

/// [`optimize_models`], recording the search into `rec` when present: one
/// span per stage (carrying the winning configuration) and one instant
/// event per explored (Δ, n, p) grid point with its Eq. 8 score.
/// Timestamps come from the recorder's logical clock — the search has no
/// simulated cycles, and wall time would break determinism.
pub fn optimize_models_traced(
    spec: &DeviceSpec,
    gamma: &GammaTable,
    plan: &QueryPlan,
    models: &[StageModel],
    rec: Option<&gpl_obs::Recorder>,
) -> SearchOutcome {
    let start = Instant::now();
    let mut evaluated = 0usize;
    let (totals, stages): (Vec<f64>, _) = models
        .iter()
        .enumerate()
        .map(|(idx, sm)| {
            let span = rec.map(|r| {
                let t = r.track("model.search");
                r.begin(t, "search", format!("stage{idx}"), r.tick())
            });
            let before = evaluated;
            let (total, cfg) = optimize_stage(spec, gamma, sm, &mut evaluated, rec, idx);
            if let (Some(r), Some(s)) = (rec, span) {
                r.arg(s, "tile_bytes", cfg.tile_bytes);
                r.arg(s, "n_channels", cfg.n_channels);
                r.arg(s, "packet_bytes", cfg.packet_bytes);
                r.arg(s, "evaluated", evaluated - before);
                r.end(s, r.tick());
            }
            (total, cfg)
        })
        .unzip();
    let config = QueryConfig { stages };
    let estimate = query_total(spec, totals.into_iter(), !plan.order_by.is_empty());
    SearchOutcome {
        config,
        estimate,
        elapsed: start.elapsed(),
        evaluated,
    }
}

/// One stage's best grid point, with its Eq. 8 total.
fn optimize_stage(
    spec: &DeviceSpec,
    gamma: &GammaTable,
    sm: &StageModel,
    evaluated: &mut usize,
    rec: Option<&gpl_obs::Recorder>,
    stage_idx: usize,
) -> (f64, StageConfig) {
    let kernels = sm.ir.nodes.len();
    let mut best: Option<(f64, StageConfig)> = None;
    let ns = channel_grid(spec);
    let ps = packet_grid(spec);
    for &tile in &tile_grid() {
        for &n in &ns {
            for &p in &ps {
                let cfg = StageConfig {
                    tile_bytes: tile,
                    n_channels: n,
                    packet_bytes: p,
                    wg_counts: vec![4 * spec.num_cus; kernels],
                    overlap_slices: 0,
                };
                let est = estimate_stage(spec, gamma, sm, &cfg).total;
                *evaluated += 1;
                if let Some(r) = rec {
                    let t = r.track("model.search");
                    r.instant(
                        t,
                        "search",
                        "candidate",
                        r.tick(),
                        vec![
                            ("stage", gpl_obs::Value::from(stage_idx)),
                            ("tile_bytes", gpl_obs::Value::from(tile)),
                            ("n_channels", gpl_obs::Value::from(n)),
                            ("packet_bytes", gpl_obs::Value::from(p)),
                            ("est_cycles", gpl_obs::Value::from(est)),
                        ],
                    );
                }
                if best.as_ref().map(|(b, _)| est < *b).unwrap_or(true) {
                    best = Some((est, cfg));
                }
            }
        }
    }
    best.expect("non-empty search grids")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::estimate_query;
    use gpl_core::plan_for;
    use gpl_sim::amd_a10;
    use gpl_tpch::QueryId;

    fn gamma() -> GammaTable {
        GammaTable::calibrate_grid(
            &amd_a10(),
            vec![1, 4, 16],
            vec![16, 64],
            vec![256 << 10, 2 << 20, 16 << 20],
        )
    }

    #[test]
    fn search_produces_valid_configs_fast() {
        let spec = amd_a10();
        let g = gamma();
        let db = TpchDb::at_scale(0.01);
        let plan = plan_for(&db, QueryId::Q8);
        let out = optimize(&spec, &g, &db, &plan);
        assert_eq!(out.config.stages.len(), plan.stages.len());
        for (stage, cfg) in plan.stages.iter().zip(&out.config.stages) {
            assert_eq!(cfg.wg_counts.len(), stage.gpl_kernel_names().len());
            assert!(tile_grid().contains(&cfg.tile_bytes));
            assert!(cfg.n_channels >= 1 && cfg.n_channels <= 16);
            for &wg in &cfg.wg_counts {
                assert_eq!(wg, 4 * spec.num_cus, "every kernel keeps 4 × #CU");
            }
        }
        assert!(out.estimate.is_finite() && out.estimate > 0.0);
        let grid = tile_grid().len() * channel_grid(&spec).len() * packet_grid(&spec).len();
        assert_eq!(
            out.evaluated,
            plan.stages.len() * grid,
            "one evaluation per grid point"
        );
        // The paper reports <5 ms; allow slack for debug builds and the
        // λ-estimation pass.
        assert!(
            out.elapsed.as_millis() < 2_000,
            "search took {:?}",
            out.elapsed
        );
    }

    #[test]
    fn chosen_config_beats_the_worst_grid_point() {
        let spec = amd_a10();
        let g = gamma();
        let db = TpchDb::at_scale(0.01);
        let plan = plan_for(&db, QueryId::Q14);
        let st = stats::estimate(&db, &plan);
        let ms = build_models(&db, &plan, &st, &spec);
        let out = optimize_models(&spec, &g, &plan, &ms);
        // Compare against a deliberately bad configuration.
        let bad = QueryConfig {
            stages: plan
                .stages
                .iter()
                .map(|s| StageConfig {
                    tile_bytes: 256 << 10,
                    n_channels: 1,
                    packet_bytes: 8,
                    wg_counts: vec![spec.num_cus; s.gpl_kernel_names().len()],
                    overlap_slices: 0,
                })
                .collect(),
        };
        let bad_est = estimate_query(&spec, &g, &ms, &bad, false);
        assert!(
            out.estimate <= bad_est,
            "optimizer {} vs bad {}",
            out.estimate,
            bad_est
        );
    }
}
