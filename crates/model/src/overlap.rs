//! The cross-segment overlap predicate.
//!
//! Cross-segment pipelining (see `gpl_core::gpl::run_overlapped_pair`)
//! fuses an eligible build→probe stage pair into one launch: the build
//! terminal installs the shared hash table in K slices, publishing each
//! through an inter-segment channel, while the probe segment's leaf
//! scans and its gated probe admits rows of published slices. Whether
//! that wins — and at which K — is a cost-model question, answered here
//! with the same Eq. 2–9 machinery the per-stage search uses:
//!
//! * the fused pair can at best run in `max(T_b, T_p)` (Eq. 2–9 stage
//!   totals), but the probe tail cannot finish before the last slice
//!   installs, so `T_b / K` of the build remains on the critical path;
//! * slicing is not free: every build row takes a staging detour (one
//!   sequential write + one read-back of the table volume at memory
//!   bandwidth), both ends sweep the table once for the per-slice
//!   checksums (cache bandwidth), and each slice costs a publication
//!   round-trip.
//!
//! [`attach_overlap`] evaluates this per pair over the slice grid and
//! sets [`StageConfig::overlap_slices`] on the build stage only when the
//! modeled pipelined time beats the sequential sum — a *post-pass* over
//! the optimized config, so the base search (and the pinned outcomes of
//! the three sequential modes) stays byte-identical.
//!
//! [`StageConfig::overlap_slices`]: gpl_core::StageConfig::overlap_slices

use crate::analyze::StageModel;
use crate::cost::{estimate_stage, StageEstimate};
use crate::gamma::GammaTable;
use crate::search::slice_grid;
use gpl_core::plan::QueryPlan;
use gpl_core::segment::overlap_pairs;
use gpl_core::QueryConfig;
use gpl_sim::DeviceSpec;

/// One pair's verdict: the chosen K (0 = stay sequential) and the
/// modeled cycle counts behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapDecision {
    pub build_stage: usize,
    pub probe_stage: usize,
    /// Chosen overlap slices; 0 means the pair runs sequentially.
    pub slices: u32,
    /// Modeled sequential cycles for the pair (`T_b + T_p`).
    pub sequential: f64,
    /// Modeled fused cycles at the chosen K (equals `sequential` when
    /// `slices == 0`).
    pub pipelined: f64,
}

/// How much of the probe segment's Eq. 8 delay the fused launch claws
/// back. Fused launches cap work-unit rows (`gpl::FUSED_UNIT_ROWS`), so
/// a kernel that waited out a dispatch-lane rotation drains its backlog
/// as many small units spread across CUs instead of one serial gulp —
/// roughly halving the cascade's idle bubbles in measurement.
const DELAY_RECLAIM: f64 = 0.5;

/// Modeled fused-pair time at K slices, from the pair's Eq. 2–9 stage
/// estimates, the probe-side work share at or downstream of the gated
/// kernel, and the built table's footprint. Three effects compose:
///
/// * the pair shares one launch, and unit-row capping reclaims part of
///   the probe's Eq. 8 delay (`tp_f`);
/// * the build pays the slice detour: the staged entries cross the
///   cache twice when `2 × table_bytes` stays cache-resident, and at
///   write-allocate + write-back memory cost once they spill (the
///   probe leaf's streams evict them — measured as a doubling of the
///   install's memory cycles); both ends sweep the table once more for
///   the per-slice checksums, and each slice costs a publication
///   round-trip;
/// * of the probe's work, only the share behind the gate must trail
///   the last slice — and only its final 1/K-th of it, since earlier
///   slices admit while later ones install.
pub fn pipelined_estimate(
    spec: &DeviceSpec,
    build: &StageEstimate,
    probe: &StageEstimate,
    gated_share: f64,
    table_bytes: u64,
    k: u32,
) -> f64 {
    let k = k.max(1) as f64;
    let tbl = table_bytes as f64;
    let cached = 2 * table_bytes <= spec.cache_bytes;
    let staging = if cached {
        2.0 * tbl / spec.cache_bytes_per_cycle as f64
    } else {
        4.0 * tbl / spec.mem_bytes_per_cycle as f64
    };
    let checksum = 2.0 * tbl / spec.cache_bytes_per_cycle as f64;
    // Publication record + admission bookkeeping per slice.
    let per_slice = 512.0 * spec.issue_cycles as f64;
    let tb_f = build.total + staging + checksum + per_slice * k;
    let tp_f = (probe.total - DELAY_RECLAIM * probe.delay - spec.launch_cycles as f64).max(1.0);
    tb_f.max(tp_f) + gated_share * tp_f / k
}

/// Decide, per eligible pair of `plan`, whether cross-segment overlap
/// pays off under `config`, and write the winning K into the build
/// stage's [`gpl_core::StageConfig::overlap_slices`] (0 when sequential
/// wins). Returns the per-pair decisions for reporting.
pub fn attach_overlap(
    spec: &DeviceSpec,
    gamma: &GammaTable,
    plan: &QueryPlan,
    models: &[StageModel],
    config: &mut QueryConfig,
) -> Vec<OverlapDecision> {
    let mut out = Vec::new();
    for pair in overlap_pairs(&plan.stages) {
        let be = estimate_stage(
            spec,
            gamma,
            &models[pair.build_stage],
            &config.stages[pair.build_stage],
        );
        let pe = estimate_stage(
            spec,
            gamma,
            &models[pair.probe_stage],
            &config.stages[pair.probe_stage],
        );
        // The build terminal's kernel model carries the table footprint.
        let table_bytes = models[pair.build_stage]
            .kernels
            .last()
            .map(|k| k.ht_footprint)
            .unwrap_or(0);
        // Share of the probe's Eq. 7 work at or downstream of the gated
        // kernel — the part that must trail slice publication.
        let gk = models[pair.probe_stage]
            .ir
            .nodes
            .iter()
            .position(|n| n.ops.first() == Some(&pair.probe_op))
            .unwrap_or(0);
        let t_all: f64 = pe.per_kernel.iter().map(|c| c.t()).sum();
        let t_gated: f64 = pe.per_kernel[gk..].iter().map(|c| c.t()).sum();
        let gated_share = if t_all > 0.0 { t_gated / t_all } else { 1.0 };
        let sequential = be.total + pe.total;
        let (mut best, mut best_k) = (f64::INFINITY, 0u32);
        for &k in &slice_grid() {
            let est = pipelined_estimate(spec, &be, &pe, gated_share, table_bytes, k);
            if est < best {
                best = est;
                best_k = k;
            }
        }
        let slices = if best < sequential { best_k } else { 0 };
        config.stages[pair.build_stage].overlap_slices = slices;
        out.push(OverlapDecision {
            build_stage: pair.build_stage,
            probe_stage: pair.probe_stage,
            slices,
            sequential,
            pipelined: if slices > 0 { best } else { sequential },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::build_models;
    use crate::stats::estimate as estimate_stats;
    use gpl_core::plan::plan_for;
    use gpl_sim::amd_a10;
    use gpl_tpch::{QueryId, TpchDb};

    fn decide(q: QueryId) -> (Vec<OverlapDecision>, QueryConfig) {
        let spec = amd_a10();
        let db = TpchDb::at_scale(0.01);
        let plan = plan_for(&db, q);
        let stats = estimate_stats(&db, &plan);
        let models = build_models(&db, &plan, &stats, &spec);
        let gamma = GammaTable::calibrate(&spec);
        let mut config = QueryConfig::default_for(&spec, &plan);
        let d = attach_overlap(&spec, &gamma, &plan, &models, &mut config);
        (d, config)
    }

    #[test]
    fn q14_overlap_fires_and_sets_the_knob() {
        let (d, config) = decide(QueryId::Q14);
        assert_eq!(d.len(), 1);
        assert!(d[0].slices > 0, "Q14's pair should overlap: {d:?}");
        assert!(d[0].pipelined < d[0].sequential);
        assert_eq!(config.stages[d[0].build_stage].overlap_slices, d[0].slices);
    }

    #[test]
    fn q9_overlap_fires() {
        let (d, _) = decide(QueryId::Q9);
        assert!(!d.is_empty(), "Q9 has at least one eligible pair");
        assert!(
            d.iter().any(|x| x.slices > 0),
            "Q9 should overlap at least one pair: {d:?}"
        );
    }

    #[test]
    fn pipelined_estimate_monotone_in_overhead() {
        let spec = amd_a10();
        // More slices shrink the gated tail behind the last slice but pay
        // more per-slice overhead; with a zero-byte table the K=1 tail
        // dominates.
        let est = StageEstimate {
            per_kernel: Vec::new(),
            num_tiles: 1,
            delay: 0.0,
            overhead: 0.0,
            total: 1_000_000.0,
        };
        let e1 = pipelined_estimate(&spec, &est, &est, 0.5, 0, 1);
        let e8 = pipelined_estimate(&spec, &est, &est, 0.5, 0, 8);
        assert!(e8 < e1);
    }

    #[test]
    fn cache_spill_makes_the_detour_expensive() {
        let spec = amd_a10();
        let est = StageEstimate {
            per_kernel: Vec::new(),
            num_tiles: 1,
            delay: 0.0,
            overhead: 0.0,
            total: 1_000_000.0,
        };
        // A table past half the cache pays memory-bandwidth staging; the
        // jump must be visible so the predicate declines at scales where
        // the probe's streams evict the staged entries.
        let resident = pipelined_estimate(&spec, &est, &est, 0.5, spec.cache_bytes / 2, 4);
        let spilled = pipelined_estimate(&spec, &est, &est, 0.5, spec.cache_bytes / 2 + 1, 4);
        assert!(spilled > resident + 1_000_000.0);
    }
}
