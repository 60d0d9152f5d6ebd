//! Program-analysis inputs (Table 2): per-kernel resource usage,
//! instruction counts and data widths, assembled into the [`StageModel`]
//! that Eq. 2–9 (`cost::estimate_stage`) consume.
//!
//! The structural facts — fusion groups, kernel names, resources,
//! per-op instruction counts, channel widths, and the eager/lazy leaf
//! column split — come straight off the stage's lowered
//! [`SegmentIr`], the same object the executors launch from, so model
//! and executor cannot drift. This module only adds what lowering
//! cannot know: the statistics-dependent terms (λ-scaled gather costs,
//! hash-table geometry from cardinality estimates).

use crate::stats::PlanStats;
use gpl_core::ht::{GroupStore, SimHashTable};
use gpl_core::ops;
use gpl_core::plan::{PipeOp, QueryPlan, Stage, Terminal};
use gpl_core::segment::SegmentIr;
use gpl_sim::{DeviceSpec, ResourceUsage};
use gpl_tpch::TpchDb;

/// Cost-relevant description of one GPL kernel.
#[derive(Debug, Clone)]
pub struct KernelModel {
    pub name: String,
    /// Program-analysis resource usage (`pm_Ki`, `lm_Ki`, `wi_Ki`).
    pub resources: ResourceUsage,
    /// Per input row: compute instructions (pre-wavefront division).
    pub per_row_compute: u64,
    /// Per input row: memory instructions.
    pub per_row_mem: u64,
    /// Input rows / tile rows (product of upstream λ).
    pub in_ratio: f64,
    /// Output rows / input rows (this kernel's λ).
    pub lambda: f64,
    /// Channel row width flowing in (0 for the leaf).
    pub in_width: u64,
    /// Channel row width flowing out (0 for the terminal).
    pub out_width: u64,
    /// Global bytes the leaf streams eagerly per driver row (0 otherwise).
    pub scan_bytes_per_row: u64,
    /// Bytes per *surviving* row the leaf gathers lazily (shipped-only
    /// columns, read post-filter at line granularity).
    pub lazy_bytes_per_row: u64,
    /// Hash-table / group-store bytes touched per input row.
    pub ht_access_bytes: u64,
    /// Footprint of the randomly-accessed structures (for the cache-hit
    /// surrogate).
    pub ht_footprint: u64,
    /// First-touch structure writes (hash builds): every bucket write is
    /// a cold miss regardless of footprint.
    pub cold_ht: bool,
}

/// Cost-relevant description of one stage (segment).
#[derive(Debug, Clone)]
pub struct StageModel {
    pub name: String,
    pub driver_rows: u64,
    /// Bytes per driver row across loaded columns (tiling input).
    pub row_bytes: u64,
    pub kernels: Vec<KernelModel>,
    /// The lowered segment these kernels describe, with the model's λ
    /// estimates attached — what the executors launch from.
    pub ir: SegmentIr,
}

/// Build the stage models for a plan, using the λ estimates of
/// [`crate::stats::estimate`].
pub fn build_models(
    db: &TpchDb,
    plan: &QueryPlan,
    stats: &PlanStats,
    spec: &DeviceSpec,
) -> Vec<StageModel> {
    let wavefront = spec.wavefront_size;
    plan.stages
        .iter()
        .enumerate()
        .map(|(si, stage)| {
            build_stage_model(
                db,
                plan,
                stage,
                &stats.stage_lambdas[si],
                stats,
                spec,
                wavefront,
            )
        })
        .collect()
}

fn build_stage_model(
    db: &TpchDb,
    _plan: &QueryPlan,
    stage: &Stage,
    lambdas: &[f64],
    stats: &PlanStats,
    _spec: &DeviceSpec,
    wavefront: u32,
) -> StageModel {
    let mut ir = SegmentIr::lower(stage, db.table(&stage.driver), wavefront);
    ir.attach_lambdas(lambdas);

    // The λ-dependent leaf transfer terms, over the IR's column split.
    // A gather transfers whole lines for sparse survivors but converges
    // to the plain column stream when they are dense: the per-survivor
    // cost is min(line, width / λ).
    let leaf_lambda = lambdas[0].max(1e-6);
    let gather = |w: u64| (w as f64 / leaf_lambda).min(64.0);
    let eager_bytes: u64;
    let eager_cols: u64;
    let mut lazy_bytes = 0.0f64;
    let lazy_cols = ir.lazy.len() as u64;
    if ir.promoted_leaf {
        // The executor streams the promoted column to drive the scan:
        // charge it eagerly and remove its gather term. Summing every
        // lazy term first (promoted column included, in load order) and
        // then subtracting keeps the f64 arithmetic bit-identical to
        // the pre-IR derivation.
        let promoted = &ir.eager[0];
        lazy_bytes += gather(promoted.width);
        for c in &ir.lazy {
            lazy_bytes += gather(c.width);
        }
        lazy_bytes = (lazy_bytes - gather(promoted.width)).max(0.0);
        eager_bytes = promoted.width;
        eager_cols = 1;
    } else {
        eager_bytes = ir.eager.iter().map(|c| c.width).sum();
        eager_cols = ir.eager.len() as u64;
        for c in &ir.lazy {
            lazy_bytes += gather(c.width);
        }
    }

    let mut kernels = Vec::with_capacity(ir.nodes.len());
    let mut in_ratio = 1.0;
    for (g, node) in ir.nodes[..ir.edges.len()].iter().enumerate() {
        let mut per_row_compute = node.per_row_compute;
        let mut per_row_mem = node.per_row_mem;
        if g == 0 {
            // Eager columns are loaded for every row; lazy ones only for
            // the survivors (scale their issue cost by λ).
            let (load_compute, load_mem) = ops::COLUMN_LOAD_INSTS;
            let lazy = |insts: u64| (insts as f64 * lazy_cols as f64 * lambdas[0]) as u64;
            per_row_compute += load_compute * eager_cols + lazy(load_compute);
            per_row_mem += load_mem * eager_cols + lazy(load_mem);
        }
        // Hash-table geometry is the one per-op term lowering cannot
        // provide (it needs cardinality estimates); the executor's table
        // decides it.
        let mut ht_access = 0u64;
        let mut ht_foot = 0u64;
        for &i in &node.ops {
            if let PipeOp::Probe { ht, payloads, .. } = &stage.ops[i] {
                let entry = SimHashTable::entry_bytes_for(payloads.len());
                ht_access += entry;
                ht_foot += SimHashTable::buckets_for(stats.ht_rows[*ht] as usize) * entry;
            }
        }
        kernels.push(KernelModel {
            name: node.name.to_string(),
            resources: node.resources,
            per_row_compute,
            per_row_mem,
            in_ratio,
            lambda: lambdas[g],
            in_width: if g == 0 { 0 } else { ir.edges[g - 1].row_bytes },
            out_width: ir.edges[g].row_bytes,
            scan_bytes_per_row: if g == 0 { eager_bytes } else { 0 },
            lazy_bytes_per_row: if g == 0 { lazy_bytes as u64 } else { 0 },
            ht_access_bytes: ht_access,
            ht_footprint: ht_foot,
            cold_ht: false,
        });
        in_ratio *= lambdas[g];
    }

    // The terminal kernel: a build writes one entry a row, an aggregate
    // reads and writes one.
    let (ht_access, ht_foot) = match &stage.terminal {
        Terminal::HashBuild { payloads, .. } => {
            let expected = in_ratio * ir.driver_rows as f64;
            let entry = SimHashTable::entry_bytes_for(payloads.len());
            (entry, SimHashTable::buckets_for(expected as usize) * entry)
        }
        Terminal::Aggregate { groups, aggs } => {
            let expected = GroupStore::expected_groups(groups.len());
            let entry = GroupStore::entry_bytes_for(groups.len(), aggs.len());
            (2 * entry, SimHashTable::buckets_for(expected) * entry)
        }
    };
    let term = ir.nodes.last().expect("terminal node");
    kernels.push(KernelModel {
        name: term.name.to_string(),
        resources: term.resources,
        per_row_compute: term.per_row_compute,
        per_row_mem: term.per_row_mem,
        in_ratio,
        lambda: 0.0,
        in_width: ir.edges.last().expect("edge").row_bytes,
        out_width: 0,
        scan_bytes_per_row: 0,
        lazy_bytes_per_row: 0,
        ht_access_bytes: ht_access,
        ht_footprint: ht_foot,
        cold_ht: matches!(stage.terminal, Terminal::HashBuild { .. }),
    });

    StageModel {
        name: ir.stage.clone(),
        driver_rows: ir.driver_rows,
        row_bytes: ir.row_bytes,
        kernels,
        ir,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use gpl_core::plan_for;
    use gpl_sim::amd_a10;
    use gpl_tpch::QueryId;

    #[test]
    fn q14_models_have_expected_shape() {
        let db = TpchDb::at_scale(0.01);
        let plan = plan_for(&db, QueryId::Q14);
        let st = stats::estimate(&db, &plan);
        let ms = build_models(&db, &plan, &st, &amd_a10());
        assert_eq!(ms.len(), 2);
        let probe = &ms[1];
        assert_eq!(probe.kernels.len(), 3, "leaf, probe, reduce");
        let leaf = &probe.kernels[0];
        assert_eq!(leaf.in_width, 0);
        // Only the ship-date column streams eagerly; the other three
        // shipped columns gather lazily at line granularity.
        assert_eq!(leaf.scan_bytes_per_row, 4);
        assert_eq!(leaf.lazy_bytes_per_row, 3 * 64);
        assert!(leaf.lambda < 0.05);
        let p = &probe.kernels[1];
        assert!(p.in_ratio < 0.05, "probe sees only filtered rows");
        assert!(p.ht_access_bytes > 0 && p.ht_footprint > 0);
        let term = probe.kernels.last().unwrap();
        assert_eq!(term.out_width, 0);
        assert!(term.in_width >= 8);
    }

    #[test]
    fn kernel_count_matches_executor_wg_requirements() {
        let db = TpchDb::at_scale(0.002);
        for q in QueryId::evaluation_set() {
            let plan = plan_for(&db, q);
            let st = stats::estimate(&db, &plan);
            let ms = build_models(&db, &plan, &st, &amd_a10());
            for (stage, m) in plan.stages.iter().zip(&ms) {
                assert_eq!(m.kernels.len(), stage.gpl_kernel_names().len());
            }
        }
    }
}
