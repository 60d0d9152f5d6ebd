//! Query-optimizer inputs (Table 2): the data-reduction ratios λ_Ki.
//!
//! The paper takes λ from the database query optimizer. Here the
//! estimator plays that role: build-side pipelines are evaluated exactly
//! (dimension relations are small), and the fact-side pipeline is
//! evaluated on an evenly-spaced row sample, yielding per-kernel
//! output/input ratios that capture even correlated predicates (e.g.
//! Q5's `c_nationkey = s_nationkey` after two probes).
//!
//! A plan's sample is evaluated **once**, op by op (`SampledPass`):
//! the row count after every op is kept, and λ under any grouping of
//! consecutive ops is the ratio of two of those counts. The join-order
//! optimizer reads them per op, Eq. 8 reads them per fusion group, and
//! both see the integers one group-at-a-time evaluation would have
//! divided — the same pass serves [`estimate`] and
//! [`crate::joinopt::optimize_with_stats`].

use gpl_core::ht::BuildMix64;
use gpl_core::ops::{apply_compute, apply_filter, sample_ids, select_rows, Chunk};
use gpl_core::plan::{PipeOp, QueryPlan, Stage, Terminal};

use gpl_tpch::TpchDb;
use std::collections::HashMap;

/// Estimated statistics for one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStats {
    /// Per stage, per GPL kernel group (fusion groups, excluding the
    /// terminal): estimated output/input row ratio λ.
    pub stage_lambdas: Vec<Vec<f64>>,
    /// Per stage: fraction of driver rows reaching the terminal.
    pub stage_selectivity: Vec<f64>,
    /// Per hash table: estimated build cardinality.
    pub ht_rows: Vec<f64>,
}

/// Rows sampled from the driving relation of fact-side stages.
pub const SAMPLE_ROWS: usize = 4096;

/// One build side of the sampled evaluation: key → row of a flat,
/// column-major payload arena (a duplicate key keeps its last row).
struct BuildTable {
    row_of: HashMap<i64, u32, BuildMix64>,
    /// `rows` values per payload column, columns back to back.
    payloads: Vec<i64>,
    rows: usize,
}

impl BuildTable {
    fn new(chunk: &Chunk, key: usize, payloads: &[usize]) -> Self {
        let mut row_of = HashMap::with_capacity_and_hasher(chunk.rows, BuildMix64::default());
        for (r, &k) in (0u32..).zip(&chunk.cols[key][..chunk.rows]) {
            row_of.insert(k, r);
        }
        let mut arena = Vec::with_capacity(payloads.len() * chunk.rows);
        for &p in payloads {
            arena.extend_from_slice(&chunk.cols[p][..chunk.rows]);
        }
        BuildTable {
            row_of,
            payloads: arena,
            rows: chunk.rows,
        }
    }

    /// Keep the rows of `chunk` whose `key` matches, with the matched
    /// build rows' payload columns in `payloads`.
    fn probe(&self, chunk: &Chunk, key: usize, payloads: &[usize]) -> Chunk {
        let mut keep = Vec::new();
        let mut hits = Vec::new();
        for (r, k) in chunk.cols[key][..chunk.rows].iter().enumerate() {
            if let Some(&h) = self.row_of.get(k) {
                keep.push(r);
                hits.push(h as usize);
            }
        }
        let mut out = select_rows(chunk, &keep);
        for (i, &s) in payloads.iter().enumerate() {
            let col = &self.payloads[i * self.rows..][..self.rows];
            out.cols[s] = hits.iter().map(|&h| col[h]).collect();
            out.filled[s] = true;
        }
        out
    }
}

fn load_chunk(db: &TpchDb, stage: &Stage, rows: &[usize]) -> Chunk {
    let t = db.table(&stage.driver);
    let mut chunk = Chunk::new(stage.num_slots());
    for (s, name) in stage.loads.iter().enumerate() {
        let col = t.col(name);
        chunk.fill(s, col.gather_i64(rows));
    }
    chunk
}

/// One stage's sample, evaluated op by op in the stage's op order.
pub(crate) struct StageSample {
    /// Row ids drawn from the driver.
    drawn: usize,
    /// Driver rows per drawn row.
    scale: f64,
    /// Rows entering the first op, then rows leaving each op.
    counts: Vec<usize>,
    /// The rows that reach the terminal.
    chunk: Chunk,
}

impl StageSample {
    /// λ of the consecutive ops `from..to`: rows out over rows in.
    fn lambda(&self, from: usize, to: usize) -> f64 {
        (self.counts[to] as f64 / self.counts[from].max(1) as f64).clamp(0.0, 1.0)
    }

    /// λ of every op on its own, in op order (the join-order DP's input).
    pub(crate) fn op_lambdas(&self) -> Vec<f64> {
        (1..self.counts.len())
            .map(|to| self.lambda(to - 1, to))
            .collect()
    }
}

/// The single sampled evaluation of a plan, stage by stage: build sides
/// are evaluated exactly (their tables must be populated for downstream
/// probes), fact sides on [`SAMPLE_ROWS`] evenly spaced rows.
///
/// A stage may be walked again in another op order before it is
/// finished: its ops commute and keep row order, so the rows reaching
/// the terminal — and with them the stage's selectivity, its build
/// table and every later stage's sample — do not depend on the order;
/// only the per-op counts do.
pub(crate) struct SampledPass<'a> {
    db: &'a TpchDb,
    tables: Vec<Option<BuildTable>>,
    stats: PlanStats,
}

impl<'a> SampledPass<'a> {
    pub(crate) fn new(db: &'a TpchDb, plan: &QueryPlan) -> Self {
        SampledPass {
            db,
            tables: (0..plan.num_hts).map(|_| None).collect(),
            stats: PlanStats {
                stage_lambdas: Vec::with_capacity(plan.stages.len()),
                stage_selectivity: Vec::with_capacity(plan.stages.len()),
                ht_rows: vec![0.0; plan.num_hts],
            },
        }
    }

    /// Evaluate `stage`'s sample against the tables finished so far.
    pub(crate) fn walk(&self, stage: &Stage) -> StageSample {
        let total = self.db.table(&stage.driver).rows();
        let is_build = matches!(stage.terminal, Terminal::HashBuild { .. });
        let ids = sample_ids(total, if is_build { total } else { SAMPLE_ROWS });
        let mut chunk = load_chunk(self.db, stage, &ids);
        // The count is the loaded chunk's, not `ids.len()`: a stage that
        // loads no column (`count(*)` only) has a chunk of zero rows, so
        // its λ and selectivity read 0 where 1 is meant. Pinned cycle
        // counts rest on the configs that picks; ROADMAP lists the fix
        // under the Eq. 8 item, for the PR that re-pins.
        let mut counts = Vec::with_capacity(stage.ops.len() + 1);
        counts.push(chunk.rows);
        for op in &stage.ops {
            if chunk.rows > 0 {
                match op {
                    PipeOp::Filter(p) => chunk = apply_filter(&chunk, p),
                    PipeOp::Compute { expr, out } => apply_compute(&mut chunk, expr, *out),
                    PipeOp::Probe { ht, key, payloads } => {
                        let table = self.tables[*ht].as_ref().expect("probe after build");
                        chunk = table.probe(&chunk, *key, payloads);
                    }
                }
            }
            counts.push(chunk.rows);
        }
        StageSample {
            drawn: ids.len(),
            scale: total as f64 / ids.len().max(1) as f64,
            counts,
            chunk,
        }
    }

    /// Record `stage`'s statistics from `sample` (walked in `stage`'s
    /// current op order) and install its build table, if it builds one.
    pub(crate) fn finish(&mut self, stage: &Stage, sample: StageSample) {
        let mut from = 0;
        let lambdas = (stage.gpl_fusion().iter())
            .map(|group| {
                let to = from + group.len();
                let l = sample.lambda(from, to);
                from = to;
                l
            })
            .collect();
        self.stats.stage_lambdas.push(lambdas);
        let rows = sample.chunk.rows;
        self.stats.stage_selectivity.push(if sample.drawn == 0 {
            0.0
        } else {
            rows as f64 / sample.drawn as f64
        });
        if let Terminal::HashBuild { ht, key, payloads } = &stage.terminal {
            self.stats.ht_rows[*ht] = rows as f64 * sample.scale;
            self.tables[*ht] = Some(BuildTable::new(&sample.chunk, *key, payloads));
        }
    }

    pub(crate) fn into_stats(self) -> PlanStats {
        self.stats
    }
}

/// Estimate λ for every kernel group of every stage of `plan`.
pub fn estimate(db: &TpchDb, plan: &QueryPlan) -> PlanStats {
    let mut pass = SampledPass::new(db, plan);
    for stage in &plan.stages {
        let sample = pass.walk(stage);
        pass.finish(stage, sample);
    }
    pass.into_stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpl_core::plan_for;
    use gpl_tpch::QueryId;

    fn db() -> TpchDb {
        TpchDb::at_scale(0.01)
    }

    #[test]
    fn q14_lambdas_track_the_date_window() {
        let db = db();
        let plan = plan_for(&db, QueryId::Q14);
        let s = estimate(&db, &plan);
        // Build stage: part, unfiltered.
        assert!((s.stage_lambdas[0][0] - 1.0).abs() < 1e-9);
        assert!((s.ht_rows[0] - db.part.rows() as f64).abs() < 1.0);
        // Probe stage leaf: ~1 month of ~83 => a few percent.
        let leaf = s.stage_lambdas[1][0];
        assert!(leaf > 0.001 && leaf < 0.05, "leaf λ = {leaf}");
        // Probe group: every surviving row matches a part.
        assert!((s.stage_lambdas[1][1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn q8_probe_selectivities_multiply_down() {
        let db = db();
        let plan = plan_for(&db, QueryId::Q8);
        let s = estimate(&db, &plan);
        let probe = s.stage_lambdas.last().expect("probe stage");
        // The leaf group fuses the ~1/150 steel semi-probe.
        assert!(probe[0] < 0.05, "leaf+steel λ = {}", probe[0]);
        // Overall selectivity is far below any single λ.
        let sel = s.stage_selectivity.last().unwrap();
        assert!(*sel < probe[0], "overall {sel} < steel {}", probe[0]);
    }

    #[test]
    fn q5_correlated_filter_is_captured() {
        let db = db();
        let plan = plan_for(&db, QueryId::Q5);
        let s = estimate(&db, &plan);
        let probe = s.stage_lambdas.last().expect("probe stage");
        // The c_nation = s_nation filter is fused into the last probe
        // group; its λ must be well below the probe-only match rate.
        let last = *probe.last().unwrap();
        assert!(last < 0.5, "correlated filter λ = {last}");
        assert!(last > 0.0);
    }

    /// Pinned, not endorsed: a `count(*)`-only stage loads no column, its
    /// chunk has zero rows, and λ and selectivity read 0 where 1 is meant
    /// (see the comment in `SampledPass::walk`).
    #[test]
    fn a_stage_that_loads_no_column_reads_lambda_zero() {
        use gpl_core::plan::Agg;
        let db = db();
        let mut plan = plan_for(&db, QueryId::Q6);
        let stage = &mut plan.stages[0];
        stage.loads.clear();
        stage.ops.clear();
        stage.terminal = Terminal::Aggregate {
            groups: vec![],
            aggs: vec![Agg::count()],
        };
        let s = estimate(&db, &plan);
        assert_eq!(s.stage_lambdas[0], vec![0.0]);
        assert_eq!(s.stage_selectivity[0], 0.0);
    }

    /// What lets a reordered stage be walked again without rebuilding
    /// anything: the rows reaching the terminal do not depend on op order.
    #[test]
    fn op_order_moves_the_counts_but_not_the_terminal_rows() {
        let db = db();
        let plan = plan_for(&db, QueryId::Q8);
        let mut pass = SampledPass::new(&db, &plan);
        let (probe, builds) = plan.stages.split_last().expect("probe stage");
        for stage in builds {
            let sample = pass.walk(stage);
            pass.finish(stage, sample);
        }
        // The steel semi-join reads a load slot and fills none, so it may
        // run last instead of first.
        let mut moved = probe.clone();
        let steel = moved.ops.remove(0);
        moved.ops.push(steel);
        let (a, b) = (pass.walk(probe), pass.walk(&moved));
        assert_ne!(a.counts, b.counts);
        assert_eq!(a.chunk.rows, b.chunk.rows);
        assert_eq!(a.chunk.cols, b.chunk.cols);
    }

    #[test]
    fn estimates_are_deterministic() {
        let db = db();
        let plan = plan_for(&db, QueryId::Q9);
        let a = estimate(&db, &plan);
        let b = estimate(&db, &plan);
        assert_eq!(a.stage_lambdas, b.stage_lambdas);
    }
}
