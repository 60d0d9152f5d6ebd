//! Kernel-based execution (KBE) — the baseline of Section 2.2.
//!
//! Each operator expands into the conventional GPU decomposition
//! (selection = map + prefix-sum + scatter \[13\]; probes likewise compact
//! through prefix-sum + scatter), every kernel is launched *alone* on the
//! device over the whole input, and every intermediate result — flags,
//! offsets, compacted columns, probe payloads — is materialized in global
//! memory. This module is also the per-tile engine of GPL (w/o CE), which
//! runs the same kernel-at-a-time sequence per tile, and — under the
//! other `Selection` policy — the Ocelot baseline of Section 5.5.
//!
//! A range runs in two passes. The *functional* pass walks it in host
//! blocks of `HOST_BLOCK_ROWS` rows: each block goes through the stage's
//! ops and folds into the terminal (the fold GPL's terminal kernel runs,
//! `ops::TermExec`), and each op keeps only its surviving-row
//! count and its row-indexed table traffic as a [`BucketTrace`] of
//! 4-byte bucket ids, so no host column or access list outlives its
//! block. The *timing* pass then launches the whole-input kernel
//! sequence from those counts, each replay unit expanding its own rows'
//! ids. Ops are row-wise and order-preserving and
//! a stage reads only its input columns and tables earlier stages built,
//! so the counts and traffic are exactly one whole-range pass's.

use crate::exec::ExecContext;
use crate::ht::{BucketTrace, GroupStore, SimHashTable};
use crate::ops::{self, live_slots, Chunk, OpExec, TermExec};
use crate::plan::{PipeOp, Stage, Terminal};
use crate::replay::{alloc_array, launch, ArrayRef, ReplayKernel};
use crate::segment::{KernelFlavour, SegmentIr};
use gpl_sim::mem::RegionClass;
use gpl_sim::LaunchProfile;
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

/// Rows of the range the functional pass holds on the host at a time.
const HOST_BLOCK_ROWS: usize = 8192;

/// How a selection's survivors reach the next kernel — the one axis on
/// which the kernel-at-a-time engines differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Selection {
    /// Flags + `k_prefix_sum` + `k_scatter` into 8-byte arrays over the
    /// surviving rows (KBE, and GPL (w/o CE) per tile).
    Compact,
    /// Ocelot (Section 5.5): a bit per logical row and no compaction, so
    /// every kernel launches over the range's logical rows while only the
    /// live rows carry row-indexed traffic; elements are capped at 4
    /// bytes (Appendix B).
    Bitmap,
}

/// What the functional pass leaves for one op's kernel.
#[derive(Default)]
struct OpTrace {
    /// Rows surviving the op over the whole range.
    rows_out: usize,
    /// Its row-indexed table traffic in row order (probes only).
    extra: BucketTrace,
}

/// Timing-pass state threading through a stage: the live row count and
/// the simulated array backing each filled slot.
struct MatState {
    sel: Selection,
    /// Live rows entering the next kernel.
    rows: usize,
    addr: Vec<Option<ArrayRef>>,
    /// Rows of the scan range.
    logical_rows: usize,
    /// The latest selection bitmap, read by every later kernel.
    mask: Option<ArrayRef>,
}

impl MatState {
    /// Rows the next kernel launches over.
    fn launch_rows(&self) -> usize {
        match self.sel {
            Selection::Compact => self.rows,
            Selection::Bitmap => self.logical_rows,
        }
    }

    /// Element width of an array `bytes` wide in the table or the plan.
    fn width(&self, bytes: u64) -> u64 {
        match self.sel {
            Selection::Compact => bytes,
            Selection::Bitmap => bytes.min(4),
        }
    }

    /// Per-row instructions spent testing the input bit and setting the
    /// output bit.
    fn mask_insts(&self) -> u64 {
        match self.sel {
            Selection::Compact => 0,
            Selection::Bitmap => 1,
        }
    }

    /// The arrays behind `slots`, then the selection bitmap if any.
    fn reads(&self, slots: &[usize]) -> Vec<ArrayRef> {
        let filled = |&s: &usize| self.addr[s].expect("slot filled before it is read");
        slots.iter().map(filled).chain(self.mask).collect()
    }

    /// What a selecting kernel writes: a flag or a bit per launched row,
    /// then its payload columns — scratch when a scatter compacts them
    /// away next, the intermediate itself under bitmaps.
    fn alloc_selection(&mut self, ctx: &mut ExecContext, payloads: &[usize]) -> Vec<ArrayRef> {
        let rows = self.launch_rows();
        let (mask_rows, class) = match self.sel {
            Selection::Compact => (rows, RegionClass::Scratch),
            Selection::Bitmap => (rows.div_ceil(8), RegionClass::Intermediate),
        };
        let mut writes = vec![alloc_array(ctx, mask_rows, 1, class, "kbe.mask")];
        for &p in payloads {
            let tmp = alloc_array(ctx, rows, self.width(8), class, "kbe.payload");
            self.addr[p] = Some(tmp);
            writes.push(tmp);
        }
        writes
    }

    /// Hand the `out_rows` survivors of a selecting kernel to the next one.
    fn select(
        &mut self,
        ctx: &mut ExecContext,
        out_rows: usize,
        live_out: &[usize],
        mask: ArrayRef,
        merged: &mut LaunchProfile,
    ) {
        match self.sel {
            Selection::Compact => scatter_phase(ctx, self, out_rows, live_out, mask, merged),
            Selection::Bitmap => {
                self.rows = out_rows;
                self.mask = Some(mask);
            }
        }
    }
}

/// Run one stage's kernel sequence over `range` of the driving relation:
/// each op of the stage's lowered IR nodes (in [`SegmentIr::op_order`])
/// expands into its map / prefix-sum / scatter decomposition, or into one
/// bitmap-passing kernel, as `sel` says. `build` / `agg` receive the
/// blocking terminal's output (shared across tiles in GPL (w/o CE) mode).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_stage_range(
    ctx: &mut ExecContext,
    ir: &SegmentIr,
    stage: &Stage,
    hts: &[Option<Rc<RefCell<SimHashTable>>>],
    build: Option<&Rc<RefCell<SimHashTable>>>,
    agg: Option<&Rc<RefCell<GroupStore>>>,
    range: Range<usize>,
    sel: Selection,
    // Per-kernel work-group counts are not tunable in KBE (each kernel is
    // individually optimized to fill the device), so none are taken here.
) -> LaunchProfile {
    run_stage_blocks(ctx, ir, stage, hts, build, agg, range, sel, HOST_BLOCK_ROWS)
}

/// [`run_stage_range`] with the functional pass's block size as a
/// parameter.
#[allow(clippy::too_many_arguments)]
fn run_stage_blocks(
    ctx: &mut ExecContext,
    ir: &SegmentIr,
    stage: &Stage,
    hts: &[Option<Rc<RefCell<SimHashTable>>>],
    build: Option<&Rc<RefCell<SimHashTable>>>,
    agg: Option<&Rc<RefCell<GroupStore>>>,
    range: Range<usize>,
    sel: Selection,
    block: usize,
) -> LaunchProfile {
    let table = ctx.db.clone();
    let t = table.table(&stage.driver);
    let order: Vec<usize> = ir.op_order().collect();

    // Functional pass, one host block at a time.
    let cols: Vec<_> = stage.loads.iter().map(|name| t.col(name)).collect();
    let execs: Vec<OpExec> = order
        .iter()
        .map(|&i| OpExec::new(&stage.ops[i], hts))
        .collect();
    let term = TermExec::new(&stage.terminal, build, agg);
    let mut traces: Vec<OpTrace> = order.iter().map(|_| OpTrace::default()).collect();
    let mut term_extra = BucketTrace::default();
    for lo in range.clone().step_by(block) {
        let hi = lo + block.min(range.end - lo);
        let mut chunk = Chunk::new(stage.num_slots());
        for (s, col) in cols.iter().enumerate() {
            chunk.fill(s, col.range_i64(lo, hi));
        }
        // A count(*)-only stage loads no columns; its rows are the block's.
        chunk.rows = hi - lo;
        for (exec, trace) in execs.iter().zip(&mut traces) {
            chunk = exec.apply(chunk, &mut trace.extra);
            trace.rows_out += chunk.rows;
        }
        term.fold(&chunk, &mut term_extra);
    }

    // Timing pass: the load phase's first kernel reads table columns
    // directly.
    let wavefront = ctx.sim.spec().wavefront_size;
    let live = live_slots(stage);
    let mut merged = LaunchProfile::default();
    let layout = ctx.layout(&stage.driver);
    let mut st = MatState {
        sel,
        rows: range.len(),
        addr: vec![None; stage.num_slots()],
        logical_rows: range.len(),
        mask: None,
    };
    for (s, name) in stage.loads.iter().enumerate() {
        let ci = t.col_index(name).expect("load column exists");
        st.addr[s] = Some(ArrayRef {
            base: layout.scan(ci, range.clone()).addr,
            width: st.width(t.col_at(ci).data_type().width()),
            rows: range.len(),
        });
    }

    let map_insts = |st: &MatState, insts: u64| ops::INST_EXPANSION * (insts + 1 + st.mask_insts());
    for (&i, trace) in order.iter().zip(traces) {
        let op = &stage.ops[i];
        let (rows, live_rows) = (st.launch_rows(), st.rows as u64);
        let out_rows = trace.rows_out;
        let mut in_slots = op.reads();
        in_slots.dedup();
        match op {
            PipeOp::Filter(pred) => {
                let writes = st.alloc_selection(ctx, &[]);
                let mask = writes[0];
                merged.merge(&launch(
                    ctx,
                    "k_map",
                    KernelFlavour::Map,
                    ReplayKernel::new(rows, wavefront, map_insts(&st, pred.insts()), 0)
                        .reads(st.reads(&in_slots))
                        .writes(writes)
                        .io_rows(live_rows, out_rows as u64),
                ));
                st.select(ctx, out_rows, &live[i + 1], mask, &mut merged);
            }
            PipeOp::Probe { payloads, .. } => {
                // Payload temporaries at input positions.
                let writes = st.alloc_selection(ctx, payloads);
                let mask = writes[0];
                merged.merge(&launch(
                    ctx,
                    "k_hash_probe",
                    KernelFlavour::Probe,
                    ReplayKernel::new(
                        rows,
                        wavefront,
                        ops::op_compute_insts(op) + 2 * st.mask_insts(),
                        ops::op_mem_insts(op),
                    )
                    .reads(st.reads(&in_slots))
                    .writes(writes)
                    .extra(trace.extra)
                    .io_rows(live_rows, out_rows as u64),
                ));
                st.select(ctx, out_rows, &live[i + 1], mask, &mut merged);
            }
            PipeOp::Compute { expr, out } => {
                let arr = alloc_array(
                    ctx,
                    rows,
                    st.width(8),
                    RegionClass::Intermediate,
                    "kbe.compute",
                );
                merged.merge(&launch(
                    ctx,
                    "k_map",
                    KernelFlavour::Map,
                    ReplayKernel::new(rows, wavefront, map_insts(&st, expr.insts()), 0)
                        .reads(st.reads(&in_slots))
                        .writes(vec![arr])
                        .io_rows(live_rows, live_rows),
                ));
                st.addr[*out] = Some(arr);
            }
        }
    }

    // Terminal: one table operation per row, a bucket write per build
    // row and a read and a write per aggregated row.
    let mut in_slots = stage.terminal.reads();
    let (name, flavour) = match &stage.terminal {
        Terminal::HashBuild { .. } => ("k_hash_build", KernelFlavour::Build),
        Terminal::Aggregate { .. } => {
            in_slots.sort_unstable();
            in_slots.dedup();
            ("k_aggregate", KernelFlavour::Aggregate)
        }
    };
    merged.merge(&launch(
        ctx,
        name,
        flavour,
        ReplayKernel::new(
            st.launch_rows(),
            wavefront,
            ops::terminal_compute_insts(&stage.terminal),
            ops::terminal_mem_insts(&stage.terminal),
        )
        .reads(st.reads(&in_slots))
        .extra(term_extra)
        .io_rows(st.rows as u64, 0),
    ));
    merged
}

/// The prefix-sum + scatter pair that compacts the `out_rows` survivors
/// after a map or probe kernel, materializing the live slots into a
/// fresh intermediate.
fn scatter_phase(
    ctx: &mut ExecContext,
    st: &mut MatState,
    out_rows: usize,
    live_out: &[usize],
    flags: ArrayRef,
    merged: &mut LaunchProfile,
) {
    let wavefront = ctx.sim.spec().wavefront_size;
    let rows = st.rows;
    let offsets = alloc_array(ctx, rows, 4, RegionClass::Scratch, "kbe.offsets");
    merged.merge(&launch(
        ctx,
        "k_prefix_sum",
        KernelFlavour::PrefixSum,
        ReplayKernel::new(rows, wavefront, 2 * ops::INST_EXPANSION, 0)
            .reads(vec![flags])
            .writes(vec![offsets])
            .io_rows(rows as u64, rows as u64),
    ));

    let mut reads = vec![offsets];
    let mut writes = Vec::with_capacity(live_out.len());
    for &s in live_out {
        // The scatter *gathers*: it reads input values only at surviving
        // positions (the offsets array tells it where), so its read
        // volume scales with the survivors, not the input.
        let src = st.addr[s].expect("live slot must be materialized");
        reads.push(ArrayRef {
            base: src.base,
            width: src.width,
            rows: out_rows,
        });
        let dst = alloc_array(ctx, out_rows, 8, RegionClass::Intermediate, "kbe.compact");
        writes.push(dst);
    }
    merged.merge(&launch(
        ctx,
        "k_scatter",
        KernelFlavour::Scatter,
        ReplayKernel::new(
            rows,
            wavefront,
            ops::INST_EXPANSION * (2 + live_out.len() as u64),
            live_out.len() as u64,
        )
        .reads(reads)
        .writes(writes.clone())
        .io_rows(rows as u64, out_rows as u64),
    ));
    // The compacted arrays replace the slot backing; dead slots drop.
    let mut addr = vec![None; st.addr.len()];
    for (dst, &s) in writes.iter().zip(live_out) {
        addr[s] = Some(*dst);
    }
    st.addr = addr;
    st.rows = out_rows;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{estimate_build_rows, make_blocking_outputs, ExecContext, ExecMode};
    use crate::plan::{listing1_plan, plan_for, q14_plan, Agg, QueryPlan};
    use gpl_sim::amd_a10;
    use gpl_storage::{days, Tiling};
    use gpl_tpch::{Q14Params, QueryId, TpchDb};
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        ExecContext::new(amd_a10(), TpchDb::at_scale(0.002))
    }

    fn ir_for(ctx: &ExecContext, stage: &Stage) -> SegmentIr {
        SegmentIr::lower(
            stage,
            ctx.db.table(&stage.driver),
            ctx.sim.spec().wavefront_size,
        )
    }

    /// What a run of a plan's stages leaves behind: each stage's profile
    /// in Debug bytes, each build table's fingerprint, each aggregate's
    /// rows.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        profiles: Vec<String>,
        builds: Vec<u64>,
        groups: Vec<Vec<Vec<i64>>>,
    }

    /// Run `plan`'s stages in order on a fresh context the way `mode`
    /// does — KBE and Ocelot over one range, GPL (w/o CE) per 64 KB tile
    /// — over the first `limit` rows of each driver, with functional
    /// blocks of `block` rows.
    fn run_blocked(
        db: &Arc<TpchDb>,
        plan: &QueryPlan,
        mode: ExecMode,
        limit: usize,
        block: usize,
    ) -> Outcome {
        let mut ctx = ExecContext::with_shared(amd_a10(), db.clone());
        let sel = match mode {
            ExecMode::Ocelot => Selection::Bitmap,
            _ => Selection::Compact,
        };
        let mut hts = vec![None; plan.num_hts];
        let mut out = Outcome {
            profiles: Vec::new(),
            builds: Vec::new(),
            groups: Vec::new(),
        };
        for stage in &plan.stages {
            let ir = ir_for(&ctx, stage);
            let rows = ctx.db.table(&stage.driver).rows().min(limit);
            let ranges: Vec<Range<usize>> = match mode {
                ExecMode::GplNoCe => Tiling::by_bytes(rows, ir.row_bytes, 64 << 10)
                    .iter()
                    .collect(),
                _ => std::iter::once(0..rows).collect(),
            };
            let expected = estimate_build_rows(&ctx.db, stage);
            let (build, agg) = make_blocking_outputs(&mut ctx, plan, stage, expected, expected);
            let target = build.as_ref().map(|(_, t)| t);
            let mut profile = LaunchProfile::default();
            for range in ranges {
                profile.merge(&run_stage_blocks(
                    &mut ctx,
                    &ir,
                    stage,
                    &hts,
                    target,
                    agg.as_ref(),
                    range,
                    sel,
                    block,
                ));
            }
            out.profiles.push(format!("{profile:?}"));
            if let Some((ht, t)) = build {
                out.builds.push(t.borrow().fingerprint());
                hts[ht] = Some(t);
            }
            if let Some(a) = agg {
                out.groups
                    .push(Rc::try_unwrap(a).unwrap().into_inner().into_rows());
            }
        }
        out
    }

    #[test]
    fn block_boundaries_are_invisible() {
        let db = Arc::new(TpchDb::at_scale(0.002));
        let mut plans: Vec<QueryPlan> = QueryId::all()
            .into_iter()
            .map(|q| plan_for(&db, q))
            .collect();
        // A count(*)-only stage: no loads, no ops.
        let mut count = listing1_plan(0);
        count.stages = vec![Stage {
            name: "count".into(),
            driver: "lineitem".into(),
            loads: Vec::new(),
            ops: Vec::new(),
            terminal: Terminal::Aggregate {
                groups: Vec::new(),
                aggs: vec![Agg::count()],
            },
        }];
        plans.push(count);
        for plan in &plans {
            for mode in [ExecMode::Kbe, ExecMode::GplNoCe, ExecMode::Ocelot] {
                // Every driver whole, then every range empty.
                for limit in [usize::MAX, 0] {
                    let whole = run_blocked(&db, plan, mode, limit, usize::MAX);
                    for block in [1, 7] {
                        assert_eq!(
                            run_blocked(&db, plan, mode, limit, block),
                            whole,
                            "{:?} {mode:?}, limit {limit}, blocks of {block} rows",
                            plan.query
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn listing1_stage_aggregates_correctly() {
        let mut ctx = ctx();
        let cutoff = days("1998-11-01");
        let plan = listing1_plan(cutoff);
        let stage = &plan.stages[0];
        let agg = Rc::new(RefCell::new(GroupStore::new(
            &mut ctx.sim.mem,
            4,
            0,
            1,
            "t",
        )));
        let rows = ctx.db.lineitem.rows();
        let ir = ir_for(&ctx, stage);
        let p = run_stage_range(
            &mut ctx,
            &ir,
            stage,
            &[],
            None,
            Some(&agg),
            0..rows,
            Selection::Compact,
        );
        let got = Rc::try_unwrap(agg).unwrap().into_inner().into_rows();
        let want = gpl_tpch::reference::listing1(&ctx.db, cutoff);
        assert_eq!(got, want.rows);
        assert!(p.elapsed_cycles > 0);
        // KBE materializes intermediates.
        assert!(p.intermediate_bytes() > 0);
        assert!(p.intermediate_footprint() > 0);
    }

    #[test]
    fn q14_build_and_probe_match_reference() {
        let mut ctx = ctx();
        let params = Q14Params::default();
        let plan = q14_plan(&ctx.db, params);
        let ht = Rc::new(RefCell::new(SimHashTable::new(
            &mut ctx.sim.mem,
            ctx.db.part.rows(),
            1,
            "part",
        )));
        let rows0 = ctx.db.part.rows();
        let ir0 = ir_for(&ctx, &plan.stages[0]);
        run_stage_range(
            &mut ctx,
            &ir0,
            &plan.stages[0],
            &[],
            Some(&ht),
            None,
            0..rows0,
            Selection::Compact,
        );
        assert_eq!(ht.borrow().len(), ctx.db.part.rows());

        let hts = vec![Some(ht)];
        let agg = Rc::new(RefCell::new(GroupStore::new(
            &mut ctx.sim.mem,
            4,
            0,
            2,
            "t",
        )));
        let rows1 = ctx.db.lineitem.rows();
        let ir1 = ir_for(&ctx, &plan.stages[1]);
        run_stage_range(
            &mut ctx,
            &ir1,
            &plan.stages[1],
            &hts,
            None,
            Some(&agg),
            0..rows1,
            Selection::Compact,
        );
        let got = Rc::try_unwrap(agg).unwrap().into_inner().into_rows();
        let want = gpl_tpch::reference::q14(&ctx.db, params);
        assert_eq!(got, want.rows);
    }

    #[test]
    fn tiled_ranges_accumulate_like_one_range() {
        let mut ctx = ctx();
        let cutoff = days("1998-11-01");
        let plan = listing1_plan(cutoff);
        let stage = &plan.stages[0];
        let rows = ctx.db.lineitem.rows();
        let agg = Rc::new(RefCell::new(GroupStore::new(
            &mut ctx.sim.mem,
            4,
            0,
            1,
            "t",
        )));
        let mid = rows / 3;
        let ir = ir_for(&ctx, stage);
        run_stage_range(
            &mut ctx,
            &ir,
            stage,
            &[],
            None,
            Some(&agg),
            0..mid,
            Selection::Compact,
        );
        run_stage_range(
            &mut ctx,
            &ir,
            stage,
            &[],
            None,
            Some(&agg),
            mid..rows,
            Selection::Compact,
        );
        let got = Rc::try_unwrap(agg).unwrap().into_inner().into_rows();
        let want = gpl_tpch::reference::listing1(&ctx.db, cutoff);
        assert_eq!(got, want.rows);
    }

    #[test]
    fn empty_range_still_launches() {
        let mut ctx = ctx();
        let plan = listing1_plan(0);
        let agg = Rc::new(RefCell::new(GroupStore::new(
            &mut ctx.sim.mem,
            4,
            0,
            1,
            "t",
        )));
        let ir = ir_for(&ctx, &plan.stages[0]);
        let p = run_stage_range(
            &mut ctx,
            &ir,
            &plan.stages[0],
            &[],
            None,
            Some(&agg),
            0..0,
            Selection::Compact,
        );
        assert!(p.elapsed_cycles > 0, "launch overhead must be charged");
        assert_eq!(
            Rc::try_unwrap(agg).unwrap().into_inner().into_rows(),
            vec![vec![0]]
        );
    }
}
