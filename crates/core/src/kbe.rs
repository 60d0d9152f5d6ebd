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

use crate::exec::ExecContext;
use crate::ht::{GroupStore, SimHashTable};
use crate::ops::{self, apply_compute, apply_filter, apply_probe, live_slots, Chunk};
use crate::plan::{PipeOp, Stage, Terminal};
use crate::replay::{alloc_array, kernel_resources, launch, ArrayRef, ReplayKernel};
use crate::segment::SegmentIr;
use gpl_sim::mem::{MemRange, RegionClass};
use gpl_sim::LaunchProfile;
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

/// How a selection's survivors reach the next kernel — the one axis on
/// which the kernel-at-a-time engines differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Selection {
    /// Flags + `k_prefix_sum` + `k_scatter` into 8-byte arrays over the
    /// surviving rows (KBE, and GPL (w/o CE) per tile).
    Compact,
    /// Ocelot (Section 5.5): a bit per logical row and no compaction, so
    /// every kernel launches over the range's logical rows with dead
    /// rows as zero-byte accesses; elements are capped at 4 bytes
    /// (Appendix B).
    Bitmap,
}

/// Execution state threading through a stage: the functional chunk
/// (always compacted) and the simulated array backing each filled slot.
struct MatState {
    sel: Selection,
    chunk: Chunk,
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
            Selection::Compact => self.chunk.rows,
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

    /// Per-surviving-row traffic, padded under bitmaps to `per_row`
    /// entries per launched row so the replay kernel can slice it.
    fn pad(&self, mut extra: Vec<MemRange>, per_row: usize) -> Vec<MemRange> {
        if self.sel == Selection::Bitmap {
            let len = (self.logical_rows * per_row).max(extra.len());
            extra.resize(len, MemRange::read(4096, 0));
        }
        extra
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

    /// Hand the survivors `out` of a selecting kernel to the next one.
    fn select(
        &mut self,
        ctx: &mut ExecContext,
        out: Chunk,
        live_out: &[usize],
        mask: ArrayRef,
        merged: &mut LaunchProfile,
    ) {
        match self.sel {
            Selection::Compact => scatter_phase(ctx, self, out, live_out, mask, merged),
            Selection::Bitmap => {
                self.chunk = out;
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
    let wavefront = ctx.sim.spec().wavefront_size;
    let live = live_slots(stage);
    let mut merged = LaunchProfile::default();

    // Load phase: the first kernel reads table columns directly.
    let table = ctx.db.clone();
    let t = table.table(&stage.driver);
    let layout = ctx.layout(&stage.driver).clone();
    let mut st = MatState {
        sel,
        chunk: Chunk::new(stage.num_slots()),
        addr: vec![None; stage.num_slots()],
        logical_rows: range.len(),
        mask: None,
    };
    for (s, name) in stage.loads.iter().enumerate() {
        let col = t.col(name);
        st.chunk.fill(s, col.range_i64(range.start, range.end));
        let ci = t.col_index(name).expect("load column exists");
        let scan = layout.scan(ci, range.clone());
        st.addr[s] = Some(ArrayRef {
            base: scan.addr,
            width: st.width(col.data_type().width()),
            rows: range.len(),
        });
    }
    // A count(*)-only stage loads no columns; the driving row count
    // still comes from the scan range, not the (empty) materialized
    // chunk, or the aggregate loop below would never run.
    if stage.loads.is_empty() {
        st.chunk.rows = range.len();
    }

    let map_insts = |st: &MatState, insts: u64| ops::INST_EXPANSION * (insts + 1 + st.mask_insts());
    for i in ir.op_order() {
        let op = &stage.ops[i];
        let (rows, live_rows) = (st.launch_rows(), st.chunk.rows as u64);
        match op {
            PipeOp::Filter(pred) => {
                let mut in_slots = Vec::new();
                pred.slots(&mut in_slots);
                in_slots.dedup();
                let writes = st.alloc_selection(ctx, &[]);
                let mask = writes[0];
                let out = apply_filter(&st.chunk, pred);
                merged.merge(&launch(
                    ctx,
                    "k_map",
                    kernel_resources("k_map", wavefront),
                    ReplayKernel::new(rows, wavefront, map_insts(&st, pred.insts()), 0)
                        .reads(st.reads(&in_slots))
                        .writes(writes)
                        .io_rows(live_rows, out.rows as u64),
                ));
                st.select(ctx, out, &live[i + 1], mask, &mut merged);
            }
            PipeOp::Probe { ht, key, payloads } => {
                let table = hts[*ht].as_ref().expect("probed table built").clone();
                let table = table.borrow();
                let mut extra = Vec::with_capacity(st.chunk.rows);
                let out = apply_probe(&st.chunk, &table, *key, payloads, &mut extra);
                // Payload temporaries at input positions.
                let writes = st.alloc_selection(ctx, payloads);
                let mask = writes[0];
                merged.merge(&launch(
                    ctx,
                    "k_hash_probe",
                    kernel_resources("k_hash_probe", wavefront),
                    ReplayKernel::new(
                        rows,
                        wavefront,
                        ops::op_compute_insts(op) + 2 * st.mask_insts(),
                        ops::op_mem_insts(op),
                    )
                    .reads(st.reads(&[*key]))
                    .writes(writes)
                    .extra(st.pad(extra, 1), 1)
                    .io_rows(live_rows, out.rows as u64),
                ));
                st.select(ctx, out, &live[i + 1], mask, &mut merged);
            }
            PipeOp::Compute { expr, out } => {
                let mut in_slots = Vec::new();
                expr.slots(&mut in_slots);
                in_slots.dedup();
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
                    kernel_resources("k_map", wavefront),
                    ReplayKernel::new(rows, wavefront, map_insts(&st, expr.insts()), 0)
                        .reads(st.reads(&in_slots))
                        .writes(vec![arr])
                        .io_rows(live_rows, live_rows),
                ));
                apply_compute(&mut st.chunk, expr, *out);
                st.addr[*out] = Some(arr);
            }
        }
    }

    // Terminal.
    let (rows, live_rows) = (st.launch_rows(), st.chunk.rows);
    let terminal = ReplayKernel::new(
        rows,
        wavefront,
        ops::terminal_compute_insts(&stage.terminal),
        ops::terminal_mem_insts(&stage.terminal),
    )
    .io_rows(live_rows as u64, 0);
    match &stage.terminal {
        Terminal::HashBuild { key, payloads, .. } => {
            let target = build.expect("hash-build stage needs a target table");
            let mut t = target.borrow_mut();
            let mut extra = Vec::with_capacity(live_rows);
            for r in 0..live_rows {
                let pay: Vec<i64> = payloads.iter().map(|&p| st.chunk.cols[p][r]).collect();
                t.insert(st.chunk.cols[*key][r], &pay, &mut extra);
            }
            drop(t);
            let in_slots: Vec<usize> = std::iter::once(*key)
                .chain(payloads.iter().copied())
                .collect();
            merged.merge(&launch(
                ctx,
                "k_hash_build",
                kernel_resources("k_hash_build", wavefront),
                terminal
                    .reads(st.reads(&in_slots))
                    .extra(st.pad(extra, 1), 1),
            ));
        }
        Terminal::Aggregate { groups, aggs } => {
            let store = agg.expect("aggregate stage needs a store");
            let mut s = store.borrow_mut();
            let mut extra = Vec::with_capacity(live_rows * 2);
            for r in 0..live_rows {
                let keys: Vec<i64> = groups.iter().map(|&g| st.chunk.cols[g][r]).collect();
                let values: Vec<i64> = aggs
                    .iter()
                    .map(|a| a.expr.eval(&st.chunk.cols, r))
                    .collect();
                s.update(&keys, &values, &mut extra);
            }
            drop(s);
            let mut in_slots: Vec<usize> = groups.clone();
            for a in aggs {
                a.expr.slots(&mut in_slots);
            }
            in_slots.sort_unstable();
            in_slots.dedup();
            merged.merge(&launch(
                ctx,
                "k_aggregate",
                kernel_resources("k_aggregate", wavefront),
                terminal
                    .reads(st.reads(&in_slots))
                    .extra(st.pad(extra, 2), 2),
            ));
        }
    }
    merged
}

/// The prefix-sum + scatter pair that compacts survivors after a map or
/// probe kernel, materializing the live slots into a fresh intermediate.
fn scatter_phase(
    ctx: &mut ExecContext,
    st: &mut MatState,
    out: Chunk,
    live_out: &[usize],
    flags: ArrayRef,
    merged: &mut LaunchProfile,
) {
    let wavefront = ctx.sim.spec().wavefront_size;
    let rows = st.chunk.rows;
    let offsets = alloc_array(ctx, rows, 4, RegionClass::Scratch, "kbe.offsets");
    merged.merge(&launch(
        ctx,
        "k_prefix_sum",
        kernel_resources("k_prefix_sum", wavefront),
        ReplayKernel::new(rows, wavefront, 2 * ops::INST_EXPANSION, 0)
            .reads(vec![flags])
            .writes(vec![offsets])
            .io_rows(rows as u64, rows as u64),
    ));

    let out_rows = out.rows;
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
        kernel_resources("k_scatter", wavefront),
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
    st.chunk = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;
    use crate::plan::{listing1_plan, q14_plan};
    use gpl_sim::amd_a10;
    use gpl_storage::days;
    use gpl_tpch::{Q14Params, TpchDb};

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
