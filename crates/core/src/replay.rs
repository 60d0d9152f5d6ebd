//! Access-replay kernels: the timing side of kernel-at-a-time engines.
//!
//! KBE and the Ocelot baseline (both in [`crate::kbe`]) perform their
//! functional work first, a host block at a time, and then launch per op
//! a data-parallel kernel that *replays* the corresponding access
//! pattern — sequential array reads/writes plus row-indexed hash-table
//! traffic — against the simulator. The row-indexed traffic arrives as a
//! [`BucketTrace`] of 4-byte bucket ids, and each work unit expands only
//! its own rows' ids into accesses.

use crate::exec::ExecContext;
use crate::ht::BucketTrace;
use crate::segment::KernelFlavour;
use gpl_sim::mem::{MemRange, RegionClass};
use gpl_sim::{ChannelView, KernelDesc, LaunchProfile, Work, WorkUnit};

/// Rows one replay work-group quantum covers.
pub const BATCH_ROWS: usize = 8192;

/// An array in simulated memory: base address, element width, row count.
#[derive(Debug, Clone, Copy)]
pub struct ArrayRef {
    pub base: u64,
    pub width: u64,
    pub rows: usize,
}

impl ArrayRef {
    /// The slice of this array corresponding to input-progress fraction
    /// `done..upto` out of `total` driving rows.
    pub fn slice(&self, done: usize, upto: usize, total: usize) -> MemRange {
        let total = total.max(1);
        let a = (self.rows * done / total) as u64;
        let b = (self.rows * upto / total) as u64;
        MemRange::read(self.base + a * self.width, (b - a) * self.width)
    }
}

/// Allocate a fresh array in simulated memory.
pub fn alloc_array(
    ctx: &mut ExecContext,
    rows: usize,
    width: u64,
    class: RegionClass,
    label: &str,
) -> ArrayRef {
    let id = ctx.sim.mem.alloc(rows.max(1) as u64 * width, class, label);
    ArrayRef {
        base: ctx.sim.mem.base(id),
        width,
        rows,
    }
}

/// A data-parallel kernel that replays a precomputed access pattern over
/// its driving rows.
pub struct ReplayKernel {
    rows: usize,
    cursor: usize,
    wavefront: u64,
    per_row_compute: u64,
    per_row_mem: u64,
    reads: Vec<ArrayRef>,
    writes: Vec<ArrayRef>,
    /// Row-indexed hash-table traffic, one operation per row in row
    /// order: the unit over rows `a..b` expands operations `a..b`,
    /// clamped to the trace. A trace shorter than `rows` — Ocelot's,
    /// where only live rows have traffic — runs out early, and the units
    /// past its end carry none.
    extra: BucketTrace,
    emitted_any: bool,
    /// Observed-statistics totals (see [`ReplayKernel::io_rows`]): rows
    /// consumed and rows surviving over the whole launch, distributed
    /// proportionally across the emitted work units.
    rows_in_total: u64,
    rows_out_total: u64,
}

impl ReplayKernel {
    pub fn new(rows: usize, wavefront: u32, per_row_compute: u64, per_row_mem: u64) -> Self {
        ReplayKernel {
            rows,
            cursor: 0,
            wavefront: wavefront as u64,
            per_row_compute,
            per_row_mem,
            reads: Vec::new(),
            writes: Vec::new(),
            extra: BucketTrace::default(),
            emitted_any: false,
            rows_in_total: 0,
            rows_out_total: 0,
        }
    }

    pub fn reads(mut self, reads: Vec<ArrayRef>) -> Self {
        self.reads = reads;
        self
    }

    pub fn writes(mut self, writes: Vec<ArrayRef>) -> Self {
        self.writes = writes;
        self
    }

    pub fn extra(mut self, extra: BucketTrace) -> Self {
        self.extra = extra;
        self
    }

    /// Declare the launch's observed row totals: `rows_in` consumed and
    /// `rows_out` surviving. Units report proportional shares that sum
    /// exactly to the totals, so the kernel profile's `rows_in/rows_out`
    /// match the eager host-side computation.
    pub fn io_rows(mut self, rows_in: u64, rows_out: u64) -> Self {
        self.rows_in_total = rows_in;
        self.rows_out_total = rows_out;
        self
    }
}

impl gpl_sim::WorkSource for ReplayKernel {
    fn next(&mut self, _view: &dyn ChannelView) -> Work {
        if self.cursor >= self.rows {
            if self.emitted_any {
                return Work::Done;
            }
            // Even an empty launch occupies the device briefly.
            self.emitted_any = true;
            return Work::Unit(WorkUnit {
                compute_insts: 1,
                ..Default::default()
            });
        }
        let start = self.cursor;
        let end = (start + BATCH_ROWS).min(self.rows);
        self.cursor = end;
        self.emitted_any = true;
        let rows = (end - start) as u64;
        let clamp = |row: usize| row.min(self.extra.len());
        let extra = clamp(start)..clamp(end);
        let mut accesses: Vec<MemRange> = Vec::with_capacity(
            self.reads.len() + self.writes.len() + self.extra.accesses(extra.len()),
        );
        for r in &self.reads {
            accesses.push(r.slice(start, end, self.rows));
        }
        for w in &self.writes {
            let mut m = w.slice(start, end, self.rows);
            m.write = true;
            accesses.push(m);
        }
        self.extra.expand(extra, &mut accesses);
        let mem_ops = self.per_row_mem + self.reads.len() as u64 + self.writes.len() as u64;
        // Proportional shares of the declared totals: prefix(end) −
        // prefix(start) telescopes to the exact totals over the launch.
        let total = self.rows as u64;
        let share = |t: u64| {
            (t * end as u64 / total.max(1)).saturating_sub(t * start as u64 / total.max(1))
        };
        Work::Unit(
            WorkUnit {
                compute_insts: (rows * self.per_row_compute).div_ceil(self.wavefront),
                mem_insts: (rows * mem_ops).div_ceil(self.wavefront),
                accesses,
                ..Default::default()
            }
            .rows(share(self.rows_in_total), share(self.rows_out_total)),
        )
    }
}

/// Launch one replay kernel alone on the device (the KBE discipline),
/// with `flavour`'s resources and enough work-groups to fill it.
pub fn launch(
    ctx: &mut ExecContext,
    name: &str,
    flavour: KernelFlavour,
    kernel: ReplayKernel,
) -> LaunchProfile {
    let spec = ctx.sim.spec();
    let wg = spec.num_cus * spec.max_wg_per_cu;
    let resources = flavour.resources(spec.wavefront_size);
    let desc = KernelDesc::new(name, resources, wg, Box::new(kernel));
    ctx.sim.run(vec![desc])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ht::{BucketSink, Pattern, TableSite};
    use gpl_sim::amd_a10;
    use gpl_tpch::TpchDb;

    #[test]
    fn replay_covers_all_rows_and_slices_proportionally() {
        let mut ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(0.002));
        let input = alloc_array(&mut ctx, 20_000, 8, RegionClass::Intermediate, "in");
        let output = alloc_array(&mut ctx, 10_000, 4, RegionClass::Intermediate, "out");
        let k = ReplayKernel::new(20_000, 64, 4, 1)
            .reads(vec![input])
            .writes(vec![output]);
        let p = launch(&mut ctx, "k_map", KernelFlavour::Map, k);
        assert_eq!(
            p.kernels[0].units,
            (20_000usize).div_ceil(BATCH_ROWS) as u64
        );
        // All input bytes read, all output bytes written.
        assert_eq!(p.bytes_read[&RegionClass::Intermediate], 20_000 * 8);
        assert_eq!(p.bytes_written[&RegionClass::Intermediate], 10_000 * 4);
    }

    /// A view for kernels that use no channels.
    struct NoChannels;

    impl ChannelView for NoChannels {
        fn available(&self, _: gpl_sim::ChannelId) -> u64 {
            0
        }
        fn space(&self, _: gpl_sim::ChannelId) -> u64 {
            0
        }
        fn eof(&self, _: gpl_sim::ChannelId) -> bool {
            true
        }
    }

    #[test]
    fn replay_clamps_a_short_extra_list() {
        use gpl_sim::WorkSource;
        // 20 000 rows with a read and a write each would be 40 000
        // accesses; trace half the rows. Units cover rows 0..8192,
        // 8192..16384, 16384..20000.
        let site = TableSite {
            base: 4096,
            entry_bytes: 24,
        };
        let (mut trace, mut want) = (BucketTrace::default(), Vec::new());
        for b in (0..10_000).map(|i| i * 7 % 16_384) {
            trace.touch(site, Pattern::ReadWrite, b);
            want.touch(site, Pattern::ReadWrite, b);
        }
        let mut k = ReplayKernel::new(20_000, 64, 1, 0).extra(trace);
        let mut per_unit = Vec::new();
        loop {
            match k.next(&NoChannels) {
                Work::Unit(u) => per_unit.push(u.accesses),
                Work::Done => break,
                Work::Wait => panic!("a replay kernel never waits"),
            }
        }
        let lens: Vec<usize> = per_unit.iter().map(Vec::len).collect();
        assert_eq!(lens, [2 * BATCH_ROWS, 20_000 - 2 * BATCH_ROWS, 0]);
        assert_eq!(per_unit.concat(), want, "every access once, in order");
    }

    /// Records every operation into a trace and an access list at once.
    struct Both(BucketTrace, Vec<MemRange>);

    impl BucketSink for Both {
        fn touch(&mut self, site: TableSite, pattern: Pattern, bucket: u64) {
            self.0.touch(site, pattern, bucket);
            self.1.touch(site, pattern, bucket);
        }

        fn reserve(&mut self, touches: usize) {
            self.0.reserve(touches);
            self.1.reserve(touches);
        }
    }

    gpl_check::prop! {
        #![cases(48)]
        /// A trace replays exactly what the access-list sink records for
        /// the same operations — probes, build inserts or aggregate
        /// updates fed in host blocks of any size — with each unit
        /// carrying its own rows' operations, and a trace shorter than
        /// the launch (Ocelot's live rows) running out, the units past
        /// its end carrying none.
        #[test]
        fn bucket_trace_replays_what_the_access_sink_records(
            kind in 0usize..3,
            ops in 0usize..20_000,
            slack in 0usize..12_000,
            block in 1usize..9000,
            seed in gpl_check::any::<u64>(),
        ) {
            use crate::ht::{mix64, GroupStore, SimHashTable};
            use crate::ops::{Chunk, OpExec, TermExec};
            use crate::plan::{Agg, PipeOp, Terminal};
            use gpl_sim::{MemoryMap, WorkSource};
            use std::{cell::RefCell, rc::Rc};

            let keys: Vec<i64> = (0..ops as u64).map(|i| mix64(seed ^ i) as i64).collect();
            let mut mem = MemoryMap::new();
            let table = Rc::new(RefCell::new(SimHashTable::new(&mut mem, ops, 0, "t")));
            let store = Rc::new(RefCell::new(GroupStore::new(&mut mem, 64, 1, 1, "g")));
            let probe = OpExec::new(
                &PipeOp::Probe { ht: 0, key: 0, payloads: Vec::new() },
                &[Some(table.clone())],
            );
            let build = TermExec::new(
                &Terminal::HashBuild { ht: 0, key: 0, payloads: Vec::new() },
                Some(&table),
                None,
            );
            let agg = TermExec::new(
                &Terminal::Aggregate { groups: vec![1], aggs: vec![Agg::count()] },
                None,
                Some(&store),
            );
            if kind == 0 {
                for &k in keys.iter().step_by(2) {
                    table.borrow_mut().insert(k, &[], &mut Vec::new());
                }
            }
            let mut both = Both(BucketTrace::default(), Vec::new());
            for block in keys.chunks(block) {
                let mut c = Chunk::new(2);
                c.fill(0, block.to_vec());
                c.fill(1, block.iter().map(|k| k % 13).collect());
                match kind {
                    0 => drop(probe.apply(c, &mut both)),
                    1 => build.fold(&c, &mut both),
                    _ => agg.fold(&c, &mut both),
                }
            }
            let Both(trace, want) = both;
            // A probe reads its bucket, an insert writes it, an update
            // reads then writes it.
            let pattern: &[bool] = match kind {
                0 => &[false],
                1 => &[true],
                _ => &[false, true],
            };
            let per_op = pattern.len();
            let writes: Vec<bool> = want.iter().map(|a| a.write).collect();
            gpl_check::prop_assert_eq!(writes, pattern.repeat(ops));

            let rows = ops + slack;
            let mut k = ReplayKernel::new(rows, 64, 1, 0).extra(trace);
            let mut got = Vec::new();
            for start in (0..rows.max(1)).step_by(BATCH_ROWS) {
                let Work::Unit(u) = k.next(&NoChannels) else {
                    panic!("a unit per {BATCH_ROWS} rows")
                };
                let live = (start + BATCH_ROWS).min(ops).saturating_sub(start.min(ops));
                gpl_check::prop_assert_eq!(u.accesses.len(), per_op * live, "unit at row {}", start);
                got.extend(u.accesses);
            }
            gpl_check::prop_assert!(matches!(k.next(&NoChannels), Work::Done));
            gpl_check::prop_assert_eq!(got, want, "every access once, in order");
        }
    }

    #[test]
    fn empty_replay_still_occupies_the_device() {
        let mut ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(0.002));
        let k = ReplayKernel::new(0, 64, 1, 0);
        let p = launch(&mut ctx, "k_map", KernelFlavour::Map, k);
        assert!(p.elapsed_cycles > 0);
        assert_eq!(p.kernels[0].units, 1);
    }

    #[test]
    fn array_slice_arithmetic() {
        let a = ArrayRef {
            base: 1000,
            width: 4,
            rows: 50,
        };
        let m = a.slice(10, 20, 100); // rows 5..10 of the array
        assert_eq!(m.addr, 1000 + 5 * 4);
        assert_eq!(m.bytes, 5 * 4);
    }
}
