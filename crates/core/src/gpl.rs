//! The GPL pipelined executor (Section 3).
//!
//! A stage's kernels — the fused leaf `k_map*` (scan + leading filters /
//! computed columns), one `k_hash_probe*` per hash probe (with trailing
//! maps fused in), and the blocking terminal — are launched
//! *concurrently* and connected by channels. The input is tiled
//! (Section 3.3): the leaf streams one tile at a time and waits for its
//! output channel to drain before starting the next, and channel buffers
//! are sized to the tile, which is how the tile-size knob reaches the
//! cache. Intermediate results flow through channels without
//! materialization in global memory; only the blocking terminal (hash
//! build, aggregation) writes global state — exactly Figure 8's contrast
//! with KBE.

use crate::error::ExecError;
use crate::exec::{ExecContext, StageConfig};
use crate::expr::Slot;
use crate::ht::{GroupStore, SimHashTable};
use crate::ops::{self, select_rows, Chunk, OpExec, TermExec};
use crate::plan::{PipeOp, Stage, Terminal};
use crate::segment::{InterSegmentEdge, SegmentIr};
use gpl_sim::mem::MemRange;
use gpl_sim::{ChannelId, ChannelView, KernelDesc, LaunchProfile, RegionClass, Work, WorkUnit};
use gpl_storage::Tiling;
use gpl_tpch::TpchDb;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Rows a leaf work-group quantum covers.
pub const SCAN_BATCH_ROWS: usize = 4096;
/// Extra per-tile dispatch instructions charged to the leaf's first batch
/// of each tile (the workload scheduler's cost, Section 3.1).
pub const TILE_DISPATCH_INSTS: u64 = 256;
/// Maximum chunks a consumer fuses into one work-group quantum.
const MAX_CHUNKS_PER_UNIT: usize = 4;
/// Unit row cap for kernels of a fused (cross-segment) launch. With two
/// segments sharing the device's few dispatch lanes, a kernel waits
/// longer between dispatches and its input backlog grows; uncapped it
/// would drain the backlog as one giant unit whose output chunk fattens
/// the next kernel's units in turn, serializing the probe cascade onto
/// single CUs. Capping at the leaf batch size keeps units small enough
/// to spread across CUs. Sequential launches are uncapped so their
/// timing (and every pinned trace) is untouched.
const FUSED_UNIT_ROWS: usize = SCAN_BATCH_ROWS;

/// Functional data queue riding alongside a channel: chunks plus their
/// packet counts and a producer-stamped checksum (the timing side lives
/// in the simulator's channel). Debug builds re-hash on pop — the
/// per-tile integrity check the fault plane's `ChannelCorrupt`
/// injections model tripping. Release builds skip the stamp-and-verify
/// sweep: the queue is a plain in-process value store, so a mismatch
/// would mean the engine mutated a queued chunk — an invariant breach
/// (injected corruption is surfaced at launch admission, never here),
/// and the sweep is the leaf/probe data plane's largest pure overhead.
type DataQ = Rc<RefCell<VecDeque<(Chunk, u64, u64)>>>;

/// Producer-side transit stamp for a queued chunk: the checksum in
/// debug builds, `0` (never verified) in release builds.
#[inline]
fn transit_stamp(c: &Chunk) -> u64 {
    if cfg!(debug_assertions) {
        chunk_checksum(c)
    } else {
        0
    }
}

/// Consumer-side transit verify, paired with [`transit_stamp`]:
/// re-hash and compare in debug builds, no-op in release builds.
#[inline]
fn verify_transit(c: &Chunk, sum: u64, ch: ChannelId) {
    if cfg!(debug_assertions) {
        assert_eq!(
            chunk_checksum(c),
            sum,
            "channel chunk corrupted in transit on channel {ch:?}"
        );
    }
}

/// FNV-1a over a chunk's shape and every filled slot's values: the
/// per-tile checksum producers stamp on each queued chunk.
pub(crate) fn chunk_checksum(c: &Chunk) -> u64 {
    // FNV-style chain over whole 64-bit words, not bytes (so not the
    // byte-wise `gpl_prng::Fnv1a`): the checksum
    // is only ever compared against a checksum of the same chunk (push
    // vs pop), so what matters is purity and mutation sensitivity —
    // each step xors the full value then multiplies by an odd prime (a
    // bijection), so any changed value, slot index or row count changes
    // the digest. One multiply per value makes the per-hop integrity
    // sweep ~8x cheaper than the byte-at-a-time variant.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = (OFFSET ^ c.rows as u64).wrapping_mul(PRIME);
    for (s, col) in c.cols.iter().enumerate() {
        if !c.filled[s] {
            continue;
        }
        h = (h ^ s as u64).wrapping_mul(PRIME);
        for &v in col {
            h = (h ^ v as u64).wrapping_mul(PRIME);
        }
    }
    h
}

fn packets_for(rows: usize, row_bytes: u64, packet_bytes: u32) -> u64 {
    ((rows as u64 * row_bytes).div_ceil(packet_bytes as u64)).max(1)
}

/// Bytes an edge's channel buffer holds at tile size `tile_bytes`: a
/// quarter of the tile may be in flight per edge (Section 3.3: buffers
/// scale with the tile, so the knob reaches the cache).
pub fn edge_buffer_bytes(tile_bytes: u64) -> u64 {
    tile_bytes / 4
}

/// One fused pipeline op with its per-row cost estimates.
struct ExecStep {
    exec: OpExec,
    per_row_compute: u64,
    per_row_mem: u64,
}

impl ExecStep {
    fn from_op(op: &PipeOp, hts: &[Option<Rc<RefCell<SimHashTable>>>]) -> Self {
        ExecStep {
            exec: OpExec::new(op, hts),
            per_row_compute: ops::op_compute_insts(op),
            per_row_mem: ops::op_mem_insts(op),
        }
    }
}

/// Run `chunk` through the fused steps, accumulating instruction counts
/// (each step charged at its own input cardinality) and hash-table
/// traffic. Returns the surviving chunk.
fn apply_steps(
    steps: &[ExecStep],
    mut chunk: Chunk,
    acc: &mut Vec<MemRange>,
    compute: &mut u64,
    mem: &mut u64,
) -> Chunk {
    for s in steps {
        if chunk.rows == 0 {
            break;
        }
        *compute += chunk.rows as u64 * s.per_row_compute;
        *mem += chunk.rows as u64 * s.per_row_mem;
        chunk = s.exec.apply(chunk, acc);
    }
    chunk
}

/// The fused leaf kernel (`k_map*`): scans tiles of the driving relation,
/// applies the leading filters / computed columns, and streams surviving
/// rows into the first channel.
///
/// Columns the leading ops read are loaded *eagerly* (streamed); columns
/// that are merely shipped onward are *gathered lazily* for the surviving
/// rows only — the way a real map kernel evaluates its predicate before
/// touching payload columns. A hidden row-id slot tracks survivors.
struct LeafSource {
    db: Arc<TpchDb>,
    table: String,
    /// Eagerly streamed: (slot, table column index, base, width).
    cols: Vec<(Slot, usize, u64, u64)>,
    /// Lazily gathered for survivors: (slot, column index, base, width).
    lazy_cols: Vec<(Slot, usize, u64, u64)>,
    num_slots: usize,
    /// Index of the hidden row-id slot (`num_slots`).
    rowid_slot: usize,
    steps: Vec<ExecStep>,
    /// Slots shipped to the next kernel.
    ship: Vec<Slot>,
    /// First absolute row of this kernel's shard of the driving relation;
    /// `tiling`/`cursor` are relative to it. 0 for an unsharded scan.
    base: usize,
    tiling: Tiling,
    tile_idx: usize,
    cursor: usize,
    out: ChannelId,
    out_q: DataQ,
    out_row_bytes: u64,
    packet_bytes: u32,
    wavefront: u64,
}

/// Keep only the shipped slots filled (narrows the channel stream to the
/// live set, like a projection before the pipe write).
fn project_to(chunk: &mut Chunk, ship: &[Slot]) {
    for s in 0..chunk.cols.len() {
        if chunk.filled[s] && !ship.contains(&s) {
            chunk.cols[s] = Vec::new();
            chunk.filled[s] = false;
        }
    }
}

impl gpl_sim::WorkSource for LeafSource {
    fn next(&mut self, view: &dyn ChannelView) -> Work {
        let total = self.tiling.rows();
        if self.cursor >= total {
            return Work::Done;
        }
        let tile = self.tiling.tile(self.tile_idx);
        let tile_start = self.cursor == tile.start;
        // Tile barrier (Section 3.3): a new tile starts only after the
        // pipeline has drained the previous one from this channel.
        if tile_start && self.tile_idx > 0 && view.available(self.out) > 0 {
            return Work::Wait;
        }
        let end = (self.cursor + SCAN_BATCH_ROWS).min(tile.end);
        let rows = end - self.cursor;
        // Conservative backpressure: every scanned row might survive.
        let worst_packets = packets_for(rows, self.out_row_bytes, self.packet_bytes);
        if view.space(self.out) < worst_packets {
            return Work::Wait;
        }
        let t = self.db.table(&self.table);
        let mut chunk = Chunk::new(self.num_slots + 1);
        let mut accesses = Vec::with_capacity(self.cols.len() + self.lazy_cols.len());
        for &(slot, ci, base, width) in &self.cols {
            let col = t.col_at(ci);
            chunk.fill(
                slot,
                col.range_i64(self.base + self.cursor, self.base + end),
            );
            accesses.push(MemRange::read(
                base + (self.base + self.cursor) as u64 * width,
                rows as u64 * width,
            ));
        }
        // Row ids are absolute so lazy gathers and downstream ops see the
        // same values sharded or not.
        chunk.fill(
            self.rowid_slot,
            (self.cursor..end).map(|r| (self.base + r) as i64).collect(),
        );
        let (load_compute, load_mem) = ops::COLUMN_LOAD_INSTS;
        let mut compute = rows as u64 * load_compute * self.cols.len() as u64;
        let mut mem = rows as u64 * load_mem * self.cols.len() as u64;
        let mut out = apply_steps(&self.steps, chunk, &mut accesses, &mut compute, &mut mem);
        if out.rows > 0 && !self.lazy_cols.is_empty() {
            // Gather the shipped-only columns at surviving positions;
            // consecutive survivors coalesce into contiguous reads — the
            // same runs for every lazy column, so they are found once.
            let rowids: Vec<usize> = out.cols[self.rowid_slot]
                .iter()
                .map(|&r| r as usize)
                .collect();
            let mut runs: Vec<(u64, u64)> = Vec::new(); // (start row, len)
            for &r in &rowids {
                match runs.last_mut() {
                    Some((s, len)) if r as u64 == *s + *len => *len += 1,
                    _ => runs.push((r as u64, 1)),
                }
            }
            for &(slot, ci, base, width) in &self.lazy_cols {
                out.fill(slot, t.col_at(ci).gather_i64(&rowids));
                accesses.extend(
                    runs.iter()
                        .map(|&(s, len)| MemRange::read(base + s * width, len * width)),
                );
            }
            compute += out.rows as u64 * load_compute * self.lazy_cols.len() as u64;
            mem += out.rows as u64 * load_mem * self.lazy_cols.len() as u64;
        }
        let mut unit = WorkUnit {
            compute_insts: compute.div_ceil(self.wavefront)
                + if tile_start { TILE_DISPATCH_INSTS } else { 0 },
            mem_insts: mem.div_ceil(self.wavefront),
            accesses,
            ..Default::default()
        }
        .rows(rows as u64, out.rows as u64);
        if out.rows > 0 {
            project_to(&mut out, &self.ship);
            let packets = packets_for(out.rows, self.out_row_bytes, self.packet_bytes);
            let sum = transit_stamp(&out);
            self.out_q.borrow_mut().push_back((out, packets, sum));
            unit = unit.push(self.out, packets);
        }
        self.cursor = end;
        if self.cursor == tile.end && self.cursor < total {
            self.tile_idx += 1;
        }
        Work::Unit(unit)
    }
}

/// The consumer end of an [`InterSegmentEdge`]: admission state for a
/// probe kernel whose hash table is still being installed by the
/// producer segment's terminal. Rows flow only against slices the build
/// side has published; the rest wait in per-slice pending buffers until
/// their slice's publication record arrives.
struct Gate {
    /// The shared, concurrently-installed hash table — borrowed to
    /// verify each published slice's checksum before admitting rows.
    table: Rc<RefCell<SimHashTable>>,
    /// Probe key slot in this kernel's input chunks.
    key: Slot,
    slices: u32,
    /// Slices published so far. The build terminal publishes strictly in
    /// slice order, so this single counter is the full admission state.
    published: u32,
    /// The publication channel from the build terminal.
    pub_in: ChannelId,
    pub_q: DataQ,
    /// Per-slice buffers of not-yet-admissible chunks, arrival order.
    pending: Vec<VecDeque<Chunk>>,
}

/// Route one popped chunk through the slice gate: rows whose key slice
/// is already published go to `admitted`; the rest are buffered per
/// slice (arrival order preserved) until their slice publishes.
fn route_by_slice(
    chunk: Chunk,
    key: Slot,
    published: u32,
    slices: u32,
    admitted: &mut Vec<Chunk>,
    pending: &mut [VecDeque<Chunk>],
) {
    if chunk.rows == 0 {
        return;
    }
    let slice_of: Vec<u32> = chunk.cols[key]
        .iter()
        .map(|&k| SimHashTable::slice_of(k, slices))
        .collect();
    if published >= slices || slice_of.iter().all(|&s| s < published) {
        admitted.push(chunk);
        return;
    }
    // One group per unpublished slice plus one for the admissible rows.
    let adm = slices as usize;
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); adm + 1];
    for (r, &s) in slice_of.iter().enumerate() {
        let g = if s < published { adm } else { s as usize };
        groups[g].push(r);
    }
    for (g, idx) in groups.iter().enumerate() {
        if idx.is_empty() {
            continue;
        }
        let sub = select_rows(&chunk, idx);
        if g == adm {
            admitted.push(sub);
        } else {
            pending[g].push_back(sub);
        }
    }
}

/// A fused probe kernel: pops chunks, probes (+ fused maps), pushes.
/// With a [`Gate`] attached it is the consumer side of an inter-segment
/// edge and admits rows slice by slice as the build terminal publishes.
struct ProbeSource {
    steps: Vec<ExecStep>,
    ship: Vec<Slot>,
    input: ChannelId,
    in_q: DataQ,
    out: ChannelId,
    out_q: DataQ,
    /// Worst-case output rows an empty `out` holds (see
    /// [`split_front_to_fit`]).
    out_fit_rows: usize,
    out_row_bytes: u64,
    packet_bytes: u32,
    wavefront: u64,
    /// See [`take_chunks`]: `usize::MAX` sequentially, [`FUSED_UNIT_ROWS`]
    /// inside a fused launch.
    unit_rows_cap: usize,
    gate: Option<Gate>,
}

/// A probe *widens* rows, so a chunk that fit its input channel can have
/// a worst-case output larger than the output channel's **total
/// capacity**: no amount of draining would ever admit it, and every
/// kernel downstream would block on an empty channel. Split such a front
/// chunk by rows into the prefix that fits an empty output channel and
/// the remainder, dividing its packets proportionally (each part keeps
/// ≥ 1, so the timing side still pops exactly what was pushed).
/// `fit_rows` is how many output rows that empty channel holds; a chunk
/// that fits is left alone, so this fires only where the pipeline used
/// to deadlock.
fn split_front_to_fit(q: &mut VecDeque<(Chunk, u64, u64)>, input: ChannelId, fit_rows: usize) {
    match q.front() {
        Some((chunk, packets, _)) if chunk.rows > fit_rows && fit_rows > 0 && *packets > 1 => {}
        _ => return,
    }
    let (mut head, packets, sum) = q.pop_front().expect("front exists");
    verify_transit(&head, sum, input);
    let mut tail = Chunk::new(head.cols.len());
    for s in 0..head.cols.len() {
        if head.filled[s] {
            tail.cols[s] = head.cols[s].split_off(fit_rows);
            tail.filled[s] = true;
        }
    }
    tail.rows = head.rows - fit_rows;
    head.rows = fit_rows;
    let share = packets as u128 * fit_rows as u128 / (fit_rows + tail.rows) as u128;
    let head_packets = (share as u64).clamp(1, packets - 1);
    let (head_sum, tail_sum) = (transit_stamp(&head), transit_stamp(&tail));
    q.push_front((tail, packets - head_packets, tail_sum));
    q.push_front((head, head_packets, head_sum));
}

/// Pop as many whole chunks as the channel's available packets and the
/// output budget allow. Returns (chunks, packets popped) or None.
/// `rows_cap` bounds the unit's row count (the first chunk is always
/// taken so progress never stalls): sequential stages pass `usize::MAX`,
/// fused launches [`FUSED_UNIT_ROWS`] — without the cap, a kernel
/// starved of a dispatch lane gulps its whole backlog into one monster
/// unit whose serial latency then fattens every downstream unit in turn.
fn take_chunks(
    view: &dyn ChannelView,
    input: ChannelId,
    in_q: &DataQ,
    out_budget: Option<(u64, u64, u32)>, // (space, out_row_bytes, packet_bytes)
    rows_cap: usize,
) -> Option<(Vec<Chunk>, u64)> {
    let mut budget_in = view.available(input);
    if budget_in == 0 {
        return None;
    }
    let mut q = in_q.borrow_mut();
    let mut chunks = Vec::new();
    let mut popped = 0u64;
    let mut rows = 0usize;
    while chunks.len() < MAX_CHUNKS_PER_UNIT {
        let Some((chunk, packets, _)) = q.front() else {
            break;
        };
        if *packets > budget_in {
            break;
        }
        if !chunks.is_empty() && rows + chunk.rows > rows_cap {
            break;
        }
        if let Some((space, w, p)) = out_budget {
            // Worst case: every input row survives.
            let worst = packets_for(rows + chunk.rows, w, p);
            if worst > space {
                break;
            }
        }
        budget_in -= *packets;
        popped += *packets;
        rows += chunk.rows;
        let (chunk, _, sum) = q.pop_front().expect("front exists");
        // Channel-transit integrity (debug builds): a mismatch means a
        // chunk was mutated while queued — an engine invariant breach,
        // never expected in the simulator (injected `ChannelCorrupt`
        // faults model this check firing and are surfaced at launch
        // admission instead).
        verify_transit(&chunk, sum, input);
        chunks.push(chunk);
    }
    if chunks.is_empty() {
        None
    } else {
        Some((chunks, popped))
    }
}

/// Concatenate chunks slot-wise.
fn concat(mut chunks: Vec<Chunk>) -> Chunk {
    let mut merged = chunks.swap_remove(0);
    for mut c in chunks {
        for s in 0..merged.cols.len() {
            if c.filled[s] {
                if merged.filled[s] {
                    merged.cols[s].extend_from_slice(&c.cols[s]);
                } else {
                    merged.cols[s] = std::mem::take(&mut c.cols[s]);
                    merged.filled[s] = true;
                }
            }
        }
        merged.rows += c.rows;
    }
    merged
}

impl ProbeSource {
    /// Slice-gated admission (the consumer end of an inter-segment
    /// edge). Each quantum: (1) drain publication records, verifying the
    /// in-order protocol and each slice's checksum against the shared
    /// table; (2) admit buffered chunks of newly published slices, in
    /// slice order, within the conservative output budget; (3) pop fresh
    /// input chunks and route their rows by key slice. Admitted rows run
    /// the fused steps exactly as the ungated path does.
    fn next_gated(&mut self, view: &dyn ChannelView) -> Work {
        let gate = self.gate.as_mut().expect("gated probe");
        let mut pub_popped = 0u64;
        {
            let avail = view.available(gate.pub_in);
            let mut q = gate.pub_q.borrow_mut();
            while pub_popped < avail {
                let Some((rec, packets, sum)) = q.pop_front() else {
                    break;
                };
                verify_transit(&rec, sum, gate.pub_in);
                pub_popped += packets;
                let slice = rec.cols[0][0] as u32;
                assert_eq!(
                    slice, gate.published,
                    "slice published out of order (a slice was dropped or double-published)"
                );
                let want = rec.cols[2][0] as u64;
                let got = gate.table.borrow().slice_checksum(slice, gate.slices);
                assert_eq!(
                    got, want,
                    "published slice {slice} diverges from the shared hash table"
                );
                gate.published += 1;
            }
        }
        // Admit pending chunks of published slices, oldest slice first.
        let space = view.space(self.out);
        let mut admitted: Vec<Chunk> = Vec::new();
        let mut budget_rows = 0usize;
        'pend: for s in 0..gate.published as usize {
            while let Some(c) = gate.pending[s].front() {
                if packets_for(budget_rows + c.rows, self.out_row_bytes, self.packet_bytes) > space
                    || (budget_rows > 0 && budget_rows + c.rows > self.unit_rows_cap)
                {
                    break 'pend;
                }
                budget_rows += c.rows;
                admitted.push(gate.pending[s].pop_front().expect("front exists"));
            }
        }
        // Fresh input chunks, routed per key slice.
        let mut data_popped = 0u64;
        let mut routed_rows = 0u64;
        {
            let mut avail_in = view.available(self.input);
            let mut q = self.in_q.borrow_mut();
            let mut fresh = 0;
            while fresh < MAX_CHUNKS_PER_UNIT {
                let Some((c, packets, _)) = q.front() else {
                    break;
                };
                if *packets > avail_in
                    || packets_for(budget_rows + c.rows, self.out_row_bytes, self.packet_bytes)
                        > space
                    || (budget_rows > 0 && budget_rows + c.rows > self.unit_rows_cap)
                {
                    break;
                }
                avail_in -= *packets;
                data_popped += *packets;
                let (chunk, _, sum) = q.pop_front().expect("front exists");
                verify_transit(&chunk, sum, self.input);
                budget_rows += chunk.rows;
                routed_rows += chunk.rows as u64;
                fresh += 1;
                route_by_slice(
                    chunk,
                    gate.key,
                    gate.published,
                    gate.slices,
                    &mut admitted,
                    &mut gate.pending,
                );
            }
        }
        if admitted.is_empty() {
            if pub_popped == 0 && data_popped == 0 {
                let drained = view.eof(self.input)
                    && self.in_q.borrow().is_empty()
                    && gate.published == gate.slices
                    && gate.pending.iter().all(VecDeque::is_empty);
                return if drained { Work::Done } else { Work::Wait };
            }
            // Routing-only quantum: packets consumed, no rows admissible.
            return Work::Unit(
                WorkUnit {
                    compute_insts: (routed_rows * 2).div_ceil(self.wavefront).max(1),
                    ..Default::default()
                }
                .pop(self.input, data_popped)
                .pop(gate.pub_in, pub_popped),
            );
        }
        let pub_in = gate.pub_in;
        // `routed_rows * 2`: the slice-routing cost.
        let unit = self.probe_unit(admitted, routed_rows * 2, data_popped);
        Work::Unit(unit.pop(pub_in, pub_popped))
    }

    /// Run the fused steps over the admitted chunks as one work unit:
    /// pop `popped` input packets, push the surviving rows downstream.
    fn probe_unit(&mut self, chunks: Vec<Chunk>, mut compute: u64, popped: u64) -> WorkUnit {
        let merged = concat(chunks);
        let in_rows = merged.rows as u64;
        let mut acc = Vec::new();
        let mut mem = 0u64;
        let mut out = apply_steps(&self.steps, merged, &mut acc, &mut compute, &mut mem);
        let mut unit = WorkUnit {
            compute_insts: compute.div_ceil(self.wavefront).max(1),
            mem_insts: mem.div_ceil(self.wavefront),
            accesses: acc,
            ..Default::default()
        }
        .rows(in_rows, out.rows as u64)
        .pop(self.input, popped);
        if out.rows > 0 {
            project_to(&mut out, &self.ship);
            let packets = packets_for(out.rows, self.out_row_bytes, self.packet_bytes);
            let sum = transit_stamp(&out);
            self.out_q.borrow_mut().push_back((out, packets, sum));
            unit = unit.push(self.out, packets);
        }
        unit
    }
}

impl gpl_sim::WorkSource for ProbeSource {
    fn next(&mut self, view: &dyn ChannelView) -> Work {
        split_front_to_fit(&mut self.in_q.borrow_mut(), self.input, self.out_fit_rows);
        if self.gate.is_some() {
            return self.next_gated(view);
        }
        let out_budget = Some((view.space(self.out), self.out_row_bytes, self.packet_bytes));
        match take_chunks(view, self.input, &self.in_q, out_budget, self.unit_rows_cap) {
            None => {
                if view.eof(self.input) && self.in_q.borrow().is_empty() {
                    Work::Done
                } else {
                    Work::Wait
                }
            }
            Some((chunks, popped)) => Work::Unit(self.probe_unit(chunks, 0, popped)),
        }
    }
}

/// The terminal kernel: consumes packets and updates the blocking output
/// (hash table or group store) — `k_hash_build` / `k_reduce*`.
struct TermSource {
    exec: TermExec,
    input: ChannelId,
    in_q: DataQ,
    per_row_compute: u64,
    per_row_mem: u64,
    wavefront: u64,
    /// See [`take_chunks`]: `usize::MAX` sequentially, [`FUSED_UNIT_ROWS`]
    /// inside a fused launch.
    unit_rows_cap: usize,
}

impl gpl_sim::WorkSource for TermSource {
    fn next(&mut self, view: &dyn ChannelView) -> Work {
        match take_chunks(view, self.input, &self.in_q, None, self.unit_rows_cap) {
            None => {
                if view.eof(self.input) && self.in_q.borrow().is_empty() {
                    Work::Done
                } else {
                    Work::Wait
                }
            }
            Some((chunks, popped)) => {
                let mut acc = Vec::new();
                let mut rows = 0usize;
                for c in &chunks {
                    rows += c.rows;
                    self.exec.fold(c, &mut acc);
                }
                Work::Unit(
                    WorkUnit {
                        compute_insts: (rows as u64 * self.per_row_compute)
                            .div_ceil(self.wavefront)
                            .max(1),
                        mem_insts: (rows as u64 * self.per_row_mem).div_ceil(self.wavefront),
                        accesses: acc,
                        ..Default::default()
                    }
                    .rows(rows as u64, 0)
                    .pop(self.input, popped),
                )
            }
        }
    }
}

/// The pipelined hash-build terminal (the producer end of an
/// [`InterSegmentEdge`]): while its input streams, rows are *staged* to
/// a scratch region with cheap sequential writes — none of the random
/// bucket traffic yet. Once the input drains, the staged rows are
/// partitioned by [`SimHashTable::slice_of`] (arrival order preserved
/// inside each slice) and installed one slice per work unit, paying the
/// same per-row bucket traffic the sequential terminal pays plus a
/// read-back of the staged entries. Each completed slice is published
/// through the inter-segment channel as a one-packet record
/// `[slice, rows, slice_checksum]` so the consumer can verify it saw
/// exactly the slice the builder installed.
/// One staged build entry: `(key, payload values)`.
type StagedRow = (i64, Vec<i64>);

struct BuildPublishSource {
    table: Rc<RefCell<SimHashTable>>,
    key: Slot,
    payloads: Vec<Slot>,
    input: ChannelId,
    in_q: DataQ,
    per_row_compute: u64,
    per_row_mem: u64,
    wavefront: u64,
    slices: u32,
    /// Arrival-order staged rows: (key, payload values).
    staged: Vec<StagedRow>,
    stage_base: u64,
    entry_bytes: u64,
    /// Set once the input has drained: per-slice row partitions.
    parts: Option<Vec<Vec<StagedRow>>>,
    next_slice: u32,
    /// Rows installed so far (staging read-back offset).
    installed: u64,
    out: ChannelId,
    out_q: DataQ,
}

impl gpl_sim::WorkSource for BuildPublishSource {
    fn next(&mut self, view: &dyn ChannelView) -> Work {
        if self.parts.is_none() {
            match take_chunks(view, self.input, &self.in_q, None, FUSED_UNIT_ROWS) {
                Some((chunks, popped)) => {
                    let mut rows = 0usize;
                    let offset = self.staged.len() as u64;
                    for c in &chunks {
                        rows += c.rows;
                        for r in 0..c.rows {
                            let pay: Vec<i64> =
                                self.payloads.iter().map(|&p| c.cols[p][r]).collect();
                            self.staged.push((c.cols[self.key][r], pay));
                        }
                    }
                    // Staging detour: sequential append of (key, payload)
                    // entries.
                    return Work::Unit(
                        WorkUnit {
                            compute_insts: (rows as u64 * 2 * ops::INST_EXPANSION)
                                .div_ceil(self.wavefront)
                                .max(1),
                            mem_insts: (rows as u64 * (1 + self.payloads.len() as u64))
                                .div_ceil(self.wavefront),
                            accesses: vec![MemRange::write(
                                self.stage_base + offset * self.entry_bytes,
                                rows as u64 * self.entry_bytes,
                            )],
                            ..Default::default()
                        }
                        .rows(rows as u64, 0)
                        .pop(self.input, popped),
                    );
                }
                None => {
                    if !(view.eof(self.input) && self.in_q.borrow().is_empty()) {
                        return Work::Wait;
                    }
                    // Input drained: partition the staged rows into their
                    // deterministic slices and switch to installation.
                    let mut parts: Vec<Vec<StagedRow>> =
                        (0..self.slices).map(|_| Vec::new()).collect();
                    for (k, pay) in self.staged.drain(..) {
                        parts[SimHashTable::slice_of(k, self.slices) as usize].push((k, pay));
                    }
                    self.parts = Some(parts);
                }
            }
        }
        // Installation: one slice per work unit, then its publication
        // record. Publishing strictly in slice order is what lets the
        // consumer hold a single high-water-mark counter.
        if self.next_slice == self.slices {
            return Work::Done;
        }
        if view.space(self.out) < 1 {
            return Work::Wait;
        }
        let s = self.next_slice;
        let rows = std::mem::take(&mut self.parts.as_mut().expect("installing")[s as usize]);
        let nrows = rows.len() as u64;
        let mut acc = Vec::new();
        if nrows > 0 {
            // Read back the slice's staged entries (the partition pass
            // compacted them, so one contiguous run per slice).
            acc.push(MemRange::read(
                self.stage_base + self.installed * self.entry_bytes,
                nrows * self.entry_bytes,
            ));
            let mut t = self.table.borrow_mut();
            for (k, pay) in &rows {
                t.insert(*k, pay, &mut acc);
            }
        }
        let sum = self.table.borrow().slice_checksum(s, self.slices);
        let mut rec = Chunk::new(3);
        rec.fill(0, vec![s as i64]);
        rec.fill(1, vec![nrows as i64]);
        rec.fill(2, vec![sum as i64]);
        let rsum = transit_stamp(&rec);
        self.out_q.borrow_mut().push_back((rec, 1, rsum));
        self.installed += nrows;
        self.next_slice += 1;
        // Per-row install cost as the sequential terminal, plus the
        // checksum sweep over the slice's entries.
        Work::Unit(
            WorkUnit {
                compute_insts: (nrows * self.per_row_compute)
                    .div_ceil(self.wavefront)
                    .max(1)
                    + (nrows * 2).div_ceil(self.wavefront),
                mem_insts: (nrows * self.per_row_mem).div_ceil(self.wavefront),
                accesses: acc,
                ..Default::default()
            }
            .push(self.out, 1),
        )
    }
}

/// Inter-segment plumbing handed to [`stage_kernels`] for the producer
/// (build) side of a fused pair.
struct PublishSide {
    slices: u32,
    out: ChannelId,
    out_q: DataQ,
    /// Base address of the staging scratch region.
    stage_base: u64,
}

/// Assemble one stage's kernels wired to freshly created channels —
/// everything [`run_stage_range`] does short of launching. `segment` tags each
/// kernel for fused multi-segment launches; `publish` swaps the blocking
/// hash-build terminal for the slice-publishing variant, and `gate`
/// attaches slice-gated admission to the kernel at the given node index.
#[allow(clippy::too_many_arguments)]
fn stage_kernels(
    ctx: &mut ExecContext,
    ir: &SegmentIr,
    stage: &Stage,
    hts: &[Option<Rc<RefCell<SimHashTable>>>],
    build: Option<&Rc<RefCell<SimHashTable>>>,
    agg: Option<&Rc<RefCell<GroupStore>>>,
    cfg: &StageConfig,
    segment: u32,
    unit_rows_cap: usize,
    rows: Option<std::ops::Range<usize>>,
    publish: Option<PublishSide>,
    mut gate: Option<(usize, Gate)>,
) -> Result<Vec<KernelDesc>, ExecError> {
    let spec = ctx.sim.spec().clone();
    let wavefront = spec.wavefront_size;
    ir.validate_config(cfg)
        .and_then(|()| ir.validate_channels(cfg, spec.channel.max_channels))
        .map_err(ExecError::InvalidConfig)?;
    let num_kernels = ir.nodes.len();
    let num_edges = ir.edges.len();

    // Channel buffers are sized to the tile (Section 3.3); capacity is
    // also kept large enough for the biggest single batch to avoid
    // artificial deadlock, and floored at 64 packets.
    let mut channels = Vec::with_capacity(num_edges);
    let mut capacities = Vec::with_capacity(num_edges);
    let mut queues: Vec<DataQ> = Vec::with_capacity(num_edges);
    for edge in &ir.edges {
        let tile_packets = edge_buffer_bytes(cfg.tile_bytes).div_ceil(cfg.packet_bytes as u64);
        let batch_packets = packets_for(SCAN_BATCH_ROWS, edge.row_bytes, cfg.packet_bytes);
        let cap_per_port = tile_packets
            .div_ceil(cfg.n_channels as u64)
            .max(2 * batch_packets)
            .clamp(64, 1 << 24) as u32;
        channels.push(ctx.sim.create_channel_with_capacity(
            cfg.n_channels,
            cfg.packet_bytes,
            cap_per_port,
        ));
        capacities.push(cfg.n_channels as u64 * cap_per_port as u64);
        queues.push(Rc::new(RefCell::new(VecDeque::new())));
    }

    let t = ctx.db.table(&stage.driver);
    let layout = ctx.layout(&stage.driver);
    // The IR's eager/lazy leaf split, bound to this context's simulated
    // column addresses: (slot, column index, base, width).
    let bind =
        |c: &crate::segment::LeafColumn| (c.slot, c.col, layout.scan(c.col, 0..1).addr, c.width);
    let cols: Vec<(Slot, usize, u64, u64)> = ir.eager.iter().map(bind).collect();
    let lazy_cols: Vec<(Slot, usize, u64, u64)> = ir.lazy.iter().map(bind).collect();
    // The shard of the driving relation this launch scans; tiles are cut
    // within the shard so the tile knob keeps its meaning per launch.
    let rows = rows.unwrap_or(0..t.rows());
    debug_assert!(rows.end <= t.rows(), "shard range exceeds table");
    let base = rows.start;
    let tiling = Tiling::by_bytes(rows.len(), ir.row_bytes, cfg.tile_bytes);

    let mut kernels = Vec::with_capacity(num_kernels);
    kernels.push(
        KernelDesc::new(
            ir.nodes[0].name.clone(),
            ir.nodes[0].resources,
            cfg.wg_counts[0],
            Box::new(LeafSource {
                db: ctx.db.clone(),
                table: stage.driver.clone(),
                cols,
                lazy_cols,
                num_slots: stage.num_slots(),
                rowid_slot: stage.num_slots(),
                steps: ir.nodes[0]
                    .ops
                    .iter()
                    .map(|&i| ExecStep::from_op(&stage.ops[i], hts))
                    .collect(),
                ship: ir.edges[0].ship.clone(),
                base,
                tiling,
                tile_idx: 0,
                cursor: 0,
                out: channels[0],
                out_q: queues[0].clone(),
                out_row_bytes: ir.edges[0].row_bytes,
                packet_bytes: cfg.packet_bytes,
                wavefront: wavefront as u64,
            }),
        )
        .writes_channel(channels[0])
        .in_segment(segment),
    );

    for g in 1..num_edges {
        let node = &ir.nodes[g];
        let gated_here = matches!(&gate, Some((gk, _)) if *gk == g);
        let this_gate = if gated_here {
            gate.take().map(|(_, g)| g)
        } else {
            None
        };
        let pub_in = this_gate.as_ref().map(|g| g.pub_in);
        let mut kd = KernelDesc::new(
            node.name.clone(),
            node.resources,
            cfg.wg_counts[g],
            Box::new(ProbeSource {
                steps: node
                    .ops
                    .iter()
                    .map(|&i| ExecStep::from_op(&stage.ops[i], hts))
                    .collect(),
                ship: ir.edges[g].ship.clone(),
                input: channels[g - 1],
                in_q: queues[g - 1].clone(),
                out: channels[g],
                out_q: queues[g].clone(),
                out_fit_rows: (capacities[g] * cfg.packet_bytes as u64
                    / ir.edges[g].row_bytes.max(1)) as usize,
                out_row_bytes: ir.edges[g].row_bytes,
                packet_bytes: cfg.packet_bytes,
                wavefront: wavefront as u64,
                unit_rows_cap,
                gate: this_gate,
            }),
        )
        .reads_channel(channels[g - 1])
        .writes_channel(channels[g])
        .in_segment(segment);
        if let Some(ch) = pub_in {
            kd = kd.reads_channel(ch);
        }
        kernels.push(kd);
    }
    debug_assert!(gate.is_none(), "gated kernel index not found in stage");

    let last = num_edges - 1;
    let term = ir.nodes.last().expect("terminal node");
    let publish_out = publish.as_ref().map(|p| p.out);
    let term_source: Box<dyn gpl_sim::WorkSource> = match (&stage.terminal, publish) {
        (Terminal::HashBuild { key, payloads, .. }, Some(p)) => Box::new(BuildPublishSource {
            table: build.expect("build target").clone(),
            key: *key,
            payloads: payloads.clone(),
            input: channels[last],
            in_q: queues[last].clone(),
            per_row_compute: term.per_row_compute,
            per_row_mem: term.per_row_mem,
            wavefront: wavefront as u64,
            slices: p.slices,
            staged: Vec::new(),
            stage_base: p.stage_base,
            entry_bytes: SimHashTable::entry_bytes_for(payloads.len()),
            parts: None,
            next_slice: 0,
            installed: 0,
            out: p.out,
            out_q: p.out_q,
        }),
        (_, Some(_)) => unreachable!("publishing requires a hash-build terminal"),
        (terminal, None) => Box::new(TermSource {
            exec: TermExec::new(terminal, build, agg),
            input: channels[last],
            in_q: queues[last].clone(),
            per_row_compute: term.per_row_compute,
            per_row_mem: term.per_row_mem,
            wavefront: wavefront as u64,
            unit_rows_cap,
        }),
    };
    let mut kd = KernelDesc::new(
        term.name.clone(),
        term.resources,
        cfg.wg_counts[num_kernels - 1],
        term_source,
    )
    .reads_channel(channels[last])
    .in_segment(segment);
    if let Some(ch) = publish_out {
        kd = kd.writes_channel(ch);
    }
    kernels.push(kd);

    Ok(kernels)
}

/// Run one stage as a GPL pipeline over the rows `rows` of its driving
/// relation (a shard, a checkpoint slice, or all of it), launching the
/// kernels and channels its lowered [`SegmentIr`] describes (`ir` must
/// be the lowering of `stage` at this context's wavefront). The leaf
/// tiles within `rows`; everything downstream is range-agnostic. The
/// channel pipeline is the only execution path whose kernels can block
/// on each other, so it is the only one that can deadlock — hence the
/// `Result`; KBE and replay kernels never return `Work::Wait` and stay
/// infallible.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_stage_range(
    ctx: &mut ExecContext,
    ir: &SegmentIr,
    stage: &Stage,
    hts: &[Option<Rc<RefCell<SimHashTable>>>],
    build: Option<&Rc<RefCell<SimHashTable>>>,
    agg: Option<&Rc<RefCell<GroupStore>>>,
    cfg: &StageConfig,
    rows: std::ops::Range<usize>,
) -> Result<LaunchProfile, ExecError> {
    let kernels = stage_kernels(
        ctx,
        ir,
        stage,
        hts,
        build,
        agg,
        cfg,
        0,
        usize::MAX,
        Some(rows),
        None,
        None,
    )?;
    ctx.run_kernels(kernels)
}

/// Run an eligible build→probe stage pair as ONE fused launch
/// (cross-segment pipelining): the build stage's kernels carry segment
/// tag 0 and its terminal publishes the shared hash table slice by
/// slice; the probe stage's kernels carry tag 1, with the paired probe
/// kernel gated on published slices. Row results are bit-identical to
/// running the stages sequentially — terminals are order-insensitive,
/// so gating-induced reordering cannot change them — while the probe
/// leaf's scan and the early slices' probes overlap the build tail.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_overlapped_pair(
    ctx: &mut ExecContext,
    edge: &InterSegmentEdge,
    ir_b: &SegmentIr,
    stage_b: &Stage,
    cfg_b: &StageConfig,
    ir_p: &SegmentIr,
    stage_p: &Stage,
    cfg_p: &StageConfig,
    hts: &[Option<Rc<RefCell<SimHashTable>>>],
    shared: &Rc<RefCell<SimHashTable>>,
    probe_build: Option<&Rc<RefCell<SimHashTable>>>,
    agg: Option<&Rc<RefCell<GroupStore>>>,
) -> Result<LaunchProfile, ExecError> {
    let slices = edge.slices.max(1);
    // The publication channel: one port, one packet per slice record.
    let pub_ch = ctx
        .sim
        .create_channel_with_capacity(1, cfg_b.packet_bytes, slices.max(64));
    let pub_q: DataQ = Rc::new(RefCell::new(VecDeque::new()));
    // Staging scratch for the publish-side terminal, bounded by the
    // driver's row count (every scanned row might reach the build).
    let Terminal::HashBuild { payloads, .. } = &stage_b.terminal else {
        unreachable!("pair build stage must end in a hash build");
    };
    let entry_bytes = SimHashTable::entry_bytes_for(payloads.len());
    let bound = ctx.db.table(&stage_b.driver).rows() as u64;
    let region = ctx.sim.mem.alloc(
        (bound * entry_bytes).max(8),
        RegionClass::Scratch,
        format!("{}::stage-slices", ir_b.stage),
    );
    let stage_base = ctx.sim.mem.base(region);

    // The fused launch allocates residency (Eq. 2) across BOTH segments
    // once, so every work-group slot the build side claims is a slot the
    // probe side keeps losing even after the build drains. The build is
    // the minority partner — it overlaps the probe's leaf rather than
    // racing it — so cap its wg counts at one work-group per CU and let
    // the probe segment keep its near-solo residency share.
    let mut cfg_b_fused = cfg_b.clone();
    for wg in &mut cfg_b_fused.wg_counts {
        *wg = (*wg).min(ctx.sim.spec().num_cus);
    }
    let mut kernels = stage_kernels(
        ctx,
        ir_b,
        stage_b,
        hts,
        Some(shared),
        None,
        &cfg_b_fused,
        0,
        FUSED_UNIT_ROWS,
        None,
        Some(PublishSide {
            slices,
            out: pub_ch,
            out_q: pub_q.clone(),
            stage_base,
        }),
        None,
    )?;

    // The probe side resolves the pair's table to the shared (still
    // installing) instance.
    let mut hts_p: Vec<Option<Rc<RefCell<SimHashTable>>>> = hts.to_vec();
    hts_p[edge.ht] = Some(shared.clone());
    let gk = ir_p
        .nodes
        .iter()
        .position(|n| n.ops.first() == Some(&edge.probe_op))
        .expect("paired probe starts a kernel");
    let key = match &stage_p.ops[edge.probe_op] {
        PipeOp::Probe { key, .. } => *key,
        _ => unreachable!("paired op is a probe"),
    };
    let gate = Gate {
        table: shared.clone(),
        key,
        slices,
        published: 0,
        pub_in: pub_ch,
        pub_q,
        pending: (0..slices).map(|_| VecDeque::new()).collect(),
    };
    kernels.extend(stage_kernels(
        ctx,
        ir_p,
        stage_p,
        &hts_p,
        probe_build,
        agg,
        cfg_p,
        1,
        FUSED_UNIT_ROWS,
        None,
        None,
        Some((gk, gate)),
    )?);
    ctx.run_kernels(kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecContext, StageConfig};
    use crate::plan::{listing1_plan, q14_plan};
    use gpl_sim::{amd_a10, Simulator};
    use gpl_storage::days;
    use gpl_tpch::{Q14Params, TpchDb};

    fn ctx() -> ExecContext {
        ExecContext::new(amd_a10(), TpchDb::at_scale(0.002))
    }

    fn cfg(stage: &Stage) -> StageConfig {
        StageConfig::default_for(&amd_a10(), stage)
    }

    fn ir_for(ctx: &ExecContext, stage: &Stage) -> SegmentIr {
        SegmentIr::lower(
            stage,
            ctx.db.table(&stage.driver),
            ctx.sim.spec().wavefront_size,
        )
    }

    /// The whole driving relation as one range.
    fn run_stage(
        ctx: &mut ExecContext,
        ir: &SegmentIr,
        stage: &Stage,
        hts: &[Option<Rc<RefCell<SimHashTable>>>],
        build: Option<&Rc<RefCell<SimHashTable>>>,
        agg: Option<&Rc<RefCell<GroupStore>>>,
        cfg: &StageConfig,
    ) -> Result<LaunchProfile, ExecError> {
        let rows = ctx.db.table(&stage.driver).rows();
        run_stage_range(ctx, ir, stage, hts, build, agg, cfg, 0..rows)
    }

    #[test]
    fn chunk_wider_than_the_downstream_capacity_is_split() {
        // 1000 rows in 500 input packets; downstream rows are 64 bytes
        // and the output channel holds 128 16-byte packets in total, so
        // at most 128 * 16 / 64 = 32 rows can ever be admitted at once.
        let mut wide = Chunk::new(3);
        wide.fill(0, (0..1000).collect());
        wide.fill(2, (0..1000).map(|v| v * 7).collect());
        let sum = transit_stamp(&wide);
        let mut q = VecDeque::from([(wide.clone(), 500, sum)]);
        let ch = Simulator::new(amd_a10()).create_channel(1, 16);
        split_front_to_fit(&mut q, ch, 32);
        assert_eq!(q.len(), 2);
        let (head, head_packets, head_sum) = &q[0];
        let (tail, tail_packets, tail_sum) = &q[1];
        assert_eq!((head.rows, tail.rows), (32, 968));
        assert!(packets_for(head.rows, 64, 16) <= 128, "the prefix fits");
        assert_eq!((*head_packets, *tail_packets), (16, 484));
        assert_eq!(*head_sum, transit_stamp(head));
        assert_eq!(*tail_sum, transit_stamp(tail));
        assert_eq!(concat(vec![head.clone(), tail.clone()]), wide);
        assert!(!head.filled[1] && !tail.filled[1]);
        // The remainder splits again when it reaches the front; a chunk
        // that fits, or holds a single packet, is left alone.
        q.pop_front();
        split_front_to_fit(&mut q, ch, 32);
        assert_eq!(
            (q[0].0.rows, q[0].1, q[1].0.rows, q[1].1),
            (32, 16, 936, 468)
        );
        let before = q.clone();
        split_front_to_fit(&mut q, ch, 32);
        assert_eq!(q, before);
        let mut one = VecDeque::from([(wide.clone(), 1, sum)]);
        split_front_to_fit(&mut one, ch, 32);
        assert_eq!(one.len(), 1);
        // The split keeps a packet on each side even when the row share
        // rounds to none.
        let mut two = VecDeque::from([(wide, 2, sum)]);
        split_front_to_fit(&mut two, ch, 32);
        assert_eq!((two[0].1, two[1].1), (1, 1));
    }

    #[test]
    fn listing1_pipeline_matches_reference_and_figure7() {
        let mut ctx = ctx();
        let cutoff = days("1998-11-01");
        let plan = listing1_plan(cutoff);
        let stage = &plan.stages[0];
        // Figure 7c: the whole selection + projection fuses into one map
        // kernel feeding k_reduce* — exactly two concurrent kernels.
        assert_eq!(stage.gpl_kernel_names().len(), 2);
        let agg = Rc::new(RefCell::new(GroupStore::new(
            &mut ctx.sim.mem,
            4,
            0,
            1,
            "t",
        )));
        let ir = ir_for(&ctx, stage);
        let p = run_stage(&mut ctx, &ir, stage, &[], None, Some(&agg), &cfg(stage)).unwrap();
        let got = Rc::try_unwrap(agg).unwrap().into_inner().into_rows();
        let want = gpl_tpch::reference::listing1(&ctx.db, cutoff);
        assert_eq!(got, want.rows);
        assert_eq!(p.kernels.len(), 2);
        assert!(p.total_dc_cycles() > 0, "channels must be exercised");
    }

    #[test]
    fn q14_pipeline_matches_reference() {
        let mut ctx = ctx();
        let params = Q14Params::default();
        let plan = q14_plan(&ctx.db, params);
        let ht = Rc::new(RefCell::new(SimHashTable::new(
            &mut ctx.sim.mem,
            ctx.db.part.rows(),
            1,
            "part",
        )));
        let s0 = &plan.stages[0];
        let ir0 = ir_for(&ctx, s0);
        run_stage(&mut ctx, &ir0, s0, &[], Some(&ht), None, &cfg(s0)).unwrap();
        assert_eq!(ht.borrow().len(), ctx.db.part.rows());

        let hts = vec![Some(ht)];
        let agg = Rc::new(RefCell::new(GroupStore::new(
            &mut ctx.sim.mem,
            4,
            0,
            2,
            "t",
        )));
        let s1 = &plan.stages[1];
        // Q14's probe pipeline: leaf map, probe(+fused maps), reduce.
        assert_eq!(s1.gpl_kernel_names().len(), 3);
        let ir1 = ir_for(&ctx, s1);
        run_stage(&mut ctx, &ir1, s1, &hts, None, Some(&agg), &cfg(s1)).unwrap();
        let got = Rc::try_unwrap(agg).unwrap().into_inner().into_rows();
        let want = gpl_tpch::reference::q14(&ctx.db, params);
        assert_eq!(got, want.rows);
    }

    #[test]
    fn q14_overlapped_pair_matches_reference_for_every_k() {
        let params = Q14Params::default();
        for k in [1u32, 2, 4, 8] {
            let mut ctx = ctx();
            let plan = q14_plan(&ctx.db, params);
            let pairs = crate::segment::overlap_pairs(&plan.stages);
            assert_eq!(pairs.len(), 1, "q14 has exactly one eligible pair");
            let table_bytes = ctx.db.part.rows() as u64 * 16;
            let edge = pairs[0].clone().with_slices(k, table_bytes);
            let ht = Rc::new(RefCell::new(SimHashTable::new(
                &mut ctx.sim.mem,
                ctx.db.part.rows(),
                1,
                "part",
            )));
            let agg = Rc::new(RefCell::new(GroupStore::new(
                &mut ctx.sim.mem,
                4,
                0,
                2,
                "t",
            )));
            let (s0, s1) = (&plan.stages[0], &plan.stages[1]);
            let (ir0, ir1) = (ir_for(&ctx, s0), ir_for(&ctx, s1));
            let hts: Vec<Option<Rc<RefCell<SimHashTable>>>> = vec![None];
            let p = run_overlapped_pair(
                &mut ctx,
                &edge,
                &ir0,
                s0,
                &cfg(s0),
                &ir1,
                s1,
                &cfg(s1),
                &hts,
                &ht,
                None,
                Some(&agg),
            )
            .unwrap();
            assert_eq!(ht.borrow().len(), ctx.db.part.rows());
            let got = Rc::try_unwrap(agg).unwrap().into_inner().into_rows();
            let want = gpl_tpch::reference::q14(&ctx.db, params);
            assert_eq!(got, want.rows, "fused K={k} must match the reference");
            // Both segments ran inside the one launch and their kernel
            // activity genuinely interleaved.
            assert!(p.segment_window(0).is_some());
            assert!(p.segment_window(1).is_some());
            assert!(
                p.overlap_cycles(0, 1) > 0,
                "K={k}: probe segment must start before the build segment ends"
            );
        }
    }

    #[test]
    fn gpl_materializes_less_than_kbe() {
        let cutoff = days("1998-11-01");
        let plan = listing1_plan(cutoff);
        let stage = &plan.stages[0];

        let mut c1 = ctx();
        let agg1 = Rc::new(RefCell::new(GroupStore::new(&mut c1.sim.mem, 4, 0, 1, "t")));
        let rows = c1.db.lineitem.rows();
        let kbe_ir = ir_for(&c1, stage);
        let kbe_prof = crate::kbe::run_stage_range(
            &mut c1,
            &kbe_ir,
            stage,
            &[],
            None,
            Some(&agg1),
            0..rows,
            crate::kbe::Selection::Compact,
        );

        let mut c2 = ctx();
        let agg2 = Rc::new(RefCell::new(GroupStore::new(&mut c2.sim.mem, 4, 0, 1, "t")));
        let ir = ir_for(&c2, stage);
        let gpl_prof = run_stage(&mut c2, &ir, stage, &[], None, Some(&agg2), &cfg(stage)).unwrap();

        assert!(
            gpl_prof.intermediate_footprint() < kbe_prof.intermediate_footprint() / 4,
            "GPL {} vs KBE {} materialized intermediate footprint",
            gpl_prof.intermediate_footprint(),
            kbe_prof.intermediate_footprint()
        );
    }

    #[test]
    fn chunk_checksum_detects_any_mutation() {
        let mut c = Chunk::new(3);
        c.fill(0, vec![1, 2, 3]);
        c.fill(2, vec![-7, 0, 9]);
        let sum = chunk_checksum(&c);
        assert_eq!(sum, chunk_checksum(&c.clone()), "pure over clones");

        let mut flipped = c.clone();
        flipped.cols[2][1] = 1;
        assert_ne!(sum, chunk_checksum(&flipped), "value flip detected");

        let mut truncated = c.clone();
        truncated.cols[0].pop();
        truncated.cols[2].pop();
        truncated.rows = 2;
        assert_ne!(sum, chunk_checksum(&truncated), "row drop detected");

        // Unfilled slots are dead state and must not affect the sum.
        let mut junk = c.clone();
        junk.cols[1] = vec![99];
        assert_eq!(sum, chunk_checksum(&junk));
    }

    #[test]
    fn fusion_groups_probe_boundaries() {
        let db = TpchDb::at_scale(0.002);
        let plan = crate::plan::q8_plan(&db);
        let probe_stage = plan.stages.last().unwrap();
        let groups = probe_stage.gpl_fusion();
        // Q8 probe pipeline: the leaf fuses the first probe (no leading
        // selection), then 3 more probes, with the computes fused into
        // the last one.
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0].len(), 1, "leaf absorbs the steel semi-probe");
        assert_eq!(groups[3].len(), 4, "last probe absorbs 3 computes");
        assert_eq!(probe_stage.gpl_kernel_names().len(), 5);
    }
}
