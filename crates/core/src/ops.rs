//! Shared operator primitives: functional chunk transforms plus the cost
//! estimates both executors report to the simulator.
//!
//! A [`Chunk`] is the columnar row context flowing through a pipeline —
//! a leaf scan batch in GPL, a host block of the range in KBE. Transforms
//! are pure Rust (results are exact); hash-table traffic is reported to
//! the [`BucketSink`] each caller passes down.

use crate::expr::{AtomPred, CmpOp, Expr, Pred, Slot};
use crate::ht::{BucketSink, GroupStore, SimHashTable};
use crate::plan::{Agg, PipeOp, Stage, Terminal};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// A batch of rows in slot-columnar form.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    pub cols: Vec<Vec<i64>>,
    pub filled: Vec<bool>,
    pub rows: usize,
}

impl Chunk {
    pub fn new(num_slots: usize) -> Self {
        Chunk {
            cols: vec![Vec::new(); num_slots],
            filled: vec![false; num_slots],
            rows: 0,
        }
    }

    /// Fill slot `s` with values (must match current row count unless the
    /// chunk is still empty).
    pub fn fill(&mut self, s: Slot, vals: Vec<i64>) {
        if self.filled.iter().any(|&f| f) {
            assert_eq!(vals.len(), self.rows, "slot {s} length mismatch");
        } else {
            self.rows = vals.len();
        }
        self.cols[s] = vals;
        self.filled[s] = true;
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Bytes per row if `live` slots travel in a channel packet stream.
    pub fn row_bytes(live: &[Slot]) -> u64 {
        (live.len() as u64) * 8
    }
}

/// A filter predicate prepared once for many chunks. Conjunctions of
/// slot-vs-constant atoms (the common shape) are flattened here, so
/// [`Pred::as_atoms`] — which clones every `InList` vector — runs once
/// per kernel instead of once per chunk; everything else keeps the tree
/// for the per-row interpreter. Same rows kept either way:
/// `Pred::as_atoms` only flattens pure short-circuit ANDs.
pub enum Filter {
    Atoms(Vec<AtomPred>),
    Tree(Pred),
}

impl Filter {
    pub fn new(pred: &Pred) -> Self {
        match pred.as_atoms() {
            Some(atoms) => Filter::Atoms(atoms),
            None => Filter::Tree(pred.clone()),
        }
    }

    /// Retain the rows of `c` that satisfy the predicate, across all
    /// filled slots, in their order.
    pub fn apply(&self, c: &Chunk) -> Chunk {
        let keep: Vec<usize> = match self {
            Filter::Atoms(atoms) => {
                // One sweep per atom, each narrowing the surviving index
                // list, with the comparison chosen outside the loop.
                let mut keep = None;
                for a in atoms {
                    let col = &c.cols[a.slot()][..c.rows];
                    match a {
                        AtomPred::Cmp(op, _, k) => {
                            let k = *k;
                            match op {
                                CmpOp::Lt => narrow(&mut keep, col, |v| v < k),
                                CmpOp::Le => narrow(&mut keep, col, |v| v <= k),
                                CmpOp::Gt => narrow(&mut keep, col, |v| v > k),
                                CmpOp::Ge => narrow(&mut keep, col, |v| v >= k),
                                CmpOp::Eq => narrow(&mut keep, col, |v| v == k),
                                CmpOp::Ne => narrow(&mut keep, col, |v| v != k),
                            }
                        }
                        AtomPred::InList(_, list) => narrow(&mut keep, col, |v| list.contains(&v)),
                    }
                }
                keep.unwrap_or_else(|| (0..c.rows).collect())
            }
            Filter::Tree(pred) => (0..c.rows).filter(|&r| pred.eval(&c.cols, r)).collect(),
        };
        select_rows(c, &keep)
    }
}

/// One filter sweep: narrow `keep` to the rows whose value in `col`
/// passes `test` — every row of `col` when no sweep has run yet.
/// Branch-free: each candidate is stored and the length advances by the
/// test's outcome, so a selectivity near one half costs no mispredicts.
#[inline]
fn narrow(keep: &mut Option<Vec<usize>>, col: &[i64], test: impl Fn(i64) -> bool) {
    match keep {
        None => {
            // Block by block through a stack buffer, so the list grows
            // with the survivors, not with the column.
            let mut all = Vec::new();
            let mut buf = [0usize; 1024];
            for (b, block) in col.chunks(buf.len()).enumerate() {
                let mut n = 0;
                for (i, &v) in block.iter().enumerate() {
                    buf[n] = b * buf.len() + i;
                    n += test(v) as usize;
                }
                all.extend_from_slice(&buf[..n]);
            }
            *keep = Some(all);
        }
        Some(rows) => {
            let mut n = 0;
            for i in 0..rows.len() {
                let r = rows[i];
                rows[n] = r;
                n += test(col[r]) as usize;
            }
            rows.truncate(n);
        }
    }
}

/// Filter: retain rows satisfying `pred` across all filled slots.
pub fn apply_filter(c: &Chunk, pred: &Pred) -> Chunk {
    Filter::new(pred).apply(c)
}

/// Slot-wise row selection: gather `idx` from every filled slot.
pub fn select_rows(c: &Chunk, idx: &[usize]) -> Chunk {
    let mut out = Chunk::new(c.cols.len());
    out.rows = idx.len();
    for s in 0..c.cols.len() {
        if c.filled[s] {
            out.cols[s] = idx.iter().map(|&r| c.cols[s][r]).collect();
            out.filled[s] = true;
        }
    }
    out
}

/// Probe: keep matching rows, appending payload slots. Reports one bucket
/// access per input row into `acc`.
pub fn apply_probe(
    c: &Chunk,
    ht: &SimHashTable,
    key: Slot,
    payloads: &[Slot],
    acc: &mut impl BucketSink,
) -> Chunk {
    let mut keep: Vec<usize> = Vec::new();
    let mut pay: Vec<Vec<i64>> = vec![Vec::new(); payloads.len()];
    // One bucket operation lands in `acc` per input row.
    acc.reserve(c.rows);
    for r in 0..c.rows {
        if let Some(p) = ht.probe(c.cols[key][r], acc) {
            keep.push(r);
            for (i, v) in p.iter().enumerate() {
                pay[i].push(*v);
            }
        }
    }
    let mut out = select_rows(c, &keep);
    for (i, &s) in payloads.iter().enumerate() {
        out.cols[s] = std::mem::take(&mut pay[i]);
        out.filled[s] = true;
    }
    out
}

/// Compute: evaluate `expr` into slot `out` (in place).
pub fn apply_compute(c: &mut Chunk, expr: &Expr, out: Slot) {
    let vals = expr.eval_vec(&c.cols, c.rows);
    c.fill(out, vals);
}

/// A pipeline op bound to the tables it probes, prepared once and then
/// applied chunk by chunk — by GPL's kernels and KBE's host blocks alike.
pub(crate) enum OpExec {
    Filter(Filter),
    Probe {
        table: Rc<RefCell<SimHashTable>>,
        key: Slot,
        payloads: Vec<Slot>,
    },
    Compute {
        expr: Expr,
        out: Slot,
    },
}

impl OpExec {
    pub(crate) fn new(op: &PipeOp, hts: &[Option<Rc<RefCell<SimHashTable>>>]) -> Self {
        match op {
            PipeOp::Filter(p) => OpExec::Filter(Filter::new(p)),
            PipeOp::Probe { ht, key, payloads } => OpExec::Probe {
                table: hts[*ht].as_ref().expect("probed table built").clone(),
                key: *key,
                payloads: payloads.clone(),
            },
            PipeOp::Compute { expr, out } => OpExec::Compute {
                expr: expr.clone(),
                out: *out,
            },
        }
    }

    /// The rows of `chunk` that survive the op, in order; a probe reports
    /// one bucket access per input row into `acc`.
    pub(crate) fn apply(&self, mut chunk: Chunk, acc: &mut impl BucketSink) -> Chunk {
        match self {
            OpExec::Filter(f) => f.apply(&chunk),
            OpExec::Probe {
                table,
                key,
                payloads,
            } => apply_probe(&chunk, &table.borrow(), *key, payloads, acc),
            OpExec::Compute { expr, out } => {
                apply_compute(&mut chunk, expr, *out);
                chunk
            }
        }
    }
}

/// A blocking terminal bound to the output it fills: the one fold both
/// executors run over every chunk that reaches it.
pub(crate) enum TermExec {
    Build {
        table: Rc<RefCell<SimHashTable>>,
        key: Slot,
        payloads: Vec<Slot>,
    },
    Aggregate {
        store: Rc<RefCell<GroupStore>>,
        groups: Vec<Slot>,
        aggs: Vec<Agg>,
    },
}

impl TermExec {
    pub(crate) fn new(
        terminal: &Terminal,
        build: Option<&Rc<RefCell<SimHashTable>>>,
        agg: Option<&Rc<RefCell<GroupStore>>>,
    ) -> Self {
        match terminal {
            Terminal::HashBuild { key, payloads, .. } => TermExec::Build {
                table: build
                    .expect("hash-build stage needs a target table")
                    .clone(),
                key: *key,
                payloads: payloads.clone(),
            },
            Terminal::Aggregate { groups, aggs } => TermExec::Aggregate {
                store: agg.expect("aggregate stage needs a store").clone(),
                groups: groups.clone(),
                aggs: aggs.clone(),
            },
        }
    }

    /// Fold the rows of `c` into the output in row order, reporting each
    /// row's table traffic into `acc`: one bucket write per build row, a
    /// read and a write per aggregated row.
    pub(crate) fn fold(&self, c: &Chunk, acc: &mut impl BucketSink) {
        // Every row is one table operation.
        acc.reserve(c.rows);
        match self {
            TermExec::Build {
                table,
                key,
                payloads,
            } => {
                let mut t = table.borrow_mut();
                // One payload buffer for the whole chunk, overwritten in
                // place per row (no per-row `extend` call); `insert`
                // copies out of it.
                let mut pay = vec![0i64; payloads.len()];
                for r in 0..c.rows {
                    for (v, &p) in pay.iter_mut().zip(payloads) {
                        *v = c.cols[p][r];
                    }
                    t.insert(c.cols[*key][r], &pay, acc);
                }
            }
            TermExec::Aggregate {
                store,
                groups,
                aggs,
            } => {
                let mut s = store.borrow_mut();
                // Agg inputs evaluated column-at-a-time once per chunk;
                // the row loop only gathers group keys and folds.
                let vals: Vec<Vec<i64>> = aggs
                    .iter()
                    .map(|a| a.expr.eval_vec(&c.cols, c.rows))
                    .collect();
                let mut keys = vec![0i64; groups.len()];
                let mut values = vec![0i64; aggs.len()];
                for r in 0..c.rows {
                    for (k, &g) in keys.iter_mut().zip(groups) {
                        *k = c.cols[g][r];
                    }
                    for (slot, v) in values.iter_mut().zip(&vals) {
                        *slot = v[r];
                    }
                    s.update(&keys, &values, acc);
                }
            }
        }
    }
}

/// ISA expansion factor: every logical expression node costs several
/// machine instructions on a GPU (address arithmetic, predication, lane
/// masking). Applied uniformly to all engines.
pub const INST_EXPANSION: u64 = 3;

/// Per-row `(compute, memory)` instructions of loading one leaf column:
/// what the GPL leaf charges per streamed row and per gathered survivor,
/// and what the cost model prices.
pub const COLUMN_LOAD_INSTS: (u64, u64) = (2 * INST_EXPANSION, 1);

/// Per-row compute-instruction estimate of a pipeline op (program-analysis
/// input `c_inst`).
pub fn op_compute_insts(op: &PipeOp) -> u64 {
    INST_EXPANSION
        * match op {
            PipeOp::Filter(p) => p.insts() + 1,
            // Hash + bucket fetch + compare + payload moves.
            PipeOp::Probe { payloads, .. } => 10 + payloads.len() as u64,
            PipeOp::Compute { expr, .. } => expr.insts() + 1,
        }
}

/// Per-row memory-instruction estimate of a pipeline op (`m_inst`).
pub fn op_mem_insts(op: &PipeOp) -> u64 {
    match op {
        PipeOp::Filter(_) | PipeOp::Compute { .. } => 0,
        PipeOp::Probe { payloads, .. } => 1 + payloads.len() as u64,
    }
}

/// Per-row estimates for a terminal.
pub fn terminal_compute_insts(t: &Terminal) -> u64 {
    INST_EXPANSION
        * match t {
            Terminal::HashBuild { payloads, .. } => 10 + payloads.len() as u64,
            Terminal::Aggregate { groups, aggs } => {
                6 + 2 * groups.len() as u64 + aggs.iter().map(|a| a.expr.insts()).sum::<u64>()
            }
        }
}

pub fn terminal_mem_insts(t: &Terminal) -> u64 {
    match t {
        Terminal::HashBuild { payloads, .. } => 1 + payloads.len() as u64,
        Terminal::Aggregate { groups, aggs } => (groups.len() + aggs.len()) as u64 + 1,
    }
}

/// Live slots *entering* each kernel of the stage's GPL pipeline:
/// element `0` is what the scan kernel must emit (live into `ops[0]`),
/// element `i` what flows into `ops[i]`, and the final element what the
/// terminal consumes. Channel packet math uses these widths.
pub fn live_slots(stage: &Stage) -> Vec<Vec<Slot>> {
    let n = stage.ops.len();
    let mut live_after: Vec<BTreeSet<Slot>> = vec![BTreeSet::new(); n + 1];
    // Live into the terminal.
    let mut t = Vec::new();
    match &stage.terminal {
        Terminal::HashBuild { key, payloads, .. } => {
            t.push(*key);
            t.extend(payloads);
        }
        Terminal::Aggregate { groups, aggs } => {
            t.extend(groups);
            for a in aggs {
                a.expr.slots(&mut t);
            }
        }
    }
    live_after[n] = t.into_iter().collect();
    // Walk backwards: live into op i = (live out of op i minus what it
    // defines) plus what it reads.
    for i in (0..n).rev() {
        let mut set = live_after[i + 1].clone();
        let mut reads = Vec::new();
        match &stage.ops[i] {
            PipeOp::Filter(p) => p.slots(&mut reads),
            PipeOp::Probe { key, payloads, .. } => {
                for s in payloads {
                    set.remove(s);
                }
                reads.push(*key);
            }
            PipeOp::Compute { expr, out } => {
                set.remove(out);
                expr.slots(&mut reads);
            }
        }
        set.extend(reads);
        live_after[i] = set;
    }
    live_after
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect()
}

/// Sort result rows by the stage's order spec with full tie-break —
/// identical to [`gpl_tpch::QueryOutput::sort_by`], exposed for the sort
/// kernel implementations.
pub fn sort_rows(rows: &mut [Vec<i64>], order: &[(usize, bool)]) {
    rows.sort_by(|a, b| {
        for &(col, desc) in order {
            let c = a[col].cmp(&b[col]);
            if c != std::cmp::Ordering::Equal {
                return if desc { c.reverse() } else { c };
            }
        }
        a.cmp(b)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use gpl_sim::mem::MemoryMap;

    fn chunk3() -> Chunk {
        let mut c = Chunk::new(4);
        c.fill(0, vec![1, 2, 3]);
        c.fill(1, vec![10, 20, 30]);
        c
    }

    #[test]
    fn filter_compacts_filled_slots() {
        let c = chunk3();
        let out = apply_filter(&c, &Pred::cmp(CmpOp::Ge, Expr::slot(0), Expr::lit(2)));
        assert_eq!(out.rows, 2);
        assert_eq!(out.cols[0], vec![2, 3]);
        assert_eq!(out.cols[1], vec![20, 30]);
        assert!(!out.filled[2]);
    }

    #[test]
    fn probe_extends_and_drops() {
        let mut mem = MemoryMap::new();
        let mut ht = SimHashTable::new(&mut mem, 4, 1, "t");
        let mut acc = Vec::new();
        ht.insert(1, &[100], &mut acc);
        ht.insert(3, &[300], &mut acc);
        let c = chunk3();
        acc.clear();
        let out = apply_probe(&c, &ht, 0, &[2], &mut acc);
        assert_eq!(out.rows, 2);
        assert_eq!(out.cols[0], vec![1, 3]);
        assert_eq!(out.cols[1], vec![10, 30]);
        assert_eq!(out.cols[2], vec![100, 300]);
        assert_eq!(acc.len(), 3, "one bucket access per input row");
    }

    #[test]
    fn compute_fills_slot() {
        let mut c = chunk3();
        apply_compute(&mut c, &Expr::slot(0).add(Expr::slot(1)), 2);
        assert_eq!(c.cols[2], vec![11, 22, 33]);
        assert!(c.filled[2]);
    }

    #[test]
    fn liveness_narrows_the_stream() {
        use crate::plan::{Stage, Terminal};
        // Loads 0,1,2; filter on 0; compute 3 = 1+2; aggregate sums 3.
        let st = Stage {
            name: "t".into(),
            driver: "lineitem".into(),
            loads: vec!["a".into(), "b".into(), "c".into()],
            ops: vec![
                PipeOp::Filter(Pred::cmp(CmpOp::Ge, Expr::slot(0), Expr::lit(0))),
                PipeOp::Compute {
                    expr: Expr::slot(1).add(Expr::slot(2)),
                    out: 3,
                },
            ],
            terminal: Terminal::sum_aggregate(vec![], vec![Expr::slot(3)]),
        };
        let live = live_slots(&st);
        assert_eq!(live.len(), 3);
        assert_eq!(live[0], vec![0, 1, 2], "filter needs 0; compute needs 1,2");
        assert_eq!(live[1], vec![1, 2], "slot 0 dead after the filter");
        assert_eq!(live[2], vec![3], "terminal needs only the computed slot");
        assert_eq!(Chunk::row_bytes(&live[2]), 8);
    }

    #[test]
    fn op_costs_are_positive_and_scale() {
        let f = PipeOp::Filter(Pred::True);
        let p = PipeOp::Probe {
            ht: 0,
            key: 0,
            payloads: vec![1, 2],
        };
        assert!(op_compute_insts(&f) >= 1);
        assert_eq!(op_mem_insts(&p), 3);
        assert!(op_compute_insts(&p) > op_compute_insts(&f));
    }

    #[test]
    fn sort_rows_full_tiebreak() {
        let mut rows = vec![vec![1, 5], vec![2, 5], vec![0, 9]];
        sort_rows(&mut rows, &[(1, true)]);
        assert_eq!(rows, vec![vec![0, 9], vec![1, 5], vec![2, 5]]);
    }
}
