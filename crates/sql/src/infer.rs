//! Predicate inference: a rewrite of the parsed [`SelectStmt`] that adds
//! the filters a query implies before the planner sees it, as the paper's
//! plans filter each dimension before its hash build. The output is still
//! a statement, so [`Planner::plan`] and the join-order optimizer are
//! unchanged. Three rules run to a fixpoint, in predicate and FROM order:
//!
//! - **(a) Join-key classes.** Every cross-relation `col = col` puts its
//!   two columns in one class. A single-column constant predicate
//!   (comparison with a literal, `BETWEEN`, `IN`) is copied to every
//!   member of its class with the same type (and, for strings, the same
//!   dictionary). The joins are inner, so every row they keep has equal
//!   members, and the copy holds wherever its source does. A source on
//!   a densely numbered primary key that keeps more of its keys than it
//!   drops is not copied: the copy would cost each referencing relation a
//!   filter pass to drop the few rows the join drops anyway.
//! - **(b) OR factoring.** An `OR` across relations whose every branch
//!   constrains relation R by R-only conjuncts implies the `OR` of those
//!   conjuncts on R alone; when each is one equality on the same column,
//!   that is an `IN`. The original `OR` stays.
//! - **(c) Folding the fixed-size tables** ([`FIXED_SIZE`]). For such a
//!   relation R that is not the driver and is joined on its primary key,
//!   R's own filters are bound and evaluated over its host columns, which
//!   gives the surviving key set K. If R supplies no other column to the
//!   query (select list, group, order, cross predicate), R, its filters
//!   and its join edges go, and each referencing column gets `IN K`: the
//!   join matched each referencing row to at most one R row, and to one
//!   exactly when its key is in K. Otherwise R stays, with `pk IN K`
//!   added unless K is every key, and rule (a) carries it on. A relation
//!   waits for the fixed-size relations its columns reference, so Q8's
//!   region folds into `n1`, and then `n1` into customer.

use crate::ast::*;
use crate::catalog::{key_domain, primary_key, FIXED_SIZE};
use crate::planner::{Planner, Scope};
use crate::token::SqlError;
use gpl_storage::DataType;

/// A resolved column.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Col {
    rel: usize,
    name: String,
}

/// What the rules read off one predicate.
struct Fact {
    /// The relations the predicate reads, ascending, each once.
    rels: Vec<usize>,
    /// The two columns of a cross-relation `col = col`.
    edge: Option<(Col, Col)>,
    /// The column of a single-column constant predicate.
    constant: Option<Col>,
}

/// Rewrite the planner's statement with the filters it implies; a folded
/// relation leaves both its FROM entry and `p.rels`. Resolution errors
/// are the planner's own, raised in the planner's order.
pub(crate) fn infer(p: &mut Planner) -> Result<(), SqlError> {
    let mut settled = vec![false; p.rels.len()];
    loop {
        let facts = facts(p)?;
        let changed = factor_ors(p, &facts)?
            || copy_across_classes(p, &facts)
            || fold_next(p, &facts, &mut settled)?;
        if !changed {
            return Ok(());
        }
    }
}

fn facts(p: &Planner) -> Result<Vec<Fact>, SqlError> {
    let col = |&(rel, name): &(usize, &str)| Col {
        rel,
        name: name.to_string(),
    };
    let mut out = Vec::with_capacity(p.stmt.predicates.len());
    for pred in &p.stmt.predicates {
        let mut cols = Vec::new();
        p.pred_columns(pred, &mut cols)?;
        let mut rels: Vec<usize> = cols.iter().map(|&(r, _)| r).collect();
        rels.sort_unstable();
        rels.dedup();
        let edge = match pred {
            SqlPred::Cmp {
                op: CmpOp::Eq,
                lhs: SqlExpr::Column(_),
                rhs: SqlExpr::Column(_),
            } if rels.len() == 2 => Some((col(&cols[0]), col(&cols[1]))),
            _ => None,
        };
        let constant = constant_column(pred).and_then(|_| cols.first().map(col));
        out.push(Fact {
            rels,
            edge,
            constant,
        });
    }
    Ok(out)
}

/// The column of a single-column constant predicate: `col op literal`
/// (or a number or date on the left), `col BETWEEN lit AND lit`, or
/// `col IN (lit, ...)`.
fn constant_column(pred: &SqlPred) -> Option<&ColumnRef> {
    let lit = |e: &SqlExpr| {
        matches!(
            e,
            SqlExpr::Number(_) | SqlExpr::DateLit(_) | SqlExpr::Str(_)
        )
    };
    match pred {
        SqlPred::Cmp {
            lhs: SqlExpr::Column(c),
            rhs,
            ..
        } if lit(rhs) => Some(c),
        SqlPred::Cmp {
            lhs: SqlExpr::Number(_) | SqlExpr::DateLit(_),
            rhs: SqlExpr::Column(c),
            ..
        } => Some(c),
        SqlPred::Between {
            expr: SqlExpr::Column(c),
            lo,
            hi,
        } if lit(lo) && lit(hi) => Some(c),
        SqlPred::InList {
            expr: SqlExpr::Column(c),
            list,
        } if list.iter().all(lit) => Some(c),
        _ => None,
    }
}

/// A constant predicate with its column replaced by `c`.
fn on_column(pred: &SqlPred, c: &ColumnRef) -> SqlPred {
    let put = |e: &SqlExpr| match e {
        SqlExpr::Column(_) => SqlExpr::Column(c.clone()),
        other => other.clone(),
    };
    match pred {
        SqlPred::Cmp { op, lhs, rhs } => SqlPred::Cmp {
            op: *op,
            lhs: put(lhs),
            rhs: put(rhs),
        },
        SqlPred::Between { expr, lo, hi } => SqlPred::Between {
            expr: put(expr),
            lo: lo.clone(),
            hi: hi.clone(),
        },
        SqlPred::InList { expr, list } => SqlPred::InList {
            expr: put(expr),
            list: list.clone(),
        },
        other => other.clone(),
    }
}

/// `c` qualified by its relation's binding, as the rewrite spells it.
fn column_ref(p: &Planner, c: &Col) -> ColumnRef {
    ColumnRef {
        qualifier: Some(p.rels[c.rel].binding.clone()),
        column: c.name.clone(),
    }
}

/// Whether a constant predicate of `shape` on `c` is already present;
/// `constants` holds each predicate's constant column.
fn holds(p: &Planner, constants: &[Option<Col>], c: &Col, shape: &SqlPred) -> bool {
    let blank = ColumnRef {
        qualifier: None,
        column: String::new(),
    };
    let want = on_column(shape, &blank);
    (p.stmt.predicates.iter().zip(constants))
        .any(|(q, k)| k.as_ref() == Some(c) && on_column(q, &blank) == want)
}

fn constants(facts: &[Fact]) -> Vec<Option<Col>> {
    facts.iter().map(|f| f.constant.clone()).collect()
}

// ---- (a) join-key classes ----------------------------------------------

/// Copy every constant predicate to the other members of its column's
/// class. Returns whether a predicate was added.
fn copy_across_classes(p: &mut Planner, facts: &[Fact]) -> bool {
    let mut classes = Classes::default();
    for (a, b) in facts.iter().filter_map(|f| f.edge.as_ref()) {
        classes.join(a, b);
    }
    let mut constants = constants(facts);
    let mut added = false;
    for i in 0..facts.len() {
        let Some(src) = constants[i].clone() else {
            continue;
        };
        if keeps_most_keys(p, &src, &p.stmt.predicates[i]) {
            continue;
        }
        let Ok(src_ty) = p.catalog.column_type(&p.rels[src.rel].table, &src.name) else {
            continue;
        };
        for m in classes.others(&src) {
            let same_type = p.catalog.column_type(&p.rels[m.rel].table, &m.name).ok()
                == Some(src_ty)
                && (src_ty != DataType::Dict
                    || (p.rels[m.rel].table == p.rels[src.rel].table && m.name == src.name));
            if !same_type || holds(p, &constants, &m, &p.stmt.predicates[i]) {
                continue;
            }
            let copy = on_column(&p.stmt.predicates[i], &column_ref(p, &m));
            p.stmt.predicates.push(copy);
            constants.push(Some(m));
            added = true;
        }
    }
    added
}

/// Whether `pred`, a constant predicate on `src`, is a range on a densely
/// numbered primary key that keeps more keys than it drops, counted over
/// the key's domain at plan time. Q9's `p_partkey < 1000` keeps 999 of
/// the 1000 parts at SF 0.005, and 999 of 2000 at SF 0.01.
fn keeps_most_keys(p: &Planner, src: &Col, pred: &SqlPred) -> bool {
    let rel = &p.rels[src.rel];
    let Some((lo, hi)) = key_domain(&rel.table, rel.rows) else {
        return false;
    };
    if primary_key(&rel.table) != [src.name.as_str()] {
        return false;
    }
    let num = |e: &SqlExpr| match e {
        SqlExpr::Number(t) => t.parse::<i64>().ok(),
        _ => None,
    };
    // The kept keys as an inclusive range; `Ne` keeps all but one.
    let range = |op: CmpOp, v: i64| match op {
        CmpOp::Eq => (v, v),
        CmpOp::Ne => (lo + 1, hi),
        CmpOp::Lt => (lo, v - 1),
        CmpOp::Le => (lo, v),
        CmpOp::Gt => (v + 1, hi),
        CmpOp::Ge => (v, hi),
    };
    let flip = |op: CmpOp| match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        same => same,
    };
    let kept = match pred {
        SqlPred::Cmp {
            op,
            lhs: SqlExpr::Column(_),
            rhs,
        } => num(rhs).map(|v| range(*op, v)),
        SqlPred::Cmp { op, lhs, .. } => num(lhs).map(|v| range(flip(*op), v)),
        SqlPred::Between { lo: a, hi: b, .. } => num(a).zip(num(b)),
        _ => None,
    };
    let Some((from, to)) = kept else {
        return false;
    };
    let kept = (to.min(hi) - from.max(lo) + 1).max(0);
    2 * kept > hi - lo + 1
}

/// Column classes under `col = col`: union-find over the edge columns,
/// kept in order of first appearance, so members list deterministically.
#[derive(Default)]
struct Classes {
    cols: Vec<Col>,
    parent: Vec<usize>,
}

impl Classes {
    fn root(&self, mut i: usize) -> usize {
        while self.parent[i] != i {
            i = self.parent[i];
        }
        i
    }

    fn id(&mut self, c: &Col) -> usize {
        self.cols.iter().position(|x| x == c).unwrap_or_else(|| {
            self.cols.push(c.clone());
            self.parent.push(self.parent.len());
            self.parent.len() - 1
        })
    }

    /// Merge the classes of `a` and `b`; whether they were apart.
    fn join(&mut self, a: &Col, b: &Col) -> bool {
        let (ra, rb) = (self.id(a), self.id(b));
        let (ra, rb) = (self.root(ra), self.root(rb));
        self.parent[ra.max(rb)] = ra.min(rb);
        ra != rb
    }

    /// The other members of `c`'s class.
    fn others(&self, c: &Col) -> Vec<Col> {
        let Some(at) = self.cols.iter().position(|x| x == c) else {
            return Vec::new();
        };
        let root = self.root(at);
        (self.cols.iter().enumerate())
            .filter(|&(j, _)| j != at && self.root(j) == root)
            .map(|(_, m)| m.clone())
            .collect()
    }
}

// ---- (b) OR factoring ----------------------------------------------------

/// The branches of a (nested) `OR`, each as its list of conjuncts.
fn branches(pred: &SqlPred, out: &mut Vec<Vec<SqlPred>>) {
    match pred {
        SqlPred::Or(a, b) => {
            branches(a, out);
            branches(b, out);
        }
        SqlPred::And(v) => out.push(v.clone()),
        other => out.push(vec![other.clone()]),
    }
}

/// Add, for each relation an `OR` across relations constrains in every
/// branch, the `OR` of those constraints. Returns whether a predicate
/// was added.
fn factor_ors(p: &mut Planner, facts: &[Fact]) -> Result<bool, SqlError> {
    let mut new: Vec<SqlPred> = Vec::new();
    for (pred, fact) in p.stmt.predicates.iter().zip(facts) {
        if !matches!(pred, SqlPred::Or(..)) || fact.rels.len() < 2 {
            continue;
        }
        let mut arms = Vec::new();
        branches(pred, &mut arms);
        // The relations each conjunct reads, resolved once.
        let mut arm_rels = Vec::with_capacity(arms.len());
        for arm in &arms {
            let mut per = Vec::with_capacity(arm.len());
            for c in arm {
                let mut cols = Vec::new();
                p.pred_columns(c, &mut cols)?;
                per.push(cols);
            }
            arm_rels.push(per);
        }
        for &r in &fact.rels {
            let only_r =
                |cols: &Vec<(usize, &str)>| !cols.is_empty() && cols.iter().all(|&(x, _)| x == r);
            let picked: Vec<Vec<&SqlPred>> = (arms.iter().zip(&arm_rels))
                .map(|(arm, per)| {
                    arm.iter()
                        .zip(per)
                        .filter(|(_, c)| only_r(c))
                        .map(|(q, _)| q)
                        .collect()
                })
                .collect();
            if picked.iter().any(Vec::is_empty) {
                continue;
            }
            let implied = as_in_list(p, &picked).unwrap_or_else(|| {
                let arm = |v: &Vec<&SqlPred>| match v.as_slice() {
                    [one] => (*one).clone(),
                    many => SqlPred::And(many.iter().map(|&q| q.clone()).collect()),
                };
                (picked[1..].iter()).fold(arm(&picked[0]), |acc, v| {
                    SqlPred::Or(Box::new(acc), Box::new(arm(v)))
                })
            });
            if !p.stmt.predicates.contains(&implied) && !new.contains(&implied) {
                new.push(implied);
            }
        }
    }
    let added = !new.is_empty();
    p.stmt.predicates.extend(new);
    Ok(added)
}

/// `col IN (lits)` when every branch is one `col = literal` on the same
/// column with literals of one kind.
fn as_in_list(p: &Planner, picked: &[Vec<&SqlPred>]) -> Option<SqlPred> {
    let mut col: Option<(usize, &str)> = None;
    let mut list: Vec<SqlExpr> = Vec::new();
    for v in picked {
        let [SqlPred::Cmp {
            op: CmpOp::Eq,
            lhs: SqlExpr::Column(c),
            rhs,
        }] = v.as_slice()
        else {
            return None;
        };
        let here = p.resolve(c).ok()?;
        let kind = std::mem::discriminant(rhs);
        if col.is_some_and(|c| c != here)
            || list.iter().any(|l| std::mem::discriminant(l) != kind)
            || !matches!(
                rhs,
                SqlExpr::Number(_) | SqlExpr::DateLit(_) | SqlExpr::Str(_)
            )
        {
            return None;
        }
        col = Some(here);
        if !list.contains(rhs) {
            list.push(rhs.clone());
        }
    }
    let (rel, name) = col?;
    let expr = SqlExpr::Column(column_ref(
        p,
        &Col {
            rel,
            name: name.to_string(),
        },
    ));
    Some(match <[SqlExpr; 1]>::try_from(list) {
        Ok([one]) => SqlPred::Cmp {
            op: CmpOp::Eq,
            lhs: expr,
            rhs: one,
        },
        Err(list) => SqlPred::InList { expr, list },
    })
}

// ---- (c) folding the fixed-size tables ---------------------------------

/// Settle the next fixed-size relation that is ready: evaluate its
/// filters into a key set, then fold it away or filter its key. Returns
/// whether one was settled.
fn fold_next(p: &mut Planner, facts: &[Fact], settled: &mut Vec<bool>) -> Result<bool, SqlError> {
    let driver = p.driver()?;
    let single_key = |p: &Planner, rel: usize| -> Option<&'static str> {
        let table = p.rels[rel].table.as_str();
        match primary_key(table) {
            [pk] if FIXED_SIZE.contains(&table) => Some(pk),
            _ => None,
        }
    };
    for r in 0..p.rels.len() {
        if settled[r] || r == driver {
            continue;
        }
        let Some(pk) = single_key(p, r) else { continue };
        let key = Col {
            rel: r,
            name: pk.to_string(),
        };
        let edges: Vec<&(Col, Col)> = (facts.iter().filter_map(|f| f.edge.as_ref()))
            .filter(|(a, b)| a == &key || b == &key)
            .collect();
        if edges.is_empty() {
            continue;
        }
        // Wait for the fixed-size relations R's other columns reference,
        // unless one is the driver, which never settles.
        let waits = (facts.iter().filter_map(|f| f.edge.as_ref())).any(|(a, b)| {
            [(a, b), (b, a)].into_iter().any(|(mine, theirs)| {
                mine.rel == r
                    && *mine != key
                    && theirs.rel != r
                    && theirs.rel != driver
                    && !settled[theirs.rel]
                    && single_key(p, theirs.rel) == Some(theirs.name.as_str())
            })
        });
        if waits {
            continue;
        }
        settled[r] = true;
        let Some(keys) = surviving_keys(p, facts, r, pk)? else {
            return Ok(true);
        };
        let mut members: Vec<Col> = Vec::new();
        for (a, b) in &edges {
            let m = if *a == key { b } else { a };
            if !members.contains(m) {
                members.push(m.clone());
            }
        }
        let all = keys.len() == p.rels[r].rows;
        if all || supplies_a_column(p, facts, r, &key, &members) {
            let pred = key_set(p, &key, &keys);
            if !all && !holds(p, &constants(facts), &key, &pred) {
                p.stmt.predicates.push(pred);
            }
        } else {
            fold(p, facts, r, &key, &members, &keys);
            settled.remove(r);
        }
        return Ok(true);
    }
    Ok(false)
}

/// The keys of R's rows that pass all of R's own filters, ascending;
/// `None` when a filter does not bind (the planner then reports it).
fn surviving_keys(
    p: &Planner,
    facts: &[Fact],
    r: usize,
    pk: &str,
) -> Result<Option<Vec<i64>>, SqlError> {
    let table = p.catalog.table(&p.rels[r].table)?;
    let filters: Vec<&SqlPred> = (p.stmt.predicates.iter().zip(facts))
        .filter(|(_, f)| f.rels == [r])
        .map(|(q, _)| q)
        .collect();
    let mut cols = Vec::new();
    for q in &filters {
        p.pred_columns(q, &mut cols)?;
    }
    // The key first, so its values are `host[0]`.
    let mut names = vec![pk];
    for &(_, name) in &cols {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    let mut scope = Scope::new(&p.rels);
    let host: Vec<Vec<i64>> = (names.iter())
        .map(|name| {
            scope.alloc(r, name);
            table.col(name).range_i64(0, table.rows())
        })
        .collect();
    let mut bound = Vec::with_capacity(filters.len());
    for q in &filters {
        match p.bind_pred(q, &scope) {
            Ok(b) => bound.push(b),
            Err(_) => return Ok(None),
        }
    }
    let mut keys: Vec<i64> = (0..table.rows())
        .filter(|&row| bound.iter().all(|b| b.eval(&host, row)))
        .map(|row| host[0][row])
        .collect();
    keys.sort_unstable();
    keys.dedup();
    Ok(Some(keys))
}

/// Whether R gives the query anything beyond its key's join edges to
/// plain columns: a column in the select list, group or order keys, or
/// in a cross predicate; or a key edge to another relation's key, or to
/// a column of another type. Anything unresolved counts as supplied.
fn supplies_a_column(p: &Planner, facts: &[Fact], r: usize, key: &Col, members: &[Col]) -> bool {
    let mut used = Vec::new();
    for e in (p.stmt.items.iter().map(|i| &i.expr)).chain(&p.stmt.group_by) {
        if p.columns(e, &mut used).is_err() {
            return true;
        }
    }
    for (k, _) in &p.stmt.order_by {
        if let OrderKey::Expr(e) = k {
            // Aliases do not resolve; the planner skips them too.
            let _ = p.columns(e, &mut used);
        }
    }
    if used.iter().any(|&(rel, _)| rel == r) {
        return true;
    }
    let ty = |c: &Col| p.catalog.column_type(&p.rels[c.rel].table, &c.name).ok();
    let plain =
        |c: &Col| !primary_key(&p.rels[c.rel].table).contains(&c.name.as_str()) && ty(c) == ty(key);
    if !members.iter().all(plain) {
        return true;
    }
    facts.iter().any(|f| {
        f.rels.len() > 1
            && f.rels.contains(&r)
            && !f.edge.as_ref().is_some_and(|(a, b)| a == key || b == key)
    })
}

/// Remove R, its filters and its key edges; the referencing columns get
/// `IN K` and stay equal to one another.
fn fold(p: &mut Planner, facts: &[Fact], r: usize, key: &Col, members: &[Col], keys: &[i64]) {
    let mut kept = Vec::with_capacity(p.stmt.predicates.len());
    let mut classes = Classes::default();
    for (q, f) in std::mem::take(&mut p.stmt.predicates)
        .into_iter()
        .zip(facts)
    {
        let on_key = f.edge.as_ref().is_some_and(|(a, b)| a == key || b == key);
        if f.rels == [r] || on_key {
            continue;
        }
        if let Some((a, b)) = &f.edge {
            classes.join(a, b);
        }
        kept.push(q);
    }
    p.stmt.predicates = kept;
    // Members no remaining edge keeps equal get an edge to the first.
    for m in &members[1..] {
        if classes.join(&members[0], m) {
            let (lhs, rhs) = (column_ref(p, &members[0]), column_ref(p, m));
            p.stmt.predicates.push(SqlPred::Cmp {
                op: CmpOp::Eq,
                lhs: SqlExpr::Column(lhs),
                rhs: SqlExpr::Column(rhs),
            });
        }
    }
    for m in members {
        let pred = key_set(p, m, keys);
        p.stmt.predicates.push(pred);
    }
    p.stmt.from.remove(r);
    p.rels.remove(r);
}

/// `c IN K`, spelled as the cheapest equal predicate: `=` for one key, a
/// `BETWEEN` for a contiguous run, an empty `IN` for none.
fn key_set(p: &Planner, c: &Col, keys: &[i64]) -> SqlPred {
    let expr = SqlExpr::Column(column_ref(p, c));
    let num = |k: &i64| SqlExpr::Number(k.to_string());
    match keys {
        [one] => SqlPred::Cmp {
            op: CmpOp::Eq,
            lhs: expr,
            rhs: num(one),
        },
        [lo, .., hi] if hi - lo + 1 == keys.len() as i64 => SqlPred::Between {
            expr,
            lo: num(lo),
            hi: num(hi),
        },
        _ => SqlPred::InList {
            expr,
            list: keys.iter().map(num).collect(),
        },
    }
}
