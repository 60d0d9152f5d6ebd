//! The planner: binds a parsed SELECT against the catalog and compiles
//! it into a `gpl_core` [`QueryPlan`] — build stages for every dimension
//! of the (star/snowflake) join tree, then a fact pipeline of probes,
//! filters and computed columns feeding a hash aggregation, exactly the
//! segmented shape the GPL engine executes.
//!
//! Supported: star/snowflake equi-joins whose build sides are primary
//! keys (composite keys like PARTSUPP's are composed arithmetically),
//! conjunctive predicates with `OR` inside a conjunct, dictionary string
//! comparisons and prefix `LIKE`, `CASE`, `EXTRACT(YEAR ...)`, date
//! intervals (month and year steps clamp the day), group-by over columns
//! or expressions, `SUM`/`COUNT(*)`/`MIN`/`MAX`, `ORDER BY` and `LIMIT`.
//! Before planning, [`compile`] adds the filters a query implies
//! (`crate::infer`): constants copied across join-key classes, each
//! relation's share of a cross-relation `OR`, and `nation`/`region`
//! evaluated into key sets at plan time, folded away when they supply no
//! column. Not supported (clear errors): subqueries, outer joins,
//! non-equi joins, division (select the two sums instead of their ratio),
//! `HAVING`, `DISTINCT`.

use crate::ast::*;
use crate::catalog::{primary_key, Catalog};
use crate::infer::infer;
use crate::parser::parse;
use crate::token::{err, SqlError};
use gpl_core::plan::{composite_key, Agg, DisplayHint, PipeOp, QueryPlan, Stage, Terminal};
use gpl_core::{CmpOp as CoreCmp, Expr, Pred, Slot};
use gpl_storage::DataType;
use gpl_tpch::{QueryId, TpchDb};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Compile SQL text into a validated query plan.
pub fn compile(db: &TpchDb, sql: &str) -> Result<QueryPlan, SqlError> {
    compile_traced(db, sql, None)
}

/// [`compile`], recording parse/bind spans into `rec` when present.
/// Planning happens before any simulated cycle exists, so spans are
/// timestamped with the recorder's logical clock (deterministic, unlike
/// wall time).
pub fn compile_traced(
    db: &TpchDb,
    sql: &str,
    rec: Option<&gpl_obs::Recorder>,
) -> Result<QueryPlan, SqlError> {
    let track = rec.map(|r| r.track("sql"));
    let parse_span = rec.map(|r| r.begin(track.unwrap(), "sql", "parse", r.tick()));
    let stmt = parse(sql)?;
    if let (Some(r), Some(s)) = (rec, parse_span) {
        r.arg(s, "bytes", sql.len());
        r.end(s, r.tick());
    }
    let plan_span = rec.map(|r| r.begin(track.unwrap(), "sql", "plan", r.tick()));
    let mut planner = Planner::new(db, stmt)?;
    infer(&mut planner)?;
    let plan = planner.plan()?;
    plan.validate();
    if let (Some(r), Some(s)) = (rec, plan_span) {
        r.arg(s, "stages", plan.stages.len());
        r.arg(s, "query", plan.query.name());
        r.end(s, r.tick());
    }
    Ok(plan)
}

/// The type a bound expression carries.
#[derive(Debug, Clone, PartialEq)]
enum Ty {
    Int,
    Decimal,
    Date,
    /// Dictionary code of `table.column`.
    Code {
        table: String,
        column: String,
    },
    /// An as-yet-uncoerced numeric literal.
    NumLit(String),
}

impl Ty {
    fn of(dt: DataType) -> Ty {
        match dt {
            DataType::I32 | DataType::I64 => Ty::Int,
            DataType::Date => Ty::Date,
            DataType::Decimal => Ty::Decimal,
            DataType::Dict => unreachable!("dict columns carry their table"),
        }
    }
}

#[derive(Debug, Clone)]
struct Bound {
    expr: Expr,
    ty: Ty,
}

/// Parse a numeric literal under a type context.
fn lit_under(text: &str, ty: &Ty) -> Result<i64, SqlError> {
    let as_decimal = || -> Result<i64, SqlError> {
        let (units, frac) = match text.split_once('.') {
            Some((u, f)) => (u, f),
            None => (text, ""),
        };
        let units: i64 = if units.is_empty() {
            0
        } else {
            units
                .parse()
                .map_err(|_| SqlError(format!("bad number {text:?}")))?
        };
        let frac = format!("{frac:0<2}");
        if frac.len() > 2 {
            return err(format!("{text:?} has more than two decimal places"));
        }
        let cents: i64 = frac
            .parse()
            .map_err(|_| SqlError(format!("bad number {text:?}")))?;
        Ok(units * 100 + cents)
    };
    match ty {
        Ty::Decimal => as_decimal(),
        Ty::Int | Ty::Date => text
            .parse()
            .map_err(|_| SqlError(format!("{text:?} is not an integer"))),
        Ty::Code { .. } => err(format!(
            "cannot compare a string column with number {text:?}"
        )),
        Ty::NumLit(_) => match text.parse() {
            Ok(v) => Ok(v),
            Err(_) => as_decimal(),
        },
    }
}

/// Coerce a pair of bound operands to a common type.
fn coerce(a: Bound, b: Bound) -> Result<(Expr, Expr, Ty), SqlError> {
    match (&a.ty, &b.ty) {
        // Two bare literals (e.g. CASE ... THEN 1 ELSE 0): nothing else
        // fixes their type, so decide from their spelling — any decimal
        // point makes the pair decimal, otherwise plain integers.
        (Ty::NumLit(ta), Ty::NumLit(tb)) => {
            let ty = if ta.contains('.') || tb.contains('.') {
                Ty::Decimal
            } else {
                Ty::Int
            };
            Ok((
                Expr::Const(lit_under(ta, &ty)?),
                Expr::Const(lit_under(tb, &ty)?),
                ty,
            ))
        }
        (Ty::NumLit(t), other) if !matches!(other, Ty::NumLit(_)) => {
            let v = lit_under(t, other)?;
            Ok((Expr::Const(v), b.expr, other.clone()))
        }
        (other, Ty::NumLit(t)) => {
            let v = lit_under(t, other)?;
            Ok((a.expr, Expr::Const(v), other.clone()))
        }
        (x, y) if x == y => Ok((a.expr, b.expr, a.ty.clone())),
        // Date ± integer days.
        (Ty::Date, Ty::Int) | (Ty::Int, Ty::Date) => Ok((a.expr, b.expr, Ty::Date)),
        (Ty::Decimal, Ty::Int) | (Ty::Int, Ty::Decimal) => Ok((a.expr, b.expr, Ty::Decimal)),
        (x, y) => err(format!("type mismatch: {x:?} vs {y:?}")),
    }
}

/// Binding context: which (relation, column) pairs are available at which
/// slot of the current pipeline, one column map per relation.
pub(crate) struct Scope<'a> {
    rels: &'a [Rel],
    slots: Vec<HashMap<String, Slot>>,
    next_slot: Slot,
}

impl<'a> Scope<'a> {
    pub(crate) fn new(rels: &'a [Rel]) -> Self {
        Scope {
            rels,
            slots: vec![HashMap::new(); rels.len()],
            next_slot: 0,
        }
    }

    fn slot_of(&self, rel: usize, col: &str) -> Result<Slot, SqlError> {
        self.slots[rel].get(col).copied().ok_or_else(|| {
            SqlError(format!(
                "column {}.{col} is not available in this pipeline stage",
                self.rels[rel].binding
            ))
        })
    }

    pub(crate) fn alloc(&mut self, rel: usize, col: &str) -> Slot {
        let s = self.next_slot;
        self.slots[rel].insert(col.to_string(), s);
        self.next_slot += 1;
        s
    }

    fn alloc_anon(&mut self) -> Slot {
        let s = self.next_slot;
        self.next_slot += 1;
        s
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Rel {
    pub(crate) binding: String,
    pub(crate) table: String,
    pub(crate) rows: usize,
}

/// A dimension of the join tree; column names borrow from the statement.
#[derive(Debug, Clone)]
struct Dim<'s> {
    rel: usize,
    /// Primary-key columns on the dimension side.
    keys: &'static [&'static str],
    /// Matching (relation, column) pairs on the probing side.
    src: Vec<(usize, &'s str)>,
    /// Non-key columns the fact pipeline receives as probe payloads.
    payloads: Vec<&'s str>,
}

pub(crate) struct Planner<'a> {
    pub(crate) catalog: Catalog<'a>,
    pub(crate) stmt: SelectStmt,
    pub(crate) rels: Vec<Rel>,
}

impl<'a> Planner<'a> {
    pub(crate) fn new(db: &'a TpchDb, stmt: SelectStmt) -> Result<Self, SqlError> {
        let catalog = Catalog::new(db);
        let mut rels = Vec::new();
        for t in &stmt.from {
            let table = catalog.table(&t.table)?;
            let binding = t.binding().to_string();
            if rels.iter().any(|r: &Rel| r.binding == binding) {
                return err(format!("duplicate table binding {binding:?}"));
            }
            rels.push(Rel {
                binding,
                table: t.table.clone(),
                rows: table.rows(),
            });
        }
        Ok(Planner {
            catalog,
            stmt,
            rels,
        })
    }

    /// Resolve a column reference to (relation index, column name).
    pub(crate) fn resolve<'c>(&self, c: &'c ColumnRef) -> Result<(usize, &'c str), SqlError> {
        if let Some(q) = &c.qualifier {
            let Some(rel) = self.rels.iter().position(|r| &r.binding == q) else {
                return err(format!("unknown table or alias {q:?}"));
            };
            self.catalog.column_type(&self.rels[rel].table, &c.column)?;
            return Ok((rel, &c.column));
        }
        let mut hits = Vec::new();
        for (i, r) in self.rels.iter().enumerate() {
            if self.catalog.column_type(&r.table, &c.column).is_ok() {
                hits.push(i);
            }
        }
        match hits.len() {
            0 => err(format!("unknown column {:?}", c.column)),
            1 => Ok((hits[0], &c.column)),
            _ => {
                // Same physical table aliased twice: the column exists in
                // both instances and must be qualified.
                err(format!("ambiguous column {:?}; qualify it", c.column))
            }
        }
    }

    fn ty_of(&self, rel: usize, col: &str) -> Result<Ty, SqlError> {
        let table = &self.rels[rel].table;
        Ok(match self.catalog.column_type(table, col)? {
            DataType::Dict => Ty::Code {
                table: table.clone(),
                column: col.to_string(),
            },
            dt => Ty::of(dt),
        })
    }

    /// Every column an expression reads, resolved, in reference order:
    /// the one walk behind predicate classification and load planning.
    pub(crate) fn columns<'e>(
        &self,
        e: &'e SqlExpr,
        out: &mut Vec<(usize, &'e str)>,
    ) -> Result<(), SqlError> {
        match e {
            SqlExpr::Column(c) => out.push(self.resolve(c)?),
            SqlExpr::Binary { lhs, rhs, .. } => {
                self.columns(lhs, out)?;
                self.columns(rhs, out)?;
            }
            SqlExpr::Case {
                cond,
                then,
                otherwise,
            } => {
                self.pred_columns(cond, out)?;
                self.columns(then, out)?;
                self.columns(otherwise, out)?;
            }
            SqlExpr::ExtractYear(e) => self.columns(e, out)?,
            SqlExpr::Agg { arg: Some(a), .. } => self.columns(a, out)?,
            _ => {}
        }
        Ok(())
    }

    /// [`Planner::columns`] over a predicate.
    pub(crate) fn pred_columns<'e>(
        &self,
        p: &'e SqlPred,
        out: &mut Vec<(usize, &'e str)>,
    ) -> Result<(), SqlError> {
        match p {
            SqlPred::Cmp { lhs, rhs, .. } => {
                self.columns(lhs, out)?;
                self.columns(rhs, out)?;
            }
            SqlPred::Between { expr, lo, hi } => {
                self.columns(expr, out)?;
                self.columns(lo, out)?;
                self.columns(hi, out)?;
            }
            SqlPred::InList { expr, list } => {
                self.columns(expr, out)?;
                for e in list {
                    self.columns(e, out)?;
                }
            }
            SqlPred::LikePrefix { expr, .. } => self.columns(expr, out)?,
            SqlPred::And(v) => {
                for q in v {
                    self.pred_columns(q, out)?;
                }
            }
            SqlPred::Or(a, b) => {
                self.pred_columns(a, out)?;
                self.pred_columns(b, out)?;
            }
        }
        Ok(())
    }

    // ---- expression binding ------------------------------------------

    fn bind_expr(&self, e: &SqlExpr, scope: &Scope) -> Result<Bound, SqlError> {
        match e {
            SqlExpr::Column(c) => {
                let (rel, col) = self.resolve(c)?;
                let slot = scope.slot_of(rel, col)?;
                Ok(Bound {
                    expr: Expr::Slot(slot),
                    ty: self.ty_of(rel, col)?,
                })
            }
            SqlExpr::Number(n) => Ok(Bound {
                expr: Expr::Const(0),
                ty: Ty::NumLit(n.clone()),
            }),
            SqlExpr::DateLit(d) => Ok(Bound {
                expr: Expr::Const(*d as i64),
                ty: Ty::Date,
            }),
            SqlExpr::Str(_) => err("string literals are only valid in comparisons"),
            SqlExpr::Binary { op, lhs, rhs } => {
                let l = self.bind_expr(lhs, scope)?;
                let r = self.bind_expr(rhs, scope)?;
                let decimal = matches!(l.ty, Ty::Decimal) || matches!(r.ty, Ty::Decimal);
                let (le, re, ty) = coerce(l, r)?;
                let (expr, ty) = match op {
                    BinOp::Add => (le.add(re), ty),
                    BinOp::Sub => (le.sub(re), ty),
                    BinOp::Mul if decimal => (le.dec_mul(re), Ty::Decimal),
                    BinOp::Mul => (le.mul(re), ty),
                    BinOp::Div => {
                        return err(
                            "division is not supported; select both operands (e.g. the two \
                             sums of a ratio) and divide in the client",
                        )
                    }
                };
                Ok(Bound { expr, ty })
            }
            SqlExpr::Case {
                cond,
                then,
                otherwise,
            } => {
                let p = self.bind_pred(cond, scope)?;
                let t = self.bind_expr(then, scope)?;
                let o = self.bind_expr(otherwise, scope)?;
                let (te, oe, ty) = coerce(t, o)?;
                Ok(Bound {
                    expr: Expr::Case(Box::new(p), Box::new(te), Box::new(oe)),
                    ty,
                })
            }
            SqlExpr::ExtractYear(inner) => {
                let b = self.bind_expr(inner, scope)?;
                if b.ty != Ty::Date {
                    return err("EXTRACT(YEAR ...) needs a date argument");
                }
                Ok(Bound {
                    expr: b.expr.year(),
                    ty: Ty::Int,
                })
            }
            SqlExpr::Agg { .. } => err("aggregates are only allowed at the top of SELECT items"),
        }
    }

    pub(crate) fn bind_pred(&self, p: &SqlPred, scope: &Scope) -> Result<Pred, SqlError> {
        match p {
            SqlPred::Cmp { op, lhs, rhs } => {
                let core_op = match op {
                    CmpOp::Eq => CoreCmp::Eq,
                    CmpOp::Ne => CoreCmp::Ne,
                    CmpOp::Lt => CoreCmp::Lt,
                    CmpOp::Le => CoreCmp::Le,
                    CmpOp::Gt => CoreCmp::Gt,
                    CmpOp::Ge => CoreCmp::Ge,
                };
                // String comparisons resolve through the dictionary:
                // `=`/`<>` to one code, an ordering to the codes of the
                // entries it accepts in byte-wise string order, as LIKE
                // does — codes are first-seen, so code order is not string
                // order.
                if let SqlExpr::Str(s) = rhs {
                    let l = self.bind_expr(lhs, scope)?;
                    let Ty::Code { table, column } = &l.ty else {
                        return err(format!("cannot compare non-string column with {s:?}"));
                    };
                    let want: &[Ordering] = match op {
                        CmpOp::Eq | CmpOp::Ne => {
                            let code = self.catalog.dict_code(table, column, s)?;
                            return Ok(Pred::Cmp(core_op, l.expr, Expr::Const(code)));
                        }
                        CmpOp::Lt => &[Ordering::Less],
                        CmpOp::Le => &[Ordering::Less, Ordering::Equal],
                        CmpOp::Gt => &[Ordering::Greater],
                        CmpOp::Ge => &[Ordering::Greater, Ordering::Equal],
                    };
                    let codes = self
                        .catalog
                        .dict_codes_where(table, column, |e| want.contains(&e.cmp(s.as_str())))?;
                    return Ok(Pred::InList(l.expr, codes));
                }
                let l = self.bind_expr(lhs, scope)?;
                let r = self.bind_expr(rhs, scope)?;
                let (le, re, _) = coerce(l, r)?;
                Ok(Pred::Cmp(core_op, le, re))
            }
            SqlPred::Between { expr, lo, hi } => {
                let e = self.bind_expr(expr, scope)?;
                let l = self.bind_expr(lo, scope)?;
                let h = self.bind_expr(hi, scope)?;
                let (e1, lo, _) = coerce(e.clone(), l)?;
                let (_, hi, _) = coerce(e, h)?;
                Ok(Pred::And(vec![
                    Pred::Cmp(CoreCmp::Ge, e1.clone(), lo),
                    Pred::Cmp(CoreCmp::Le, e1, hi),
                ]))
            }
            SqlPred::InList { expr, list } => {
                let e = self.bind_expr(expr, scope)?;
                let mut vals = Vec::with_capacity(list.len());
                for item in list {
                    match item {
                        SqlExpr::Str(s) => {
                            let Ty::Code { table, column } = &e.ty else {
                                return err("IN over strings needs a string column");
                            };
                            vals.push(self.catalog.dict_code(table, column, s)?);
                        }
                        SqlExpr::Number(n) => vals.push(lit_under(n, &e.ty)?),
                        SqlExpr::DateLit(d) => vals.push(*d as i64),
                        other => return err(format!("unsupported IN item {other:?}")),
                    }
                }
                Ok(Pred::InList(e.expr, vals))
            }
            SqlPred::LikePrefix { expr, prefix } => {
                let e = self.bind_expr(expr, scope)?;
                let Ty::Code { table, column } = &e.ty else {
                    return err("LIKE needs a string column");
                };
                let codes = self
                    .catalog
                    .dict_codes_where(table, column, |e| e.starts_with(prefix.as_str()))?;
                Ok(Pred::InList(e.expr, codes))
            }
            SqlPred::And(v) => Ok(Pred::And(
                v.iter()
                    .map(|q| self.bind_pred(q, scope))
                    .collect::<Result<_, _>>()?,
            )),
            SqlPred::Or(a, b) => Ok(Pred::Or(
                Box::new(self.bind_pred(a, scope)?),
                Box::new(self.bind_pred(b, scope)?),
            )),
        }
    }

    // ---- planning ------------------------------------------------------

    /// The relation the fact pipeline scans: the largest, the last of
    /// equals.
    pub(crate) fn driver(&self) -> Result<usize, SqlError> {
        (self.rels.iter().enumerate())
            .max_by_key(|(_, r)| r.rows)
            .map(|(i, _)| i)
            .ok_or_else(|| SqlError("FROM clause is empty".into()))
    }

    pub(crate) fn plan(&self) -> Result<QueryPlan, SqlError> {
        // 1. Classify predicates.
        let mut equi: Vec<(usize, &str, usize, &str)> = Vec::new(); // (rel_a, col_a, rel_b, col_b)
        let mut single: Vec<Vec<&SqlPred>> = vec![Vec::new(); self.rels.len()];
        let mut cross: Vec<&SqlPred> = Vec::new();
        for p in &self.stmt.predicates {
            if let SqlPred::Cmp {
                op: CmpOp::Eq,
                lhs: SqlExpr::Column(a),
                rhs: SqlExpr::Column(b),
            } = p
            {
                let (ra, ca) = self.resolve(a)?;
                let (rb, cb) = self.resolve(b)?;
                if ra != rb {
                    equi.push((ra, ca, rb, cb));
                    continue;
                }
            }
            // The relations the predicate reads, one entry each.
            let mut rels = Vec::new();
            self.pred_columns(p, &mut rels)?;
            rels.sort_unstable_by_key(|&(r, _)| r);
            rels.dedup_by_key(|&mut (r, _)| r);
            match rels.len() {
                0 => return err("constant predicates are not supported"),
                1 => single[rels[0].0].push(p),
                _ => cross.push(p),
            }
        }

        // 2. Join tree from the driver outward: a dimension joins when its
        //    full primary key is matched by columns already in the tree.
        let driver = self.driver()?;
        let mut in_tree = vec![false; self.rels.len()];
        in_tree[driver] = true;
        let mut dims: Vec<Dim<'_>> = Vec::new();
        let mut edge_used = vec![false; equi.len()];
        loop {
            let mut grew = false;
            for rel in 0..self.rels.len() {
                if in_tree[rel] {
                    continue;
                }
                let pk = primary_key(&self.rels[rel].table);
                if pk.is_empty() {
                    continue;
                }
                // For each pk column, find an unused equi edge matching it
                // against an in-tree column.
                let mut src = Vec::new();
                let mut used = Vec::new();
                for &k in pk {
                    let found = equi.iter().enumerate().find(|&(i, &(ra, ca, rb, cb))| {
                        !edge_used[i]
                            && ((ra == rel && ca == k && in_tree[rb])
                                || (rb == rel && cb == k && in_tree[ra]))
                    });
                    match found {
                        Some((i, &(ra, ca, rb, cb))) => {
                            used.push(i);
                            src.push(if ra == rel && ca == k {
                                (rb, cb)
                            } else {
                                (ra, ca)
                            });
                        }
                        None => break,
                    }
                }
                if src.len() == pk.len() {
                    for i in used {
                        edge_used[i] = true;
                    }
                    dims.push(Dim {
                        rel,
                        keys: pk,
                        src,
                        payloads: Vec::new(),
                    });
                    in_tree[rel] = true;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        if let Some(missing) = in_tree.iter().position(|t| !t) {
            return err(format!(
                "relation {:?} cannot be joined: no primary-key equi-join path to the driver",
                self.rels[missing].binding
            ));
        }
        // Leftover equi predicates are plain cross filters (e.g. Q5's
        // c_nationkey = s_nationkey).
        let leftover: Vec<&SqlPred> = self
            .stmt
            .predicates
            .iter()
            .filter(|p| {
                if let SqlPred::Cmp {
                    op: CmpOp::Eq,
                    lhs: SqlExpr::Column(a),
                    rhs: SqlExpr::Column(b),
                } = p
                {
                    if let (Ok((ra, ca)), Ok((rb, cb))) = (self.resolve(a), self.resolve(b)) {
                        if ra != rb {
                            return !equi.iter().zip(&edge_used).any(
                                |((ea, eca, eb, ecb), used)| {
                                    *used
                                        && ((*ea == ra && *eca == ca && *eb == rb && *ecb == cb)
                                            || (*ea == rb && *eca == cb && *eb == ra && *ecb == ca))
                                },
                            );
                        }
                    }
                }
                false
            })
            .collect();
        let mut cross_preds: Vec<&SqlPred> = cross;
        cross_preds.extend(leftover);

        // 3. Needed columns per relation (beyond keys and stage-local
        //    filters): select items, group by, cross filters, order-by
        //    expressions, and the source side of every join edge.
        let mut needed: Vec<(usize, &str)> = Vec::new();
        for item in &self.stmt.items {
            self.columns(&item.expr, &mut needed)?;
        }
        for g in &self.stmt.group_by {
            self.columns(g, &mut needed)?;
        }
        for p in &cross_preds {
            self.pred_columns(p, &mut needed)?;
        }
        for (k, _) in &self.stmt.order_by {
            if let OrderKey::Expr(e) = k {
                // Order keys referencing aliases resolve later; ignore
                // unresolvable columns here.
                let _ = self.columns(e, &mut needed);
            }
        }
        for d in &dims {
            needed.extend(&d.src);
        }
        needed.sort();
        needed.dedup();

        // Dimension payloads: needed columns of the dimension that are
        // not its probe key (key equality makes the key recoverable from
        // the probing side, but selecting it is also fine via payload).
        for d in &mut dims {
            d.payloads = (needed.iter())
                .filter(|&&(r, c)| r == d.rel && !d.keys.contains(&c))
                .map(|&(_, c)| c)
                .collect();
        }

        // 4. Build stages.
        let mut stages = Vec::new();
        for (ht, d) in dims.iter().enumerate() {
            stages.push(self.build_stage(ht, d, &single[d.rel])?);
        }
        // 5. The fact pipeline.
        let (fact_stage, scope) =
            self.fact_stage(driver, &dims, &single[driver], &cross_preds, &needed)?;
        stages.push(fact_stage);

        // 6. Aggregation shape from SELECT / GROUP BY.
        self.finish_plan(stages, driver, scope)
    }

    fn build_stage(&self, ht: usize, d: &Dim, filters: &[&SqlPred]) -> Result<Stage, SqlError> {
        let rel = d.rel;
        // Loads: pk + filter columns + payload columns.
        let mut load_cols: Vec<&str> = d.keys.to_vec();
        let mut fcols = Vec::new();
        for p in filters {
            self.pred_columns(p, &mut fcols)?;
        }
        for (r, c) in fcols {
            debug_assert_eq!(r, rel);
            if !load_cols.contains(&c) {
                load_cols.push(c);
            }
        }
        for &c in &d.payloads {
            if !load_cols.contains(&c) {
                load_cols.push(c);
            }
        }
        let mut scope = Scope::new(&self.rels);
        for c in &load_cols {
            scope.alloc(rel, c);
        }
        let mut ops = Vec::new();
        for p in filters {
            ops.push(PipeOp::Filter(self.bind_pred(p, &scope)?));
        }
        // Composite keys are composed arithmetically (as Q9 does).
        let key = if d.keys.len() == 1 {
            scope.slot_of(rel, d.keys[0])?
        } else {
            let k0 = scope.slot_of(rel, d.keys[0])?;
            let k1 = scope.slot_of(rel, d.keys[1])?;
            let out = scope.alloc_anon();
            let expr = composite_key(k0, k1);
            ops.push(PipeOp::Compute { expr, out });
            out
        };
        let payloads: Vec<Slot> = d
            .payloads
            .iter()
            .map(|c| scope.slot_of(rel, c))
            .collect::<Result<_, _>>()?;
        Ok(Stage {
            name: format!("build_{}", self.rels[rel].binding),
            driver: self.rels[rel].table.clone(),
            loads: load_cols.into_iter().map(str::to_string).collect(),
            ops,
            terminal: Terminal::HashBuild { ht, key, payloads },
        })
    }

    fn fact_stage(
        &self,
        driver: usize,
        dims: &[Dim],
        fact_filters: &[&SqlPred],
        cross_preds: &[&SqlPred],
        needed: &[(usize, &str)],
    ) -> Result<(Stage, Scope<'_>), SqlError> {
        // Fact loads: needed driver columns + driver-side join keys +
        // fact filter columns.
        let mut load_cols: Vec<String> = Vec::new();
        let push = |c: &str, load_cols: &mut Vec<String>| {
            if !load_cols.iter().any(|x| x == c) {
                load_cols.push(c.to_string());
            }
        };
        for &(r, c) in needed {
            if r == driver {
                push(c, &mut load_cols);
            }
        }
        let mut fcols = Vec::new();
        for p in fact_filters {
            self.pred_columns(p, &mut fcols)?;
        }
        for (r, c) in &fcols {
            debug_assert_eq!(*r, driver);
            push(c, &mut load_cols);
        }
        for d in dims {
            for &(r, c) in &d.src {
                if r == driver {
                    push(c, &mut load_cols);
                }
            }
        }
        let mut scope = Scope::new(&self.rels);
        for c in &load_cols {
            scope.alloc(driver, c);
        }

        let mut ops = Vec::new();
        for p in fact_filters {
            ops.push(PipeOp::Filter(self.bind_pred(p, &scope)?));
        }
        let mut pending_cross: Vec<&SqlPred> = cross_preds.to_vec();
        let apply_ready_cross = |scope: &Scope,
                                 ops: &mut Vec<PipeOp>,
                                 pending: &mut Vec<&SqlPred>|
         -> Result<(), SqlError> {
            let mut i = 0;
            while i < pending.len() {
                let mut cols = Vec::new();
                self.pred_columns(pending[i], &mut cols)?;
                if cols.iter().all(|&(r, c)| scope.slots[r].contains_key(c)) {
                    let p = pending.remove(i);
                    ops.push(PipeOp::Filter(self.bind_pred(p, scope)?));
                } else {
                    i += 1;
                }
            }
            Ok(())
        };

        for (ht, d) in dims.iter().enumerate() {
            // Probe key on the fact side.
            let key = if d.src.len() == 1 {
                scope.slot_of(d.src[0].0, d.src[0].1)?
            } else {
                let k0 = scope.slot_of(d.src[0].0, d.src[0].1)?;
                let k1 = scope.slot_of(d.src[1].0, d.src[1].1)?;
                let out = scope.alloc_anon();
                let expr = composite_key(k0, k1);
                ops.push(PipeOp::Compute { expr, out });
                out
            };
            // Join-key equality makes the dimension's key columns
            // available on the probing side under their dimension name
            // (e.g. selecting or grouping by c_custkey after joining on
            // c_custkey = o_custkey reads the o_custkey slot).
            for (&kc, &(r, c)) in d.keys.iter().zip(&d.src) {
                let s = scope.slot_of(r, c)?;
                scope.slots[d.rel].entry(kc.to_string()).or_insert(s);
            }
            let payloads: Vec<Slot> = d.payloads.iter().map(|c| scope.alloc(d.rel, c)).collect();
            ops.push(PipeOp::Probe { ht, key, payloads });
            apply_ready_cross(&scope, &mut ops, &mut pending_cross)?;
        }
        if let Some(p) = pending_cross.first() {
            return err(format!("predicate {p:?} references unavailable columns"));
        }

        let stage = Stage {
            name: format!("probe_{}", self.rels[driver].binding),
            driver: self.rels[driver].table.clone(),
            loads: load_cols,
            ops,
            terminal: Terminal::Aggregate {
                groups: vec![],
                aggs: vec![],
            }, // placeholder
        };
        Ok((stage, scope))
    }

    fn finish_plan(
        &self,
        mut stages: Vec<Stage>,
        _driver: usize,
        mut scope: Scope<'_>,
    ) -> Result<QueryPlan, SqlError> {
        let fact = stages.last_mut().expect("fact stage exists");

        // Group keys: plain columns group on their slot; expressions get a
        // computed slot.
        let mut group_slots = Vec::new();
        for g in &self.stmt.group_by {
            let slot = match g {
                SqlExpr::Column(c) => {
                    let (rel, col) = self.resolve(c)?;
                    scope.slot_of(rel, col)?
                }
                other => {
                    let b = self.bind_expr(other, &scope)?;
                    let out = scope.alloc_anon();
                    fact.ops.push(PipeOp::Compute { expr: b.expr, out });
                    out
                }
            };
            group_slots.push(slot);
        }

        // SELECT items: each is a group key or an aggregate.
        let mut aggs: Vec<Agg> = Vec::new();
        let mut columns: Vec<String> = Vec::new();
        let mut projection: Vec<usize> = Vec::new();
        let mut display: Vec<DisplayHint> = Vec::new();
        let hint_of = |ty: &Ty| match ty {
            Ty::Decimal => DisplayHint::Decimal,
            Ty::Date => DisplayHint::Date,
            Ty::Code { table, column } => DisplayHint::Dict {
                table: table.clone(),
                column: column.clone(),
            },
            _ => DisplayHint::Plain,
        };
        for (i, item) in self.stmt.items.iter().enumerate() {
            let name = item.alias.clone().unwrap_or_else(|| match &item.expr {
                SqlExpr::Column(c) => c.column.clone(),
                _ => format!("col{}", i + 1),
            });
            match &item.expr {
                SqlExpr::Agg { func, arg } => {
                    let (agg, hint) = match (func, arg) {
                        (AggFunc::Count, None) => (Agg::count(), DisplayHint::Plain),
                        (AggFunc::Count, Some(_)) => (Agg::count(), DisplayHint::Plain),
                        (f, Some(a)) => {
                            let b = self.bind_expr(a, &scope)?;
                            let hint = hint_of(&b.ty);
                            let agg = match f {
                                AggFunc::Sum => Agg::sum(b.expr),
                                AggFunc::Min => Agg::min(b.expr),
                                AggFunc::Max => Agg::max(b.expr),
                                AggFunc::Count => unreachable!(),
                            };
                            (agg, hint)
                        }
                        (f, None) => return err(format!("{f:?} needs an argument")),
                    };
                    projection.push(group_slots.len() + aggs.len());
                    aggs.push(agg);
                    display.push(hint);
                }
                other => {
                    // Must match a GROUP BY expression.
                    let idx = self
                        .stmt
                        .group_by
                        .iter()
                        .position(|g| g == other)
                        .ok_or_else(|| {
                            SqlError(format!(
                                "select item {name:?} is neither an aggregate nor listed in \
                                 GROUP BY"
                            ))
                        })?;
                    projection.push(idx);
                    display.push(hint_of(&self.bind_expr(other, &scope)?.ty));
                }
            }
            columns.push(name);
        }
        if self.stmt.group_by.is_empty()
            && self
                .stmt
                .items
                .iter()
                .any(|i| !matches!(i.expr, SqlExpr::Agg { .. }))
        {
            return err("without GROUP BY every select item must be an aggregate");
        }
        if aggs.is_empty() {
            return err("at least one aggregate is required (this engine is for OLAP rollups)");
        }
        fact.terminal = Terminal::Aggregate {
            groups: group_slots.clone(),
            aggs,
        };

        // ORDER BY: positions are 1-based select positions; expressions
        // match select aliases or select/group expressions.
        let mut order_by = Vec::new();
        for (key, desc) in &self.stmt.order_by {
            let internal = match key {
                OrderKey::Position(p) => {
                    if *p == 0 || *p > projection.len() {
                        return err(format!("ORDER BY position {p} out of range"));
                    }
                    projection[*p - 1]
                }
                OrderKey::Expr(e) => {
                    let by_alias = match e {
                        SqlExpr::Column(c) if c.qualifier.is_none() => self
                            .stmt
                            .items
                            .iter()
                            .position(|it| it.alias.as_deref() == Some(c.column.as_str())),
                        _ => None,
                    };
                    let pos = by_alias
                        .or_else(|| self.stmt.items.iter().position(|it| &it.expr == e))
                        .ok_or_else(|| {
                            SqlError(format!("ORDER BY key {e:?} is not a select item"))
                        })?;
                    projection[pos]
                }
            };
            order_by.push((internal, *desc));
        }

        let num_hts = stages.len() - 1;
        Ok(QueryPlan {
            query: QueryId::Adhoc,
            stages,
            num_hts,
            output_columns: columns,
            order_by,
            limit: self.stmt.limit,
            projection: Some(projection),
            display: Some(display),
        })
    }
}
