//! Physical query plans.
//!
//! A [`QueryPlan`] is a sequence of [`Stage`]s, each a *pipeline* over a
//! driving relation: loads, filters, hash probes and computed columns,
//! ending in a blocking [`Terminal`] (hash build, aggregation, or sort).
//! This is exactly the paper's segmented plan (Section 3.1): traversing
//! the operator tree in post-order yields the kernel sequence, which is
//! cut into segments at blocking kernels \[23\]; each of our stages is one
//! such segment, and the executors decide how its kernels run — one at a
//! time with materialized intermediates (KBE), or concurrently over tiles
//! connected by channels (GPL).
//!
//! Every hash join in the TPC-H workload is a key–foreign-key join, so
//! probes produce at most one match per row. Composite keys (Q9's
//! partsupp) are composed arithmetically before probing.

use crate::expr::{Expr, Pred, Slot};
use crate::ht::AggKind;
use gpl_tpch::{OrderBy, Q14Params, QueryId, QueryOutput, TpchDb};
use std::fmt::{self, Write as _};

/// Identifies a hash table within a plan.
pub type HtId = usize;

/// Why a plan cannot run: the structured form of the slot-discipline
/// and wiring checks, returned by [`Stage::check`] / [`QueryPlan::check`]
/// and surfaced on the request path as
/// [`ExecError::InvalidPlan`](crate::ExecError::InvalidPlan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A stage `misuse`s a slot: reads one nothing filled, or lands a
    /// probe payload on one already filled.
    Slot {
        stage: String,
        misuse: &'static str,
        slot: Slot,
    },
    /// A stage `misuse`s a hash table: probes it unbuilt, builds it
    /// twice, or names one past `QueryPlan::num_hts`.
    Ht {
        stage: String,
        misuse: &'static str,
        ht: HtId,
    },
    /// No stage ends in an aggregate, so the plan has no result rows.
    NoAggregate,
    /// `order_by`/`projection` index a column, or `output_columns` count
    /// columns, the `width`-column result does not have.
    Output {
        misuse: &'static str,
        got: usize,
        width: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Slot {
                stage,
                misuse,
                slot,
            } => write!(f, "stage {stage}: {misuse} slot {slot}"),
            PlanError::Ht { stage, misuse, ht } => write!(f, "stage {stage} {misuse} ht{ht}"),
            PlanError::NoAggregate => write!(f, "plan must end in an aggregate stage"),
            PlanError::Output { misuse, got, width } => {
                write!(f, "{misuse} {got} of a {width}-column result")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A non-blocking pipeline operator.
#[derive(Debug, Clone)]
pub enum PipeOp {
    /// Evaluate a predicate and drop non-matching rows (`k_map`).
    Filter(Pred),
    /// Probe a hash table with the key in `key`; on a match append the
    /// payload columns into `payloads` slots, on a miss drop the row
    /// (`k_hash_probe`). `payloads` may be empty (semi-join).
    Probe {
        ht: HtId,
        key: Slot,
        payloads: Vec<Slot>,
    },
    /// Compute an expression into a new slot (`k_map`).
    Compute { expr: Expr, out: Slot },
}

/// One aggregate function over an expression.
#[derive(Debug, Clone)]
pub struct Agg {
    pub kind: AggKind,
    pub expr: Expr,
}

impl Agg {
    pub fn sum(expr: Expr) -> Agg {
        Agg {
            kind: AggKind::Sum,
            expr,
        }
    }
    /// `count(*)` — the expression is a placeholder and never read.
    pub fn count() -> Agg {
        Agg {
            kind: AggKind::Count,
            expr: Expr::Const(1),
        }
    }
    pub fn min(expr: Expr) -> Agg {
        Agg {
            kind: AggKind::Min,
            expr,
        }
    }
    pub fn max(expr: Expr) -> Agg {
        Agg {
            kind: AggKind::Max,
            expr,
        }
    }
}

/// The blocking operator that ends a stage.
#[derive(Debug, Clone)]
pub enum Terminal {
    /// Build hash table `ht` from `key` with `payloads` (`k_hash_build`;
    /// blocking: a barrier is required before the table is probed).
    HashBuild {
        ht: HtId,
        key: Slot,
        payloads: Vec<Slot>,
    },
    /// Hash aggregation grouped by `groups` (empty groups = scalar
    /// aggregate). Non-blocking packet-at-a-time updates in GPL
    /// (`k_reduce*`), but its *output* is a materialization point.
    Aggregate { groups: Vec<Slot>, aggs: Vec<Agg> },
}

impl Terminal {
    /// All-SUM aggregation (the paper's workload only needs sums).
    pub fn sum_aggregate(groups: Vec<Slot>, sums: Vec<Expr>) -> Terminal {
        Terminal::Aggregate {
            groups,
            aggs: sums.into_iter().map(Agg::sum).collect(),
        }
    }
}

/// One pipeline over a driving relation.
#[derive(Debug, Clone)]
pub struct Stage {
    pub name: String,
    /// Driving table (scanned in tiles by GPL, whole by KBE).
    pub driver: String,
    /// Columns of the driver loaded into slots `0..loads.len()`.
    pub loads: Vec<String>,
    pub ops: Vec<PipeOp>,
    pub terminal: Terminal,
}

impl PipeOp {
    /// Slots the op reads, in expression order (repeats kept): a
    /// filter's or compute's expression slots, a probe's key.
    pub fn reads(&self) -> Vec<Slot> {
        let mut v = Vec::new();
        match self {
            PipeOp::Filter(p) => p.slots(&mut v),
            PipeOp::Probe { key, .. } => v.push(*key),
            PipeOp::Compute { expr, .. } => expr.slots(&mut v),
        }
        v
    }

    /// Slots the op fills: a probe's payloads, a compute's output.
    pub fn fills(&self) -> &[Slot] {
        match self {
            PipeOp::Filter(_) => &[],
            PipeOp::Probe { payloads, .. } => payloads,
            PipeOp::Compute { out, .. } => std::slice::from_ref(out),
        }
    }
}

impl Terminal {
    /// Slots the terminal reads: a build's key then its payloads; an
    /// aggregate's groups then each aggregate's expression slots.
    pub fn reads(&self) -> Vec<Slot> {
        match self {
            Terminal::HashBuild { key, payloads, .. } => [&[*key], &payloads[..]].concat(),
            Terminal::Aggregate { groups, aggs } => {
                let mut v = groups.clone();
                for a in aggs {
                    a.expr.slots(&mut v);
                }
                v
            }
        }
    }
}

impl Stage {
    /// Total number of slots the stage's row context needs.
    pub fn num_slots(&self) -> usize {
        let mut slots = self.terminal.reads();
        for op in &self.ops {
            slots.extend(op.reads());
            slots.extend(op.fills());
        }
        (slots.into_iter()).fold(self.loads.len(), |n, s| n.max(s + 1))
    }

    /// Verify slots are filled before use. Returns the filled-slot count.
    pub fn check(&self) -> Result<usize, PlanError> {
        let mut filled = vec![false; self.num_slots()];
        for f in filled.iter_mut().take(self.loads.len()) {
            *f = true;
        }
        let misuse = |misuse, slot| PlanError::Slot {
            stage: self.name.clone(),
            misuse,
            slot,
        };
        let read = |filled: &[bool], slots: &[Slot], what| {
            let unfilled = slots.iter().find(|&&s| !filled[s]);
            unfilled.map_or(Ok(()), |&s| Err(misuse(what, s)))
        };
        for op in &self.ops {
            let what = match op {
                PipeOp::Filter(_) => "filter reads unfilled",
                PipeOp::Probe { .. } => "probe key reads unfilled",
                PipeOp::Compute { .. } => "compute reads unfilled",
            };
            read(&filled, &op.reads(), what)?;
            for &s in op.fills() {
                let was = std::mem::replace(&mut filled[s], true);
                if was && matches!(op, PipeOp::Probe { .. }) {
                    return Err(misuse("probe payload overwrites filled", s));
                }
            }
        }
        let what = match &self.terminal {
            Terminal::HashBuild { .. } => "build reads unfilled",
            Terminal::Aggregate { .. } => "aggregate reads unfilled",
        };
        read(&filled, &self.terminal.reads(), what)?;
        Ok(filled.iter().filter(|&&f| f).count())
    }

    /// [`Stage::check`], panicking with the diagnostic (plan builders,
    /// where a malformed stage is a bug in this program).
    pub fn validate(&self) -> usize {
        self.check().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A full query plan.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub query: QueryId,
    /// Stages in execution order; hash-build stages precede the stages
    /// probing their tables.
    pub stages: Vec<Stage>,
    /// Number of hash tables the plan builds.
    pub num_hts: usize,
    /// Output column names (matching the reference layout).
    pub output_columns: Vec<String>,
    /// Final ORDER BY over the aggregate output.
    pub order_by: Vec<OrderBy>,
    /// Optional LIMIT applied after the sort (top-k queries like Q3).
    pub limit: Option<usize>,
    /// Optional output projection: indexes into the internal
    /// `group keys ++ aggregates` row layout, applied last. `order_by`
    /// always refers to the *internal* layout. `None` keeps the internal
    /// layout (with `output_columns` matching it).
    pub projection: Option<Vec<usize>>,
    /// Per-output-column rendering hints (aligned with `output_columns`).
    pub display: Option<Vec<DisplayHint>>,
}

impl QueryPlan {
    /// Check every stage (slot discipline, hash-table wiring) and the
    /// result shape: the plan aggregates, and its `order_by`,
    /// `projection` and `output_columns` fit the final aggregate's row.
    pub fn check(&self) -> Result<(), PlanError> {
        let mut built = vec![false; self.num_hts];
        let mut width = None;
        for s in &self.stages {
            s.check()?;
            let misuse = |misuse, ht| PlanError::Ht {
                stage: s.name.clone(),
                misuse,
                ht,
            };
            let known = |ht: HtId| (ht < self.num_hts).then_some(ht);
            for op in &s.ops {
                if let PipeOp::Probe { ht, .. } = op {
                    let ht = known(*ht).ok_or(misuse("probes out-of-range", *ht))?;
                    if !built[ht] {
                        return Err(misuse("probes unbuilt", ht));
                    }
                }
            }
            match &s.terminal {
                Terminal::HashBuild { ht, .. } => {
                    let ht = known(*ht).ok_or(misuse("builds out-of-range", *ht))?;
                    if std::mem::replace(&mut built[ht], true) {
                        return Err(misuse("builds twice", ht));
                    }
                }
                Terminal::Aggregate { groups, aggs } => width = Some(groups.len() + aggs.len()),
            }
        }
        let width = width.ok_or(PlanError::NoAggregate)?;
        let output = |misuse, got| PlanError::Output { misuse, got, width };
        let mut indexed = (self.order_by.iter().map(|&(c, _)| c))
            .chain(self.projection.iter().flatten().copied());
        if let Some(c) = indexed.find(|&c| c >= width) {
            return Err(output("output refers to column", c));
        }
        let names = self.output_columns.len();
        if names != self.projection.as_ref().map_or(width, Vec::len) {
            return Err(output("output names", names));
        }
        Ok(())
    }

    /// [`QueryPlan::check`], panicking with the diagnostic (plan
    /// builders and tests; the request path calls `check`).
    pub fn validate(&self) {
        self.check().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The result epilogue every engine shares: `LIMIT`, the output
    /// projection, and the named [`QueryOutput`]. `rows` are the final
    /// aggregate's rows, already ordered.
    pub fn output(&self, mut rows: Vec<Vec<i64>>) -> QueryOutput {
        if let Some(limit) = self.limit {
            rows.truncate(limit);
        }
        if let Some(proj) = &self.projection {
            rows = rows
                .into_iter()
                .map(|r| proj.iter().map(|&i| r[i]).collect())
                .collect();
        }
        QueryOutput::new(
            self.output_columns.iter().map(String::as_str).collect(),
            rows,
        )
    }

    /// Render the plan comparison of Figure 7: the operator pipeline and
    /// its kernel decomposition under KBE and under GPL.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "plan {} ({} stages):",
            self.query.name(),
            self.stages.len()
        );
        for (i, st) in self.stages.iter().enumerate() {
            let _ = writeln!(s, " segment S{i}: {} over {}", st.name, st.driver);
            let _ = writeln!(s, "   KBE kernels: {}", st.kbe_kernel_names().join(" -> "));
            let _ = writeln!(s, "   GPL kernels: {}", st.gpl_kernel_names().join(" => "));
        }
        s
    }
}

/// How to render an output column (the engine computes encoded i64s;
/// fronts like `gplsh` use these hints to decode them for display).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisplayHint {
    Plain,
    /// Fixed-point cents.
    Decimal,
    /// Days since the epoch.
    Date,
    /// Dictionary code of `table.column`.
    Dict {
        table: String,
        column: String,
    },
}

/// Multiplier for a two-column join key (Q9's partsupp): big enough
/// for any supplier cardinality this repository generates.
const COMPOSITE_KEY_MUL: i64 = 1 << 24;

/// The composite join key `k0 * COMPOSITE_KEY_MUL + k1` over two slots,
/// the one form both sides of a two-column key join compute.
pub fn composite_key(k0: Slot, k1: Slot) -> Expr {
    Expr::slot(k0)
        .mul(Expr::lit(COMPOSITE_KEY_MUL))
        .add(Expr::slot(k1))
}

/// Build the plan for any workload with its default parameters.
pub fn plan_for(db: &TpchDb, q: QueryId) -> QueryPlan {
    match q {
        QueryId::Q1 => q1_plan(db),
        QueryId::Q3 => q3_plan(db),
        QueryId::Q6 => q6_plan(db),
        QueryId::Q5 => q5_plan(db),
        QueryId::Q7 => q7_plan(db),
        QueryId::Q8 => q8_plan(db),
        QueryId::Q9 => q9_plan(db),
        QueryId::Q10 => q10_plan(db),
        QueryId::Q12 => q12_plan(db),
        QueryId::Q14 => q14_plan(db, Q14Params::default()),
        QueryId::Listing1 => listing1_plan(gpl_tpch::queries::literals::listing1_cutoff()),
        QueryId::Adhoc => panic!("ad-hoc plans are compiled from SQL, not built here"),
    }
}

/// Nations belonging to a region, as an `IN` list for early pruning.
fn nations_of_region(db: &TpchDb, region: &str) -> Vec<i64> {
    let code = db.region_code(region);
    db.nation_region()
        .iter()
        .enumerate()
        .filter(|(_, &r)| r == code)
        .map(|(n, _)| n as i64)
        .collect()
}

/// `l_extendedprice * (1 - l_discount)` over slots (ext, disc).
fn volume_expr(ext: Slot, disc: Slot) -> Expr {
    Expr::slot(ext).dec_mul(Expr::lit(100).sub(Expr::slot(disc)))
}

fn build_stage(
    name: &str,
    driver: &str,
    loads: &[&str],
    filter: Option<Pred>,
    ht: HtId,
    key: Slot,
    payloads: Vec<Slot>,
) -> Stage {
    let mut ops = Vec::new();
    if let Some(p) = filter {
        ops.push(PipeOp::Filter(p));
    }
    Stage {
        name: name.to_string(),
        driver: driver.to_string(),
        loads: loads.iter().map(|s| s.to_string()).collect(),
        ops,
        terminal: Terminal::HashBuild { ht, key, payloads },
    }
}

/// Q5: ASIA revenue by nation, customer and supplier co-located.
pub fn q5_plan(db: &TpchDb) -> QueryPlan {
    let (olo, ohi) = gpl_tpch::queries::literals::q5_order_window();
    let asia = nations_of_region(db, "ASIA");
    let stages = vec![
        build_stage(
            "build_orders",
            "orders",
            &["o_orderkey", "o_custkey", "o_orderdate"],
            Some(Pred::between_half_open(
                Expr::slot(2),
                olo as i64,
                ohi as i64,
            )),
            0,
            0,
            vec![1],
        ),
        build_stage(
            "build_customer",
            "customer",
            &["c_custkey", "c_nationkey"],
            None,
            1,
            0,
            vec![1],
        ),
        build_stage(
            "build_supplier",
            "supplier",
            &["s_suppkey", "s_nationkey"],
            Some(Pred::InList(Expr::slot(1), asia)),
            2,
            0,
            vec![1],
        ),
        Stage {
            name: "probe_lineitem".to_string(),
            driver: "lineitem".to_string(),
            loads: ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
                .map(str::to_string)
                .to_vec(),
            ops: vec![
                PipeOp::Probe {
                    ht: 0,
                    key: 0,
                    payloads: vec![4],
                }, // o_custkey
                PipeOp::Probe {
                    ht: 2,
                    key: 1,
                    payloads: vec![5],
                }, // s_nationkey (ASIA only)
                PipeOp::Probe {
                    ht: 1,
                    key: 4,
                    payloads: vec![6],
                }, // c_nationkey
                PipeOp::Filter(Pred::cmp(
                    crate::expr::CmpOp::Eq,
                    Expr::slot(5),
                    Expr::slot(6),
                )),
                PipeOp::Compute {
                    expr: volume_expr(2, 3),
                    out: 7,
                },
            ],
            terminal: Terminal::sum_aggregate(vec![5], vec![Expr::slot(7)]),
        },
    ];
    QueryPlan {
        query: QueryId::Q5,
        stages,
        num_hts: 3,
        output_columns: vec!["n_name".into(), "revenue".into()],
        order_by: gpl_tpch::order_spec(QueryId::Q5),
        limit: None,
        projection: None,
        display: None,
    }
}

/// Q7: France↔Germany shipping volume by year.
pub fn q7_plan(db: &TpchDb) -> QueryPlan {
    use crate::expr::CmpOp::Eq;
    let (slo, shi) = gpl_tpch::queries::literals::q7_ship_window();
    let fr = db.nation_code("FRANCE");
    let de = db.nation_code("GERMANY");
    let pair = |a: Slot, an: i64, b: Slot, bn: i64| {
        Pred::And(vec![
            Pred::cmp(Eq, Expr::slot(a), Expr::lit(an)),
            Pred::cmp(Eq, Expr::slot(b), Expr::lit(bn)),
        ])
    };
    let stages = vec![
        build_stage(
            "build_orders",
            "orders",
            &["o_orderkey", "o_custkey"],
            None,
            0,
            0,
            vec![1],
        ),
        build_stage(
            "build_customer",
            "customer",
            &["c_custkey", "c_nationkey"],
            Some(Pred::InList(Expr::slot(1), vec![fr, de])),
            1,
            0,
            vec![1],
        ),
        build_stage(
            "build_supplier",
            "supplier",
            &["s_suppkey", "s_nationkey"],
            Some(Pred::InList(Expr::slot(1), vec![fr, de])),
            2,
            0,
            vec![1],
        ),
        Stage {
            name: "probe_lineitem".to_string(),
            driver: "lineitem".to_string(),
            loads: [
                "l_orderkey",
                "l_suppkey",
                "l_shipdate",
                "l_extendedprice",
                "l_discount",
            ]
            .map(str::to_string)
            .to_vec(),
            ops: vec![
                PipeOp::Filter(Pred::between_inclusive(
                    Expr::slot(2),
                    slo as i64,
                    shi as i64,
                )),
                PipeOp::Probe {
                    ht: 2,
                    key: 1,
                    payloads: vec![5],
                }, // s_nationkey
                PipeOp::Probe {
                    ht: 0,
                    key: 0,
                    payloads: vec![6],
                }, // o_custkey
                PipeOp::Probe {
                    ht: 1,
                    key: 6,
                    payloads: vec![7],
                }, // c_nationkey
                PipeOp::Filter(Pred::Or(
                    Box::new(pair(5, fr, 7, de)),
                    Box::new(pair(5, de, 7, fr)),
                )),
                PipeOp::Compute {
                    expr: Expr::slot(2).year(),
                    out: 8,
                },
                PipeOp::Compute {
                    expr: volume_expr(3, 4),
                    out: 9,
                },
            ],
            terminal: Terminal::sum_aggregate(vec![5, 7, 8], vec![Expr::slot(9)]),
        },
    ];
    QueryPlan {
        query: QueryId::Q7,
        stages,
        num_hts: 3,
        output_columns: ["supp_nation", "cust_nation", "l_year", "revenue"]
            .map(str::to_string)
            .to_vec(),
        order_by: gpl_tpch::order_spec(QueryId::Q7),
        limit: None,
        projection: None,
        display: None,
    }
}

/// Q8: Brazil's market share of ECONOMY ANODIZED STEEL in AMERICA.
pub fn q8_plan(db: &TpchDb) -> QueryPlan {
    use crate::expr::CmpOp::Eq;
    let (olo, ohi) = gpl_tpch::queries::literals::q8_order_window();
    let steel = db.part_type_code("ECONOMY ANODIZED STEEL");
    let brazil = db.nation_code("BRAZIL");
    let america = nations_of_region(db, "AMERICA");
    let stages = vec![
        build_stage(
            "build_part",
            "part",
            &["p_partkey", "p_type"],
            Some(Pred::cmp(Eq, Expr::slot(1), Expr::lit(steel))),
            0,
            0,
            vec![],
        ),
        build_stage(
            "build_orders",
            "orders",
            &["o_orderkey", "o_custkey", "o_orderdate"],
            Some(Pred::between_inclusive(
                Expr::slot(2),
                olo as i64,
                ohi as i64,
            )),
            1,
            0,
            vec![1, 2],
        ),
        build_stage(
            "build_customer",
            "customer",
            &["c_custkey", "c_nationkey"],
            Some(Pred::InList(Expr::slot(1), america)),
            2,
            0,
            vec![],
        ),
        build_stage(
            "build_supplier",
            "supplier",
            &["s_suppkey", "s_nationkey"],
            None,
            3,
            0,
            vec![1],
        ),
        Stage {
            name: "probe_lineitem".to_string(),
            driver: "lineitem".to_string(),
            loads: [
                "l_partkey",
                "l_orderkey",
                "l_suppkey",
                "l_extendedprice",
                "l_discount",
            ]
            .map(str::to_string)
            .to_vec(),
            ops: vec![
                PipeOp::Probe {
                    ht: 0,
                    key: 0,
                    payloads: vec![],
                }, // steel parts only
                PipeOp::Probe {
                    ht: 1,
                    key: 1,
                    payloads: vec![5, 6],
                }, // o_custkey, o_orderdate
                PipeOp::Probe {
                    ht: 2,
                    key: 5,
                    payloads: vec![],
                }, // AMERICA customers
                PipeOp::Probe {
                    ht: 3,
                    key: 2,
                    payloads: vec![7],
                }, // s_nationkey
                PipeOp::Compute {
                    expr: Expr::slot(6).year(),
                    out: 8,
                },
                PipeOp::Compute {
                    expr: volume_expr(3, 4),
                    out: 9,
                },
                PipeOp::Compute {
                    expr: Expr::Case(
                        Box::new(Pred::cmp(Eq, Expr::slot(7), Expr::lit(brazil))),
                        Box::new(Expr::slot(9)),
                        Box::new(Expr::lit(0)),
                    ),
                    out: 10,
                },
            ],
            terminal: Terminal::sum_aggregate(vec![8], vec![Expr::slot(10), Expr::slot(9)]),
        },
    ];
    QueryPlan {
        query: QueryId::Q8,
        stages,
        num_hts: 4,
        output_columns: ["o_year", "brazil_volume", "total_volume"]
            .map(str::to_string)
            .to_vec(),
        order_by: gpl_tpch::order_spec(QueryId::Q8),
        limit: None,
        projection: None,
        display: None,
    }
}

/// Q9 (Appendix B variant): profit by nation and year, `p_partkey < 1000`.
pub fn q9_plan(_db: &TpchDb) -> QueryPlan {
    use crate::expr::CmpOp::Lt;
    let bound = gpl_tpch::queries::literals::Q9_PARTKEY_BOUND;
    let stages = vec![
        build_stage(
            "build_part",
            "part",
            &["p_partkey"],
            Some(Pred::cmp(Lt, Expr::slot(0), Expr::lit(bound))),
            0,
            0,
            vec![],
        ),
        Stage {
            name: "build_partsupp".to_string(),
            driver: "partsupp".to_string(),
            loads: ["ps_partkey", "ps_suppkey", "ps_supplycost"]
                .map(str::to_string)
                .to_vec(),
            ops: vec![
                PipeOp::Filter(Pred::cmp(Lt, Expr::slot(0), Expr::lit(bound))),
                PipeOp::Compute {
                    expr: composite_key(0, 1),
                    out: 3,
                },
            ],
            terminal: Terminal::HashBuild {
                ht: 1,
                key: 3,
                payloads: vec![2],
            },
        },
        build_stage(
            "build_supplier",
            "supplier",
            &["s_suppkey", "s_nationkey"],
            None,
            2,
            0,
            vec![1],
        ),
        build_stage(
            "build_orders",
            "orders",
            &["o_orderkey", "o_orderdate"],
            None,
            3,
            0,
            vec![1],
        ),
        Stage {
            name: "probe_lineitem".to_string(),
            driver: "lineitem".to_string(),
            loads: [
                "l_partkey",
                "l_suppkey",
                "l_orderkey",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
            ]
            .map(str::to_string)
            .to_vec(),
            ops: vec![
                PipeOp::Filter(Pred::cmp(Lt, Expr::slot(0), Expr::lit(bound))),
                PipeOp::Probe {
                    ht: 0,
                    key: 0,
                    payloads: vec![],
                },
                PipeOp::Compute {
                    expr: composite_key(0, 1),
                    out: 6,
                },
                PipeOp::Probe {
                    ht: 1,
                    key: 6,
                    payloads: vec![7],
                }, // ps_supplycost
                PipeOp::Probe {
                    ht: 2,
                    key: 1,
                    payloads: vec![8],
                }, // s_nationkey
                PipeOp::Probe {
                    ht: 3,
                    key: 2,
                    payloads: vec![9],
                }, // o_orderdate
                PipeOp::Compute {
                    expr: Expr::slot(9).year(),
                    out: 10,
                },
                PipeOp::Compute {
                    expr: volume_expr(4, 5).sub(Expr::slot(7).dec_mul(Expr::slot(3))),
                    out: 11,
                },
            ],
            terminal: Terminal::sum_aggregate(vec![8, 10], vec![Expr::slot(11)]),
        },
    ];
    QueryPlan {
        query: QueryId::Q9,
        stages,
        num_hts: 4,
        output_columns: ["nation", "o_year", "sum_profit"]
            .map(str::to_string)
            .to_vec(),
        order_by: gpl_tpch::order_spec(QueryId::Q9),
        limit: None,
        projection: None,
        display: None,
    }
}

/// Q14 with an explicit selectivity window (Figures 3, 4, 18).
pub fn q14_plan(db: &TpchDb, params: Q14Params) -> QueryPlan {
    let promo = db.promo_type_codes();
    let stages = vec![
        build_stage(
            "build_part",
            "part",
            &["p_partkey", "p_type"],
            None,
            0,
            0,
            vec![1],
        ),
        Stage {
            name: "probe_lineitem".to_string(),
            driver: "lineitem".to_string(),
            loads: ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"]
                .map(str::to_string)
                .to_vec(),
            ops: vec![
                PipeOp::Filter(Pred::between_half_open(
                    Expr::slot(1),
                    params.lo as i64,
                    params.hi as i64,
                )),
                PipeOp::Probe {
                    ht: 0,
                    key: 0,
                    payloads: vec![4],
                }, // p_type
                PipeOp::Compute {
                    expr: volume_expr(2, 3),
                    out: 5,
                },
                PipeOp::Compute {
                    expr: Expr::Case(
                        Box::new(Pred::InList(Expr::slot(4), promo)),
                        Box::new(Expr::slot(5)),
                        Box::new(Expr::lit(0)),
                    ),
                    out: 6,
                },
            ],
            terminal: Terminal::sum_aggregate(vec![], vec![Expr::slot(6), Expr::slot(5)]),
        },
    ];
    QueryPlan {
        query: QueryId::Q14,
        stages,
        num_hts: 1,
        output_columns: ["promo_revenue", "total_revenue"]
            .map(str::to_string)
            .to_vec(),
        order_by: gpl_tpch::order_spec(QueryId::Q14),
        limit: None,
        projection: None,
        display: None,
    }
}

/// Listing 1: filtered scan + scalar sum over LINEITEM (Figure 7).
pub fn listing1_plan(cutoff: i32) -> QueryPlan {
    use crate::expr::CmpOp::Le;
    let charge = volume_expr(1, 2).dec_mul(Expr::lit(100).add(Expr::slot(3)));
    let stages = vec![Stage {
        name: "scan_lineitem".to_string(),
        driver: "lineitem".to_string(),
        loads: ["l_shipdate", "l_extendedprice", "l_discount", "l_tax"]
            .map(str::to_string)
            .to_vec(),
        ops: vec![
            PipeOp::Filter(Pred::cmp(Le, Expr::slot(0), Expr::lit(cutoff as i64))),
            PipeOp::Compute {
                expr: charge,
                out: 4,
            },
        ],
        terminal: Terminal::sum_aggregate(vec![], vec![Expr::slot(4)]),
    }];
    QueryPlan {
        query: QueryId::Listing1,
        stages,
        num_hts: 0,
        output_columns: vec!["sum_charge".into()],
        order_by: vec![],
        limit: None,
        projection: None,
        display: None,
    }
}

/// Q1 (extended set): the pricing summary report — a single segment with
/// a wide multi-aggregate group-by ending in `k_groupby*`.
pub fn q1_plan(_db: &TpchDb) -> QueryPlan {
    use crate::expr::CmpOp::Le;
    let cutoff = gpl_tpch::queries::literals::q1_cutoff();
    // Slots: 0 flag, 1 status, 2 qty, 3 ext, 4 disc, 5 tax, 6 shipdate.
    let vol = volume_expr(3, 4);
    let charge = vol.clone().dec_mul(Expr::lit(100).add(Expr::slot(5)));
    let stages = vec![Stage {
        name: "scan_lineitem".to_string(),
        driver: "lineitem".to_string(),
        loads: [
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ]
        .map(str::to_string)
        .to_vec(),
        ops: vec![
            PipeOp::Filter(Pred::cmp(Le, Expr::slot(6), Expr::lit(cutoff as i64))),
            PipeOp::Compute { expr: vol, out: 7 },
            PipeOp::Compute {
                expr: charge,
                out: 8,
            },
        ],
        terminal: Terminal::Aggregate {
            groups: vec![0, 1],
            aggs: vec![
                Agg::sum(Expr::slot(2)),
                Agg::sum(Expr::slot(3)),
                Agg::sum(Expr::slot(7)),
                Agg::sum(Expr::slot(8)),
                Agg::sum(Expr::slot(4)),
                Agg::count(),
            ],
        },
    }];
    QueryPlan {
        query: QueryId::Q1,
        stages,
        num_hts: 0,
        output_columns: [
            "l_returnflag",
            "l_linestatus",
            "sum_qty",
            "sum_base_price",
            "sum_disc_price",
            "sum_charge",
            "sum_disc",
            "count_order",
        ]
        .map(str::to_string)
        .to_vec(),
        order_by: gpl_tpch::order_spec(QueryId::Q1),
        limit: None,
        projection: None,
        display: None,
    }
}

/// Q3 (extended set): top-10 unshipped BUILDING orders.
pub fn q3_plan(db: &TpchDb) -> QueryPlan {
    use crate::expr::CmpOp::{Gt, Lt};
    let date = gpl_tpch::queries::literals::q3_date() as i64;
    let building = db
        .customer
        .col("c_mktsegment")
        .dictionary()
        .expect("c_mktsegment is dict")
        .code_of("BUILDING")
        .expect("segment exists") as i64;
    let stages = vec![
        build_stage(
            "build_customer",
            "customer",
            &["c_custkey", "c_mktsegment"],
            Some(Pred::cmp(
                crate::expr::CmpOp::Eq,
                Expr::slot(1),
                Expr::lit(building),
            )),
            0,
            0,
            vec![],
        ),
        Stage {
            name: "build_orders".to_string(),
            driver: "orders".to_string(),
            loads: ["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"]
                .map(str::to_string)
                .to_vec(),
            ops: vec![
                PipeOp::Filter(Pred::cmp(Lt, Expr::slot(2), Expr::lit(date))),
                PipeOp::Probe {
                    ht: 0,
                    key: 1,
                    payloads: vec![],
                }, // BUILDING only
            ],
            terminal: Terminal::HashBuild {
                ht: 1,
                key: 0,
                payloads: vec![2, 3],
            },
        },
        Stage {
            name: "probe_lineitem".to_string(),
            driver: "lineitem".to_string(),
            loads: ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"]
                .map(str::to_string)
                .to_vec(),
            ops: vec![
                PipeOp::Filter(Pred::cmp(Gt, Expr::slot(1), Expr::lit(date))),
                PipeOp::Probe {
                    ht: 1,
                    key: 0,
                    payloads: vec![4, 5],
                }, // date, priority
                PipeOp::Compute {
                    expr: volume_expr(2, 3),
                    out: 6,
                },
            ],
            terminal: Terminal::sum_aggregate(vec![0, 4, 5], vec![Expr::slot(6)]),
        },
    ];
    QueryPlan {
        query: QueryId::Q3,
        stages,
        num_hts: 2,
        output_columns: ["l_orderkey", "o_orderdate", "o_shippriority", "revenue"]
            .map(str::to_string)
            .to_vec(),
        order_by: gpl_tpch::order_spec(QueryId::Q3),
        limit: Some(gpl_tpch::queries::literals::Q3_LIMIT),
        projection: None,
        display: None,
    }
}

/// Q10 (extended set): top-20 returned-item customers — a group-by on
/// the probe *payload* (customer attributes travel through the pipeline).
pub fn q10_plan(db: &TpchDb) -> QueryPlan {
    use crate::expr::CmpOp::Eq;
    let (olo, ohi) = gpl_tpch::queries::literals::q10_order_window();
    let returned = db
        .lineitem
        .col("l_returnflag")
        .dictionary()
        .expect("l_returnflag is dict")
        .code_of("R")
        .expect("flag exists") as i64;
    let stages = vec![
        build_stage(
            "build_orders",
            "orders",
            &["o_orderkey", "o_custkey", "o_orderdate"],
            Some(Pred::between_half_open(
                Expr::slot(2),
                olo as i64,
                ohi as i64,
            )),
            0,
            0,
            vec![1],
        ),
        build_stage(
            "build_customer",
            "customer",
            &["c_custkey", "c_nationkey", "c_acctbal"],
            None,
            1,
            0,
            vec![1, 2],
        ),
        Stage {
            name: "probe_lineitem".to_string(),
            driver: "lineitem".to_string(),
            loads: [
                "l_orderkey",
                "l_returnflag",
                "l_extendedprice",
                "l_discount",
            ]
            .map(str::to_string)
            .to_vec(),
            ops: vec![
                PipeOp::Filter(Pred::cmp(Eq, Expr::slot(1), Expr::lit(returned))),
                PipeOp::Probe {
                    ht: 0,
                    key: 0,
                    payloads: vec![4],
                }, // o_custkey
                PipeOp::Probe {
                    ht: 1,
                    key: 4,
                    payloads: vec![5, 6],
                }, // c_nationkey, c_acctbal
                PipeOp::Compute {
                    expr: volume_expr(2, 3),
                    out: 7,
                },
            ],
            terminal: Terminal::sum_aggregate(vec![4, 5, 6], vec![Expr::slot(7)]),
        },
    ];
    QueryPlan {
        query: QueryId::Q10,
        stages,
        num_hts: 2,
        output_columns: ["c_custkey", "c_nationkey", "c_acctbal", "revenue"]
            .map(str::to_string)
            .to_vec(),
        order_by: gpl_tpch::order_spec(QueryId::Q10),
        limit: Some(gpl_tpch::queries::literals::Q10_LIMIT),
        projection: None,
        display: None,
    }
}

/// Q12 (extended set): late-shipment counts by ship mode — slot-to-slot
/// date comparisons in the leaf filter and two CASE-counting sums.
pub fn q12_plan(db: &TpchDb) -> QueryPlan {
    use crate::expr::CmpOp::Lt;
    use gpl_tpch::queries::literals as lit;
    let (rlo, rhi) = lit::q12_receipt_window();
    let mode_dict = db
        .lineitem
        .col("l_shipmode")
        .dictionary()
        .expect("l_shipmode is dict");
    let modes: Vec<i64> = lit::Q12_SHIP_MODES
        .iter()
        .map(|m| mode_dict.code_of(m).expect("mode") as i64)
        .collect();
    let prio_dict = db
        .orders
        .col("o_orderpriority")
        .dictionary()
        .expect("o_orderpriority is dict");
    let high: Vec<i64> = lit::Q12_HIGH_PRIORITIES
        .iter()
        .map(|p| prio_dict.code_of(p).expect("priority") as i64)
        .collect();
    // Slots: 0 l_orderkey, 1 l_shipmode, 2 l_shipdate, 3 l_commitdate,
    // 4 l_receiptdate, 5 o_orderpriority, 6 high, 7 low.
    let is_high = Pred::InList(Expr::slot(5), high);
    let stages = vec![
        build_stage(
            "build_orders",
            "orders",
            &["o_orderkey", "o_orderpriority"],
            None,
            0,
            0,
            vec![1],
        ),
        Stage {
            name: "probe_lineitem".to_string(),
            driver: "lineitem".to_string(),
            loads: [
                "l_orderkey",
                "l_shipmode",
                "l_shipdate",
                "l_commitdate",
                "l_receiptdate",
            ]
            .map(str::to_string)
            .to_vec(),
            ops: vec![
                PipeOp::Filter(Pred::And(vec![
                    Pred::InList(Expr::slot(1), modes),
                    Pred::between_half_open(Expr::slot(4), rlo as i64, rhi as i64),
                    Pred::cmp(Lt, Expr::slot(3), Expr::slot(4)), // commit < receipt
                    Pred::cmp(Lt, Expr::slot(2), Expr::slot(3)), // ship < commit
                ])),
                PipeOp::Probe {
                    ht: 0,
                    key: 0,
                    payloads: vec![5],
                },
                PipeOp::Compute {
                    expr: Expr::Case(
                        Box::new(is_high.clone()),
                        Box::new(Expr::lit(1)),
                        Box::new(Expr::lit(0)),
                    ),
                    out: 6,
                },
                PipeOp::Compute {
                    expr: Expr::Case(
                        Box::new(is_high),
                        Box::new(Expr::lit(0)),
                        Box::new(Expr::lit(1)),
                    ),
                    out: 7,
                },
            ],
            terminal: Terminal::sum_aggregate(vec![1], vec![Expr::slot(6), Expr::slot(7)]),
        },
    ];
    QueryPlan {
        query: QueryId::Q12,
        stages,
        num_hts: 1,
        output_columns: ["l_shipmode", "high_line_count", "low_line_count"]
            .map(str::to_string)
            .to_vec(),
        order_by: gpl_tpch::order_spec(QueryId::Q12),
        limit: None,
        projection: None,
        display: None,
    }
}

/// Q6 (extended set): the pure predicate scan — one map kernel feeding
/// `k_reduce*`, the simplest possible pipeline.
pub fn q6_plan(_db: &TpchDb) -> QueryPlan {
    use crate::expr::CmpOp::Lt;
    use gpl_tpch::queries::literals as lit;
    let (lo, hi) = lit::q6_ship_window();
    let stages = vec![Stage {
        name: "scan_lineitem".to_string(),
        driver: "lineitem".to_string(),
        loads: ["l_shipdate", "l_quantity", "l_extendedprice", "l_discount"]
            .map(str::to_string)
            .to_vec(),
        ops: vec![
            PipeOp::Filter(Pred::And(vec![
                Pred::between_half_open(Expr::slot(0), lo as i64, hi as i64),
                Pred::between_inclusive(Expr::slot(3), lit::Q6_DISCOUNT_LO, lit::Q6_DISCOUNT_HI),
                Pred::cmp(Lt, Expr::slot(1), Expr::lit(lit::Q6_QUANTITY_BOUND)),
            ])),
            PipeOp::Compute {
                expr: Expr::slot(2).dec_mul(Expr::slot(3)),
                out: 4,
            },
        ],
        terminal: Terminal::sum_aggregate(vec![], vec![Expr::slot(4)]),
    }];
    QueryPlan {
        query: QueryId::Q6,
        stages,
        num_hts: 0,
        output_columns: vec!["revenue".into()],
        order_by: vec![],
        limit: None,
        projection: None,
        display: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TpchDb {
        TpchDb::at_scale(0.002)
    }

    #[test]
    fn all_plans_validate() {
        let db = db();
        for q in QueryId::evaluation_set() {
            plan_for(&db, q).validate();
        }
        plan_for(&db, QueryId::Listing1).validate();
    }

    #[test]
    fn q8_first_build_segment_matches_paper_shape() {
        // Section 5.2: "the first query segment contains three kernels
        // (2 map kernels and 1 hashbuild)". Our fusion folds the scan and
        // its selection into one map kernel, so the same segment is
        // map -> hashbuild; the pipeline boundary (channel into a blocking
        // hash build) is preserved.
        let p = q8_plan(&db());
        let ks = p.stages[0].gpl_kernel_names();
        assert_eq!(ks.len(), 2, "{ks:?}");
        assert!(ks[0].starts_with("k_map"));
        assert!(ks[1].starts_with("k_hash_build"));
    }

    #[test]
    fn listing1_matches_figure7() {
        let p = listing1_plan(10_000);
        let gpl = p.stages[0].gpl_kernel_names();
        // Figure 7c: all non-blocking, map feeding reduce via channel.
        assert!(gpl.iter().any(|k| k.contains("k_map")));
        assert_eq!(gpl.last().unwrap(), "k_reduce*");
        // Figure 7b: KBE needs prefix-sum + scatter for the selection.
        let kbe = p.stages[0].kbe_kernel_names();
        assert!(kbe.contains(&"k_prefix_sum".to_string()));
        assert!(kbe.contains(&"k_scatter".to_string()));
    }

    #[test]
    fn slot_validation_catches_unfilled_reads() {
        let bad = Stage {
            name: "bad".into(),
            driver: "lineitem".into(),
            loads: vec!["l_partkey".into()],
            ops: vec![PipeOp::Compute {
                expr: Expr::slot(5),
                out: 6,
            }],
            terminal: Terminal::sum_aggregate(vec![], vec![Expr::slot(6)]),
        };
        let r = std::panic::catch_unwind(|| bad.validate());
        assert!(r.is_err());
    }

    #[test]
    fn probe_before_build_is_rejected() {
        let db = db();
        let mut p = q14_plan(&db, Q14Params::default());
        p.stages.swap(0, 1);
        let r = std::panic::catch_unwind(move || p.validate());
        assert!(r.is_err());
    }

    #[test]
    fn explain_mentions_both_modes() {
        let e = plan_for(&db(), QueryId::Q5).explain();
        assert!(e.contains("KBE kernels"));
        assert!(e.contains("GPL kernels"));
        assert!(e.contains("segment S3"), "Q5 has 4 segments:\n{e}");
    }

    #[test]
    fn composite_key_cannot_collide() {
        // suppkey < COMPOSITE_KEY_MUL for any generated scale.
        let db = TpchDb::at_scale(0.01);
        assert!((db.supplier.rows() as i64) < COMPOSITE_KEY_MUL);
    }
}
