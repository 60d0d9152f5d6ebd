//! Property tests on the SQL front-end: randomly generated single-table
//! queries must agree with a direct row-at-a-time evaluation oracle.

use gpl_check::prelude::*;
use gpl_repro::core::{try_run_query_recovering, ExecContext, ExecLimits, ExecMode, QueryConfig};
use gpl_repro::sim::amd_a10;
use gpl_repro::sql::{run_sql, sql_for};
use gpl_repro::tpch::{QueryId, TpchDb};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

mod common;
use common::db_sf0002 as db;

#[derive(Debug, Clone)]
enum Col {
    PartKey,
    LineNumber,
    Quantity,
    Discount,
}

impl Col {
    fn sql(&self) -> &'static str {
        match self {
            Col::PartKey => "l_partkey",
            Col::LineNumber => "l_linenumber",
            Col::Quantity => "l_quantity",
            Col::Discount => "l_discount",
        }
    }

    /// The encoded value the engine sees.
    fn value(&self, db: &TpchDb, row: usize) -> i64 {
        db.lineitem.col(self.sql()).get_i64(row)
    }

    /// Format a literal of this column's type; returns (sql, encoded).
    fn literal(&self, raw: i64) -> (String, i64) {
        match self {
            // Integer columns: plain integers.
            Col::PartKey => (format!("{}", raw % 4000), raw % 4000),
            Col::LineNumber => (format!("{}", raw % 8), raw % 8),
            // Decimal columns: cents, formatted with two places.
            Col::Quantity => {
                let cents = (raw % 5100).abs();
                (format!("{}.{:02}", cents / 100, cents % 100), cents)
            }
            Col::Discount => {
                let cents = (raw % 11).abs();
                (format!("0.{cents:02}"), cents)
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Conjunct {
    col: Col,
    op: &'static str,
    lit_sql: String,
    lit: i64,
}

impl Conjunct {
    fn matches(&self, db: &TpchDb, row: usize) -> bool {
        let v = self.col.value(db, row);
        match self.op {
            "<" => v < self.lit,
            "<=" => v <= self.lit,
            ">" => v > self.lit,
            ">=" => v >= self.lit,
            "=" => v == self.lit,
            _ => v != self.lit,
        }
    }
}

fn col_strategy() -> impl Strategy<Value = Col> {
    prop_oneof![
        Just(Col::PartKey),
        Just(Col::LineNumber),
        Just(Col::Quantity),
        Just(Col::Discount),
    ]
}

fn conjunct_strategy() -> impl Strategy<Value = Conjunct> {
    (
        col_strategy(),
        prop_oneof![
            Just("<"),
            Just("<="),
            Just(">"),
            Just(">="),
            Just("="),
            Just("<>"),
        ],
        any::<i64>(),
    )
        .prop_map(|(col, op, raw)| {
            let (lit_sql, lit) = col.literal(raw);
            Conjunct {
                col,
                op,
                lit_sql,
                lit,
            }
        })
}

#[derive(Debug, Clone)]
enum AggPick {
    SumExt,
    MinPart,
    MaxQty,
    Count,
    /// `sum(case when <conjunct> then A else B end)` with bare integer
    /// literals — the literal-pair coercion path.
    CaseSum(Conjunct, i64, i64),
}

impl AggPick {
    fn sql(&self) -> String {
        match self {
            AggPick::SumExt => "sum(l_extendedprice)".into(),
            AggPick::MinPart => "min(l_partkey)".into(),
            AggPick::MaxQty => "max(l_quantity)".into(),
            AggPick::Count => "count(*)".into(),
            AggPick::CaseSum(c, a, b) => format!(
                "sum(case when {} {} {} then {a} else {b} end)",
                c.col.sql(),
                c.op,
                c.lit_sql
            ),
        }
    }

    fn fold(&self, acc: Option<i64>, db: &TpchDb, row: usize) -> i64 {
        let cur = match self {
            AggPick::SumExt => db.lineitem.col("l_extendedprice").get_i64(row),
            AggPick::MinPart => db.lineitem.col("l_partkey").get_i64(row),
            AggPick::MaxQty => db.lineitem.col("l_quantity").get_i64(row),
            AggPick::Count => 1,
            AggPick::CaseSum(c, a, b) => {
                if c.matches(db, row) {
                    *a
                } else {
                    *b
                }
            }
        };
        match (self, acc) {
            (AggPick::SumExt | AggPick::Count | AggPick::CaseSum(..), Some(a)) => a + cur,
            (AggPick::MinPart, Some(a)) => a.min(cur),
            (AggPick::MaxQty, Some(a)) => a.max(cur),
            (_, None) => cur,
        }
    }

    fn empty(&self) -> i64 {
        match self {
            AggPick::SumExt | AggPick::Count | AggPick::CaseSum(..) => 0,
            AggPick::MinPart => i64::MAX,
            AggPick::MaxQty => i64::MIN,
        }
    }
}

fn agg_strategy() -> impl Strategy<Value = AggPick> {
    prop_oneof![
        Just(AggPick::SumExt),
        Just(AggPick::MinPart),
        Just(AggPick::MaxQty),
        Just(AggPick::Count),
        (conjunct_strategy(), -100i64..100, -100i64..100)
            .prop_map(|(c, a, b)| AggPick::CaseSum(c, a, b)),
    ]
}

prop! {
    #![cases(16)]

    /// Random filtered aggregates, optionally grouped, equal the oracle.
    #[test]
    fn random_single_table_queries_match_oracle(
        conjuncts in prop::collection::vec(conjunct_strategy(), 0..3),
        agg in agg_strategy(),
        grouped in any::<bool>(),
    ) {
        let db = &db();
        let mut sql = String::from("select ");
        if grouped {
            sql.push_str("l_returnflag, ");
        }
        sql.push_str(&agg.sql());
        sql.push_str(" from lineitem");
        if !conjuncts.is_empty() {
            sql.push_str(" where ");
            let parts: Vec<String> = conjuncts
                .iter()
                .map(|c| format!("{} {} {}", c.col.sql(), c.op, c.lit_sql))
                .collect();
            sql.push_str(&parts.join(" and "));
        }
        if grouped {
            sql.push_str(" group by l_returnflag order by l_returnflag");
        }

        let mut ctx = ExecContext::with_shared(amd_a10(), db.clone());
        let run = run_sql(&mut ctx, &sql, ExecMode::Gpl).expect("query compiles and runs");

        // Oracle.
        let mut groups: BTreeMap<i64, i64> = BTreeMap::new();
        for row in 0..db.lineitem.rows() {
            if !conjuncts.iter().all(|c| c.matches(db, row)) {
                continue;
            }
            let key = if grouped { db.lineitem.col("l_returnflag").get_i64(row) } else { 0 };
            let e = groups.entry(key);
            match e {
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    let v = agg.fold(Some(*o.get()), db, row);
                    o.insert(v);
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(agg.fold(None, db, row));
                }
            }
        }

        if grouped {
            let want: Vec<Vec<i64>> = groups.into_iter().map(|(k, v)| vec![k, v]).collect();
            prop_assert_eq!(run.output.rows, want, "{}", sql);
        } else {
            let want = groups.into_iter().next().map(|(_, v)| v).unwrap_or_else(|| agg.empty());
            prop_assert_eq!(run.output.rows.len(), 1, "{}", sql);
            prop_assert_eq!(run.output.rows[0][0], want, "{}", sql);
        }
    }
}

/// One byte-level edit of a text; positions wrap to its length.
#[derive(Debug, Clone)]
enum Edit {
    Delete(usize),
    Insert(usize, u8),
    Swap(usize, usize),
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    // Inserted bytes are half arbitrary, half drawn from what SQL is
    // made of, so that a useful share of the mutants still compiles.
    const SQLISH: &[u8] = b" 0123456789.,()'<>=*-+_aeilnorst";
    let byte = prop_oneof![any::<u8>(), (0..SQLISH.len()).prop_map(|i| SQLISH[i])];
    prop_oneof![
        any::<usize>().prop_map(Edit::Delete),
        (any::<usize>(), byte).prop_map(|(at, b)| Edit::Insert(at, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Edit::Swap(a, b)),
    ]
}

const MODES: [ExecMode; 4] = [
    ExecMode::Kbe,
    ExecMode::GplNoCe,
    ExecMode::Gpl,
    ExecMode::GplPipelined,
];

/// Whatever the bytes, `compile` — and, when they compile, the engine —
/// must come back with `Ok` or a structured `Err`. Returns the unwind's
/// message if either panicked instead.
fn unwinds(bytes: &[u8], mode: ExecMode) -> Option<String> {
    let sql = String::from_utf8_lossy(bytes);
    let run = || {
        let Ok(plan) = gpl_repro::sql::compile(&db(), &sql) else {
            return;
        };
        let mut ctx = ExecContext::with_shared(amd_a10(), db());
        let cfg = QueryConfig::default_for(&amd_a10(), &plan);
        let _ = try_run_query_recovering(&mut ctx, &plan, mode, &cfg, &ExecLimits::none(), None);
    };
    let panic = catch_unwind(AssertUnwindSafe(run)).err()?;
    let msg = (panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| panic.downcast_ref::<String>().cloned());
    Some(format!("{sql:?} unwound: {}", msg.unwrap_or_default()))
}

prop! {
    /// Byte-level fuzz, arm one: arbitrary bytes.
    #[test]
    fn arbitrary_bytes_never_unwind(
        bytes in prop::collection::vec(any::<u8>(), 0..160),
        mode in 0usize..4,
    ) {
        prop_assert_eq!(unwinds(&bytes, MODES[mode]), None);
    }

    /// Arm two: corpus SQL with a few random byte deletions, insertions
    /// and swaps — close enough to valid that much of it still compiles
    /// and reaches the engine.
    #[test]
    fn mutated_corpus_sql_never_unwinds(
        text in 0usize..10,
        edits in prop::collection::vec(edit_strategy(), 1..4),
        mode in 0usize..4,
    ) {
        let corpus: Vec<&str> = QueryId::all().into_iter().filter_map(sql_for).collect();
        let mut bytes = corpus[text % corpus.len()].as_bytes().to_vec();
        for edit in &edits {
            let n = bytes.len();
            match *edit {
                Edit::Delete(at) => drop(bytes.remove(at % n)),
                Edit::Insert(at, b) => bytes.insert(at % (n + 1), b),
                Edit::Swap(a, b) => bytes.swap(a % n, b % n),
            }
        }
        prop_assert_eq!(unwinds(&bytes, MODES[mode]), None);
    }
}
