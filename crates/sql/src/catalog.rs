//! Schema metadata the binder and planner consult: tables, column types,
//! dictionaries, and primary keys (which decide the legal hash-join
//! build sides).

use crate::token::{err, SqlError};
use gpl_storage::{DataType, Table};
use gpl_tpch::TpchDb;

/// Primary key of each TPC-H relation (build sides must be unique keys;
/// LINEITEM has no usable single-column key and is never a build side).
pub fn primary_key(table: &str) -> &'static [&'static str] {
    match table {
        "region" => &["r_regionkey"],
        "nation" => &["n_nationkey"],
        "supplier" => &["s_suppkey"],
        "customer" => &["c_custkey"],
        "part" => &["p_partkey"],
        "orders" => &["o_orderkey"],
        "partsupp" => &["ps_partkey", "ps_suppkey"],
        _ => &[],
    }
}

/// The relations whose size does not scale with SF: TPC-H fixes them at
/// 25 nations and 5 regions. The planner evaluates their filters at plan
/// time and folds them into key sets (`crate::infer`, rule (c)).
pub const FIXED_SIZE: &[&str] = &["nation", "region"];

/// The keys of a relation whose one-column primary key is numbered
/// densely, as an inclusive range: the generator numbers parts,
/// suppliers, customers and orders `1..=rows`, nations and regions
/// `0..rows`. Partsupp's key is composite and lineitem has none.
pub fn key_domain(table: &str, rows: usize) -> Option<(i64, i64)> {
    let rows = rows as i64;
    match table {
        "part" | "supplier" | "customer" | "orders" => Some((1, rows)),
        "nation" | "region" => Some((0, rows - 1)),
        _ => None,
    }
}

/// A catalog over a generated database.
pub struct Catalog<'a> {
    pub db: &'a TpchDb,
}

impl<'a> Catalog<'a> {
    pub fn new(db: &'a TpchDb) -> Self {
        Catalog { db }
    }

    pub fn table(&self, name: &str) -> Result<&'a Table, SqlError> {
        const TABLES: &[&str] = &[
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        ];
        if TABLES.contains(&name) {
            Ok(self.db.table(name))
        } else {
            err(format!("unknown table {name:?}"))
        }
    }

    /// The type of `table.column`.
    pub fn column_type(&self, table: &str, column: &str) -> Result<DataType, SqlError> {
        let t = self.table(table)?;
        match t.col_index(column) {
            Some(i) => Ok(t.col_at(i).data_type()),
            None => err(format!("table {table:?} has no column {column:?}")),
        }
    }

    /// Dictionary code for a string literal compared against a dict
    /// column; unknown strings get a never-matching sentinel.
    pub fn dict_code(&self, table: &str, column: &str, value: &str) -> Result<i64, SqlError> {
        let t = self.table(table)?;
        let col = t.col(column);
        let Some(dict) = col.dictionary() else {
            return err(format!("{table}.{column} is not a string column"));
        };
        Ok(dict.code_of(value).map(|c| c as i64).unwrap_or(-1))
    }

    /// Codes of all dictionary entries that `keep` accepts: `LIKE 'p%'`,
    /// and `<`, `<=`, `>`, `>=` against a string, whose order is not code
    /// order (codes are first-seen).
    pub fn dict_codes_where(
        &self,
        table: &str,
        column: &str,
        keep: impl Fn(&str) -> bool,
    ) -> Result<Vec<i64>, SqlError> {
        let t = self.table(table)?;
        let col = t.col(column);
        let Some(dict) = col.dictionary() else {
            return err(format!("{table}.{column} is not a string column"));
        };
        Ok(dict
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| keep(e))
            .map(|(i, _)| i as i64)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_domains_match_the_generated_keys() {
        let db = TpchDb::at_scale(0.002);
        for name in ["region", "nation", "supplier", "customer", "part", "orders"] {
            let t = db.table(name);
            let [pk] = primary_key(name) else {
                unreachable!("{name} has a one-column key")
            };
            let mut keys = t.col(pk).range_i64(0, t.rows());
            keys.sort_unstable();
            let (lo, hi) = key_domain(name, t.rows()).unwrap();
            assert_eq!(keys, (lo..=hi).collect::<Vec<_>>(), "{name}");
        }
        assert_eq!(key_domain("partsupp", 8), None);
    }

    #[test]
    fn resolves_tables_types_and_dictionaries() {
        let db = TpchDb::at_scale(0.002);
        let c = Catalog::new(&db);
        assert!(c.table("lineitem").is_ok());
        assert!(c.table("widgets").is_err());
        assert_eq!(
            c.column_type("lineitem", "l_extendedprice").unwrap(),
            DataType::Decimal
        );
        assert_eq!(
            c.column_type("orders", "o_orderdate").unwrap(),
            DataType::Date
        );
        assert!(c.column_type("orders", "nope").is_err());
        assert!(c.dict_code("region", "r_name", "ASIA").unwrap() >= 0);
        assert_eq!(c.dict_code("region", "r_name", "MARS").unwrap(), -1);
        assert_eq!(
            c.dict_codes_where("part", "p_type", |e| e.starts_with("PROMO"))
                .unwrap()
                .len(),
            25
        );
        assert!(c.dict_code("orders", "o_orderdate", "x").is_err());
    }

    fn count(db: &TpchDb, sql: &str) -> i64 {
        let mut ctx = gpl_core::ExecContext::new(gpl_sim::amd_a10(), db.clone());
        let run = crate::run_sql(&mut ctx, sql, gpl_core::ExecMode::Gpl).expect(sql);
        run.output.rows[0][0]
    }

    #[test]
    fn string_comparisons_follow_string_order_not_code_order() {
        // Dictionaries keep first-seen order (nations in key order), so
        // comparing codes would count `n_name < 'D'` as 0, not 5.
        let db = TpchDb::at_scale(0.002);
        let holds = |op: &str, a: &str, b: &str| match op {
            "=" => a == b,
            "<>" => a != b,
            "<" => a < b,
            "<=" => a <= b,
            ">" => a > b,
            _ => a >= b,
        };
        let cases = [
            ("nation", "n_name", ["CHINA", "D", "PERU"]),
            ("region", "r_name", ["ASIA", "B", "A"]),
        ];
        for (table, column, literals) in cases {
            let col = db.table(table).col(column);
            let dict = col.dictionary().expect("string column");
            let names: Vec<&str> = (0..col.len())
                .map(|r| dict.get(col.get_i64(r) as u32))
                .collect();
            for lit in literals {
                for op in ["=", "<>", "<", "<=", ">", ">="] {
                    let sql = format!("select count(*) from {table} where {column} {op} '{lit}'");
                    let truth = names.iter().filter(|n| holds(op, n, lit)).count() as i64;
                    assert_eq!(count(&db, &sql), truth, "{sql}");
                }
            }
        }
    }

    #[test]
    fn primary_keys() {
        assert_eq!(primary_key("orders"), &["o_orderkey"]);
        assert_eq!(primary_key("partsupp"), &["ps_partkey", "ps_suppkey"]);
        assert!(primary_key("lineitem").is_empty());
    }
}
