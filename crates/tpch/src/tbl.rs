//! dbgen-compatible `.tbl` text serialization.
//!
//! The reference TPC-H `dbgen` emits pipe-separated, pipe-terminated
//! text rows (`1|Customer#000000001|...|`). This module writes our
//! columnar tables in that format — dates as `yyyy-mm-dd`, decimals with
//! two places, dictionary columns as their strings — and reads them
//! back, so a downstream user can diff this generator against real
//! `dbgen` output or feed externally generated data into the engines.
//!
//! Reading is *schema-directed*: [`read_tbl_like`] parses each field
//! under the corresponding column type of a template table (and interns
//! strings against the template's dictionary), so a full
//! write-then-read round trip reproduces the original table exactly,
//! codes and all.

use crate::db::TpchDb;
use gpl_storage::{Column, ColumnBuilder, DataType, Date, Table};
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Format one field of `col` at `row` in dbgen's text conventions.
fn format_field(col: &Column, row: usize) -> String {
    let x = col.get_i64(row);
    match (col.data_type(), col.dictionary()) {
        (DataType::Date, _) => Date::from_days(x as i32).to_string(),
        (DataType::Decimal, _) => {
            let sign = if x < 0 { "-" } else { "" };
            let a = x.unsigned_abs();
            format!("{sign}{}.{:02}", a / 100, a % 100)
        }
        (DataType::Dict, Some(d)) => d.get(x as u32).to_string(),
        _ => x.to_string(),
    }
}

/// Render one row as a dbgen line (fields `|`-separated and
/// `|`-terminated, no newline).
pub fn format_row(t: &Table, row: usize) -> String {
    let mut s = String::new();
    for (_, col) in t.columns() {
        s.push_str(&format_field(col, row));
        s.push('|');
    }
    s
}

/// Write the whole table in `.tbl` format.
pub fn write_tbl<W: Write>(t: &Table, w: &mut W) -> io::Result<()> {
    for row in 0..t.rows() {
        writeln!(w, "{}", format_row(t, row))?;
    }
    Ok(())
}

/// Parse error with row/column context.
fn perr(table: &str, line: usize, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{table}.tbl line {line}: {what}"),
    )
}

fn parse_decimal(s: &str) -> Option<i64> {
    let (sign, body) = match s.strip_prefix('-') {
        Some(b) => (-1i64, b),
        None => (1, s),
    };
    let (units, cents) = match body.split_once('.') {
        Some((u, c)) => (u, c),
        None => (body, "00"),
    };
    if cents.len() != 2 {
        return None;
    }
    let u: i64 = units.parse().ok()?;
    let c: i64 = cents.parse().ok()?;
    Some(sign * (u * 100 + c))
}

/// Read a `.tbl` stream under the schema (and dictionaries) of
/// `template`. The data may differ from the template's; only column
/// count, types, and dictionary *domains* must match.
pub fn read_tbl_like<R: BufRead>(template: &Table, r: R) -> io::Result<Table> {
    let name = template.name().to_string();
    let mut builders: Vec<(&str, ColumnBuilder)> = template
        .columns()
        .map(|(n, c)| (n, ColumnBuilder::like(c)))
        .collect();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let row = line
            .strip_suffix('|')
            .ok_or_else(|| perr(&name, lineno + 1, "missing trailing field separator"))?;
        let fields: Vec<&str> = row.split('|').collect();
        if fields.len() != builders.len() {
            return Err(perr(
                &name,
                lineno + 1,
                format!("{} fields, schema has {}", fields.len(), builders.len()),
            ));
        }
        for ((cname, b), f) in builders.iter_mut().zip(fields) {
            // Each field parses at its logical type, so an `I32` or `Date`
            // field outside `i32` is an error before it reaches the builder.
            let (x, what) = match b.data_type() {
                DataType::I32 => (f.parse::<i32>().map(i64::from).ok(), "bad integer"),
                DataType::I64 => (f.parse().ok(), "bad integer"),
                DataType::Date => (Date::parse(f).map(|d| d.to_days().into()), "bad date"),
                DataType::Decimal => (parse_decimal(f), "bad decimal"),
                DataType::Dict => (
                    b.dictionary().and_then(|d| d.code_of(f)).map(i64::from),
                    "not in the template dictionary:",
                ),
            };
            let x = x.ok_or_else(|| perr(&name, lineno + 1, format!("{cname}: {what} {f:?}")))?;
            b.push(x);
        }
    }
    let columns = builders
        .into_iter()
        .map(|(n, b)| (n.to_string(), b.finish()))
        .collect();
    Ok(Table::new(name, columns))
}

/// Write all eight relations as `<dir>/<table>.tbl` (dbgen's layout).
pub fn export_db(db: &TpchDb, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for t in db.tables() {
        let mut f = io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{}.tbl", t.name())),
        )?);
        write_tbl(t, &mut f)?;
        f.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn db() -> TpchDb {
        TpchDb::at_scale(0.002)
    }

    #[test]
    fn every_table_round_trips_exactly() {
        let db = db();
        for t in db.tables() {
            let mut buf = Vec::new();
            write_tbl(t, &mut buf).unwrap();
            let back = read_tbl_like(t, BufReader::new(&buf[..])).unwrap();
            assert_eq!(&back, t, "{} did not round-trip", t.name());
        }
    }

    #[test]
    fn format_matches_dbgen_conventions() {
        let db = db();
        let line = format_row(&db.nation, 0);
        // nation row 0: key 0, ALGERIA, region 0 — pipe-terminated.
        assert_eq!(line, "0|ALGERIA|0|");
        let li = format_row(&db.lineitem, 0);
        assert!(li.ends_with('|'), "{li}");
        // Dates render as yyyy-mm-dd.
        let fields: Vec<&str> = li.trim_end_matches('|').split('|').collect();
        assert_eq!(fields.len(), db.lineitem.num_columns());
        let shipdate_idx = db.lineitem.col_index("l_shipdate").unwrap();
        assert_eq!(fields[shipdate_idx].len(), 10, "{}", fields[shipdate_idx]);
        // Decimals carry exactly two places.
        let disc_idx = db.lineitem.col_index("l_discount").unwrap();
        assert!(fields[disc_idx].contains('.'), "{}", fields[disc_idx]);
    }

    #[test]
    fn negative_decimals_round_trip() {
        assert_eq!(parse_decimal("-999.99"), Some(-99_999));
        assert_eq!(parse_decimal("0.05"), Some(5));
        assert_eq!(parse_decimal("12"), Some(1_200));
        assert_eq!(
            parse_decimal("1.5"),
            None,
            "one decimal place is not dbgen format"
        );
        // And via a full column: customer acctbal can be negative.
        let db = db();
        let mut buf = Vec::new();
        write_tbl(&db.customer, &mut buf).unwrap();
        let back = read_tbl_like(&db.customer, BufReader::new(&buf[..])).unwrap();
        assert_eq!(&back, &db.customer);
    }

    #[test]
    fn parse_errors_carry_context() {
        let db = db();
        let cases = [
            ("0|ALGERIA|0", "missing trailing"),
            ("0|ALGERIA|", "fields, schema has"),
            ("x|ALGERIA|0|", "bad integer"),
            ("2147483648|ALGERIA|0|", "bad integer"),
            ("0|ATLANTIS|0|", "not in the template dictionary"),
        ];
        for (line, want) in cases {
            let e = read_tbl_like(&db.nation, BufReader::new(line.as_bytes()))
                .expect_err(line)
                .to_string();
            assert!(e.contains(want), "{line}: got {e}");
            assert!(e.contains("nation.tbl line 1"), "{e}");
        }
    }

    #[test]
    fn export_db_writes_all_relations() {
        let db = db();
        let dir = std::env::temp_dir().join("gpl-tbl-export-test");
        let _ = std::fs::remove_dir_all(&dir);
        export_db(&db, &dir).unwrap();
        for t in db.tables() {
            let p = dir.join(format!("{}.tbl", t.name()));
            let f = std::fs::File::open(&p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            let back = read_tbl_like(t, BufReader::new(f)).unwrap();
            assert_eq!(back.rows(), t.rows(), "{}", t.name());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
