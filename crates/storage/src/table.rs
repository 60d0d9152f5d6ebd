//! Tables: named collections of equal-length columns.

use crate::column::Column;
use crate::types::DataType;

/// A named, columnar table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    columns: Vec<(String, Column)>,
    rows: usize,
}

impl Table {
    /// Build a table; all columns must have the same length.
    pub fn new(name: impl Into<String>, columns: Vec<(String, Column)>) -> Self {
        let rows = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
        for (n, c) in &columns {
            assert_eq!(
                c.len(),
                rows,
                "column {n} has {} rows, expected {rows}",
                c.len()
            );
        }
        Table {
            name: name.into(),
            columns,
            rows,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column index by name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Column by name; panics with a helpful message if absent (queries
    /// reference a fixed schema, so absence is a programming error).
    pub fn col(&self, name: &str) -> &Column {
        let idx = self
            .col_index(name)
            .unwrap_or_else(|| panic!("table {} has no column {name:?}", self.name));
        &self.columns[idx].1
    }

    pub fn col_at(&self, idx: usize) -> &Column {
        &self.columns[idx].1
    }

    pub fn columns(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.columns.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Bytes one row occupies across all columns (drives tiling).
    pub fn row_bytes(&self) -> u64 {
        self.columns
            .iter()
            .map(|(_, c)| c.data_type().width())
            .sum()
    }

    /// Total bytes of the table in simulated memory.
    pub fn total_bytes(&self) -> u64 {
        self.row_bytes() * self.rows as u64
    }

    /// Bytes the table's values take in host memory, summed over
    /// [`Column::host_bytes`].
    pub fn host_bytes(&self) -> u64 {
        self.columns.iter().map(|(_, c)| c.host_bytes()).sum()
    }

    /// Schema as (name, type) pairs.
    pub fn schema(&self) -> Vec<(String, DataType)> {
        self.columns
            .iter()
            .map(|(n, c)| (n.clone(), c.data_type()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        Table::new(
            "t",
            vec![
                ("a".into(), Column::i32(vec![1, 2, 3])),
                ("b".into(), Column::decimal(vec![100, 200, 300])),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let t = t();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.col("a").get_i64(1), 2);
        assert_eq!(t.col_index("b"), Some(1));
        assert_eq!(t.col_index("z"), None);
        assert_eq!(t.row_bytes(), 4 + 8);
        assert_eq!(t.total_bytes(), 36);
        assert_eq!(t.host_bytes(), 3 + 2 * 3, "1-byte a, 2-byte b");
        assert_eq!(t.schema()[1], ("b".to_string(), DataType::Decimal));
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn missing_column_panics() {
        t().col("nope");
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn ragged_columns_panic() {
        Table::new(
            "bad",
            vec![
                ("a".into(), Column::i32(vec![1])),
                ("b".into(), Column::i32(vec![1, 2])),
            ],
        );
    }

    #[test]
    fn empty_table() {
        let t = Table::new("e", vec![]);
        assert_eq!(t.rows(), 0);
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.host_bytes(), 0);
    }
}
