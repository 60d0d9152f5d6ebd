//! Comparable query results.
//!
//! Group keys are kept in their encoded integer form (dictionary codes,
//! years) and aggregates as 64-bit fixed-point values, so the CPU
//! reference, KBE, GPL and Ocelot outputs can be compared exactly. Rows
//! are ordered by the query's `ORDER BY`, with the remaining columns as a
//! deterministic tie-break.

/// Sort directive: column index and descending flag.
pub type OrderBy = (usize, bool);

/// A query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// Column names (keys first, then aggregates).
    pub columns: Vec<String>,
    /// Rows of encoded values.
    pub rows: Vec<Vec<i64>>,
}

impl QueryOutput {
    pub fn new(columns: Vec<&str>, rows: Vec<Vec<i64>>) -> Self {
        let out = QueryOutput {
            columns: columns.into_iter().map(str::to_string).collect(),
            rows,
        };
        for r in &out.rows {
            assert_eq!(r.len(), out.columns.len(), "ragged result row");
        }
        out
    }

    /// Sort rows by `order`, breaking ties with every remaining column
    /// ascending so equal inputs give identical outputs.
    pub fn sort_by(&mut self, order: &[OrderBy]) {
        let width = self.columns.len();
        let order = order.to_vec();
        self.rows.sort_by(|a, b| {
            for &(col, desc) in &order {
                let c = a[col].cmp(&b[col]);
                if c != std::cmp::Ordering::Equal {
                    return if desc { c.reverse() } else { c };
                }
            }
            for col in 0..width {
                let c = a[col].cmp(&b[col]);
                if c != std::cmp::Ordering::Equal {
                    return c;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// FNV-1a over the row count and every value in row order (column
    /// names excluded): the digest bench artifacts and sharded-run checks
    /// compare results by.
    pub fn fingerprint(&self) -> u64 {
        let mut h = gpl_prng::Fnv1a::new();
        h.write_u64(self.rows.len() as u64);
        for row in &self.rows {
            for v in row {
                h.write(&v.to_le_bytes());
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_desc_with_tiebreak() {
        let mut q = QueryOutput::new(vec!["k", "v"], vec![vec![2, 10], vec![1, 20], vec![3, 20]]);
        q.sort_by(&[(1, true)]);
        assert_eq!(q.rows, vec![vec![1, 20], vec![3, 20], vec![2, 10]]);
    }

    #[test]
    fn sort_multi_key() {
        let mut q = QueryOutput::new(
            vec!["y", "n", "v"],
            vec![vec![1996, 2, 5], vec![1995, 9, 1], vec![1996, 1, 7]],
        );
        q.sort_by(&[(0, false), (1, false)]);
        assert_eq!(q.rows[0], vec![1995, 9, 1]);
        assert_eq!(q.rows[1], vec![1996, 1, 7]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        QueryOutput::new(vec!["a", "b"], vec![vec![1]]);
    }
}
