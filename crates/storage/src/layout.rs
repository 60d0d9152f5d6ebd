//! Mapping tables into the simulator's global-memory address space.
//!
//! Each column gets its own `TableData` region; kernels then report their
//! tile scans as address-range accesses over these regions, so the cache
//! simulator sees the same streams a columnar GPU engine would generate.

use crate::table::Table;
use gpl_sim::mem::{MemRange, MemoryMap, RegionClass, RegionId};
use std::ops::Range;

/// Per-column simulated placement of one table.
#[derive(Debug, Clone)]
pub struct TableLayout {
    table: String,
    regions: Vec<RegionId>,
    bases: Vec<u64>,
    widths: Vec<u64>,
    rows: usize,
}

impl TableLayout {
    /// Allocate one region per column of `table`.
    pub fn install(mem: &mut MemoryMap, table: &Table) -> Self {
        let mut regions = Vec::with_capacity(table.num_columns());
        let mut bases = Vec::with_capacity(table.num_columns());
        let mut widths = Vec::with_capacity(table.num_columns());
        for (name, col) in table.columns() {
            let w = col.data_type().width();
            let id = mem.alloc(
                w * table.rows() as u64,
                RegionClass::TableData,
                format!("{}.{}", table.name(), name),
            );
            bases.push(mem.base(id));
            widths.push(w);
            regions.push(id);
        }
        TableLayout {
            table: table.name().to_string(),
            regions,
            bases,
            widths,
            rows: table.rows(),
        }
    }

    pub fn table(&self) -> &str {
        &self.table
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn region(&self, col: usize) -> RegionId {
        self.regions[col]
    }

    /// Read access covering `rows` of column `col`.
    pub fn scan(&self, col: usize, rows: Range<usize>) -> MemRange {
        debug_assert!(rows.end <= self.rows, "scan past end of {}", self.table);
        let w = self.widths[col];
        MemRange::read(
            self.bases[col] + rows.start as u64 * w,
            (rows.len() as u64) * w,
        )
    }

    /// Random (gather) access to a single element of column `col`.
    pub fn element(&self, col: usize, row: usize) -> MemRange {
        debug_assert!(row < self.rows);
        let w = self.widths[col];
        MemRange::read(self.bases[col] + row as u64 * w, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn layout() -> (MemoryMap, TableLayout) {
        let t = Table::new(
            "t",
            vec![
                ("a".into(), Column::i32(vec![0; 100])),
                ("b".into(), Column::decimal(vec![0; 100])),
            ],
        );
        let mut mem = MemoryMap::new();
        let l = TableLayout::install(&mut mem, &t);
        (mem, l)
    }

    #[test]
    fn regions_are_per_column_and_sized() {
        let (mem, l) = layout();
        assert_eq!(mem.len(), 2);
        assert_eq!(mem.region(l.region(0)).bytes, 400);
        assert_eq!(mem.region(l.region(1)).bytes, 800);
        assert_eq!(mem.region(l.region(0)).class, RegionClass::TableData);
        assert_eq!(mem.region(l.region(0)).label, "t.a");
    }

    #[test]
    fn scan_addresses_match_widths() {
        let (_, l) = layout();
        let r = l.scan(1, 10..20);
        assert_eq!(r.bytes, 80);
        assert_eq!(r.addr, l.scan(1, 0..1).addr + 80);
        assert!(!r.write);
    }

    #[test]
    fn element_is_one_width() {
        let (_, l) = layout();
        assert_eq!(l.element(0, 3).bytes, 4);
        assert_eq!(l.element(1, 3).bytes, 8);
        assert_eq!(l.element(0, 3).addr, l.scan(0, 0..1).addr + 12);
    }
}
