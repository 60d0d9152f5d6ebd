//! Tiling (Section 3.3).
//!
//! GPL logically partitions an input relation `R` into tiles `R*` of
//! (nearly) the same size; one tile at a time is scheduled as input to a
//! segment's pipeline. The tile size Δ is a first-class tuning knob of
//! the cost model: too small under-utilizes the pipeline and the
//! channels, too large thrashes the cache (Figure 12).

use std::ops::Range;

/// A logical partition of `rows` rows into fixed-size tiles (the last one
/// may be short).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    rows: usize,
    rows_per_tile: usize,
}

impl Tiling {
    /// Tile `rows` rows so that each tile spans at most `tile_bytes` of
    /// the driving relation, whose rows occupy `row_bytes` each.
    pub fn by_bytes(rows: usize, row_bytes: u64, tile_bytes: u64) -> Self {
        let row_bytes = row_bytes.max(1);
        let rows_per_tile = (tile_bytes / row_bytes).max(1) as usize;
        Tiling {
            rows,
            rows_per_tile,
        }
    }

    /// A single tile covering everything (KBE processes untiled input).
    pub fn whole(rows: usize) -> Self {
        Tiling {
            rows,
            rows_per_tile: rows.max(1),
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn rows_per_tile(&self) -> usize {
        self.rows_per_tile
    }

    pub fn num_tiles(&self) -> usize {
        if self.rows == 0 {
            0
        } else {
            self.rows.div_ceil(self.rows_per_tile)
        }
    }

    /// Row range of tile `i`.
    pub fn tile(&self, i: usize) -> Range<usize> {
        let start = i * self.rows_per_tile;
        assert!(
            start < self.rows || (self.rows == 0 && i == 0),
            "tile {i} out of range"
        );
        start..self.rows.min(start + self.rows_per_tile)
    }

    /// Iterate over all tile ranges.
    pub fn iter(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.num_tiles()).map(|i| self.tile(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_partition_the_rows() {
        let t = Tiling::by_bytes(10, 1, 3);
        let tiles: Vec<_> = t.iter().collect();
        assert_eq!(tiles, vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(t.num_tiles(), 4);
        // Partition: disjoint union covering 0..rows.
        let total: usize = tiles.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn by_bytes_converts_to_rows() {
        // 16-byte rows, 64-byte tiles => 4 rows per tile.
        let t = Tiling::by_bytes(100, 16, 64);
        assert_eq!(t.rows_per_tile(), 4);
        assert_eq!(t.num_tiles(), 25);
    }

    #[test]
    fn tiny_tile_bytes_still_progress() {
        let t = Tiling::by_bytes(5, 100, 1);
        assert_eq!(t.rows_per_tile(), 1);
        assert_eq!(t.num_tiles(), 5);
    }

    #[test]
    fn whole_is_one_tile() {
        let t = Tiling::whole(42);
        assert_eq!(t.num_tiles(), 1);
        assert_eq!(t.tile(0), 0..42);
    }

    #[test]
    fn empty_input_has_no_tiles() {
        let t = Tiling::by_bytes(0, 1, 8);
        assert_eq!(t.num_tiles(), 0);
        assert_eq!(t.iter().count(), 0);
    }
}
