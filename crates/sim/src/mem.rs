//! Simulated global-memory address space.
//!
//! The simulator is *trace driven*: operators compute real results on real
//! Rust data, but every load/store they would issue on the GPU is reported
//! as a [`MemRange`] against a simulated address space. The [`MemoryMap`]
//! hands out non-overlapping regions (table columns, intermediate buffers,
//! hash tables, channel buffers) so that the cache simulator sees a
//! realistic, conflict-prone address stream, and so the materialization
//! counters (Figures 3, 17, 18) can attribute written bytes to a
//! [`RegionClass`].

use std::fmt;

/// What a region of simulated memory holds. Used to attribute traffic:
/// Figure 3 / 17 / 18 count bytes written to `Intermediate` and
/// `HashTable` regions (the paper counts hash tables built by blocking
/// kernels as materialized intermediates), while `TableData` is the input
/// and `Output` the final result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegionClass {
    /// Base table columns (the query input).
    TableData,
    /// Intermediate results materialized in global memory between kernels.
    Intermediate,
    /// Hash tables built by (blocking) hash-build kernels.
    HashTable,
    /// Channel (pipe) backing buffers — on-device, cache-resident traffic.
    ChannelBuf,
    /// Final query output.
    Output,
    /// Scratch space (prefix-sum temporaries etc.), counted as intermediate
    /// traffic but reported separately for breakdowns.
    Scratch,
}

impl RegionClass {
    /// Number of variants (for array-indexed per-class counters).
    pub const COUNT: usize = 6;

    /// All variants in declaration order, matching [`RegionClass::index`].
    pub const ALL: [RegionClass; Self::COUNT] = [
        RegionClass::TableData,
        RegionClass::Intermediate,
        RegionClass::HashTable,
        RegionClass::ChannelBuf,
        RegionClass::Output,
        RegionClass::Scratch,
    ];

    /// Dense index into [`RegionClass::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether writes to this class count as "intermediate results
    /// materialized in the global memory" for Figures 3/17/18.
    pub fn is_materialized_intermediate(self) -> bool {
        matches!(
            self,
            RegionClass::Intermediate | RegionClass::HashTable | RegionClass::Scratch
        )
    }
}

/// A contiguous simulated-address range with a class and a label.
#[derive(Debug, Clone)]
pub struct Region {
    pub base: u64,
    pub bytes: u64,
    pub class: RegionClass,
    pub label: String,
}

/// Handle to an allocated region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub u32);

/// One load/store range as reported by a work unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRange {
    pub addr: u64,
    pub bytes: u64,
    pub write: bool,
}

impl MemRange {
    pub fn read(addr: u64, bytes: u64) -> Self {
        MemRange {
            addr,
            bytes,
            write: false,
        }
    }
    pub fn write(addr: u64, bytes: u64) -> Self {
        MemRange {
            addr,
            bytes,
            write: true,
        }
    }
}

/// Bump allocator over the simulated 64-bit address space.
///
/// Regions are aligned to 256 bytes (a cache-line multiple) so that
/// distinct buffers never share a line, matching how GPU allocators align
/// buffers.
#[derive(Debug, Clone, Default)]
pub struct MemoryMap {
    regions: Vec<Region>,
    next: u64,
}

const ALIGN: u64 = 256;

impl MemoryMap {
    pub fn new() -> Self {
        // Leave the null page unmapped to catch zero-address bugs.
        MemoryMap {
            regions: Vec::new(),
            next: 4096,
        }
    }

    /// Allocate `bytes` of simulated memory.
    pub fn alloc(&mut self, bytes: u64, class: RegionClass, label: impl Into<String>) -> RegionId {
        let base = self.next.div_ceil(ALIGN) * ALIGN;
        self.next = base + bytes.max(1);
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            base,
            bytes: bytes.max(1),
            class,
            label: label.into(),
        });
        id
    }

    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// Base address of a region.
    pub fn base(&self, id: RegionId) -> u64 {
        self.regions[id.0 as usize].base
    }

    /// Classify an address. Addresses are dense-ish and region count is
    /// modest (columns + intermediates), so a binary search is plenty.
    pub fn classify(&self, addr: u64) -> Option<RegionClass> {
        self.region_at(addr).map(|(_, r)| r.class)
    }

    /// The region holding `addr`, with its id. The engine keeps the
    /// answer as a memo — work units touch runs of ranges inside one
    /// region — and asks again only when an address leaves it.
    pub fn region_at(&self, addr: u64) -> Option<(RegionId, &Region)> {
        // Regions are allocated in increasing base order.
        let idx = self.regions.partition_point(|r| r.base <= addr);
        let r = self.regions.get(idx.checked_sub(1)?)?;
        (addr < r.base + r.bytes).then_some((RegionId(idx as u32 - 1), r))
    }

    /// Number of live regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    pub fn regions(&self) -> &[Region] {
        &self.regions
    }
}

impl fmt::Display for MemoryMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.regions {
            writeln!(
                f,
                "{:#014x}..{:#014x} {:>10}B {:?} {}",
                r.base,
                r.base + r.bytes,
                r.bytes,
                r.class,
                r.label
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap_and_are_aligned() {
        let mut m = MemoryMap::new();
        let a = m.alloc(1000, RegionClass::TableData, "a");
        let b = m.alloc(1, RegionClass::Intermediate, "b");
        let c = m.alloc(4096, RegionClass::HashTable, "c");
        let (ra, rb, rc) = (
            m.region(a).clone(),
            m.region(b).clone(),
            m.region(c).clone(),
        );
        assert!(ra.base % ALIGN == 0 && rb.base % ALIGN == 0 && rc.base % ALIGN == 0);
        assert!(ra.base + ra.bytes <= rb.base);
        assert!(rb.base + rb.bytes <= rc.base);
    }

    #[test]
    fn classify_finds_owning_region() {
        let mut m = MemoryMap::new();
        let a = m.alloc(128, RegionClass::TableData, "a");
        let b = m.alloc(128, RegionClass::Output, "b");
        assert_eq!(m.classify(m.base(a)), Some(RegionClass::TableData));
        assert_eq!(m.classify(m.base(a) + 127), Some(RegionClass::TableData));
        assert_eq!(m.classify(m.base(b) + 5), Some(RegionClass::Output));
        assert_eq!(m.classify(0), None);
        assert_eq!(m.classify(m.base(b) + 100_000), None);
    }

    #[test]
    fn intermediate_classes() {
        assert!(RegionClass::Intermediate.is_materialized_intermediate());
        assert!(RegionClass::HashTable.is_materialized_intermediate());
        assert!(RegionClass::Scratch.is_materialized_intermediate());
        assert!(!RegionClass::TableData.is_materialized_intermediate());
        assert!(!RegionClass::ChannelBuf.is_materialized_intermediate());
        assert!(!RegionClass::Output.is_materialized_intermediate());
    }

    #[test]
    fn zero_sized_alloc_gets_distinct_address() {
        let mut m = MemoryMap::new();
        let a = m.alloc(0, RegionClass::Scratch, "a");
        let b = m.alloc(0, RegionClass::Scratch, "b");
        assert_ne!(m.base(a), m.base(b));
    }
}
