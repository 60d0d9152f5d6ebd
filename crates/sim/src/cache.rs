//! Set-associative, write-back, write-allocate LRU cache simulator.
//!
//! This is the mechanism behind two of the paper's central observations:
//! cache thrashing when a tile (or channel working set) outgrows the data
//! cache (Section 2.1 / 3.3), and the extra data locality exposed by
//! channels — the consumer work-group reads packets "very likely still
//! resident in cache" (Section 3.4). Accesses are simulated at cache-line
//! granularity in event order.

use crate::mem::MemRange;

/// Tag stored in invalid ways, unreachable as a real tag — so the hit
/// scan needs no separate valid check. Tags are kept in 32 bits to
/// halve the hot arrays' footprint (the way scans are memory bound);
/// a line's tag is `addr / line_bytes / sets`, and every access
/// asserts its tags fit (with ≥64-byte lines and ≥512 sets that allows
/// a 2^46-byte simulated address space — far above any workload here).
const INVALID_TAG: u32 = u32::MAX;

/// Outcome of a range access, in lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    pub hit_lines: u64,
    pub miss_lines: u64,
    /// Dirty lines evicted (write-back traffic to global memory).
    pub writebacks: u64,
}

impl AccessStats {
    pub fn total(&self) -> u64 {
        self.hit_lines + self.miss_lines
    }
    pub fn merge(&mut self, o: AccessStats) {
        self.hit_lines += o.hit_lines;
        self.miss_lines += o.miss_lines;
        self.writebacks += o.writebacks;
    }
}

/// Aggregate outcome of [`CacheSim::access_batch`]: line stats plus the
/// byte attribution the engine charges to the memory hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchAccess {
    pub stats: AccessStats,
    /// Requested bytes served from cache (hit-line-proportional share of
    /// each range).
    pub hit_bytes: u64,
    /// Whole-line DRAM traffic: fills plus write-backs.
    pub miss_bytes: u64,
    /// At least one non-empty range was accessed.
    pub any: bool,
    /// At least one line missed.
    pub any_miss: bool,
}

/// The simulated last-level data cache shared by all CUs.
///
/// Ways are stored struct-of-arrays (tags / LRU stamps / dirty bits)
/// so the per-set hit scan and victim scan walk small contiguous
/// slices; both arrays are 32-bit, since the scans are bound by bytes
/// touched. A stamp of `0` means *invalid*: the LRU clock is
/// pre-incremented before stamping, so every resident line has a
/// stamp ≥ 1 and resident stamps are unique — which also makes the
/// victim choice ("an invalid way, else the minimum stamp") a plain
/// argmin over the stamp slice. When the 32-bit clock is about to
/// wrap, resident stamps are renumbered to their rank order (exact:
/// LRU only ever compares stamps, so rank order decides identically).
pub struct CacheSim {
    geo: Geometry,
    tags: Vec<u32>,
    /// LRU stamp per way; 0 = invalid.
    stamps: Vec<u32>,
    dirty: Vec<bool>,
    clock: u32,
    /// Same-line memo: the line number of the most recent touch
    /// ([`NO_LINE`] before the first) and the way slot it landed in.
    /// Nothing else has touched the cache since, so that line is
    /// resident in exactly that way, and touching it again is a hit
    /// that needs no scan. Lazy gathers and sub-line channel packets
    /// repeat lines all the time.
    memo_line: u64,
    memo_way: usize,
    pub cum: AccessStats,
}

/// `memo_line` value that matches no line: line numbers are at most
/// `u64::MAX / line_bytes`.
const NO_LINE: u64 = u64::MAX;

/// The cache's shape, which the access kernel copies into locals.
#[derive(Clone, Copy)]
struct Geometry {
    line_bytes: u64,
    sets: u64,
    assoc: usize,
    /// `log2(line_bytes)` when it is a power of two (it practically
    /// always is); lets the kernel shift instead of divide.
    line_po2: Option<u32>,
    /// `(log2(sets), sets - 1)` when the set count is a power of two
    /// (the NVIDIA profile's 1.5 MiB L2 is the exception).
    sets_po2: Option<(u32, u64)>,
}

impl Geometry {
    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        match self.line_po2 {
            Some(sh) => addr >> sh,
            None => addr / self.line_bytes,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        match self.sets_po2 {
            Some((_, mask)) => (line & mask) as usize,
            None => (line % self.sets) as usize,
        }
    }

    #[inline]
    fn tag_of(&self, line: u64) -> u64 {
        match self.sets_po2 {
            Some((sh, _)) => line >> sh,
            None => line / self.sets,
        }
    }
}

/// Scalar way match: the index of `tag` in a set's tag slice. Tags are
/// unique within a set — a fill only installs a tag after a full scan
/// missed, and [`INVALID_TAG`] is unreachable — so the first match is
/// the only one. This is the body on every target but x86-64 and for
/// every associativity but 16.
#[inline]
fn find_way_scalar(tags: &[u32], tag: u32) -> Option<usize> {
    tags.iter().position(|&t| t == tag)
}

/// Scalar victim choice: the first way holding the minimum stamp.
#[inline]
fn min_stamp_scalar(stamps: &[u32]) -> (usize, u32) {
    let mut victim = 0;
    let mut best = stamps[0];
    for (i, &s) in stamps.iter().enumerate().skip(1) {
        if s < best {
            best = s;
            victim = i;
        }
    }
    (victim, best)
}

/// The two scans of a 16-way set as explicit SSE2, the x86-64 baseline
/// (no `target-cpu` flag, no runtime detection). Each equals its scalar
/// twin above, which the tests check.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_andnot_si128, _mm_cmpeq_epi32, _mm_cmpgt_epi32,
        _mm_cvtsi128_si32, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_packs_epi16,
        _mm_packs_epi32, _mm_set1_epi32, _mm_shuffle_epi32, _mm_xor_si128,
    };

    /// The sixteen values of a set as four vectors.
    #[inline]
    fn load(set: &[u32; 16]) -> [__m128i; 4] {
        let p = set.as_ptr().cast::<__m128i>();
        // SAFETY: the four unaligned 16-byte loads read exactly the 64
        // bytes behind `set`, which the reference keeps valid.
        unsafe {
            [
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            ]
        }
    }

    /// Index of the first way whose compare lane in `eq` is all-ones,
    /// 32 when none is: the lanes (all-ones or zero, which signed
    /// saturation keeps) pack down to a byte per way for one `movemask`.
    #[inline]
    fn first_way(eq: [__m128i; 4]) -> usize {
        // SAFETY: register-only SSE2 operations.
        let mask = unsafe {
            let bytes =
                _mm_packs_epi16(_mm_packs_epi32(eq[0], eq[1]), _mm_packs_epi32(eq[2], eq[3]));
            _mm_movemask_epi8(bytes) as u32
        };
        mask.trailing_zeros() as usize
    }

    /// [`super::find_way_scalar`] over a 16-way set: four 4-lane
    /// compares against the broadcast tag.
    #[inline]
    pub(super) fn find_way(tags: &[u32; 16], tag: u32) -> Option<usize> {
        // SAFETY: register-only SSE2 operations.
        let eq = unsafe {
            let t = _mm_set1_epi32(tag as i32);
            load(tags).map(|v| _mm_cmpeq_epi32(v, t))
        };
        let way = first_way(eq);
        (way < 16).then_some(way)
    }

    /// [`super::min_stamp_scalar`] over a 16-way set. SSE2 has no
    /// unsigned 32-bit minimum, so the stamps are biased into signed
    /// order, reduced with compare-and-blend, and the first way equal to
    /// the minimum is the victim.
    #[inline]
    pub(super) fn min_stamp(stamps: &[u32; 16]) -> (usize, u32) {
        // SAFETY: register-only SSE2 operations.
        unsafe {
            let bias = _mm_set1_epi32(i32::MIN);
            let v = load(stamps).map(|v| _mm_xor_si128(v, bias));
            let min = |a, b| {
                let gt = _mm_cmpgt_epi32(a, b);
                _mm_or_si128(_mm_andnot_si128(gt, a), _mm_and_si128(gt, b))
            };
            let m = min(min(v[0], v[1]), min(v[2], v[3]));
            let m = min(m, _mm_shuffle_epi32::<0b01_00_11_10>(m));
            let m = min(m, _mm_shuffle_epi32::<0b10_11_00_01>(m));
            let best = _mm_cvtsi128_si32(m) as u32 ^ 0x8000_0000;
            (first_way(v.map(|v| _mm_cmpeq_epi32(v, m))), best)
        }
    }
}

/// The way of a `W`-way set (0 = any width) holding `tag`. Sixteen ways
/// on x86-64 take the SSE2 body: left to the compiler, neither a
/// `position` nor a branch-free fixed-length loop becomes a packed
/// compare — it comes out as a compare and a conditional move per way.
#[inline]
fn find_way<const W: usize>(tags: &[u32], tag: u32) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if let (16, Ok(set)) = (W, tags.try_into()) {
        return sse2::find_way(set, tag);
    }
    find_way_scalar(tags, tag)
}

/// The victim way of a `W`-way set (0 = any width) and its stamp, with
/// the same split as [`find_way`]. On the builder's host the SSE2
/// argmin measured 20% under the scalar one per line of a streaming
/// scan and 7% under it on half-miss random traffic, so it is the one
/// kept for sixteen ways.
#[inline]
fn min_stamp<const W: usize>(stamps: &[u32]) -> (usize, u32) {
    #[cfg(target_arch = "x86_64")]
    if let (16, Ok(set)) = (W, stamps.try_into()) {
        return sse2::min_stamp(set);
    }
    min_stamp_scalar(stamps)
}

/// Exact LRU-preserving stamp compaction, run when the 32-bit clock is
/// about to wrap (once per ~4 billion line touches). Victim choice only
/// ever *compares* stamps — argmin, with 0 = invalid always preferred —
/// so rewriting resident stamps to their rank order `1..=n` and
/// restarting the clock at `n` (returned) changes no future decision.
#[cold]
fn renumber_stamps(stamps: &mut [u32]) -> u32 {
    let mut order: Vec<(u32, u32)> = stamps
        .iter()
        .enumerate()
        .filter(|&(_, &st)| st != 0)
        .map(|(i, &st)| (st, i as u32))
        .collect();
    order.sort_unstable();
    for (rank, &(_, i)) in order.iter().enumerate() {
        stamps[i as usize] = rank as u32 + 1;
    }
    order.len() as u32
}

/// The mutable way state of a [`CacheSim`], borrowed once per batch so
/// the per-line code works on locals instead of reloading `self.*`.
struct Ways<'a> {
    tags: &'a mut [u32],
    stamps: &'a mut [u32],
    dirty: &'a mut [bool],
    clock: u32,
}

impl Ways<'_> {
    /// Prefetch the metadata of the set whose first way slot is `base`.
    /// Purely a host-side hint.
    #[inline]
    fn prefetch(&self, base: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: the pointers are formed with `wrapping_add` and
            // never dereferenced; prefetch has no architectural effect
            // whatever the address.
            unsafe {
                _mm_prefetch(self.tags.as_ptr().wrapping_add(base).cast(), _MM_HINT_T0);
                _mm_prefetch(self.stamps.as_ptr().wrapping_add(base).cast(), _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = base;
    }

    /// Advance the LRU clock, renumbering stamps first if it is about
    /// to wrap.
    #[inline]
    fn tick(&mut self) {
        if self.clock == u32::MAX {
            self.clock = renumber_stamps(self.stamps);
        }
        self.clock += 1;
    }

    /// Touch the line resident in way slot `w`: tick, restamp, mark
    /// dirty on a write.
    #[inline]
    fn hit(&mut self, w: usize, write: bool) {
        self.tick();
        self.stamps[w] = self.clock;
        // Read hits leave the dirty array untouched — it lives on its
        // own host cache line, and the scans are bound by lines touched.
        if write {
            self.dirty[w] = true;
        }
    }

    /// Touch the line with `tag` in the set whose first way slot is
    /// `base`: the way match, then on a miss the victim argmin and the
    /// fill. Returns the way slot the line now occupies, whether it was
    /// a hit, and whether the fill wrote a dirty victim back. `W` is the
    /// associativity, or 0 for "whatever `assoc` says".
    #[inline]
    fn touch<const W: usize>(
        &mut self,
        assoc: usize,
        base: usize,
        tag: u32,
        write: bool,
    ) -> (usize, bool, bool) {
        let found = find_way::<W>(&self.tags[base..base + assoc], tag);
        if let Some(i) = found {
            self.hit(base + i, write);
            return (base + i, true, false);
        }
        // Miss: fill, evicting LRU (an invalid way has stamp 0 and is
        // therefore always preferred; resident stamps are unique, so the
        // argmin is the unambiguous LRU line).
        self.tick();
        let (victim, best) = min_stamp::<W>(&self.stamps[base..base + assoc]);
        let w = base + victim;
        let writeback = best != 0 && self.dirty[w];
        self.stamps[w] = self.clock;
        self.tags[w] = tag;
        self.dirty[w] = write;
        (w, false, writeback)
    }
}

impl Clone for CacheSim {
    fn clone(&self) -> Self {
        CacheSim {
            tags: self.tags.clone(),
            stamps: self.stamps.clone(),
            dirty: self.dirty.clone(),
            ..*self
        }
    }

    /// Copies into this cache's way arrays instead of allocating new ones:
    /// a large cache's arrays cost more to fault in than to copy.
    fn clone_from(&mut self, source: &Self) {
        let mut tags = std::mem::take(&mut self.tags);
        let mut stamps = std::mem::take(&mut self.stamps);
        let mut dirty = std::mem::take(&mut self.dirty);
        tags.clone_from(&source.tags);
        stamps.clone_from(&source.stamps);
        dirty.clone_from(&source.dirty);
        *self = CacheSim {
            tags,
            stamps,
            dirty,
            ..*source
        };
    }
}

impl CacheSim {
    /// Build a cache. Any set count ≥ 1 is supported (the NVIDIA profile's
    /// 1.5 MiB L2 yields a non-power-of-two set count).
    pub fn new(cache_bytes: u64, line_bytes: u32, assoc: u32) -> Self {
        let line_bytes = line_bytes as u64;
        let assoc = assoc as usize;
        let sets = cache_bytes / (line_bytes * assoc as u64);
        assert!(
            sets >= 1,
            "cache too small for {assoc} ways of {line_bytes}B lines"
        );
        let ways = sets as usize * assoc;
        CacheSim {
            geo: Geometry {
                line_bytes,
                sets,
                assoc,
                line_po2: line_bytes
                    .is_power_of_two()
                    .then(|| line_bytes.trailing_zeros()),
                sets_po2: sets
                    .is_power_of_two()
                    .then(|| (sets.trailing_zeros(), sets - 1)),
            },
            tags: vec![INVALID_TAG; ways],
            stamps: vec![0; ways],
            dirty: vec![false; ways],
            clock: 0,
            memo_line: NO_LINE,
            memo_way: 0,
            cum: AccessStats::default(),
        }
    }

    /// Simulate a range access (expanded to line granularity). Returns the
    /// per-range stats; also accumulates into [`CacheSim::cum`].
    pub fn access(&mut self, r: MemRange) -> AccessStats {
        self.access_batch(std::slice::from_ref(&r)).stats
    }

    /// Run a whole work unit's traffic through the cache in one call:
    /// the ranges are touched in order, line by line, the byte
    /// attribution the engine needs (hit-proportional request bytes,
    /// line-granularity miss/write-back bytes) is folded into the same
    /// pass, and `cum` is merged once per batch. Probe-heavy units carry
    /// one single-line range per input row, so per-range overhead is
    /// the dominant term; the associativity is therefore dispatched
    /// here, once per batch, not once per line. All three device
    /// profiles are 16-way; anything else takes the dynamic-width body.
    pub fn access_batch(&mut self, ranges: &[MemRange]) -> BatchAccess {
        match self.geo.assoc {
            16 => self.access_batch_w::<16>(ranges),
            _ => self.access_batch_w::<0>(ranges),
        }
    }

    /// How many ranges ahead [`CacheSim::access_batch`] prefetches set
    /// metadata. Probe-heavy units touch an effectively random set per
    /// row, so each touch is a dependent host cache miss into the
    /// tag/stamp arrays; prefetching a few iterations ahead overlaps
    /// those misses.
    const PREFETCH_AHEAD: usize = 8;

    /// Body of [`CacheSim::access_batch`] for associativity `W` (0 =
    /// dynamic). The division/modulo resolving a line to its (set, tag)
    /// runs once per *range*; consecutive lines step the set
    /// incrementally (with a tag carry at set wrap-around), so the
    /// per-line cost is the set scan alone.
    fn access_batch_w<const W: usize>(&mut self, ranges: &[MemRange]) -> BatchAccess {
        let geo = self.geo;
        let assoc = if W == 0 { geo.assoc } else { W };
        // Lines from this one on have a tag that does not fit below
        // `INVALID_TAG`.
        let line_limit = geo.sets * INVALID_TAG as u64;
        let mut ways = Ways {
            tags: &mut self.tags,
            stamps: &mut self.stamps,
            dirty: &mut self.dirty,
            clock: self.clock,
        };
        let (mut memo_line, mut memo_way) = (self.memo_line, self.memo_way);
        let mut out = BatchAccess::default();
        for (i, &r) in ranges.iter().enumerate() {
            if let Some(n) = ranges.get(i + Self::PREFETCH_AHEAD) {
                ways.prefetch(geo.set_of(geo.line_of(n.addr)) * assoc);
            }
            if r.bytes == 0 {
                continue;
            }
            out.any = true;
            let (first, last) = (geo.line_of(r.addr), geo.line_of(r.addr + r.bytes - 1));
            assert!(
                last < line_limit,
                "simulated address {:#x}+{} overflows the 32-bit tag space",
                r.addr,
                r.bytes
            );
            // Scan for every line of the range, or for all but the first
            // when that is the line the memo remembers.
            let mut line = first;
            let (mut hl, mut ml, mut wb) = (0u64, 0u64, 0u64);
            if first == memo_line {
                ways.hit(memo_way, r.write);
                hl = 1;
                line += 1;
            }
            if line <= last {
                let (mut set, mut tag) = (geo.set_of(line), geo.tag_of(line) as u32);
                for _ in 0..last - line + 1 {
                    let (w, hit, writeback) = ways.touch::<W>(assoc, set * assoc, tag, r.write);
                    memo_way = w;
                    hl += hit as u64;
                    ml += !hit as u64;
                    wb += writeback as u64;
                    set += 1;
                    if set as u64 == geo.sets {
                        set = 0;
                        tag += 1;
                    }
                }
                memo_line = last;
            }
            out.stats.hit_lines += hl;
            out.stats.miss_lines += ml;
            out.stats.writebacks += wb;
            // All-hit / all-miss ranges (every single-line range is one)
            // skip the proportional-split divide.
            out.hit_bytes += if ml == 0 {
                r.bytes
            } else if hl == 0 {
                0
            } else {
                r.bytes * hl / (hl + ml)
            };
            out.miss_bytes += (ml + wb) * geo.line_bytes;
            out.any_miss |= ml > 0;
        }
        self.clock = ways.clock;
        (self.memo_line, self.memo_way) = (memo_line, memo_way);
        self.cum.merge(out.stats);
        out
    }

    /// Hit ratio over the whole simulation so far (`cr` in Table 2).
    pub fn hit_ratio(&self) -> f64 {
        let t = self.cum.total();
        if t == 0 {
            1.0
        } else {
            self.cum.hit_lines as f64 / t as f64
        }
    }

    /// Number of currently valid lines (for capacity invariants in tests).
    pub fn resident_lines(&self) -> u64 {
        self.stamps.iter().filter(|&&s| s != 0).count() as u64
    }

    pub fn capacity_lines(&self) -> u64 {
        self.geo.sets * self.geo.assoc as u64
    }

    pub fn line_bytes(&self) -> u64 {
        self.geo.line_bytes
    }

    /// Drop all contents (used between independent experiment runs).
    pub fn clear(&mut self) {
        self.stamps.fill(0);
        self.tags.fill(INVALID_TAG);
        self.dirty.fill(false);
        self.cum = AccessStats::default();
        self.clock = 0;
        self.memo_line = NO_LINE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheSim {
        // 4 KiB, 64 B lines, 4-way => 16 sets.
        CacheSim::new(4096, 64, 4)
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small();
        let s1 = c.access(MemRange::read(0, 64));
        assert_eq!((s1.hit_lines, s1.miss_lines), (0, 1));
        let s2 = c.access(MemRange::read(0, 64));
        assert_eq!((s2.hit_lines, s2.miss_lines), (1, 0));
    }

    /// A zero-byte range is skipped before it touches anything: replay
    /// kernels rely on that when a short traffic list leaves a unit none.
    #[test]
    fn zero_byte_ranges_change_nothing() {
        let traffic: Vec<MemRange> = (0..200u64)
            .map(|i| MemRange {
                addr: i * 712 % 20_000,
                bytes: 1 + i % 150,
                write: i % 3 == 0,
            })
            .collect();
        let padded: Vec<MemRange> = (traffic.iter())
            .flat_map(|&r| [MemRange::read(4096, 0), r, MemRange::write(r.addr, 0)])
            .collect();
        // The dynamic-width body (4-way) and the 16-way one.
        for (ways, bytes) in [(4, 4096), (16, 16 * 64 * 16)] {
            let (mut plain, mut spliced) = (
                CacheSim::new(bytes, 64, ways),
                CacheSim::new(bytes, 64, ways),
            );
            assert_eq!(
                plain.access_batch(&traffic),
                spliced.access_batch(&padded),
                "{ways}-way"
            );
            assert_eq!(plain.cum, spliced.cum);
            let cum = spliced.cum;
            assert_eq!(
                spliced.access_batch(&[MemRange::read(0, 0), MemRange::write(64, 0)]),
                BatchAccess::default()
            );
            assert_eq!(spliced.cum, cum);
            // Same contents and recency: the next pass sees the same.
            assert_eq!(plain.access_batch(&traffic), spliced.access_batch(&traffic));
            assert_eq!(plain.resident_lines(), spliced.resident_lines());
        }
    }

    #[test]
    fn range_expands_to_lines() {
        let mut c = small();
        // Bytes 30..330 touch lines 0..=5 (last byte 329 is in line 5).
        let s = c.access(MemRange::read(30, 300));
        assert_eq!(s.total(), 6);
        assert_eq!(s.miss_lines, 6);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // 4-way set 0: lines with stride sets*64 = 1024 map to set 0.
        for i in 0..4u64 {
            c.access(MemRange::read(i * 1024, 1));
        }
        // Touch line 0 again to refresh it.
        c.access(MemRange::read(0, 1));
        // Fifth distinct line evicts the LRU, which is line at 1*1024.
        c.access(MemRange::read(4 * 1024, 1));
        let s0 = c.access(MemRange::read(0, 1));
        assert_eq!(s0.hit_lines, 1, "refreshed line must survive");
        let s1 = c.access(MemRange::read(1024, 1));
        assert_eq!(s1.miss_lines, 1, "LRU line must have been evicted");
    }

    #[test]
    fn clock_wrap_renumber_preserves_lru() {
        let mut c = small();
        // Fill set 0's four ways, then refresh line 0 so line 1*1024 is LRU.
        for i in 0..4u64 {
            c.access(MemRange::read(i * 1024, 1));
        }
        c.access(MemRange::read(0, 1));
        // Force the next touch to renumber stamps before ticking.
        c.clock = u32::MAX;
        // A fifth distinct line must still evict the pre-wrap LRU.
        c.access(MemRange::read(4 * 1024, 1));
        assert_eq!(c.access(MemRange::read(0, 1)).hit_lines, 1);
        assert_eq!(c.access(MemRange::read(1024, 1)).miss_lines, 1);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small();
        c.access(MemRange::write(0, 64));
        // Evict set 0 completely with reads.
        let mut wb = 0;
        for i in 1..=4u64 {
            wb += c.access(MemRange::read(i * 1024, 1)).writebacks;
        }
        assert_eq!(wb, 1);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = small();
        // Stream 16 KiB twice: second pass still misses (LRU, capacity 4 KiB).
        for _pass in 0..2 {
            for line in 0..256u64 {
                c.access(MemRange::read(line * 64, 64));
            }
        }
        assert!(
            c.hit_ratio() < 0.05,
            "streaming working set 4x cache must thrash"
        );
        // And a small working set re-read is all hits.
        c.clear();
        for _pass in 0..2 {
            for line in 0..32u64 {
                c.access(MemRange::read(line * 64, 64));
            }
        }
        assert!(c.hit_ratio() >= 0.5 - 1e-9);
    }

    #[test]
    fn resident_never_exceeds_capacity() {
        let mut c = small();
        for line in 0..10_000u64 {
            c.access(MemRange::write(line * 64, 64));
        }
        assert!(c.resident_lines() <= c.capacity_lines());
        assert_eq!(c.resident_lines(), c.capacity_lines());
    }

    #[test]
    fn zero_byte_access_is_free() {
        let mut c = small();
        let s = c.access(MemRange::read(64, 0));
        assert_eq!(s.total(), 0);
        assert_eq!(c.cum.total(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = small();
        c.access(MemRange::write(0, 4096));
        c.clear();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.cum.total(), 0);
        assert_eq!(c.hit_ratio(), 1.0);
    }

    /// Naive per-set LRU: each set is a list of `(tag, dirty)` from least
    /// to most recently used. The reference the kernel is held against.
    struct RefLru {
        sets: Vec<Vec<(u64, bool)>>,
        assoc: usize,
        line: u64,
    }

    impl RefLru {
        fn new(cache_bytes: u64, line: u64, assoc: usize) -> Self {
            let sets = (cache_bytes / (line * assoc as u64)) as usize;
            RefLru {
                sets: vec![Vec::new(); sets],
                assoc,
                line,
            }
        }

        fn access(&mut self, r: MemRange) -> AccessStats {
            let mut st = AccessStats::default();
            if r.bytes == 0 {
                return st;
            }
            let n = self.sets.len() as u64;
            for l in r.addr / self.line..=(r.addr + r.bytes - 1) / self.line {
                let set = &mut self.sets[(l % n) as usize];
                let mut dirty = r.write;
                if let Some(i) = set.iter().position(|&(t, _)| t == l / n) {
                    dirty |= set.remove(i).1;
                    st.hit_lines += 1;
                } else {
                    st.miss_lines += 1;
                    if set.len() == self.assoc {
                        st.writebacks += set.remove(0).1 as u64;
                    }
                }
                set.push((l / n, dirty));
            }
            st
        }
    }

    /// A `CacheSim`'s contents in [`RefLru`] form: per set, the resident
    /// `(tag, dirty)` pairs ordered by stamp.
    fn resident(c: &CacheSim) -> Vec<Vec<(u64, bool)>> {
        (0..c.geo.sets as usize)
            .map(|set| {
                let ways = set * c.geo.assoc..(set + 1) * c.geo.assoc;
                let mut lines: Vec<(u32, u64, bool)> = ways
                    .filter(|&w| c.stamps[w] != 0)
                    .map(|w| (c.stamps[w], c.tags[w] as u64, c.dirty[w]))
                    .collect();
                lines.sort_unstable();
                lines.into_iter().map(|(_, t, d)| (t, d)).collect()
            })
            .collect()
    }

    /// The geometries under test as `(cache_bytes, assoc)`, 64-byte
    /// lines: 16-way (the SSE2 body) and 3-way (the dynamic body), each
    /// with a power-of-two and an odd set count.
    const GEOMETRIES: [(u64, u32); 4] = [
        (8 * 16 * 64, 16),
        (3 * 16 * 64, 16),
        (4 * 3 * 64, 3),
        (5 * 3 * 64, 3),
    ];

    /// Turn raw draws into a range over an address space four times the
    /// cache (so lines collide): zero-byte, within one line, a few
    /// lines, long enough to wrap every set with a tag carry, or a
    /// repeat of the line the previous range ended on (the memo).
    fn range_from(
        cache_bytes: u64,
        prev: Option<MemRange>,
        (kind, a, b, write): (u8, u64, u64, bool),
    ) -> MemRange {
        let addr = a % (4 * cache_bytes);
        let (addr, bytes) = match (kind, prev) {
            (0, _) => (addr, 0),
            (1, _) => (addr, 1 + b % (64 - addr % 64)),
            (2, _) => (addr, 1 + b % 400),
            (3, _) => (addr, cache_bytes / 2 + b % (2 * cache_bytes)),
            (_, Some(p)) if p.bytes > 0 => ((p.addr + p.bytes - 1) / 64 * 64 + a % 64, 1 + b % 100),
            _ => (addr, 8),
        };
        MemRange { addr, bytes, write }
    }

    gpl_check::prop! {
        #![cases(96)]
        /// `CacheSim` against the naive model over random range
        /// sequences on every geometry: the same per-range stats from
        /// `access`, the same totals and byte attribution from
        /// `access_batch` over the same ranges, and the same resident
        /// lines in the same LRU order with the same dirty bits at the
        /// end — also when the LRU clock wraps mid-sequence.
        #[test]
        fn kernel_matches_naive_lru(
            geometry in 0usize..4,
            draws in gpl_check::collection::vec(
                (0u8..5, gpl_check::any::<u64>(), gpl_check::any::<u64>(), gpl_check::any::<bool>()),
                1..200,
            ),
            batch in 1usize..40,
            wrap_at in 0usize..400,
        ) {
            let (cache_bytes, assoc) = GEOMETRIES[geometry];
            let mut ranges: Vec<MemRange> = Vec::new();
            for d in draws {
                ranges.push(range_from(cache_bytes, ranges.last().copied(), d));
            }
            let mut naive = RefLru::new(cache_bytes, 64, assoc as usize);
            let mut one = CacheSim::new(cache_bytes, 64, assoc);
            let mut want = BatchAccess::default();
            for (i, &r) in ranges.iter().enumerate() {
                if i == wrap_at {
                    // Stamps so far are below the clock, so jumping it
                    // ahead keeps them consistent; the renumber then
                    // falls a few touches later, memo live.
                    one.clock = u32::MAX - 3;
                }
                let st = naive.access(r);
                gpl_check::prop_assert_eq!(one.access(r), st, "range {} = {:?}", i, r);
                want.stats.merge(st);
                want.hit_bytes += match (st.hit_lines, st.miss_lines) {
                    (_, 0) => r.bytes,
                    (0, _) => 0,
                    (h, m) => r.bytes * h / (h + m),
                };
                want.miss_bytes += (st.miss_lines + st.writebacks) * 64;
                want.any |= r.bytes > 0;
                want.any_miss |= st.miss_lines > 0;
            }
            gpl_check::prop_assert_eq!(resident(&one), naive.sets.clone());
            gpl_check::prop_assert_eq!(one.cum, want.stats);

            let mut batched = CacheSim::new(cache_bytes, 64, assoc);
            let mut got = BatchAccess::default();
            for chunk in ranges.chunks(batch) {
                let b = batched.access_batch(chunk);
                got.stats.merge(b.stats);
                got.hit_bytes += b.hit_bytes;
                got.miss_bytes += b.miss_bytes;
                got.any |= b.any;
                got.any_miss |= b.any_miss;
            }
            gpl_check::prop_assert_eq!(got, want);
            gpl_check::prop_assert_eq!(resident(&batched), naive.sets);
        }

        /// The SSE2 victim choice equals the scalar one: first way with
        /// the minimum stamp, over stamps on both sides of 2^31 and with
        /// any number of invalid (zero) ways.
        #[test]
        fn simd_victim_equals_scalar(
            raw in gpl_check::collection::vec(gpl_check::any::<u32>(), 16..17),
            zeros in gpl_check::any::<u16>(),
        ) {
            let mut stamps = [0u32; 16];
            for (i, st) in stamps.iter_mut().enumerate() {
                // Resident stamps are unique: low bits carry the index.
                *st = if zeros >> i & 1 == 1 { 0 } else { raw[i] & !15 | 16 | i as u32 };
            }
            #[cfg(target_arch = "x86_64")]
            gpl_check::prop_assert_eq!(sse2::min_stamp(&stamps), min_stamp_scalar(&stamps));
            let (victim, best) = min_stamp_scalar(&stamps);
            gpl_check::prop_assert_eq!(best, *stamps.iter().min().unwrap());
            gpl_check::prop_assert_eq!(victim, stamps.iter().position(|&s| s == best).unwrap());
        }
    }

    /// The SSE2 way match equals the scalar one for a tag in every way,
    /// for absent tags, and in sets that are partly or wholly invalid.
    #[test]
    fn simd_match_equals_scalar() {
        let full: [u32; 16] = std::array::from_fn(|i| (i as u32).wrapping_mul(0x9e37_79b9) >> 3);
        let mut half = full;
        half[5..13].fill(INVALID_TAG);
        for set in [full, half, [INVALID_TAG; 16]] {
            let absent = [0x7fff_ffff, 0x8000_0000, INVALID_TAG - 1, INVALID_TAG];
            for (way, tag) in full.into_iter().chain(absent).enumerate() {
                let want = find_way_scalar(&set, tag);
                if set.get(way) == Some(&tag) {
                    assert_eq!(want, Some(way), "tag {tag:#x}");
                }
                #[cfg(target_arch = "x86_64")]
                assert_eq!(sse2::find_way(&set, tag), want, "tag {tag:#x}");
            }
        }
    }
}
