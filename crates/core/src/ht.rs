//! Simulated-placement hash tables and group-aggregation stores.
//!
//! Functionally these are ordinary Rust maps over flat arenas;
//! *architecturally* each insert/probe/update reports a random-access
//! touch on one bucket of the table's simulated region, so the cache
//! simulator sees realistic hash-join traffic. Hash tables live in
//! `HashTable` regions — the paper counts them among the intermediates
//! that blocking kernels must materialize (Section 5.3.2).
//!
//! A touch goes to a [`BucketSink`] as `(site, pattern, bucket)`. GPL's
//! work units collect the accesses themselves (`Vec<MemRange>`); the
//! kernel-at-a-time engines keep a whole range's traffic as a
//! [`BucketTrace`] of 4-byte bucket ids and expand it per replay unit.

use gpl_sim::mem::{MemRange, MemoryMap, RegionClass, RegionId};
use std::collections::{hash_map, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::rc::Rc;

/// Where a table's simulated buckets sit: bucket `b` is the
/// `entry_bytes` at `base + b * entry_bytes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableSite {
    pub base: u64,
    pub entry_bytes: u64,
}

/// What one table operation does to its bucket: a probe reads it, a
/// build insert writes it, a group update reads then writes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Pattern {
    #[default]
    Read,
    Write,
    ReadWrite,
}

/// Where table operations report their simulated bucket traffic.
pub trait BucketSink {
    /// One operation with `pattern` on `bucket` of the table at `site`.
    fn touch(&mut self, site: TableSite, pattern: Pattern, bucket: u64);
    /// Make room ahead of `touches` more operations (a capacity hint).
    fn reserve(&mut self, touches: usize);
}

/// The accesses themselves, in operation order — and the one rule for
/// which accesses a pattern is.
impl BucketSink for Vec<MemRange> {
    #[inline]
    fn touch(&mut self, site: TableSite, pattern: Pattern, bucket: u64) {
        let (addr, bytes) = (site.base + bucket * site.entry_bytes, site.entry_bytes);
        match pattern {
            Pattern::Read => self.push(MemRange::read(addr, bytes)),
            Pattern::Write => self.push(MemRange::write(addr, bytes)),
            Pattern::ReadWrite => {
                self.push(MemRange::read(addr, bytes));
                self.push(MemRange::write(addr, bytes));
            }
        }
    }

    fn reserve(&mut self, touches: usize) {
        Vec::reserve(self, touches);
    }
}

/// One table's bucket traffic as bucket ids in operation order, 4 bytes
/// an operation: what the kernel-at-a-time engines keep per op and per
/// terminal over a whole range. Every operation recorded into one trace
/// has the same site and pattern, so an aggregated row's read and write
/// are one id.
#[derive(Debug, Default)]
pub struct BucketTrace {
    site: TableSite,
    pattern: Pattern,
    ids: Vec<u32>,
}

impl BucketTrace {
    /// Operations recorded.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Accesses that `ops` recorded operations expand to.
    pub(crate) fn accesses(&self, ops: usize) -> usize {
        match self.pattern {
            Pattern::Read | Pattern::Write => ops,
            Pattern::ReadWrite => 2 * ops,
        }
    }

    /// Append the accesses of operations `ops` to `out`, in order:
    /// exactly what the `Vec<MemRange>` sink records for them.
    pub(crate) fn expand(&self, ops: Range<usize>, out: &mut Vec<MemRange>) {
        for &b in &self.ids[ops] {
            out.touch(self.site, self.pattern, u64::from(b));
        }
    }
}

impl BucketSink for BucketTrace {
    #[inline]
    fn touch(&mut self, site: TableSite, pattern: Pattern, bucket: u64) {
        debug_assert!(
            self.ids.is_empty() || (self.site, self.pattern) == (site, pattern),
            "a trace records one table's operations"
        );
        self.site = site;
        self.pattern = pattern;
        self.ids
            .push(u32::try_from(bucket).expect("bucket index fits in u32"));
    }

    fn reserve(&mut self, touches: usize) {
        self.ids.reserve(touches);
    }
}

/// Mixer from splitmix64 — deterministic, well-spread bucket indexes.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic single-`mix64` hasher for the i64-keyed simulated
/// tables. SipHash's DoS resistance buys nothing against synthetic
/// TPC-H keys and costs several times more per probe — and the probe
/// path runs once per input row of every join in the workload.
#[derive(Debug, Default)]
pub struct Mix64Hasher(u64);

impl Hasher for Mix64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }
    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.0 = mix64(self.0 ^ v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v);
    }
}

/// `HashMap` build-hasher wrapper for [`Mix64Hasher`] — shared with the
/// model plane's estimator tables, which face the same synthetic keys.
pub type BuildMix64 = BuildHasherDefault<Mix64Hasher>;

/// What a table holds, wherever a device put it. Payloads live in one
/// flat arena (`payload_width` values per entry, indexed by insertion
/// order) rather than one heap `Vec` per entry: probes — once per input
/// row of every join — read a contiguous slice.
#[derive(Debug, Clone)]
struct Entries {
    map: HashMap<i64, u32, BuildMix64>,
    pay: Vec<i64>,
    payload_width: usize,
}

impl Entries {
    fn payload(&self, idx: u32) -> &[i64] {
        let w = self.payload_width;
        &self.pay[idx as usize * w..][..w]
    }
}

/// A unique-key hash table (all TPC-H joins here are key–FK joins).
///
/// *Content* (the entries) sits behind an `Rc`, so the tables a
/// cross-shard merge hands to the devices of a pool are one set of
/// entries, not a copy per device. *Placement* (`site`, `buckets`,
/// `region`) is where one device's simulated memory put
/// it: the only per-device facts, and all a reported bucket access
/// depends on. Every observer of content looks up by key or sorts by
/// key, so the order entries arrived in is invisible. A write to shared
/// content copies it first (`Rc::make_mut`); merged tables are
/// probe-only, so no run pays for that.
#[derive(Debug)]
pub struct SimHashTable {
    entries: Rc<Entries>,
    site: TableSite,
    buckets: u64,
    pub region: RegionId,
}

impl SimHashTable {
    /// Allocate a table sized for `expected` keys with `payload_width`
    /// payload values per key.
    pub fn new(
        mem: &mut MemoryMap,
        expected: usize,
        payload_width: usize,
        label: impl Into<String>,
    ) -> Self {
        let entries = Entries {
            map: HashMap::with_capacity_and_hasher(expected, BuildMix64::default()),
            pay: Vec::with_capacity(expected * payload_width),
            payload_width,
        };
        Self::place(Rc::new(entries), mem, expected, label)
    }

    /// Buckets of a table sized for `expected` keys: a power of two at
    /// load factor ≤ ½. Group stores size the same way.
    pub fn buckets_for(expected: usize) -> u64 {
        (expected.max(1) * 2).next_power_of_two() as u64
    }

    /// Bytes of one bucket entry: the key and `payload_width` payloads.
    pub fn entry_bytes_for(payload_width: usize) -> u64 {
        8 * (1 + payload_width as u64)
    }

    /// Where a table's region is allocated, at the geometry
    /// [`Self::buckets_for`] and [`Self::entry_bytes_for`] decide.
    fn place(
        entries: Rc<Entries>,
        mem: &mut MemoryMap,
        expected: usize,
        label: impl Into<String>,
    ) -> Self {
        let buckets = Self::buckets_for(expected);
        let entry_bytes = Self::entry_bytes_for(entries.payload_width);
        let region = mem.alloc(buckets * entry_bytes, RegionClass::HashTable, label);
        SimHashTable {
            entries,
            site: TableSite {
                base: mem.base(region),
                entry_bytes,
            },
            buckets,
            region,
        }
    }

    /// The same content in a fresh region of `mem`, with the geometry
    /// [`SimHashTable::new`] gives a table sized for exactly these
    /// entries — how a merged build reaches each device of a pool.
    pub fn placed(&self, mem: &mut MemoryMap, label: impl Into<String>) -> Self {
        Self::place(Rc::clone(&self.entries), mem, self.len(), label)
    }

    /// Take over the entries of `other`, a table built from a disjoint
    /// part of the same build side (another shard, another checkpoint
    /// slice). No simulated traffic: the merge is charged by its caller.
    /// Panics, naming the key, if the parts were not disjoint.
    pub fn absorb(&mut self, other: SimHashTable) {
        assert_eq!(
            self.payload_width(),
            other.payload_width(),
            "payload width mismatch"
        );
        let from = &*other.entries;
        let into = Rc::make_mut(&mut self.entries);
        into.map.reserve(from.map.len());
        into.pay.reserve(from.pay.len());
        for (&key, &idx) in &from.map {
            let at = u32::try_from(into.map.len()).expect("build side exceeds u32 entries");
            match into.map.entry(key) {
                hash_map::Entry::Vacant(slot) => slot.insert(at),
                hash_map::Entry::Occupied(_) => panic!("build key {key} in two shards"),
            };
            into.pay.extend_from_slice(from.payload(idx));
        }
    }

    pub fn len(&self) -> usize {
        self.entries.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.map.is_empty()
    }

    pub fn payload_width(&self) -> usize {
        self.entries.payload_width
    }

    /// Simulated bytes the table occupies (its materialization footprint).
    pub fn bytes(&self) -> u64 {
        self.buckets * self.site.entry_bytes
    }

    fn bucket_of(&self, key: i64) -> u64 {
        mix64(key as u64) & (self.buckets - 1)
    }

    /// Insert a key; reports the bucket write into `acc`. Panics on
    /// duplicate keys — the workload's build sides are all unique.
    /// Inlined, like `probe`, so a per-row loop reaches the content
    /// through the `Rc` once per chunk rather than once per key.
    #[inline]
    pub fn insert(&mut self, key: i64, payload: &[i64], acc: &mut impl BucketSink) {
        assert_eq!(
            payload.len(),
            self.payload_width(),
            "payload width mismatch"
        );
        acc.touch(self.site, Pattern::Write, self.bucket_of(key));
        let entries = Rc::make_mut(&mut self.entries);
        let idx = u32::try_from(entries.map.len()).expect("build side exceeds u32 entries");
        // The map's only `insert` call site, on purpose: with a second
        // one (a helper shared with `absorb`) LLVM stops inlining it
        // here, and this runs once per build row (+25%, measured).
        let prev = entries.map.insert(key, idx);
        assert!(prev.is_none(), "duplicate build key {key}");
        entries.pay.extend_from_slice(payload);
    }

    /// Probe a key; reports the bucket read into `acc`.
    #[inline]
    pub fn probe(&self, key: i64, acc: &mut impl BucketSink) -> Option<&[i64]> {
        acc.touch(self.site, Pattern::Read, self.bucket_of(key));
        let entries = &*self.entries;
        entries.map.get(&key).map(|&i| entries.payload(i))
    }

    /// Which of `slices` deterministic installation slices `key` belongs
    /// to. Both ends of an inter-segment edge (the publishing build
    /// terminal and the slice-gated probe) call this one function, so
    /// slice membership agrees by construction.
    #[inline]
    pub fn slice_of(key: i64, slices: u32) -> u32 {
        (mix64(key as u64) % slices.max(1) as u64) as u32
    }

    /// FNV-1a over the `(key, payload)` entries of `slice`, in sorted
    /// key order — the per-slice content checksum the overlap protocol
    /// publishes with each installed slice and re-derives at the gate.
    /// A mismatch means the shared table diverged from what the build
    /// terminal installed (a dropped or double-published slice).
    pub fn slice_checksum(&self, slice: u32, slices: u32) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let entries = &*self.entries;
        let mut keyed: Vec<(i64, u32)> = (entries.map.iter())
            .map(|(&k, &i)| (k, i))
            .filter(|&(k, _)| Self::slice_of(k, slices) == slice)
            .collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for (k, i) in keyed {
            mix(k as u64);
            for &p in entries.payload(i) {
                mix(p as u64);
            }
        }
        h
    }

    /// Content fingerprint of the whole table: [`Self::slice_checksum`]
    /// with every key in one slice. Two tables holding the same entries
    /// agree regardless of how they were built — the equality check
    /// speculative hedging and checkpoint resume verify results with.
    pub fn fingerprint(&self) -> u64 {
        self.slice_checksum(0, 1)
    }
}

/// Aggregate function kinds supported by the group store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    Sum,
    /// Counts rows; the evaluated input value is ignored.
    Count,
    Min,
    Max,
}

impl AggKind {
    /// Identity element of the fold.
    pub fn init(self) -> i64 {
        match self {
            AggKind::Sum | AggKind::Count => 0,
            AggKind::Min => i64::MAX,
            AggKind::Max => i64::MIN,
        }
    }

    /// Fold one value into the accumulator.
    #[inline]
    pub fn fold(self, acc: i64, v: i64) -> i64 {
        match self {
            AggKind::Sum => acc + v,
            AggKind::Count => acc + 1,
            AggKind::Min => acc.min(v),
            AggKind::Max => acc.max(v),
        }
    }

    /// Merge two *accumulators* of this kind (shard merge). Unlike
    /// [`AggKind::fold`], both sides are partial aggregate states: a
    /// COUNT merge adds the partial counts rather than counting the
    /// right-hand side as one more row. Every kind here is commutative
    /// and associative, which is what makes the cross-shard merge
    /// order-independent.
    #[inline]
    pub fn combine(self, a: i64, b: i64) -> i64 {
        match self {
            AggKind::Sum | AggKind::Count => a + b,
            AggKind::Min => a.min(b),
            AggKind::Max => a.max(b),
        }
    }
}

/// Slots of a fresh store's group index (a power of two).
const GROUP_INDEX_SLOTS: usize = 16;

/// Hash-aggregation store: `groups → running aggregates`, with simulated
/// read-modify-write traffic per update.
///
/// Groups live in three flat arenas indexed by group id (first-seen
/// order): `key_width` keys, `kinds.len()` accumulators and the keys'
/// `mix64` fold, which also picks the simulated bucket. An
/// open-addressing index over the folds finds a group; every observer
/// of the whole content (`into_rows`, `fingerprint`) visits groups in
/// key order, so the order groups arrived in is invisible.
#[derive(Debug)]
pub struct GroupStore {
    keys: Vec<i64>,
    accs: Vec<i64>,
    hashes: Vec<u64>,
    /// Linear-probing slots holding group id + 1, 0 when empty; at most
    /// half full.
    index: Vec<u32>,
    kinds: Vec<AggKind>,
    key_width: usize,
    site: TableSite,
    buckets: u64,
    pub region: RegionId,
}

impl GroupStore {
    /// A store whose aggregates are all sums (the common case).
    pub fn new(
        mem: &mut MemoryMap,
        expected_groups: usize,
        key_width: usize,
        num_sums: usize,
        label: impl Into<String>,
    ) -> Self {
        Self::with_kinds(
            mem,
            expected_groups,
            key_width,
            vec![AggKind::Sum; num_sums],
            label,
        )
    }

    /// Groups an executor sizes a store for, by key width: one for a
    /// scalar aggregate, 4096 otherwise.
    pub fn expected_groups(key_width: usize) -> usize {
        if key_width == 0 {
            1
        } else {
            4096
        }
    }

    /// Bytes of one bucket entry: the keys (at least one slot) and the
    /// accumulators.
    pub fn entry_bytes_for(key_width: usize, num_aggs: usize) -> u64 {
        8 * (key_width.max(1) + num_aggs) as u64
    }

    pub fn with_kinds(
        mem: &mut MemoryMap,
        expected_groups: usize,
        key_width: usize,
        kinds: Vec<AggKind>,
        label: impl Into<String>,
    ) -> Self {
        let buckets = SimHashTable::buckets_for(expected_groups);
        let entry_bytes = Self::entry_bytes_for(key_width, kinds.len());
        let region = mem.alloc(buckets * entry_bytes, RegionClass::Intermediate, label);
        GroupStore {
            keys: Vec::new(),
            accs: Vec::new(),
            hashes: Vec::new(),
            index: vec![0; GROUP_INDEX_SLOTS],
            kinds,
            key_width,
            site: TableSite {
                base: mem.base(region),
                entry_bytes,
            },
            buckets,
            region,
        }
    }

    pub fn num_groups(&self) -> usize {
        self.hashes.len()
    }

    /// Simulated bytes the store occupies (its materialization footprint).
    pub fn bytes(&self) -> u64 {
        self.buckets * self.site.entry_bytes
    }

    /// The `mix64` fold of a group's keys.
    #[inline]
    fn fold_keys(keys: &[i64]) -> u64 {
        keys.iter().fold(0, |h, &k| mix64(h ^ k as u64))
    }

    fn key(&self, g: usize) -> &[i64] {
        &self.keys[g * self.key_width..][..self.key_width]
    }

    fn accs_of(&self, g: usize) -> &[i64] {
        let w = self.kinds.len();
        &self.accs[g * w..][..w]
    }

    /// The id of the group with `keys`, whose fold is `h`; a new group
    /// starts at the fold identities.
    #[inline]
    fn group(&mut self, keys: &[i64], h: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut slot = h as usize & mask;
        loop {
            let id = self.index[slot] as usize;
            if id == 0 {
                return self.add_group(slot, keys, h);
            }
            // Compared key by key: `[i64] ==` calls `memcmp`, which
            // costs more than the one to three keys a group has.
            let g = id - 1;
            if self.hashes[g] == h && self.key(g).iter().zip(keys).all(|(a, b)| a == b) {
                return g;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Add the group `keys` (fold `h`) at the empty index `slot`.
    #[cold]
    fn add_group(&mut self, slot: usize, keys: &[i64], h: u64) -> usize {
        let g = self.hashes.len();
        self.index[slot] = u32::try_from(g + 1).expect("group store exceeds u32 groups");
        self.hashes.push(h);
        self.keys.extend_from_slice(keys);
        self.accs.extend(self.kinds.iter().map(|k| k.init()));
        if 2 * self.hashes.len() > self.index.len() {
            let slots = 2 * self.index.len();
            let mut index = vec![0u32; slots];
            for (g, &h) in self.hashes.iter().enumerate() {
                let mut slot = h as usize & (slots - 1);
                while index[slot] != 0 {
                    slot = (slot + 1) & (slots - 1);
                }
                index[slot] = g as u32 + 1;
            }
            self.index = index;
        }
        g
    }

    /// Group ids in key order: the order every observer of the whole
    /// content sees, whatever order the groups arrived in.
    fn key_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.num_groups()).collect();
        order.sort_unstable_by(|&a, &b| self.key(a).cmp(self.key(b)));
        order
    }

    /// Merge another shard's partial aggregate state into this store,
    /// combining accumulators group-by-group, by key, with
    /// [`AggKind::combine`] (a group new to this store starts at the
    /// identities, which `combine` leaves the other side's value). Both
    /// stores must have the same shape (key width + kinds). Observers
    /// see groups in key order, so the merged state — and therefore
    /// [`GroupStore::into_rows`] — is independent of the order shards
    /// complete in.
    pub fn absorb(&mut self, other: GroupStore) {
        assert_eq!(self.key_width, other.key_width, "key width mismatch");
        assert_eq!(self.kinds, other.kinds, "aggregate kinds mismatch");
        let w = self.kinds.len();
        for (g, &h) in other.hashes.iter().enumerate() {
            let mine = self.group(other.key(g), h);
            let into = &mut self.accs[mine * w..][..w];
            for ((a, &b), k) in into.iter_mut().zip(other.accs_of(g)).zip(&self.kinds) {
                *a = k.combine(*a, b);
            }
        }
    }

    /// Content fingerprint of the partial aggregate state: FNV-1a over
    /// the shape (key width + kinds) and every `(keys, accumulators)`
    /// group in key order. Two stores that would produce the
    /// same rows agree — the checkpoint-verification digest of
    /// slice-resume, mirroring [`SimHashTable::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.key_width as u64);
        mix(self.kinds.len() as u64);
        for g in self.key_order() {
            for &v in self.key(g).iter().chain(self.accs_of(g)) {
                mix(v as u64);
            }
        }
        h
    }

    /// Fold `values` into the aggregates of group `keys`; reports the
    /// read-modify-write on the group's bucket.
    pub fn update(&mut self, keys: &[i64], values: &[i64], acc: &mut impl BucketSink) {
        debug_assert_eq!(keys.len(), self.key_width);
        debug_assert_eq!(values.len(), self.kinds.len());
        let h = Self::fold_keys(keys);
        acc.touch(self.site, Pattern::ReadWrite, h & (self.buckets - 1));
        let g = self.group(keys, h);
        let w = self.kinds.len();
        for ((a, &v), k) in self.accs[g * w..][..w]
            .iter_mut()
            .zip(values)
            .zip(&self.kinds)
        {
            *a = k.fold(*a, v);
        }
    }

    /// Drain into result rows `keys ++ aggregates`, in deterministic key
    /// order. A *scalar* aggregate (no group keys) with no input yields
    /// one row of fold identities (0 for SUM/COUNT, the sentinels for
    /// MIN/MAX); a grouped aggregate over no input yields no rows, as in
    /// SQL.
    pub fn into_rows(mut self) -> Vec<Vec<i64>> {
        if self.num_groups() == 0 && self.key_width == 0 && !self.kinds.is_empty() {
            self.group(&[], Self::fold_keys(&[]));
        }
        self.key_order()
            .into_iter()
            .map(|g| [self.key(g), self.accs_of(g)].concat())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_probe_roundtrips() {
        let mut mem = MemoryMap::new();
        let mut ht = SimHashTable::new(&mut mem, 10, 2, "t");
        let mut acc = Vec::new();
        ht.insert(5, &[50, 55], &mut acc);
        ht.insert(-7, &[70, 77], &mut acc);
        assert_eq!(ht.probe(5, &mut acc), Some(&[50i64, 55][..]));
        assert_eq!(ht.probe(-7, &mut acc), Some(&[70i64, 77][..]));
        assert_eq!(ht.probe(8, &mut acc), None);
        assert_eq!(ht.len(), 2);
        // Every operation touched the table's region.
        assert_eq!(acc.len(), 5);
        let region_base = mem.base(ht.region);
        for a in &acc {
            assert!(a.addr >= region_base && a.addr < region_base + ht.bytes());
        }
        // Inserts write, probes read.
        assert!(acc[0].write && acc[1].write);
        assert!(!acc[2].write && !acc[3].write && !acc[4].write);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_key_panics() {
        let mut mem = MemoryMap::new();
        let mut ht = SimHashTable::new(&mut mem, 4, 0, "t");
        let mut acc = Vec::new();
        ht.insert(1, &[], &mut acc);
        ht.insert(1, &[], &mut acc);
    }

    #[test]
    fn group_store_sums_per_group() {
        let mut mem = MemoryMap::new();
        let mut g = GroupStore::new(&mut mem, 8, 1, 2, "agg");
        let mut acc = Vec::new();
        g.update(&[1], &[10, 1], &mut acc);
        g.update(&[2], &[20, 2], &mut acc);
        g.update(&[1], &[5, 1], &mut acc);
        let rows = g.into_rows();
        assert_eq!(rows, vec![vec![1, 15, 2], vec![2, 20, 2]]);
        // Each update is a read + a write.
        assert_eq!(acc.len(), 6);
        assert!(acc.iter().step_by(2).all(|a| !a.write));
        assert!(acc.iter().skip(1).step_by(2).all(|a| a.write));
    }

    #[test]
    fn scalar_aggregate_yields_zero_row_when_empty() {
        let mut mem = MemoryMap::new();
        let g = GroupStore::new(&mut mem, 1, 0, 2, "agg");
        assert_eq!(g.into_rows(), vec![vec![0, 0]]);
    }

    #[test]
    fn grouped_aggregate_yields_no_rows_when_empty() {
        let mut mem = MemoryMap::new();
        let g = GroupStore::new(&mut mem, 8, 1, 2, "agg");
        assert!(
            g.into_rows().is_empty(),
            "grouped empty input has no groups"
        );
    }

    #[test]
    fn slices_partition_the_table_and_checksums_pin_content() {
        let mut mem = MemoryMap::new();
        let mut ht = SimHashTable::new(&mut mem, 64, 1, "t");
        let mut acc = Vec::new();
        for k in 0..64i64 {
            ht.insert(k, &[k * 10], &mut acc);
        }
        // Every key lands in exactly one of K slices.
        for slices in [1u32, 2, 8] {
            let mut count = 0usize;
            for s in 0..slices {
                count += (0..64i64)
                    .filter(|&k| SimHashTable::slice_of(k, slices) == s)
                    .count();
            }
            assert_eq!(count, 64);
        }
        // Checksums are pure, slice-local, and content-sensitive.
        let sum = ht.slice_checksum(0, 2);
        assert_eq!(sum, ht.slice_checksum(0, 2));
        assert_ne!(sum, ht.slice_checksum(1, 2), "slices differ in content");
        let mut ht2 = SimHashTable::new(&mut mem, 64, 1, "t2");
        for k in 0..64i64 {
            let pay = if k == 7 { 999 } else { k * 10 };
            ht2.insert(k, &[pay], &mut acc);
        }
        let s7 = SimHashTable::slice_of(7, 2);
        assert_ne!(ht.slice_checksum(s7, 2), ht2.slice_checksum(s7, 2));
        assert_eq!(
            ht.slice_checksum(1 - s7, 2),
            ht2.slice_checksum(1 - s7, 2),
            "the untouched slice checksums identically"
        );
    }

    #[test]
    fn combine_merges_partial_accumulators() {
        assert_eq!(AggKind::Sum.combine(3, 4), 7);
        // COUNT merges partial counts — it does not count the rhs as a row.
        assert_eq!(AggKind::Count.combine(3, 4), 7);
        assert_eq!(AggKind::Min.combine(3, 4), 3);
        assert_eq!(AggKind::Max.combine(3, 4), 4);
        // Identities are neutral under combine.
        for k in [AggKind::Sum, AggKind::Count, AggKind::Min, AggKind::Max] {
            assert_eq!(k.combine(k.init(), 42), 42);
        }
    }

    /// A table of `entries` (payload `width` values derived from the
    /// entry's value), inserted in the given order.
    fn table_of(mem: &mut MemoryMap, entries: &[(i64, i64)], width: usize) -> SimHashTable {
        let mut ht = SimHashTable::new(mem, entries.len(), width, "t");
        let mut acc = Vec::new();
        for &(k, v) in entries {
            ht.insert(k, &payload_of(v, width), &mut acc);
        }
        ht
    }

    fn payload_of(v: i64, width: usize) -> Vec<i64> {
        (0..width as i64)
            .map(|j| v.wrapping_add(j * 7919))
            .collect()
    }

    /// What one probe returns and the bucket access it reports.
    fn probed(ht: &SimHashTable, key: i64) -> (Option<Vec<i64>>, MemRange) {
        let mut acc = Vec::new();
        let hit = ht.probe(key, &mut acc).map(<[i64]>::to_vec);
        (hit, acc[0])
    }

    gpl_check::prop! {
        #![cases(96)]
        /// The merge contract: disjoint parts of a build side, built as
        /// separate tables and absorbed in any order, are the table built
        /// from the union — to every observer of content. A `placed` view
        /// has exactly the geometry `new` gives a table of that size, and
        /// writing to one view never shows through a sibling.
        #[test]
        fn absorbed_parts_are_the_union_and_placed_views_match_new(
            union in gpl_check::collection::hash_map(-400i64..400, gpl_check::any::<i64>(), 0..160),
            parts in 1usize..6,
            width in 0usize..3,
            order in gpl_check::collection::vec(gpl_check::any::<u64>(), 5..6),
            before in 0u64..5000,
        ) {
            let mut union: Vec<(i64, i64)> = union.into_iter().collect();
            union.sort_unstable();
            let whole = table_of(&mut MemoryMap::new(), &union, width);

            let mut mem = MemoryMap::new();
            let mut tables: Vec<Option<SimHashTable>> = (0..parts)
                .map(|p| {
                    let part: Vec<(i64, i64)> =
                        union.iter().copied().skip(p).step_by(parts).collect();
                    Some(table_of(&mut mem, &part, width))
                })
                .collect();
            let mut perm: Vec<usize> = (0..parts).collect();
            perm.sort_by_key(|&p| (order[p], p));
            let mut merged = tables[perm[0]].take().expect("each part taken once");
            for &p in &perm[1..] {
                merged.absorb(tables[p].take().expect("each part taken once"));
            }

            gpl_check::prop_assert_eq!(merged.len(), whole.len());
            for key in -420i64..420 {
                gpl_check::prop_assert_eq!(
                    probed(&merged, key).0, probed(&whole, key).0,
                    "key {} after absorbing in order {:?}", key, perm
                );
            }
            gpl_check::prop_assert_eq!(merged.fingerprint(), whole.fingerprint());
            for slices in [2u32, 8] {
                for s in 0..slices {
                    gpl_check::prop_assert_eq!(
                        merged.slice_checksum(s, slices),
                        whole.slice_checksum(s, slices)
                    );
                }
            }

            // Two maps prepared identically: `placed` lands where `new` does.
            let (mut mem_new, mut mem_placed) = (MemoryMap::new(), MemoryMap::new());
            mem_new.alloc(before, RegionClass::Scratch, "before");
            mem_placed.alloc(before, RegionClass::Scratch, "before");
            let fresh = SimHashTable::new(&mut mem_new, merged.len().max(1), width, "x");
            let view = merged.placed(&mut mem_placed, "x");
            gpl_check::prop_assert_eq!(view.bytes(), fresh.bytes());
            gpl_check::prop_assert_eq!(mem_placed.base(view.region), mem_new.base(fresh.region));
            for &(key, _) in &union {
                gpl_check::prop_assert_eq!(probed(&view, key).1, probed(&fresh, key).1);
                gpl_check::prop_assert_eq!(probed(&view, key).0, probed(&whole, key).0);
            }

            // Copy-on-write: an insert into one view leaves its sibling be.
            let mut sibling = merged.placed(&mut mem_placed, "y");
            sibling.insert(1000, &payload_of(1, width), &mut Vec::new());
            gpl_check::prop_assert_eq!(sibling.len(), whole.len() + 1);
            gpl_check::prop_assert_eq!(probed(&sibling, 1000).0, Some(payload_of(1, width)));
            gpl_check::prop_assert_eq!(view.len(), whole.len());
            gpl_check::prop_assert_eq!(probed(&view, 1000).0, None);
            for &(key, _) in &union {
                gpl_check::prop_assert_eq!(probed(&view, key).0, probed(&whole, key).0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "build key 7 in two shards")]
    fn absorbing_a_part_that_shares_a_key_panics_naming_it() {
        let mut mem = MemoryMap::new();
        let mut a = table_of(&mut mem, &[(1, 10), (7, 70)], 1);
        let b = table_of(&mut mem, &[(7, 70), (9, 90)], 1);
        a.absorb(b);
    }

    #[test]
    fn absorb_merges_shard_states_like_one_store() {
        let kinds = vec![AggKind::Sum, AggKind::Count, AggKind::Min, AggKind::Max];
        let mut mem = MemoryMap::new();
        let mut acc = Vec::new();
        // Oracle: every row folded into one store.
        let rows: Vec<(i64, i64)> = vec![(1, 10), (2, 7), (1, -4), (3, 0), (2, 9)];
        let mut whole = GroupStore::with_kinds(&mut mem, 8, 1, kinds.clone(), "w");
        for &(g, v) in &rows {
            whole.update(&[g], &[v, v, v, v], &mut acc);
        }
        // Shards: rows split 2/3, folded separately, then absorbed.
        let mut a = GroupStore::with_kinds(&mut mem, 8, 1, kinds.clone(), "a");
        let mut b = GroupStore::with_kinds(&mut mem, 8, 1, kinds.clone(), "b");
        for &(g, v) in &rows[..2] {
            a.update(&[g], &[v, v, v, v], &mut acc);
        }
        for &(g, v) in &rows[2..] {
            b.update(&[g], &[v, v, v, v], &mut acc);
        }
        a.absorb(b);
        assert_eq!(a.into_rows(), whole.into_rows());
    }

    #[test]
    fn absorb_keeps_scalar_identity_row_semantics() {
        let mut mem = MemoryMap::new();
        let mut a = GroupStore::new(&mut mem, 1, 0, 2, "a");
        let b = GroupStore::new(&mut mem, 1, 0, 2, "b");
        // Two empty scalar shards merge to the single identity row.
        a.absorb(b);
        assert_eq!(a.into_rows(), vec![vec![0, 0]]);
    }

    /// The group store as a `BTreeMap` from keys to accumulators: the
    /// reference the flat store is checked against.
    struct RefStore {
        groups: std::collections::BTreeMap<Vec<i64>, Vec<i64>>,
        kinds: Vec<AggKind>,
        key_width: usize,
        site: TableSite,
        buckets: u64,
    }

    impl RefStore {
        /// An empty reference with `store`'s shape and placement.
        fn shadowing(store: &GroupStore) -> Self {
            RefStore {
                groups: Default::default(),
                kinds: store.kinds.clone(),
                key_width: store.key_width,
                site: store.site,
                buckets: store.buckets,
            }
        }

        fn update(&mut self, keys: &[i64], values: &[i64], acc: &mut Vec<MemRange>) {
            let mut h = 0u64;
            for &k in keys {
                h = mix64(h ^ k as u64);
            }
            let addr = self.site.base + (h & (self.buckets - 1)) * self.site.entry_bytes;
            acc.push(MemRange::read(addr, self.site.entry_bytes));
            acc.push(MemRange::write(addr, self.site.entry_bytes));
            if let Some(aggs) = self.groups.get_mut(keys) {
                for ((a, v), k) in aggs.iter_mut().zip(values).zip(&self.kinds) {
                    *a = k.fold(*a, *v);
                }
            } else {
                let aggs = (self.kinds.iter().zip(values))
                    .map(|(k, &v)| k.fold(k.init(), v))
                    .collect();
                self.groups.insert(keys.to_vec(), aggs);
            }
        }

        fn absorb(&mut self, other: RefStore) {
            for (keys, aggs) in other.groups {
                match self.groups.entry(keys) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(aggs);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        for ((a, b), k) in e.get_mut().iter_mut().zip(aggs).zip(&self.kinds) {
                            *a = k.combine(*a, b);
                        }
                    }
                }
            }
        }

        fn fingerprint(&self) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut mix = |v: u64| {
                for b in v.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            };
            mix(self.key_width as u64);
            mix(self.kinds.len() as u64);
            for (keys, aggs) in &self.groups {
                for &v in keys.iter().chain(aggs) {
                    mix(v as u64);
                }
            }
            h
        }

        fn into_rows(mut self) -> Vec<Vec<i64>> {
            if self.groups.is_empty() && self.key_width == 0 && !self.kinds.is_empty() {
                let identities = self.kinds.iter().map(|k| k.init()).collect();
                self.groups.insert(Vec::new(), identities);
            }
            (self.groups.into_iter())
                .map(|(mut k, s)| {
                    k.extend(s);
                    k
                })
                .collect()
        }
    }

    /// `count` distinct key tuples of `width` whose key fold agrees in
    /// its low 6 bits, so they share a home slot in every index of up
    /// to 64 slots and chain there.
    fn colliding_keys(width: usize, count: usize) -> Vec<Vec<i64>> {
        let tuple = |n: i64| -> Vec<i64> { [n, n % 5 - 2, -(n % 3)][..width].to_vec() };
        if width == 0 {
            return vec![Vec::new()];
        }
        (0i64..)
            .map(tuple)
            .filter(|keys| GroupStore::fold_keys(keys) & 63 == 0)
            .take(count)
            .collect()
    }

    gpl_check::prop! {
        #![cases(64)]
        /// The flat store is the `BTreeMap` store it replaced, to every
        /// observer: rows, fingerprint and bucket traffic, over key
        /// widths 0–3, every aggregate kind, keys that chain in the
        /// index past its first capacity, absorbs of disjoint row parts
        /// in a seeded order, and empty scalar and grouped stores.
        #[test]
        fn flat_group_store_matches_the_btreemap_reference(
            width in 0usize..4,
            kinds in gpl_check::collection::vec(0usize..4, 1..6),
            rows in gpl_check::collection::vec((gpl_check::any::<u64>(), -1000i64..1000), 0..400),
            parts in 1usize..5,
            order in gpl_check::collection::vec(gpl_check::any::<u64>(), 4..5),
        ) {
            let kinds: Vec<AggKind> = (kinds.iter())
                .map(|&k| [AggKind::Sum, AggKind::Count, AggKind::Min, AggKind::Max][k])
                .collect();
            let chained = colliding_keys(width, 40);
            let key_of = |pick: u64| -> Vec<i64> {
                if pick.is_multiple_of(2) {
                    chained[(pick / 2) as usize % chained.len()].clone()
                } else {
                    (0..width).map(|j| ((pick >> (8 * j + 1)) % 7) as i64 - 3).collect()
                }
            };
            let mut mem = MemoryMap::new();
            let mut new_store = || GroupStore::with_kinds(&mut mem, 64, width, kinds.clone(), "g");

            // Empty: the scalar identity row, or no rows.
            let empty = new_store();
            let reference = RefStore::shadowing(&empty);
            gpl_check::prop_assert_eq!(empty.fingerprint(), reference.fingerprint());
            gpl_check::prop_assert_eq!(empty.into_rows(), reference.into_rows());

            // Row parts folded apart, then absorbed in a seeded order.
            let mut stores: Vec<Option<(GroupStore, RefStore)>> = (0..parts)
                .map(|p| {
                    let mut store = new_store();
                    let mut reference = RefStore::shadowing(&store);
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    for &(pick, v) in rows.iter().skip(p).step_by(parts) {
                        let keys = key_of(pick);
                        let values = vec![v; kinds.len()];
                        store.update(&keys, &values, &mut got);
                        reference.update(&keys, &values, &mut want);
                    }
                    assert_eq!(got, want, "bucket traffic of part {p}");
                    if store.num_groups() > GROUP_INDEX_SLOTS / 2 {
                        assert!(store.index.len() > GROUP_INDEX_SLOTS, "the index grew");
                    }
                    assert_eq!(store.fingerprint(), reference.fingerprint());
                    Some((store, reference))
                })
                .collect();
            let mut perm: Vec<usize> = (0..parts).collect();
            perm.sort_by_key(|&p| (order[p], p));
            let (mut store, mut reference) = stores[perm[0]].take().expect("each part once");
            for &p in &perm[1..] {
                let (s, r) = stores[p].take().expect("each part once");
                store.absorb(s);
                reference.absorb(r);
            }
            gpl_check::prop_assert_eq!(store.num_groups(), reference.groups.len());
            gpl_check::prop_assert_eq!(store.fingerprint(), reference.fingerprint());
            gpl_check::prop_assert_eq!(store.into_rows(), reference.into_rows());
        }
    }

    #[test]
    fn mix64_spreads_consecutive_keys() {
        let buckets = 1024u64;
        let mut hit = std::collections::HashSet::new();
        for k in 0..512u64 {
            hit.insert(mix64(k) & (buckets - 1));
        }
        assert!(
            hit.len() > 300,
            "consecutive keys must spread: {}",
            hit.len()
        );
    }
}
