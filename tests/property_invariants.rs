//! Property-based tests (gpl-check) on the core data structures and
//! operator invariants, per DESIGN.md's testing strategy.

use gpl_check::prelude::*;
use gpl_prng::{Rng, SeedableRng, StdRng};
use gpl_repro::core::ht::{AggKind, GroupStore, SimHashTable};
use gpl_repro::core::ops::{apply_compute, apply_filter, apply_probe, sort_rows, Chunk};
use gpl_repro::core::shard::ShardPlan;
use gpl_repro::core::{CmpOp, Expr, Pred};
use gpl_repro::sim::{CacheSim, MemRange, MemoryMap};
use gpl_repro::storage::{dec_mul, Date, Tiling};

prop! {
    /// dec_mul matches widened integer arithmetic and is sign-correct.
    #[test]
    fn dec_mul_matches_i128(a in -1_000_000_000_000i64..1_000_000_000_000, b in -10_000i64..10_000) {
        let want = ((a as i128 * b as i128) / 100) as i64;
        prop_assert_eq!(dec_mul(a, b), want);
    }

    /// Date day-number conversion round-trips over four centuries.
    #[test]
    fn date_roundtrip(days in -80_000i32..80_000) {
        let d = Date::from_days(days);
        prop_assert_eq!(d.to_days(), days);
        prop_assert!((1..=12).contains(&d.month));
        prop_assert!((1..=31).contains(&d.day));
        // Display/parse round-trip too.
        let s = d.to_string();
        prop_assert_eq!(Date::parse(&s), Some(d));
    }

    /// Tiling is a partition: disjoint, ordered, covering every row.
    #[test]
    fn tiling_partitions(rows in 0usize..10_000, row_bytes in 1u64..64, tile_bytes in 1u64..65_536) {
        let t = Tiling::by_bytes(rows, row_bytes, tile_bytes);
        let mut next = 0usize;
        for r in t.iter() {
            prop_assert_eq!(r.start, next);
            prop_assert!(r.end > r.start);
            next = r.end;
        }
        prop_assert_eq!(next, rows);
    }

    /// Filter equals the per-row interpreter for arbitrary data, every
    /// comparison, a mirrored `lit CMP slot` atom and an in-list — the
    /// shape `apply_filter` evaluates as one narrowing sweep per atom,
    /// the first in blocks of 1024 rows.
    #[test]
    fn filter_matches_retain(
        vals in prop::collection::vec(-1000i64..1000, 0..2500),
        op in 0usize..6,
        lo in -500i64..500,
        hi in -500i64..1500,
        list in prop::collection::vec(-2000i64..2000, 0..6),
        atoms in 1usize..4,
    ) {
        let mut c = Chunk::new(2);
        c.fill(0, vals.clone());
        c.fill(1, vals.iter().map(|v| v * 2).collect());
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne][op];
        let mut conj = vec![
            Pred::cmp(op, Expr::slot(0), Expr::lit(lo)),
            Pred::cmp(CmpOp::Gt, Expr::lit(hi), Expr::slot(0)),
            Pred::InList(Expr::slot(1), list),
        ];
        conj.truncate(atoms);
        let pred = Pred::And(conj);
        prop_assert!(pred.as_atoms().is_some());
        let out = apply_filter(&c, &pred);
        let want: Vec<i64> = (0..vals.len())
            .filter(|&r| pred.eval(&c.cols, r))
            .map(|r| vals[r])
            .collect();
        prop_assert_eq!(&out.cols[0], &want);
        let want2: Vec<i64> = want.iter().map(|v| v * 2).collect();
        prop_assert_eq!(&out.cols[1], &want2);
        prop_assert_eq!(out.rows, want.len());
    }

    /// Hash probe equals a HashMap-join oracle (unique build keys).
    #[test]
    fn probe_matches_hashmap_join(
        build in prop::collection::hash_map(-500i64..500, -9i64..9, 0..120),
        probe_keys in prop::collection::vec(-600i64..600, 0..200),
    ) {
        let mut mem = MemoryMap::new();
        let mut ht = SimHashTable::new(&mut mem, build.len(), 1, "t");
        let mut acc = Vec::new();
        for (&k, &v) in &build {
            ht.insert(k, &[v], &mut acc);
        }
        let mut c = Chunk::new(2);
        c.fill(0, probe_keys.clone());
        acc.clear();
        let out = apply_probe(&c, &ht, 0, &[1], &mut acc);
        let want: Vec<(i64, i64)> = probe_keys
            .iter()
            .filter_map(|k| build.get(k).map(|&v| (*k, v)))
            .collect();
        prop_assert_eq!(out.rows, want.len());
        prop_assert_eq!(&out.cols[0], &want.iter().map(|p| p.0).collect::<Vec<_>>());
        prop_assert_eq!(&out.cols[1], &want.iter().map(|p| p.1).collect::<Vec<_>>());
        // One simulated bucket access per probed row.
        prop_assert_eq!(acc.len(), probe_keys.len());
    }

    /// Group store equals a BTreeMap aggregation oracle.
    #[test]
    fn group_store_matches_btreemap(rows in prop::collection::vec((-20i64..20, -100i64..100), 0..300)) {
        let mut mem = MemoryMap::new();
        let mut g = GroupStore::new(&mut mem, 64, 1, 1, "agg");
        let mut want = std::collections::BTreeMap::<i64, i64>::new();
        let mut acc = Vec::new();
        for &(k, v) in &rows {
            g.update(&[k], &[v], &mut acc);
            *want.entry(k).or_default() += v;
        }
        let got = g.into_rows();
        // Grouped aggregation over no input yields no rows (SQL).
        let want: Vec<Vec<i64>> = want.into_iter().map(|(k, v)| vec![k, v]).collect();
        prop_assert_eq!(got, want);
    }

    /// Compute fills exactly the expression values.
    #[test]
    fn compute_matches_eval(vals in prop::collection::vec(-1000i64..1000, 1..200)) {
        let mut c = Chunk::new(2);
        c.fill(0, vals.clone());
        apply_compute(&mut c, &Expr::slot(0).mul(Expr::lit(3)).add(Expr::lit(7)), 1);
        let want: Vec<i64> = vals.iter().map(|v| v * 3 + 7).collect();
        prop_assert_eq!(&c.cols[1], &want);
    }

    /// sort_rows is a permutation ordered by the spec with full tiebreak.
    #[test]
    fn sort_rows_is_ordered_permutation(rows in prop::collection::vec((0i64..50, -50i64..50), 0..200), desc in any::<bool>()) {
        let mut data: Vec<Vec<i64>> = rows.iter().map(|&(a, b)| vec![a, b]).collect();
        let mut copy = data.clone();
        sort_rows(&mut data, &[(0, desc)]);
        copy.sort();
        let mut back = data.clone();
        back.sort();
        prop_assert_eq!(back, copy, "must be a permutation");
        for w in data.windows(2) {
            if desc {
                prop_assert!(w[0][0] >= w[1][0]);
            } else {
                prop_assert!(w[0][0] <= w[1][0]);
            }
            if w[0][0] == w[1][0] {
                prop_assert!(w[0] <= w[1], "tiebreak must be ascending");
            }
        }
    }

    /// The cache never exceeds capacity and counts every line exactly once.
    #[test]
    fn cache_accounting_is_exact(accesses in prop::collection::vec((0u64..1u64 << 16, 1u64..512, any::<bool>()), 1..300)) {
        let mut c = CacheSim::new(16 << 10, 64, 4);
        let mut lines = 0u64;
        for &(addr, bytes, write) in &accesses {
            let r = if write { MemRange::write(addr, bytes) } else { MemRange::read(addr, bytes) };
            let s = c.access(r);
            let first = addr / 64;
            let last = (addr + bytes - 1) / 64;
            prop_assert_eq!(s.total(), last - first + 1);
            lines += s.total();
        }
        prop_assert_eq!(c.cum.total(), lines);
        prop_assert!(c.resident_lines() <= c.capacity_lines());
        prop_assert!(c.hit_ratio() >= 0.0 && c.hit_ratio() <= 1.0);
    }
}

prop! {
    /// A shard plan partitions the row space for arbitrary row counts
    /// and shard counts: one range per shard, in order, each starting
    /// where the last ended and the last ending at `rows` (total and
    /// disjoint), balanced to within one row with the longer ranges
    /// first.
    #[test]
    fn sharder_partition_is_total_and_disjoint(
        rows in 0usize..50_000,
        shards in 1usize..12,
    ) {
        let parts = ShardPlan::range(shards).partition(rows);
        prop_assert_eq!(parts.len(), shards, "one range per shard");
        let mut end = 0usize;
        for r in &parts {
            prop_assert_eq!(r.start, end, "ranges must tile the rows: {:?}", parts);
            prop_assert!(r.start <= r.end);
            end = r.end;
        }
        prop_assert_eq!(end, rows, "rows dropped: {:?}", parts);
        for w in parts.windows(2) {
            prop_assert!(w[0].len() >= w[1].len() && w[0].len() <= w[1].len() + 1, "{:?}", parts);
        }
    }

    /// Merging shard-local aggregate state is independent of the order
    /// shards complete in: absorbing the partial stores in a seeded
    /// random permutation yields the same rows as natural order, for
    /// every aggregate kind at once.
    #[test]
    fn absorbed_aggregate_state_is_completion_order_independent(
        vals in prop::collection::vec((0i64..8, -100i64..100), 0..400),
        shards in 1usize..7,
        seed in any::<u64>(),
    ) {
        let kinds = vec![AggKind::Sum, AggKind::Count, AggKind::Min, AggKind::Max];
        let build_parts = || -> Vec<GroupStore> {
            let mut mem = MemoryMap::new();
            let mut acc = Vec::new();
            let mut parts: Vec<GroupStore> = (0..shards)
                .map(|s| GroupStore::with_kinds(&mut mem, 16, 1, kinds.clone(), format!("p{s}")))
                .collect();
            for (i, &(k, v)) in vals.iter().enumerate() {
                parts[i % shards].update(&[k], &[v, v, v, v], &mut acc);
            }
            parts
        };

        let natural = {
            let mut mem = MemoryMap::new();
            let mut total = GroupStore::with_kinds(&mut mem, 16, 1, kinds.clone(), "nat");
            for p in build_parts() {
                total.absorb(p);
            }
            total.into_rows()
        };
        let mut order: Vec<usize> = (0..shards).collect();
        StdRng::seed_from_u64(seed).shuffle(&mut order);
        let shuffled = {
            let mut parts: Vec<Option<GroupStore>> = build_parts().into_iter().map(Some).collect();
            let mut mem = MemoryMap::new();
            let mut total = GroupStore::with_kinds(&mut mem, 16, 1, kinds.clone(), "shuf");
            for &i in &order {
                total.absorb(parts[i].take().expect("each shard absorbed once"));
            }
            total.into_rows()
        };
        prop_assert_eq!(natural, shuffled, "merge order {:?} changed the rows", order);
    }
}
