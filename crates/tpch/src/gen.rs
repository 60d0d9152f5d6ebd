//! A deterministic, from-scratch TPC-H `dbgen` equivalent.
//!
//! Generates the eight TPC-H relations at a given scale factor, following
//! the TPC-H specification's value distributions where the paper's
//! queries are sensitive to them (date windows, retail prices, the
//! part-supplier assignment formula, 1–7 lineitems per order) and
//! simplifying where they are not (comment strings are omitted — the
//! engines are columnar and never touch them).
//!
//! Everything is seeded: the same `(scale factor, seed)` produces the
//! same database, which keeps the simulator runs byte-for-byte
//! reproducible.

use crate::text;
use gpl_prng::{Rng, SeedableRng, StdRng};
use gpl_storage::{days, Column, ColumnBuilder, DataType, DictBuilder, Dictionary, Table};
use std::sync::Arc;

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpchParams {
    /// TPC-H scale factor; 1.0 ≈ 6M lineitems. Fractional SFs scale all
    /// per-SF cardinalities linearly (minimum one row per table).
    pub sf: f64,
    /// Master seed; per-table streams are derived from it.
    pub seed: u64,
}

impl Default for TpchParams {
    fn default() -> Self {
        TpchParams {
            sf: 0.01,
            seed: 0x6770_6c32_3031_3666,
        }
    }
}

impl TpchParams {
    pub fn new(sf: f64) -> Self {
        TpchParams {
            sf,
            ..Default::default()
        }
    }

    fn scaled(&self, per_sf: u64) -> usize {
        ((per_sf as f64 * self.sf).round() as usize).max(1)
    }

    pub fn num_suppliers(&self) -> usize {
        self.scaled(10_000)
    }
    pub fn num_parts(&self) -> usize {
        self.scaled(200_000)
    }
    pub fn num_customers(&self) -> usize {
        self.scaled(150_000)
    }
    pub fn num_orders(&self) -> usize {
        self.scaled(1_500_000)
    }

    /// Distinct suppliers per part (4, unless fewer suppliers exist).
    pub fn suppliers_per_part(&self) -> usize {
        4.min(self.num_suppliers())
    }

    fn rng(&self, table: &str) -> StdRng {
        // Derive a per-table stream from the master seed; a hash of the
        // table name keeps streams independent of generation order. It is
        // FNV-1a's shape with prime 0x1000_0000_01b3, not FNV's
        // 0x100_0000_01b3; the constant seeds the pinned data, so it stays.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in table.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        StdRng::seed_from_u64(self.seed ^ h)
    }
}

/// TPC-H retail price formula (clause 4.2.3): deterministic in the part key.
pub fn retail_price_cents(partkey: i64) -> i64 {
    90_000 + (partkey / 10) % 20_001 + 100 * (partkey % 1_000)
}

/// TPC-H part-supplier assignment (clause 4.2.3): supplier `i` of part
/// `partkey`, for `i` in 0..4, among `s` suppliers (keys are 1-based).
pub fn supplier_of_part(partkey: i64, i: i64, s: i64) -> i64 {
    (partkey + i * (s / 4 + (partkey - 1) / s)) % s + 1
}

/// The distinct suppliers of a part: the spec formula, deduplicated by
/// linear probing — at the paper's scale factors the formula never
/// collides, but the small SFs this reproduction also runs would
/// otherwise produce duplicate (part, supplier) pairs. At most
/// `min(4, s)` suppliers.
pub fn part_suppliers(partkey: i64, s: i64) -> Vec<i64> {
    let want = 4.min(s) as usize;
    let mut out: Vec<i64> = Vec::with_capacity(want);
    for i in 0..4 {
        if out.len() == want {
            break;
        }
        let mut sk = supplier_of_part(partkey, i, s);
        while out.contains(&sk) {
            sk = sk % s + 1;
        }
        out.push(sk);
    }
    out
}

/// Order dates span `1992-01-01 ..= 1998-08-02` (spec: end minus 151
/// days keeps every lineitem date within 1998).
fn order_date_range() -> (i32, i32) {
    (days("1992-01-01"), days("1998-08-02"))
}

/// REGION: the five fixed regions.
pub fn gen_region() -> Table {
    Table::new(
        "region",
        vec![
            ("r_regionkey".into(), Column::i32(0..5)),
            ("r_name".into(), Column::dict(0..5, dict_of(text::REGIONS))),
        ],
    )
}

/// NATION: the 25 fixed nations with their spec region assignment.
pub fn gen_nation() -> Table {
    let names = dict_of(text::NATIONS.iter().map(|(n, _)| n));
    Table::new(
        "nation",
        vec![
            ("n_nationkey".into(), Column::i32(0..25)),
            ("n_name".into(), Column::dict(0..25, names)),
            (
                "n_regionkey".into(),
                Column::i32(text::NATIONS.iter().map(|(_, r)| *r)),
            ),
        ],
    )
}

/// A dictionary of `entries` in order, so entry `i` has code `i`.
fn dict_of(entries: impl IntoIterator<Item = impl AsRef<str>>) -> Arc<Dictionary> {
    let mut d = DictBuilder::new();
    for e in entries {
        d.intern(e.as_ref());
    }
    Arc::new(d.finish())
}

/// SUPPLIER.
pub fn gen_supplier(p: &TpchParams) -> Table {
    let n = p.num_suppliers();
    let mut rng = p.rng("supplier");
    let mut nationkey = ColumnBuilder::with_capacity(DataType::I32, n);
    let mut acctbal = ColumnBuilder::with_capacity(DataType::Decimal, n);
    for _ in 0..n {
        nationkey.push(rng.gen_range(0..25i32).into());
        acctbal.push(rng.gen_range(-99_999..=999_999i64)); // -999.99 .. 9999.99
    }
    Table::new(
        "supplier",
        vec![
            ("s_suppkey".into(), Column::i32(1..=n as i32)),
            ("s_nationkey".into(), nationkey.finish()),
            ("s_acctbal".into(), acctbal.finish()),
        ],
    )
}

/// PART, with the 150 spec type strings and 25 brands.
pub fn gen_part(p: &TpchParams) -> Table {
    let n = p.num_parts();
    let mut rng = p.rng("part");
    let types = dict_of(text::part_types());
    let brands = dict_of(text::part_brands());
    let (n_types, n_brands) = (types.len(), brands.len());
    let mut p_type = ColumnBuilder::dict(types, n);
    let mut p_brand = ColumnBuilder::dict(brands, n);
    let mut p_size = ColumnBuilder::with_capacity(DataType::I32, n);
    let mut p_retail = ColumnBuilder::with_capacity(DataType::Decimal, n);
    for key in 1..=n as i64 {
        p_type.push(rng.gen_range(0..n_types) as i64);
        p_brand.push(rng.gen_range(0..n_brands) as i64);
        p_size.push(rng.gen_range(1..=50i32).into());
        p_retail.push(retail_price_cents(key));
    }
    Table::new(
        "part",
        vec![
            ("p_partkey".into(), Column::i32(1..=n as i32)),
            ("p_type".into(), p_type.finish()),
            ("p_brand".into(), p_brand.finish()),
            ("p_size".into(), p_size.finish()),
            ("p_retailprice".into(), p_retail.finish()),
        ],
    )
}

/// PARTSUPP: (up to) four distinct suppliers per part, spec assignment.
pub fn gen_partsupp(p: &TpchParams) -> Table {
    let parts = p.num_parts() as i64;
    let sups = p.num_suppliers() as i64;
    let mut rng = p.rng("partsupp");
    let n = parts as usize * p.suppliers_per_part();
    let mut ps_partkey = ColumnBuilder::with_capacity(DataType::I32, n);
    let mut ps_suppkey = ColumnBuilder::with_capacity(DataType::I32, n);
    let mut ps_availqty = ColumnBuilder::with_capacity(DataType::I32, n);
    let mut ps_supplycost = ColumnBuilder::with_capacity(DataType::Decimal, n);
    for pk in 1..=parts {
        for sk in part_suppliers(pk, sups) {
            ps_partkey.push(pk);
            ps_suppkey.push(sk);
            ps_availqty.push(rng.gen_range(1..=9999i32).into());
            ps_supplycost.push(rng.gen_range(100..=100_000i64)); // 1.00 .. 1000.00
        }
    }
    Table::new(
        "partsupp",
        vec![
            ("ps_partkey".into(), ps_partkey.finish()),
            ("ps_suppkey".into(), ps_suppkey.finish()),
            ("ps_availqty".into(), ps_availqty.finish()),
            ("ps_supplycost".into(), ps_supplycost.finish()),
        ],
    )
}

/// CUSTOMER.
pub fn gen_customer(p: &TpchParams) -> Table {
    let n = p.num_customers();
    let mut rng = p.rng("customer");
    let segments = dict_of(text::SEGMENTS);
    let n_segments = segments.len();
    let mut nationkey = ColumnBuilder::with_capacity(DataType::I32, n);
    let mut acctbal = ColumnBuilder::with_capacity(DataType::Decimal, n);
    let mut mktsegment = ColumnBuilder::dict(segments, n);
    for _ in 0..n {
        nationkey.push(rng.gen_range(0..25i32).into());
        acctbal.push(rng.gen_range(-99_999..=999_999i64));
        mktsegment.push(rng.gen_range(0..n_segments) as i64);
    }
    Table::new(
        "customer",
        vec![
            ("c_custkey".into(), Column::i32(1..=n as i32)),
            ("c_nationkey".into(), nationkey.finish()),
            ("c_acctbal".into(), acctbal.finish()),
            ("c_mktsegment".into(), mktsegment.finish()),
        ],
    )
}

/// A dict column of `rows` codes drawn uniformly over `entries` from
/// its own stream `rng`.
fn drawn_dict(rng: &mut StdRng, entries: &[&str], rows: usize) -> Column {
    let mut col = ColumnBuilder::dict(dict_of(entries), rows);
    for _ in 0..rows {
        col.push(rng.gen_range(0..entries.len()) as i64);
    }
    col.finish()
}

/// ORDERS and LINEITEM are generated together: each order has 1–7 lines
/// whose dates derive from the order date, and whose extended price is
/// `quantity × retailprice(partkey)` as in the spec.
pub fn gen_orders_lineitem(p: &TpchParams) -> (Table, Table) {
    let orders = p.num_orders();
    let customers = p.num_customers() as i32;
    let parts = p.num_parts() as i64;
    let sups = p.num_suppliers() as i64;
    let mut rng = p.rng("orders");
    let (dlo, dhi) = order_date_range();

    let col = |ty, rows| ColumnBuilder::with_capacity(ty, rows);
    let mut o_custkey = col(DataType::I32, orders);
    let mut o_orderdate = col(DataType::Date, orders);
    let mut o_totalprice = col(DataType::Decimal, orders);

    let lines = orders * 4; // 1–7 lines an order, 4 on average
    let mut l_orderkey = col(DataType::I32, lines);
    let mut l_partkey = col(DataType::I32, lines);
    let mut l_suppkey = col(DataType::I32, lines);
    let mut l_linenumber = col(DataType::I32, lines);
    let mut l_quantity = col(DataType::Decimal, lines);
    let mut l_extendedprice = col(DataType::Decimal, lines);
    let mut l_discount = col(DataType::Decimal, lines);
    let mut l_tax = col(DataType::Decimal, lines);
    let mut l_shipdate = col(DataType::Date, lines);
    let mut l_commitdate = col(DataType::Date, lines);
    let mut l_receiptdate = col(DataType::Date, lines);
    // Codes are entry indexes: R A N, and O F.
    let mut l_returnflag = ColumnBuilder::dict(dict_of(["R", "A", "N"]), lines);
    let mut l_linestatus = ColumnBuilder::dict(dict_of(["O", "F"]), lines);
    let (f_r, f_a, f_n, s_o, s_f) = (0, 1, 2, 0, 1);
    let currentdate = days("1995-06-17");

    for okey in 1..=orders as i64 {
        let odate = rng.gen_range(dlo..=dhi);
        let lines = rng.gen_range(1..=7u32);
        let mut total = 0i64;
        for line in 1..=lines {
            let pk = rng.gen_range(1..=parts);
            let sks = part_suppliers(pk, sups);
            let sk = sks[rng.gen_range(0..sks.len())];
            let qty = rng.gen_range(1..=50i64); // whole units
            let price = qty * retail_price_cents(pk);
            let disc = rng.gen_range(0..=10i64); // 0.00 .. 0.10
            let tax = rng.gen_range(0..=8i64); // 0.00 .. 0.08
            let ship = odate + rng.gen_range(1..=121i32);
            let commit = odate + rng.gen_range(30..=90i32);
            let receipt = ship + rng.gen_range(1..=30i32);
            l_orderkey.push(okey);
            l_partkey.push(pk);
            l_suppkey.push(sk);
            l_linenumber.push(line.into());
            l_quantity.push(qty * 100); // decimal
            l_extendedprice.push(price);
            l_discount.push(disc);
            l_tax.push(tax);
            l_shipdate.push(ship.into());
            l_commitdate.push(commit.into());
            l_receiptdate.push(receipt.into());
            // Spec clause 4.2.3: items received by CURRENTDATE are
            // randomly returned ("R") or accepted ("A"); later ones are
            // neither ("N"). Shipped items are "F"(inished), pending ones
            // "O"(pen).
            l_returnflag.push(if receipt <= currentdate {
                if rng.gen_bool(0.5) {
                    f_r
                } else {
                    f_a
                }
            } else {
                f_n
            });
            l_linestatus.push(if ship > currentdate { s_o } else { s_f });
            total += price;
        }
        o_custkey.push(rng.gen_range(1..=customers).into());
        o_orderdate.push(odate.into());
        o_totalprice.push(total);
    }
    let l_orderkey = l_orderkey.finish();
    let lines = l_orderkey.len();

    // l_shipmode / o_orderpriority are drawn from their own derived
    // streams (not the shared "orders" stream) so adding them left every
    // previously generated column byte-identical — the golden-result
    // fingerprints pin this.
    let o_orderpriority = drawn_dict(
        &mut p.rng("orders.orderpriority"),
        &text::ORDER_PRIORITIES,
        orders,
    );
    let l_shipmode = drawn_dict(&mut p.rng("lineitem.shipmode"), &text::SHIP_MODES, lines);

    let orders_t = Table::new(
        "orders",
        vec![
            ("o_orderkey".into(), Column::i32(1..=orders as i32)),
            ("o_custkey".into(), o_custkey.finish()),
            ("o_orderdate".into(), o_orderdate.finish()),
            ("o_totalprice".into(), o_totalprice.finish()),
            // 0 for every order in the spec; kept for Q3.
            ("o_shippriority".into(), Column::i32(vec![0; orders])),
            ("o_orderpriority".into(), o_orderpriority),
        ],
    );
    let lineitem_t = Table::new(
        "lineitem",
        vec![
            ("l_orderkey".into(), l_orderkey),
            ("l_partkey".into(), l_partkey.finish()),
            ("l_suppkey".into(), l_suppkey.finish()),
            ("l_linenumber".into(), l_linenumber.finish()),
            ("l_quantity".into(), l_quantity.finish()),
            ("l_extendedprice".into(), l_extendedprice.finish()),
            ("l_discount".into(), l_discount.finish()),
            ("l_tax".into(), l_tax.finish()),
            ("l_shipdate".into(), l_shipdate.finish()),
            ("l_commitdate".into(), l_commitdate.finish()),
            ("l_receiptdate".into(), l_receiptdate.finish()),
            ("l_returnflag".into(), l_returnflag.finish()),
            ("l_linestatus".into(), l_linestatus.finish()),
            ("l_shipmode".into(), l_shipmode),
        ],
    );
    (orders_t, lineitem_t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_scale() {
        let p = TpchParams::new(0.01);
        assert_eq!(p.num_suppliers(), 100);
        assert_eq!(p.num_parts(), 2_000);
        assert_eq!(p.num_customers(), 1_500);
        assert_eq!(p.num_orders(), 15_000);
        let tiny = TpchParams::new(0.000001);
        assert_eq!(tiny.num_suppliers(), 1, "minimum one row");
    }

    #[test]
    fn generation_is_deterministic() {
        let p = TpchParams::new(0.002);
        let (o1, l1) = gen_orders_lineitem(&p);
        let (o2, l2) = gen_orders_lineitem(&p);
        assert_eq!(o1, o2);
        assert_eq!(l1, l2);
        assert_eq!(gen_part(&p), gen_part(&p));
        // Different seed, different data.
        let p2 = TpchParams { seed: 42, ..p };
        assert_ne!(gen_orders_lineitem(&p2).1, l1);
    }

    #[test]
    fn lineitem_foreign_keys_are_valid() {
        let p = TpchParams::new(0.002);
        let (orders, lineitem) = gen_orders_lineitem(&p);
        let parts = p.num_parts() as i64;
        let sups = p.num_suppliers() as i64;
        for row in 0..lineitem.rows() {
            let ok = lineitem.col("l_orderkey").get_i64(row);
            assert!(ok >= 1 && ok <= orders.rows() as i64);
            let pk = lineitem.col("l_partkey").get_i64(row);
            assert!(pk >= 1 && pk <= parts);
            let sk = lineitem.col("l_suppkey").get_i64(row);
            assert!(sk >= 1 && sk <= sups, "suppkey {sk} out of [1, {sups}]");
        }
    }

    #[test]
    fn lineitem_dates_follow_order_dates() {
        let p = TpchParams::new(0.002);
        let (orders, lineitem) = gen_orders_lineitem(&p);
        for row in 0..lineitem.rows() {
            let okey = lineitem.col("l_orderkey").get_i64(row) as usize;
            let odate = orders.col("o_orderdate").get_i64(okey - 1);
            let ship = lineitem.col("l_shipdate").get_i64(row);
            let receipt = lineitem.col("l_receiptdate").get_i64(row);
            assert!(ship > odate && ship <= odate + 121);
            assert!(receipt > ship && receipt <= ship + 30);
        }
    }

    #[test]
    #[allow(clippy::identity_op)] // spelled out to mirror the spec formula
    fn retail_price_matches_spec_formula() {
        assert_eq!(retail_price_cents(1), 90_000 + 0 + 100);
        assert_eq!(retail_price_cents(1000), 90_000 + 100 + 0);
        // Bounded: price in [900.00, 2110.00] per spec.
        for key in [1i64, 7, 999, 12_345, 199_999] {
            let c = retail_price_cents(key);
            assert!((90_000..=211_001).contains(&c), "key {key} price {c}");
        }
    }

    #[test]
    fn supplier_assignment_in_range_and_spread() {
        let s = 100;
        let mut seen = std::collections::HashSet::new();
        for pk in 1..=400i64 {
            for i in 0..4 {
                let sk = supplier_of_part(pk, i, s);
                assert!((1..=s).contains(&sk));
                seen.insert(sk);
            }
        }
        assert!(seen.len() > 90, "assignment must cover most suppliers");
    }

    #[test]
    fn nations_and_regions_are_fixed() {
        let n = gen_nation();
        let r = gen_region();
        assert_eq!(n.rows(), 25);
        assert_eq!(r.rows(), 5);
        let dict = n.col("n_name").dictionary().unwrap();
        assert!(dict.code_of("FRANCE").is_some());
        assert!(dict.code_of("GERMANY").is_some());
        assert!(dict.code_of("BRAZIL").is_some());
        let rdict = r.col("r_name").dictionary().unwrap();
        assert!(rdict.code_of("ASIA").is_some());
        assert!(rdict.code_of("AMERICA").is_some());
        // Nation region keys are valid region indexes.
        for row in 0..25 {
            let rk = n.col("n_regionkey").get_i64(row);
            assert!((0..5).contains(&rk));
        }
    }

    #[test]
    fn partsupp_is_four_distinct_per_part() {
        let p = TpchParams::new(0.002);
        let spp = p.suppliers_per_part();
        assert_eq!(spp, 4);
        let ps = gen_partsupp(&p);
        assert_eq!(ps.rows(), p.num_parts() * spp);
        // Grouped layout: rows spp*k..spp*(k+1) belong to part k+1, with
        // distinct suppliers.
        for part in 0..p.num_parts() {
            let mut sks = Vec::new();
            for i in 0..spp {
                let row = part * spp + i;
                assert_eq!(ps.col("ps_partkey").get_i64(row), (part + 1) as i64);
                sks.push(ps.col("ps_suppkey").get_i64(row));
            }
            sks.sort_unstable();
            sks.dedup();
            assert_eq!(sks.len(), spp, "part {} has duplicate suppliers", part + 1);
        }
    }

    #[test]
    fn part_supplier_pairs_unique_at_tiny_scale() {
        // SF 0.005 gives 50 suppliers, where the raw spec formula wraps.
        let p = TpchParams::new(0.005);
        let ps = gen_partsupp(&p);
        let mut seen = std::collections::HashSet::new();
        for row in 0..ps.rows() {
            let pair = (
                ps.col("ps_partkey").get_i64(row),
                ps.col("ps_suppkey").get_i64(row),
            );
            assert!(seen.insert(pair), "duplicate {pair:?}");
        }
    }

    #[test]
    fn shipmode_and_priority_cover_their_domains() {
        let p = TpchParams::new(0.01);
        let (orders, lineitem) = gen_orders_lineitem(&p);
        let modes = lineitem.col("l_shipmode");
        let md = modes.dictionary().unwrap();
        assert_eq!(md.len(), 7);
        let distinct: std::collections::HashSet<i64> =
            (0..lineitem.rows()).map(|r| modes.get_i64(r)).collect();
        assert_eq!(distinct.len(), 7, "all ship modes appear at SF 0.01");
        let prio = orders.col("o_orderpriority");
        let pd = prio.dictionary().unwrap();
        assert_eq!(pd.len(), 5);
        let distinct: std::collections::HashSet<i64> =
            (0..orders.rows()).map(|r| prio.get_i64(r)).collect();
        assert_eq!(distinct.len(), 5, "all priorities appear at SF 0.01");
    }

    #[test]
    fn part_has_economy_anodized_steel() {
        let p = TpchParams::new(0.01);
        let part = gen_part(&p);
        let dict = part.col("p_type").dictionary().unwrap();
        let code = dict.code_of("ECONOMY ANODIZED STEEL");
        assert!(
            code.is_some(),
            "Q8's literal type must exist in the dictionary"
        );
        // And some parts actually carry it at this scale.
        let code = code.unwrap() as i64;
        let hits = (0..part.rows())
            .filter(|&r| part.col("p_type").get_i64(r) == code)
            .count();
        assert!(hits > 0, "no part with the Q8 type at SF 0.01");
    }
}
