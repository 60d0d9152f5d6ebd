//! CPU reference implementations — the ground truth both engines (and the
//! Ocelot baseline) are validated against.
//!
//! These are deliberately straightforward row-at-a-time joins over the
//! dense 1-based keys of the generator, using the exact same fixed-point
//! arithmetic helpers as the engines, so results must match bit-for-bit.
//!
//! Result column layouts (also the contract for the engines):
//!
//! * **Q5** — `[n_name, revenue]`, revenue desc.
//! * **Q7** — `[supp_nation, cust_nation, l_year, revenue]`, year asc.
//! * **Q8** — `[o_year, brazil_volume, total_volume]`, year asc (the
//!   `mkt_share` ratio is `brazil/total`; keeping both sums keeps the
//!   comparison exact).
//! * **Q9** — `[nation, o_year, sum_profit]`, year desc.
//! * **Q14** — `[promo_revenue, total_revenue]`, single row.
//! * **Listing 1** — `[sum_charge]`, single row.

use crate::db::TpchDb;
use crate::output::QueryOutput;
use crate::queries::{literals, order_spec, Q14Params, QueryId};
use gpl_storage::{dec_mul, Date};
use std::collections::BTreeMap;

/// Run any of the workloads with its default parameters.
pub fn run(db: &TpchDb, q: QueryId) -> QueryOutput {
    match q {
        QueryId::Q1 => q1(db),
        QueryId::Q3 => q3(db),
        QueryId::Q6 => q6(db),
        QueryId::Q5 => q5(db),
        QueryId::Q7 => q7(db),
        QueryId::Q8 => q8(db),
        QueryId::Q9 => q9(db),
        QueryId::Q10 => q10(db),
        QueryId::Q12 => q12(db),
        QueryId::Q14 => q14(db, Q14Params::default()),
        QueryId::Listing1 => listing1(db, literals::listing1_cutoff()),
        QueryId::Adhoc => panic!("ad-hoc SQL plans have no fixed reference"),
    }
}

fn year(days: i64) -> i64 {
    Date::year_of_days(days as i32) as i64
}

/// `l_extendedprice * (1 - l_discount)` in cents.
#[inline]
pub fn volume(extended: i64, discount: i64) -> i64 {
    dec_mul(extended, 100 - discount)
}

/// Q1 (extended set): the pricing summary report. Column layout:
/// `[l_returnflag, l_linestatus, sum_qty, sum_base_price, sum_disc_price,
/// sum_charge, sum_disc, count_order]` — the spec's averages are the
/// obvious ratios of these exact sums.
pub fn q1(db: &TpchDb) -> QueryOutput {
    let cutoff = literals::q1_cutoff() as i64;
    let l = &db.lineitem;
    let flag = l.col("l_returnflag");
    let status = l.col("l_linestatus");
    let qty = l.col("l_quantity");
    let ext = l.col("l_extendedprice");
    let disc = l.col("l_discount");
    let tax = l.col("l_tax");
    let mut groups: BTreeMap<(i64, i64), [i64; 6]> = BTreeMap::new();
    for row in 0..l.rows() {
        if l.col("l_shipdate").get_i64(row) > cutoff {
            continue;
        }
        let e = groups
            .entry((flag.get_i64(row), status.get_i64(row)))
            .or_insert([0; 6]);
        let v = volume(ext.get_i64(row), disc.get_i64(row));
        e[0] += qty.get_i64(row);
        e[1] += ext.get_i64(row);
        e[2] += v;
        e[3] += dec_mul(v, 100 + tax.get_i64(row));
        e[4] += disc.get_i64(row);
        e[5] += 1;
    }
    let rows = groups
        .into_iter()
        .map(|((f, s), a)| vec![f, s, a[0], a[1], a[2], a[3], a[4], a[5]])
        .collect();
    let mut out = QueryOutput::new(
        vec![
            "l_returnflag",
            "l_linestatus",
            "sum_qty",
            "sum_base_price",
            "sum_disc_price",
            "sum_charge",
            "sum_disc",
            "count_order",
        ],
        rows,
    );
    out.sort_by(&order_spec(QueryId::Q1));
    out
}

/// Q3 (extended set): the top-10 unshipped orders of the BUILDING
/// segment. Columns: `[l_orderkey, o_orderdate, o_shippriority, revenue]`.
pub fn q3(db: &TpchDb) -> QueryOutput {
    let date = literals::q3_date() as i64;
    let building = db
        .customer
        .col("c_mktsegment")
        .dictionary()
        .expect("dict")
        .code_of("BUILDING")
        .expect("segment exists") as i64;
    let l = &db.lineitem;
    let l_orderkey = l.col("l_orderkey");
    let l_ship = l.col("l_shipdate");
    let l_ext = l.col("l_extendedprice");
    let l_disc = l.col("l_discount");
    let o_custkey = db.orders.col("o_custkey");
    let o_date = db.orders.col("o_orderdate");
    let o_prio = db.orders.col("o_shippriority");
    let c_seg = db.customer.col("c_mktsegment");
    let mut groups: BTreeMap<(i64, i64, i64), i64> = BTreeMap::new();
    for row in 0..l.rows() {
        if l_ship.get_i64(row) <= date {
            continue;
        }
        let o = (l_orderkey.get_i64(row) - 1) as usize;
        if o_date.get_i64(o) >= date {
            continue;
        }
        let c = (o_custkey.get_i64(o) - 1) as usize;
        if c_seg.get_i64(c) != building {
            continue;
        }
        *groups
            .entry((
                l_orderkey.get_i64(row),
                o_date.get_i64(o),
                o_prio.get_i64(o),
            ))
            .or_default() += volume(l_ext.get_i64(row), l_disc.get_i64(row));
    }
    let rows = groups
        .into_iter()
        .map(|((k, d, p), v)| vec![k, d, p, v])
        .collect();
    let mut out = QueryOutput::new(
        vec!["l_orderkey", "o_orderdate", "o_shippriority", "revenue"],
        rows,
    );
    out.sort_by(&order_spec(QueryId::Q3));
    out.rows.truncate(literals::Q3_LIMIT);
    out
}

/// Q6 (extended set): the forecasting revenue-change scan. Single row
/// `[revenue]` with `revenue = sum(l_extendedprice * l_discount)`.
pub fn q6(db: &TpchDb) -> QueryOutput {
    let (lo, hi) = literals::q6_ship_window();
    let l = &db.lineitem;
    let l_ship = l.col("l_shipdate");
    let l_qty = l.col("l_quantity");
    let l_ext = l.col("l_extendedprice");
    let l_disc = l.col("l_discount");
    let mut sum = 0i64;
    for row in 0..l.rows() {
        let d = l_ship.get_i64(row);
        let disc = l_disc.get_i64(row);
        if d >= lo as i64
            && d < hi as i64
            && (literals::Q6_DISCOUNT_LO..=literals::Q6_DISCOUNT_HI).contains(&disc)
            && l_qty.get_i64(row) < literals::Q6_QUANTITY_BOUND
        {
            sum += dec_mul(l_ext.get_i64(row), disc);
        }
    }
    QueryOutput::new(vec!["revenue"], vec![vec![sum]])
}

/// Q5: revenue per ASIA nation for orders placed in 1994, with the
/// customer and supplier in the same nation.
pub fn q5(db: &TpchDb) -> QueryOutput {
    let (olo, ohi) = literals::q5_order_window();
    let asia = db.region_code("ASIA");
    let nation_region = db.nation_region();

    let l = &db.lineitem;
    let l_orderkey = l.col("l_orderkey");
    let l_suppkey = l.col("l_suppkey");
    let l_ext = l.col("l_extendedprice");
    let l_disc = l.col("l_discount");
    let o_custkey = db.orders.col("o_custkey");
    let o_date = db.orders.col("o_orderdate");
    let c_nation = db.customer.col("c_nationkey");
    let s_nation = db.supplier.col("s_nationkey");

    let mut revenue: BTreeMap<i64, i64> = BTreeMap::new();
    for row in 0..l.rows() {
        let o = (l_orderkey.get_i64(row) - 1) as usize;
        let od = o_date.get_i64(o);
        if od < olo as i64 || od >= ohi as i64 {
            continue;
        }
        let s = (l_suppkey.get_i64(row) - 1) as usize;
        let sn = s_nation.get_i64(s);
        let c = (o_custkey.get_i64(o) - 1) as usize;
        if c_nation.get_i64(c) != sn {
            continue;
        }
        if nation_region[sn as usize] != asia {
            continue;
        }
        *revenue.entry(sn).or_default() += volume(l_ext.get_i64(row), l_disc.get_i64(row));
    }
    let rows = revenue.into_iter().map(|(n, v)| vec![n, v]).collect();
    let mut out = QueryOutput::new(vec!["n_name", "revenue"], rows);
    out.sort_by(&order_spec(QueryId::Q5));
    out
}

/// Q7: France↔Germany shipping volume by year.
pub fn q7(db: &TpchDb) -> QueryOutput {
    let (slo, shi) = literals::q7_ship_window();
    let fr = db.nation_code("FRANCE");
    let de = db.nation_code("GERMANY");

    let l = &db.lineitem;
    let l_orderkey = l.col("l_orderkey");
    let l_suppkey = l.col("l_suppkey");
    let l_ship = l.col("l_shipdate");
    let l_ext = l.col("l_extendedprice");
    let l_disc = l.col("l_discount");
    let o_custkey = db.orders.col("o_custkey");
    let c_nation = db.customer.col("c_nationkey");
    let s_nation = db.supplier.col("s_nationkey");

    let mut revenue: BTreeMap<(i64, i64, i64), i64> = BTreeMap::new();
    for row in 0..l.rows() {
        let sd = l_ship.get_i64(row);
        if sd < slo as i64 || sd > shi as i64 {
            continue;
        }
        let sn = s_nation.get_i64((l_suppkey.get_i64(row) - 1) as usize);
        let o = (l_orderkey.get_i64(row) - 1) as usize;
        let cn = c_nation.get_i64((o_custkey.get_i64(o) - 1) as usize);
        let pair_ok = (sn == fr && cn == de) || (sn == de && cn == fr);
        if !pair_ok {
            continue;
        }
        *revenue.entry((sn, cn, year(sd))).or_default() +=
            volume(l_ext.get_i64(row), l_disc.get_i64(row));
    }
    let rows = revenue
        .into_iter()
        .map(|((s, c, y), v)| vec![s, c, y, v])
        .collect();
    let mut out = QueryOutput::new(
        vec!["supp_nation", "cust_nation", "l_year", "revenue"],
        rows,
    );
    out.sort_by(&order_spec(QueryId::Q7));
    out
}

/// Q8: Brazil's market share of ECONOMY ANODIZED STEEL in AMERICA,
/// 1995–1996, as (numerator, denominator) sums per year.
pub fn q8(db: &TpchDb) -> QueryOutput {
    let (olo, ohi) = literals::q8_order_window();
    let america = db.region_code("AMERICA");
    let brazil = db.nation_code("BRAZIL");
    let steel = db.part_type_code("ECONOMY ANODIZED STEEL");
    let nation_region = db.nation_region();

    let l = &db.lineitem;
    let l_orderkey = l.col("l_orderkey");
    let l_partkey = l.col("l_partkey");
    let l_suppkey = l.col("l_suppkey");
    let l_ext = l.col("l_extendedprice");
    let l_disc = l.col("l_discount");
    let o_custkey = db.orders.col("o_custkey");
    let o_date = db.orders.col("o_orderdate");
    let c_nation = db.customer.col("c_nationkey");
    let s_nation = db.supplier.col("s_nationkey");
    let p_type = db.part.col("p_type");

    let mut share: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for row in 0..l.rows() {
        let p = (l_partkey.get_i64(row) - 1) as usize;
        if p_type.get_i64(p) != steel {
            continue;
        }
        let o = (l_orderkey.get_i64(row) - 1) as usize;
        let od = o_date.get_i64(o);
        if od < olo as i64 || od > ohi as i64 {
            continue;
        }
        let cn = c_nation.get_i64((o_custkey.get_i64(o) - 1) as usize);
        if nation_region[cn as usize] != america {
            continue;
        }
        let sn = s_nation.get_i64((l_suppkey.get_i64(row) - 1) as usize);
        let vol = volume(l_ext.get_i64(row), l_disc.get_i64(row));
        let e = share.entry(year(od)).or_default();
        e.1 += vol;
        if sn == brazil {
            e.0 += vol;
        }
    }
    let rows = share
        .into_iter()
        .map(|(y, (num, den))| vec![y, num, den])
        .collect();
    let mut out = QueryOutput::new(vec!["o_year", "brazil_volume", "total_volume"], rows);
    out.sort_by(&order_spec(QueryId::Q8));
    out
}

/// Q9 (Appendix B variant): profit by nation and year for parts with
/// `p_partkey < 1000`.
pub fn q9(db: &TpchDb) -> QueryOutput {
    let bound = literals::Q9_PARTKEY_BOUND;

    let l = &db.lineitem;
    let l_orderkey = l.col("l_orderkey");
    let l_partkey = l.col("l_partkey");
    let l_suppkey = l.col("l_suppkey");
    let l_qty = l.col("l_quantity");
    let l_ext = l.col("l_extendedprice");
    let l_disc = l.col("l_discount");
    let o_date = db.orders.col("o_orderdate");
    let s_nation = db.supplier.col("s_nationkey");
    let ps_suppkey = db.partsupp.col("ps_suppkey");
    let ps_cost = db.partsupp.col("ps_supplycost");

    let spp = db.partsupp.rows() / db.part.rows().max(1);
    let mut profit: BTreeMap<(i64, i64), i64> = BTreeMap::new();
    for row in 0..l.rows() {
        let pk = l_partkey.get_i64(row);
        if pk >= bound {
            continue;
        }
        let sk = l_suppkey.get_i64(row);
        // PARTSUPP rows for part pk are spp(pk-1)..spp·pk (generator layout).
        let base = spp * (pk - 1) as usize;
        let cost = (base..base + spp)
            .find(|&r| ps_suppkey.get_i64(r) == sk)
            .map(|r| ps_cost.get_i64(r))
            .expect("lineitem supplier must be one of the part's suppliers");
        let o = (l_orderkey.get_i64(row) - 1) as usize;
        let amount =
            volume(l_ext.get_i64(row), l_disc.get_i64(row)) - dec_mul(cost, l_qty.get_i64(row));
        let nation = s_nation.get_i64((sk - 1) as usize);
        *profit.entry((nation, year(o_date.get_i64(o)))).or_default() += amount;
    }
    let rows = profit
        .into_iter()
        .map(|((n, y), v)| vec![n, y, v])
        .collect();
    let mut out = QueryOutput::new(vec!["nation", "o_year", "sum_profit"], rows);
    out.sort_by(&order_spec(QueryId::Q9));
    out
}

/// Q10 (extended set): the top-20 returned-item customers of 1993Q4.
/// Columns: `[c_custkey, c_nationkey, c_acctbal, revenue]`, revenue desc
/// with the customer key as tiebreak (the engine output must be totally
/// ordered to compare exactly).
pub fn q10(db: &TpchDb) -> QueryOutput {
    let (olo, ohi) = literals::q10_order_window();
    let returned = db
        .lineitem
        .col("l_returnflag")
        .dictionary()
        .expect("dict")
        .code_of("R")
        .expect("flag exists") as i64;
    let l = &db.lineitem;
    let l_orderkey = l.col("l_orderkey");
    let l_flag = l.col("l_returnflag");
    let l_ext = l.col("l_extendedprice");
    let l_disc = l.col("l_discount");
    let o_custkey = db.orders.col("o_custkey");
    let o_date = db.orders.col("o_orderdate");
    let c_nation = db.customer.col("c_nationkey");
    let c_acct = db.customer.col("c_acctbal");

    let mut revenue: BTreeMap<i64, i64> = BTreeMap::new();
    for row in 0..l.rows() {
        if l_flag.get_i64(row) != returned {
            continue;
        }
        let o = (l_orderkey.get_i64(row) - 1) as usize;
        let od = o_date.get_i64(o);
        if od < olo as i64 || od >= ohi as i64 {
            continue;
        }
        *revenue.entry(o_custkey.get_i64(o)).or_default() +=
            volume(l_ext.get_i64(row), l_disc.get_i64(row));
    }
    let rows = revenue
        .into_iter()
        .map(|(ck, v)| {
            let c = (ck - 1) as usize;
            vec![ck, c_nation.get_i64(c), c_acct.get_i64(c), v]
        })
        .collect();
    let mut out = QueryOutput::new(
        vec!["c_custkey", "c_nationkey", "c_acctbal", "revenue"],
        rows,
    );
    out.sort_by(&order_spec(QueryId::Q10));
    out.rows.truncate(literals::Q10_LIMIT);
    out
}

/// Q12 (extended set): late-shipment counts by ship mode, split into
/// high- and low-priority buckets. Columns:
/// `[l_shipmode, high_line_count, low_line_count]`, mode asc.
pub fn q12(db: &TpchDb) -> QueryOutput {
    let (rlo, rhi) = literals::q12_receipt_window();
    let l = &db.lineitem;
    let mode_dict = l.col("l_shipmode").dictionary().expect("dict");
    let wanted: Vec<i64> = literals::Q12_SHIP_MODES
        .iter()
        .map(|m| mode_dict.code_of(m).expect("mode exists") as i64)
        .collect();
    let prio_dict = db.orders.col("o_orderpriority").dictionary().expect("dict");
    let high: Vec<i64> = literals::Q12_HIGH_PRIORITIES
        .iter()
        .map(|p| prio_dict.code_of(p).expect("priority exists") as i64)
        .collect();
    let l_orderkey = l.col("l_orderkey");
    let l_mode = l.col("l_shipmode");
    let l_ship = l.col("l_shipdate");
    let l_commit = l.col("l_commitdate");
    let l_receipt = l.col("l_receiptdate");
    let o_prio = db.orders.col("o_orderpriority");

    let mut counts: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for row in 0..l.rows() {
        let m = l_mode.get_i64(row);
        if !wanted.contains(&m) {
            continue;
        }
        let rd = l_receipt.get_i64(row);
        if rd < rlo as i64 || rd >= rhi as i64 {
            continue;
        }
        if l_commit.get_i64(row) >= rd || l_ship.get_i64(row) >= l_commit.get_i64(row) {
            continue;
        }
        let o = (l_orderkey.get_i64(row) - 1) as usize;
        let e = counts.entry(m).or_default();
        if high.contains(&o_prio.get_i64(o)) {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    let rows = counts
        .into_iter()
        .map(|(m, (h, lo))| vec![m, h, lo])
        .collect();
    let mut out = QueryOutput::new(
        vec!["l_shipmode", "high_line_count", "low_line_count"],
        rows,
    );
    out.sort_by(&order_spec(QueryId::Q12));
    out
}

/// Q14 with an explicit ship-date window: promo revenue vs total revenue.
pub fn q14(db: &TpchDb, params: Q14Params) -> QueryOutput {
    let promo: Vec<bool> = {
        let codes = db.promo_type_codes();
        let d = db.part.col("p_type").dictionary().expect("dict").len();
        let mut v = vec![false; d];
        for c in codes {
            v[c as usize] = true;
        }
        v
    };
    let l = &db.lineitem;
    let l_partkey = l.col("l_partkey");
    let l_ship = l.col("l_shipdate");
    let l_ext = l.col("l_extendedprice");
    let l_disc = l.col("l_discount");
    let p_type = db.part.col("p_type");

    let mut num = 0i64;
    let mut den = 0i64;
    for row in 0..l.rows() {
        let sd = l_ship.get_i64(row);
        if sd < params.lo as i64 || sd >= params.hi as i64 {
            continue;
        }
        let vol = volume(l_ext.get_i64(row), l_disc.get_i64(row));
        den += vol;
        let p = (l_partkey.get_i64(row) - 1) as usize;
        if promo[p_type.get_i64(p) as usize] {
            num += vol;
        }
    }
    QueryOutput::new(vec!["promo_revenue", "total_revenue"], vec![vec![num, den]])
}

/// Listing 1: `sum(l_extendedprice * (1 - l_discount) * (1 + l_tax))`
/// over lineitems shipped on or before `cutoff`.
pub fn listing1(db: &TpchDb, cutoff: i32) -> QueryOutput {
    let l = &db.lineitem;
    let l_ship = l.col("l_shipdate");
    let l_ext = l.col("l_extendedprice");
    let l_disc = l.col("l_discount");
    let l_tax = l.col("l_tax");
    let mut sum = 0i64;
    for row in 0..l.rows() {
        if l_ship.get_i64(row) <= cutoff as i64 {
            let v = volume(l_ext.get_i64(row), l_disc.get_i64(row));
            sum += dec_mul(v, 100 + l_tax.get_i64(row));
        }
    }
    QueryOutput::new(vec!["sum_charge"], vec![vec![sum]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TpchDb {
        TpchDb::at_scale(0.01)
    }

    #[test]
    fn q5_returns_asia_nations_sorted_by_revenue() {
        let db = db();
        let out = q5(&db);
        assert!(!out.rows.is_empty(), "Q5 empty at SF 0.01");
        let asia = db.region_code("ASIA");
        let nr = db.nation_region();
        for w in out.rows.windows(2) {
            assert!(w[0][1] >= w[1][1], "revenue must be descending");
        }
        for r in &out.rows {
            assert_eq!(nr[r[0] as usize], asia, "nation {} not in ASIA", r[0]);
            assert!(r[1] > 0);
        }
    }

    #[test]
    fn q7_has_only_france_germany_pairs_in_window_years() {
        let db = db();
        let out = q7(&db);
        assert!(!out.rows.is_empty());
        let fr = db.nation_code("FRANCE");
        let de = db.nation_code("GERMANY");
        for r in &out.rows {
            let pair = (r[0], r[1]);
            assert!(pair == (fr, de) || pair == (de, fr), "bad pair {pair:?}");
            assert!(r[2] == 1995 || r[2] == 1996, "year {} out of window", r[2]);
        }
    }

    #[test]
    fn q8_share_is_a_fraction_of_total() {
        let out = q8(&db());
        assert!(!out.rows.is_empty());
        for r in &out.rows {
            assert!(r[0] == 1995 || r[0] == 1996);
            assert!(
                r[1] >= 0 && r[1] <= r[2],
                "brazil {} > total {}",
                r[1],
                r[2]
            );
            assert!(r[2] > 0);
        }
    }

    #[test]
    fn q9_years_descend() {
        let out = q9(&db());
        assert!(!out.rows.is_empty());
        for w in out.rows.windows(2) {
            assert!(w[0][1] >= w[1][1]);
        }
    }

    #[test]
    fn q10_is_topk_by_revenue_with_valid_customers() {
        let db = db();
        let out = q10(&db);
        assert!(!out.rows.is_empty(), "Q10 empty at SF 0.01");
        assert!(out.rows.len() <= literals::Q10_LIMIT);
        for w in out.rows.windows(2) {
            assert!(
                w[0][3] > w[1][3] || (w[0][3] == w[1][3] && w[0][0] < w[1][0]),
                "revenue desc, custkey tiebreak"
            );
        }
        for r in &out.rows {
            assert!(r[0] >= 1 && r[0] <= db.customer.rows() as i64);
            assert!((0..25).contains(&r[1]));
            assert!(r[3] > 0);
        }
    }

    #[test]
    fn q12_counts_split_by_priority() {
        let db = db();
        let out = q12(&db);
        // Both requested modes appear at SF 0.01.
        assert_eq!(out.rows.len(), 2, "{:?}", out.rows);
        let dict = db.lineitem.col("l_shipmode").dictionary().unwrap();
        for r in &out.rows {
            let name = dict.get(r[0] as u32);
            assert!(
                literals::Q12_SHIP_MODES.contains(&name),
                "unexpected mode {name}"
            );
            assert!(r[1] > 0 && r[2] > 0, "both buckets populated: {r:?}");
            // High priorities are 2 of 5 uniform choices: high < low.
            assert!(r[1] < r[2], "high {} should be below low {}", r[1], r[2]);
        }
    }

    #[test]
    fn q14_promo_is_bounded_by_total_and_window_scales() {
        let db = db();
        let small = q14(&db, Q14Params::default());
        assert_eq!(small.rows.len(), 1);
        let (num, den) = (small.rows[0][0], small.rows[0][1]);
        assert!(num >= 0 && num <= den);
        assert!(den > 0, "default September window matched nothing");
        // A ~full window has strictly more revenue.
        let w = crate::queries::q14_window_for_selectivity(&db, 1.0);
        let full = q14(&db, w);
        assert!(full.rows[0][1] > den);
    }

    #[test]
    fn listing1_counts_almost_everything() {
        let db = db();
        let all = listing1(&db, i32::MAX);
        let most = listing1(&db, literals::listing1_cutoff());
        let none = listing1(&db, 0);
        assert_eq!(none.rows[0][0], 0);
        assert!(most.rows[0][0] > 0);
        assert!(all.rows[0][0] >= most.rows[0][0]);
    }

    #[test]
    fn run_dispatches_all_queries() {
        let db = TpchDb::at_scale(0.002);
        for q in QueryId::evaluation_set() {
            let out = run(&db, q);
            assert!(!out.columns.is_empty(), "{} produced no columns", q.name());
        }
        let _ = run(&db, QueryId::Listing1);
    }
}
