//! The extended workload (Q1, Q3, Q6, Q10, Q12 — beyond the paper's
//! evaluation set): every engine must agree with the CPU reference, and
//! the new aggregate kinds / LIMIT machinery must behave.

use gpl_repro::core::{plan_for, run_query, ExecContext, ExecMode, QueryConfig};
use gpl_repro::sim::{amd_a10, nvidia_k40};
use gpl_repro::tpch::{reference, QueryId, TpchDb};

#[test]
fn extended_queries_match_reference_in_every_mode() {
    for spec in [amd_a10(), nvidia_k40()] {
        let mut ctx = ExecContext::new(spec.clone(), TpchDb::at_scale(0.01));
        for q in QueryId::extended_set() {
            let plan = plan_for(&ctx.db, q);
            let cfg = QueryConfig::default_for(&spec, &plan);
            let want = reference::run(&ctx.db, q);
            for mode in [
                ExecMode::Kbe,
                ExecMode::GplNoCe,
                ExecMode::Gpl,
                ExecMode::Ocelot,
            ] {
                let run = run_query(&mut ctx, &plan, mode, &cfg);
                assert_eq!(
                    run.output,
                    want,
                    "{} under {} on {}",
                    q.name(),
                    mode.name(),
                    spec.name
                );
            }
        }
    }
}

#[test]
fn q1_aggregates_are_consistent() {
    let db = TpchDb::at_scale(0.01);
    let out = reference::q1(&db);
    // Two flags x two statuses at most (R/A only exist before the
    // current date, N after; O/F likewise partition on it).
    assert!(
        out.rows.len() >= 2 && out.rows.len() <= 6,
        "{} groups",
        out.rows.len()
    );
    let total: i64 = out.rows.iter().map(|r| r[7]).sum();
    // Q1's cutoff keeps almost every lineitem.
    assert!(total as f64 > 0.9 * db.lineitem.rows() as f64);
    for r in &out.rows {
        assert!(r[7] > 0, "count must be positive");
        assert!(r[4] <= r[3], "discounted sum cannot exceed base sum");
        assert!(r[5] >= r[4], "charge includes tax");
    }
}

#[test]
fn q3_returns_at_most_ten_rows_in_order() {
    let db = TpchDb::at_scale(0.02);
    let out = reference::q3(&db);
    assert!(out.rows.len() <= 10);
    assert!(!out.rows.is_empty(), "Q3 empty at SF 0.02");
    for w in out.rows.windows(2) {
        assert!(
            w[0][3] > w[1][3] || (w[0][3] == w[1][3] && w[0][1] <= w[1][1]),
            "revenue desc, date asc"
        );
    }
}

#[test]
fn q6_is_a_small_fraction_of_total_revenue() {
    let db = TpchDb::at_scale(0.01);
    let q6 = reference::q6(&db);
    let rev = q6.rows[0][0];
    assert!(rev > 0, "Q6 matched nothing");
    // 1 of ~7 years x ~3/11 discounts x ~46% quantities: well under 5%.
    let all = reference::listing1(&db, i32::MAX).rows[0][0];
    assert!(rev < all / 20, "Q6 revenue {rev} vs total charge {all}");
}

#[test]
fn q10_limit_truncates_consistently_across_engines() {
    // Q10's LIMIT 20 bites at SF 0.05 (hundreds of customer groups); the
    // engine must apply ORDER BY before LIMIT exactly like the reference.
    let spec = amd_a10();
    let mut ctx = ExecContext::new(spec.clone(), TpchDb::at_scale(0.05));
    let want = reference::run(&ctx.db, QueryId::Q10);
    assert_eq!(want.rows.len(), 20, "limit must bite at this scale");
    let plan = plan_for(&ctx.db, QueryId::Q10);
    let cfg = QueryConfig::default_for(&spec, &plan);
    let run = run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
    assert_eq!(run.output, want);
}

#[test]
fn q12_buckets_partition_the_filtered_rows() {
    // high + low per mode equals the plain filtered count — the two CASE
    // sums must cover every row exactly once.
    let db = TpchDb::at_scale(0.01);
    let out = reference::run(&db, QueryId::Q12);
    let l = &db.lineitem;
    let dict = l.col("l_shipmode").dictionary().unwrap();
    let (rlo, rhi) = gpl_repro::tpch::queries::literals::q12_receipt_window();
    for r in &out.rows {
        let mode = r[0];
        let expect = (0..l.rows())
            .filter(|&row| {
                let rd = l.col("l_receiptdate").get_i64(row);
                l.col("l_shipmode").get_i64(row) == mode
                    && rd >= rlo as i64
                    && rd < rhi as i64
                    && l.col("l_commitdate").get_i64(row) < rd
                    && l.col("l_shipdate").get_i64(row) < l.col("l_commitdate").get_i64(row)
            })
            .count() as i64;
        assert_eq!(r[1] + r[2], expect, "mode {}", dict.get(mode as u32));
    }
}

#[test]
fn extended_queries_keep_the_gpl_advantage() {
    let spec = amd_a10();
    let mut ctx = ExecContext::new(spec.clone(), TpchDb::at_scale(0.1));
    for q in QueryId::extended_set() {
        let plan = plan_for(&ctx.db, q);
        let cfg = QueryConfig::default_for(&spec, &plan);
        ctx.sim.clear_cache();
        let kbe = run_query(&mut ctx, &plan, ExecMode::Kbe, &cfg);
        ctx.sim.clear_cache();
        let gpl = run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
        assert!(
            (gpl.cycles as f64) < 1.1 * kbe.cycles as f64,
            "{}: GPL {} should not lose to KBE {}",
            q.name(),
            gpl.cycles,
            kbe.cycles
        );
    }
}
