//! Golden results: the generator is seeded and every engine is exact, so
//! the reference outputs at a fixed scale factor are stable values,
//! pinned in `pins/golden_results`. If a change to the generator or the
//! date/decimal arithmetic alters any of these, this test flags it —
//! re-pin only for *intentional* data-layer changes (engine changes must
//! never move them).

use gpl_repro::tpch::{reference, QueryId, TpchDb};

mod common;
use common::fingerprint;

#[test]
fn reference_outputs_are_pinned_at_sf_001() {
    let db = TpchDb::at_scale(0.01);
    let lines: Vec<String> = QueryId::all()
        .iter()
        .filter(|q| !matches!(q, QueryId::Adhoc))
        .map(|&q| {
            format!(
                "{} {:#018x}",
                q.name(),
                fingerprint(&reference::run(&db, q))
            )
        })
        .collect();
    gpl_check::pins::check("golden_results", &lines.join("\n")).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn sanity_values_at_sf_001() {
    // A couple of human-readable anchors alongside the fingerprints.
    let db = TpchDb::at_scale(0.01);
    let q14 = reference::run(&db, QueryId::Q14);
    assert_eq!(q14.rows.len(), 1);
    let l1 = reference::run(&db, QueryId::Listing1);
    assert!(l1.rows[0][0] > 0);
    let q1 = reference::run(&db, QueryId::Q1);
    let total: i64 = q1.rows.iter().map(|r| r[7]).sum();
    assert_eq!(total as usize, {
        // Q1 counts all lineitems shipped by its cutoff.
        let cutoff = gpl_repro::tpch::queries::literals::q1_cutoff() as i64;
        (0..db.lineitem.rows())
            .filter(|&r| db.lineitem.col("l_shipdate").get_i64(r) <= cutoff)
            .count()
    });
}
