//! Golden results: the generator is seeded and every engine is exact, so
//! the reference outputs at a fixed scale factor are stable values. If a
//! change to the generator or the date/decimal arithmetic alters any of
//! these, this test flags it — bump the constants only for *intentional*
//! data-layer changes (engine changes must never move them).

use gpl_repro::tpch::{reference, QueryId, TpchDb};

mod common;
use common::fingerprint;

#[test]
fn reference_outputs_are_pinned_at_sf_001() {
    let db = TpchDb::at_scale(0.01);
    let got: Vec<(&str, u64)> = QueryId::all()
        .iter()
        .filter(|q| !matches!(q, QueryId::Adhoc))
        .map(|&q| (q.name(), fingerprint(&reference::run(&db, q))))
        .collect();
    let want: Vec<(&str, u64)> = vec![
        ("Q1", 0xfa3c3ec030a44f4c),
        ("Q3", 0x94523c748258c627),
        ("Q5", 0xcd33dd7bed3d2b05),
        ("Q6", 0x74287b29a7b966bb),
        ("Q7", 0x3a056354f0f60d98),
        ("Q8", 0xaec3c1fbeebf6936),
        ("Q9", 0x674c3e68f249b828),
        ("Q10", 0x7a9a156d463671ac),
        ("Q12", 0x5aef11d0c96d4bc8),
        ("Q14", 0x213f2af45e534fbb),
        ("Listing1", 0x5a40f2f55825b8ce),
    ];
    assert_eq!(got, want, "reference outputs moved — data-layer change?");
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
