//! Cross-crate correctness: every execution mode (KBE, GPL w/o CE, GPL)
//! must produce bit-identical results to the CPU reference for every
//! workload query, on both device profiles.

use gpl_core::{plan_for, run_query, ExecContext, ExecMode, QueryConfig};
use gpl_sim::{amd_a10, nvidia_k40, DeviceSpec};
use gpl_tpch::{reference, QueryId, TpchDb};

fn check_device(spec: DeviceSpec, sf: f64) {
    let db = TpchDb::at_scale(sf);
    let mut ctx = ExecContext::new(spec.clone(), db);
    let all = [
        QueryId::Q5,
        QueryId::Q7,
        QueryId::Q8,
        QueryId::Q9,
        QueryId::Q14,
        QueryId::Listing1,
    ];
    for q in all {
        let want = reference::run(&ctx.db, q);
        let plan = plan_for(&ctx.db, q);
        let cfg = QueryConfig::default_for(&spec, &plan);
        for mode in [ExecMode::Kbe, ExecMode::GplNoCe, ExecMode::Gpl] {
            let run = run_query(&mut ctx, &plan, mode, &cfg);
            assert_eq!(
                run.output,
                want,
                "{} under {} diverged from the reference on {}",
                q.name(),
                mode.name(),
                spec.name
            );
            assert!(run.cycles > 0);
        }
    }
}

#[test]
fn all_queries_all_modes_match_reference_on_amd() {
    check_device(amd_a10(), 0.01);
}

#[test]
fn all_queries_all_modes_match_reference_on_nvidia() {
    check_device(nvidia_k40(), 0.01);
}
