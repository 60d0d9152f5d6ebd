//! The quickstart golden: `examples/quickstart.rs`'s calls — Listing 1
//! at SF 0.05 on the AMD A10, default config, the simulated cache
//! cleared before each mode — with its printed `sum_charge`, cycles and
//! intermediate footprint per mode pinned in `pins/quickstart`. README.md
//! quotes the same numbers.

use gpl_repro::core::{plan::listing1_plan, run_query, ExecContext, ExecMode, QueryConfig};
use gpl_repro::sim::amd_a10;
use gpl_repro::storage::{days, decimal_to_string};
use gpl_repro::tpch::{reference, TpchDb};

#[test]
fn quickstart_sum_cycles_and_footprint_are_pinned() {
    let spec = amd_a10();
    let mut ctx = ExecContext::new(spec.clone(), TpchDb::at_scale(0.05));
    let cutoff = days("1998-11-01");
    let plan = listing1_plan(cutoff);
    let cfg = QueryConfig::default_for(&spec, &plan);
    let want = reference::listing1(&ctx.db, cutoff);
    let mut lines = Vec::new();
    for mode in [ExecMode::Kbe, ExecMode::Gpl] {
        ctx.sim.clear_cache();
        let run = run_query(&mut ctx, &plan, mode, &cfg);
        assert_eq!(
            run.output,
            want,
            "{} disagrees with the reference",
            mode.name()
        );
        lines.push(format!(
            "{} sum_charge={} cycles={} intermediate_bytes={}",
            mode.name(),
            decimal_to_string(run.output.rows[0][0]),
            run.cycles,
            run.profile.intermediate_footprint()
        ));
    }
    gpl_check::pins::check("quickstart", &lines.join("\n")).unwrap_or_else(|e| panic!("{e}"));
}
