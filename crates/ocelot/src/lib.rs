//! # gpl-ocelot — the Ocelot comparison baseline (Section 5.5)
//!
//! Ocelot \[18\] is a hardware-oblivious OpenCL extension of MonetDB and,
//! like all pre-GPL GPU query processors, executes kernel-at-a-time. The
//! three properties Section 5.5 names for the comparison all live in
//! `gpl-core`: bitmap selection intermediates and 4-byte-only columns
//! are [`ExecMode::Ocelot`] (one selection policy of the kernel-at-a-time
//! stage body), and the hash-table cache is an argument of the one query
//! driver. This crate is the positional entry point the benchmark and
//! `repro fig22` call: a default configuration, the driver, and a panic
//! on error like [`gpl_core::run_query`].

use gpl_core::{
    try_run_query_cached, ExecContext, ExecLimits, ExecMode, QueryConfig, QueryPlan, QueryRun,
};

/// Cross-query state: the hash-table cache (Ocelot's memory manager).
pub use gpl_core::HtCache as OcelotContext;

/// Run `plan` on the Ocelot baseline. Hash tables built by previous runs
/// with the same `OcelotContext` are reused.
pub fn run_query(ctx: &mut ExecContext, oc: &mut OcelotContext, plan: &QueryPlan) -> QueryRun {
    let config = QueryConfig::default_for(ctx.sim.spec(), plan);
    try_run_query_cached(
        ctx,
        plan,
        ExecMode::Ocelot,
        &config,
        &ExecLimits::none(),
        None,
        Some(oc),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpl_core::plan_for;
    use gpl_sim::amd_a10;
    use gpl_tpch::{reference, QueryId, TpchDb};

    fn ctx() -> ExecContext {
        ExecContext::new(amd_a10(), TpchDb::at_scale(0.005))
    }

    #[test]
    fn all_queries_match_reference() {
        let mut ctx = ctx();
        let mut oc = OcelotContext::new();
        for q in QueryId::evaluation_set() {
            let plan = plan_for(&ctx.db, q);
            let run = run_query(&mut ctx, &mut oc, &plan);
            let want = reference::run(&ctx.db, q);
            assert_eq!(run.output, want, "{} diverged", q.name());
            assert!(run.cycles > 0);
        }
    }

    #[test]
    fn hash_table_cache_accelerates_repeats() {
        let mut ctx = ctx();
        let mut oc = OcelotContext::new();
        let plan = plan_for(&ctx.db, QueryId::Q5);
        let cold = run_query(&mut ctx, &mut oc, &plan);
        assert_eq!(oc.cache_hits, 0);
        let warm = run_query(&mut ctx, &mut oc, &plan);
        assert_eq!(oc.cache_misses, 3, "Q5 builds three tables once");
        assert_eq!(oc.cache_hits, 3, "second run reuses all three");
        assert!(
            warm.cycles < cold.cycles,
            "warm {} < cold {}",
            warm.cycles,
            cold.cycles
        );
        assert_eq!(warm.output, cold.output);
    }

    #[test]
    fn bitmaps_do_not_compact() {
        // Ocelot must not allocate any Scratch offsets (no prefix-sum /
        // scatter), and its per-selection intermediates are bitmaps.
        let mut ctx = ctx();
        let mut oc = OcelotContext::new();
        let plan = plan_for(&ctx.db, QueryId::Q14);
        let run = run_query(&mut ctx, &mut oc, &plan);
        let names: Vec<&str> = run.profile.kernels.iter().map(|k| &*k.name).collect();
        assert!(!names.contains(&"k_prefix_sum"), "{names:?}");
        assert!(!names.contains(&"k_scatter"), "{names:?}");
    }

    #[test]
    fn clearing_the_cache_forces_rebuilds() {
        let mut ctx = ctx();
        let mut oc = OcelotContext::new();
        let plan = plan_for(&ctx.db, QueryId::Q14);
        run_query(&mut ctx, &mut oc, &plan);
        oc.clear();
        run_query(&mut ctx, &mut oc, &plan);
        assert_eq!(oc.cache_hits, 0);
        assert_eq!(oc.cache_misses, 2);
    }
}
