//! Cross-engine equivalence: KBE, GPL (w/o CE), GPL, GPL (pipelined)
//! and the Ocelot baseline must all agree with the CPU reference — across devices,
//! scale factors, tile sizes and channel configurations. The bottom
//! half is the differential fuzzer: randomly generated in-subset SQL
//! must get the same answer from every engine (failing seeds persist to
//! `tests/cross_engine.proptest-regressions`).

use gpl_check::prelude::*;
use gpl_prng::{SeedableRng, StdRng};
use gpl_repro::core::shard::{try_run_query_sharded, DevicePool, ShardPlan};
use gpl_repro::core::{plan_for, run_query, ExecContext, ExecLimits, ExecMode, QueryConfig};
use gpl_repro::model::{hedge_plan, place_query, GammaTable};
use gpl_repro::ocelot::OcelotContext;
use gpl_repro::serve::PlanCache;
use gpl_repro::sim::{amd_a10, nvidia_k40};
use gpl_repro::tpch::{reference, QueryId, TpchDb};
use std::sync::OnceLock;

mod common;
use common::db_sf001 as fuzz_db;

#[test]
fn ocelot_matches_reference_on_both_devices() {
    for spec in [amd_a10(), nvidia_k40()] {
        let mut ctx = ExecContext::new(spec.clone(), TpchDb::at_scale(0.008));
        for q in QueryId::evaluation_set() {
            let plan = plan_for(&ctx.db, q);
            let cfg = QueryConfig::default_for(&spec, &plan);
            let run = run_query(&mut ctx, &plan, ExecMode::Ocelot, &cfg);
            let want = reference::run(&ctx.db, q);
            assert_eq!(run.output, want, "{} on {}", q.name(), spec.name);
        }
    }
}

#[test]
fn gpl_results_are_config_independent() {
    // Whatever Δ / n / p / wg the cost model picks, results never change.
    let spec = amd_a10();
    let mut ctx = ExecContext::new(spec.clone(), TpchDb::at_scale(0.01));
    for q in [QueryId::Q5, QueryId::Q8] {
        let plan = plan_for(&ctx.db, q);
        let want = reference::run(&ctx.db, q);
        for (tile, n, p, wg) in [
            (64u64 << 10, 1u32, 8u32, 2u32),
            (1 << 20, 4, 16, 32),
            (16 << 20, 16, 64, 128),
            (3 << 20, 2, 32, 8),
        ] {
            let mut cfg = QueryConfig::default_for(&spec, &plan);
            for s in &mut cfg.stages {
                s.tile_bytes = tile;
                s.n_channels = n;
                s.packet_bytes = p;
                for w in &mut s.wg_counts {
                    *w = wg;
                }
            }
            for mode in [ExecMode::Gpl, ExecMode::GplNoCe] {
                let run = run_query(&mut ctx, &plan, mode, &cfg);
                assert_eq!(
                    run.output,
                    want,
                    "{} under {} with Δ={tile} n={n} p={p} wg={wg}",
                    q.name(),
                    mode.name()
                );
            }
        }
    }
}

#[test]
fn results_stable_across_scale_factors() {
    // Each SF has its own ground truth; engines must track it.
    for sf in [0.003, 0.02] {
        let mut ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(sf));
        for q in [QueryId::Q7, QueryId::Q9, QueryId::Q14] {
            let plan = plan_for(&ctx.db, q);
            let cfg = QueryConfig::default_for(&amd_a10(), &plan);
            let want = reference::run(&ctx.db, q);
            let run = run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
            assert_eq!(run.output, want, "{} at SF {sf}", q.name());
        }
    }
}

#[test]
fn warm_ocelot_is_functionally_identical_to_cold() {
    let mut ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(0.008));
    let mut oc = OcelotContext::new();
    let plan = plan_for(&ctx.db, QueryId::Q8);
    let cold = gpl_repro::ocelot::run_query(&mut ctx, &mut oc, &plan);
    let warm = gpl_repro::ocelot::run_query(&mut ctx, &mut oc, &plan);
    assert_eq!(cold.output, warm.output);
    assert!(
        warm.cycles < cold.cycles,
        "cached hash tables must save time"
    );
}

/// A stage that loads no column still drives its aggregate with the
/// scan range's row count — under every mode.
#[test]
fn count_star_only_queries_agree_across_all_modes() {
    let db = common::db_sf0002();
    let spec = amd_a10();
    for table in ["lineitem", "orders"] {
        let sql = format!("select count(*) as n from {table}");
        let plan = gpl_repro::sql::compile(&db, &sql).expect("count(*) compiles");
        let cfg = QueryConfig::default_for(&spec, &plan).with_overlap_slices(3);
        let mut ctx = ExecContext::with_shared(spec.clone(), db.clone());
        let kbe = run_query(&mut ctx, &plan, ExecMode::Kbe, &cfg);
        assert_eq!(kbe.output.rows, [[db.table(table).rows() as i64]]);
        for mode in [
            ExecMode::GplNoCe,
            ExecMode::Gpl,
            ExecMode::GplPipelined,
            ExecMode::Ocelot,
        ] {
            let run = run_query(&mut ctx, &plan, mode, &cfg);
            assert_eq!(run.output, kbe.output, "{sql} under {}", mode.name());
        }
    }
}

#[test]
fn gpl_beats_kbe_and_materializes_less_at_scale() {
    // The paper's two headline claims, asserted as a regression guard at
    // a scale where working sets exceed the 4 MB cache.
    let spec = amd_a10();
    let mut ctx = ExecContext::new(spec.clone(), TpchDb::at_scale(0.1));
    let mut wins = 0;
    for q in QueryId::evaluation_set() {
        let plan = plan_for(&ctx.db, q);
        let cfg = QueryConfig::default_for(&spec, &plan);
        ctx.sim.clear_cache();
        let kbe = run_query(&mut ctx, &plan, ExecMode::Kbe, &cfg);
        ctx.sim.clear_cache();
        let gpl = run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
        assert!(
            gpl.profile.intermediate_footprint() < kbe.profile.intermediate_footprint() / 2,
            "{}: GPL must materialize far less ({} vs {})",
            q.name(),
            gpl.profile.intermediate_footprint(),
            kbe.profile.intermediate_footprint()
        );
        if gpl.cycles < kbe.cycles {
            wins += 1;
        }
    }
    assert!(
        wins >= 4,
        "GPL should beat KBE on most queries, won {wins}/5"
    );
}

prop! {
    #![cases(200)]

    /// Differential fuzzing: any query the generator emits must compile
    /// and produce byte-identical rows under KBE, GPL (w/o CE), GPL,
    /// GPL (pipelined) and the Ocelot baseline. Each case is one seed
    /// for the SQL generator, so a persisted regression replays the
    /// exact query text. The pipelined arm forces the overlap knob on
    /// (the predicate would leave it off for most tiny fuzz tables), so
    /// every eligible build→probe pair actually fuses.
    #[test]
    fn random_queries_agree_across_engines_and_baseline(seed in any::<u64>()) {
        let db = fuzz_db();
        let mut rng = StdRng::seed_from_u64(seed);
        let sql = gpl_repro::sql::random_query(&mut rng);
        let plan = gpl_repro::sql::compile(&db, &sql)
            .unwrap_or_else(|e| panic!("generated query must compile: {sql:?}: {e}"));
        let spec = amd_a10();
        let cfg = QueryConfig::default_for(&spec, &plan);
        let mut ctx = ExecContext::with_shared(spec, db);
        let kbe = run_query(&mut ctx, &plan, ExecMode::Kbe, &cfg);
        for mode in [ExecMode::GplNoCe, ExecMode::Gpl, ExecMode::Ocelot] {
            let run = run_query(&mut ctx, &plan, mode, &cfg);
            prop_assert_eq!(
                &run.output, &kbe.output,
                "{} disagrees with KBE on {:?}", mode.name(), sql
            );
        }
        let piped = cfg.clone().with_overlap_slices(3);
        let run = run_query(&mut ctx, &plan, ExecMode::GplPipelined, &piped);
        prop_assert_eq!(
            &run.output, &kbe.output,
            "GPL (pipelined) disagrees with KBE on {:?}", sql
        );
    }
}

/// The heterogeneous pool with one small calibrated Γ table per device
/// (placement quality is irrelevant to equivalence; a coarse grid keeps
/// the fuzzer fast). Channel counts respect each device's fan-out cap —
/// the CPU profile stops at 4.
fn pool_state() -> &'static (DevicePool, Vec<GammaTable>) {
    static POOL: OnceLock<(DevicePool, Vec<GammaTable>)> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool = DevicePool::default_pool();
        let gammas = pool
            .devices()
            .iter()
            .map(|d| common::gamma_for(&d.spec))
            .collect();
        (pool, gammas)
    })
}

prop! {
    #![cases(200)]

    /// The sharded-heterogeneous arm of the differential fuzzer: KBE on
    /// the single device, GPL on the single device, and GPL sharded
    /// across the CPU/GPU pool under the placement pass must all return
    /// byte-identical rows for any generated query.
    #[test]
    fn random_queries_agree_with_the_sharded_heterogeneous_pool(seed in any::<u64>()) {
        let db = fuzz_db();
        let mut rng = StdRng::seed_from_u64(seed);
        let sql = gpl_repro::sql::random_query(&mut rng);
        let plan = gpl_repro::sql::compile(&db, &sql)
            .unwrap_or_else(|e| panic!("generated query must compile: {sql:?}: {e}"));
        let spec = amd_a10();
        let cfg = QueryConfig::default_for(&spec, &plan);
        let mut ctx = ExecContext::with_shared(spec, db.clone());
        let kbe = run_query(&mut ctx, &plan, ExecMode::Kbe, &cfg);
        let gpl = run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
        prop_assert_eq!(&gpl.output, &kbe.output, "GPL disagrees with KBE on {:?}", sql);
        let (pool, gammas) = pool_state();
        let placement = place_query(pool, gammas, &db, &plan, None);
        let shards = 1 + (seed % 4) as usize;
        let run = try_run_query_sharded(
            pool,
            &db,
            &plan,
            ExecMode::Gpl,
            &ShardPlan::range(shards),
            &placement.assignment,
            &ExecLimits::default(),
            None,
            None,
            None,
            None,
        )
        .unwrap_or_else(|e| panic!("fault-free sharded run failed on {sql:?}: {e}"));
        prop_assert_eq!(
            &run.output, &kbe.output,
            "GPL sharded ({} shards, placement {}) disagrees with KBE on {:?}",
            shards, placement.assignment.key(), sql
        );
        // The hedged arm: threshold 1 makes *every* shard with any
        // observed-over-modeled slack a straggler, so the speculative
        // race (and its bit-equality verification between primary and
        // backup) fires constantly — and the winner must still match
        // KBE byte for byte.
        let hedge = hedge_plan(&placement, 1.0);
        let hedged = try_run_query_sharded(
            pool,
            &db,
            &plan,
            ExecMode::Gpl,
            &ShardPlan::range(shards),
            &placement.assignment,
            &ExecLimits::default(),
            None,
            None,
            Some(&hedge),
            None,
        )
        .unwrap_or_else(|e| panic!("hedged sharded run failed on {sql:?}: {e}"));
        prop_assert_eq!(
            &hedged.output, &kbe.output,
            "hedged GPL sharded ({} shards, {} hedges, {} wins) disagrees with KBE on {:?}",
            shards, hedged.recovery.hedges, hedged.recovery.hedge_wins, sql
        );
    }
}

/// The placement drift guard: a placement served from the shared
/// [`PlanCache`] must equal a fresh Section-4 + placement search run —
/// stage devices, per-device configs and the modeled total. Placement
/// is a pure function of (pool, Γ, catalog, plan), so a cache hit that
/// drifts from a fresh search means a stale or mis-keyed entry.
#[test]
fn cached_placement_matches_a_fresh_search() {
    let db = fuzz_db();
    let (pool, gammas) = pool_state();
    let cache = PlanCache::new(16);
    let shard = ShardPlan::range(2);
    for q in [QueryId::Q5, QueryId::Q9, QueryId::Q14] {
        let sql = gpl_repro::sql::sql_for(q).expect("query in corpus");
        let (_, hit) = cache
            .get_or_place(&db, pool, gammas, sql, ExecMode::Gpl, &shard)
            .expect("placement succeeds");
        assert!(!hit, "{}: first lookup must miss", q.name());
        let (entry, hit) = cache
            .get_or_place(&db, pool, gammas, sql, ExecMode::Gpl, &shard)
            .expect("placement succeeds");
        assert!(hit, "{}: second lookup must hit", q.name());

        let plan = gpl_repro::sql::compile_optimized(&db, sql).expect("compiles");
        let fresh = place_query(pool, gammas, &db, &plan, None);
        assert_eq!(
            entry.placement.assignment.key(),
            fresh.assignment.key(),
            "{}: cached stage devices drifted from a fresh search",
            q.name()
        );
        assert_eq!(
            entry.placement.assignment.configs,
            fresh.assignment.configs,
            "{}: cached per-device configs drifted",
            q.name()
        );
        assert_eq!(
            entry.placement.modeled_total,
            fresh.modeled_total,
            "{}: cached modeled total drifted",
            q.name()
        );
    }
    let (hits, misses) = cache.shard_stats();
    assert_eq!((hits, misses), (3, 3));
}
