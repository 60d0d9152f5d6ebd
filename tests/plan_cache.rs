//! PlanCache contract tests: a hit must be indistinguishable from a
//! fresh planning pass (same plan, same Section-4 configuration), the
//! LRU bound must hold under pressure, and entries must never leak
//! across device specs or execution modes. A single-device server plans
//! through the same door as a sharded one, over a one-device pool.

use gpl_check::prelude::*;
use gpl_repro::core::shard::{DevicePool, PoolDevice, ShardPlan};
use gpl_repro::core::{run_query, ExecContext, ExecMode, QueryConfig};
use gpl_repro::model::GammaTable;
use gpl_repro::serve::{PlanCache, PlanEntry, QueryRequest, ServeConfig, Server, ShardServeConfig};
use gpl_repro::sim::{amd_a10, nvidia_k40, DeviceSpec};
use gpl_repro::tpch::{QueryId, TpchDb};
use std::sync::{Arc, OnceLock};

mod common;
use common::{db_sf0002 as db, gamma, gamma_for};

const ALL_MODES: [ExecMode; 5] = [
    ExecMode::Kbe,
    ExecMode::GplNoCe,
    ExecMode::Gpl,
    ExecMode::GplPipelined,
    ExecMode::Ocelot,
];

/// `sql` through the one door as a single-device server plans it: a
/// one-device pool of `spec` with its Γ table, at one shard.
fn plan_on(
    cache: &PlanCache,
    db: &TpchDb,
    spec: &DeviceSpec,
    gamma: &GammaTable,
    sql: &str,
    mode: ExecMode,
) -> (Arc<PlanEntry>, bool) {
    let pool = DevicePool::new(vec![PoolDevice { spec: spec.clone() }]);
    cache
        .get_or_place(
            db,
            &pool,
            std::slice::from_ref(gamma),
            sql,
            mode,
            &ShardPlan::single(),
        )
        .unwrap()
}

/// For every corpus query under every mode: the second lookup is a hit
/// that returns the very same entry, and the one device's configuration
/// equals what the single-device optimizer chooses — the Eq. 8 search,
/// plus the overlap post-pass under `GplPipelined`. That equality is what
/// lets a single-device server plan as a one-device placement.
#[test]
fn hit_after_miss_is_identical_to_fresh_planning_for_every_corpus_query() {
    let db = db();
    let spec = amd_a10();
    let gamma = gamma();
    let cache = PlanCache::new(64);
    for q in QueryId::all() {
        let Some(sql) = gpl_repro::sql::sql_for(q) else {
            continue;
        };
        // The fresh pass the cache claims to memoize.
        let plan = gpl_repro::sql::compile_optimized(&db, sql).unwrap();
        let stats = gpl_repro::model::estimate_stats(&db, &plan);
        let models = gpl_repro::model::build_models(&db, &plan, &stats, &spec);
        let searched = gpl_repro::model::optimize_models(&spec, &gamma, &plan, &models).config;
        for mode in ALL_MODES {
            let who = format!("{} under {}", q.name(), mode.name());
            let (cold, hit) = plan_on(&cache, &db, &spec, &gamma, sql, mode);
            assert!(!hit, "{who} must start cold");
            let (warm, hit) = plan_on(&cache, &db, &spec, &gamma, sql, mode);
            assert!(hit, "{who} must be cached on the second lookup");
            assert!(
                Arc::ptr_eq(&cold, &warm),
                "{who}: a hit must return the stored entry"
            );

            let mut fresh = searched.clone();
            if mode == ExecMode::GplPipelined {
                gpl_repro::model::attach_overlap(&spec, &gamma, &plan, &models, &mut fresh);
            }
            assert_eq!(cold.plan.display, plan.display, "{who}: plan drifted");
            assert_eq!(cold.placement.assignment.configs.len(), 1);
            assert_eq!(
                cold.placement.assignment.configs[0], fresh,
                "{who}: the one device's config must equal a fresh search"
            );
            assert!(cold
                .placement
                .assignment
                .stage_device
                .iter()
                .all(|&d| d == 0));
        }
    }
    let (hits, misses) = cache.stats();
    assert_eq!(
        misses, hits,
        "one miss then one hit per corpus query and mode"
    );
    assert_eq!(cache.search_stats(), (0, misses));
}

#[test]
fn entries_do_not_leak_across_devices_or_modes() {
    let db = db();
    let amd = amd_a10();
    let nvidia = nvidia_k40();
    let amd_gamma = gamma();
    let nvidia_gamma = gamma_for(&nvidia);
    let sql = gpl_repro::sql::sql_for(QueryId::Q6).unwrap();
    let cache = PlanCache::new(16);

    let (_, hit) = plan_on(&cache, &db, &amd, &amd_gamma, sql, ExecMode::Gpl);
    assert!(!hit);
    // Same SQL, other device: must NOT hit the AMD entry.
    let (_, hit) = plan_on(&cache, &db, &nvidia, &nvidia_gamma, sql, ExecMode::Gpl);
    assert!(!hit, "a device change must miss");
    // Same SQL and device, other mode: also distinct.
    let (_, hit) = plan_on(&cache, &db, &amd, &amd_gamma, sql, ExecMode::Kbe);
    assert!(!hit, "a mode change must miss");
    assert_eq!(cache.len(), 3);
    // And the original key is still warm.
    let (_, hit) = plan_on(&cache, &db, &amd, &amd_gamma, sql, ExecMode::Gpl);
    assert!(hit);
}

#[test]
fn lru_eviction_prefers_the_least_recently_used_entry() {
    let db = db();
    let spec = amd_a10();
    let gamma = gamma();
    let cache = PlanCache::new(2);
    let plan = |sql| plan_on(&cache, &db, &spec, &gamma, sql, ExecMode::Gpl).1;
    let a = "select count(*) as c from lineitem";
    let b = "select count(*) as c from orders";
    let c = "select count(*) as c from customer";
    plan(a);
    plan(b);
    // Touch `a` so `b` becomes the LRU victim when `c` arrives.
    assert!(plan(a));
    plan(c);
    assert_eq!(cache.len(), 2);
    assert!(plan(a), "recently-touched entry must survive");
    assert!(!plan(b), "LRU entry must have been evicted");
}

/// The one behaviour the single planning path changed: a sharded
/// `GplPipelined` server's placement now carries the overlap post-pass's
/// slices, where placement used to ignore the mode. On the reference pool
/// at one shard, Q9 and Q14 served that way return the KBE oracle's rows.
#[test]
fn a_sharded_pipelined_server_carries_overlap_slices_and_matches_kbe() {
    let db = db();
    let pool = DevicePool::default_pool();
    let gammas: Vec<GammaTable> = pool.devices().iter().map(|d| gamma_for(&d.spec)).collect();
    let queries = [QueryId::Q9, QueryId::Q14];
    let sqls: Vec<&str> = queries
        .iter()
        .map(|&q| gpl_repro::sql::sql_for(q).unwrap())
        .collect();

    let cache = PlanCache::new(8);
    // Overlap slices over both queries' per-device configs.
    let slices = |mode| {
        let mut total = 0;
        for sql in &sqls {
            let shard = ShardPlan::single();
            let (entry, _) = (cache.get_or_place(&db, &pool, &gammas, sql, mode, &shard)).unwrap();
            for config in &entry.placement.assignment.configs {
                total += config.stages.iter().map(|s| s.overlap_slices).sum::<u32>();
            }
        }
        total
    };
    assert_eq!(slices(ExecMode::Gpl), 0, "the sequential modes carry none");
    assert!(
        slices(ExecMode::GplPipelined) > 0,
        "the pipelined mode carries slices"
    );

    let srv = Server::start(
        ServeConfig {
            workers: 1,
            sharding: Some(ShardServeConfig {
                pool: pool.clone(),
                gammas: gammas.clone(),
                plan: ShardPlan::single(),
                hedge_threshold: None,
            }),
            ..ServeConfig::default()
        },
        amd_a10(),
        db.clone(),
        Arc::new(gammas[0].clone()),
    );
    let reqs = (0..)
        .zip(&sqls)
        .map(|(id, sql)| QueryRequest::new(id, *sql, ExecMode::GplPipelined));
    for (resp, (q, sql)) in srv
        .run_batch(reqs.collect())
        .iter()
        .zip(queries.iter().zip(&sqls))
    {
        let served = resp
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", q.name()));
        let plan = gpl_repro::sql::compile_optimized(&db, sql).unwrap();
        let spec = amd_a10();
        let cfg = QueryConfig::default_for(&spec, &plan);
        let mut ctx = ExecContext::with_shared(spec, db.clone());
        let kbe = run_query(&mut ctx, &plan, ExecMode::Kbe, &cfg);
        assert_eq!(served.output, kbe.output, "{} diverged from KBE", q.name());
    }
}

/// Q6 planned once into a cache of its own: the clean form every
/// whitespace variant below must hit. Planning is a pure function of
/// its inputs, so sharing it across property cases changes nothing the
/// cases observe.
fn clean_q6() -> &'static (PlanCache, Arc<PlanEntry>) {
    static CLEAN: OnceLock<(PlanCache, Arc<PlanEntry>)> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let sql = gpl_repro::sql::sql_for(QueryId::Q6).unwrap();
        let cache = PlanCache::new(8);
        let (clean, hit) = plan_on(&cache, &db(), &amd_a10(), &gamma(), sql, ExecMode::Gpl);
        assert!(!hit);
        (cache, clean)
    })
}

prop! {
    #![cases(32)]

    /// Lexical noise never splits cache entries: rewriting a query with
    /// random extra whitespace between tokens (and an optional trailing
    /// semicolon) must hit the entry its clean form created.
    #[test]
    fn whitespace_variants_hit_the_same_entry(
        gaps in prop::collection::vec(1usize..4, 64),
        semi in any::<bool>(),
    ) {
        let sql = gpl_repro::sql::sql_for(QueryId::Q6).unwrap();
        let (cache, clean) = clean_q6();

        let words: Vec<&str> = sql.split_whitespace().collect();
        let mut noisy = String::new();
        for (i, w) in words.iter().enumerate() {
            if i > 0 {
                let n = gaps[(i - 1) % gaps.len()];
                noisy.push_str(&" ".repeat(n));
            }
            noisy.push_str(w);
        }
        if semi {
            noisy.push(';');
        }
        let (entry, hit) = plan_on(cache, &db(), &amd_a10(), &gamma(), &noisy, ExecMode::Gpl);
        prop_assert!(hit, "noisy form must hit: {:?}", noisy);
        prop_assert!(Arc::ptr_eq(clean, &entry));
        prop_assert_eq!(cache.len(), 1);
    }
}
