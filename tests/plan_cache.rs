//! PlanCache contract tests: a hit must be indistinguishable from a
//! fresh planning pass (same plan, same Section-4 configuration), the
//! LRU bound must hold under pressure, and entries must never leak
//! across device specs or execution modes.

use gpl_check::prelude::*;
use gpl_repro::core::ExecMode;
use gpl_repro::serve::{PlanCache, PlanEntry};
use gpl_repro::sim::{amd_a10, nvidia_k40};
use gpl_repro::tpch::QueryId;
use std::sync::{Arc, OnceLock};

mod common;
use common::{db_sf0002 as db, gamma, gamma_for};

/// For every corpus query: the second lookup is a hit that returns the
/// very same entry, and the cached configuration equals what a fresh
/// optimizer pass would choose — a hit changes nothing but latency.
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
        let (cold, hit) = cache
            .get_or_plan(&db, &spec, &gamma, sql, ExecMode::Gpl)
            .unwrap();
        assert!(!hit, "{} must start cold", q.name());
        let (warm, hit) = cache
            .get_or_plan(&db, &spec, &gamma, sql, ExecMode::Gpl)
            .unwrap();
        assert!(hit, "{} must be cached on the second lookup", q.name());
        assert!(
            Arc::ptr_eq(&cold, &warm),
            "{}: a hit must return the stored entry",
            q.name()
        );

        // The fresh pass the cache claims to memoize.
        let plan = gpl_repro::sql::compile_optimized(&db, sql).unwrap();
        let stats = gpl_repro::model::estimate_stats(&db, &plan);
        let models = gpl_repro::model::build_models(&db, &plan, &stats, &spec);
        let fresh = gpl_repro::model::optimize_models(&spec, &gamma, &plan, &models);
        assert_eq!(cold.plan.display, plan.display, "{} plan drifted", q.name());
        assert_eq!(
            cold.config,
            fresh.config,
            "{}: cached config must equal a fresh search",
            q.name()
        );
    }
    let (hits, misses) = cache.stats();
    assert_eq!(misses, hits, "one miss then one hit per corpus query");
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

    let (_, hit) = cache
        .get_or_plan(&db, &amd, &amd_gamma, sql, ExecMode::Gpl)
        .unwrap();
    assert!(!hit);
    // Same SQL, other device: must NOT hit the AMD entry.
    let (_, hit) = cache
        .get_or_plan(&db, &nvidia, &nvidia_gamma, sql, ExecMode::Gpl)
        .unwrap();
    assert!(!hit, "a device change must miss");
    // Same SQL and device, other mode: also distinct.
    let (_, hit) = cache
        .get_or_plan(&db, &amd, &amd_gamma, sql, ExecMode::Kbe)
        .unwrap();
    assert!(!hit, "a mode change must miss");
    assert_eq!(cache.len(), 3);
    // And the original key is still warm.
    let (_, hit) = cache
        .get_or_plan(&db, &amd, &amd_gamma, sql, ExecMode::Gpl)
        .unwrap();
    assert!(hit);
}

#[test]
fn lru_eviction_prefers_the_least_recently_used_entry() {
    let db = db();
    let spec = amd_a10();
    let gamma = gamma();
    let cache = PlanCache::new(2);
    let a = "select count(*) as c from lineitem";
    let b = "select count(*) as c from orders";
    let c = "select count(*) as c from customer";
    cache
        .get_or_plan(&db, &spec, &gamma, a, ExecMode::Gpl)
        .unwrap();
    cache
        .get_or_plan(&db, &spec, &gamma, b, ExecMode::Gpl)
        .unwrap();
    // Touch `a` so `b` becomes the LRU victim when `c` arrives.
    let (_, hit) = cache
        .get_or_plan(&db, &spec, &gamma, a, ExecMode::Gpl)
        .unwrap();
    assert!(hit);
    cache
        .get_or_plan(&db, &spec, &gamma, c, ExecMode::Gpl)
        .unwrap();
    assert_eq!(cache.len(), 2);
    let (_, hit) = cache
        .get_or_plan(&db, &spec, &gamma, a, ExecMode::Gpl)
        .unwrap();
    assert!(hit, "recently-touched entry must survive");
    let (_, hit) = cache
        .get_or_plan(&db, &spec, &gamma, b, ExecMode::Gpl)
        .unwrap();
    assert!(!hit, "LRU entry must have been evicted");
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
        let (clean, hit) = cache
            .get_or_plan(&db(), &amd_a10(), &gamma(), sql, ExecMode::Gpl)
            .unwrap();
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
        let (entry, hit) = cache
            .get_or_plan(&db(), &amd_a10(), &gamma(), &noisy, ExecMode::Gpl)
            .unwrap();
        prop_assert!(hit, "noisy form must hit: {:?}", noisy);
        prop_assert!(Arc::ptr_eq(clean, &entry));
        prop_assert_eq!(cache.len(), 1);
    }
}
