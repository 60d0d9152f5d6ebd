//! The shared plan/config cache.
//!
//! Planning a query costs one sampled evaluation and two searches over
//! it: join-order optimization and the Section-4 knob search (<5 ms, but
//! per query). A server answering the same normalized SQL thousands of
//! times pays all of it once: [`PlanCache`] memoizes the compiled
//! [`QueryPlan`] *and* the optimizer's chosen [`QueryConfig`], keyed by
//! `normalized SQL × device × exec mode`. The config half additionally
//! flows through `gpl-model`'s [`SearchCache`], whose hit/miss counters
//! the batch report surfaces.

use gpl_core::shard::{DevicePool, ShardPlan};
use gpl_core::{ExecMode, QueryConfig, QueryPlan};
use gpl_model::{
    build_models, optimize_models_cached, place_with_stats, GammaTable, Placement, SearchCache,
};
use gpl_sim::DeviceSpec;
use gpl_tpch::TpchDb;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// One cached planning outcome.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    pub plan: QueryPlan,
    pub config: QueryConfig,
    /// The cost model's Eq. 8 estimate for `config`, in cycles.
    pub estimate: f64,
}

/// One cached sharded-planning outcome: the compiled plan plus the
/// heterogeneous placement pass's full output (per-stage device choice,
/// per-device tuned configs, and the modeled-cycle matrix).
#[derive(Debug, Clone)]
pub struct ShardEntry {
    pub plan: QueryPlan,
    pub placement: Placement,
}

/// A recency-ordered map with hit/miss counters: the one LRU behind
/// both plan caches.
struct Lru<V> {
    map: HashMap<String, Arc<V>>,
    /// Recency order, least-recent first.
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
}

impl<V> Lru<V> {
    fn new() -> Self {
        Lru {
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Counted lookup; a hit becomes the most recent entry.
    fn get(&mut self, key: &str) -> Option<Arc<V>> {
        let Some(entry) = self.map.get(key).cloned() else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.touch(key);
        Some(entry)
    }

    /// Move `key` (already in `order`) to the most-recent end.
    fn touch(&mut self, key: &str) {
        if let Some(k) =
            (self.order.iter().position(|k| k == key)).and_then(|i| self.order.remove(i))
        {
            self.order.push_back(k);
        }
    }

    /// Insert (or replace) as the most recent entry, then evict down to
    /// `capacity`.
    fn insert(&mut self, key: String, entry: Arc<V>, capacity: usize) {
        if self.map.insert(key.clone(), entry).is_some() {
            self.touch(&key);
        } else {
            self.order.push_back(key);
        }
        while self.map.len() > capacity {
            let Some(victim) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&victim);
        }
    }
}

/// Thread-safe LRU cache of [`PlanEntry`]s shared by all workers. When
/// the server runs sharded, a sibling map caches [`ShardEntry`]s under
/// keys that add the pool and the `ExecMode`-orthogonal [`ShardPlan`]
/// component.
pub struct PlanCache {
    inner: Mutex<Lru<PlanEntry>>,
    sharded: Mutex<Lru<ShardEntry>>,
    search: SearchCache,
    capacity: usize,
}

impl PlanCache {
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Lru::new()),
            sharded: Mutex::new(Lru::new()),
            search: SearchCache::new(capacity.max(1)),
            capacity: capacity.max(1),
        }
    }

    /// Normalize SQL for cache keying: collapse runs of whitespace and
    /// strip a trailing semicolon, so reformatted copies of one query
    /// share an entry. Case is preserved — string literals are
    /// case-sensitive and keywords are cheap to leave alone.
    pub fn normalize(sql: &str) -> String {
        let mut out = String::with_capacity(sql.len());
        let mut in_ws = true; // also trims leading whitespace
        for c in sql.chars() {
            if c.is_whitespace() {
                if !in_ws {
                    out.push(' ');
                    in_ws = true;
                }
            } else {
                out.push(c);
                in_ws = false;
            }
        }
        while out.ends_with(' ') || out.ends_with(';') {
            out.pop();
        }
        out
    }

    fn key(spec: &DeviceSpec, mode: ExecMode, normalized: &str) -> String {
        format!("{}\u{1f}{}\u{1f}{normalized}", spec.name, mode.name())
    }

    /// Look up (or compile + optimize and insert) the plan for `sql`.
    /// Returns the entry and whether it was a cache hit.
    pub fn get_or_plan(
        &self,
        db: &TpchDb,
        spec: &DeviceSpec,
        gamma: &GammaTable,
        sql: &str,
        mode: ExecMode,
    ) -> Result<(Arc<PlanEntry>, bool), String> {
        let normalized = Self::normalize(sql);
        self.get_or_insert(&self.inner, Self::key(spec, mode, &normalized), || {
            let (plan, stats) = gpl_sql::compile_with_stats(db, sql).map_err(|e| e.to_string())?;
            let models = build_models(db, &plan, &stats, spec);
            let search_key = format!("{}\u{1f}{normalized}", mode.name());
            let out =
                optimize_models_cached(spec, gamma, &plan, &models, &self.search, &search_key);
            let mut config = out.config;
            // Cross-segment pipelining is a post-pass over the searched
            // config: only the pipelined mode consults the overlap predicate,
            // so the three sequential modes' cached outcomes stay
            // byte-identical to the base search.
            if mode == ExecMode::GplPipelined {
                gpl_model::attach_overlap(spec, gamma, &plan, &models, &mut config);
            }
            Ok(PlanEntry {
                plan,
                config,
                estimate: out.estimate,
            })
        })
    }

    /// The one get-or-insert behind [`PlanCache::get_or_plan`] and
    /// [`PlanCache::get_or_place`]. Returns the entry and whether it was
    /// a hit. The lock is *not* held while `make` plans, so a slow miss
    /// never blocks other workers; two workers racing on the same cold
    /// query both plan it (deterministically identically) and the second
    /// insert wins.
    fn get_or_insert<V>(
        &self,
        cache: &Mutex<Lru<V>>,
        key: String,
        make: impl FnOnce() -> Result<V, String>,
    ) -> Result<(Arc<V>, bool), String> {
        if let Some(entry) = crate::lock(cache).get(&key) {
            return Ok((entry, true));
        }
        let entry = Arc::new(make()?);
        crate::lock(cache).insert(key, entry.clone(), self.capacity);
        Ok((entry, false))
    }

    /// The sharded sibling of [`PlanCache::key`]: the same mode ×
    /// normalized-SQL core plus the pool identity and the
    /// `ExecMode`-orthogonal shard-plan component, so one server can
    /// cache the same query at several shard counts side by side.
    fn shard_key(pool: &DevicePool, shard: &ShardPlan, mode: ExecMode, normalized: &str) -> String {
        format!(
            "{}\u{1f}{}\u{1f}{}\u{1f}{normalized}",
            pool.key(),
            shard.cache_key(),
            mode.name()
        )
    }

    /// Look up (or compile + place and insert) the sharded plan for
    /// `sql`: the heterogeneous placement pass runs once per (pool,
    /// shard plan, mode, SQL) and its full output — including the
    /// per-device tuned configs — is cached with the plan. Placement is
    /// a pure function of its inputs, so a cache hit returns exactly
    /// what a fresh search would (the drift guard in
    /// `tests/cross_engine.rs` pins this).
    pub fn get_or_place(
        &self,
        db: &TpchDb,
        pool: &DevicePool,
        gammas: &[GammaTable],
        sql: &str,
        mode: ExecMode,
        shard: &ShardPlan,
    ) -> Result<(Arc<ShardEntry>, bool), String> {
        let key = Self::shard_key(pool, shard, mode, &Self::normalize(sql));
        self.get_or_insert(&self.sharded, key, || {
            let (plan, stats) = gpl_sql::compile_with_stats(db, sql).map_err(|e| e.to_string())?;
            let placement = place_with_stats(pool, gammas, db, &plan, &stats, None);
            Ok(ShardEntry { plan, placement })
        })
    }

    /// Cumulative `(hits, misses)` of the sharded plan cache.
    pub fn shard_stats(&self) -> (u64, u64) {
        let inner = crate::lock(&self.sharded);
        (inner.hits, inner.misses)
    }

    /// Cumulative `(hits, misses)` of the plan cache.
    pub fn stats(&self) -> (u64, u64) {
        let inner = crate::lock(&self.inner);
        (inner.hits, inner.misses)
    }

    /// Cumulative `(hits, misses)` of the inner config [`SearchCache`].
    pub fn search_stats(&self) -> (u64, u64) {
        self.search.stats()
    }

    pub fn len(&self) -> usize {
        crate::lock(&self.inner).map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses_whitespace_and_trailing_semicolon() {
        assert_eq!(
            PlanCache::normalize("  select\n\t sum(x)  from t ; "),
            "select sum(x) from t"
        );
        assert_eq!(
            PlanCache::normalize("select 'A  B'"),
            "select 'A B'",
            "normalization is lexical, not literal-aware; keys only"
        );
    }
}
