//! The shared plan cache.
//!
//! Planning a query costs one sampled evaluation and two searches over
//! it: join-order optimization and the Section-4 knob search (<5 ms, but
//! per query and per device). A server answering the same normalized SQL
//! thousands of times pays all of it once: [`PlanCache`] memoizes the
//! compiled [`QueryPlan`] *and* the placement pass's output — per-stage
//! device, per-device tuned configs — keyed by `pool × shard plan × exec
//! mode × normalized SQL`. A single-device server plans over a one-device
//! pool, whose placement is the single-device search, so there is one
//! door ([`PlanCache::get_or_place`]) and one entry type.

use gpl_core::shard::{DevicePool, ShardPlan};
use gpl_core::{ExecMode, QueryPlan};
use gpl_model::{attach_overlap, build_models, place_with_stats, GammaTable, Placement};
use gpl_tpch::TpchDb;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// One cached planning outcome: the compiled plan plus the placement
/// pass's full output (per-stage device choice, per-device tuned configs,
/// and the modeled-cycle matrix).
#[derive(Debug, Clone)]
pub struct PlanEntry {
    pub plan: QueryPlan,
    pub placement: Placement,
}

/// A recency-ordered map with hit/miss counters: the one LRU behind
/// the plan cache.
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

/// Thread-safe LRU cache of [`PlanEntry`]s shared by all workers.
pub struct PlanCache {
    inner: Mutex<Lru<PlanEntry>>,
    capacity: usize,
}

impl PlanCache {
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Lru::new()),
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

    /// The pool identity, the `ExecMode`-orthogonal shard-plan component,
    /// the mode and the normalized SQL, so one server can cache the same
    /// query at several shard counts side by side.
    fn key(pool: &DevicePool, shard: &ShardPlan, mode: ExecMode, normalized: &str) -> String {
        format!(
            "{}\u{1f}{}\u{1f}{}\u{1f}{normalized}",
            pool.key(),
            shard.cache_key(),
            mode.name()
        )
    }

    /// Look up (or compile + place and insert) the plan for `sql` over
    /// `pool`; returns the entry and whether it was a hit. The placement
    /// pass runs the Eq. 8 search once per pool device, and under
    /// [`ExecMode::GplPipelined`] the overlap predicate then sets each
    /// device's `overlap_slices` — a post-pass, so the sequential modes'
    /// entries stay byte-identical to the base search. Placement is a
    /// pure function of its inputs, so a hit returns exactly what a fresh
    /// search would (the drift guard in `tests/cross_engine.rs` pins
    /// this).
    ///
    /// The lock is *not* held while a miss plans, so a slow miss never
    /// blocks other workers; two workers racing on the same cold query
    /// both plan it (deterministically identically) and the second insert
    /// wins.
    pub fn get_or_place(
        &self,
        db: &TpchDb,
        pool: &DevicePool,
        gammas: &[GammaTable],
        sql: &str,
        mode: ExecMode,
        shard: &ShardPlan,
    ) -> Result<(Arc<PlanEntry>, bool), String> {
        let key = Self::key(pool, shard, mode, &Self::normalize(sql));
        if let Some(entry) = crate::lock(&self.inner).get(&key) {
            return Ok((entry, true));
        }
        let (plan, stats) = gpl_sql::compile_with_stats(db, sql).map_err(|e| e.to_string())?;
        let mut placement = place_with_stats(pool, gammas, db, &plan, &stats, None);
        if mode == ExecMode::GplPipelined {
            let configs = &mut placement.assignment.configs;
            for ((dev, gamma), config) in pool.devices().iter().zip(gammas).zip(configs) {
                let models = build_models(db, &plan, &stats, &dev.spec);
                attach_overlap(&dev.spec, gamma, &plan, &models, config);
            }
        }
        let entry = Arc::new(PlanEntry { plan, placement });
        crate::lock(&self.inner).insert(key, entry.clone(), self.capacity);
        Ok((entry, false))
    }

    /// Cumulative `(hits, misses)`.
    pub fn stats(&self) -> (u64, u64) {
        let inner = crate::lock(&self.inner);
        (inner.hits, inner.misses)
    }

    /// [`PlanCache::stats`], under the name the sharded server's callers
    /// read.
    pub fn shard_stats(&self) -> (u64, u64) {
        self.stats()
    }

    /// `(hits, misses)` of the Eq. 8 searches: the search has no cache
    /// of its own, so every plan-cache miss searches and none hits.
    pub fn search_stats(&self) -> (u64, u64) {
        (0, self.stats().1)
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
