//! Batch reporting: throughput/latency aggregates, the deterministic
//! result fingerprint, the merged multi-track trace, and the
//! `serve.*` metrics snapshot.

use crate::request::QueryResponse;
use crate::telemetry::{BreakerTransition, Telemetry};
use gpl_obs::{Histogram, MetricsRegistry, Recorder};
use gpl_prng::Fnv1a;
use std::time::Duration;

/// Everything a completed batch produced. `responses` are sorted by
/// request id; wall-clock fields (latencies, throughput) depend on the
/// machine and worker count, while [`BatchReport::fingerprint`] covers
/// only the deterministic per-query facts.
#[derive(Debug)]
pub struct BatchReport {
    pub responses: Vec<QueryResponse>,
    pub workers: usize,
    pub wall: Duration,
    /// Plan-cache `(hits, misses)` at batch end (cumulative per server).
    pub plan_cache: (u64, u64),
    /// Load-shed rejections at batch end (cumulative per server).
    pub sheds: u64,
    /// Circuit-breaker `(rejections, opens)` across all workers.
    pub breaker: (u64, u64),
    /// Breaker state changes (cumulative per server), sorted by
    /// (device cycle, worker).
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Cumulative wall-clock time workers spent processing jobs (summed
    /// over workers, so it may exceed `wall`). Wall-clock plane:
    /// host-dependent, excluded from every fingerprint.
    pub busy_wall: Duration,
}

/// Nearest-rank percentile over the log2 [`Histogram`] buckets — the one
/// quantile implementation every latency figure in this crate goes
/// through (bucket upper edge, clamped to the observed min/max).
fn histogram_pct(values: impl IntoIterator<Item = u64>, pct: f64) -> u64 {
    let mut h = Histogram::default();
    for v in values {
        h.observe(v);
    }
    h.percentile(pct)
}

impl BatchReport {
    pub fn ok_count(&self) -> usize {
        self.responses.iter().filter(|r| r.result.is_ok()).count()
    }

    pub fn err_count(&self) -> usize {
        self.responses.len() - self.ok_count()
    }

    /// Completed queries per wall-clock second.
    pub fn queries_per_sec(&self) -> f64 {
        self.responses.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Fraction of worker·wall time spent processing jobs:
    /// `busy_wall / (wall * workers)`, clamped to 1.0 (timer skew).
    /// Wall-clock plane — diagnostic only, never fingerprinted.
    pub fn worker_utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.workers.max(1) as f64;
        (self.busy_wall.as_secs_f64() / denom.max(1e-9)).min(1.0)
    }

    /// The `pct`-th percentile (0–100) of wall-clock queue latency, read
    /// off a log2 histogram at microsecond resolution.
    pub fn queue_latency_pct(&self, pct: f64) -> Duration {
        Duration::from_micros(histogram_pct(
            self.responses
                .iter()
                .map(|r| r.queue_wall.as_micros() as u64),
            pct,
        ))
    }

    /// The deterministic simulated schedule: queries in id order, each
    /// assigned to the earliest-available of `workers` simulated
    /// devices (every worker owns its own simulator, so the fleet is
    /// `workers` GPUs). Returns `(id, start_cycle, cycles)` per
    /// successful query. Failed queries occupy no device time.
    pub fn simulated_schedule(&self) -> Vec<(u64, u64, u64)> {
        let mut avail = vec![0u64; self.workers.max(1)];
        let mut sched = Vec::with_capacity(self.responses.len());
        for r in &self.responses {
            if let Ok(res) = &r.result {
                let w = (0..avail.len())
                    .min_by_key(|&w| avail[w])
                    .expect("non-empty");
                sched.push((r.id, avail[w], res.cycles));
                avail[w] += res.cycles;
            }
        }
        sched
    }

    /// Simulated cycles until the last device drains — the deterministic
    /// makespan of the batch on `workers` simulated GPUs.
    pub fn simulated_makespan(&self) -> u64 {
        self.simulated_schedule()
            .iter()
            .map(|&(_, start, cycles)| start + cycles)
            .max()
            .unwrap_or(0)
    }

    /// The `pct`-th percentile of *simulated* queue latency: how many
    /// device cycles each query waited for a free simulated GPU.
    /// Deterministic, unlike the wall-clock latencies.
    pub fn simulated_queue_pct(&self, pct: f64) -> u64 {
        histogram_pct(
            self.simulated_schedule().iter().map(|&(_, start, _)| start),
            pct,
        )
    }

    /// FNV-1a over the deterministic facts of every response, in id
    /// order: id, mode, and either (columns, rows, simulated cycles) or
    /// the error's display text. Identical across worker counts and
    /// machines; any scheduling-dependent field is excluded.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for r in &self.responses {
            h.write(&r.id.to_le_bytes());
            h.write(r.mode.name().as_bytes());
            match &r.result {
                Ok(res) => {
                    h.write(&[1]);
                    for c in &res.output.columns {
                        h.write(c.as_bytes());
                    }
                    h.write_u64(res.output.rows.len() as u64);
                    for row in &res.output.rows {
                        for v in row {
                            h.write(&v.to_le_bytes());
                        }
                    }
                    h.write_u64(res.cycles);
                }
                Err(e) => {
                    h.write(&[0]);
                    h.write(e.to_string().as_bytes());
                }
            }
        }
        h.finish()
    }

    /// Sum of recovery activity over the batch:
    /// `(faults survived, retries, fallbacks, wasted cycles)`.
    pub fn recovery_totals(&self) -> (u64, u64, u64, u64) {
        self.responses.iter().fold((0, 0, 0, 0), |acc, r| {
            (
                acc.0 + r.recovery.faults.len() as u64,
                acc.1 + r.recovery.retries,
                acc.2 + r.recovery.fallbacks,
                acc.3 + r.recovery.wasted_cycles,
            )
        })
    }

    /// Sum of straggler-defense activity over the batch: `(hedges
    /// launched, hedge wins, checkpoint slices resumed, checkpoint
    /// cycles saved)`. All zeros unless the server shards with a hedge
    /// threshold or runs a checkpointing recovery policy.
    pub fn hedge_totals(&self) -> (u64, u64, u64, u64) {
        self.responses.iter().fold((0, 0, 0, 0), |acc, r| {
            (
                acc.0 + r.recovery.hedges,
                acc.1 + r.recovery.hedge_wins,
                acc.2 + r.recovery.resumed_slices,
                acc.3 + r.recovery.checkpoint_saved_cycles,
            )
        })
    }

    /// Like [`BatchReport::fingerprint`] but over *results only*: id,
    /// mode, columns and rows — no cycle counts, no error text. A
    /// fault-injected run with full recovery matches the fault-free run
    /// under this fingerprint (faults cost cycles, never rows), which is
    /// exactly what the `repro faults` experiment asserts.
    pub fn rows_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for r in &self.responses {
            h.write(&r.id.to_le_bytes());
            h.write(r.mode.name().as_bytes());
            match &r.result {
                Ok(res) => {
                    h.write(&[1]);
                    for c in &res.output.columns {
                        h.write(c.as_bytes());
                    }
                    h.write_u64(res.output.rows.len() as u64);
                    for row in &res.output.rows {
                        for v in row {
                            h.write(&v.to_le_bytes());
                        }
                    }
                }
                Err(_) => h.write(&[0]),
            }
        }
        h.finish()
    }

    /// The `pct`-th percentile of *simulated completion latency* —
    /// queue wait plus execution, in device cycles, under the
    /// deterministic schedule of [`BatchReport::simulated_schedule`].
    pub fn simulated_latency_pct(&self, pct: f64) -> u64 {
        histogram_pct(
            self.simulated_schedule()
                .iter()
                .map(|&(_, start, cycles)| start + cycles),
            pct,
        )
    }

    /// Merge every per-query recorder dump into one multi-track trace:
    /// query `id`'s tracks appear under the `q{id}/` prefix, in id
    /// order. Timestamps stay in per-query simulated cycles (all start
    /// at zero), so the trace aligns queries on a common axis instead of
    /// serializing them.
    pub fn merged_trace(&self) -> Recorder {
        let rec = Recorder::new();
        // Batch-level counter ("C") tracks first, so the serve/* series
        // sit above the per-query track groups in the rendered trace.
        self.telemetry().record_counters(&rec);
        for r in &self.responses {
            if let Some(dump) = &r.trace {
                rec.absorb(&format!("q{}/", r.id), dump);
            }
        }
        rec
    }

    /// The batch's time-series telemetry, derived from the deterministic
    /// simulated schedule (see [`Telemetry`]).
    pub fn telemetry(&self) -> Telemetry {
        Telemetry::from_report(self)
    }

    /// Snapshot the batch into a metrics registry: the
    /// `serve.queued/running/done` gauges (terminal values for a drained
    /// batch: 0 / 0 / n), cache counters, and per-outcome counts.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.gauge_set("serve.queued", &[], 0.0);
        m.gauge_set("serve.running", &[], 0.0);
        m.gauge_set("serve.done", &[], self.responses.len() as f64);
        m.gauge_set("serve.workers", &[], self.workers as f64);
        m.counter_add("serve.queries.ok", &[], self.ok_count() as u64);
        m.counter_add("serve.queries.err", &[], self.err_count() as u64);
        m.counter_add("serve.plan_cache.hits", &[], self.plan_cache.0);
        m.counter_add("serve.plan_cache.misses", &[], self.plan_cache.1);
        let (faults, retries, fallbacks, wasted) = self.recovery_totals();
        m.counter_add("serve.faults.injected", &[], faults);
        m.counter_add("serve.faults.retries", &[], retries);
        m.counter_add("serve.faults.fallbacks", &[], fallbacks);
        m.counter_add("serve.faults.wasted_cycles", &[], wasted);
        let (hedges, hedge_wins, resumed, saved) = self.hedge_totals();
        m.counter_add("serve.hedges", &[], hedges);
        m.counter_add("serve.hedge_wins", &[], hedge_wins);
        m.counter_add("serve.checkpoint.resumed_slices", &[], resumed);
        m.counter_add("serve.checkpoint.saved_cycles", &[], saved);
        m.counter_add("serve.shed", &[], self.sheds);
        m.counter_add("serve.breaker.rejections", &[], self.breaker.0);
        m.counter_add("serve.breaker.opens", &[], self.breaker.1);
        // Wall-clock plane: host-dependent gauges, useful live but never
        // compared across runs or machines.
        m.counter_add(
            "serve.worker_busy_us",
            &[],
            self.busy_wall.as_micros() as u64,
        );
        m.gauge_set("serve.worker_utilization", &[], self.worker_utilization());
        for r in &self.responses {
            m.histogram_observe(
                "serve.queue_latency_us",
                &[],
                r.queue_wall.as_micros() as u64,
            );
            if let Ok(res) = &r.result {
                m.histogram_observe("serve.query_cycles", &[], res.cycles);
            }
        }
        self.telemetry().export_metrics(&mut m);
        m
    }

    /// Human-readable batch summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "batch: {} queries, {} workers, {:.1} ms wall, {:.1} q/s\n",
            self.responses.len(),
            self.workers,
            self.wall.as_secs_f64() * 1e3,
            self.queries_per_sec()
        ));
        out.push_str(&format!(
            "queue latency: p50 {:.2} ms, p95 {:.2} ms\n",
            self.queue_latency_pct(50.0).as_secs_f64() * 1e3,
            self.queue_latency_pct(95.0).as_secs_f64() * 1e3
        ));
        out.push_str(&format!(
            "plan cache: {} hits / {} misses\n",
            self.plan_cache.0, self.plan_cache.1
        ));
        let (faults, retries, fallbacks, wasted) = self.recovery_totals();
        if faults + retries + fallbacks + self.sheds + self.breaker.0 > 0 {
            out.push_str(&format!(
                "recovery: {faults} faults survived, {retries} retries, {fallbacks} fallbacks, \
                 {wasted} wasted cycles; {} shed, {} breaker rejections ({} opens)\n",
                self.sheds, self.breaker.0, self.breaker.1
            ));
        }
        let (hedges, hedge_wins, resumed, saved) = self.hedge_totals();
        if hedges + resumed > 0 {
            out.push_str(&format!(
                "straggler defense: {hedges} hedges ({hedge_wins} backup wins), \
                 {resumed} checkpoint slices resumed ({saved} cycles saved)\n"
            ));
        }
        out.push_str(&format!("fingerprint: {:#018x}\n", self.fingerprint()));
        for r in &self.responses {
            match &r.result {
                Ok(res) => out.push_str(&format!(
                    "  q{:<3} {:<11} {:>4} rows {:>12} cycles  plan {:>7.3} ms{}  exec {:>8.2} ms (w{})\n",
                    r.id,
                    r.mode.name(),
                    res.output.rows.len(),
                    res.cycles,
                    r.plan_wall.as_secs_f64() * 1e3,
                    if r.plan_cache_hit { " (hit) " } else { " (miss)" },
                    r.exec_wall.as_secs_f64() * 1e3,
                    r.worker,
                )),
                Err(e) => out.push_str(&format!(
                    "  q{:<3} {:<11} ERROR: {e}\n",
                    r.id,
                    r.mode.name()
                )),
            }
        }
        out
    }
}
