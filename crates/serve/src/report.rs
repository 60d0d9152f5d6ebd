//! Batch reporting: the deterministic simulated schedule and its
//! latency percentiles, recovery and straggler-defense totals, and the
//! two FNV-1a digests the seed-42 and fault pins compare.

use crate::request::QueryResponse;
use gpl_obs::Histogram;
use gpl_prng::Fnv1a;

/// Everything a completed batch produced. `responses` are sorted by
/// request id; [`BatchReport::fingerprint`] covers only their
/// deterministic per-query facts.
#[derive(Debug)]
pub struct BatchReport {
    pub responses: Vec<QueryResponse>,
    pub workers: usize,
    /// Load-shed rejections at batch end (cumulative per server).
    pub sheds: u64,
    /// Circuit-breaker `(rejections, opens)` across all workers.
    pub breaker: (u64, u64),
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
        self.digest(true)
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
        self.digest(false)
    }

    /// The one walk behind both fingerprints: per response, id, mode and
    /// either a success tag, columns and rows or a failure tag; with
    /// `costs`, also the simulated cycles or the error's display text.
    fn digest(&self, costs: bool) -> u64 {
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
                    if costs {
                        h.write_u64(res.cycles);
                    }
                }
                Err(e) => {
                    h.write(&[0]);
                    if costs {
                        h.write(e.to_string().as_bytes());
                    }
                }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QueryResult;
    use gpl_core::ExecMode;
    use gpl_tpch::QueryOutput;

    fn report(cycles: u64) -> BatchReport {
        let output = QueryOutput::new(vec!["c"], vec![vec![7]]);
        let responses = vec![QueryResponse {
            id: 3,
            mode: ExecMode::Gpl,
            result: Ok(QueryResult { output, cycles }),
            plan_cache_hit: false,
            plan_wall: Default::default(),
            queue_wall: Default::default(),
            exec_wall: Default::default(),
            worker: 0,
            trace: None,
            recovery: Default::default(),
        }];
        BatchReport {
            responses,
            workers: 1,
            sheds: 0,
            breaker: (0, 0),
        }
    }

    #[test]
    fn cycles_move_the_fingerprint_but_not_the_rows_fingerprint() {
        let (a, b) = (report(100), report(101));
        assert_eq!(a.rows_fingerprint(), b.rows_fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
