//! `repro serve` — the multi-query serving experiment.
//!
//! Drives the `gpl-serve` scheduler over the TPC-H corpus (the 10
//! compilable corpus queries cycled to the requested workload size) at
//! worker counts 1/2/4/8 and reports, per count:
//!
//! * *simulated* throughput and queue latency — each worker owns its
//!   own simulated GPU, so a fleet of `w` workers is `w` devices; the
//!   deterministic schedule (requests packed onto the earliest-available
//!   device) yields machine-independent queries/sec and p50/p95 queue
//!   waits at the device clock rate;
//! * the batch's result fingerprint, which must be identical at every
//!   worker count (the scheduler's determinism contract).
//!
//! A second phase replays the same workload against a warm server: the
//! repeat must be served from the plan cache with unchanged results.
//! Everything printed is simulated, so stdout is byte-reproducible; host
//! throughput and planning wall time are the repository benchmark's
//! (`corpus_warm`, `adhoc_cold`).

use super::Opts;
use crate::artifact::RunEntry;
use gpl_obs::Json;
use gpl_serve::{QueryRequest, ServeConfig, Server};
use gpl_sql::sql_for;
use gpl_tpch::{QueryId, TpchDb};
use std::sync::Arc;

/// The corpus workload: `n` requests cycling the compilable corpus
/// queries in `QueryId` order, all under the full GPL mode.
fn workload(n: usize) -> Vec<QueryRequest> {
    let sqls: Vec<&'static str> = QueryId::all().into_iter().filter_map(sql_for).collect();
    (0..n)
        .map(|i| QueryRequest::new(i as u64, sqls[i % sqls.len()], gpl_core::ExecMode::Gpl))
        .collect()
}

pub fn serve(opts: &Opts) {
    let sf = opts.sf_or(0.01);
    let n = opts.queries.unwrap_or(22);
    let sweep: Vec<usize> = match opts.workers {
        Some(w) => vec![w.max(1)],
        None => vec![1, 2, 4, 8],
    };
    println!(
        "multi-query serving: {n} requests over the corpus, SF {sf}, device {}",
        opts.device.name
    );
    println!("(simulated q/s treats each worker as one simulated GPU)\n");

    let db = Arc::new(TpchDb::at_scale(sf));
    let gamma = Arc::new(opts.gamma());
    opts.artifact.sf(sf);

    println!(
        "{:>7}  {:>10}  {:>12}  {:>12}  {:>18}",
        "workers", "sim q/s", "sim p50 ms", "sim p95 ms", "fingerprint"
    );
    let mut sim_qps = Vec::new();
    let mut fingerprints = Vec::new();
    for &w in &sweep {
        // A fresh server per count: every sweep point starts cold, so
        // the comparison across counts is apples to apples.
        let srv = Server::start(
            ServeConfig {
                workers: w,
                plan_cache_capacity: 64,
                record_traces: false,
                ..ServeConfig::default()
            },
            opts.device.clone(),
            db.clone(),
            gamma.clone(),
        );
        let report = srv.run_batch_report(workload(n));
        assert_eq!(report.err_count(), 0, "corpus queries must all succeed");
        let makespan_s = opts.device.cycles_to_ms(report.simulated_makespan()) / 1e3;
        let qps = n as f64 / makespan_s.max(1e-12);
        sim_qps.push(qps);
        fingerprints.push(report.fingerprint());
        // Only simulated quantities go into the artifact — wall-clock
        // throughput varies per host and would break byte-reproducibility.
        opts.artifact.run(
            RunEntry::new(format!("serve-{w}w"), "gpl")
                .cycles(report.simulated_makespan())
                .rows(report.ok_count() as u64)
                .fingerprint(report.fingerprint())
                .extra(
                    "queue_p50_cycles",
                    Json::Int(report.simulated_queue_pct(50.0) as i64),
                )
                .extra(
                    "queue_p95_cycles",
                    Json::Int(report.simulated_queue_pct(95.0) as i64),
                ),
        );
        println!(
            "{:>7}  {:>10.1}  {:>12.2}  {:>12.2}  {:#018x}",
            w,
            qps,
            opts.device.cycles_to_ms(report.simulated_queue_pct(50.0)),
            opts.device.cycles_to_ms(report.simulated_queue_pct(95.0)),
            report.fingerprint(),
        );
    }
    assert!(
        fingerprints.windows(2).all(|p| p[0] == p[1]),
        "result fingerprint changed with worker count"
    );
    if sweep.len() > 1 {
        let speedup = sim_qps.last().unwrap() / sim_qps[0].max(1e-12);
        println!(
            "\nsimulated throughput {}x{} vs 1 worker: {speedup:.2}x (identical fingerprints)",
            sweep.last().unwrap(),
            if speedup >= 3.0 { "" } else { " (below 3x)" }
        );
    }

    // Plan-cache effect: replayed against a warm 4-worker server, every
    // request of the identical workload is a plan-cache hit, same results.
    let srv = Server::start(
        ServeConfig {
            workers: sweep.last().copied().unwrap_or(4).min(4),
            plan_cache_capacity: 64,
            record_traces: false,
            ..ServeConfig::default()
        },
        opts.device.clone(),
        db.clone(),
        gamma.clone(),
    );
    let cold = srv.run_batch_report(workload(n));
    let warm = srv.run_batch_report(workload(n));
    let (hits, misses) = srv.plan_cache().stats();
    opts.artifact.fact(
        "plan_cache",
        Json::obj(vec![
            ("hits", Json::Int(hits as i64)),
            ("misses", Json::Int(misses as i64)),
        ]),
    );
    println!("\nplan cache across a repeat of the workload: {hits} hits / {misses} misses");
    assert!(
        warm.responses.iter().all(|r| r.plan_cache_hit),
        "every request of the repeat must hit the plan cache"
    );
    assert_eq!(
        cold.fingerprint(),
        warm.fingerprint(),
        "a warm cache must not change results"
    );
}
