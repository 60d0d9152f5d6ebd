//! `repro faults` — fault injection and the recovery stack, end to end.
//!
//! Drives the serving layer over the corpus workload on one worker
//! (one simulated device — the deterministic schedule) while sweeping
//! fault rate × recovery policy, and reports per point:
//!
//! * **goodput** — successfully answered queries per simulated second
//!   (faults and retries inflate the makespan, so goodput degrades
//!   smoothly instead of falling off a cliff);
//! * **fallback rate** — mode degradations (incl. the disarmed
//!   last-resort KBE run) per query;
//! * **p95 latency** — 95th-percentile simulated completion latency;
//! * the **rows fingerprint**, which must equal the fault-free
//!   baseline's whenever recovery is enabled: faults cost cycles, never
//!   rows.
//!
//! Two demo sections exercise the rest of the stack: a circuit-breaker
//! run (no recovery, high fault rate — the breaker trips, rejects, and
//! half-opens on the device-cycle timer) and a load-shedding run (queue
//! bound 8, so a 24-query batch sheds 16 deterministic rejections).
//!
//! Everything printed is also written to `target/obs/faults-report.txt`;
//! the report contains only deterministic facts (no wall-clock), so the
//! file is byte-identical across runs — `repro verify` re-runs it five
//! times and compares bytes.

use super::Opts;
use crate::artifact::RunEntry;
use gpl_core::RecoveryPolicy;
use gpl_obs::Json;
use gpl_serve::{BreakerConfig, FaultConfig, QueryRequest, ServeConfig, ServeError, Server};
use gpl_sim::FaultSpec;
use gpl_sql::sql_for;
use gpl_tpch::{QueryId, TpchDb};
use std::sync::Arc;

const OUT_PATH: &str = "target/obs/faults-report.txt";
const FAULT_SEED: u64 = 42;

/// The corpus workload: `n` requests cycling the compilable corpus
/// queries, all under full GPL (the mode with the longest fallback
/// ladder).
fn workload(n: usize) -> Vec<QueryRequest> {
    let sqls: Vec<&'static str> = QueryId::all().into_iter().filter_map(sql_for).collect();
    (0..n)
        .map(|i| QueryRequest::new(i as u64, sqls[i % sqls.len()], gpl_core::ExecMode::Gpl))
        .collect()
}

fn server(
    opts: &Opts,
    db: &Arc<TpchDb>,
    gamma: &Arc<gpl_model::GammaTable>,
    cfg: ServeConfig,
) -> Server {
    Server::start(cfg, opts.device.clone(), db.clone(), gamma.clone())
}

pub fn faults(opts: &Opts) {
    let sf = opts.sf_or(0.01);
    let n = opts.queries.unwrap_or(24);
    let db = Arc::new(TpchDb::at_scale(sf));
    let gamma = Arc::new(opts.gamma());
    let mut out = String::new();
    let emit = |line: String, out: &mut String| {
        println!("{line}");
        out.push_str(&line);
        out.push('\n');
    };

    emit(
        format!(
            "fault injection & recovery: {n} corpus requests, 1 worker, SF {sf}, device {}, seed {FAULT_SEED}",
            opts.device.name
        ),
        &mut out,
    );
    emit(
        "(goodput in queries per simulated second; latency in simulated ms; rows fp excludes cycles)\n".into(),
        &mut out,
    );

    // Fault-free baseline: the rows fingerprint every recovered run
    // must reproduce, and the goodput to degrade from.
    let base = server(
        opts,
        &db,
        &gamma,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .run_batch_report(workload(n));
    assert_eq!(base.err_count(), 0, "baseline must be clean");
    let base_rows_fp = base.rows_fingerprint();
    let makespan_s = |cycles: u64| opts.device.cycles_to_ms(cycles) / 1e3;
    opts.artifact.sf(sf);
    opts.artifact.run(
        RunEntry::new("baseline", "gpl")
            .cycles(base.simulated_makespan())
            .rows(n as u64)
            .fingerprint(base_rows_fp)
            .extra(
                "p95_latency_cycles",
                Json::Int(base.simulated_latency_pct(95.0) as i64),
            ),
    );
    emit(
        format!(
            "baseline (no faults): goodput {:.1} q/s, p95 {:.2} ms, rows fp {base_rows_fp:#018x}\n",
            n as f64 / makespan_s(base.simulated_makespan()).max(1e-12),
            opts.device.cycles_to_ms(base.simulated_latency_pct(95.0)),
        ),
        &mut out,
    );

    emit(
        format!(
            "{:>9}  {:>8}  {:>5}  {:>8}  {:>8}  {:>10}  {:>8}  {:>10}  {:>8}",
            "rate",
            "policy",
            "ok",
            "faults",
            "retries",
            "fallbacks",
            "goodput",
            "p95 ms",
            "rows fp"
        ),
        &mut out,
    );
    for &rate in &[1e-3, 1e-2, 5e-2] {
        for (label, recovery) in [
            ("none", None),
            ("r=0", Some(RecoveryPolicy::with_retries(0))),
            ("r=2", Some(RecoveryPolicy::with_retries(2))),
        ] {
            let recovered = recovery.is_some();
            let report = server(
                opts,
                &db,
                &gamma,
                ServeConfig {
                    workers: 1,
                    faults: Some(FaultConfig {
                        seed: FAULT_SEED,
                        spec: FaultSpec::uniform(rate),
                    }),
                    recovery,
                    ..ServeConfig::default()
                },
            )
            .run_batch_report(workload(n));
            let (faults, retries, fallbacks, _) = report.recovery_totals();
            let rows_fp = report.rows_fingerprint();
            opts.artifact.run(
                RunEntry::new(format!("rate={rate:.0e}/{label}"), "gpl")
                    .cycles(report.simulated_makespan())
                    .rows(report.ok_count() as u64)
                    .fingerprint(rows_fp)
                    .extra("faults", Json::Int(faults as i64))
                    .extra("retries", Json::Int(retries as i64))
                    .extra("fallbacks", Json::Int(fallbacks as i64))
                    .extra(
                        "p95_latency_cycles",
                        Json::Int(report.simulated_latency_pct(95.0) as i64),
                    ),
            );
            if recovered {
                assert_eq!(
                    report.err_count(),
                    0,
                    "recovery must absorb every fault at rate {rate}"
                );
                assert_eq!(
                    rows_fp, base_rows_fp,
                    "recovered rows must match the fault-free baseline at rate {rate}"
                );
            }
            emit(
                format!(
                    "{rate:>9.0e}  {label:>8}  {:>2}/{n:<2}  {faults:>8}  {retries:>8}  {fallbacks:>10}  {:>8.1}  {:>10.2}  {}",
                    report.ok_count(),
                    report.ok_count() as f64 / makespan_s(report.simulated_makespan()).max(1e-12),
                    opts.device.cycles_to_ms(report.simulated_latency_pct(95.0)),
                    if rows_fp == base_rows_fp { "= base" } else { "differs" },
                ),
                &mut out,
            );
        }
    }

    // Circuit breaker: no recovery, heavy faults — consecutive failures
    // trip the worker's breaker, which then rejects without touching the
    // device and half-opens after its (simulated-cycle) cool-down.
    let breaker_report = server(
        opts,
        &db,
        &gamma,
        ServeConfig {
            workers: 1,
            faults: Some(FaultConfig {
                seed: FAULT_SEED,
                spec: FaultSpec::uniform(0.05),
            }),
            recovery: None,
            breaker: Some(BreakerConfig {
                trip_after: 2,
                open_cycles: 1 << 24,
                reject_cost_cycles: 1 << 22,
            }),
            ..ServeConfig::default()
        },
    )
    .run_batch_report(workload(n));
    let circuit_open = breaker_report
        .responses
        .iter()
        .filter(|r| matches!(r.result, Err(ServeError::CircuitOpen)))
        .count();
    emit(
        format!(
            "\ncircuit breaker @ rate 5e-2, trip_after 2, no recovery: {} ok, {} device-fault errors, {} rejected while open ({} opens)",
            breaker_report.ok_count(),
            breaker_report.err_count() - circuit_open,
            breaker_report.breaker.0,
            breaker_report.breaker.1,
        ),
        &mut out,
    );
    assert!(
        breaker_report.breaker.1 >= 1,
        "heavy faults must trip the breaker"
    );
    assert_eq!(circuit_open as u64, breaker_report.breaker.0);
    opts.artifact.fact(
        "breaker",
        Json::obj(vec![
            ("ok", Json::Int(breaker_report.ok_count() as i64)),
            (
                "rejected_while_open",
                Json::Int(breaker_report.breaker.0 as i64),
            ),
            ("opens", Json::Int(breaker_report.breaker.1 as i64)),
        ]),
    );

    // Load shedding: the 24-request batch against a queue bound of 8 —
    // submit_all holds the queue lock across the whole batch, so exactly
    // n - 8 requests are shed, deterministically.
    let shed_report = server(
        opts,
        &db,
        &gamma,
        ServeConfig {
            workers: 1,
            max_queue_depth: Some(8),
            ..ServeConfig::default()
        },
    )
    .run_batch_report(workload(n));
    emit(
        format!(
            "load shedding @ queue bound 8: {} answered, {} shed (every submission answered either way)",
            shed_report.ok_count(),
            shed_report.sheds,
        ),
        &mut out,
    );
    assert_eq!(shed_report.sheds as usize, n.saturating_sub(8));
    assert_eq!(
        shed_report.responses.len(),
        n,
        "shed requests still get responses"
    );
    opts.artifact.fact(
        "load_shedding",
        Json::obj(vec![
            ("answered", Json::Int(shed_report.ok_count() as i64)),
            ("shed", Json::Int(shed_report.sheds as i64)),
        ]),
    );

    std::fs::create_dir_all("target/obs").expect("create target/obs");
    std::fs::write(OUT_PATH, &out).unwrap_or_else(|e| panic!("{OUT_PATH}: {e}"));
    println!("\nreport written to {OUT_PATH} (deterministic: byte-identical per seed)");
}
