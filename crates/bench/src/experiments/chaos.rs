//! `repro chaos` — straggler defense and partial-progress recovery
//! under gray failures, end to end.
//!
//! Sweeps **slowdown severity × hard-fault rate** and, at every grid
//! point, measures the tail (p50/p95/p99 simulated cycles) twice:
//!
//! * the **serving layer** over the corpus workload, PR 4's retry-only
//!   recovery vs the same policy with **slice-checkpoint resume**
//!   (`RecoveryPolicy::with_checkpoints`): a faulted blocking stage
//!   re-runs from the last verified slice instead of row 0;
//! * the **sharded pool**, hedging off vs on (`HedgePlan` from the
//!   placement's estimate matrix): a shard observed past its modeled
//!   deadline gets a speculative backup on the modeled-cheapest other
//!   live device, first verified finisher wins, loser cancelled.
//!
//! Hard faults here are *mid-launch*: `FaultSpec::fail_progress(1.0)`
//! defers detection to end-of-launch verification, so a failing stage
//! loses the work it had executed — the regime where resuming from a
//! checkpoint has something to save. `fail_hazard_cycles` makes the
//! failure rate constant per executed cycle rather than per launch, so
//! slicing a stage into K launches does not multiply its fault
//! exposure. (PR 4's admission-time model charges a failed launch only
//! its detection cost, under which whole-stage retry loses nothing and
//! checkpoints can only add overhead.)
//!
//! Both defenses trade duplicate/checkpoint cycles for tail latency and
//! **never rows**: every defended run is asserted bit-identical (rows
//! and fingerprints) to its fault-free baseline, and at the heaviest
//! grid point the defended p95 must not regress the undefended p95.
//!
//! Everything printed is deterministic (simulated cycles only), so two
//! runs of the same command are byte-identical — `repro verify` diffs
//! them, and `target/obs/BENCH_chaos.json` against the committed
//! `BENCH_chaos.json` pin at the repo root.

use super::Opts;
use crate::artifact::RunEntry;
use gpl_core::shard::{try_run_query_sharded, DevicePool, ShardFaults, ShardPlan};
use gpl_core::{plan_for, ExecLimits, ExecMode, RecoveryPolicy};
use gpl_model::{hedge_plan, place_query};
use gpl_obs::Json;
use gpl_serve::{BatchReport, FaultConfig, QueryRequest, ServeConfig, Server};
use gpl_sim::FaultSpec;
use gpl_sql::sql_for;
use gpl_tpch::{QueryId, TpchDb};
use std::sync::Arc;

const OUT_PATH: &str = "target/obs/chaos-report.txt";
const CHAOS_SEED: u64 = 1337;
/// Duration of one injected slowdown window, in simulated cycles.
const SLOWDOWN_CYCLES: u64 = 1 << 18;
/// Checkpoint slices per blocking stage for the defended serve runs.
/// Two slices halve the work a mid-stage fault destroys while paying
/// the per-launch overhead only once more per stage; the probe grid
/// showed higher K losing its savings to that fixed tax.
const CKPT_SLICES: u32 = 2;
/// Hedge lateness threshold for the defended sharded runs: a shard 2×
/// over its *whole stage's* modeled cycles is a straggler.
const HEDGE_THRESHOLD: f64 = 2.0;
/// Constant-hazard window: a launch spanning this many cycles carries
/// the spec's full per-launch failure probability, shorter launches
/// proportionally less. Sized above the heaviest blocking-stage launch
/// of the serve corpus at its scale factor — if a launch saturates the
/// window, slicing it multiplies fault draws without the offsetting
/// probability discount and the constant-hazard property is lost.
const HAZARD_WINDOW: u64 = 1 << 25;
/// The sharded arm re-runs each placement under this many fault seeds.
const SHARD_SEEDS: u64 = 3;
/// Scale factor of the sharded arm: hedging reacts to slowdown
/// windows, whose economics do not need the serve arm's deep stages,
/// so the pool sweep stays cheap.
const SHARD_SF: f64 = 0.05;

/// The sweep grid: hard-fault rate per hazard-window of executed
/// cycles × slowdown severity `(probability, throughput factor)`.
/// Rates are per [`HAZARD_WINDOW`]: a stage launch spanning the whole
/// window draws a failure with `3 × rate` probability (uniform arms
/// three failing kinds), short launches proportionally less.
const RATES: [f64; 2] = [1.5e-1, 3e-1];
const SEVERITIES: [(f64, f64); 2] = [(0.02, 4.0), (0.05, 8.0)];

/// The corpus workload, like `repro faults`: `n` requests cycling the
/// compilable corpus queries under full GPL.
fn workload(n: usize) -> Vec<QueryRequest> {
    let sqls: Vec<&'static str> = QueryId::all().into_iter().filter_map(sql_for).collect();
    (0..n)
        .map(|i| QueryRequest::new(i as u64, sqls[i % sqls.len()], ExecMode::Gpl))
        .collect()
}

/// Exact nearest-rank percentile over the raw samples (not the log2
/// histogram — both arms have few samples per point, so factor-2
/// bucket edges would hide real differences).
fn pct(samples: &[u64], p: f64) -> u64 {
    assert!(!samples.is_empty());
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Per-query execution cycles of every successful response (exact, no
/// queue wait — a pure function of the fault stream and policy).
fn exec_cycles(report: &BatchReport) -> Vec<u64> {
    report
        .responses
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|q| q.cycles))
        .collect()
}

/// Execution cycles indexed by request id (the workload ids are dense
/// `0..n`), for matching a defended run to its fault-free twin.
fn cycles_by_id(report: &BatchReport, n: usize) -> Vec<u64> {
    let mut v = vec![0u64; n];
    for r in &report.responses {
        if let Ok(q) = r.result.as_ref() {
            v[r.id as usize] = q.cycles;
        }
    }
    v
}

pub fn chaos(opts: &Opts) {
    let sf = opts.sf_or(0.3);
    let n = opts.queries.unwrap_or(24);
    let db = Arc::new(TpchDb::at_scale(sf));
    let gamma = Arc::new(opts.gamma());
    let mut out = String::new();
    let emit = |line: String, out: &mut String| {
        println!("{line}");
        out.push_str(&line);
        out.push('\n');
    };
    opts.artifact.sf(sf);

    emit(
        format!(
            "chaos: straggler defense & partial-progress recovery, {n} corpus requests, SF {sf}, seed {CHAOS_SEED}",
        ),
        &mut out,
    );
    emit(
        "(mid-launch faults lose executed work, constant hazard per cycle; slowdowns inflate cycles, never rows)\n"
            .into(),
        &mut out,
    );

    // ---- Serve arm: retry-only vs slice-checkpoint resume ----------
    let serve = |recovery: RecoveryPolicy, spec: Option<FaultSpec>| {
        Server::start(
            ServeConfig {
                workers: 1,
                faults: spec.map(|spec| FaultConfig {
                    seed: CHAOS_SEED,
                    spec,
                }),
                recovery: Some(recovery),
                ..ServeConfig::default()
            },
            opts.device.clone(),
            db.clone(),
            gamma.clone(),
        )
        .run_batch_report(workload(n))
    };
    let retry_only = || RecoveryPolicy::with_retries(2);
    let ckpt = || RecoveryPolicy::with_retries(2).with_checkpoints(CKPT_SLICES);
    let chaos_spec = |rate: f64, sp: f64, factor: f64| {
        FaultSpec::uniform(rate)
            .with_slowdown(sp, factor, SLOWDOWN_CYCLES)
            .with_fail_progress(1.0)
            .with_fail_hazard(HAZARD_WINDOW)
    };

    let base = serve(retry_only(), None);
    assert_eq!(base.err_count(), 0, "fault-free baseline must be clean");
    let base_rows_fp = base.rows_fingerprint();
    let base_cycles = exec_cycles(&base);
    let base_by_id = cycles_by_id(&base, n);
    opts.artifact.run(
        RunEntry::new("serve-baseline", "gpl")
            .cycles(base.simulated_makespan())
            .rows(n as u64)
            .fingerprint(base_rows_fp),
    );
    emit(
        format!(
            "serve baseline (no faults, retry-only): p50 {} / p95 {} / p99 {} exec cycles, rows fp {base_rows_fp:#018x}",
            pct(&base_cycles, 50.0),
            pct(&base_cycles, 95.0),
            pct(&base_cycles, 99.0),
        ),
        &mut out,
    );
    // The checkpoint tax in isolation: same fault-free workload, sliced.
    let base_ckpt = serve(ckpt(), None);
    assert_eq!(base_ckpt.rows_fingerprint(), base_rows_fp);
    let tax = exec_cycles(&base_ckpt);
    emit(
        format!(
            "checkpoint tax (no faults, {CKPT_SLICES} slices): p95 {} exec cycles ({:+.1}% over baseline)\n",
            pct(&tax, 95.0),
            (pct(&tax, 95.0) as f64 / pct(&base_cycles, 95.0) as f64 - 1.0) * 100.0,
        ),
        &mut out,
    );

    emit(
        format!(
            "{:>14}  {:>7}  {:>6}  {:>8}  {:>12}  {:>12}  {:>12}  {:>7}  {:>7}",
            "slowdown", "rate", "policy", "faults", "p50", "p95", "p99", "resumed", "rows"
        ),
        &mut out,
    );
    // Sweep-wide per-query *inflation* over the fault-free twin, in
    // permille (1000 = unchanged). Absolute per-query cycles are
    // dominated by how big each query inherently is; inflation puts
    // every fault-struck query in the tail regardless of its size, so
    // the percentiles measure what the faults (and the defense) did.
    let mut retry_inflation: Vec<u64> = Vec::new();
    let mut ckpt_inflation: Vec<u64> = Vec::new();
    let mut total_resumed = 0u64;
    for &(sp, factor) in &SEVERITIES {
        for &rate in &RATES {
            for (label, policy, defended) in
                [("retry", retry_only(), false), ("ckpt", ckpt(), true)]
            {
                let report = serve(policy, Some(chaos_spec(rate, sp, factor)));
                assert_eq!(
                    report.err_count(),
                    0,
                    "recovery must absorb every fault (slowdown {factor}x, rate {rate})"
                );
                let rows_fp = report.rows_fingerprint();
                assert_eq!(
                    rows_fp, base_rows_fp,
                    "defended rows must match the fault-free baseline (slowdown {factor}x, rate {rate}, {label})"
                );
                let (faults, _, _, _) = report.recovery_totals();
                let (_, _, resumed, saved) = report.hedge_totals();
                let cycles = exec_cycles(&report);
                let (p50, p95, p99) = (pct(&cycles, 50.0), pct(&cycles, 95.0), pct(&cycles, 99.0));
                let by_id = cycles_by_id(&report, n);
                let inflation = if defended {
                    &mut ckpt_inflation
                } else {
                    &mut retry_inflation
                };
                inflation.extend(
                    by_id
                        .iter()
                        .zip(&base_by_id)
                        .map(|(&c, &b)| c * 1000 / b.max(1)),
                );
                if defended {
                    total_resumed += resumed;
                }
                opts.artifact.run(
                    RunEntry::new(format!("sv{factor}x-r{rate:.0e}-{label}"), "gpl")
                        .cycles(report.simulated_makespan())
                        .rows(report.ok_count() as u64)
                        .fingerprint(rows_fp)
                        .extra("p50", Json::Int(p50 as i64))
                        .extra("p95", Json::Int(p95 as i64))
                        .extra("p99", Json::Int(p99 as i64))
                        .extra("resumed_slices", Json::Int(resumed as i64))
                        .extra("saved_cycles", Json::Int(saved as i64)),
                );
                emit(
                    format!(
                        "{:>10}@p={sp:<4}  {rate:>7.0e}  {label:>6}  {faults:>8}  {p50:>12}  {p95:>12}  {p99:>12}  {resumed:>7}  {}",
                        format!("{factor}x"),
                        if rows_fp == base_rows_fp { "= base" } else { "DIFFER" },
                    ),
                    &mut out,
                );
            }
        }
    }

    assert!(
        total_resumed > 0,
        "checkpoints must resume slices somewhere in the sweep"
    );

    // ---- Sharded arm: hedging off vs on ----------------------------
    let shard_db = Arc::new(TpchDb::at_scale(SHARD_SF));
    let pool = DevicePool::default_pool();
    let gammas = super::shard::pool_gammas(&pool);
    let queries = [QueryId::Q6, QueryId::Q14, QueryId::Q5, QueryId::Q9];
    let shard = ShardPlan::range(2);
    emit(
        format!(
            "\nsharded pool ({}), SF {SHARD_SF}, {} shards, hedge threshold {HEDGE_THRESHOLD}x modeled:",
            pool.key(),
            shard.shards
        ),
        &mut out,
    );
    emit(
        format!(
            "{:>14}  {:>7}  {:>6}  {:>12}  {:>12}  {:>12}  {:>7}  {:>5}  {:>7}",
            "slowdown", "rate", "hedge", "p50", "p95", "p99", "hedges", "wins", "rows"
        ),
        &mut out,
    );

    // Placements (and fault-free oracles) once per query.
    let placed: Vec<_> = queries
        .iter()
        .map(|&q| {
            let plan = plan_for(&shard_db, q);
            let placement = place_query(&pool, &gammas, &shard_db, &plan, None);
            let clean = try_run_query_sharded(
                &pool,
                &shard_db,
                &plan,
                ExecMode::Gpl,
                &shard,
                &placement.assignment,
                &ExecLimits::default(),
                None,
                None,
                None,
                None,
            )
            .expect("fault-free sharded run");
            (q, plan, placement, clean)
        })
        .collect();

    let mut shard_p95: Vec<(bool, u64)> = Vec::new();
    for &(sp, factor) in &SEVERITIES {
        for &rate in &RATES {
            let spec = chaos_spec(rate, sp, factor);
            for hedged in [false, true] {
                let mut samples = Vec::new();
                let (mut hedges, mut wins) = (0u64, 0u64);
                let mut rows_ok = true;
                for (q, plan, placement, clean) in &placed {
                    let hedge = hedge_plan(placement, HEDGE_THRESHOLD);
                    for seed_ix in 0..SHARD_SEEDS {
                        let faults = ShardFaults {
                            spec: spec.clone(),
                            seed: CHAOS_SEED ^ (seed_ix.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                        };
                        let run = try_run_query_sharded(
                            &pool,
                            &shard_db,
                            plan,
                            ExecMode::Gpl,
                            &shard,
                            &placement.assignment,
                            &ExecLimits::default(),
                            Some(&RecoveryPolicy::default()),
                            Some(&faults),
                            hedged.then_some(&hedge),
                            None,
                        )
                        .unwrap_or_else(|e| {
                            panic!("{} chaos run failed (hedge {hedged}): {e}", q.name())
                        });
                        rows_ok &= run.output.rows == clean.output.rows
                            && run.output.fingerprint() == clean.output.fingerprint();
                        assert!(
                            rows_ok,
                            "{} rows diverged under chaos (hedge {hedged}, seed {seed_ix})",
                            q.name()
                        );
                        samples.push(run.cycles);
                        hedges += run.recovery.hedges;
                        wins += run.recovery.hedge_wins;
                    }
                }
                let (p50, p95, p99) = (
                    pct(&samples, 50.0),
                    pct(&samples, 95.0),
                    pct(&samples, 99.0),
                );
                if (sp, factor) == SEVERITIES[SEVERITIES.len() - 1]
                    && rate == RATES[RATES.len() - 1]
                {
                    shard_p95.push((hedged, p95));
                }
                let label = if hedged { "on" } else { "off" };
                opts.artifact.run(
                    RunEntry::new(
                        format!("shard-sv{factor}x-r{rate:.0e}-hedge-{label}"),
                        "gpl",
                    )
                    .cycles(p95)
                    .rows(samples.len() as u64)
                    .extra("p50", Json::Int(p50 as i64))
                    .extra("p99", Json::Int(p99 as i64))
                    .extra("hedges", Json::Int(hedges as i64))
                    .extra("hedge_wins", Json::Int(wins as i64)),
                );
                emit(
                    format!(
                        "{:>10}@p={sp:<4}  {rate:>7.0e}  {label:>6}  {p50:>12}  {p95:>12}  {p99:>12}  {hedges:>7}  {wins:>5}  {}",
                        format!("{factor}x"),
                        if rows_ok { "= base" } else { "DIFFER" },
                    ),
                    &mut out,
                );
                if hedged && (sp, factor) == SEVERITIES[SEVERITIES.len() - 1] {
                    assert!(
                        hedges > 0,
                        "heavy slowdowns must trip the hedge (severity {factor}x)"
                    );
                }
            }
        }
    }

    // The acceptance gate. Serve: pooled over the whole sweep, the
    // per-query inflation tail must improve under checkpoints — retry
    // re-runs a faulted stage from row 0, resume from the last verified
    // slice. Shard: at the heaviest grid point, hedging must not
    // regress the absolute p95 (the query mix per point is fixed, so
    // absolute cycles compare like for like).
    let tail = |v: &[(bool, u64)], defended: bool| {
        v.iter()
            .find(|(d, _)| *d == defended)
            .map(|&(_, p)| p)
            .expect("both arms measured")
    };
    let (s_off_95, s_on_95) = (pct(&retry_inflation, 95.0), pct(&ckpt_inflation, 95.0));
    let (s_off_99, s_on_99) = (pct(&retry_inflation, 99.0), pct(&ckpt_inflation, 99.0));
    let (h_off, h_on) = (tail(&shard_p95, false), tail(&shard_p95, true));
    emit(
        format!(
            "\nsweep-wide serve inflation (permille of fault-free twin): \
             retry-only p50 {} / p95 {s_off_95} / p99 {s_off_99}, \
             checkpointed p50 {} / p95 {s_on_95} / p99 {s_on_99}",
            pct(&retry_inflation, 50.0),
            pct(&ckpt_inflation, 50.0),
        ),
        &mut out,
    );
    emit(
        format!(
            "tails: serve p95 {:+.1}% / p99 {:+.1}% under checkpoints; \
             shard heaviest-point p95 {h_off} -> {h_on} ({:+.1}%) under hedging",
            (s_on_95 as f64 / s_off_95 as f64 - 1.0) * 100.0,
            (s_on_99 as f64 / s_off_99 as f64 - 1.0) * 100.0,
            (h_on as f64 / h_off as f64 - 1.0) * 100.0,
        ),
        &mut out,
    );
    opts.artifact.fact(
        "tail_gate",
        Json::obj(vec![
            ("serve_retry_p95_permille", Json::Int(s_off_95 as i64)),
            ("serve_ckpt_p95_permille", Json::Int(s_on_95 as i64)),
            ("serve_retry_p99_permille", Json::Int(s_off_99 as i64)),
            ("serve_ckpt_p99_permille", Json::Int(s_on_99 as i64)),
            ("shard_hedge_off_p95", Json::Int(h_off as i64)),
            ("shard_hedge_on_p95", Json::Int(h_on as i64)),
        ]),
    );

    // The report goes to disk before the gate so a failing sweep still
    // leaves its evidence behind.
    std::fs::create_dir_all("target/obs").expect("create target/obs");
    std::fs::write(OUT_PATH, &out).unwrap_or_else(|e| panic!("{OUT_PATH}: {e}"));
    println!("\nreport written to {OUT_PATH} (deterministic: byte-identical per seed)");

    assert!(
        s_on_95 <= s_off_95,
        "checkpoint resume must not regress the p95 inflation tail ({s_on_95} > {s_off_95})"
    );
    assert!(
        s_on_99 <= s_off_99,
        "checkpoint resume must not regress the p99 inflation tail ({s_on_99} > {s_off_99})"
    );
    assert!(
        h_on <= h_off,
        "hedging must not regress the p95 tail ({h_on} > {h_off})"
    );
}
