//! Fault injection and the recovery stack, end to end: seeded faults
//! must cost cycles, never rows. The top half drives the executor
//! directly (retries, degradation ladder, pinned schedules, stalls);
//! the bottom half drives the serving layer (per-query fault
//! determinism across worker counts, load shedding, circuit breaking).

use gpl_check::prelude::*;
use gpl_prng::SeedableRng;
use gpl_repro::core::{
    run_query, try_run_query_recovering, ExecContext, ExecError, ExecLimits, ExecMode, QueryConfig,
    QueryRun, RecoveryPolicy,
};
use gpl_repro::model::GammaTable;
use gpl_repro::serve::{BreakerConfig, FaultConfig, QueryRequest, ServeConfig, ServeError, Server};
use gpl_repro::sim::fault::STALL_CYCLES;
use gpl_repro::sim::{amd_a10, FaultKind, FaultPlan, FaultSpec, PinnedFault};
use gpl_repro::tpch::QueryId;
use std::sync::OnceLock;

mod common;
use common::{db_sf001 as db, gamma};

/// Run `sql` under `mode` on a fresh context with `spec` faults attached
/// and the given recovery policy.
fn run_faulted(
    sql: &str,
    mode: ExecMode,
    spec: FaultSpec,
    seed: u64,
    policy: &RecoveryPolicy,
) -> (QueryRun, u64) {
    let plan = gpl_repro::sql::compile(&db(), sql).expect("query compiles");
    let device = amd_a10();
    let cfg = QueryConfig::default_for(&device, &plan);
    let mut ctx = ExecContext::with_shared(device, db());
    ctx.sim.attach_faults(FaultPlan::new(spec, seed));
    let run = try_run_query_recovering(
        &mut ctx,
        &plan,
        mode,
        &cfg,
        &ExecLimits::none(),
        Some(policy),
    )
    .expect("recovery must absorb the faults");
    let injected = ctx.sim.fault_stats().expect("plan attached").total();
    (run, injected)
}

/// The fault-free rows for `sql` under full GPL.
fn clean_rows(sql: &str) -> gpl_repro::tpch::QueryOutput {
    let plan = gpl_repro::sql::compile(&db(), sql).expect("query compiles");
    let device = amd_a10();
    let cfg = QueryConfig::default_for(&device, &plan);
    let mut ctx = ExecContext::with_shared(device, db());
    run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg).output
}

/// The acceptance bar: the full 200-query differential-fuzz workload at
/// fault rate 1e-3 per kernel launch, with retries enabled, must return
/// rows bit-identical to the fault-free runs.
#[test]
fn two_hundred_fuzzed_queries_survive_injection_bit_identically() {
    let policy = RecoveryPolicy::default();
    let mut injected_total = 0;
    let mut recovered_total = 0;
    for (i, sql) in gpl_repro::sql::random_workload(42, 200).iter().enumerate() {
        let want = clean_rows(sql);
        let (run, injected) = run_faulted(
            sql,
            ExecMode::Gpl,
            FaultSpec::uniform(1e-3),
            i as u64,
            &policy,
        );
        assert_eq!(run.output, want, "query {i} rows changed: {sql:?}");
        injected_total += injected;
        recovered_total += run.recovery.faults.len();
        if !run.recovery.eventful() {
            assert_eq!(run.recovery.wasted_cycles, 0, "clean runs waste nothing");
        }
    }
    assert!(
        injected_total > 0,
        "the sweep must actually inject something to mean anything"
    );
    assert!(
        recovered_total > 0,
        "some injections must have needed recovery"
    );
}

prop! {
    #![cases(100)]

    /// Property form of the same invariant at a 30x higher fault rate:
    /// any generated query, any seed — rows never change under
    /// injection + recovery.
    #[test]
    fn fuzzed_queries_with_heavy_faults_match_fault_free_rows(seed in any::<u64>()) {
        let mut rng = gpl_prng::StdRng::seed_from_u64(seed);
        let sql = gpl_repro::sql::random_query(&mut rng);
        let want = clean_rows(&sql);
        for mode in [ExecMode::Gpl, ExecMode::Ocelot] {
            let spec = FaultSpec::uniform(3e-2);
            let (run, _) = run_faulted(&sql, mode, spec, seed, &RecoveryPolicy::default());
            prop_assert_eq!(
                &run.output, &want,
                "rows changed under faults on {}: {:?}", mode.name(), sql
            );
        }
    }
}

#[test]
fn pinned_fault_fires_on_the_named_kernel_and_is_retried() {
    let sql = gpl_repro::sql::sql_for(QueryId::Q6).expect("Q6 in corpus");
    let want = clean_rows(sql);
    let mut spec = FaultSpec::none();
    spec.pinned.push(PinnedFault {
        kind: FaultKind::KernelFault,
        kernel: "k_reduce*".into(),
        at_cycle: 0,
    });
    let (run, injected) = run_faulted(sql, ExecMode::Gpl, spec, 0, &RecoveryPolicy::default());
    assert_eq!(run.output, want);
    assert_eq!(injected, 1, "a pinned fault fires exactly once");
    assert_eq!(run.recovery.faults.len(), 1);
    let record = &run.recovery.faults[0];
    assert_eq!(record.kind, FaultKind::KernelFault);
    assert_eq!(record.kernel.as_deref(), Some("k_reduce*"));
    assert_eq!(run.recovery.retries, 1, "one same-mode retry absorbed it");
    assert_eq!(run.recovery.fallbacks, 0);
    assert!(run.recovery.wasted_cycles > 0);
    assert!(
        run.cycles > run.profile.elapsed_cycles,
        "total cycles include the wasted attempt"
    );
}

#[test]
fn exhausted_retries_degrade_down_the_ladder_to_disarmed_kbe() {
    let sql = gpl_repro::sql::sql_for(QueryId::Q6).expect("Q6 in corpus");
    let want = clean_rows(sql);
    let spec = FaultSpec {
        kernel_fault: 1.0, // every armed launch faults
        ..FaultSpec::none()
    };
    let policy = RecoveryPolicy::with_retries(1);
    let (run, _) = run_faulted(sql, ExecMode::Gpl, spec, 7, &policy);
    assert_eq!(run.output, want, "last-resort KBE must still be correct");
    // Ladder for one stage: GPL (2 attempts) -> GPL w/o CE (2) -> KBE
    // armed (2) -> KBE disarmed. Three mode transitions, six faults.
    assert_eq!(run.recovery.fallbacks, 3);
    assert_eq!(run.recovery.faults.len(), 6);
    assert_eq!(run.recovery.degraded_to, Some(ExecMode::Kbe));
    assert_eq!(run.recovery.retries, 3, "one retry per mode");
}

#[test]
fn channel_stalls_cost_cycles_but_never_rows() {
    // Q8 has deep probe pipelines — plenty of channel-using launches.
    let sql = gpl_repro::sql::sql_for(QueryId::Q8).expect("Q8 in corpus");
    let want = clean_rows(sql);
    let spec = FaultSpec {
        channel_stall: 1.0,
        ..FaultSpec::none()
    };
    let plan = gpl_repro::sql::compile(&db(), sql).unwrap();
    let device = amd_a10();
    let cfg = QueryConfig::default_for(&device, &plan);
    let mut ctx = ExecContext::with_shared(device, db());
    ctx.sim.attach_faults(FaultPlan::new(spec, 11));
    let run = try_run_query_recovering(
        &mut ctx,
        &plan,
        ExecMode::Gpl,
        &cfg,
        &ExecLimits::none(),
        Some(&RecoveryPolicy::default()),
    )
    .expect("stalls never fail a launch");
    assert_eq!(run.output, want);
    assert!(!run.recovery.eventful(), "a stall is latency, not a fault");
    let stats = ctx.sim.fault_stats().unwrap();
    assert!(stats.injected(FaultKind::ChannelStall) > 0);
    assert_eq!(stats.total_failures(), 0);
}

/// A stall delays its launch by `STALL_CYCLES` (DESIGN.md §7), and a
/// query's cycles are its device's clock: one pinned stall on a GPL
/// launch costs the query exactly that, and nothing else moves.
#[test]
fn one_pinned_channel_stall_costs_exactly_its_stall_cycles() {
    let sql = gpl_repro::sql::sql_for(QueryId::Q6).expect("Q6 in corpus");
    let plan = gpl_repro::sql::compile(&db(), sql).unwrap();
    let cfg = QueryConfig::default_for(&amd_a10(), &plan);
    let mut ctx = ExecContext::with_shared(amd_a10(), db());
    let clean = run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
    let mut spec = FaultSpec::none();
    spec.pinned.push(PinnedFault {
        kind: FaultKind::ChannelStall,
        kernel: "k_reduce*".into(),
        at_cycle: 0,
    });
    let policy = RecoveryPolicy::default();
    let (run, injected) = run_faulted(sql, ExecMode::Gpl, spec, 0, &policy);
    assert_eq!(injected, 1, "a pinned stall fires exactly once");
    assert_eq!(run.output, clean.output);
    assert!(!run.recovery.eventful(), "a stall is latency, not a fault");
    assert_eq!(run.cycles, clean.cycles + STALL_CYCLES);
}

/// Per-query fault schedules are seeded by request id, so the full
/// fingerprint — rows *and* recovered cycle counts — is identical at
/// any worker count, and the rows match a fault-free server.
#[test]
fn served_fault_injection_is_deterministic_across_worker_counts() {
    let reqs = || -> Vec<QueryRequest> {
        gpl_repro::sql::random_workload(7, 16)
            .into_iter()
            .enumerate()
            .map(|(i, sql)| QueryRequest::new(i as u64, sql, ExecMode::Gpl))
            .collect()
    };
    let clean = Server::start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        amd_a10(),
        db(),
        gamma(),
    )
    .run_batch_report(reqs());
    assert_eq!(clean.err_count(), 0);

    let mut fingerprints = Vec::new();
    for workers in [1, 2, 8] {
        let report = Server::start(
            ServeConfig {
                workers,
                faults: Some(FaultConfig {
                    seed: 42,
                    spec: FaultSpec::uniform(1e-2),
                }),
                recovery: Some(RecoveryPolicy::default()),
                ..ServeConfig::default()
            },
            amd_a10(),
            db(),
            gamma(),
        )
        .run_batch_report(reqs());
        assert_eq!(
            report.err_count(),
            0,
            "recovery absorbs at {workers} workers"
        );
        assert_eq!(
            report.rows_fingerprint(),
            clean.rows_fingerprint(),
            "rows must match the fault-free server at {workers} workers"
        );
        fingerprints.push(report.fingerprint());
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "full fingerprint (incl. recovered cycles) must be worker-count independent: {fingerprints:x?}"
    );
}

#[test]
fn load_shedding_rejects_exactly_the_overflow() {
    let srv = Server::start(
        ServeConfig {
            workers: 1,
            max_queue_depth: Some(4),
            ..ServeConfig::default()
        },
        amd_a10(),
        db(),
        gamma(),
    );
    let sql = gpl_repro::sql::sql_for(QueryId::Q6).unwrap();
    let reqs: Vec<QueryRequest> = (0..12)
        .map(|i| QueryRequest::new(i, sql, ExecMode::Gpl))
        .collect();
    // submit_all holds the queue lock across the batch, so exactly the
    // first 4 are admitted and the remaining 8 shed — deterministically.
    let responses = srv.run_batch(reqs);
    assert_eq!(responses.len(), 12, "every submission gets a response");
    let shed: Vec<&QueryResponseAlias> = responses
        .iter()
        .filter(|r| matches!(r.result, Err(ServeError::Exec(ExecError::Rejected { .. }))))
        .collect();
    assert_eq!(shed.len(), 8);
    assert_eq!(srv.shed_count(), 8);
    for r in &shed {
        let Err(ServeError::Exec(ExecError::Rejected { queue_depth, bound })) = &r.result else {
            unreachable!()
        };
        assert_eq!(*bound, 4);
        assert!(*queue_depth >= 4);
        assert_eq!(r.worker, usize::MAX, "shed before any worker saw it");
    }
    for r in responses.iter().filter(|r| r.result.is_ok()) {
        assert!(!r.result.as_ref().unwrap().output.rows.is_empty());
    }
}

type QueryResponseAlias = gpl_repro::serve::QueryResponse;

#[test]
fn circuit_breaker_trips_after_the_fault_and_rejects_the_rest() {
    let srv = Server::start(
        ServeConfig {
            workers: 1,
            faults: Some(FaultConfig {
                seed: 42,
                spec: FaultSpec {
                    kernel_fault: 1.0,
                    ..FaultSpec::none()
                },
            }),
            recovery: None, // faults surface as errors -> breaker signal
            breaker: Some(BreakerConfig {
                trip_after: 1,
                open_cycles: u64::MAX / 2, // never half-opens in this test
                reject_cost_cycles: 1,
            }),
            ..ServeConfig::default()
        },
        amd_a10(),
        db(),
        gamma(),
    );
    let sql = gpl_repro::sql::sql_for(QueryId::Q6).unwrap();
    let reqs: Vec<QueryRequest> = (0..5)
        .map(|i| QueryRequest::new(i, sql, ExecMode::Gpl))
        .collect();
    let report = srv.run_batch_report(reqs);
    // One worker, FIFO: query 0 faults and trips the breaker; 1..5 are
    // rejected without touching the device.
    assert!(
        matches!(
            report.responses[0].result,
            Err(ServeError::Exec(ExecError::Fault(_)))
        ),
        "query 0 must surface the device fault: {:?}",
        report.responses[0].result
    );
    for r in &report.responses[1..] {
        assert!(
            matches!(r.result, Err(ServeError::CircuitOpen)),
            "q{} should be rejected by the open breaker: {:?}",
            r.id,
            r.result
        );
    }
    assert_eq!(report.breaker, (4, 1), "(rejections, opens)");
    assert!(report.responses.iter().all(|r| r
        .result
        .as_ref()
        .err()
        .map(|e| e.to_string())
        .is_some()));
}

// ---------------------------------------------------------------------
// Faults inside an overlapped slice window (cross-segment pipelining).
// The slice gate's own invariants — publication strictly in order,
// per-slice checksums matching the shared table — turn any
// double-published or dropped slice into a panic, so "recovers with
// bit-identical rows" below also certifies the republish path clean.
// ---------------------------------------------------------------------

/// Run `q` under GPL (pipelined) with the overlap knob forced to `k`,
/// `spec` faults attached and the default recovery policy.
fn run_overlapped_faulted(
    q: QueryId,
    k: u32,
    spec: FaultSpec,
    seed: u64,
    policy: &RecoveryPolicy,
) -> QueryRun {
    let device = amd_a10();
    let plan = gpl_repro::core::plan_for(&db(), q);
    assert!(
        !gpl_repro::core::overlap_pairs(&plan.stages).is_empty(),
        "{} must have an eligible build→probe pair",
        q.name()
    );
    let cfg = QueryConfig::default_for(&device, &plan).with_overlap_slices(k);
    let mut ctx = ExecContext::with_shared(device, db());
    ctx.sim.attach_faults(FaultPlan::new(spec, seed));
    try_run_query_recovering(
        &mut ctx,
        &plan,
        ExecMode::GplPipelined,
        &cfg,
        &ExecLimits::none(),
        Some(policy),
    )
    .expect("recovery must absorb faults in the fused window")
}

/// Fault-free sequential rows for the same hand plan.
fn clean_plan_rows(q: QueryId) -> gpl_repro::tpch::QueryOutput {
    let device = amd_a10();
    let plan = gpl_repro::core::plan_for(&db(), q);
    let cfg = QueryConfig::default_for(&device, &plan);
    let mut ctx = ExecContext::with_shared(device, db());
    run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg).output
}

#[test]
fn transient_fault_mid_overlap_retries_the_fused_pair_bit_identically() {
    // Pin a kernel fault on the publishing build terminal: in pipelined
    // mode that kernel only ever runs inside the fused launch, so the
    // fault lands mid-overlap by construction.
    let want = clean_plan_rows(QueryId::Q14);
    let mut spec = FaultSpec::none();
    spec.pinned.push(PinnedFault {
        kind: FaultKind::KernelFault,
        kernel: "k_hash_build(ht0)".into(),
        at_cycle: 0,
    });
    let run = run_overlapped_faulted(QueryId::Q14, 2, spec, 0, &RecoveryPolicy::default());
    assert_eq!(run.output, want, "rows must survive the mid-overlap fault");
    assert_eq!(run.recovery.faults.len(), 1, "the pinned fault fired once");
    assert_eq!(run.recovery.retries, 1, "one same-mode fused retry");
    assert_eq!(
        run.recovery.fallbacks, 0,
        "a transient fault must not abandon the fused pair"
    );
    assert_eq!(run.recovery.degraded_to, None);
    assert!(run.recovery.wasted_cycles > 0);
}

#[test]
fn channel_corruption_mid_overlap_degrades_to_the_sequential_pair() {
    // Corrupt every channel-using launch: the fused attempts (which use
    // the inter-segment publication channel) burn down, and the ladder
    // degrades to the sequential per-stage path — still bit-identical.
    let want = clean_plan_rows(QueryId::Q14);
    let spec = FaultSpec {
        channel_corrupt: 1.0,
        ..FaultSpec::none()
    };
    let run = run_overlapped_faulted(QueryId::Q14, 2, spec, 13, &RecoveryPolicy::with_retries(1));
    assert_eq!(run.output, want, "degraded run must match fault-free rows");
    assert!(
        run.recovery.fallbacks >= 1,
        "persistent corruption must force at least one fallback: {:?}",
        run.recovery
    );
    assert!(
        run.recovery.faults.len() >= 2,
        "both fused attempts saw the corruption"
    );
    assert!(
        run.recovery
            .faults
            .iter()
            .any(|f| f.kind == FaultKind::ChannelCorrupt),
        "the record names the corruption: {:?}",
        run.recovery.faults
    );
    let degraded = run.recovery.degraded_to.expect("ladder engaged");
    assert_ne!(degraded, ExecMode::GplPipelined, "overlap was abandoned");
}

#[test]
fn mixed_fault_sweep_over_overlapped_queries_is_bit_identical() {
    // Uniform transient faults at a heavy rate, across both acceptance
    // queries, slice counts and seeds: rows never change, and eventful
    // runs always paid wasted cycles.
    for q in [QueryId::Q9, QueryId::Q14] {
        let want = clean_plan_rows(q);
        for k in [2u32, 8] {
            for seed in 0..4u64 {
                let run = run_overlapped_faulted(
                    q,
                    k,
                    FaultSpec::uniform(3e-2),
                    seed,
                    &RecoveryPolicy::default(),
                );
                assert_eq!(
                    run.output,
                    want,
                    "{} K={k} seed={seed} rows changed under faults",
                    q.name()
                );
                if run.recovery.eventful() {
                    assert!(run.recovery.wasted_cycles > 0);
                }
            }
        }
    }
}

/// The heterogeneous pool plus one coarse Γ table per device for the
/// placement pass.
fn shard_pool() -> &'static (gpl_repro::core::shard::DevicePool, Vec<GammaTable>) {
    use gpl_repro::core::shard::DevicePool;
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

/// A kernel fault mid-query under sharded serving: a pinned fault fires
/// on the first terminal-reduce launch of every device that reaches
/// one, the recovery ladder retries the shard on its device, and the
/// rows stay bit-identical to a fault-free sharded server — at every
/// worker count, with the full fingerprint (rows and recovered cycle
/// counts) worker-count independent.
#[test]
fn sharded_kernel_faults_recover_bit_identically_across_worker_counts() {
    use gpl_repro::core::shard::ShardPlan;
    use gpl_repro::serve::ShardServeConfig;

    let (pool, gammas) = shard_pool();
    let sharding = || ShardServeConfig {
        pool: pool.clone(),
        gammas: gammas.clone(),
        plan: ShardPlan::range(2),
        hedge_threshold: None,
    };
    let reqs = || -> Vec<QueryRequest> {
        [QueryId::Q6, QueryId::Q14, QueryId::Q5, QueryId::Q9]
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let sql = gpl_repro::sql::sql_for(q).expect("query in corpus");
                QueryRequest::new(i as u64, sql, ExecMode::Gpl)
            })
            .collect()
    };
    let clean = Server::start(
        ServeConfig {
            workers: 1,
            sharding: Some(sharding()),
            recovery: Some(RecoveryPolicy::default()),
            ..ServeConfig::default()
        },
        amd_a10(),
        db(),
        gamma(),
    )
    .run_batch_report(reqs());
    assert_eq!(clean.err_count(), 0, "fault-free sharded serving succeeds");

    let mut spec = FaultSpec::none();
    spec.pinned.push(PinnedFault {
        kind: FaultKind::KernelFault,
        kernel: "k_reduce*".into(),
        at_cycle: 0,
    });
    let mut fingerprints = Vec::new();
    for workers in [1, 2, 8] {
        let report = Server::start(
            ServeConfig {
                workers,
                sharding: Some(sharding()),
                faults: Some(FaultConfig {
                    seed: 9,
                    spec: spec.clone(),
                }),
                recovery: Some(RecoveryPolicy::default()),
                ..ServeConfig::default()
            },
            amd_a10(),
            db(),
            gamma(),
        )
        .run_batch_report(reqs());
        assert_eq!(
            report.err_count(),
            0,
            "recovery absorbs the kernel faults at {workers} workers"
        );
        assert_eq!(
            report.rows_fingerprint(),
            clean.rows_fingerprint(),
            "rows must match the fault-free sharded server at {workers} workers"
        );
        let (faults, _, _, _) = report.recovery_totals();
        assert!(
            faults > 0,
            "the pinned kernel fault must actually fire at {workers} workers"
        );
        fingerprints.push(report.fingerprint());
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "sharded recovery must be worker-count independent: {fingerprints:x?}"
    );
}
