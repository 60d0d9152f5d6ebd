//! Failure injection: the engines and the simulator must fail loudly and
//! informatively on misuse, never silently corrupt results — and, at
//! the serving layer, failures must be *responses*: a deadlock, timeout
//! or cancellation takes down one query, never a worker or the pool.

use gpl_repro::core::{
    plan_for, run_query, try_run_query_recovering, ExecContext, ExecError, ExecLimits, ExecMode,
    QueryConfig,
};
use gpl_repro::model::GammaTable;
use gpl_repro::serve::{QueryRequest, ServeConfig, ServeError, Server};
use gpl_repro::sim::{amd_a10, ChannelView, KernelDesc, ResourceUsage, Simulator, Work, WorkUnit};
use gpl_repro::tpch::{QueryId, TpchDb};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

mod common;

#[test]
fn deadlocked_pipelines_are_reported() {
    let r = catch_unwind(|| {
        let mut sim = Simulator::new(amd_a10());
        let ch = sim.create_channel(1, 16);
        // A consumer with no producer waits forever.
        let consumer = move |view: &dyn ChannelView| {
            if view.available(ch) == 0 && !view.eof(ch) {
                Work::Wait
            } else {
                Work::Done
            }
        };
        let k = KernelDesc::new(
            "orphan",
            ResourceUsage::new(64, 64, 0),
            4,
            Box::new(consumer),
        )
        .reads_channel(ch);
        sim.run(vec![k]);
    });
    let msg = *r
        .expect_err("must deadlock")
        .downcast::<String>()
        .expect("panic message");
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(
        msg.contains("orphan"),
        "diagnostics must name the kernel: {msg}"
    );
}

#[test]
fn channel_overflow_is_detected() {
    let r = catch_unwind(|| {
        let mut sim = Simulator::new(amd_a10());
        let ch = sim.create_channel(1, 16);
        let mut fired = false;
        let producer = move |view: &dyn ChannelView| {
            if fired {
                return Work::Done;
            }
            fired = true;
            // Ignore the advertised space — push over capacity.
            let too_many = view.space(ch) + 1;
            Work::Unit(WorkUnit::default().push(ch, too_many))
        };
        let k = KernelDesc::new(
            "greedy",
            ResourceUsage::new(64, 64, 0),
            4,
            Box::new(producer),
        )
        .writes_channel(ch);
        sim.run(vec![k]);
    });
    assert!(r.is_err(), "overflow must panic");
}

#[test]
fn two_consumers_on_one_channel_are_rejected() {
    let r = catch_unwind(|| {
        let mut sim = Simulator::new(amd_a10());
        let ch = sim.create_channel(1, 16);
        let mk = |name: &str| {
            KernelDesc::new(
                name,
                ResourceUsage::new(64, 64, 0),
                1,
                Box::new(|_: &dyn ChannelView| Work::Done),
            )
            .reads_channel(ch)
        };
        sim.run(vec![mk("a"), mk("b")]);
    });
    let err = r.expect_err("must reject");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic carries a message");
    assert!(msg.contains("two consumers"), "{msg}");
}

#[test]
fn config_stage_count_mismatch_is_rejected() {
    let mut ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(0.002));
    let plan = plan_for(&ctx.db, QueryId::Q14);
    let mut cfg = QueryConfig::default_for(&amd_a10(), &plan);
    cfg.stages.pop();
    let r = catch_unwind(AssertUnwindSafe(|| {
        run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
    }));
    assert!(r.is_err());

    // The `try_` path returns the same rejection as a structured error,
    // without unwinding — for a short config, a malformed plan, a shard
    // assignment that does not fit the pool, and zero shards (for which
    // the driver's one-shard rules would silently not apply).
    use gpl_repro::core::plan::PlanError;
    use gpl_repro::core::segment::ConfigError;
    use gpl_repro::core::{try_run_query_sharded, DevicePool, ShardAssignment, ShardPlan};
    let limits = ExecLimits::none();
    let tried = catch_unwind(AssertUnwindSafe(|| {
        try_run_query_recovering(&mut ctx, &plan, ExecMode::Gpl, &cfg, &limits, None).map(|_| ())
    }));
    let stage_configs = ConfigError::Arity {
        what: "stage configs",
        expected: 2,
        got: 1,
    };
    assert_eq!(
        tried.expect("no unwind"),
        Err(ExecError::InvalidConfig(stage_configs.clone()))
    );

    let full = QueryConfig::default_for(&amd_a10(), &plan);
    let mut probe_first = plan.clone();
    probe_first.stages.swap(0, 1);
    let tried = catch_unwind(AssertUnwindSafe(|| {
        try_run_query_recovering(&mut ctx, &probe_first, ExecMode::Kbe, &full, &limits, None)
            .map(|_| ())
    }));
    let probes_unbuilt = PlanError::Ht {
        stage: probe_first.stages[0].name.clone(),
        misuse: "probes unbuilt",
        ht: 0,
    };
    assert_eq!(
        tried.expect("no unwind"),
        Err(ExecError::InvalidPlan(probes_unbuilt))
    );
    let mut unnamed = plan.clone();
    unnamed.output_columns.clear();
    let err = try_run_query_recovering(&mut ctx, &unnamed, ExecMode::Kbe, &full, &limits, None)
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid plan: output names 0 of a 2-column result"
    );

    let pool = DevicePool::default_pool();
    let good = ShardAssignment::default_for(&pool, &plan);
    let sharded_at = |a: &ShardAssignment, shards| {
        let db = ctx.db.clone();
        catch_unwind(AssertUnwindSafe(|| {
            let shard = ShardPlan::range(shards);
            let mode = ExecMode::Gpl;
            try_run_query_sharded(
                &pool, &db, &plan, mode, &shard, a, &limits, None, None, None, None,
            )
            .map(|_| ())
        }))
        .expect("no unwind")
    };
    let sharded = |a: &ShardAssignment| sharded_at(a, 2);
    let mut short = good.clone();
    short.configs[2] = cfg.clone();
    assert_eq!(
        sharded(&short),
        Err(ExecError::InvalidConfig(stage_configs))
    );
    let mut fewer = good.clone();
    fewer.configs.pop();
    assert!(matches!(
        sharded(&fewer),
        Err(ExecError::InvalidConfig(ConfigError::Arity {
            what: "device configs",
            expected: 3,
            got: 2
        }))
    ));
    let mut astray = good.clone();
    astray.stage_device[1] = 3;
    assert_eq!(
        sharded(&astray),
        Err(ExecError::InvalidConfig(ConfigError::Anchor {
            stage: 1,
            device: 3,
            devices: 3
        }))
    );
    assert_eq!(sharded(&good), Ok(()));
    assert_eq!(
        sharded_at(&good, 0),
        Err(ExecError::InvalidConfig(ConfigError::ZeroShards))
    );
}

/// Channel knobs a GPL launch would divide by, or the simulator assert
/// on, are structured errors through both `try_` drivers.
#[test]
fn channel_knobs_the_device_cannot_provide_are_rejected_without_unwinding() {
    use gpl_repro::core::segment::ConfigError;
    use gpl_repro::core::{try_run_query_sharded, DevicePool, ShardAssignment, ShardPlan};
    let mut ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(0.002));
    let plan = plan_for(&ctx.db, QueryId::Q14);
    let pool = DevicePool::default_pool();
    let limits = ExecLimits::none();
    let stage = plan.stages[0].name.clone();
    for (packet_bytes, n_channels) in [(0, 4), (16, 0), (16, 1000)] {
        let at = format!("packet_bytes={packet_bytes} n_channels={n_channels}");
        let bend = |cfg: &mut QueryConfig| {
            for s in &mut cfg.stages {
                (s.packet_bytes, s.n_channels) = (packet_bytes, n_channels);
            }
        };
        let mut cfg = QueryConfig::default_for(&amd_a10(), &plan);
        bend(&mut cfg);
        let classic = catch_unwind(AssertUnwindSafe(|| {
            try_run_query_recovering(&mut ctx, &plan, ExecMode::Gpl, &cfg, &limits, None)
                .map(|_| ())
        }));
        let want = if packet_bytes == 0 {
            ConfigError::ZeroPacket {
                stage: stage.clone(),
            }
        } else {
            ConfigError::Channels {
                stage: stage.clone(),
                n_channels,
                max_channels: amd_a10().channel.max_channels,
            }
        };
        assert_eq!(
            classic.expect("no unwind"),
            Err(ExecError::InvalidConfig(want)),
            "{at}"
        );

        let mut assignment = ShardAssignment::default_for(&pool, &plan);
        assignment.configs.iter_mut().for_each(bend);
        let sharded = catch_unwind(AssertUnwindSafe(|| {
            let (shard, mode) = (ShardPlan::range(2), ExecMode::Gpl);
            try_run_query_sharded(
                &pool,
                &ctx.db,
                &plan,
                mode,
                &shard,
                &assignment,
                &limits,
                None,
                None,
                None,
                None,
            )
            .map(|_| ())
        }));
        assert!(
            matches!(
                sharded.expect("no unwind"),
                Err(ExecError::InvalidConfig(
                    ConfigError::ZeroPacket { .. } | ConfigError::Channels { .. }
                ))
            ),
            "{at} sharded"
        );
    }
}

#[test]
fn wg_count_mismatch_is_rejected() {
    let mut ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(0.002));
    let plan = plan_for(&ctx.db, QueryId::Q14);
    let mut cfg = QueryConfig::default_for(&amd_a10(), &plan);
    cfg.stages[1].wg_counts.pop();
    let r = catch_unwind(AssertUnwindSafe(|| {
        run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
    }));
    assert!(r.is_err());
}

#[test]
fn invalid_channel_count_is_rejected() {
    let r = catch_unwind(|| {
        let mut sim = Simulator::new(amd_a10());
        sim.create_channel(99, 16); // max is 16
    });
    assert!(r.is_err());
}

/// A deadlocked pipeline surfaces as a structured [`ExecError`] through
/// the fallible executor seam, with the simulator's cycle and kernel
/// diagnostic intact — no panic, no poisoned context.
#[test]
fn deadlock_is_a_structured_error_with_diagnostics() {
    let mut ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(0.002));
    let ch = ctx.sim.create_channel(1, 16);
    let consumer = move |view: &dyn ChannelView| {
        if view.available(ch) == 0 && !view.eof(ch) {
            Work::Wait
        } else {
            Work::Done
        }
    };
    let k = KernelDesc::new(
        "orphan",
        ResourceUsage::new(64, 64, 0),
        4,
        Box::new(consumer),
    )
    .reads_channel(ch);
    let err = ctx.run_kernels(vec![k]).expect_err("must deadlock");
    match &err {
        ExecError::Deadlock { cycle, diagnostic } => {
            // An orphan consumer makes no progress at all, so the stall
            // is detected at the simulation's very first cycle.
            assert_eq!(*cycle, 0, "no work could have advanced the clock");
            assert!(
                diagnostic.contains("orphan"),
                "diagnostic must name the kernel: {diagnostic}"
            );
            assert!(
                err.to_string().contains("deadlock at cycle"),
                "display form: {err}"
            );
        }
        other => panic!("expected Deadlock, got {other}"),
    }
    // The context survives the failure and can still run real queries.
    let plan = plan_for(&ctx.db, QueryId::Q6);
    let cfg = QueryConfig::default_for(&amd_a10(), &plan);
    let run = run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
    assert!(!run.output.rows.is_empty());
}

/// An exhausted cycle budget reports how far the query got, and a
/// pre-raised cancel flag stops before any stage runs.
#[test]
fn timeout_and_cancellation_are_structured_errors() {
    let mut ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(0.002));
    let plan = plan_for(&ctx.db, QueryId::Q5);
    let cfg = QueryConfig::default_for(&amd_a10(), &plan);
    let limits = ExecLimits::with_max_cycles(1);
    let err = try_run_query_recovering(&mut ctx, &plan, ExecMode::Gpl, &cfg, &limits, None)
        .expect_err("1-cycle budget must trip");
    match err {
        ExecError::Timeout {
            budget_cycles,
            spent_cycles,
        } => {
            assert_eq!(budget_cycles, 1);
            assert!(spent_cycles > 1);
        }
        other => panic!("expected Timeout, got {other}"),
    }
    let limits = ExecLimits {
        max_cycles: None,
        cancel: Some(Arc::new(AtomicBool::new(true))),
    };
    let err = try_run_query_recovering(&mut ctx, &plan, ExecMode::Gpl, &cfg, &limits, None)
        .expect_err("raised flag must cancel");
    assert!(matches!(err, ExecError::Cancelled));
}

/// A timed-out query must free its worker slot: with a single worker,
/// a query that blows its budget is followed by queries that succeed —
/// and the error response carries the budget diagnostics.
#[test]
fn timed_out_query_frees_the_worker_slot() {
    let gamma = common::gamma();
    let srv = Server::start(
        ServeConfig {
            workers: 1,
            plan_cache_capacity: 8,
            record_traces: false,
            ..ServeConfig::default()
        },
        amd_a10(),
        Arc::new(TpchDb::at_scale(0.002)),
        gamma,
    );
    let sql = gpl_repro::sql::sql_for(QueryId::Q5).unwrap();
    let reqs = vec![
        QueryRequest::new(0, sql, ExecMode::Gpl).with_max_cycles(1),
        QueryRequest::new(1, sql, ExecMode::Gpl),
        QueryRequest::new(2, sql, ExecMode::Gpl),
    ];
    let responses = srv.run_batch(reqs);
    match &responses[0].result {
        Err(ServeError::Exec(ExecError::Timeout {
            budget_cycles,
            spent_cycles,
        })) => {
            assert_eq!(*budget_cycles, 1);
            assert!(*spent_cycles > 1);
        }
        other => panic!("expected a timeout response, got {other:?}"),
    }
    for r in &responses[1..] {
        let res = r.result.as_ref().expect("pool must keep serving");
        assert!(!res.output.rows.is_empty());
    }
    let (queued, running, done) = srv.gauges();
    assert_eq!((queued, running, done), (0, 0, 3));
}

/// Cancellation through the server: a pre-cancelled request comes back
/// as a `Cancelled` response while the rest of the batch is unaffected.
#[test]
fn cancelled_request_is_a_response_not_a_casualty() {
    let gamma = common::gamma();
    let srv = Server::start(
        ServeConfig {
            workers: 2,
            plan_cache_capacity: 8,
            record_traces: false,
            ..ServeConfig::default()
        },
        amd_a10(),
        Arc::new(TpchDb::at_scale(0.002)),
        gamma,
    );
    let sql = gpl_repro::sql::sql_for(QueryId::Q6).unwrap();
    let flag = Arc::new(AtomicBool::new(true));
    let reqs = vec![
        QueryRequest::new(0, sql, ExecMode::Gpl).with_cancel(flag),
        QueryRequest::new(1, sql, ExecMode::Gpl),
    ];
    let responses = srv.run_batch(reqs);
    assert!(matches!(
        responses[0].result,
        Err(ServeError::Exec(ExecError::Cancelled))
    ));
    assert!(responses[1].result.is_ok());
}

/// Shutdown drains instead of dropping: every query still queued when
/// the server stops comes back as a structured `Cancelled` response, so
/// each of the N submissions is answered exactly once — no hang, no
/// silently vanished work.
///
/// The backlog is sized from this host's own speed: one request run to
/// completion first measures what a request costs here, and the batch
/// then holds about two seconds of the single worker's work. Whatever
/// the host, the worker could empty the queue before the drain only if
/// this thread stalled that long between `submit_all` and `shutdown`.
#[test]
fn shutdown_drains_queued_queries_as_cancelled_responses() {
    let gamma = common::gamma();
    let srv = Server::start(
        ServeConfig {
            workers: 1,
            plan_cache_capacity: 8,
            record_traces: false,
            ..ServeConfig::default()
        },
        amd_a10(),
        Arc::new(TpchDb::at_scale(0.002)),
        gamma,
    );
    let sql = gpl_repro::sql::sql_for(QueryId::Q8).unwrap();
    // The measuring run also warms the plan cache, so every later request
    // costs about its execution alone.
    let warm = srv.run_batch(vec![QueryRequest::new(0, sql, ExecMode::Gpl)]);
    assert!(warm[0].result.is_ok(), "{:?}", warm[0].result);
    let per_request = warm[0].exec_wall.max(std::time::Duration::from_micros(1));
    let n = (std::time::Duration::from_secs(2).as_nanos() / per_request.as_nanos()).max(6) as u64;
    srv.submit_all((1..=n).map(|i| QueryRequest::new(i, sql, ExecMode::Gpl)));
    // Shut down at once: the worker has popped at most the first few.
    // Each submission must surface as exactly one response.
    let mut responses = srv.shutdown();
    assert_eq!(
        responses.len() as u64,
        n,
        "every submission gets a response"
    );
    responses.sort_by_key(|r| r.id);
    let mut cancelled = 0;
    for (i, r) in (1..).zip(&responses) {
        assert_eq!(r.id, i, "no duplicate or missing ids");
        match &r.result {
            Ok(run) => assert!(!run.output.rows.is_empty()),
            Err(ServeError::Exec(ExecError::Cancelled)) => cancelled += 1,
            other => panic!("q{i}: expected Ok or Cancelled, got {other:?}"),
        }
    }
    assert!(
        cancelled > 0,
        "an immediate shutdown must catch queued work"
    );
}

/// The cycle budget is inclusive: a query landing *exactly* on its
/// budget succeeds, one cycle less times out — and because each query
/// runs on its own simulator, the boundary is identical at any worker
/// count.
#[test]
fn timeout_boundary_is_exact_and_worker_count_independent() {
    let gamma = common::gamma();
    let db = Arc::new(TpchDb::at_scale(0.002));
    let sql = gpl_repro::sql::sql_for(QueryId::Q6).unwrap();
    let serve_cfg = || ServeConfig {
        plan_cache_capacity: 8,
        record_traces: false,
        ..ServeConfig::default()
    };
    // Measure the query's deterministic cost once, unlimited.
    let clean = Server::start(
        ServeConfig {
            workers: 1,
            ..serve_cfg()
        },
        amd_a10(),
        db.clone(),
        gamma.clone(),
    )
    .run_batch(vec![QueryRequest::new(0, sql, ExecMode::Gpl)]);
    let cost = clean[0].result.as_ref().expect("clean run").cycles;
    assert!(cost > 1);

    for workers in [1, 2, 8] {
        let srv = Server::start(
            ServeConfig {
                workers,
                ..serve_cfg()
            },
            amd_a10(),
            db.clone(),
            gamma.clone(),
        );
        let responses = srv.run_batch(vec![
            QueryRequest::new(0, sql, ExecMode::Gpl).with_max_cycles(cost),
            QueryRequest::new(1, sql, ExecMode::Gpl).with_max_cycles(cost - 1),
        ]);
        let on_budget = &responses[0];
        let run = on_budget
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("exactly on budget must pass at {workers} workers: {e:?}"));
        assert_eq!(run.cycles, cost, "cost itself is deterministic");
        match &responses[1].result {
            Err(ServeError::Exec(ExecError::Timeout {
                budget_cycles,
                spent_cycles,
            })) => {
                assert_eq!(*budget_cycles, cost - 1);
                assert!(*spent_cycles > *budget_cycles);
            }
            other => panic!("one under budget must time out at {workers} workers: {other:?}"),
        }
    }

    // The same boundary for a faulted sharded run: the retried fault's
    // waste lies inside the wall of the stage it hit, counted once.
    use gpl_repro::core::{
        try_run_query_sharded, DevicePool, RecoveryPolicy, ShardAssignment, ShardFaults, ShardPlan,
    };
    use gpl_repro::sim::{FaultKind, FaultSpec, PinnedFault};
    let plan = plan_for(&db, QueryId::Q5);
    let pool = DevicePool::default_pool();
    let assignment = ShardAssignment::round_robin(&pool, &plan);
    let mut spec = FaultSpec::none();
    spec.pinned.push(PinnedFault {
        kind: FaultKind::KernelFault,
        kernel: "k_hash_build(ht0)".into(),
        at_cycle: 0,
    });
    let faults = ShardFaults { spec, seed: 3 };
    let sharded = |max_cycles| {
        let limits = ExecLimits {
            max_cycles,
            cancel: None,
        };
        let (shard, policy) = (ShardPlan::range(2), RecoveryPolicy::default());
        try_run_query_sharded(
            &pool,
            &db,
            &plan,
            ExecMode::Gpl,
            &shard,
            &assignment,
            &limits,
            Some(&policy),
            Some(&faults),
            None,
            None,
        )
    };
    let run = sharded(None).expect("recovery absorbs the fault");
    assert!(run.recovery.wasted_cycles > 0, "the pinned fault fired");
    let cost = run.cycles;
    let on_budget = sharded(Some(cost)).expect("exactly on budget must pass when sharded");
    assert_eq!(on_budget.cycles, cost);
    match sharded(Some(cost - 1)) {
        Err(ExecError::Timeout {
            budget_cycles,
            spent_cycles,
        }) => assert_eq!((budget_cycles, spent_cycles), (cost - 1, cost)),
        other => panic!("one under budget must time out when sharded: {other:?}"),
    }
}

#[test]
fn sql_errors_do_not_panic() {
    let db = TpchDb::at_scale(0.002);
    for bad in [
        "",
        "selec x",
        "select sum(l_quantity) from no_such_table",
        "select l_orderkey from lineitem group by l_partkey",
        "select sum(x y) from lineitem",
        "select count(*) from lineitem where l_shipdate <= 'not a date'",
    ] {
        assert!(
            gpl_repro::sql::compile(&db, bad).is_err(),
            "{bad:?} should fail cleanly"
        );
    }
}

/// Valid SQL must not deadlock the pipeline. PR 12 found about one
/// `random_workload` text in 3000 returning `ExecError::Deadlock` under
/// GPL with its Eq. 8-tuned config while KBE answered: a probe widens
/// rows, so a chunk that filled one channel could never fit the next
/// one's total capacity. The three texts found then, as GPL ≡ KBE rows.
#[test]
fn probe_widened_chunks_do_not_deadlock_the_pipeline() {
    use gpl_repro::model::{build_models, estimate_stats, optimize_models};
    let spec = amd_a10();
    let db = TpchDb::at_scale(0.02);
    let gamma = GammaTable::calibrate(&spec);
    let texts = gpl_repro::sql::random_workload(0xad0c5eed, 5800);
    let mut ctx = ExecContext::new(spec.clone(), db);
    for i in [1003, 1025, 5732] {
        let plan = gpl_repro::sql::compile_optimized(&ctx.db, &texts[i]).expect("valid SQL");
        let stats = estimate_stats(&ctx.db, &plan);
        let models = build_models(&ctx.db, &plan, &stats, &spec);
        let config = optimize_models(&spec, &gamma, &plan, &models).config;
        let limits = ExecLimits::none();
        let kbe = try_run_query_recovering(&mut ctx, &plan, ExecMode::Kbe, &config, &limits, None)
            .expect("KBE");
        let gpl = try_run_query_recovering(&mut ctx, &plan, ExecMode::Gpl, &config, &limits, None)
            .unwrap_or_else(|e| panic!("text {i} under GPL: {e}\n{}", texts[i]));
        assert_eq!(gpl.output, kbe.output, "text {i}: {}", texts[i]);
        assert!(gpl.cycles < kbe.cycles, "text {i}: the pipeline still wins");
    }
}

/// Aliases make a join of any arity valid SQL, and the join-order DP
/// enumerates 2^probes subsets: at 16 probes it stalled planning for a
/// quarter of a second, at 17 it hit an `assert!` on the probe count —
/// reachable from every serve request. Past `MAX_DP_PROBES` (12) the DP
/// keeps the compiled order. One text at the bound, two past it: planning
/// does not unwind, and the wide pipeline answers as KBE does.
#[test]
fn wide_aliased_joins_plan_without_unwinding() {
    let spec = amd_a10();
    let mut ctx = ExecContext::new(spec.clone(), TpchDb::at_scale(0.002));
    for aliases in [12, 16, 17] {
        let tables: Vec<String> = (0..aliases).map(|i| format!("nation n{i}")).collect();
        let joins: Vec<String> = (0..aliases)
            .map(|i| format!("c.c_nationkey = n{i}.n_nationkey"))
            .collect();
        let sql = format!(
            "select count(*) from customer c, {} where {}",
            tables.join(", "),
            joins.join(" and ")
        );
        let plan = catch_unwind(AssertUnwindSafe(|| {
            gpl_repro::sql::compile_optimized(&ctx.db, &sql)
        }))
        .unwrap_or_else(|_| panic!("{aliases} aliases: planning unwound"))
        .unwrap_or_else(|e| panic!("{aliases} aliases: {e}"));
        let probes = (plan.stages.iter().flat_map(|s| &s.ops))
            .filter(|op| matches!(op, gpl_repro::core::plan::PipeOp::Probe { .. }))
            .count();
        assert_eq!(probes, aliases, "one probe per alias");
        let config = QueryConfig::default_for(&spec, &plan);
        let limits = ExecLimits::none();
        let kbe = try_run_query_recovering(&mut ctx, &plan, ExecMode::Kbe, &config, &limits, None)
            .expect("KBE");
        let gpl = try_run_query_recovering(&mut ctx, &plan, ExecMode::Gpl, &config, &limits, None)
            .unwrap_or_else(|e| panic!("{aliases} aliases under GPL: {e}"));
        assert_eq!(gpl.output, kbe.output, "{aliases} aliases");
        assert_eq!(
            gpl.output.rows,
            vec![vec![ctx.db.customer.rows() as i64]],
            "every customer has a nation"
        );
    }
}
