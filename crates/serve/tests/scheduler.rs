//! Serving-layer integration tests: worker pools, admission control,
//! plan caching, and the determinism contract at small scale. (The
//! full 32-query 1/2/8-worker determinism pin and the failure-mode
//! suite live in the workspace-level `tests/`.)

use gpl_core::{DevicePool, ExecMode, PoolDevice, ShardPlan};
use gpl_model::GammaTable;
use gpl_serve::{PlanCache, QueryRequest, ServeConfig, Server};
use gpl_sim::amd_a10;
use gpl_tpch::TpchDb;
use std::sync::Arc;

fn gamma() -> Arc<GammaTable> {
    Arc::new(GammaTable::calibrate_grid(
        &amd_a10(),
        vec![1, 4, 16],
        vec![16, 64],
        vec![256 << 10, 2 << 20, 16 << 20],
    ))
}

fn server(workers: usize) -> Server {
    Server::start(
        ServeConfig {
            workers,
            plan_cache_capacity: 32,
            record_traces: false,
            ..ServeConfig::default()
        },
        amd_a10(),
        Arc::new(TpchDb::at_scale(0.002)),
        gamma(),
    )
}

const SIMPLE: &str = "select sum(l_extendedprice * (1 - l_discount)) as revenue \
    from lineitem where l_shipdate <= date '1998-11-01'";
const GROUPED: &str = "select l_returnflag, count(*) as cnt from lineitem \
    group by l_returnflag order by l_returnflag";

#[test]
fn batch_results_are_complete_and_ordered() {
    let srv = server(2);
    let reqs: Vec<QueryRequest> = (0..6)
        .map(|i| QueryRequest::new(i, if i % 2 == 0 { SIMPLE } else { GROUPED }, ExecMode::Gpl))
        .collect();
    let responses = srv.run_batch(reqs);
    assert_eq!(responses.len(), 6);
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.id, i as u64, "sorted by id");
        let res = r.result.as_ref().expect("query succeeds");
        assert!(!res.output.rows.is_empty());
        assert!(res.cycles > 0);
    }
    let (queued, running, done) = srv.gauges();
    assert_eq!((queued, running, done), (0, 0, 6));
}

#[test]
fn repeat_queries_hit_the_plan_cache_with_identical_answers() {
    let srv = server(2);
    let reqs: Vec<QueryRequest> = (0..8)
        .map(|i| QueryRequest::new(i, SIMPLE, ExecMode::Gpl))
        .collect();
    let responses = srv.run_batch(reqs);
    let hits = responses.iter().filter(|r| r.plan_cache_hit).count();
    let (cache_hits, cache_misses) = srv.plan_cache().stats();
    // Two cold workers may race on the first queries, so allow more
    // than one miss — but most of the batch must be served hot.
    assert!(hits >= 6, "{hits} hits of 8");
    assert_eq!(cache_hits + cache_misses, 8);
    assert!(cache_hits >= 6);
    let first = responses[0].result.as_ref().unwrap();
    for r in &responses[1..] {
        let res = r.result.as_ref().unwrap();
        assert_eq!(res.output, first.output, "cache must not change results");
        assert_eq!(res.cycles, first.cycles);
    }
}

#[test]
fn all_three_modes_agree_through_the_server() {
    let srv = server(3);
    let reqs = vec![
        QueryRequest::new(0, GROUPED, ExecMode::Kbe),
        QueryRequest::new(1, GROUPED, ExecMode::GplNoCe),
        QueryRequest::new(2, GROUPED, ExecMode::Gpl),
    ];
    let responses = srv.run_batch(reqs);
    let base = responses[0].result.as_ref().unwrap();
    for r in &responses[1..] {
        assert_eq!(r.result.as_ref().unwrap().output, base.output);
    }
}

#[test]
fn one_worker_runs_a_batch_in_submit_order() {
    // One worker; the batch is admitted atomically, so execution order
    // is exactly submit order. Collect in completion order to observe it.
    let srv = server(1);
    let reqs: Vec<QueryRequest> = [3, 1, 4, 0, 2]
        .into_iter()
        .map(|i| QueryRequest::new(i, SIMPLE, ExecMode::Kbe))
        .collect();
    srv.submit_all(reqs);
    let order: Vec<u64> = srv.collect(5).iter().map(|r| r.id).collect();
    assert_eq!(order, [3, 1, 4, 0, 2]);
}

#[test]
fn plan_errors_are_responses_not_panics() {
    let srv = server(1);
    let reqs = vec![
        QueryRequest::new(0, "select frobnicate from nowhere", ExecMode::Gpl),
        QueryRequest::new(1, SIMPLE, ExecMode::Gpl),
    ];
    let responses = srv.run_batch(reqs);
    assert!(matches!(
        responses[0].result,
        Err(gpl_serve::ServeError::Plan(_))
    ));
    assert!(
        responses[1].result.is_ok(),
        "bad SQL must not poison the pool"
    );
}

#[test]
fn traced_batch_merges_per_query_tracks() {
    let srv = Server::start(
        ServeConfig {
            workers: 2,
            plan_cache_capacity: 8,
            record_traces: true,
            ..ServeConfig::default()
        },
        amd_a10(),
        Arc::new(TpchDb::at_scale(0.002)),
        gamma(),
    );
    let reqs = vec![
        QueryRequest::new(0, SIMPLE, ExecMode::Gpl),
        QueryRequest::new(1, GROUPED, ExecMode::Gpl),
    ];
    let report = srv.run_batch_report(reqs);
    for r in &report.responses {
        let dump = r.trace.as_ref().expect("tracing enabled");
        assert!(!dump.spans.is_empty(), "q{} recorded no spans", r.id);
    }
}

#[test]
fn eviction_keeps_the_cache_bounded_and_correct() {
    let db = TpchDb::at_scale(0.002);
    // A single-device server's planning: a one-device pool at one shard.
    let pool = DevicePool::new(vec![PoolDevice { spec: amd_a10() }]);
    let g = gamma();
    let gammas = std::slice::from_ref(&*g);
    let cache = PlanCache::new(2);
    let plan = |sql| {
        let shard = ShardPlan::single();
        (cache.get_or_place(&db, &pool, gammas, sql, ExecMode::Gpl, &shard)).unwrap()
    };
    let sqls = [SIMPLE, GROUPED, "select count(*) as c from orders"];
    for sql in sqls {
        assert!(!plan(sql).1);
    }
    assert_eq!(cache.len(), 2, "capacity bound holds");
    // The oldest entry (SIMPLE) was evicted; re-planning it is a miss
    // that evicts GROUPED in turn, but answers stay identical.
    let (entry, hit) = plan(SIMPLE);
    assert!(!hit);
    let fresh = gpl_sql::compile_optimized(&db, SIMPLE).unwrap();
    assert_eq!(entry.plan.display, fresh.display);
}

/// An explicit one-device pool of `amd_a10` at one shard, without
/// hedging: what a server without `sharding` runs.
fn one_device_sharding() -> gpl_serve::ShardServeConfig {
    gpl_serve::ShardServeConfig {
        pool: DevicePool::new(vec![PoolDevice { spec: amd_a10() }]),
        gammas: vec![(*gamma()).clone()],
        plan: ShardPlan::single(),
        hedge_threshold: None,
    }
}

/// The N = 1 claim behind the one job path: a one-device pool and the
/// classic single-device server run the same breaker machine — "every
/// device excluded" is "the breaker did not admit". Here the fault
/// schedule is pinned: every query launching `k_reduce*` — SIMPLE's
/// scalar aggregate — faults once, and without recovery that fails it;
/// GROUPED never launches it.
#[test]
fn one_device_pool_and_classic_server_walk_the_same_breaker_transitions() {
    use gpl_serve::{BreakerConfig, BreakerState, FaultConfig, ServeError};
    use gpl_sim::{FaultKind, FaultSpec, PinnedFault};

    let db = Arc::new(TpchDb::at_scale(0.002));
    let classic = ServeConfig {
        workers: 1,
        faults: Some(FaultConfig {
            seed: 7,
            spec: FaultSpec {
                pinned: vec![PinnedFault {
                    kind: FaultKind::KernelFault,
                    kernel: "k_reduce*".to_string(),
                    at_cycle: 0,
                }],
                ..FaultSpec::none()
            },
        }),
        breaker: Some(BreakerConfig {
            trip_after: 2,
            open_cycles: 3 * 4_096,
            reject_cost_cycles: 4_096,
        }),
        ..ServeConfig::default()
    };
    let pooled = ServeConfig {
        sharding: Some(one_device_sharding()),
        ..classic.clone()
    };
    // Two faults trip; three rejections cool down; the probe succeeds and
    // closes; a success resets the streak; two more faults trip again.
    let texts = [
        SIMPLE, SIMPLE, SIMPLE, SIMPLE, SIMPLE, GROUPED, SIMPLE, GROUPED, SIMPLE, SIMPLE, SIMPLE,
        GROUPED,
    ];
    let walk = |config: ServeConfig| {
        let srv = Server::start(config, amd_a10(), db.clone(), gamma());
        let reqs = (0..)
            .zip(texts)
            .map(|(i, sql)| QueryRequest::new(i, sql, ExecMode::Gpl));
        let answers: Vec<&str> = (srv.run_batch(reqs.collect()).iter())
            .map(|r| match &r.result {
                Ok(_) => "ok",
                Err(ServeError::CircuitOpen) => "open",
                Err(ServeError::Exec(e)) if e.is_device_fault() => "fault",
                Err(e) => panic!("{e}"),
            })
            .collect();
        let moves: Vec<(BreakerState, BreakerState)> = (srv.breaker_transitions().iter())
            .map(|t| (t.from, t.to))
            .collect();
        (answers, moves, srv.breaker_counts())
    };
    let (one_device, one_pool) = (walk(classic), walk(pooled));
    assert_eq!(one_device, one_pool);
    let (answers, moves, (rejections, opens)) = one_device;
    assert_eq!(
        answers,
        [
            "fault", "fault", "open", "open", "open", "ok", "fault", "ok", "fault", "fault",
            "open", "open"
        ]
    );
    use BreakerState::{Closed, HalfOpen, Open};
    assert_eq!(
        moves,
        [
            (Closed, Open),
            (Open, HalfOpen),
            (HalfOpen, Closed),
            (Closed, Open)
        ]
    );
    assert_eq!((rejections, opens), (5, 2));
}

/// The N = 1 claim under a drawn fault schedule with recovery and
/// traces on: a server without `sharding` and one with an explicit
/// one-device pool draw the same faults, recover the same way and
/// answer alike — result and rows fingerprints, and every response's
/// trace.
#[test]
fn one_device_pool_and_classic_server_answer_a_drawn_schedule_alike() {
    use gpl_core::RecoveryPolicy;
    use gpl_serve::FaultConfig;
    use gpl_sim::FaultSpec;

    let db = Arc::new(TpchDb::at_scale(0.002));
    let classic = ServeConfig {
        workers: 1,
        record_traces: true,
        faults: Some(FaultConfig {
            seed: 11,
            spec: FaultSpec::uniform(0.05),
        }),
        recovery: Some(RecoveryPolicy::default()),
        ..ServeConfig::default()
    };
    let pooled = ServeConfig {
        sharding: Some(one_device_sharding()),
        ..classic.clone()
    };
    let serve = |config: ServeConfig| {
        let srv = Server::start(config, amd_a10(), db.clone(), gamma());
        let reqs =
            (0..12).map(|i| QueryRequest::new(i, [SIMPLE, GROUPED][i as usize % 2], ExecMode::Gpl));
        srv.run_batch_report(reqs.collect())
    };
    let (one_device, one_pool) = (serve(classic), serve(pooled));
    let (faults, _, _, _) = one_device.recovery_totals();
    assert!(faults > 0, "the drawn schedule must fire");
    assert_eq!(one_device.err_count(), 0, "recovery absorbs every fault");
    assert_eq!(one_device.fingerprint(), one_pool.fingerprint());
    assert_eq!(one_device.rows_fingerprint(), one_pool.rows_fingerprint());
    for (a, b) in one_device.responses.iter().zip(&one_pool.responses) {
        assert!(a.trace.is_some(), "q{} recorded no trace", a.id);
        assert_eq!(
            format!("{:?}", a.trace),
            format!("{:?}", b.trace),
            "q{}",
            a.id
        );
    }
}

/// A pooled query that fails on a device fault trips only the breaker
/// of the device that faulted, and charges it the cycles its simulator
/// ran: it opens at a cycle above 0, not at the clock it had before the
/// query. The query's one stage runs its first part on the placement's
/// anchor, which launches the pinned `k_reduce*` fault and fails the
/// run; the pool's other two devices do not open.
#[test]
fn an_errored_pooled_query_charges_its_devices_clocks() {
    use gpl_serve::{BreakerConfig, BreakerState, FaultConfig};
    use gpl_sim::{FaultKind, FaultSpec, PinnedFault};

    let pool = DevicePool::default_pool();
    let gammas: Vec<GammaTable> = (pool.devices().iter())
        .map(|d| GammaTable::calibrate_grid(&d.spec, vec![1], vec![16], vec![256 << 10]))
        .collect();
    let db = Arc::new(TpchDb::at_scale(0.002));
    let (plan, stats) = gpl_sql::compile_with_stats(&db, SIMPLE).expect("compiles");
    let placement = gpl_model::place_with_stats(&pool, &gammas, &db, &plan, &stats, None);
    let anchor = placement.assignment.stage_device[0];
    let config = ServeConfig {
        workers: 1,
        faults: Some(FaultConfig {
            seed: 7,
            spec: FaultSpec {
                pinned: vec![PinnedFault {
                    kind: FaultKind::KernelFault,
                    kernel: "k_reduce*".to_string(),
                    at_cycle: 0,
                }],
                ..FaultSpec::none()
            },
        }),
        breaker: Some(BreakerConfig {
            trip_after: 1,
            ..BreakerConfig::default()
        }),
        sharding: Some(gpl_serve::ShardServeConfig {
            pool,
            gammas,
            plan: ShardPlan::range(2),
            hedge_threshold: None,
        }),
        ..ServeConfig::default()
    };
    let srv = Server::start(config, amd_a10(), db, gamma());
    let answers = srv.run_batch(vec![QueryRequest::new(0, SIMPLE, ExecMode::Gpl)]);
    assert!(
        matches!(&answers[0].result, Err(gpl_serve::ServeError::Exec(e)) if e.is_device_fault()),
        "{:?}",
        answers[0].result
    );
    let opens: Vec<(Option<usize>, u64)> = (srv.breaker_transitions().iter())
        .filter(|t| (t.from, t.to) == (BreakerState::Closed, BreakerState::Open))
        .map(|t| (t.device, t.cycle))
        .collect();
    let [(device, cycle)] = opens[..] else {
        panic!("exactly one breaker opens, the faulting device's: {opens:?}");
    };
    assert_eq!(device, Some(anchor), "{opens:?}");
    assert!(cycle > 0, "the device that faulted is charged its cycles");
}

/// A hedge threshold below 1 is a deployment error, caught when the
/// server starts rather than on every request it would have served.
#[test]
#[should_panic(expected = "hedge threshold")]
fn start_rejects_a_hedge_threshold_below_one() {
    let _server = Server::start(
        ServeConfig {
            workers: 1,
            sharding: Some(gpl_serve::ShardServeConfig {
                hedge_threshold: Some(0.5),
                ..one_device_sharding()
            }),
            ..ServeConfig::default()
        },
        amd_a10(),
        Arc::new(TpchDb::at_scale(0.002)),
        gamma(),
    );
}
