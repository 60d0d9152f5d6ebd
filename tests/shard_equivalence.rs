//! The cross-shard differential suite pinning the multi-device layer:
//! sharding and placement are pure execution strategies, so rows and
//! result fingerprints must be bit-identical across shard counts,
//! device assignments and exec modes — with the classic single-device
//! engine as the oracle. The bottom half fuzzes the same invariant over
//! generated SQL (failing seeds persist to
//! `tests/shard_equivalence.proptest-regressions`).

use gpl_check::pins;
use gpl_check::prelude::*;
use gpl_prng::{SeedableRng, StdRng};
use gpl_repro::core::shard::{
    try_run_query_sharded, DeviceKind, DevicePool, ShardAssignment, ShardPlan, ShardedRun,
};
use gpl_repro::core::{
    plan_for, run_query, ExecContext, ExecLimits, ExecMode, QueryConfig, QueryPlan,
};
use gpl_repro::sim::amd_a10;
use gpl_repro::tpch::QueryId;
use std::sync::OnceLock;

mod common;
use common::db_sf0002 as db;

/// Shard counts exercised everywhere: the degenerate single shard, even
/// splits, and a count coprime to both the pool size and the row counts
/// (7) so remainders land unevenly.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// The modes the sharded executor supports end to end.
const MODES: [ExecMode; 3] = [ExecMode::Gpl, ExecMode::GplPipelined, ExecMode::Kbe];

fn pool() -> &'static DevicePool {
    static POOL: OnceLock<DevicePool> = OnceLock::new();
    POOL.get_or_init(DevicePool::default_pool)
}

/// A fault-free sharded run; the assignment deals stages round-robin
/// across the pool so every device class (including the CPU profile)
/// participates without the placement model in the loop.
fn run_sharded(
    plan: &QueryPlan,
    mode: ExecMode,
    shards: usize,
) -> gpl_repro::core::shard::ShardedRun {
    let assignment = ShardAssignment::round_robin(pool(), plan);
    try_run_query_sharded(
        pool(),
        &db(),
        plan,
        mode,
        &ShardPlan::range(shards),
        &assignment,
        &ExecLimits::default(),
        None,
        None,
        None,
        None,
    )
    .expect("fault-free sharded run")
}

/// Single-device oracle: the classic (unsharded) engine on the AMD
/// profile with the default configuration.
fn oracle(plan: &QueryPlan, mode: ExecMode) -> gpl_repro::core::QueryRun {
    let spec = amd_a10();
    let cfg = QueryConfig::default_for(&spec, plan);
    let mut ctx = ExecContext::with_shared(spec, db());
    run_query(&mut ctx, plan, mode, &cfg)
}

/// The tentpole pin: every TPC-H plan, under every supported mode, at
/// every shard count, split across all three device classes — rows and
/// fingerprints must match the single-device oracle exactly.
#[test]
fn all_tpch_plans_agree_across_shard_counts_and_modes() {
    for q in QueryId::all() {
        let plan = plan_for(&db(), q);
        for mode in MODES {
            let want = oracle(&plan, mode);
            let mut fingerprints = Vec::new();
            for shards in SHARD_COUNTS {
                let run = run_sharded(&plan, mode, shards);
                assert_eq!(
                    run.output,
                    want.output,
                    "{} under {} with {shards} shard(s) diverged from the single-device oracle",
                    q.name(),
                    mode.name()
                );
                fingerprints.push(run.output.fingerprint());
            }
            assert!(
                fingerprints.windows(2).all(|w| w[0] == w[1]),
                "{} under {}: fingerprints differ across shard counts: {fingerprints:x?}",
                q.name(),
                mode.name()
            );
        }
    }
}

/// Ocelot reaches the sharded driver through the one stage attempt, with
/// no code of its own there: each shard's range gets its own bitmaps.
#[test]
fn ocelot_agrees_with_the_classic_engine_when_sharded() {
    for q in QueryId::evaluation_set() {
        let plan = plan_for(&db(), q);
        let want = oracle(&plan, ExecMode::Ocelot);
        for shards in [1, 4] {
            let run = run_sharded(&plan, ExecMode::Ocelot, shards);
            assert_eq!(
                run.output,
                want.output,
                "{} under Ocelot with {shards} shard(s) diverged",
                q.name()
            );
        }
    }
}

/// Rule 3 of the one driver on the three-device pool: an overlap pair
/// fuses when both its stages run as one shard on the same anchor, and
/// otherwise runs as the sequential pair, recorded as a degradation.
#[test]
fn overlap_pairs_fuse_only_on_one_anchor() {
    for q in [QueryId::Q9, QueryId::Q14] {
        let plan = plan_for(&db(), q);
        let want = oracle(&plan, ExecMode::Gpl);
        let run = |mut assignment: ShardAssignment| {
            for c in &mut assignment.configs {
                *c = c.clone().with_overlap_slices(2);
            }
            let mode = ExecMode::GplPipelined;
            let (shard, limits) = (ShardPlan::single(), ExecLimits::none());
            let run = try_run_query_sharded(
                pool(),
                &db(),
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
            .expect("fault-free sharded run");
            assert_eq!(run.output, want.output, "{}: rows", q.name());
            let fused = (run.per_device.iter())
                .flat_map(|d| &d.per_stage)
                .any(|p| p.kernels.iter().any(|k| k.segment == 1));
            (fused, run.recovery.degraded_to)
        };
        let on_one = run(ShardAssignment::default_for(pool(), &plan));
        assert_eq!(on_one, (true, None), "{}: one anchor fuses", q.name());
        let across = run(ShardAssignment::round_robin(pool(), &plan));
        assert_eq!(
            across,
            (false, Some(ExecMode::Gpl)),
            "{}: two anchors run the sequential pair",
            q.name()
        );
    }
}

/// The cycle plane of one sharded run as one `pins/` line: the query
/// total, the per-stage walls and every device's final clock —
/// everything a change to the cross-shard merge (allocation order, table
/// geometry, broadcast charge) would move.
fn cycle_line(q: &str, mode: ExecMode, shards: usize, run: &ShardedRun) -> String {
    let devices: Vec<u64> = run.per_device.iter().map(|d| d.cycles).collect();
    format!(
        "{q} {} shards={shards} total={} stages={:?} devices={devices:?}",
        mode.name(),
        run.cycles,
        run.stage_cycles
    )
}

/// The cycle plane of the merge, pinned: Q5 and Q9 build hash tables in
/// several stages and broadcast each to all three devices. Rows and
/// fingerprints alone would not see a moved address or a changed
/// broadcast charge; these cycles (first pinned as digests at 608add3)
/// do.
#[test]
fn merge_cycle_plane_is_pinned_for_q5_and_q9() {
    let mut lines = Vec::new();
    for q in [QueryId::Q5, QueryId::Q9] {
        let plan = plan_for(&db(), q);
        for mode in MODES {
            for shards in SHARD_COUNTS {
                let run = run_sharded(&plan, mode, shards);
                lines.push(cycle_line(q.name(), mode, shards, &run));
            }
        }
    }
    pins::check("shard_merge_cycles", &lines.join("\n")).unwrap_or_else(|e| panic!("{e}"));
}

/// Breakers that exclude a whole device class: with both GPUs excluded,
/// every stage — GPU-anchored ones included — runs on the live CPU, the
/// merged tables are broadcast to it alone, and the rows still equal the
/// KBE oracle.
#[test]
fn excluding_every_gpu_runs_every_stage_on_the_cpu() {
    let plan = plan_for(&db(), QueryId::Q5);
    let assignment = ShardAssignment::round_robin(pool(), &plan);
    let run = try_run_query_sharded(
        pool(),
        &db(),
        &plan,
        ExecMode::Gpl,
        &ShardPlan::range(2),
        &assignment,
        &ExecLimits::default(),
        None,
        None,
        None,
        Some(&[true, true, false]),
    )
    .expect("the CPU runs the query alone");
    assert_eq!(run.output, oracle(&plan, ExecMode::Kbe).output);
    let kinds: Vec<DeviceKind> = pool().devices().iter().map(|d| d.kind()).collect();
    assert_eq!(kinds, [DeviceKind::Gpu, DeviceKind::Gpu, DeviceKind::Cpu]);
    for gpu in &run.per_device[..2] {
        assert_eq!(gpu.cycles, 0, "an excluded GPU's clock never moves");
        assert!(gpu.per_stage.iter().all(|p| p.kernels.is_empty()));
    }
    let cpu = &run.per_device[2];
    assert_eq!(cpu.per_stage.len(), plan.stages.len() + 1, "stages + sort");
    assert!(
        cpu.per_stage.iter().all(|p| !p.kernels.is_empty()),
        "every stage and the sort launch on the CPU"
    );
    assert!(
        (assignment.stage_device.iter()).any(|&d| kinds[d] == DeviceKind::Gpu),
        "some stage is anchored on an excluded GPU"
    );
}

/// Empty shards, pinned: Q5's joins grouped by region instead of nation
/// drive `region` (5 rows), which supplies `r_name` and so stays in the
/// compiled plan, and `nation` (25 rows); at 7 shards two `region` shards
/// hold no rows. An empty shard launches nothing, yet still creates its
/// attempt's blocking outputs — an allocation that shifts every later
/// address — so its cycle plane is pinned here.
#[test]
fn empty_shards_keep_the_pinned_cycle_plane() {
    let sql = "select r_name, sum(l_extendedprice * (1 - l_discount)) as revenue \
        from customer, orders, lineitem, supplier, nation, region \
        where c_custkey = o_custkey and l_orderkey = o_orderkey \
          and l_suppkey = s_suppkey and c_nationkey = s_nationkey \
          and s_nationkey = n_nationkey and n_regionkey = r_regionkey \
          and o_orderdate >= date '1994-01-01' and o_orderdate < date '1995-01-01' \
        group by r_name order by revenue desc";
    let plan = gpl_repro::sql::compile(&db(), sql).expect("Q5 by region compiles");
    let drivers: Vec<usize> = (plan.stages.iter())
        .map(|s| db().table(&s.driver).rows())
        .collect();
    assert!(drivers.iter().any(|&rows| rows < 7), "{drivers:?}");
    let mut lines = Vec::new();
    for mode in [ExecMode::Gpl, ExecMode::Kbe] {
        let run = run_sharded(&plan, mode, 7);
        assert_eq!(run.output, oracle(&plan, mode).output, "{}", mode.name());
        lines.push(cycle_line("Q5-by-region", mode, 7, &run));
    }
    pins::check("shard_empty_cycles", &lines.join("\n")).unwrap_or_else(|e| panic!("{e}"));
}

prop! {
    #![cases(100)]

    /// Differential fuzzing: any query the SQL generator emits must get
    /// the same rows from the sharded heterogeneous pool as from the
    /// single-device engine, for a shard count and mode derived from
    /// the seed. Each case is one generator seed, so a persisted
    /// regression replays the exact query text.
    #[test]
    fn random_queries_agree_across_shard_counts(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sql = gpl_repro::sql::random_query(&mut rng);
        let plan = gpl_repro::sql::compile(&db(), &sql)
            .unwrap_or_else(|e| panic!("generated query must compile: {sql:?}: {e}"));
        let shards = SHARD_COUNTS[(seed % 4) as usize];
        let mode = MODES[((seed >> 2) % 3) as usize];
        let want = oracle(&plan, mode);
        let run = run_sharded(&plan, mode, shards);
        prop_assert_eq!(
            &run.output, &want.output,
            "{} with {} shard(s) disagrees with the single-device engine on {:?}",
            mode.name(), shards, sql
        );
    }
}
