//! The request path walked by hand: the same public calls `gpl_serve`'s
//! workers make, one span around each, so host time splits by layer
//! without touching the crates.

use crate::spec::MODE_KEYS;
use crate::trace::Tracer;
use gpl_core::{
    try_run_query_recovering, try_run_query_sharded, DevicePool, ExecContext, ExecError,
    ExecLimits, ExecMode, HedgePlan, QueryConfig, QueryPlan, RecoveryPolicy, RecoveryStats,
    SegmentIr, ShardFaults, ShardPlan,
};
use gpl_model::{
    attach_overlap, build_models, estimate_stats, hedge_plan, optimize_join_order, optimize_models,
    place_query, GammaTable, Placement,
};
use gpl_sim::{DeviceSpec, FaultPlan, FaultSpec, LaunchProfile};
use gpl_tpch::{QueryOutput, TpchDb};
use std::sync::Arc;

pub const MODES: [ExecMode; 4] = [
    ExecMode::Kbe,
    ExecMode::GplNoCe,
    ExecMode::Gpl,
    ExecMode::GplPipelined,
];

pub fn mode_key(mode: ExecMode) -> &'static str {
    MODE_KEYS[MODES.iter().position(|&m| m == mode).expect("known mode")]
}

/// The per-query fault seed `gpl_serve` documents: `seed ^ id·φ64`.
pub fn per_query_seed(seed: u64, id: u64) -> u64 {
    seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A planned single-device query: what `PlanCache::get_or_plan` caches.
pub struct Planned {
    pub plan: QueryPlan,
    pub config: QueryConfig,
    /// Cost-model evaluations the grid search performed.
    pub evaluated: usize,
}

/// Stats → stage models → Eq. 8 grid search (→ overlap post-pass for the
/// pipelined mode) → IR lowering, each under its own span.
pub fn tune(
    tr: &mut Tracer,
    req: u64,
    db: &TpchDb,
    spec: &DeviceSpec,
    gamma: &GammaTable,
    plan: QueryPlan,
    mode: ExecMode,
) -> Planned {
    let stats = tr.span("model.stats", req, |_| estimate_stats(db, &plan));
    let models = tr.span("model.build_models", req, |_| {
        build_models(db, &plan, &stats, spec)
    });
    let out = tr.span("model.search", req, |_| {
        optimize_models(spec, gamma, &plan, &models)
    });
    let mut config = out.config;
    if mode == ExecMode::GplPipelined {
        attach_overlap(spec, gamma, &plan, &models, &mut config);
    }
    // The executors lower each stage again when they run it; this span
    // prices that step on its own.
    tr.span("core.lower", req, |_| {
        for stage in &plan.stages {
            std::hint::black_box(SegmentIr::lower(
                stage,
                db.table(&stage.driver),
                spec.wavefront_size,
            ));
        }
    });
    Planned {
        plan,
        config,
        evaluated: out.evaluated,
    }
}

/// SQL text → join-ordered plan, as `gpl_sql::compile_optimized` does.
/// `sql.parse` is timed on its own first: `compile` parses again
/// internally, so compile's self time is `sql.compile − sql.parse`.
pub fn compile(tr: &mut Tracer, req: u64, db: &TpchDb, sql: &str) -> Result<QueryPlan, String> {
    tr.span("sql.parse", req, |_| gpl_sql::parse(sql).map(drop))
        .map_err(|e| e.to_string())?;
    let plan = tr
        .span("sql.compile", req, |_| gpl_sql::compile(db, sql))
        .map_err(|e| e.to_string())?;
    Ok(tr.span("model.joinopt", req, |_| optimize_join_order(db, &plan)))
}

/// A query's facts on both clocks, reduced to what the benchmark keeps.
pub struct Executed {
    pub output: QueryOutput,
    pub cycles: u64,
    pub recovery: RecoveryStats,
    /// Simulator work units executed (one event each).
    pub events: u64,
    pub launches: u64,
    /// Rows the stages' leaf kernels consumed (the driver tables' rows).
    pub leaf_rows: u64,
    /// Launch profiles to aggregate modelled components from: the merged
    /// query profile, or one per (device, stage) of a sharded run — pool
    /// devices differ in CU count, so those must not be merged.
    pub profiles: Vec<LaunchProfile>,
}

fn summarize<'a>(stages: impl Iterator<Item = &'a LaunchProfile>) -> (u64, u64) {
    let (mut events, mut launches) = (0, 0);
    for p in stages.filter(|p| !p.kernels.is_empty()) {
        launches += 1;
        events += p.kernels.iter().map(|k| k.units).sum::<u64>();
    }
    (events, launches)
}

fn driver_rows(db: &TpchDb, plan: &QueryPlan) -> u64 {
    plan.stages
        .iter()
        .map(|s| db.table(&s.driver).rows() as u64)
        .sum()
}

pub fn executed(db: &TpchDb, plan: &QueryPlan, run: gpl_core::QueryRun) -> Executed {
    let (events, launches) = summarize(run.per_stage.iter());
    Executed {
        output: run.output,
        cycles: run.cycles,
        recovery: run.recovery,
        events,
        launches,
        leaf_rows: driver_rows(db, plan),
        profiles: vec![run.profile],
    }
}

/// One query on a fresh context (so the modelled L2 starts empty), as a
/// serve worker runs it.
#[allow(clippy::too_many_arguments)]
pub fn exec(
    tr: &mut Tracer,
    req: u64,
    spec: &DeviceSpec,
    db: &Arc<TpchDb>,
    p: &Planned,
    mode: ExecMode,
    faults: Option<(&FaultSpec, u64)>,
    recovery: Option<&RecoveryPolicy>,
) -> Result<Executed, ExecError> {
    tr.span("core.exec", req, |_| {
        let mut ctx = ExecContext::with_shared(spec.clone(), db.clone());
        if let Some((fs, seed)) = faults {
            ctx.sim.attach_faults(FaultPlan::new(fs.clone(), seed));
        }
        try_run_query_recovering(
            &mut ctx,
            &p.plan,
            mode,
            &p.config,
            &ExecLimits::none(),
            recovery,
        )
    })
    .map(|run| executed(db, &p.plan, run))
}

/// A planned sharded query: what `PlanCache::get_or_place` caches, plus
/// the hedge plan the worker projects from it per request.
pub struct Placed {
    pub plan: QueryPlan,
    pub placement: Placement,
    pub hedge: Option<HedgePlan>,
}

pub fn place(
    tr: &mut Tracer,
    req: u64,
    db: &TpchDb,
    pool: &DevicePool,
    gammas: &[GammaTable],
    plan: QueryPlan,
    hedge_threshold: Option<f64>,
) -> Placed {
    let placement = tr.span("model.place", req, |_| {
        place_query(pool, gammas, db, &plan, None)
    });
    let hedge = tr.span("model.hedge_plan", req, |_| {
        hedge_threshold.map(|t| hedge_plan(&placement, t))
    });
    Placed {
        plan,
        placement,
        hedge,
    }
}

#[allow(clippy::too_many_arguments)]
pub fn exec_sharded(
    tr: &mut Tracer,
    req: u64,
    pool: &DevicePool,
    db: &Arc<TpchDb>,
    p: &Placed,
    shard: &ShardPlan,
    faults: Option<&ShardFaults>,
    recovery: Option<&RecoveryPolicy>,
) -> Result<Executed, ExecError> {
    let run = tr.span("core.shard_exec", req, |_| {
        try_run_query_sharded(
            pool,
            db,
            &p.plan,
            ExecMode::Gpl,
            shard,
            &p.placement.assignment,
            &ExecLimits::none(),
            recovery,
            faults,
            p.hedge.as_ref(),
            None,
        )
    })?;
    let (events, launches) = summarize(run.per_device.iter().flat_map(|d| d.per_stage.iter()));
    let profiles = run
        .per_device
        .into_iter()
        .flat_map(|d| d.per_stage)
        .filter(|p| !p.kernels.is_empty())
        .collect();
    Ok(Executed {
        output: run.output,
        cycles: run.cycles,
        recovery: run.recovery,
        events,
        launches,
        leaf_rows: driver_rows(db, &p.plan),
        profiles,
    })
}
