//! Query execution: context, configuration, the single-device entry
//! points (a one-device pool of [`crate::shard`]'s stage loop) and the
//! stage attempt behind every execution mode — Section 5.1's KBE, GPL
//! (w/o CE) and full GPL, pipelined GPL, and Section 5.5's Ocelot
//! baseline.

use crate::error::ExecError;
use crate::gpl;
use crate::ht::{GroupStore, SimHashTable};
use crate::kbe::{self, Selection};
use crate::ops::sort_rows;
use crate::plan::{QueryPlan, Stage, Terminal};
use crate::recover::{self, Ladder, RecoveryPolicy, RecoveryStats, Spent};
use crate::segment::{InterSegmentEdge, SegmentIr};
use crate::shard::{run_pool, RunSpec, ShardPlan};
use gpl_sim::{
    DeviceSpec, KernelDesc, LaunchProfile, RegionClass, ResourceUsage, Simulator, Work, WorkUnit,
};
use gpl_storage::{TableLayout, Tiling};
use gpl_tpch::{QueryOutput, TpchDb};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How a plan is executed (Section 5.1's three systems, the pipelined
/// scheduler, and Section 5.5's comparison baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Kernel-based execution: one kernel at a time over the whole input,
    /// intermediates materialized in global memory.
    Kbe,
    /// GPL with tiling but neither concurrent kernels nor channels:
    /// kernels run one at a time per tile (the ablation of Figure 16).
    GplNoCe,
    /// Full GPL: concurrent kernels connected by channels, tiled input.
    Gpl,
    /// Full GPL plus cross-segment pipelining: an eligible build→probe
    /// stage pair runs as one fused launch, the shared hash table
    /// installed and published slice by slice so the probe segment's
    /// leaf (and the early slices' probes) overlap the build terminal.
    /// Stages outside an eligible pair — or pairs whose
    /// [`StageConfig::overlap_slices`] is 0 — run exactly as
    /// [`ExecMode::Gpl`].
    GplPipelined,
    /// The Ocelot baseline (Section 5.5): kernel-at-a-time like
    /// [`ExecMode::Kbe`], but a selection hands the next kernel a bitmap
    /// over the full input instead of compacted arrays, and no element is
    /// wider than 4 bytes (Appendix B). Its third property, the
    /// hash-table cache, is [`HtCache`].
    Ocelot,
}

impl ExecMode {
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Kbe => "KBE",
            ExecMode::GplNoCe => "GPL (w/o CE)",
            ExecMode::Gpl => "GPL",
            ExecMode::GplPipelined => "GPL (pipelined)",
            ExecMode::Ocelot => "Ocelot",
        }
    }
}

/// Tunable parameters for one stage's pipelined execution — the knobs the
/// analytical model of Section 4 optimizes.
#[derive(Debug, Clone, PartialEq)]
pub struct StageConfig {
    /// Tile size Δ in bytes of the driving relation.
    pub tile_bytes: u64,
    /// Channels per producer→consumer edge (`n`).
    pub n_channels: u32,
    /// Packet size in bytes (`p`; fixed on NVIDIA).
    pub packet_bytes: u32,
    /// Work-groups per GPL kernel (scan, ops…, terminal). Must have one
    /// entry per kernel of [`Stage::gpl_kernel_names`].
    pub wg_counts: Vec<u32>,
    /// Cross-segment overlap slices (K) when this stage's hash-build
    /// terminal is the producer of an eligible [`InterSegmentEdge`] and
    /// the query runs under [`ExecMode::GplPipelined`]: 0 disables the
    /// overlap (the pair runs sequentially — the default), K ≥ 1 splits
    /// the installation into K published slices. Ignored elsewhere.
    pub overlap_slices: u32,
}

impl StageConfig {
    /// The paper's default configuration: 1 MB tiles (Section 5.2 notes
    /// the default tile size is 1 MB), 4 channels, 16-byte packets, and a
    /// uniform work-group allocation.
    pub fn default_for(spec: &DeviceSpec, stage: &Stage) -> Self {
        let kernels = stage.gpl_kernel_names().len();
        StageConfig {
            tile_bytes: 1 << 20,
            n_channels: 4,
            packet_bytes: spec.channel.fixed_packet_bytes,
            wg_counts: vec![4 * spec.num_cus; kernels],
            overlap_slices: 0,
        }
    }
}

/// Per-stage configuration for a whole plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryConfig {
    pub stages: Vec<StageConfig>,
}

impl QueryConfig {
    pub fn default_for(spec: &DeviceSpec, plan: &QueryPlan) -> Self {
        QueryConfig {
            stages: plan
                .stages
                .iter()
                .map(|s| StageConfig::default_for(spec, s))
                .collect(),
        }
    }

    /// Set the overlap-slice knob on every stage (the scheduler only
    /// reads it on the build stage of an eligible pair). Builder-style,
    /// for tests and benchmarks.
    pub fn with_overlap_slices(mut self, k: u32) -> Self {
        for s in &mut self.stages {
            s.overlap_slices = k;
        }
        self
    }
}

/// Device + installed database: the execution context shared by all
/// engines. Table columns are mapped into simulated memory once.
pub struct ExecContext {
    pub sim: Simulator,
    pub db: Arc<TpchDb>,
    layouts: HashMap<String, TableLayout>,
}

impl ExecContext {
    pub fn new(spec: DeviceSpec, db: TpchDb) -> Self {
        Self::with_shared(spec, Arc::new(db))
    }

    /// Build a context over an already-shared database. Worker threads in
    /// the serving layer each call this with a clone of one `Arc<TpchDb>`:
    /// the (large, immutable) column data is shared, while the simulator
    /// and its memory map — the mutable, per-query state — stay private
    /// to the worker. `TableLayout::install` only allocates simulated
    /// regions; it copies no data, so per-worker setup is cheap.
    pub fn with_shared(spec: DeviceSpec, db: Arc<TpchDb>) -> Self {
        let mut sim = Simulator::new(spec);
        let mut layouts = HashMap::new();
        for t in db.tables() {
            layouts.insert(t.name().to_string(), TableLayout::install(&mut sim.mem, t));
        }
        ExecContext { sim, db, layouts }
    }

    pub fn layout(&self, table: &str) -> &TableLayout {
        self.layouts
            .get(table)
            .unwrap_or_else(|| panic!("table {table:?} not installed"))
    }

    pub fn spec(&self) -> DeviceSpec {
        self.sim.spec().clone()
    }

    /// Launch a set of kernels on this context's simulator, surfacing a
    /// pipeline stall as a structured [`ExecError::Deadlock`] instead of
    /// panicking. This is the seam the GPL engine and the failure-mode
    /// tests use to exercise the error path.
    pub fn run_kernels(&mut self, kernels: Vec<KernelDesc>) -> Result<LaunchProfile, ExecError> {
        self.sim.try_run(kernels).map_err(ExecError::from)
    }
}

/// Runtime limits for one query execution, checked at stage boundaries.
///
/// Both limits are expressed in *deterministic* units — simulated device
/// cycles and an explicit flag — never wall-clock time, so a limited run
/// produces the same outcome on a loaded laptop and an idle server.
#[derive(Debug, Clone, Default)]
pub struct ExecLimits {
    /// Abort with [`ExecError::Timeout`] once the query's simulated
    /// cycles exceed this budget. `None` = unlimited.
    pub max_cycles: Option<u64>,
    /// Abort with [`ExecError::Cancelled`] when this flag is raised.
    /// Checked before every stage, so cancellation latency is bounded by
    /// one stage, not one query.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl ExecLimits {
    pub fn none() -> Self {
        Self::default()
    }

    pub fn with_max_cycles(max_cycles: u64) -> Self {
        ExecLimits {
            max_cycles: Some(max_cycles),
            cancel: None,
        }
    }

    pub(crate) fn check(&self, spent: u64) -> Result<(), ExecError> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(ExecError::Cancelled);
            }
        }
        if let Some(budget) = self.max_cycles {
            if spent > budget {
                return Err(ExecError::Timeout {
                    budget_cycles: budget,
                    spent_cycles: spent,
                });
            }
        }
        Ok(())
    }
}

/// The result of running a query on the simulator.
#[derive(Debug, Clone)]
pub struct QueryRun {
    pub output: QueryOutput,
    /// Simulated cycles for the whole query — the device's clock over it:
    /// all successful launches, channel stalls included, plus any cycles
    /// wasted on failed attempts and backoff (`recovery.wasted_cycles`;
    /// zero on a fault-free run).
    pub cycles: u64,
    /// Merged profile across all successful launches.
    pub profile: LaunchProfile,
    /// Per-stage merged profiles, in stage order (the final sort, if any,
    /// is appended as an extra entry).
    pub per_stage: Vec<LaunchProfile>,
    /// What the recovery stack did (default on a fault-free run).
    pub recovery: RecoveryStats,
}

impl QueryRun {
    /// Wall-clock milliseconds at the device clock rate.
    pub fn ms(&self, spec: &DeviceSpec) -> f64 {
        spec.cycles_to_ms(self.cycles)
    }
}

/// Run `plan` under `mode` with `config`, panicking on execution errors.
///
/// This is the single-query entry point used by benchmarks and tests,
/// where a deadlock is a bug worth aborting on. The fallible doors keep
/// the process alive and the diagnostic intact:
/// [`try_run_query_recovering`] on one context, and [`run_pool`], which
/// `gpl-serve` calls over the contexts it builds per request.
pub fn run_query(
    ctx: &mut ExecContext,
    plan: &QueryPlan,
    mode: ExecMode,
    config: &QueryConfig,
) -> QueryRun {
    try_run_query_recovering(ctx, plan, mode, config, &ExecLimits::none(), None)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// One stage of a [`RunSpec`] on one pool device: everything an attempt
/// borrows.
pub(crate) struct StageRun<'a> {
    pub spec: &'a RunSpec<'a>,
    pub device: usize,
    /// Index of the stage in the plan (and of its config).
    pub idx: usize,
    /// The stage lowered at this device's wavefront.
    pub ir: &'a SegmentIr,
    /// Tables built by earlier stages, as this device holds them.
    pub hts: &'a [Option<Rc<RefCell<SimHashTable>>>],
    /// Query cycles spent before this stage.
    pub spent: Spent,
    /// The stage's build rows as [`estimate_build_rows`] expects them,
    /// taken once per stage: every attempt's table is placed for them.
    pub build_rows: usize,
}

impl StageRun<'_> {
    pub(crate) fn stage(&self) -> &Stage {
        &self.spec.plan.stages[self.idx]
    }

    pub(crate) fn cfg(&self) -> &StageConfig {
        &self.spec.configs[self.device].stages[self.idx]
    }

    /// Host entries a build table reserves for an attempt over `rows` of
    /// the driver: its share of [`Self::build_rows`],
    /// `min(expected, ⌈expected × rows / total⌉)`. The whole driver
    /// reserves the whole estimate.
    pub(crate) fn reserve(&self, rows: usize) -> usize {
        let (expected, total) = (self.build_rows as u64, self.ir.driver_rows.max(1));
        expected.min((expected * rows as u64).div_ceil(total)) as usize
    }
}

/// A stage's blocking terminal state, owned: the hash table it built or
/// the aggregate store it filled. Handed back only by a successful
/// attempt, so a retry can never observe (or double-apply into) a
/// failed attempt's partial state.
pub(crate) enum Blocking {
    Build(usize, SimHashTable),
    Agg(GroupStore),
}

/// One attempt's outcome: the launch profile plus the terminal state.
pub(crate) type StageOut = (LaunchProfile, Blocking);

type SharedBuild = Option<(usize, Rc<RefCell<SimHashTable>>)>;
type SharedAgg = Option<Rc<RefCell<GroupStore>>>;

impl Blocking {
    /// Take back sole ownership of what [`make_blocking_outputs`] lent
    /// to a launch (its kernels, and their handles, are gone by now).
    fn owned(build: SharedBuild, agg: SharedAgg) -> Self {
        fn unshare<T>(rc: Rc<RefCell<T>>) -> T {
            match Rc::try_unwrap(rc) {
                Ok(cell) => cell.into_inner(),
                Err(_) => unreachable!("blocking output still shared after its launch"),
            }
        }
        match (build, agg) {
            (Some((slot, t)), _) => Blocking::Build(slot, unshare(t)),
            (_, Some(a)) => Blocking::Agg(unshare(a)),
            _ => unreachable!("a stage ends in a build or an aggregate"),
        }
    }

    /// Content digest: what a checkpoint records and hedging compares.
    pub(crate) fn fingerprint(&self) -> u64 {
        match self {
            Blocking::Build(_, t) => t.fingerprint(),
            Blocking::Agg(a) => a.fingerprint(),
        }
    }

    /// Merge the state of a disjoint row range of the same stage: build
    /// tables absorb entries (key-unique across disjoint ranges, like
    /// shard merges), aggregate stores absorb group-by-group.
    pub(crate) fn absorb(&mut self, part: Blocking) {
        match (self, part) {
            (Blocking::Build(_, acc), Blocking::Build(_, t)) => acc.absorb(t),
            (Blocking::Agg(acc), Blocking::Agg(s)) => acc.absorb(s),
            _ => unreachable!("slices of one stage share its terminal"),
        }
    }
}

/// Hash tables kept across the queries of one [`ExecContext`] — Ocelot's
/// memory manager (Section 5.5). The key is the whole build stage
/// (driver and its row count, loads, ops, terminal), so a table is
/// reused only by a stage that would rebuild it entry for entry.
#[derive(Default)]
pub struct HtCache {
    pub(crate) tables: HashMap<String, Rc<RefCell<SimHashTable>>>,
    pub cache_hits: usize,
    pub cache_misses: usize,
}

impl HtCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop cached hash tables (e.g. between databases).
    pub fn clear(&mut self) {
        self.tables.clear();
    }
}

/// Run `plan` under `mode` with `config`, subject to `limits`. With a
/// `recovery` policy the recovery stack is enabled: per-stage retries
/// with deterministic exponential backoff, graceful degradation down the
/// GPL → GPL-w/o-CE → KBE ladder, and a disarmed last-resort KBE attempt
/// (see [`crate::recover`]). With `None`, the first injected fault (if a
/// fault plan is attached) surfaces as an error.
///
/// Recovered runs return bit-identical rows to fault-free runs — faults
/// cost cycles (`QueryRun::recovery.wasted_cycles`), never correctness.
/// Errors leave the context usable for the next query: the simulator's
/// clock and memory map survive, and the serving layer discards the
/// per-query state (hash tables, aggregate stores) with the locals here.
pub fn try_run_query_recovering(
    ctx: &mut ExecContext,
    plan: &QueryPlan,
    mode: ExecMode,
    config: &QueryConfig,
    limits: &ExecLimits,
    recovery: Option<&RecoveryPolicy>,
) -> Result<QueryRun, ExecError> {
    try_run_query_cached(ctx, plan, mode, config, limits, recovery, None)
}

/// [`try_run_query_recovering`] over a hash-table cache: a build stage
/// whose table `cache` already holds installs it and launches nothing
/// (its `per_stage` entry is the default profile); every other build
/// runs and is kept. `None` is a cold run. Fused pairs bypass the cache:
/// their table is published slice by slice inside the launch.
///
/// The one driver ([`crate::shard`]'s stage loop) on a one-device pool:
/// one shard, every stage anchored on `ctx`.
pub fn try_run_query_cached(
    ctx: &mut ExecContext,
    plan: &QueryPlan,
    mode: ExecMode,
    config: &QueryConfig,
    limits: &ExecLimits,
    recovery: Option<&RecoveryPolicy>,
    cache: Option<&mut HtCache>,
) -> Result<QueryRun, ExecError> {
    let spec = RunSpec {
        plan,
        mode,
        shard: &ShardPlan::single(),
        anchors: &vec![0; plan.stages.len()],
        configs: std::slice::from_ref(config),
        limits,
        recovery,
        hedge: None,
    };
    let ctxs = std::slice::from_mut(ctx);
    let (run, profile) = run_pool(ctxs, &spec, &[], cache)?;
    let device = run.per_device.into_iter().next().expect("one device");
    Ok(QueryRun {
        output: run.output,
        cycles: run.cycles,
        profile,
        per_stage: device.per_stage,
        recovery: run.recovery,
    })
}

/// One attempt at one stage on one mode — the only way a stage runs.
/// Fresh blocking outputs are created *per attempt*, the part's `rows`
/// (the whole driver, a checkpoint slice or a shard) accumulate into
/// them, and the terminal state is handed back owned, for the caller to
/// install or merge only on success. An empty part (a shard past the
/// last row) still creates its outputs, since that allocation places
/// every later one, but launches nothing. An injected fault surfaces as
/// the corresponding [`ExecError`] variant. `GplPipelined` runs the plain
/// GPL pipeline: a lone stage has no pair to overlap with.
pub(crate) fn attempt_stage(
    ctx: &mut ExecContext,
    run: &StageRun,
    mode: ExecMode,
    rows: Range<usize>,
) -> Result<StageOut, ExecError> {
    debug_assert!(!ctx.sim.fault_pending(), "stale fault entering a stage");
    let (stage, ir, hts) = (run.stage(), run.ir, run.hts);
    let reserve = run.reserve(rows.len());
    let (build, agg) = make_blocking_outputs(ctx, run.spec.plan, stage, run.build_rows, reserve);
    if rows.is_empty() {
        return Ok((LaunchProfile::default(), Blocking::owned(build, agg)));
    }
    let build_rc = build.as_ref().map(|(_, t)| t);
    // The kernel-at-a-time modes differ in one policy, chosen here only.
    let sel = if mode == ExecMode::Ocelot {
        Selection::Bitmap
    } else {
        Selection::Compact
    };
    let profile = match mode {
        ExecMode::Kbe | ExecMode::Ocelot => {
            kbe::run_stage_range(ctx, ir, stage, hts, build_rc, agg.as_ref(), rows, sel)
        }
        ExecMode::GplNoCe => {
            let tiling = Tiling::by_bytes(rows.len(), ir.row_bytes, run.cfg().tile_bytes);
            let mut p = LaunchProfile::default();
            for tile in tiling.iter() {
                p.merge(&kbe::run_stage_range(
                    ctx,
                    ir,
                    stage,
                    hts,
                    build_rc,
                    agg.as_ref(),
                    rows.start + tile.start..rows.start + tile.end,
                    sel,
                ));
            }
            p
        }
        ExecMode::Gpl | ExecMode::GplPipelined => {
            gpl::run_stage_range(ctx, ir, stage, hts, build_rc, agg.as_ref(), run.cfg(), rows)?
        }
    };
    if let Some(record) = ctx.sim.take_fault() {
        return Err(ExecError::Fault(record));
    }
    Ok((profile, Blocking::owned(build, agg)))
}

/// Fresh blocking outputs (hash table / aggregate store) for one attempt
/// at `stage`, behind the shared handles its kernels write through. A
/// table is placed for the stage's `expected` build rows whatever part
/// of the driver the attempt covers, so its simulated geometry is the
/// whole build's; its host content reserves `reserve` entries, the
/// attempt's share ([`StageRun::reserve`]), and grows past them on demand.
pub(crate) fn make_blocking_outputs(
    ctx: &mut ExecContext,
    plan: &QueryPlan,
    stage: &Stage,
    expected: usize,
    reserve: usize,
) -> (SharedBuild, SharedAgg) {
    match &stage.terminal {
        Terminal::HashBuild { ht, payloads, .. } => {
            let table = SimHashTable::reserving(
                &mut ctx.sim.mem,
                expected,
                reserve,
                payloads.len(),
                format!("{}::ht{}", plan.query.name(), ht),
            );
            (Some((*ht, Rc::new(RefCell::new(table)))), None)
        }
        Terminal::Aggregate { groups, aggs } => {
            let store = GroupStore::with_kinds(
                &mut ctx.sim.mem,
                GroupStore::expected_groups(groups.len()),
                groups.len(),
                aggs.iter().map(|a| a.kind).collect(),
                format!("{}::agg", plan.query.name()),
            );
            (None, Some(Rc::new(RefCell::new(store))))
        }
    }
}

/// Drive one eligible pair through the pipelined scheduler on `device`:
/// the ladder's one rung is the fused launch — both segments' kernels in
/// one launch, the shared hash table installed slice by slice and
/// published through the inter-segment channel — retried with backoff,
/// no last resort. `None` when device faults exhaust it under a recovery
/// policy: the driver then runs the *sequential* pair. Fresh blocking
/// outputs per attempt, like [`attempt_stage`], so a mid-overlap fault
/// can never double-publish or drop a slice; they come back only on
/// success, with the fused launch's profile.
pub(crate) fn run_pair_fused(
    ctx: &mut ExecContext,
    spec: &RunSpec,
    device: usize,
    pair: &InterSegmentEdge,
    hts: &[Option<Rc<RefCell<SimHashTable>>>],
    spent: Spent,
    stats: &mut RecoveryStats,
) -> Result<Option<(LaunchProfile, [Blocking; 2])>, ExecError> {
    let (bi, pi) = (pair.build_stage, pair.probe_stage);
    let (stage_b, stage_p) = (&spec.plan.stages[bi], &spec.plan.stages[pi]);
    let wf = ctx.sim.spec().wavefront_size;
    let ir_b = SegmentIr::lower(stage_b, ctx.db.table(&stage_b.driver), wf);
    let ir_p = SegmentIr::lower(stage_p, ctx.db.table(&stage_p.driver), wf);
    // Slice volume: the expected table size split K ways.
    let Terminal::HashBuild { payloads, .. } = &stage_b.terminal else {
        unreachable!("pair build stage must end in a hash build");
    };
    // A fused pair is one shard: its tables reserve their whole estimates.
    let (rows_b, rows_p) = (
        estimate_build_rows(&ctx.db, stage_b),
        estimate_build_rows(&ctx.db, stage_p),
    );
    let table_bytes = rows_b as u64 * SimHashTable::entry_bytes_for(payloads.len());
    let cfgs = &spec.configs[device].stages;
    let edge = pair
        .clone()
        .with_slices(cfgs[bi].overlap_slices, table_bytes);

    let rec = ctx.sim.recorder().cloned();
    let span = rec.as_ref().map(|r| {
        let t = r.track("exec");
        let name = format!("stage{bi}+{pi}:{}+{}", ir_b.driver, ir_p.driver);
        let s = r.begin(t, "stage", name, ctx.sim.clock());
        r.arg(s, "overlap_slices", edge.slices);
        r.arg(s, "slice_bytes", edge.slice_bytes);
        r.arg(s, "kernels", ir_b.nodes.len() + ir_p.nodes.len());
        s
    });
    let fused = Ladder {
        modes: vec![ExecMode::GplPipelined],
        last_resort: false,
        ..Ladder::new(spec.recovery, ExecMode::GplPipelined, spec.limits, spent)
    };
    let attempt = |ctx: &mut ExecContext, _| {
        debug_assert!(!ctx.sim.fault_pending(), "stale fault entering a pair");
        let (shared, _) = make_blocking_outputs(ctx, spec.plan, stage_b, rows_b, rows_b);
        let (build_p, agg) = make_blocking_outputs(ctx, spec.plan, stage_p, rows_p, rows_p);
        let table = shared.as_ref().map(|(_, t)| t);
        let profile = gpl::run_overlapped_pair(
            ctx,
            &edge,
            &ir_b,
            stage_b,
            &cfgs[bi],
            &ir_p,
            stage_p,
            &cfgs[pi],
            hts,
            table.expect("pair build stage ends in a hash build"),
            build_p.as_ref().map(|(_, t)| t),
            agg.as_ref(),
        )?;
        if let Some(record) = ctx.sim.take_fault() {
            return Err(ExecError::Fault(record));
        }
        let outs = [Blocking::owned(shared, None), Blocking::owned(build_p, agg)];
        Ok((profile, outs))
    };
    match fused.run(ctx, stats, attempt, |_, _| {}) {
        Ok(((profile, outs), _)) => {
            if let Some(r) = rec.as_ref() {
                // The measured overlap window: where the two segments'
                // kernel activity intersects.
                if let (Some((a0, a1)), Some((b0, b1))) =
                    (profile.segment_window(0), profile.segment_window(1))
                {
                    let (lo, hi) = (a0.max(b0), a1.min(b1));
                    if lo < hi {
                        let t = r.track("exec");
                        r.span(
                            t,
                            "overlap",
                            format!("overlap:slices={}", edge.slices),
                            lo,
                            hi,
                            vec![("cycles", gpl_obs::Value::from(hi - lo))],
                        );
                    }
                }
                if let Some(s) = span {
                    r.arg(s, "stage_cycles", profile.elapsed_cycles);
                    r.end(s, ctx.sim.clock());
                }
            }
            Ok(Some((profile, outs)))
        }
        Err(e) if spec.recovery.is_some() && e.is_device_fault() => {
            if let (Some(r), Some(s)) = (rec.as_ref(), span) {
                r.arg(s, "degraded_to", "GPL (sequential pair)");
                r.end(s, ctx.sim.clock());
            }
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Slice-checkpoint execution of one part of a stage (DESIGN.md §11):
/// `rows` cut into `slices` balanced ranges (empty cuts dropped), each
/// run down `ladder` into *fresh* per-slice blocking
/// outputs that merge into the part's accumulated state only on success
/// — the launch-admission invariant applied per slice. After every
/// merge, a content checkpoint (the accumulated state's fingerprint) is
/// recorded; a faulted slice re-verifies the accumulated state against
/// the last checkpoint and retries *only itself*, so a mid-stage fault
/// resumes from the last verified slice instead of row 0. Rows are
/// bit-identical to the unsliced stage (disjoint ranges union exactly —
/// the same facts the shard merge relies on); only cycles differ.
pub(crate) fn run_stage_checkpointed(
    ctx: &mut ExecContext,
    run: &StageRun,
    mode: ExecMode,
    ladder: &Ladder,
    rows: Range<usize>,
    slices: u32,
    stats: &mut RecoveryStats,
) -> Result<(StageOut, ExecMode), ExecError> {
    let cuts = ShardPlan::range(slices as usize).partition(rows.len());
    let slices = (cuts.into_iter().filter(|c| !c.is_empty()))
        .map(|c| rows.start + c.start..rows.start + c.end);
    // Accumulated blocking state: created ONCE and kept across slice
    // attempts — sound because a faulted slice attempt only ever built
    // its own (dropped) per-slice outputs. It covers the whole part.
    let reserve = run.reserve(rows.len());
    let (build, agg) =
        make_blocking_outputs(ctx, run.spec.plan, run.stage(), run.build_rows, reserve);
    let mut acc = Blocking::owned(build, agg);
    let mut checkpoint = acc.fingerprint();
    let mut kept_cycles = 0u64; // useful cycles the checkpoints protect
    let mut profile = LaunchProfile::default();
    let mut ran_on = mode;

    // `verified`: slices merged and checksummed so far.
    for (verified, slice) in (0u64..).zip(slices) {
        // An armed success also reports its cycles, which later faults
        // count as saved; the disarmed last resort reports none.
        let attempt = |ctx: &mut ExecContext, m| {
            let c0 = ctx.sim.clock();
            let out = attempt_stage(ctx, run, m, slice.clone())?;
            let armed = ctx.sim.faults_armed();
            Ok((out, if armed { ctx.sim.clock() - c0 } else { 0 }))
        };
        // Partial-progress resume: the completed slices stay. Verify
        // them against the last checkpoint before continuing — a failed
        // attempt must not have touched the accumulated state.
        let resume = |ctx: &mut ExecContext, stats: &mut RecoveryStats| {
            if verified > 0 {
                assert_eq!(
                    acc.fingerprint(),
                    checkpoint,
                    "accumulated state diverged from its checkpoint"
                );
                stats.resumed_slices += verified;
                stats.checkpoint_saved_cycles += kept_cycles;
                recover::instant(
                    ctx,
                    "resume",
                    vec![
                        ("from_slice", gpl_obs::Value::from(verified)),
                        ("saved_cycles", gpl_obs::Value::from(kept_cycles)),
                    ],
                );
            }
        };
        let (((sp, out), cycles), m) = ladder.run(ctx, stats, attempt, resume)?;
        acc.absorb(out);
        checkpoint = acc.fingerprint();
        kept_cycles += cycles;
        profile.merge(&sp);
        if m != mode {
            ran_on = m;
        }
    }
    Ok(((profile, acc), ran_on))
}

/// Estimate a build stage's output cardinality by evaluating its filters
/// on a small driver sample (the role a query optimizer's estimate plays
/// when an engine sizes a hash table). Stages with probes fall back to
/// the driver cardinality; a stage that ends in an aggregate builds
/// nothing (0).
pub(crate) fn estimate_build_rows(db: &TpchDb, stage: &Stage) -> usize {
    use crate::plan::PipeOp;
    if !matches!(stage.terminal, Terminal::HashBuild { .. }) {
        return 0;
    }
    let total = db.table(&stage.driver).rows();
    if stage
        .ops
        .iter()
        .any(|op| matches!(op, PipeOp::Probe { .. }))
        || total == 0
    {
        return total.max(1);
    }
    let rows = crate::ops::sample_ids(total, 1024);
    let t = db.table(&stage.driver);
    let mut chunk = crate::ops::Chunk::new(stage.num_slots());
    for (s, name) in stage.loads.iter().enumerate() {
        let col = t.col(name);
        chunk.fill(s, col.gather_i64(&rows));
    }
    for op in &stage.ops {
        match op {
            PipeOp::Filter(p) => chunk = crate::ops::apply_filter(&chunk, p),
            PipeOp::Compute { expr, out } => crate::ops::apply_compute(&mut chunk, expr, *out),
            PipeOp::Probe { .. } => unreachable!("filtered above"),
        }
    }
    let sel = chunk.rows as f64 / rows.len().max(1) as f64;
    // Head-room so under-sampled selective builds still fit comfortably.
    ((total as f64 * sel * 1.25) as usize).clamp(16, total.max(16))
}

/// Simulate the final `ORDER BY` over the (small) aggregate output: one
/// blocking `k_sort` kernel running [`sort_passes`]' schedule for the
/// plan's `limit`, each pass reading and writing the rows it covers.
/// Every mode charges it alike. The host sorts every row; the `LIMIT`
/// itself is applied by [`crate::plan::QueryPlan::output`]. The rows are
/// host-side results, outside the fault domain: injection is disarmed so
/// the output path cannot strand a pending fault.
pub(crate) fn run_sort_kernel(
    ctx: &mut ExecContext,
    rows: &mut [Vec<i64>],
    order: &[(usize, bool)],
    limit: Option<usize>,
) -> LaunchProfile {
    let n = rows.len().max(1) as u64;
    let width = rows.first().map(|r| r.len()).unwrap_or(1) as u64 * 8;
    let mut passes = sort_passes(n, limit).into_iter();
    sort_rows(rows, order);
    let was_armed = ctx.sim.faults_armed();
    ctx.sim.set_faults_armed(false);
    let region = ctx
        .sim
        .mem
        .alloc(n * width, RegionClass::Output, "sort-output");
    let base = ctx.sim.mem.base(region);
    let src = move |_: &dyn gpl_sim::ChannelView| match passes.next() {
        None => Work::Done,
        Some(m) => Work::Unit(WorkUnit {
            compute_insts: 4 * m,
            mem_insts: 2 * m,
            accesses: vec![
                gpl_sim::MemRange::read(base, m * width),
                gpl_sim::MemRange::write(base, m * width),
            ],
            ..Default::default()
        }),
    };
    let k = KernelDesc::new("k_sort", ResourceUsage::new(64, 64, 2048), 8, Box::new(src));
    let profile = ctx.sim.run(vec![k]);
    ctx.sim.set_faults_armed(was_armed);
    profile
}

/// The rows each pass of the final sort covers, for `n` rows (at least
/// one) of which the first `limit` are kept. With no limit, or one
/// covering every row, a full bitonic sort: lg² passes over all n rows,
/// lg the bit length of n. A smaller k runs a bitonic top-k (Shanbhag,
/// Pirk & Madden, SIGMOD 2018): lk² passes over all n rows sort runs of
/// 2^lk, lk the bit length of k; then each round merges pairs of runs,
/// keeping the better half, in lk passes over the ⌈m/2⌉ rows left, until
/// one run remains. Where 2^lk covers n already, that is the full sort.
/// A limit of 0 is scheduled as 1. An approximation: a round's merge
/// reads both runs, all m rows, before the rebuild; that read is folded
/// into the rebuild passes and not charged, so each round is priced a
/// little low.
fn sort_passes(n: u64, limit: Option<usize>) -> Vec<u64> {
    let bits = |x: u64| 64 - x.leading_zeros() as u64;
    let Some(k) = limit.map(|k| k.max(1) as u64).filter(|&k| k < n) else {
        let lg = bits(n);
        return vec![n; (lg * lg) as usize];
    };
    let lk = bits(k);
    let mut passes = vec![n; (lk * lk) as usize];
    let mut m = n;
    while m > 1 << lk {
        m = m.div_ceil(2);
        passes.extend(std::iter::repeat_n(m, lk as usize));
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpl_sim::amd_a10;

    #[test]
    fn context_installs_all_tables() {
        let ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(0.002));
        for t in [
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        ] {
            assert_eq!(ctx.layout(t).table(), t);
        }
    }

    #[test]
    fn default_config_covers_all_stages() {
        let db = TpchDb::at_scale(0.002);
        let plan = crate::plan::plan_for(&db, gpl_tpch::QueryId::Q5);
        let cfg = QueryConfig::default_for(&amd_a10(), &plan);
        assert_eq!(cfg.stages.len(), plan.stages.len());
        for (s, c) in plan.stages.iter().zip(&cfg.stages) {
            assert_eq!(c.wg_counts.len(), s.gpl_kernel_names().len());
            let ir = SegmentIr::lower(s, db.table(&s.driver), amd_a10().wavefront_size);
            ir.validate_config(c).expect("default config fits the IR");
        }
    }

    #[test]
    fn cycle_budget_trips_at_a_stage_boundary() {
        let db = TpchDb::at_scale(0.002);
        let plan = crate::plan::plan_for(&db, gpl_tpch::QueryId::Q5);
        let mut ctx = ExecContext::new(amd_a10(), db);
        let cfg = QueryConfig::default_for(&amd_a10(), &plan);
        let limits = ExecLimits::with_max_cycles(1);
        let err = try_run_query_recovering(&mut ctx, &plan, ExecMode::Kbe, &cfg, &limits, None)
            .unwrap_err();
        match err {
            ExecError::Timeout {
                budget_cycles,
                spent_cycles,
            } => {
                assert_eq!(budget_cycles, 1);
                assert!(spent_cycles > 1);
            }
            e => panic!("expected timeout, got {e}"),
        }
    }

    #[test]
    fn raised_cancel_flag_stops_before_the_first_stage() {
        let db = TpchDb::at_scale(0.002);
        let plan = crate::plan::plan_for(&db, gpl_tpch::QueryId::Q6);
        let mut ctx = ExecContext::new(amd_a10(), db);
        let cfg = QueryConfig::default_for(&amd_a10(), &plan);
        let flag = Arc::new(AtomicBool::new(true));
        let limits = ExecLimits {
            max_cycles: None,
            cancel: Some(flag),
        };
        let err = try_run_query_recovering(&mut ctx, &plan, ExecMode::Kbe, &cfg, &limits, None)
            .unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
    }

    /// The blocking output of one attempt at stage `idx` of `plan` over
    /// `rows`, the stages before it run whole to supply its probes.
    fn attempt_table(
        db: &Arc<TpchDb>,
        plan: &QueryPlan,
        idx: usize,
        rows: impl Fn(usize) -> Range<usize>,
    ) -> SimHashTable {
        let mut ctx = ExecContext::with_shared(amd_a10(), Arc::clone(db));
        let configs = [QueryConfig::default_for(&amd_a10(), plan)];
        let spec = RunSpec {
            plan,
            mode: ExecMode::Gpl,
            shard: &ShardPlan::single(),
            anchors: &vec![0; plan.stages.len()],
            configs: &configs,
            limits: &ExecLimits::none(),
            recovery: None,
            hedge: None,
        };
        let mut hts = vec![None; plan.num_hts];
        for (i, stage) in plan.stages.iter().enumerate().take(idx + 1) {
            let wf = amd_a10().wavefront_size;
            let ir = SegmentIr::lower(stage, db.table(&stage.driver), wf);
            let run = StageRun {
                spec: &spec,
                device: 0,
                idx: i,
                ir: &ir,
                hts: &hts,
                spent: Spent {
                    walls: 0,
                    wasted0: 0,
                },
                build_rows: estimate_build_rows(db, stage),
            };
            let total = db.table(&stage.driver).rows();
            let part = if i == idx { rows(total) } else { 0..total };
            let (_, out) = attempt_stage(&mut ctx, &run, ExecMode::Gpl, part).unwrap();
            let Blocking::Build(slot, table) = out else {
                panic!("stage {i} of {} builds", plan.query.name());
            };
            if i == idx {
                return table;
            }
            hts[slot] = Some(Rc::new(RefCell::new(table)));
        }
        unreachable!("stage {idx} ran")
    }

    #[test]
    fn a_part_reserves_host_room_for_its_rows_only() {
        let db = Arc::new(TpchDb::at_scale(0.01));
        // A sampled estimate (Q9's filtered partsupp) and a probe-fed one
        // (Q3's orders, estimated at the whole driver).
        for (q, name) in [
            (gpl_tpch::QueryId::Q9, "build_partsupp"),
            (gpl_tpch::QueryId::Q3, "build_orders"),
        ] {
            let plan = crate::plan::plan_for(&db, q);
            let idx = plan.stages.iter().position(|s| s.name == name).unwrap();
            let whole = attempt_table(&db, &plan, idx, |total| 0..total);
            let quarter = attempt_table(&db, &plan, idx, |total| 0..total / 4);
            assert!(quarter.len() < whole.len(), "{name}");
            assert_eq!(quarter.bytes(), whole.bytes(), "{name}: simulated geometry");
            assert!(
                2 * quarter.host_bytes() <= whole.host_bytes(),
                "{name}: host bytes {} for a quarter, {} for the whole",
                quarter.host_bytes(),
                whole.host_bytes()
            );
        }
    }

    #[test]
    fn sort_kernel_sorts_and_costs() {
        let mut ctx = ExecContext::new(amd_a10(), TpchDb::at_scale(0.002));
        let mut rows = vec![vec![3, 1], vec![1, 9], vec![2, 4]];
        let p = run_sort_kernel(&mut ctx, &mut rows, &[(1, true)], None);
        assert_eq!(rows, vec![vec![1, 9], vec![2, 4], vec![3, 1]]);
        assert!(p.elapsed_cycles > 0);
    }

    /// The final sort as it ran before a `LIMIT` shaped it: lg² passes
    /// over all n rows, lg the bit length of n.
    fn full_sort_reference(ctx: &mut ExecContext, rows: &[Vec<i64>]) -> LaunchProfile {
        let n = rows.len().max(1) as u64;
        let lg = 64 - n.leading_zeros() as u64;
        let passes = (lg * lg).max(1);
        let width = rows.first().map(|r| r.len()).unwrap_or(1) as u64 * 8;
        let region = ctx
            .sim
            .mem
            .alloc(n * width, RegionClass::Output, "sort-output");
        let base = ctx.sim.mem.base(region);
        let mut pass = 0u64;
        let src = move |_: &dyn gpl_sim::ChannelView| {
            if pass == passes {
                return Work::Done;
            }
            pass += 1;
            Work::Unit(WorkUnit {
                compute_insts: 4 * n,
                mem_insts: 2 * n,
                accesses: vec![
                    gpl_sim::MemRange::read(base, n * width),
                    gpl_sim::MemRange::write(base, n * width),
                ],
                ..Default::default()
            })
        };
        let k = KernelDesc::new("k_sort", ResourceUsage::new(64, 64, 2048), 8, Box::new(src));
        ctx.sim.run(vec![k])
    }

    /// `n` two-column rows, the first column heavy with ties.
    fn sort_input(n: usize) -> Vec<Vec<i64>> {
        (0..n as i64).map(|i| vec![i % 7, (i * 37) % 101]).collect()
    }

    /// Run the sort kernel on a fresh context over `db`.
    fn sorted(db: &Arc<TpchDb>, n: usize, limit: Option<usize>) -> (LaunchProfile, Vec<Vec<i64>>) {
        let mut ctx = ExecContext::with_shared(amd_a10(), Arc::clone(db));
        let mut rows = sort_input(n);
        let p = run_sort_kernel(&mut ctx, &mut rows, &[(0, true)], limit);
        (p, rows)
    }

    #[test]
    fn a_limit_covering_every_row_keeps_the_full_sort() {
        let db = Arc::new(TpchDb::at_scale(0.002));
        let edges = (9..=12).flat_map(|b| [(1 << b) - 1, 1 << b, (1 << b) + 1]);
        for n in (1..=300).chain(edges) {
            let mut ctx = ExecContext::with_shared(amd_a10(), Arc::clone(&db));
            let want = format!("{:?}", full_sort_reference(&mut ctx, &sort_input(n)));
            let mut full = sort_input(n);
            sort_rows(&mut full, &[(0, true)]);
            for limit in [
                None,
                Some(n),
                Some(n + 1),
                Some(2 * n + 5),
                Some(usize::MAX),
            ] {
                let (p, rows) = sorted(&db, n, limit);
                assert_eq!(format!("{p:?}"), want, "n = {n}, limit {limit:?}");
                assert_eq!(rows, full, "n = {n}, limit {limit:?}");
            }
        }
    }

    #[test]
    fn a_binding_limit_costs_less_than_the_full_sort_and_grows_with_k() {
        let db = Arc::new(TpchDb::at_scale(0.002));
        let bits = |x: usize| usize::BITS - x.leading_zeros();
        // Enough rows that a pass shows in the cycle count; over two
        // rows the launch hides every pass.
        for n in [37, 300, 1025] {
            let (full, full_rows) = sorted(&db, n, None);
            let full = full.elapsed_cycles;
            let mut last = 0;
            for k in 0..n {
                // The limit shapes the charge only: the host sorts every
                // row and `QueryPlan::output` truncates.
                let (p, rows) = sorted(&db, n, Some(k));
                assert_eq!(rows, full_rows, "n = {n}, k = {k}");
                let cycles = p.elapsed_cycles;
                // k shares n's bit length: one run of 2^lk covers n, and
                // the top-k is the full sort.
                if bits(k.max(1)) < bits(n) {
                    assert!(cycles < full, "n = {n}, k = {k}: {cycles} vs {full}");
                } else {
                    assert_eq!(cycles, full, "n = {n}, k = {k}");
                }
                assert!(cycles >= last, "n = {n}, k = {k}: {cycles} < {last}");
                last = cycles;
            }
        }
    }

    #[test]
    fn sort_passes_follow_the_bitonic_top_k() {
        // 300 rows keeping 10: 16 passes sort runs of 16 over all rows,
        // then 4 passes per round over 150, 75, 38 and 19 rows, the last
        // round halving to one run of 10.
        let mut want = vec![300; 16];
        for m in [150, 75, 38, 19, 10] {
            want.extend([m; 4]);
        }
        assert_eq!(sort_passes(300, Some(10)), want);
        assert_eq!(
            sort_passes(300, Some(0)),
            vec![300, 150, 75, 38, 19, 10, 5, 3, 2]
        );
        assert_eq!(sort_passes(300, None), vec![300; 81]);
        assert_eq!(sort_passes(1, Some(0)), vec![1]);
    }
}
