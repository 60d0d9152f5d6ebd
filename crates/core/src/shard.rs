//! Multi-device sharding and the one stage loop (`run_pool`) every query
//! runs through — a single-device query as a one-device pool: split the
//! driving relation into per-shard tile streams, run each shard's
//! `SegmentIr` launch on a device of a simulated heterogeneous pool, and
//! merge the blocking-terminal state deterministically.
//!
//! The shard/merge seam exploits two structural facts of the engine:
//!
//! * **Builds are key-unique.** Every TPC-H build side here is a
//!   key–FK join ([`SimHashTable::insert`] panics on duplicates), so
//!   the union of disjoint shard builds ([`SimHashTable::absorb`]) is
//!   exactly the unsharded table — probes cannot tell the difference.
//! * **Aggregates are commutative monoids.** [`AggKind::combine`](crate::ht::AggKind::combine)
//!   merges partial accumulators group-by-group in `BTreeMap` order,
//!   so merged state is independent of shard completion order.
//!
//! The final `ORDER BY` (or the canonical full-row sort) then fixes
//! row order, making sharded output bit-identical to the single-device
//! oracle for every shard count — the invariant
//! `tests/shard_equivalence.rs` pins.
//!
//! Devices simulate independently (one `Simulator` each, sharing the
//! immutable `Arc<TpchDb>`); `run_pool` states the cost model. Heterogeneous
//! CPU/GPU placement (He et al., arXiv:1307.1955) picks, per stage, the
//! device class whose Eq. 8 estimate is lowest — `gpl_model`'s
//! placement pass produces the [`ShardAssignment`] consumed here.

use crate::error::ExecError;
use crate::exec::{
    attempt_stage, estimate_build_rows, run_pair_fused, run_sort_kernel, run_stage_checkpointed,
    Blocking, ExecContext, ExecLimits, ExecMode, HtCache, QueryConfig, StageOut, StageRun,
};
use crate::ht::{GroupStore, SimHashTable};
use crate::ops::sort_rows;
use crate::plan::{PlanError, QueryPlan, Terminal};
use crate::recover::{self, Ladder, RecoveryPolicy, RecoveryStats, Spent};
use crate::segment::{overlap_pairs, ConfigError, InterSegmentEdge, SegmentIr};
use gpl_sim::{DeviceSpec, FaultPlan, FaultSpec, LaunchProfile, Vendor};
use gpl_tpch::{QueryOutput, TpchDb};
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// Coarse device class used for placement and shard scheduling: shards
/// of a stage run on devices of the *same* class so per-shard tuned
/// configs stay meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    Gpu,
    Cpu,
}

impl DeviceKind {
    /// The class of a device profile: [`Vendor::Cpu`] is a CPU, every
    /// other vendor a GPU.
    pub fn of(spec: &DeviceSpec) -> Self {
        match spec.vendor {
            Vendor::Cpu => DeviceKind::Cpu,
            Vendor::Amd | Vendor::Nvidia => DeviceKind::Gpu,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Gpu => "gpu",
            DeviceKind::Cpu => "cpu",
        }
    }
}

/// One device of the pool.
#[derive(Debug, Clone)]
pub struct PoolDevice {
    pub spec: DeviceSpec,
}

impl PoolDevice {
    /// The device's class, derived from its profile's vendor.
    pub fn kind(&self) -> DeviceKind {
        DeviceKind::of(&self.spec)
    }
}

/// A fixed, ordered set of simulated devices. Order is part of the
/// contract: shard→device assignment, merge order, and telemetry keys
/// all index into it, so two pools with the same devices in the same
/// order behave identically.
#[derive(Debug, Clone)]
pub struct DevicePool {
    devices: Vec<PoolDevice>,
}

impl DevicePool {
    pub fn new(devices: Vec<PoolDevice>) -> Self {
        assert!(!devices.is_empty(), "a pool needs at least one device");
        let mut names: Vec<&str> = devices.iter().map(|d| d.spec.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), devices.len(), "duplicate device names");
        DevicePool { devices }
    }

    /// The reference heterogeneous pool: both GPU classes of the paper
    /// plus the host-CPU profile.
    pub fn default_pool() -> Self {
        DevicePool::new(vec![
            PoolDevice {
                spec: gpl_sim::amd_a10(),
            },
            PoolDevice {
                spec: gpl_sim::nvidia_k40(),
            },
            PoolDevice {
                spec: gpl_sim::cpu_host(),
            },
        ])
    }

    pub fn devices(&self) -> &[PoolDevice] {
        &self.devices
    }

    pub fn len(&self) -> usize {
        self.devices.len()
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// Stable cache-key component: device names in pool order.
    pub fn key(&self) -> String {
        self.devices
            .iter()
            .map(|d| d.spec.name.as_str())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// The `ExecMode`-orthogonal sharding decision carried in plan-cache
/// keys: the driving relation splits into `shards` contiguous, balanced
/// row ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    pub shards: usize,
}

impl ShardPlan {
    /// The degenerate single-shard plan (still runs through the pool).
    pub fn single() -> Self {
        ShardPlan { shards: 1 }
    }

    pub fn range(shards: usize) -> Self {
        ShardPlan { shards }
    }

    /// Split `rows` into one contiguous range per shard, in order: the
    /// first `rows % shards` ranges take one row more, and a shard past
    /// the last row gets an empty range. Zero shards split as one
    /// (`run_pool` rejects them before anything runs). Totality and
    /// disjointness for arbitrary inputs are property-tested in
    /// `tests/property_invariants.rs`.
    pub fn partition(&self, rows: usize) -> Vec<Range<usize>> {
        let shards = self.shards.max(1);
        let (q, r) = (rows / shards, rows % shards);
        let mut start = 0;
        (0..shards)
            .map(|i| {
                let len = q + usize::from(i < r);
                start += len;
                start - len..start
            })
            .collect()
    }

    /// Stable plan-cache key component, e.g. `range:4`.
    pub fn cache_key(&self) -> String {
        format!("range:{}", self.shards)
    }
}

/// Per-stage device placement plus per-device searched configs — the
/// output of `gpl_model`'s placement pass (or a hand-rolled test
/// assignment). `stage_device[s]` anchors stage `s` on a pool device;
/// shards of the stage round-robin over live devices of the anchor's
/// *class*, each using its own device's `configs` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAssignment {
    /// Pool-device index per plan stage.
    pub stage_device: Vec<usize>,
    /// One tuned `QueryConfig` per pool device (pool order).
    pub configs: Vec<QueryConfig>,
}

impl ShardAssignment {
    /// Everything on device 0 with default configs — the no-model
    /// baseline assignment.
    pub fn default_for(pool: &DevicePool, plan: &QueryPlan) -> Self {
        ShardAssignment {
            stage_device: vec![0; plan.stages.len()],
            configs: pool
                .devices()
                .iter()
                .map(|d| QueryConfig::default_for(&d.spec, plan))
                .collect(),
        }
    }

    /// Stages dealt round-robin across the pool with default configs —
    /// exercises every device class without a model in the loop (the
    /// differential tests' assignment).
    pub fn round_robin(pool: &DevicePool, plan: &QueryPlan) -> Self {
        let mut a = Self::default_for(pool, plan);
        for (i, d) in a.stage_device.iter_mut().enumerate() {
            *d = i % pool.len();
        }
        a
    }

    /// Stable cache-key component: anchor indices in stage order.
    pub fn key(&self) -> String {
        self.stage_device
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// A seeded fault recipe: the [`FaultSpec`] every plan is built from
/// and the seed they draw from. A pool run attaches one plan per device
/// ([`ShardFaults::attach`]); a server re-seeds it per request
/// ([`ShardFaults::for_request`]) and re-exports it as
/// `gpl_serve::FaultConfig`.
#[derive(Debug, Clone)]
pub struct ShardFaults {
    pub spec: FaultSpec,
    pub seed: u64,
}

/// `seed` with `i` mixed in by a φ64 multiply (splitmix-style), so
/// nearby `i` draw uncorrelated PCG streams.
fn mix_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl ShardFaults {
    /// The recipe as request `id` draws it: the seed with `id` mixed
    /// in, so a request's fault schedule is a pure function of (seed,
    /// id) — independent of worker count and arrival order.
    pub fn for_request(&self, id: u64) -> ShardFaults {
        ShardFaults {
            spec: self.spec.clone(),
            seed: mix_seed(self.seed, id),
        }
    }

    /// Attach one fault plan per pool device, `ctxs` in pool order. On a
    /// pool of more than one device, device `i` draws `seed` with its
    /// index mixed in; a lone device draws `seed` unmixed. The mix only
    /// decorrelates the devices of one query, and a lone device has
    /// nothing to decorrelate from.
    pub fn attach(&self, ctxs: &mut [ExecContext]) {
        let mixed = ctxs.len() > 1;
        for (i, ctx) in ctxs.iter_mut().enumerate() {
            let seed = if mixed {
                mix_seed(self.seed, i as u64 + 1)
            } else {
                self.seed
            };
            ctx.sim
                .attach_faults(FaultPlan::new(self.spec.clone(), seed));
        }
    }
}

/// Straggler-hedging policy for a sharded run (DESIGN.md §11):
/// modeled per-stage per-device cycle estimates plus a lateness
/// threshold. A shard whose observed cycles exceed the *whole stage's*
/// modeled cost on its device times `threshold` is treated as a
/// straggler: a speculative backup launches on the modeled-cheapest
/// other live device, the first *verified* finisher wins, and the
/// loser's clock is capped at the winner's finish. The deadline is
/// deliberately not scaled down to the shard's row fraction — a shard
/// is a fraction of its stage, so one that exceeds the full stage's
/// model is pathological (slowdown window, retry storm) rather than
/// merely mis-modeled. Both attempts' blocking outputs must be
/// bit-identical — hedging trades duplicate cycles (charged against
/// [`ExecLimits`]) for tail latency, never correctness.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgePlan {
    /// `modeled[stage][device]`: modeled cycles for the whole stage on
    /// that pool device, pool order (`f64::INFINITY` = the device is
    /// not a candidate). Typically `gpl_model::hedge_plan` lifts this
    /// from a placement's estimate matrix.
    pub modeled: Vec<Vec<f64>>,
    /// Hedge once observed cycles exceed `modeled × frac × threshold`.
    /// Must be `>= 1`; larger values hedge later (fewer duplicate
    /// launches, longer tails survive).
    pub threshold: f64,
}

impl HedgePlan {
    /// The default lateness threshold: a shard 3× over its model is a
    /// straggler. Conservative enough that model error alone (bounded
    /// by the calibration gates at well under 2×) never trips it.
    pub const DEFAULT_THRESHOLD: f64 = 3.0;

    /// The rule every lateness threshold must meet: finite and at least
    /// 1, so no shard is hedged before its model says it can finish.
    pub fn check_threshold(threshold: f64) -> Result<(), String> {
        if threshold.is_finite() && threshold >= 1.0 {
            Ok(())
        } else {
            Err(format!(
                "hedge threshold must be finite and >= 1, got {threshold}"
            ))
        }
    }

    /// Panics on a threshold [`HedgePlan::check_threshold`] rejects.
    pub fn new(modeled: Vec<Vec<f64>>, threshold: f64) -> Self {
        Self::check_threshold(threshold).unwrap_or_else(|e| panic!("{e}"));
        HedgePlan { modeled, threshold }
    }
}

/// One device's view of a sharded run.
#[derive(Debug, Clone)]
pub struct DeviceRun {
    /// This device's final simulated clock: launches it ran, backoff it
    /// charged, and merge broadcasts it received.
    pub cycles: u64,
    /// Per plan stage, the profile of the parts this device ran for it:
    /// the first part's as launched, later parts merged into it
    /// (`LaunchProfile::default()` when it ran none); the final sort, if
    /// this device ran it, is appended as one extra entry. Positionally
    /// joinable against the stage models, like `QueryRun::per_stage`.
    pub per_stage: Vec<LaunchProfile>,
}

/// The result of a sharded pool run.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    pub output: QueryOutput,
    /// Observed simulated cycles for the whole query: the sum over
    /// stages of the *maximum* per-device clock advance (devices run
    /// concurrently; shards on one device serialize), plus merge
    /// broadcasts and the final sort.
    pub cycles: u64,
    /// Wall cycles per plan stage (the max-over-devices terms; a fused
    /// pair's one wall is its build stage's, its probe stage's is 0), with
    /// the final sort appended when the plan orders.
    pub stage_cycles: Vec<u64>,
    pub per_device: Vec<DeviceRun>,
    pub recovery: RecoveryStats,
}

/// Run `plan` sharded across `pool` under `mode`, with rows bit-identical
/// to the single-device engine (DESIGN.md §10: cost model, the three
/// rules): [`run_pool`] over one fresh context per pool device. Faults,
/// when configured, inject per device ([`ShardFaults::attach`]).
/// `excluded` is [`run_pool`]'s; `hedge` arms straggler defense (see
/// [`HedgePlan`]).
#[allow(clippy::too_many_arguments)]
pub fn try_run_query_sharded(
    pool: &DevicePool,
    db: &Arc<TpchDb>,
    plan: &QueryPlan,
    mode: ExecMode,
    shard: &ShardPlan,
    assignment: &ShardAssignment,
    limits: &ExecLimits,
    recovery: Option<&RecoveryPolicy>,
    faults: Option<&ShardFaults>,
    hedge: Option<&HedgePlan>,
    excluded: Option<&[bool]>,
) -> Result<ShardedRun, ExecError> {
    let new_ctx = |d: &PoolDevice| ExecContext::with_shared(d.spec.clone(), db.clone());
    let mut ctxs: Vec<ExecContext> = pool.devices().iter().map(new_ctx).collect();
    if let Some(f) = faults {
        f.attach(&mut ctxs);
    }
    let spec = RunSpec {
        plan,
        mode,
        shard,
        anchors: &assignment.stage_device,
        configs: &assignment.configs,
        limits,
        recovery,
        hedge,
    };
    run_pool(&mut ctxs, &spec, excluded.unwrap_or_default(), None).map(|(run, _)| run)
}

/// What one query asks of a device pool: the borrowed, immutable inputs
/// every stage shares.
pub struct RunSpec<'a> {
    pub plan: &'a QueryPlan,
    pub mode: ExecMode,
    pub shard: &'a ShardPlan,
    /// Pool-device index per plan stage.
    pub anchors: &'a [usize],
    /// One config per pool device.
    pub configs: &'a [QueryConfig],
    pub limits: &'a ExecLimits,
    pub recovery: Option<&'a RecoveryPolicy>,
    pub hedge: Option<&'a HedgePlan>,
}

/// The one stage loop, behind every entry point: run `spec` over `ctxs`,
/// one context per pool device, and return the run plus every launch
/// merged in order (`QueryRun::profile`). `excluded` (pool order) keeps
/// devices out of the run, as a caller's per-device breakers decide; it
/// is ignored when empty, of the wrong length, or when it would exclude
/// every device. `cache` keeps built tables across queries ([`HtCache`]).
/// Each stage splits into `spec.shard` parts, each run once down the
/// recovery ladder on a live device of its anchor's class, dealt round
/// the class in shard order (on any live device when `excluded` leaves
/// the class none); the parts' blocking state merges in shard order,
/// each part as it finishes; the stage's wall — the largest clock
/// advance over the devices, which run concurrently — adds to the
/// query's cycles, so a backoff or a channel stall counts once, where it
/// lands. Three rules follow from the
/// inputs, not from options:
///
/// 1. **Broadcast.** On a one-device pool a merged build table is
///    installed as it is; on a larger pool every live device gets a
///    [`SimHashTable::placed`] view of it, charged at its copy bandwidth.
/// 2. **Slice checkpoints.** [`RecoveryPolicy::checkpoint_slices`] split a
///    stage only when it runs as one shard: a shard already is a slice,
///    merged only on success, and slicing shards as well costs
///    `shard_chaos` 55 % more simulated cycles.
/// 3. **Pair fusion.** A `GplPipelined` build→probe pair with non-zero
///    `overlap_slices` fuses when both stages run as one shard on the same
///    live anchor; otherwise it runs as the sequential pair from GPL,
///    recorded as a fallback (`degraded_to = Some(Gpl)`).
///
/// A device's stage profile is its first part's profile as launched,
/// later parts merged into it. Spans go to `ctxs[0]`'s recorder, the
/// one a caller attaches a recorder to.
pub fn run_pool(
    ctxs: &mut [ExecContext],
    spec: &RunSpec,
    excluded: &[bool],
    mut cache: Option<&mut HtCache>,
) -> Result<(ShardedRun, LaunchProfile), ExecError> {
    let (plan, mode, n) = (spec.plan, spec.mode, ctxs.len());
    let alive = match excluded {
        ex if ex.len() == n && ex.contains(&false) => ex.iter().map(|&e| !e).collect(),
        _ => vec![true; n],
    };
    // The gate: a malformed plan, or configs and anchors that do not fit
    // the plan and the pool, are structured errors before anything runs.
    let stages = plan.stages.len();
    ConfigError::arity("device configs", n, spec.configs.len())
        .and_then(|()| ConfigError::arity("stage anchors", stages, spec.anchors.len()))
        .map_err(ExecError::InvalidConfig)?;
    plan.check().map_err(ExecError::InvalidPlan)?;
    (spec.configs.iter())
        .try_for_each(|c| ConfigError::arity("stage configs", stages, c.stages.len()))
        .map_err(ExecError::InvalidConfig)?;
    if let Some((stage, &device)) = spec.anchors.iter().enumerate().find(|(_, &d)| d >= n) {
        let anchor = ConfigError::Anchor {
            stage,
            device,
            devices: n,
        };
        return Err(ExecError::InvalidConfig(anchor));
    }
    if spec.shard.shards == 0 {
        return Err(ExecError::InvalidConfig(ConfigError::ZeroShards));
    }
    ctxs.iter_mut().for_each(|c| c.sim.reset_footprint());
    // Observability: one query span, with a child span per stage carrying
    // the chosen StageConfig. Timestamped in device cycles; gated on the
    // simulator's recorder so disabled runs pay a branch, not allocations.
    let rec = ctxs[0].sim.recorder().cloned();
    let query_span = rec.as_ref().map(|r| {
        let t = r.track("exec");
        let s = r.begin(t, "exec", plan.query.name(), ctxs[0].sim.clock());
        r.arg(s, "mode", mode.name());
        r.arg(s, "stages", plan.stages.len());
        s
    });
    let mut d = Driver {
        spec,
        ctxs,
        alive,
        rec,
        hts: vec![vec![None; plan.num_hts]; n],
        agg: None,
        per_stage: vec![Vec::new(); n],
        merged: LaunchProfile::default(),
        stats: RecoveryStats::default(),
        primary: 0,
    };
    let pairs = overlap_pairs(&plan.stages);
    let (mut total, mut stage_cycles) = (0u64, Vec::new());
    // Through this stage, a pair that did not fuse runs from GPL.
    let mut sequential_until = None;
    let mut idx = 0;
    while idx < plan.stages.len() {
        spec.limits.check(total)?;
        let spent = Spent {
            walls: total,
            wasted0: d.stats.wasted_cycles,
        };
        let c_start: Vec<u64> = d.ctxs.iter().map(|c| c.sim.clock()).collect();
        let wall = |d: &Driver| {
            (d.ctxs.iter().zip(&c_start))
                .map(|(c, &s)| c.sim.clock().saturating_sub(s))
                .max()
                .unwrap_or(0)
        };
        let anchor = spec.anchors[idx];
        let pair = pairs.iter().find(|p| {
            let knob = spec.configs[anchor].stages[idx].overlap_slices;
            mode == ExecMode::GplPipelined && p.build_stage == idx && knob > 0
        });
        if let Some(pair) = pair {
            let fusable = spec.shard.shards == 1
                && spec.anchors[pair.probe_stage] == anchor
                && d.alive[anchor];
            if fusable && d.run_fused(pair, spent)? {
                // One launch, one wall: charged to the build stage.
                stage_cycles.extend([wall(&d), 0]);
                total += stage_cycles[idx];
                idx += 2;
                continue;
            }
            d.stats.fallbacks += 1;
            d.stats.degraded_to = Some(ExecMode::Gpl);
            let to = gpl_obs::Value::from("GPL (sequential pair)");
            recover::instant(&d.ctxs[anchor], "fallback", vec![("to", to)]);
            sequential_until = Some(pair.probe_stage);
        }
        let from_gpl = sequential_until.is_some_and(|p| idx <= p);
        let stage_mode = if from_gpl { ExecMode::Gpl } else { mode };
        d.run_stage(idx, stage_mode, spent, cache.as_deref_mut())?;
        stage_cycles.push(wall(&d));
        total += stage_cycles[idx];
        idx += 1;
    }

    let no_agg = ExecError::InvalidPlan(PlanError::NoAggregate);
    let mut rows = d.agg.take().ok_or(no_agg)?.into_rows();
    // The budget is checked before and after the final sort: a query
    // landing *exactly* on its budget passes (`spent > budget` times out),
    // the boundary `tests/failure_modes.rs` pins.
    spec.limits.check(total)?;
    if plan.order_by.is_empty() {
        sort_rows(&mut rows, &[]); // the canonical full-row order
    } else {
        // The sort runs on the final stage's primary device.
        let primary = d.primary;
        let prof = run_sort_kernel(&mut d.ctxs[primary], &mut rows, &plan.order_by, plan.limit);
        total += prof.elapsed_cycles;
        spec.limits.check(total)?;
        stage_cycles.push(prof.elapsed_cycles);
        d.merged.merge(&prof);
        d.per_stage[primary].push(prof);
    }
    if let (Some(r), Some(s)) = (d.rec.as_ref(), query_span) {
        r.arg(s, "cycles", d.merged.elapsed_cycles);
        if d.stats.eventful() {
            r.arg(s, "faults", d.stats.faults.len());
            r.arg(s, "retries", d.stats.retries);
            r.arg(s, "fallbacks", d.stats.fallbacks);
            r.arg(s, "wasted_cycles", d.stats.wasted_cycles);
        }
        r.end(s, d.ctxs[0].sim.clock());
    }
    let per_device = (d.ctxs.iter().zip(d.per_stage))
        .map(|(c, per_stage)| DeviceRun {
            cycles: c.sim.clock(),
            per_stage,
        })
        .collect();
    let run = ShardedRun {
        output: plan.output(rows),
        cycles: total,
        stage_cycles,
        per_device,
        recovery: d.stats,
    };
    Ok((run, d.merged))
}

/// [`run_pool`]'s state between stages; vectors are per pool device.
struct Driver<'a> {
    spec: &'a RunSpec<'a>,
    ctxs: &'a mut [ExecContext],
    /// The devices `excluded` left in the run; fixed for the query.
    alive: Vec<bool>,
    rec: Option<gpl_obs::Recorder>,
    /// The tables built so far, as each device holds them.
    hts: Vec<Vec<Option<Rc<RefCell<SimHashTable>>>>>,
    agg: Option<GroupStore>,
    /// Each device's profile per plan stage, plus the sort.
    per_stage: Vec<Vec<LaunchProfile>>,
    merged: LaunchProfile,
    stats: RecoveryStats,
    /// The latest stage's primary device (its anchor unless excluded);
    /// the sort runs there.
    primary: usize,
}

impl Driver<'_> {
    fn kind(&self, d: usize) -> DeviceKind {
        DeviceKind::of(self.ctxs[d].sim.spec())
    }

    /// Install a stage's merged blocking state (rule 1 of [`run_pool`]).
    fn install(&mut self, out: Blocking) {
        match out {
            Blocking::Build(slot, t) if self.ctxs.len() == 1 => {
                self.hts[0][slot] = Some(Rc::new(RefCell::new(t)));
            }
            Blocking::Build(slot, t) => {
                let name = self.spec.plan.query.name();
                for d in (0..self.ctxs.len()).filter(|&d| self.alive[d]) {
                    let sim = &mut self.ctxs[d].sim;
                    let view = t.placed(&mut sim.mem, format!("{name}::ht{slot}@{d}"));
                    let bw = broadcast_bandwidth(sim.spec());
                    sim.advance(view.bytes() / bw + 64);
                    self.hts[d][slot] = Some(Rc::new(RefCell::new(view)));
                }
            }
            Blocking::Agg(store) => self.agg = Some(store),
        }
    }

    /// Book one stage: every device's profile (the default where it ran
    /// no part), each merged into the query's.
    fn record(&mut self, profiles: Vec<Option<LaunchProfile>>) {
        for (books, p) in self.per_stage.iter_mut().zip(profiles) {
            let p = p.unwrap_or_default();
            self.merged.merge(&p);
            books.push(p);
        }
    }

    /// An eligible pair as one fused launch on its anchor; `false` when
    /// the fused rung is exhausted and the pair must run sequentially.
    fn run_fused(&mut self, pair: &InterSegmentEdge, spent: Spent) -> Result<bool, ExecError> {
        let a = self.spec.anchors[pair.build_stage];
        let (ctx, hts) = (&mut self.ctxs[a], &self.hts[a]);
        let fused = run_pair_fused(ctx, self.spec, a, pair, hts, spent, &mut self.stats)?;
        let Some((profile, outs)) = fused else {
            return Ok(false);
        };
        self.primary = a;
        outs.into_iter().for_each(|out| self.install(out));
        self.merged.merge(&profile);
        // Split back into per-stage views by segment tag, so `per_stage`
        // keeps one entry per stage.
        let mut split = Some(profile.split_by_segment(&[0, 1]));
        for (d, books) in self.per_stage.iter_mut().enumerate() {
            let views = split.take_if(|_| d == a);
            books.extend(views.unwrap_or_else(|| vec![LaunchProfile::default(); 2]));
        }
        Ok(true)
    }

    /// One stage under `mode`: the hash-table cache, then every part on
    /// its device (hedged when it straggles), then the merge.
    fn run_stage(
        &mut self,
        idx: usize,
        mode: ExecMode,
        spent: Spent,
        cache: Option<&mut HtCache>,
    ) -> Result<(), ExecError> {
        let (spec, n) = (self.spec, self.ctxs.len());
        let stage = &spec.plan.stages[idx];
        let db = Arc::clone(&self.ctxs[0].db);
        let table = db.table(&stage.driver);
        let mut built = None;
        if let (Some(c), Terminal::HashBuild { ht, .. }) = (cache, &stage.terminal) {
            let (s, rows) = (stage, table.rows());
            let key = format!(
                "{}#{rows}:{:?}:{:?}:{:?}",
                s.driver, s.loads, s.ops, s.terminal
            );
            if let Some(kept) = c.tables.get(&key) {
                c.cache_hits += 1;
                self.hts
                    .iter_mut()
                    .for_each(|h| h[*ht] = Some(kept.clone()));
                self.record(vec![None; n]);
                return Ok(());
            }
            c.cache_misses += 1;
            built = Some((c, key, *ht));
        }
        // Per-device lowering: the IR depends on the wavefront size.
        let irs: Vec<SegmentIr> = (self.ctxs.iter())
            .map(|c| SegmentIr::lower(stage, table, c.sim.spec().wavefront_size))
            .collect();

        // Devices eligible for this stage: live devices of the anchor's
        // class, anchor first; any live device if the class is excluded.
        // `run_pool` leaves at least one device live.
        let anchor = spec.anchors[idx];
        let mut class: Vec<usize> = (0..n)
            .filter(|&d| self.alive[d] && self.kind(d) == self.kind(anchor))
            .collect();
        if class.is_empty() {
            class = (0..n).filter(|&d| self.alive[d]).collect();
        }
        if let Some(pos) = class.iter().position(|&d| d == anchor) {
            class.rotate_left(pos);
        }
        let primary = class[0];
        self.primary = primary;

        let stage_span = self.rec.as_ref().map(|r| {
            let cfg = &spec.configs[primary].stages[idx];
            let t = r.track("exec");
            let name = format!("stage{idx}:{}", irs[primary].driver);
            let s = r.begin(t, "stage", name, self.ctxs[primary].sim.clock());
            r.arg(s, "tile_bytes", cfg.tile_bytes);
            r.arg(s, "n_channels", cfg.n_channels);
            r.arg(s, "packet_bytes", cfg.packet_bytes);
            r.arg(s, "kernels", irs[primary].nodes.len());
            s
        });

        let parts = spec.shard.partition(table.rows());
        // Rule 2 of `run_pool`: only a one-shard stage is sliced.
        let slices = match spec.recovery {
            Some(p) if spec.shard.shards == 1 => p.checkpoint_slices,
            _ => 0,
        };
        // One build estimate for every part, retry, backup and slice.
        let build_rows = estimate_build_rows(&db, stage);
        let stage_run = |device: usize| StageRun {
            spec,
            device,
            idx,
            ir: &irs[device],
            hts: &self.hts[device],
            spent,
            build_rows,
        };
        let mut profiles: Vec<Option<LaunchProfile>> = vec![None; n];
        // The parts' blocking-terminal state, merged in shard order as
        // each part's race resolves; aggregate stores gather onto the
        // primary device.
        let mut merged: Option<Blocking> = None;
        let mut gathered = 0;
        let mut ran_on = mode;

        for (si, part) in parts.iter().enumerate() {
            let mut wdev = class[si % class.len()];
            let (p0, run) = (self.ctxs[wdev].sim.clock(), stage_run(wdev));
            let ctx = &mut self.ctxs[wdev];
            let (mut out, m) = run_part(ctx, &run, mode, part.clone(), slices, &mut self.stats)?;
            ran_on = if m != mode { m } else { ran_on };
            let observed = ctx.sim.clock().saturating_sub(p0);

            // Straggler hedging (see `HedgePlan`): the race resolves in
            // modeled-parallel time — the backup launches when the primary
            // crossed its deadline — and the loser's clock is capped at the
            // winner's finish. Duplicate cycles land in `wasted_cycles`.
            if let Some(h) = spec.hedge {
                let modeled_row = h.modeled.get(idx);
                let modeled = |d: usize| modeled_row.and_then(|row| row.get(d).copied());
                let modeled_p = modeled(wdev).unwrap_or(f64::INFINITY);
                let deadline = modeled_p * h.threshold;
                let late = !part.is_empty() && modeled_p.is_finite() && observed as f64 > deadline;
                let backup = (0..n)
                    .filter(|&d| late && d != wdev && self.alive[d])
                    .filter_map(|d| modeled(d).filter(|m| m.is_finite()).map(|m| (d, m)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .filter(|&(_, m)| {
                        let budget = spec.limits.max_cycles;
                        budget.is_none_or(|b| spent.at(&self.stats) + m.ceil() as u64 <= b)
                    });
                if let Some((b, _)) = backup {
                    self.stats.hedges += 1;
                    let (run_b, ctx) = (stage_run(b), &mut self.ctxs[b]);
                    let b0 = ctx.sim.clock();
                    let part = part.clone();
                    let hedged = run_part(ctx, &run_b, mode, part, slices, &mut self.stats);
                    let d_backup = ctx.sim.clock().saturating_sub(b0);
                    match hedged {
                        Ok((bout, _)) => {
                            let launch = deadline.ceil() as u64;
                            // Verified first finisher: both attempts'
                            // blocking outputs must be bit-identical
                            // before either may win.
                            assert_eq!(
                                out.1.fingerprint(),
                                bout.1.fingerprint(),
                                "hedged backup diverged from primary"
                            );
                            if launch + d_backup < observed {
                                // Backup wins: cancel the straggling
                                // primary at the backup's finish.
                                self.stats.hedge_wins += 1;
                                let sim = &mut self.ctxs[wdev].sim;
                                sim.cap_clock(p0 + launch + d_backup);
                                self.stats.wasted_cycles += sim.clock().saturating_sub(p0);
                                (wdev, out) = (b, bout);
                            } else {
                                // Primary wins: cancel the backup at the
                                // primary's finish.
                                let spent_b = d_backup.min(observed.saturating_sub(launch));
                                self.ctxs[b].sim.cap_clock(b0 + spent_b);
                                self.stats.wasted_cycles += spent_b;
                            }
                        }
                        Err(e @ (ExecError::Timeout { .. } | ExecError::Cancelled)) => {
                            return Err(e)
                        }
                        // Any other backup failure leaves the verified
                        // primary standing.
                        Err(_) => self.stats.wasted_cycles += d_backup,
                    }
                }
            }

            let (profile, blocking) = out;
            match profiles[wdev].as_mut() {
                Some(acc) => acc.merge(&profile),
                None => profiles[wdev] = Some(profile),
            }
            match merged.as_mut() {
                Some(acc) => {
                    if let Blocking::Agg(s) = &blocking {
                        gathered += s.bytes();
                    }
                    acc.absorb(blocking);
                }
                None => merged = Some(blocking),
            }
        }

        // `run_pool` refused zero shards, and a partition has one range
        // per shard.
        let merged = merged.ok_or(ExecError::InvalidConfig(ConfigError::ZeroShards))?;
        if let Blocking::Agg(_) = merged {
            let sim = &mut self.ctxs[primary].sim;
            sim.advance(gathered / broadcast_bandwidth(sim.spec()));
        }
        self.install(merged);
        if let Some((c, key, ht)) = built {
            let kept = self.hts[primary][ht].clone().expect("just installed");
            c.tables.insert(key, kept);
        }
        if let (Some(r), Some(s)) = (self.rec.as_ref(), stage_span) {
            if ran_on != mode {
                r.arg(s, "degraded_to", ran_on.name());
            }
            let cycles = profiles[primary].as_ref().map_or(0, |p| p.elapsed_cycles);
            r.arg(s, "stage_cycles", cycles);
            r.end(s, self.ctxs[primary].sim.clock());
        }
        self.record(profiles);
        Ok(())
    }
}

/// Device-level copy bandwidth used to charge merge broadcasts/gathers:
/// the per-CU miss-path stream rate times the CU count.
fn broadcast_bandwidth(spec: &DeviceSpec) -> u64 {
    (spec.mem_bytes_per_cycle * spec.num_cus as u64).max(1)
}

/// One part of a stage on one device, down the recovery ladder on its
/// clock — as that many checkpoint `slices` when 2 or more.
fn run_part(
    ctx: &mut ExecContext,
    run: &StageRun,
    mode: ExecMode,
    part: Range<usize>,
    slices: u32,
    stats: &mut RecoveryStats,
) -> Result<(StageOut, ExecMode), ExecError> {
    let (policy, limits) = (run.spec.recovery, run.spec.limits);
    let ladder = Ladder::new(policy, mode, limits, run.spent);
    if slices >= 2 {
        return run_stage_checkpointed(ctx, run, mode, &ladder, part, slices, stats);
    }
    let attempt = |ctx: &mut ExecContext, m| attempt_stage(ctx, run, m, part.clone());
    ladder.run(ctx, stats, attempt, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_partition_is_balanced_total_disjoint() {
        let parts = ShardPlan::range(3).partition(10);
        assert_eq!(parts, vec![0..4, 4..7, 7..10]);
        assert!(ShardPlan::range(7).partition(2)[2..]
            .iter()
            .all(|r| r == &(2..2)));
        assert_eq!(ShardPlan::range(4).partition(0), vec![0..0; 4]);
    }

    #[test]
    fn pool_keys_and_cache_keys_are_stable() {
        let pool = DevicePool::default_pool();
        assert_eq!(pool.key(), "AMD A10 APU+NVIDIA Tesla K40+Host CPU x86");
        assert_eq!(ShardPlan::range(4).cache_key(), "range:4");
        assert_eq!(ShardPlan::single().cache_key(), "range:1");
    }
}
