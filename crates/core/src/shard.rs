//! Multi-device sharding: split the driving relation into per-shard
//! tile streams, run each shard's `SegmentIr` launch on a device of a
//! simulated heterogeneous pool, and merge the blocking-terminal state
//! deterministically.
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
//! Cost model of the pool: devices simulate independently (one
//! `Simulator` each, sharing the immutable `Arc<TpchDb>`); shards
//! assigned to the same device serialize on its clock; a stage's wall
//! time is the *maximum* per-device clock advance, since devices run
//! concurrently; merged build state is broadcast to every live device
//! at its copy bandwidth before the next stage probes it. Heterogeneous
//! CPU/GPU placement (He et al., arXiv:1307.1955) picks, per stage, the
//! device class whose Eq. 8 estimate is lowest — `gpl_model`'s
//! placement pass produces the [`ShardAssignment`] consumed here.

use crate::error::ExecError;
use crate::exec::{
    attempt_stage, check_inputs, finish_query, Blocking, ExecContext, ExecLimits, ExecMode,
    QueryConfig, RunSpec, StageOut, StageRun,
};
use crate::ht::{mix64, GroupStore, SimHashTable};
use crate::plan::{PlanError, QueryPlan, Terminal};
use crate::recover::{Ladder, LastResort, RecoveryPolicy, RecoveryStats};
use crate::segment::{ConfigError, SegmentIr};
use gpl_sim::{DeviceSpec, FaultPlan, FaultSpec, LaunchProfile};
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
    pub kind: DeviceKind,
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
                kind: DeviceKind::Gpu,
            },
            PoolDevice {
                spec: gpl_sim::nvidia_k40(),
                kind: DeviceKind::Gpu,
            },
            PoolDevice {
                spec: gpl_sim::cpu_host(),
                kind: DeviceKind::Cpu,
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

/// How the driving relation splits into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sharder {
    /// Contiguous balanced row ranges (one range per shard).
    Range,
    /// Fixed-size row blocks dealt to shards by a key mix of the block
    /// index — models hash partitioning's skew tolerance while staying
    /// a pure function of (rows, shards).
    Hash { block_rows: usize },
}

impl Sharder {
    /// Split `rows` into `shards` disjoint, covering range lists —
    /// shard `i` scans exactly the ranges of `partition(..)[i]`, in
    /// order. Total/disjointness for arbitrary inputs is property-
    /// tested in `tests/property_invariants.rs`.
    pub fn partition(&self, rows: usize, shards: usize) -> Vec<Vec<Range<usize>>> {
        let shards = shards.max(1);
        let mut parts = vec![Vec::new(); shards];
        match self {
            Sharder::Range => {
                let q = rows / shards;
                let r = rows % shards;
                let mut start = 0;
                for (i, p) in parts.iter_mut().enumerate() {
                    let len = q + usize::from(i < r);
                    if len > 0 {
                        p.push(start..start + len);
                    }
                    start += len;
                }
            }
            Sharder::Hash { block_rows } => {
                let block = (*block_rows).max(1);
                let mut b = 0;
                while b * block < rows {
                    let range = b * block..((b + 1) * block).min(rows);
                    let s = (mix64(b as u64) % shards as u64) as usize;
                    // Coalesce blocks that land adjacently in one shard.
                    match parts[s].last_mut() {
                        Some(last) if last.end == range.start => last.end = range.end,
                        _ => parts[s].push(range),
                    }
                    b += 1;
                }
            }
        }
        parts
    }

    /// Stable cache-key component.
    pub fn key(&self) -> String {
        match self {
            Sharder::Range => "range".to_string(),
            Sharder::Hash { block_rows } => format!("hash{block_rows}"),
        }
    }
}

/// The `ExecMode`-orthogonal sharding decision carried in plan-cache
/// keys: how many shards, split how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    pub shards: usize,
    pub sharder: Sharder,
}

impl ShardPlan {
    /// The degenerate single-shard plan (still runs through the pool).
    pub fn single() -> Self {
        ShardPlan {
            shards: 1,
            sharder: Sharder::Range,
        }
    }

    pub fn range(shards: usize) -> Self {
        ShardPlan {
            shards,
            sharder: Sharder::Range,
        }
    }

    /// Stable plan-cache key component, e.g. `range:4`.
    pub fn cache_key(&self) -> String {
        format!("{}:{}", self.sharder.key(), self.shards)
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

/// Fault-injection configuration for a sharded run: one seeded plan per
/// device, derived from `seed` and the pool index so per-device fault
/// streams are independent but reproducible.
#[derive(Debug, Clone)]
pub struct ShardFaults {
    pub spec: FaultSpec,
    pub seed: u64,
}

const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl ShardFaults {
    /// The per-device fault seed (device pool index mixed in).
    pub fn seed_for(&self, device: usize) -> u64 {
        self.seed ^ (device as u64 + 1).wrapping_mul(SEED_MIX)
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

    pub fn new(modeled: Vec<Vec<f64>>, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 1.0,
            "hedge threshold must be finite and >= 1, got {threshold}"
        );
        HedgePlan { modeled, threshold }
    }
}

/// One device's view of a sharded run.
#[derive(Debug, Clone)]
pub struct DeviceRun {
    /// `DeviceSpec::name` of the pool device.
    pub device: String,
    pub kind: DeviceKind,
    /// This device's final simulated clock: launches it ran, backoff it
    /// charged, and merge broadcasts it received.
    pub cycles: u64,
    /// Per plan stage, the merged profile of the shard launches this
    /// device ran for that stage (`LaunchProfile::default()` when it
    /// did not participate); the final sort, if this device ran it, is
    /// appended as one extra entry. Positionally joinable against the
    /// stage models, like `QueryRun::per_stage`.
    pub per_stage: Vec<LaunchProfile>,
    /// Whether the device was lost to a sticky fault during the run.
    pub lost: bool,
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
    /// Wall cycles per plan stage (the max-over-devices terms), with
    /// the final sort appended when the plan orders.
    pub stage_cycles: Vec<u64>,
    pub per_device: Vec<DeviceRun>,
    pub recovery: RecoveryStats,
}

impl ShardedRun {
    /// FNV-1a over the result rows — same digest shape as the serve
    /// report and bench artifacts.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(&(self.output.rows.len() as u64).to_le_bytes());
        for row in &self.output.rows {
            for v in row {
                mix(&v.to_le_bytes());
            }
        }
        h
    }
}

/// Run `plan` sharded across `pool` under `mode`.
///
/// Shards execute sequentially on the host (the simulation is
/// deterministic regardless of serve worker count); concurrency across
/// devices is modeled by the per-stage max-over-devices wall. Faults,
/// when configured, inject per device with independent seeded streams;
/// a shard whose device suffers a sticky loss is reassigned to the
/// next live device (same class first), falling back to a disarmed KBE
/// attempt on the last candidate when the pool is exhausted — rows
/// stay bit-identical throughout, mirroring the single-device ladder.
///
/// Between stages the shards' blocking state merges once, on the host:
/// build tables fold into one by [`SimHashTable::absorb`] and every live
/// device gets a [`SimHashTable::placed`] view of it — its own region,
/// charged at its copy bandwidth, over the one shared content — while
/// aggregate stores fold by [`GroupStore::absorb`] onto the stage's
/// primary device. Neither merge depends on the order shards finished.
///
/// `excluded` (pool order) lets a caller with per-device breakers keep
/// a device out of admission; it is ignored when it would exclude
/// everything. `hedge` arms straggler defense: shards observed past
/// their modeled deadline get a speculative backup on the
/// modeled-cheapest other live device (see [`HedgePlan`]).
///
/// Two things the single-device driver does are deliberately absent
/// here, and this is the one place that says so. **Pair fusion:**
/// `GplPipelined` runs its stages per shard like `Gpl` — the cross-shard
/// merge is a barrier between stages, so there is no build→probe pair
/// left to fuse inside one shard launch. **Slice checkpoints:**
/// [`RecoveryPolicy::checkpoint_slices`] is ignored — a shard already is
/// a row-range slice of its stage with its own fresh outputs, merged
/// only on success, so a fault re-runs one shard, not the stage.
/// Honouring either (or skipping the merge broadcast on a one-device
/// pool) changes cycle counts the benchmark and `repro chaos` pin, which
/// is why this stage loop and the classic one are still two.
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
    let n = pool.len();
    let stages = plan.stages.len();
    ConfigError::arity("device configs", n, assignment.configs.len())
        .and_then(|()| ConfigError::arity("stage anchors", stages, assignment.stage_device.len()))
        .map_err(ExecError::InvalidConfig)?;
    check_inputs(plan, &assignment.configs)?;
    if let Some((stage, &device)) =
        (assignment.stage_device.iter().enumerate()).find(|(_, &d)| d >= n)
    {
        return Err(ExecError::InvalidConfig(ConfigError::Anchor {
            stage,
            device,
            devices: n,
        }));
    }
    let specs: Vec<RunSpec> = (assignment.configs.iter())
        .map(|config| RunSpec {
            plan,
            config,
            limits,
            recovery,
        })
        .collect();

    let mut ctxs: Vec<ExecContext> = pool
        .devices()
        .iter()
        .map(|d| ExecContext::with_shared(d.spec.clone(), db.clone()))
        .collect();
    if let Some(f) = faults {
        for (i, ctx) in ctxs.iter_mut().enumerate() {
            ctx.sim
                .attach_faults(FaultPlan::new(f.spec.clone(), f.seed_for(i)));
        }
    }

    let mut alive: Vec<bool> = match excluded {
        Some(ex) if ex.len() == n && ex.iter().any(|&e| !e) => ex.iter().map(|&e| !e).collect(),
        _ => vec![true; n],
    };
    // Per device, per plan stage (plus sort), the merged launch profile.
    let mut dev_stages: Vec<Vec<LaunchProfile>> = vec![Vec::new(); n];
    let mut hts: Vec<Vec<Option<Rc<RefCell<SimHashTable>>>>> = vec![vec![None; plan.num_hts]; n];
    let mut agg_store: Option<GroupStore> = None;
    let mut stats = RecoveryStats::default();
    let mut stage_cycles = Vec::new();
    let mut total = 0u64;
    let mut primary = assignment.stage_device[plan.stages.len() - 1];

    for (sidx, stage) in plan.stages.iter().enumerate() {
        limits.check(total + stats.wasted_cycles)?;
        let anchor = assignment.stage_device[sidx];
        let kind = pool.devices()[anchor].kind;
        // Devices eligible for this stage: live devices of the anchor's
        // class, anchor first; any live device if the class died out.
        let mut class: Vec<usize> = (0..n)
            .filter(|&d| alive[d] && pool.devices()[d].kind == kind)
            .collect();
        if class.is_empty() {
            class = (0..n).filter(|&d| alive[d]).collect();
        }
        let exhausted = class.is_empty();
        if exhausted {
            // Every device lost: the disarmed last resort runs on the
            // anchor, like the single-device ladder's hardened path.
            class = vec![anchor];
        }
        if let Some(pos) = class.iter().position(|&d| d == anchor) {
            class.rotate_left(pos);
        }
        primary = class[0];

        let rows = db.table(&stage.driver).rows();
        let parts = shard.sharder.partition(rows, shard.shards);
        let c_start: Vec<u64> = ctxs.iter().map(|c| c.sim.clock()).collect();

        // Per-device lowering: the IR depends on the wavefront size.
        let irs: Vec<SegmentIr> = ctxs
            .iter()
            .map(|c| SegmentIr::lower(stage, db.table(&stage.driver), c.sim.spec().wavefront_size))
            .collect();

        let stage_run = |d: usize| StageRun {
            spec: &specs[d],
            idx: sidx,
            ir: &irs[d],
            hts: &hts[d],
            spent: total,
        };
        let mut stage_profiles: Vec<LaunchProfile> = vec![LaunchProfile::default(); n];
        let mut shard_builds: Vec<SimHashTable> = Vec::new();
        let mut shard_aggs: Vec<GroupStore> = Vec::new();

        for (si, part) in parts.iter().enumerate() {
            // Candidate devices for this shard: the class rotated so
            // shard si starts at class[si % len], then (on loss) the
            // remaining live devices outside the class.
            let mut cands: Vec<usize> = {
                let len = class.len();
                (0..len).map(|o| class[(si + o) % len]).collect()
            };
            let extra: Vec<usize> = (0..n)
                .filter(|&d| alive[d] && !cands.contains(&d))
                .collect();
            cands.extend(extra);
            let mut last_err: Option<ExecError> = None;
            // (device, output, observed cycles, clock at attempt start)
            let mut winner: Option<(usize, StageOut, u64, u64)> = None;
            for (ci, &dev) in cands.iter().enumerate() {
                let reassigned = ci > 0;
                if reassigned {
                    stats.fallbacks += 1;
                }
                let dev_is_last = ci + 1 == cands.len();
                let a0 = ctxs[dev].sim.clock();
                match run_shard_on_device(
                    &mut ctxs[dev],
                    &stage_run(dev),
                    mode,
                    part,
                    &mut stats,
                    // The disarmed last resort belongs to the final
                    // candidate only; earlier losses reassign instead.
                    dev_is_last || exhausted,
                ) {
                    Ok(out) => {
                        let observed = ctxs[dev].sim.clock().saturating_sub(a0);
                        winner = Some((dev, out, observed, a0));
                        break;
                    }
                    Err(e @ ExecError::DeviceLost(_)) => {
                        alive[dev] = false;
                        last_err = Some(e);
                    }
                    Err(e) => return Err(e),
                }
            }
            let Some((mut wdev, mut out, observed, p0)) = winner else {
                return Err(last_err.expect("at least one candidate attempted"));
            };

            // Straggler hedging: the shard finished, but did it finish
            // *late*? The deadline is the *whole stage's* modeled cost
            // on this device times the lateness threshold — deliberately
            // unscaled by the shard's row fraction, so neither ordinary
            // model error nor the fixed per-launch overhead (which does
            // not shrink with shard size) can trip it; only a genuinely
            // pathological shard (slowdown window, retry storm) can. A
            // straggler gets a speculative re-execution on the
            // modeled-cheapest other live device; the race resolves in
            // modeled-parallel time — the backup launches the moment the
            // primary crossed its deadline, so it finishes at `deadline
            // + d_backup` — and the loser's clock is capped at the
            // winner's finish (cancellation). Duplicate cycles land in
            // `wasted_cycles`, charged against `limits` like retry
            // waste.
            if let Some(h) = hedge {
                let part_rows: usize = part.iter().map(|r| r.len()).sum();
                let modeled_row = h.modeled.get(sidx);
                let modeled_p = modeled_row
                    .and_then(|row| row.get(wdev))
                    .copied()
                    .unwrap_or(f64::INFINITY);
                let deadline = modeled_p * h.threshold;
                if part_rows > 0 && modeled_p.is_finite() && (observed as f64) > deadline {
                    let backup = (0..n)
                        .filter(|&d| d != wdev && alive[d])
                        .filter(|&d| {
                            modeled_row.is_some_and(|row| row.get(d).is_some_and(|m| m.is_finite()))
                        })
                        .min_by(|&a, &b| {
                            let row = modeled_row.expect("filtered on modeled_row");
                            row[a].total_cmp(&row[b])
                        });
                    let affordable = backup.is_some_and(|b| {
                        let modeled_b = (modeled_row.expect("backup implies row")[b]).ceil() as u64;
                        limits
                            .max_cycles
                            .is_none_or(|budget| total + stats.wasted_cycles + modeled_b <= budget)
                    });
                    if let (Some(b), true) = (backup, affordable) {
                        stats.hedges += 1;
                        let b0 = ctxs[b].sim.clock();
                        match run_shard_on_device(
                            &mut ctxs[b],
                            &stage_run(b),
                            mode,
                            part,
                            &mut stats,
                            false,
                        ) {
                            Ok(bout) => {
                                let d_backup = ctxs[b].sim.clock().saturating_sub(b0);
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
                                    stats.hedge_wins += 1;
                                    ctxs[wdev].sim.cap_clock(p0 + launch + d_backup);
                                    stats.wasted_cycles +=
                                        ctxs[wdev].sim.clock().saturating_sub(p0);
                                    wdev = b;
                                    out = bout;
                                } else {
                                    // Primary wins: cancel the backup at
                                    // the primary's finish.
                                    let spent_b = d_backup.min(observed.saturating_sub(launch));
                                    ctxs[b].sim.cap_clock(b0 + spent_b);
                                    stats.wasted_cycles += spent_b;
                                }
                            }
                            Err(ExecError::DeviceLost(_)) => {
                                // The backup's device died mid-
                                // speculation; the primary stands.
                                alive[b] = false;
                                stats.wasted_cycles += ctxs[b].sim.clock().saturating_sub(b0);
                            }
                            Err(e @ (ExecError::Timeout { .. } | ExecError::Cancelled)) => {
                                return Err(e)
                            }
                            Err(_) => {
                                // Any other backup failure leaves the
                                // verified primary result standing.
                                stats.wasted_cycles += ctxs[b].sim.clock().saturating_sub(b0);
                            }
                        }
                    }
                }
            }

            stage_profiles[wdev].merge(&out.0);
            match out.1 {
                Blocking::Build(_, t) => shard_builds.push(t),
                Blocking::Agg(a) => shard_aggs.push(a),
            }
        }

        // Deterministic merge of the blocking-terminal state.
        match &stage.terminal {
            Terminal::HashBuild { ht, .. } => {
                let slot = *ht;
                let mut it = shard_builds.drain(..);
                let mut merged = it.next().expect("build stage produced tables");
                for t in it {
                    merged.absorb(t);
                }
                // Broadcast the merged table to every live device at its
                // copy bandwidth so the next stage can probe locally: one
                // content, one placement per device.
                for d in (0..n).filter(|&d| alive[d]) {
                    let t = merged.placed(
                        &mut ctxs[d].sim.mem,
                        format!("{}::ht{}@{d}", plan.query.name(), slot),
                    );
                    let bw = broadcast_bandwidth(ctxs[d].sim.spec());
                    ctxs[d].sim.advance(t.bytes() / bw + 64);
                    hts[d][slot] = Some(Rc::new(RefCell::new(t)));
                }
            }
            Terminal::Aggregate { .. } => {
                let mut it = shard_aggs.drain(..);
                let mut merged = it.next().expect("aggregate stage produced stores");
                let mut gathered = 0u64;
                for s in it {
                    gathered += s.bytes();
                    merged.absorb(s);
                }
                // Gather charge on the stage's primary device.
                let bw = broadcast_bandwidth(ctxs[primary].sim.spec());
                ctxs[primary].sim.advance(gathered / bw);
                agg_store = Some(merged);
            }
        }

        let wall = ctxs
            .iter()
            .zip(&c_start)
            .map(|(c, &s)| c.sim.clock().saturating_sub(s))
            .max()
            .unwrap_or(0);
        total += wall;
        stage_cycles.push(wall);
        for (d, p) in stage_profiles.into_iter().enumerate() {
            dev_stages[d].push(p);
        }
    }

    let store = agg_store.ok_or(ExecError::InvalidPlan(PlanError::NoAggregate))?;
    // The sort runs on the final stage's primary device.
    let (output, sort) = finish_query(
        &mut ctxs[primary],
        plan,
        mode,
        store.into_rows(),
        limits,
        total + stats.wasted_cycles,
    )?;
    if let Some(prof) = sort {
        total += prof.elapsed_cycles;
        stage_cycles.push(prof.elapsed_cycles);
        dev_stages[primary].push(prof);
    }
    let per_device = ctxs
        .iter()
        .enumerate()
        .map(|(d, c)| DeviceRun {
            device: pool.devices()[d].spec.name.clone(),
            kind: pool.devices()[d].kind,
            cycles: c.sim.clock(),
            per_stage: std::mem::take(&mut dev_stages[d]),
            lost: !alive[d],
        })
        .collect();
    Ok(ShardedRun {
        output,
        cycles: total,
        stage_cycles,
        per_device,
        recovery: stats,
    })
}

/// Device-level copy bandwidth used to charge merge broadcasts/gathers:
/// the per-CU miss-path stream rate times the CU count.
fn broadcast_bandwidth(spec: &DeviceSpec) -> u64 {
    (spec.mem_bytes_per_cycle * spec.num_cus as u64).max(1)
}

/// One shard on one device, down the recovery ladder on this device's
/// clock. The disarmed last resort belongs to the shard's last candidate
/// device; elsewhere a device loss returns at once so the caller can
/// reassign the shard.
fn run_shard_on_device(
    ctx: &mut ExecContext,
    run: &StageRun,
    mode: ExecMode,
    part: &[Range<usize>],
    stats: &mut RecoveryStats,
    last_resort_here: bool,
) -> Result<StageOut, ExecError> {
    let ladder = Ladder {
        last_resort: if last_resort_here {
            LastResort::Always
        } else {
            LastResort::UnlessLost
        },
        ..run.ladder(mode)
    };
    let attempt = |ctx: &mut ExecContext, m| attempt_stage(ctx, run, m, part);
    ladder
        .run(ctx, stats, attempt, |_, _| {})
        .map(|(out, _)| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_query, ExecContext};
    use crate::plan::plan_for;
    use gpl_tpch::QueryId;

    #[test]
    fn range_partition_is_balanced_total_disjoint() {
        let parts = Sharder::Range.partition(10, 3);
        assert_eq!(parts, vec![vec![0..4], vec![4..7], vec![7..10]]);
        assert!(Sharder::Range.partition(2, 7)[3..]
            .iter()
            .all(Vec::is_empty));
        assert_eq!(Sharder::Range.partition(0, 4), vec![vec![]; 4]);
    }

    #[test]
    fn hash_partition_covers_and_coalesces() {
        let s = Sharder::Hash { block_rows: 8 };
        let parts = s.partition(100, 3);
        let mut rows: Vec<usize> = parts.iter().flatten().flat_map(|r| r.clone()).collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..100).collect::<Vec<_>>());
        // Coalescing: no shard holds two adjacent ranges.
        for p in &parts {
            for w in p.windows(2) {
                assert!(w[0].end < w[1].start);
            }
        }
    }

    #[test]
    fn pool_keys_and_cache_keys_are_stable() {
        let pool = DevicePool::default_pool();
        assert_eq!(pool.key(), "AMD A10 APU+NVIDIA Tesla K40+Host CPU x86");
        assert_eq!(ShardPlan::range(4).cache_key(), "range:4");
        assert_eq!(
            ShardPlan {
                shards: 2,
                sharder: Sharder::Hash { block_rows: 512 }
            }
            .cache_key(),
            "hash512:2"
        );
    }

    #[test]
    fn sharded_q14_matches_single_device_oracle() {
        let db = Arc::new(gpl_tpch::TpchDb::at_scale(0.002));
        let plan = plan_for(&db, QueryId::Q14);
        let pool = DevicePool::default_pool();
        let assignment = ShardAssignment::round_robin(&pool, &plan);
        let mut ctx = ExecContext::with_shared(gpl_sim::amd_a10(), db.clone());
        let cfg = QueryConfig::default_for(&gpl_sim::amd_a10(), &plan);
        let oracle = run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
        for shards in [1, 3] {
            let run = try_run_query_sharded(
                &pool,
                &db,
                &plan,
                ExecMode::Gpl,
                &ShardPlan::range(shards),
                &assignment,
                &ExecLimits::none(),
                None,
                None,
                None,
                None,
            )
            .expect("sharded run succeeds");
            assert_eq!(run.output.rows, oracle.output.rows, "shards={shards}");
            assert!(run.cycles > 0);
            assert_eq!(run.per_device.len(), 3);
        }
    }
}
