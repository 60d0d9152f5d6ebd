//! Deterministic fault injection — the simulator's fault plane.
//!
//! Real GPU serving fleets see transient kernel faults, wedged DMA
//! channels and throughput loss; the paper never
//! asks what happens then, but a production engine must (see
//! "Accelerating Presto with GPUs" in PAPERS.md, which runs GPU
//! operators behind a CPU-fallback path for exactly this reason).
//! A [`FaultPlan`] attached to a [`crate::Simulator`] injects those
//! failure modes *deterministically*: one seeded PCG32 draw per armed
//! launch, timestamps in simulated cycles only, no ambient entropy. The
//! same seed yields the same faults at the same clocks, forever — which
//! is what lets the recovery stack above be tested byte-for-byte.
//!
//! ## The launch-admission invariant
//!
//! Faults are decided at **launch admission**, before the simulator
//! polls any [`crate::WorkSource`]. A failed launch therefore has *zero
//! functional side effects* — no data-queue mutation, no hash-table or
//! aggregate update — only a detection-latency charge on the clock.
//! That invariant is what makes segment-granularity retry in `gpl-core`
//! sound: re-running a faulted segment can never double-apply work.
//! Channel *stalls* and *slowdowns* are the non-failing kinds: a stalled
//! launch proceeds after losing [`STALL_CYCLES`] on the clock, and a
//! slowdown opens a duration-bounded window during which every launch's
//! elapsed cycles are multiplied — a *gray* failure the retry ladder
//! never sees (no launch fails), detectable only by comparing observed
//! against modeled progress, which is exactly what the speculative
//! hedging in `gpl_core::shard` does.

use gpl_prng::{Pcg32, RngCore};
use std::fmt;

/// The PCG stream selector for fault plans (any fixed odd-ish constant;
/// distinct from the property-test harness streams).
const FAULT_STREAM: u64 = 0xfa17_fa17;

/// Cycles from admission to fault *detection*, charged to the clock of
/// every failing launch — the cost of noticing.
pub const DETECT_CYCLES: u64 = 2_000;

/// Cycles a [`FaultKind::ChannelStall`] costs before its launch runs.
pub const STALL_CYCLES: u64 = 20_000;

/// What kind of hardware misbehaviour was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A transient kernel fault (the GPU analogue of an ECC trip or an
    /// illegal-address abort): the launch fails, the device survives.
    KernelFault,
    /// A wedged channel: the launch *succeeds* after losing
    /// [`STALL_CYCLES`] to a drained-and-restarted pipe.
    ChannelStall,
    /// Corrupted channel traffic, surfaced by the per-tile checksum the
    /// consumer verifies (`gpl-core`'s data queues): the launch fails.
    ChannelCorrupt,
    /// A gray failure: the device keeps working but loses throughput for
    /// [`FaultSpec::slowdown_cycles`], every overlapping launch's elapsed
    /// time multiplied by [`FaultSpec::slowdown_factor`]. Never fails a
    /// launch and never reaches [`crate::Simulator::take_fault`] — it
    /// injures cycles, not rows.
    Slowdown,
}

impl FaultKind {
    /// Number of kinds — sizes the per-kind counter arrays so a new
    /// variant cannot silently fall outside them.
    pub const COUNT: usize = Self::ALL.len();

    pub fn name(self) -> &'static str {
        match self {
            FaultKind::KernelFault => "kernel_fault",
            FaultKind::ChannelStall => "channel_stall",
            FaultKind::ChannelCorrupt => "channel_corrupt",
            FaultKind::Slowdown => "slowdown",
        }
    }

    /// Stable index for per-kind counters.
    pub(crate) fn idx(self) -> usize {
        match self {
            FaultKind::KernelFault => 0,
            FaultKind::ChannelStall => 1,
            FaultKind::ChannelCorrupt => 2,
            FaultKind::Slowdown => 3,
        }
    }

    pub const ALL: [FaultKind; 4] = [
        FaultKind::KernelFault,
        FaultKind::ChannelStall,
        FaultKind::ChannelCorrupt,
        FaultKind::Slowdown,
    ];
}

/// One injected fault, as surfaced to the engine: what fired, on which
/// kernel (when attributable), and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    pub kind: FaultKind,
    /// The victim kernel, for kinds that single one out.
    pub kernel: Option<String>,
    /// Device clock at which the fault was *detected* (admission clock
    /// plus [`DETECT_CYCLES`]).
    pub cycle: u64,
    /// Zero-based index of the armed launch that drew the fault.
    pub launch: u64,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind.name())?;
        if let Some(k) = &self.kernel {
            write!(f, " on kernel {k}")?;
        }
        write!(f, " at cycle {} (launch {})", self.cycle, self.launch)
    }
}

/// A fault pinned to fire on a specific kernel: the first armed launch
/// containing `kernel` fails with `kind` at `max(clock, at_cycle) +
/// DETECT_CYCLES` (a stall instead runs at `max(clock, at_cycle) +
/// STALL_CYCLES`). Pinned faults fire once each, before any
/// probabilistic draw, and consume no randomness.
#[derive(Debug, Clone, PartialEq)]
pub struct PinnedFault {
    pub kind: FaultKind,
    pub kernel: String,
    pub at_cycle: u64,
}

/// The (cloneable) fault-injection recipe: per-launch probabilities, the
/// slowdown window's shape, mid-launch detection, and pinned schedules.
/// Build a [`FaultPlan`] from it with a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Per-launch probability of a transient kernel fault.
    pub kernel_fault: f64,
    /// Per-launch probability of a channel stall (channel-using launches
    /// only; the draw is consumed either way for stream stability).
    pub channel_stall: f64,
    /// Per-launch probability of checksum-detected channel corruption
    /// (channel-using launches only).
    pub channel_corrupt: f64,
    /// Per-launch probability of opening a [`FaultKind::Slowdown`]
    /// window (gray failure: launches keep succeeding, slower).
    pub slowdown: f64,
    /// Elapsed-cycle multiplier inside a slowdown window (≥ 1.0; 1.0
    /// makes the window a no-op).
    pub slowdown_factor: f64,
    /// Duration of one slowdown window in device cycles, from the
    /// admission clock of the launch that drew it.
    pub slowdown_cycles: u64,
    /// Fraction of a failing launch that executes before the fault
    /// surfaces, in `[0, 1]`. At the default `0.0` a fault is decided at
    /// launch admission and costs only [`DETECT_CYCLES`] — the
    /// admission model where failed launches have zero side effects. At
    /// `1.0` the fault is caught by end-of-launch verification: the
    /// launch runs to completion, its full simulated cycles are charged
    /// (plus detection), and its outputs are poisoned. Intermediate
    /// values charge that fraction of the launch. With a non-zero value
    /// the work functions of a failing launch *do* execute, so callers
    /// must discard its outputs — the recovery layer's
    /// install-on-success discipline already guarantees this.
    pub fail_progress: f64,
    /// Constant-hazard scaling window, in cycles. When set (requires
    /// `fail_progress > 0`), a fault drawn at admission is *confirmed*
    /// only with probability `min(1, elapsed / window)` once the
    /// launch's length is known — short launches become proportionally
    /// less likely to fail, making the failure rate per executed cycle
    /// constant instead of per launch. A rescinded fault leaves the
    /// launch to succeed exactly as simulated. `None` keeps the classic
    /// per-launch model.
    pub fail_hazard_cycles: Option<u64>,
    /// "Fire at cycle N on kernel K" schedules, for tests.
    pub pinned: Vec<PinnedFault>,
}

impl FaultSpec {
    /// No faults at all (probabilities zero, nothing pinned).
    pub fn none() -> Self {
        FaultSpec {
            kernel_fault: 0.0,
            channel_stall: 0.0,
            channel_corrupt: 0.0,
            slowdown: 0.0,
            slowdown_factor: 4.0,
            slowdown_cycles: 200_000,
            fail_progress: 0.0,
            fail_hazard_cycles: None,
            pinned: Vec::new(),
        }
    }

    /// Transient faults only, all at probability `p` per launch: kernel
    /// faults, channel stalls and channel corruption (no slowdown
    /// windows) — the workhorse recipe of the fuzz suites, kept
    /// slowdown-free so its fault streams stay stable.
    pub fn uniform(p: f64) -> Self {
        FaultSpec {
            kernel_fault: p,
            channel_stall: p,
            channel_corrupt: p,
            ..FaultSpec::none()
        }
    }

    /// Add slowdown windows to the recipe: probability `p` per launch of
    /// entering a window of `cycles` during which elapsed time is
    /// multiplied by `factor`.
    pub fn with_slowdown(mut self, p: f64, factor: f64, cycles: u64) -> Self {
        self.slowdown = p;
        self.slowdown_factor = factor;
        self.slowdown_cycles = cycles;
        self
    }

    /// Make failing launches lose in-flight work: a fault now surfaces
    /// only after `frac` of its launch has executed (see
    /// [`FaultSpec::fail_progress`]).
    pub fn with_fail_progress(mut self, frac: f64) -> Self {
        self.fail_progress = frac;
        self
    }

    /// Enable constant-hazard scaling over `window` cycles (see
    /// [`FaultSpec::fail_hazard_cycles`]).
    pub fn with_fail_hazard(mut self, window: u64) -> Self {
        self.fail_hazard_cycles = Some(window);
        self
    }

    /// Sum of failure probabilities (sanity bound; stalls and slowdowns
    /// excluded because they do not fail the launch).
    fn fail_mass(&self) -> f64 {
        self.kernel_fault + self.channel_corrupt
    }

    /// Structural validation: every probability must be a finite value
    /// in `[0, 1]`, the per-launch draw masses must fit in one uniform
    /// draw, and the slowdown factor must be a finite multiplier ≥ 1.
    /// [`FaultPlan::try_new`] runs this; a spec that fails it would
    /// silently misbehave (negative mass shifts every threshold, NaN
    /// poisons every comparison), so it is rejected up front.
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        let probs = [
            ("kernel_fault", self.kernel_fault),
            ("channel_stall", self.channel_stall),
            ("channel_corrupt", self.channel_corrupt),
            ("slowdown", self.slowdown),
        ];
        for (field, p) in probs {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(FaultSpecError {
                    field,
                    value: p,
                    reason: "probability must be a finite value in [0, 1]",
                });
            }
        }
        let mass = self.fail_mass() + self.channel_stall + self.slowdown;
        if mass > 1.0 + 1e-9 {
            return Err(FaultSpecError {
                field: "total",
                value: mass,
                reason: "per-launch probabilities must sum to at most 1",
            });
        }
        if !self.fail_progress.is_finite() || !(0.0..=1.0).contains(&self.fail_progress) {
            return Err(FaultSpecError {
                field: "fail_progress",
                value: self.fail_progress,
                reason: "fail progress must be a finite fraction in [0, 1]",
            });
        }
        if let Some(window) = self.fail_hazard_cycles {
            if window == 0 {
                return Err(FaultSpecError {
                    field: "fail_hazard_cycles",
                    value: 0.0,
                    reason: "hazard window must be at least one cycle",
                });
            }
            if self.fail_progress <= 0.0 {
                return Err(FaultSpecError {
                    field: "fail_hazard_cycles",
                    value: window as f64,
                    reason: "hazard scaling needs mid-launch detection (fail_progress > 0)",
                });
            }
        }
        if !self.slowdown_factor.is_finite() || self.slowdown_factor < 1.0 {
            return Err(FaultSpecError {
                field: "slowdown_factor",
                value: self.slowdown_factor,
                reason: "slowdown factor must be a finite multiplier >= 1",
            });
        }
        Ok(())
    }
}

/// Why a [`FaultSpec`] was rejected: the offending field, the value it
/// held, and the constraint it broke.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpecError {
    pub field: &'static str,
    pub value: f64,
    pub reason: &'static str,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid FaultSpec: {} = {} ({})",
            self.field, self.value, self.reason
        )
    }
}

impl std::error::Error for FaultSpecError {}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// Per-kind injection counters (includes non-failing stalls and
/// slowdown windows).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    injected: [u64; FaultKind::COUNT],
    /// Armed launches examined (denominator for observed rates).
    pub launches: u64,
}

impl FaultStats {
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind.idx()]
    }

    /// All injected events, stalls and slowdowns included.
    pub fn total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Injected events that failed their launch (everything but the
    /// non-failing stalls and slowdowns).
    pub fn total_failures(&self) -> u64 {
        self.total() - self.injected(FaultKind::ChannelStall) - self.injected(FaultKind::Slowdown)
    }
}

/// What admission decided for one launch.
#[derive(Debug)]
pub(crate) enum Admission {
    /// Run normally.
    Clear,
    /// Run after charging `record.cycle - clock` stall cycles.
    Stall { record: FaultRecord },
    /// Fail the launch; `record.cycle` is the detection clock.
    Fail { record: FaultRecord },
    /// Run normally, but the device enters a slowdown window: every
    /// launch overlapping `record.cycle..until_cycle` has its elapsed
    /// cycles multiplied by `factor`.
    Slow {
        record: FaultRecord,
        until_cycle: u64,
        factor: f64,
    },
}

/// A seeded fault injector bound to one simulator. Consumes exactly one
/// PCG32 `next_u64` per armed launch (plus one `next_u32` to pick a
/// kernel-fault victim), so the fault stream is independent of *what*
/// the launches do — only of how many there were.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: Pcg32,
    /// Which pinned faults already fired.
    fired: Vec<bool>,
    launch_no: u64,
    armed: bool,
    stats: FaultStats,
}

impl FaultPlan {
    /// Validate `spec` (see [`FaultSpec::validate`]) and build the
    /// seeded plan.
    pub fn try_new(spec: FaultSpec, seed: u64) -> Result<Self, FaultSpecError> {
        spec.validate()?;
        let fired = vec![false; spec.pinned.len()];
        Ok(FaultPlan {
            spec,
            rng: Pcg32::new(seed, FAULT_STREAM),
            fired,
            launch_no: 0,
            armed: true,
            stats: FaultStats::default(),
        })
    }

    /// [`FaultPlan::try_new`], panicking on an invalid spec.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        FaultPlan::try_new(spec, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Convenience: [`FaultSpec::uniform`] with a seed.
    pub fn seeded(seed: u64, p: f64) -> Self {
        FaultPlan::new(FaultSpec::uniform(p), seed)
    }

    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// While disarmed, launches are admitted untouched and consume no
    /// randomness — the "run on the hardened path" escape hatch the
    /// last-resort KBE fallback uses.
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    pub fn armed(&self) -> bool {
        self.armed
    }

    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Second-stage decision for a deferred (mid-launch) fault: under
    /// [`FaultSpec::fail_hazard_cycles`] a launch that ran `elapsed`
    /// cycles keeps its admission-drawn fault with probability
    /// `min(1, elapsed / window)` — constant hazard per executed cycle.
    /// Returns `false` when the fault is rescinded, in which case the
    /// launch stands exactly as simulated (the injection is un-counted).
    /// Consumes one uniform draw only when hazard scaling is on, so
    /// classic fault streams are untouched.
    pub(crate) fn confirm_mid_launch(&mut self, record: &FaultRecord, elapsed: u64) -> bool {
        let Some(window) = self.spec.fail_hazard_cycles else {
            return true;
        };
        let keep = (elapsed as f64 / window as f64).min(1.0);
        let r = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if r < keep {
            return true;
        }
        let n = &mut self.stats.injected[record.kind.idx()];
        *n = n.saturating_sub(1);
        false
    }

    /// Decide the fate of one launch. `kernels` are the launch's kernel
    /// names; `uses_channels` gates the channel kinds.
    pub(crate) fn admit(&mut self, clock: u64, kernels: &[&str], uses_channels: bool) -> Admission {
        if !self.armed {
            return Admission::Clear;
        }
        let launch = self.launch_no;
        self.launch_no += 1;
        self.stats.launches += 1;
        // Pinned schedules fire first and consume no randomness.
        for i in 0..self.spec.pinned.len() {
            if self.fired[i] {
                continue;
            }
            let p = &self.spec.pinned[i];
            if kernels.iter().any(|k| *k == p.kernel) {
                self.fired[i] = true;
                self.stats.injected[p.kind.idx()] += 1;
                let at = clock.max(p.at_cycle);
                let kernel = Some(p.kernel.clone());
                let kind = p.kind;
                return if kind == FaultKind::ChannelStall {
                    Admission::Stall {
                        record: FaultRecord {
                            kind,
                            kernel,
                            cycle: at + STALL_CYCLES,
                            launch,
                        },
                    }
                } else {
                    Admission::Fail {
                        record: FaultRecord {
                            kind,
                            kernel,
                            cycle: at + DETECT_CYCLES,
                            launch,
                        },
                    }
                };
            }
        }
        // One uniform draw per launch, walked against cumulative
        // thresholds. Channel kinds on channel-less launches still
        // consume their slice of the draw, so the stream is stable
        // across gating.
        let r = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut cum = self.spec.kernel_fault;
        if r < cum {
            let victim = kernels[(self.rng.next_u32() as usize) % kernels.len().max(1)];
            self.stats.injected[FaultKind::KernelFault.idx()] += 1;
            return Admission::Fail {
                record: FaultRecord {
                    kind: FaultKind::KernelFault,
                    kernel: Some(victim.to_string()),
                    cycle: clock + DETECT_CYCLES,
                    launch,
                },
            };
        }
        cum += self.spec.channel_corrupt;
        if r < cum {
            if uses_channels {
                self.stats.injected[FaultKind::ChannelCorrupt.idx()] += 1;
                return Admission::Fail {
                    record: FaultRecord {
                        kind: FaultKind::ChannelCorrupt,
                        kernel: None,
                        cycle: clock + DETECT_CYCLES,
                        launch,
                    },
                };
            }
            return Admission::Clear;
        }
        cum += self.spec.channel_stall;
        if r < cum {
            if uses_channels {
                self.stats.injected[FaultKind::ChannelStall.idx()] += 1;
                return Admission::Stall {
                    record: FaultRecord {
                        kind: FaultKind::ChannelStall,
                        kernel: None,
                        cycle: clock + STALL_CYCLES,
                        launch,
                    },
                };
            }
            return Admission::Clear;
        }
        // Slowdown sits last in the walk so specs without it keep the
        // exact fault streams they had before the kind existed.
        cum += self.spec.slowdown;
        if r < cum {
            self.stats.injected[FaultKind::Slowdown.idx()] += 1;
            return Admission::Slow {
                record: FaultRecord {
                    kind: FaultKind::Slowdown,
                    kernel: None,
                    cycle: clock,
                    launch,
                },
                until_cycle: clock + self.spec.slowdown_cycles,
                factor: self.spec.slowdown_factor,
            };
        }
        Admission::Clear
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit_n(plan: &mut FaultPlan, n: usize) -> Vec<Admission> {
        (0..n)
            .map(|i| plan.admit(i as u64 * 100, &["k_a", "k_b"], true))
            .collect()
    }

    #[test]
    fn zero_probability_injects_nothing() {
        let mut p = FaultPlan::new(FaultSpec::none(), 7);
        for a in admit_n(&mut p, 200) {
            assert!(matches!(a, Admission::Clear));
        }
        assert_eq!(p.stats().total(), 0);
        assert_eq!(p.stats().launches, 200);
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let run = || {
            let mut p = FaultPlan::seeded(99, 0.05);
            admit_n(&mut p, 500)
                .iter()
                .map(|a| format!("{a:?}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        let mut other = FaultPlan::seeded(100, 0.05);
        let b: Vec<String> = admit_n(&mut other, 500)
            .iter()
            .map(|a| format!("{a:?}"))
            .collect();
        assert_ne!(run(), b, "different seeds must differ somewhere");
    }

    #[test]
    fn observed_rate_tracks_probability() {
        let mut p = FaultPlan::new(
            FaultSpec {
                kernel_fault: 0.1,
                ..FaultSpec::none()
            },
            3,
        );
        admit_n(&mut p, 2000);
        let hits = p.stats().injected(FaultKind::KernelFault);
        assert!((120..=280).contains(&hits), "0.1 of 2000 ≈ 200, got {hits}");
    }

    #[test]
    fn channel_kinds_skip_channel_less_launches() {
        let spec = FaultSpec {
            channel_corrupt: 0.5,
            channel_stall: 0.5,
            ..FaultSpec::none()
        };
        let mut p = FaultPlan::new(spec, 11);
        for _ in 0..100 {
            assert!(matches!(p.admit(0, &["k"], false), Admission::Clear));
        }
    }

    #[test]
    fn pinned_fault_fires_once_on_its_kernel_at_its_cycle() {
        let spec = FaultSpec {
            pinned: vec![PinnedFault {
                kind: FaultKind::KernelFault,
                kernel: "k_b".into(),
                at_cycle: 5_000,
            }],
            ..FaultSpec::none()
        };
        let mut p = FaultPlan::new(spec, 1);
        // Launch without the victim: clear.
        assert!(matches!(p.admit(0, &["k_a"], false), Admission::Clear));
        // Launch with it, before at_cycle: fires at at_cycle + detect.
        match p.admit(100, &["k_a", "k_b"], false) {
            Admission::Fail { record } => {
                assert_eq!(record.kind, FaultKind::KernelFault);
                assert_eq!(record.kernel.as_deref(), Some("k_b"));
                assert_eq!(record.cycle, 5_000 + DETECT_CYCLES);
            }
            a => panic!("expected pinned failure, got {a:?}"),
        }
        // Fires once.
        assert!(matches!(p.admit(9_000, &["k_b"], false), Admission::Clear));
    }

    #[test]
    fn hazard_scaling_confirms_proportionally_to_launch_length() {
        let spec = FaultSpec {
            kernel_fault: 1.0,
            ..FaultSpec::none()
        }
        .with_fail_progress(1.0)
        .with_fail_hazard(1_000);
        let mut plan = FaultPlan::new(spec, 9);
        let rec = |kind| FaultRecord {
            kind,
            kernel: None,
            cycle: 0,
            launch: 0,
        };
        // A launch spanning the whole window always keeps its fault; a
        // zero-length launch never does.
        assert!(plan.confirm_mid_launch(&rec(FaultKind::KernelFault), 1_000));
        assert!(!plan.confirm_mid_launch(&rec(FaultKind::KernelFault), 0));
        // Half-length launches keep theirs about half the time.
        let kept = (0..1_000)
            .filter(|_| plan.confirm_mid_launch(&rec(FaultKind::KernelFault), 500))
            .count();
        assert!((400..=600).contains(&kept), "kept {kept}/1000 at p=0.5");
        // Without hazard scaling no randomness is consumed and every
        // fault is confirmed.
        let mut classic = FaultPlan::new(FaultSpec::uniform(0.3), 9);
        assert!(classic.confirm_mid_launch(&rec(FaultKind::KernelFault), 0));
    }

    #[test]
    fn kind_roundtrip_is_dense_and_unique() {
        // Exhaustive over FaultKind::ALL: indexes dense 0..COUNT, names
        // unique and non-empty — a new kind that collides on either axis
        // fails here instead of silently sharing a counter slot.
        assert_eq!(FaultKind::ALL.len(), FaultKind::COUNT);
        let mut seen_idx = [false; FaultKind::COUNT];
        let mut names: Vec<&str> = Vec::new();
        for kind in FaultKind::ALL {
            let i = kind.idx();
            assert!(i < FaultKind::COUNT, "{:?} index out of range", kind);
            assert!(!seen_idx[i], "{:?} shares index {i}", kind);
            seen_idx[i] = true;
            assert!(!kind.name().is_empty());
            assert!(!names.contains(&kind.name()), "{:?} shares a name", kind);
            names.push(kind.name());
        }
        assert!(seen_idx.iter().all(|&s| s), "indexes are dense");
    }

    #[test]
    fn spec_validation_rejects_bad_probabilities() {
        assert!(FaultSpec::none().validate().is_ok());
        assert!(FaultSpec::uniform(0.3).validate().is_ok());

        assert_eq!(
            FaultSpec::none()
                .with_fail_progress(1.0)
                .with_fail_hazard(0)
                .validate()
                .unwrap_err()
                .field,
            "fail_hazard_cycles"
        );
        assert_eq!(
            FaultSpec::none()
                .with_fail_hazard(1_000)
                .validate()
                .unwrap_err()
                .field,
            "fail_hazard_cycles",
            "hazard scaling without mid-launch detection is rejected"
        );
        for bad in [-0.1, 1.5, f64::NAN] {
            let spec = FaultSpec::none().with_fail_progress(bad);
            assert_eq!(spec.validate().unwrap_err().field, "fail_progress");
        }
        assert!(FaultSpec::none().with_fail_progress(1.0).validate().is_ok());
        let neg = FaultSpec {
            kernel_fault: -0.1,
            ..FaultSpec::none()
        };
        let err = neg.validate().unwrap_err();
        assert_eq!(err.field, "kernel_fault");
        assert!(err.to_string().contains("kernel_fault = -0.1"));

        let over = FaultSpec {
            channel_stall: 1.5,
            ..FaultSpec::none()
        };
        assert_eq!(over.validate().unwrap_err().field, "channel_stall");

        let nan = FaultSpec {
            slowdown: f64::NAN,
            ..FaultSpec::none()
        };
        assert_eq!(nan.validate().unwrap_err().field, "slowdown");

        // Individually legal probabilities whose sum exceeds one draw.
        let sum = FaultSpec {
            kernel_fault: 0.5,
            channel_corrupt: 0.4,
            slowdown: 0.3,
            ..FaultSpec::none()
        };
        assert_eq!(sum.validate().unwrap_err().field, "total");

        let factor = FaultSpec::none().with_slowdown(0.1, 0.5, 1_000);
        assert_eq!(factor.validate().unwrap_err().field, "slowdown_factor");

        assert!(FaultPlan::try_new(neg, 1).is_err());
        assert!(FaultPlan::try_new(FaultSpec::uniform(0.1), 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid FaultSpec")]
    fn plan_new_panics_on_invalid_spec() {
        FaultPlan::new(
            FaultSpec {
                channel_corrupt: 2.0,
                ..FaultSpec::none()
            },
            0,
        );
    }

    #[test]
    fn slowdown_draw_opens_a_window_and_never_fails() {
        let spec = FaultSpec::none().with_slowdown(1.0, 8.0, 10_000);
        let mut p = FaultPlan::new(spec, 3);
        match p.admit(500, &["k"], false) {
            Admission::Slow {
                record,
                until_cycle,
                factor,
            } => {
                assert_eq!(record.kind, FaultKind::Slowdown);
                assert_eq!(record.cycle, 500, "window opens at admission");
                assert_eq!(until_cycle, 10_500);
                assert_eq!(factor, 8.0);
            }
            a => panic!("expected a slowdown window, got {a:?}"),
        }
        assert_eq!(p.stats().injected(FaultKind::Slowdown), 1);
        assert_eq!(p.stats().total_failures(), 0, "slowdowns never fail");
    }

    #[test]
    fn slowdown_band_leaves_existing_streams_untouched() {
        // A spec without slowdown draws the same admissions it always
        // did: the new band sits after every existing threshold.
        let base = || {
            let mut p = FaultPlan::seeded(42, 0.05);
            admit_n(&mut p, 300)
                .iter()
                .map(|a| format!("{a:?}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(base(), base());
        // The stall band no longer leaks into the slowdown band on
        // channel-less launches.
        let spec = FaultSpec {
            channel_stall: 0.5,
            ..FaultSpec::none()
        }
        .with_slowdown(0.5, 4.0, 1_000);
        let mut p = FaultPlan::new(spec, 11);
        let mut slows = 0;
        for _ in 0..200 {
            match p.admit(0, &["k"], false) {
                Admission::Clear => {}
                Admission::Slow { .. } => slows += 1,
                a => panic!("channel-less launch cannot stall: {a:?}"),
            }
        }
        assert!(slows > 0, "slowdown band still reachable");
        assert_eq!(p.stats().injected(FaultKind::ChannelStall), 0);
    }

    /// FNV-1a over every admission two fixed recipes draw — the fuzz
    /// suites' `uniform(0.05)` and the sharded chaos recipe — across
    /// alternating channel-using and channel-less launches, with each
    /// deferred fail put through `confirm_mid_launch`, beside the
    /// recipe's fault and failure totals. Every pinned fault and chaos
    /// number downstream reads this stream, so a change to the fault
    /// plane must leave `pins/fault_streams` where it is.
    #[test]
    fn fault_streams_are_pinned() {
        let line = |name: &str, spec: FaultSpec| {
            let deferred = spec.fail_progress > 0.0;
            let mut plan = FaultPlan::new(spec, 0x5eed);
            let mut h = gpl_prng::Fnv1a::new();
            for i in 0..4_000u64 {
                let channels = i % 2 == 0;
                let kernels: &[&str] = if channels {
                    &["k_scan", "k_probe", "k_agg"]
                } else {
                    &["k_sort"]
                };
                let (tag, record) = match plan.admit(i * 1_000, kernels, channels) {
                    Admission::Clear => (0u8, None),
                    Admission::Stall { record } => (1, Some(record)),
                    Admission::Fail { record } => (2, Some(record)),
                    Admission::Slow {
                        record,
                        until_cycle,
                        factor,
                    } => {
                        h.write_u64(until_cycle);
                        h.write_u64(factor.to_bits());
                        (3, Some(record))
                    }
                };
                h.write(&[tag]);
                let Some(record) = record else { continue };
                h.write(record.kind.name().as_bytes());
                h.write(record.kernel.as_deref().unwrap_or("-").as_bytes());
                h.write_u64(record.cycle);
                h.write_u64(record.launch);
                if tag == 2 && deferred {
                    let elapsed = (i * 7_919 % 64) << 20;
                    h.write(&[plan.confirm_mid_launch(&record, elapsed) as u8]);
                }
            }
            let (faults, failures) = (plan.stats().total(), plan.stats().total_failures());
            h.write_u64(faults);
            h.write_u64(failures);
            let fnv = h.finish();
            format!("{name} faults={faults} failures={failures} fnv={fnv:#018x}")
        };
        let chaos = FaultSpec::uniform(0.15)
            .with_slowdown(0.05, 4.0, 1 << 18)
            .with_fail_progress(1.0)
            .with_fail_hazard(1 << 25);
        let lines = [
            line("uniform(0.05)", FaultSpec::uniform(0.05)),
            line("chaos", chaos),
        ];
        gpl_check::pins::check("fault_streams", &lines.join("\n"))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn record_display_is_stable() {
        let r = FaultRecord {
            kind: FaultKind::KernelFault,
            kernel: Some("k_map".into()),
            cycle: 1234,
            launch: 7,
        };
        assert_eq!(
            r.to_string(),
            "kernel_fault on kernel k_map at cycle 1234 (launch 7)"
        );
        let r2 = FaultRecord {
            kind: FaultKind::ChannelCorrupt,
            kernel: None,
            cycle: 9,
            launch: 0,
        };
        assert_eq!(r2.to_string(), "channel_corrupt at cycle 9 (launch 0)");
    }
}
