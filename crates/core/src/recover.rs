//! The recovery stack: segment retries, deterministic backoff, and
//! graceful degradation.
//!
//! GPL's pipelined segments fail as a unit — the fault plane
//! (`gpl_sim::fault`) guarantees a faulted launch had no functional side
//! effects — so the natural retry granularity is the *segment* (stage).
//! When a stage draws a fault, the executor re-runs it on the same mode
//! up to [`RecoveryPolicy::max_retries`] times, separated by a
//! deterministic exponential backoff charged to the simulated clock.
//! When a mode's budget is exhausted, execution *degrades*: GPL falls
//! back to GPL-without-CE, then to KBE — the existing engines reused as
//! degraded modes, exactly the GPU→CPU fallback ladder production
//! engines run (PAPERS.md: "Accelerating Presto with GPUs"). As a last
//! resort the stage runs once more on KBE with fault injection
//! *disarmed* (the hardened path — the analogue of falling back to the
//! CPU, outside the faulty device's blast radius), so recovery
//! terminates even at fault probability 1. Faults cost cycles; they
//! never change results.
//!
//! That policy is written once, in `Ladder::run`; the shard (a whole
//! stage on a one-device pool), the checkpoint slice and the fused pair
//! are three callers that differ only in the attempt they hand it and in
//! what exhaustion means to them.

use crate::error::ExecError;
use crate::exec::{ExecContext, ExecLimits, ExecMode};
use gpl_obs::Value;
use gpl_sim::FaultRecord;

/// Retry knobs, all in deterministic units (attempt counts and row
/// slices — never wall clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Re-attempts per mode after the first try (0 = fail straight to
    /// the next mode in the ladder).
    pub max_retries: u32,
    /// Slice-checkpoint resume (DESIGN.md §11): with `k >= 2`, a
    /// blocking stage executes as `k` row-range slices, each verified by
    /// a content checksum on completion; a faulted slice retries from
    /// the last verified checkpoint instead of re-running the stage
    /// from row 0. `0` (the default) keeps the whole-stage retry.
    pub checkpoint_slices: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            checkpoint_slices: 0,
        }
    }
}

impl RecoveryPolicy {
    pub fn with_retries(max_retries: u32) -> Self {
        RecoveryPolicy {
            max_retries,
            ..Default::default()
        }
    }

    /// Enable slice-checkpoint resume with `k` slices per stage.
    pub fn with_checkpoints(mut self, k: u32) -> Self {
        self.checkpoint_slices = k;
        self
    }

    /// The degradation ladder starting at `mode` (GPL → GPL w/o CE →
    /// KBE; Ocelot → KBE).
    pub fn ladder(&self, mode: ExecMode) -> Vec<ExecMode> {
        if mode == ExecMode::Ocelot {
            // Off the chain: its one degradation drops the bitmaps.
            return vec![ExecMode::Ocelot, ExecMode::Kbe];
        }
        const CHAIN: [ExecMode; 4] = [
            ExecMode::GplPipelined,
            ExecMode::Gpl,
            ExecMode::GplNoCe,
            ExecMode::Kbe,
        ];
        CHAIN.into_iter().skip_while(|&m| m != mode).collect()
    }
}

const BACKOFF_BASE_CYCLES: u64 = 8_192;
const BACKOFF_FACTOR: u64 = 2;
const BACKOFF_CAP_CYCLES: u64 = 1 << 20;

/// Backoff delay before the `attempt`-th retry (1-based) of a mode:
/// `BACKOFF_BASE_CYCLES * BACKOFF_FACTOR^(attempt-1)`, capped at
/// `BACKOFF_CAP_CYCLES`. The ladder charges it to the simulated clock.
fn backoff_for(attempt: u32) -> u64 {
    let mut d = BACKOFF_BASE_CYCLES;
    for _ in 1..attempt {
        d = d.saturating_mul(BACKOFF_FACTOR);
        if d >= BACKOFF_CAP_CYCLES {
            break;
        }
    }
    d.min(BACKOFF_CAP_CYCLES)
}

/// Emit one `recover`-track instant on the context's recorder, if it
/// has one. In a pool run only the context a caller attached a recorder
/// to (pool device 0 in the serving layer) records; the others are
/// `None` and record nothing.
pub(crate) fn instant(ctx: &ExecContext, name: &str, args: Vec<(&'static str, Value)>) {
    if let Some(r) = ctx.sim.recorder() {
        let t = r.track("recover");
        r.instant(t, "recover", name, ctx.sim.clock(), args);
    }
}

/// The query's cycles as every budget check reads them: the stage walls
/// so far plus the waste since the current stage began (a wall already
/// holds its own stage's waste, so none counts twice, on any pool size).
#[derive(Clone, Copy)]
pub(crate) struct Spent {
    pub walls: u64,
    /// `RecoveryStats::wasted_cycles` when the current stage began.
    pub wasted0: u64,
}

impl Spent {
    pub(crate) fn at(self, stats: &RecoveryStats) -> u64 {
        self.walls + (stats.wasted_cycles - self.wasted0)
    }
}

/// The one retry/degrade loop. For each armed mode, `1 + max_retries`
/// attempts separated by deterministic backoff on the context's clock;
/// device faults are recorded and retried, query errors (timeout,
/// cancellation, deadlock, bad config) propagate at once; then, if
/// allowed, one KBE attempt with injection disarmed. Without a policy it
/// is a single unrecorded attempt.
pub(crate) struct Ladder<'a> {
    pub policy: Option<&'a RecoveryPolicy>,
    /// Armed modes, most capable first.
    pub modes: Vec<ExecMode>,
    /// Whether exhaustion ends in the disarmed KBE attempt; without it
    /// the last fault surfaces and the caller degrades its own way (the
    /// fused pair falls back to the sequential pair).
    pub last_resort: bool,
    pub limits: &'a ExecLimits,
    pub spent: Spent,
}

impl<'a> Ladder<'a> {
    /// The full degradation chain from `mode`, last resort included.
    pub(crate) fn new(
        policy: Option<&'a RecoveryPolicy>,
        mode: ExecMode,
        limits: &'a ExecLimits,
        spent: Spent,
    ) -> Self {
        Ladder {
            policy,
            modes: policy.map_or_else(|| vec![mode], |p| p.ladder(mode)),
            last_resort: true,
            limits,
            spent,
        }
    }

    /// Drive `attempt` down the ladder; returns its output and the mode
    /// it succeeded on. `on_fault` runs after each recorded device fault
    /// (checkpoint verification hooks in here).
    pub(crate) fn run<T>(
        &self,
        ctx: &mut ExecContext,
        stats: &mut RecoveryStats,
        mut attempt: impl FnMut(&mut ExecContext, ExecMode) -> Result<T, ExecError>,
        mut on_fault: impl FnMut(&mut ExecContext, &mut RecoveryStats),
    ) -> Result<(T, ExecMode), ExecError> {
        let Some(policy) = self.policy else {
            let mode = self.modes[0];
            return attempt(ctx, mode).map(|out| (out, mode));
        };
        let mut last_fault = None;
        for (rung, &mode) in self.modes.iter().enumerate() {
            for retry in 0..=policy.max_retries {
                if retry > 0 {
                    stats.retries += 1;
                    let delay = backoff_for(retry);
                    ctx.sim.advance(delay);
                    stats.backoff_cycles += delay;
                    stats.wasted_cycles += delay;
                    instant(
                        ctx,
                        "retry",
                        vec![
                            ("attempt", Value::from(retry)),
                            ("backoff_cycles", Value::from(delay)),
                        ],
                    );
                } else if rung > 0 {
                    stats.fallbacks += 1;
                    stats.degraded_to = Some(mode);
                    instant(ctx, "fallback", vec![("to", Value::from(mode.name()))]);
                }
                self.limits.check(self.spent.at(stats))?;
                let c0 = ctx.sim.clock();
                let e = match attempt(ctx, mode) {
                    Ok(out) => return Ok((out, mode)),
                    Err(e) => e,
                };
                // Query problems, not device problems: propagate.
                let Some(record) = e.fault_record() else {
                    return Err(e);
                };
                stats.wasted_cycles += ctx.sim.clock().saturating_sub(c0);
                instant(
                    ctx,
                    "fault",
                    vec![
                        ("kind", Value::from(record.kind.name())),
                        ("launch", Value::from(record.launch)),
                    ],
                );
                stats.faults.push(record.clone());
                on_fault(ctx, stats);
                last_fault = Some(e);
            }
        }
        let e = last_fault.expect("a ladder has at least one mode");
        if !self.last_resort {
            return Err(e);
        }
        // Last resort: KBE with injection disarmed — the hardened path
        // outside the faulty device's blast radius (the CPU-fallback
        // analogue). Guarantees termination even at fault rate 1.
        stats.fallbacks += 1;
        stats.degraded_to = Some(ExecMode::Kbe);
        instant(ctx, "fallback", vec![("to", Value::from("KBE (disarmed)"))]);
        let was_armed = ctx.sim.faults_armed();
        ctx.sim.set_faults_armed(false);
        let result = attempt(ctx, ExecMode::Kbe);
        ctx.sim.set_faults_armed(was_armed);
        Ok((result?, ExecMode::Kbe))
    }
}

/// What recovery did for one query: all zeros / empty on a fault-free
/// run. Aggregated into the serving layer's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Same-mode re-attempts across all stages.
    pub retries: u64,
    /// Mode transitions taken (degradations, including the disarmed
    /// last-resort attempt).
    pub fallbacks: u64,
    /// Simulated cycles spent in backoff delays.
    pub backoff_cycles: u64,
    /// Simulated cycles lost to failed attempts + backoff (included in
    /// the query's total `cycles`).
    pub wasted_cycles: u64,
    /// Every fault the query survived (or died on), in order.
    pub faults: Vec<FaultRecord>,
    /// The most degraded mode any stage ended up executing on, when
    /// different from the requested mode.
    pub degraded_to: Option<ExecMode>,
    /// Speculative backup attempts launched (straggler hedging).
    pub hedges: u64,
    /// Hedges whose backup finished (modeled) before the straggling
    /// primary and won the race.
    pub hedge_wins: u64,
    /// Checkpoint slices whose completed work was *kept* across a fault
    /// (summed over every fault that found verified slices to resume
    /// from).
    pub resumed_slices: u64,
    /// Simulated cycles the kept slices represent — work a whole-stage
    /// retry would have re-run from row 0.
    pub checkpoint_saved_cycles: u64,
}

impl RecoveryStats {
    /// Whether anything at all went wrong (and was absorbed).
    pub fn eventful(&self) -> bool {
        !self.faults.is_empty() || self.retries > 0 || self.fallbacks > 0 || self.hedges > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(backoff_for(1), 8_192);
        assert_eq!(backoff_for(2), 16_384);
        assert_eq!(backoff_for(3), 32_768);
        assert_eq!(backoff_for(8), 1 << 20, "reaches the cap");
        assert_eq!(backoff_for(9), 1 << 20, "capped");
        assert_eq!(backoff_for(30), 1 << 20, "no overflow");
    }

    /// The ladder against a scripted attempt, asserting the whole
    /// `RecoveryStats` — the counters `shard_chaos` sums into
    /// `core.recover.*` — and which (mode, armed) attempts ran.
    #[test]
    fn ladder_runs_the_scripted_cases() {
        use gpl_sim::{FaultKind, FaultPlan, FaultSpec};
        use ExecMode::{Gpl, GplNoCe, Kbe, Ocelot};

        const COST: u64 = 1_000; // cycles every scripted attempt takes
        let fault = |kind| FaultRecord {
            kind,
            kernel: None,
            cycle: 0,
            launch: 0,
        };
        let soft = fault(FaultKind::KernelFault);
        let policy = RecoveryPolicy::with_retries;
        let deadlock = ExecError::Deadlock {
            cycle: 1,
            diagnostic: String::new(),
        };

        struct Case {
            name: &'static str,
            /// The mode the ladder starts at.
            from: ExecMode,
            policy: Option<RecoveryPolicy>,
            last_resort: bool,
            budget: Option<u64>,
            /// One entry per attempt, in order; `None` succeeds.
            script: Vec<Option<ExecError>>,
            want: Result<ExecMode, ExecError>,
            /// (mode, faults armed) of every attempt that ran.
            ran: Vec<(ExecMode, bool)>,
            stats: RecoveryStats,
        }
        let cases = vec![
            Case {
                name: "fault, fault, ok: two retries on the primary mode",
                from: Gpl,
                policy: Some(policy(2)),
                last_resort: true,
                budget: None,
                script: vec![Some(ExecError::Fault(soft.clone())); 2],
                want: Ok(Gpl),
                ran: vec![(Gpl, true); 3],
                stats: RecoveryStats {
                    retries: 2,
                    backoff_cycles: 8_192 + 16_384,
                    wasted_cycles: 2 * COST + 8_192 + 16_384,
                    faults: vec![soft.clone(); 2],
                    ..Default::default()
                },
            },
            Case {
                name: "budget exhausted mid-backoff is a timeout",
                from: Gpl,
                policy: Some(policy(2)),
                last_resort: true,
                budget: Some(50 + COST + 8_191),
                script: vec![Some(ExecError::Fault(soft.clone()))],
                want: Err(ExecError::Timeout {
                    budget_cycles: 50 + COST + 8_191,
                    spent_cycles: 50 + COST + 8_192,
                }),
                ran: vec![(Gpl, true)],
                stats: RecoveryStats {
                    retries: 1,
                    backoff_cycles: 8_192,
                    wasted_cycles: COST + 8_192,
                    faults: vec![soft.clone()],
                    ..Default::default()
                },
            },
            Case {
                name: "every armed mode fails: degrade rung by rung, then disarm",
                from: Gpl,
                policy: Some(policy(0)),
                last_resort: true,
                budget: None,
                script: vec![Some(ExecError::Fault(soft.clone())); 3],
                want: Ok(Kbe),
                ran: vec![(Gpl, true), (GplNoCe, true), (Kbe, true), (Kbe, false)],
                stats: RecoveryStats {
                    fallbacks: 3,
                    wasted_cycles: 3 * COST,
                    faults: vec![soft.clone(); 3],
                    degraded_to: Some(Kbe),
                    ..Default::default()
                },
            },
            Case {
                name: "Ocelot exhausts: KBE, then disarmed KBE",
                from: Ocelot,
                policy: Some(policy(0)),
                last_resort: true,
                budget: None,
                script: vec![Some(ExecError::Fault(soft.clone())); 2],
                want: Ok(Kbe),
                ran: vec![(Ocelot, true), (Kbe, true), (Kbe, false)],
                stats: RecoveryStats {
                    fallbacks: 2,
                    wasted_cycles: 2 * COST,
                    faults: vec![soft.clone(); 2],
                    degraded_to: Some(Kbe),
                    ..Default::default()
                },
            },
            Case {
                name: "no last resort: exhaustion surfaces for the caller to degrade",
                from: Gpl,
                policy: Some(policy(0)),
                last_resort: false,
                budget: None,
                script: vec![Some(ExecError::Fault(soft.clone())); 3],
                want: Err(ExecError::Fault(soft.clone())),
                ran: vec![(Gpl, true), (GplNoCe, true), (Kbe, true)],
                stats: RecoveryStats {
                    fallbacks: 2,
                    wasted_cycles: 3 * COST,
                    faults: vec![soft.clone(); 3],
                    degraded_to: Some(Kbe),
                    ..Default::default()
                },
            },
            Case {
                name: "a query error propagates at once, unrecorded",
                from: Gpl,
                policy: Some(policy(2)),
                last_resort: true,
                budget: None,
                script: vec![Some(deadlock.clone())],
                want: Err(deadlock),
                ran: vec![(Gpl, true)],
                stats: RecoveryStats::default(),
            },
            Case {
                name: "no policy: one unrecorded attempt",
                from: Gpl,
                policy: None,
                last_resort: true,
                budget: None,
                script: vec![Some(ExecError::Fault(soft.clone()))],
                want: Err(ExecError::Fault(soft.clone())),
                ran: vec![(Gpl, true)],
                stats: RecoveryStats::default(),
            },
        ];

        let db = std::sync::Arc::new(gpl_tpch::TpchDb::at_scale(0.001));
        let spent = Spent {
            walls: 50,
            wasted0: 0,
        };
        for case in cases {
            let mut ctx = ExecContext::with_shared(gpl_sim::amd_a10(), db.clone());
            ctx.sim.attach_faults(FaultPlan::new(FaultSpec::none(), 1));
            let limits = ExecLimits {
                max_cycles: case.budget,
                cancel: None,
            };
            let ladder = Ladder {
                last_resort: case.last_resort,
                ..Ladder::new(case.policy.as_ref(), case.from, &limits, spent)
            };
            let mut script = case.script.into_iter();
            let mut ran = Vec::new();
            let mut hooked = 0;
            let mut stats = RecoveryStats::default();
            let got = ladder.run(
                &mut ctx,
                &mut stats,
                |ctx, mode| {
                    ran.push((mode, ctx.sim.faults_armed()));
                    ctx.sim.advance(COST);
                    script.next().flatten().map_or(Ok(()), Err)
                },
                |_, _| hooked += 1,
            );
            assert_eq!(got.map(|((), mode)| mode), case.want, "{}", case.name);
            assert_eq!(ran, case.ran, "{}", case.name);
            assert_eq!(stats, case.stats, "{}", case.name);
            assert_eq!(
                hooked,
                stats.faults.len(),
                "{}: one hook per fault",
                case.name
            );
            assert!(ctx.sim.faults_armed(), "{}: injection re-armed", case.name);
        }
    }

    #[test]
    fn ladder_degrades_toward_kbe() {
        let p = RecoveryPolicy::default();
        assert_eq!(
            p.ladder(ExecMode::GplPipelined),
            vec![
                ExecMode::GplPipelined,
                ExecMode::Gpl,
                ExecMode::GplNoCe,
                ExecMode::Kbe
            ]
        );
        assert_eq!(
            p.ladder(ExecMode::Gpl),
            vec![ExecMode::Gpl, ExecMode::GplNoCe, ExecMode::Kbe]
        );
        assert_eq!(
            p.ladder(ExecMode::GplNoCe),
            vec![ExecMode::GplNoCe, ExecMode::Kbe]
        );
        assert_eq!(p.ladder(ExecMode::Kbe), vec![ExecMode::Kbe]);
        assert_eq!(
            p.ladder(ExecMode::Ocelot),
            vec![ExecMode::Ocelot, ExecMode::Kbe]
        );
    }
}
