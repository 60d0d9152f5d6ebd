//! Structured execution errors.
//!
//! A single-query CLI can afford to abort on a stalled pipeline; a query
//! *server* cannot — one bad query must fail alone, with enough context
//! to debug it, while the worker that ran it moves on to the next
//! request. [`ExecError`] is that boundary: the simulator's deadlock
//! diagnostic is preserved verbatim, and the serving layer's per-query
//! cycle budget and cancellation surface here too.

use gpl_sim::FaultRecord;
use std::fmt;

/// Why a query execution stopped without producing a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The simulated pipeline stalled: every kernel blocked (or drained)
    /// with no completion event pending. Carries the device clock and
    /// the simulator's per-kernel / per-channel state dump.
    Deadlock { cycle: u64, diagnostic: String },
    /// The query exceeded its simulated-cycle budget. Deterministic by
    /// construction: the same query under the same budget always times
    /// out at the same stage boundary, regardless of wall-clock speed.
    Timeout {
        budget_cycles: u64,
        spent_cycles: u64,
    },
    /// The query's cancellation flag was raised between stages.
    Cancelled,
    /// A transient device fault (injected kernel fault or
    /// checksum-detected channel corruption) exhausted every retry and
    /// fallback. Carries the *last* structured fault record.
    Fault(FaultRecord),
    /// Load shedding: the admission queue was over its configured bound,
    /// so the request was rejected before execution (fast-fail instead
    /// of unbounded queueing latency).
    Rejected { queue_depth: u64, bound: u64 },
    /// A configuration does not fit what it configures (wg-count arity
    /// against the lowered IR, stage configs against the plan, a shard
    /// assignment against the pool). A caller bug, not a device fault —
    /// never retried.
    InvalidConfig(crate::segment::ConfigError),
    /// The plan itself is malformed (slot discipline, hash-table wiring,
    /// result shape). Rejected before anything launches.
    InvalidPlan(crate::plan::PlanError),
}

impl ExecError {
    /// The structured fault record, for the device-fault variant.
    pub fn fault_record(&self) -> Option<&FaultRecord> {
        match self {
            ExecError::Fault(r) => Some(r),
            _ => None,
        }
    }

    /// Whether this error indicates device misbehaviour (the class the
    /// serving layer's circuit breaker counts). Timeouts, cancellations
    /// and deadlocks are query problems, not device problems.
    pub fn is_device_fault(&self) -> bool {
        matches!(self, ExecError::Fault(_))
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Deadlock { cycle, diagnostic } => {
                write!(f, "simulator deadlock at cycle {cycle}:{diagnostic}")
            }
            ExecError::Timeout {
                budget_cycles,
                spent_cycles,
            } => write!(
                f,
                "query exceeded its cycle budget: {spent_cycles} spent of {budget_cycles} allowed"
            ),
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::Fault(r) => write!(f, "transient device fault: {r}"),
            ExecError::Rejected { queue_depth, bound } => write!(
                f,
                "admission rejected: queue depth {queue_depth} over bound {bound}"
            ),
            ExecError::InvalidConfig(e) => write!(f, "invalid stage config: {e}"),
            ExecError::InvalidPlan(e) => write!(f, "invalid plan: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<gpl_sim::DeadlockError> for ExecError {
    fn from(e: gpl_sim::DeadlockError) -> Self {
        ExecError::Deadlock {
            cycle: e.cycle,
            diagnostic: e.diagnostic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpl_sim::FaultKind;

    #[test]
    fn display_preserves_the_deadlock_diagnostic() {
        let e = ExecError::from(gpl_sim::DeadlockError {
            cycle: 618,
            diagnostic: "\n  kernel k_map blocked".into(),
        });
        let s = e.to_string();
        assert!(s.contains("cycle 618"));
        assert!(s.contains("k_map"), "{s}");
    }

    /// One representative of every variant — kept exhaustive by the
    /// match below, so adding a variant without extending this test
    /// fails to compile.
    fn all_variants() -> Vec<ExecError> {
        let record = |kind| gpl_sim::FaultRecord {
            kind,
            kernel: matches!(kind, FaultKind::KernelFault).then(|| "k_map".to_string()),
            cycle: 4242,
            launch: 3,
        };
        vec![
            ExecError::Deadlock {
                cycle: 618,
                diagnostic: "\n  kernel k_map blocked".into(),
            },
            ExecError::Timeout {
                budget_cycles: 10,
                spent_cycles: 25,
            },
            ExecError::Cancelled,
            ExecError::Fault(record(FaultKind::KernelFault)),
            ExecError::Rejected {
                queue_depth: 9,
                bound: 8,
            },
            ExecError::InvalidConfig(crate::segment::ConfigError::WgCounts {
                stage: "probe_lineitem".into(),
                kernels: 3,
                wg_counts: 2,
            }),
            ExecError::InvalidPlan(crate::plan::PlanError::Ht {
                stage: "probe_lineitem".into(),
                misuse: "probes unbuilt",
                ht: 1,
            }),
        ]
    }

    /// Round-trip: every variant's display text is non-empty, unique,
    /// stable across repeated formatting, and carries its structured
    /// payload (cycle counts, fault records) verbatim.
    #[test]
    fn display_is_exhaustive_and_round_trips() {
        let all = all_variants();
        let mut seen = std::collections::HashSet::new();
        for e in &all {
            // Exhaustiveness guard: a new variant must be added above.
            match e {
                ExecError::Deadlock { .. }
                | ExecError::Timeout { .. }
                | ExecError::Cancelled
                | ExecError::Fault(_)
                | ExecError::Rejected { .. }
                | ExecError::InvalidConfig(_)
                | ExecError::InvalidPlan(_) => {}
            }
            let s = e.to_string();
            assert!(!s.is_empty());
            assert_eq!(s, e.to_string(), "formatting must be pure");
            assert!(seen.insert(s.clone()), "duplicate display text: {s}");
            if let Some(r) = e.fault_record() {
                assert!(s.contains(&r.to_string()), "{s} must embed {r}");
                assert!(e.is_device_fault());
            }
        }
        assert!(all_variants()
            .iter()
            .any(|e| e.to_string().contains("queue depth 9 over bound 8")));
    }

    /// The satellite contract: `ExecError` composes with `?` outside
    /// the workspace via `std::error::Error`.
    #[test]
    fn composes_with_question_mark_as_dyn_error() {
        fn fails() -> Result<(), Box<dyn std::error::Error>> {
            Err(ExecError::Cancelled)?;
            Ok(())
        }
        let e = fails().unwrap_err();
        assert_eq!(e.to_string(), "query cancelled");
    }

    #[test]
    fn fault_records_map_to_their_variants() {
        let mk = |kind| gpl_sim::FaultRecord {
            kind,
            kernel: None,
            cycle: 1,
            launch: 0,
        };
        for kind in [FaultKind::KernelFault, FaultKind::ChannelCorrupt] {
            let e = ExecError::Fault(mk(kind));
            assert_eq!(e.fault_record(), Some(&mk(kind)));
            assert!(e.is_device_fault());
        }
        assert_eq!(ExecError::Cancelled.fault_record(), None);
        assert!(!ExecError::Cancelled.is_device_fault());
    }

    #[test]
    fn timeout_and_cancel_render() {
        let t = ExecError::Timeout {
            budget_cycles: 10,
            spent_cycles: 25,
        };
        assert!(t.to_string().contains("25 spent of 10"));
        assert_eq!(ExecError::Cancelled.to_string(), "query cancelled");
    }
}
