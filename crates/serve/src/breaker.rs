//! Per-device circuit breaking.
//!
//! Each worker owns one simulated device; a device that keeps faulting
//! should stop receiving traffic instead of burning every query's retry
//! budget. The breaker is the classic three-state machine, driven
//! entirely by *simulated* device cycles so transitions are
//! deterministic and testable:
//!
//! * **Closed** — normal operation. Consecutive device faults are
//!   counted; [`BreakerConfig::trip_after`] of them in a row trip the
//!   breaker open. Any success resets the streak.
//! * **Open** — requests are rejected without touching the device
//!   ([`crate::ServeError::CircuitOpen`]), each charging
//!   [`BreakerConfig::reject_cost_cycles`] to the worker's device clock
//!   so the cool-down makes progress even under pure rejection load.
//!   After [`BreakerConfig::open_cycles`] the breaker half-opens.
//! * **HalfOpen** — exactly one probe query is admitted. Success closes
//!   the breaker; a device fault re-opens it for another full cool-down.

/// Breaker tuning, in deterministic units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive device faults (per worker) that trip the breaker.
    pub trip_after: u32,
    /// Simulated device cycles the breaker stays open before admitting
    /// a half-open probe.
    pub open_cycles: u64,
    /// Device cycles charged to the worker's clock per rejected request
    /// (models the admission check; guarantees the cool-down elapses).
    pub reject_cost_cycles: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_after: 3,
            open_cycles: 1 << 22,
            reject_cost_cycles: 4_096,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// Cumulative transition counts, for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed/HalfOpen → Open transitions (trips and failed probes).
    pub opens: u64,
    /// Open → HalfOpen transitions (cool-down expiries).
    pub half_opens: u64,
    /// HalfOpen → Closed transitions (successful probes).
    pub closes: u64,
    /// Requests rejected while open.
    pub rejections: u64,
}

/// One breaker state change, stamped with the owning worker's device
/// clock. Which worker saw which query is a scheduling accident, so a
/// multi-worker transition log is reproducible only per seed and worker
/// count; with one worker it is fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    pub worker: usize,
    /// Pool-device index when the transition belongs to one of a
    /// sharded worker's *per-device* breakers; `None` for the classic
    /// whole-worker breaker.
    pub device: Option<usize>,
    /// The worker's device-cycle clock at the transition.
    pub cycle: u64,
    pub from: BreakerState,
    pub to: BreakerState,
}

/// One worker's breaker: plain sequential state, no interior mutability
/// — the worker thread owns it.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_faults: u32,
    /// Device-clock reading when the breaker last opened.
    opened_at: u64,
    stats: BreakerStats,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_faults: 0,
            opened_at: 0,
            stats: BreakerStats::default(),
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    pub fn stats(&self) -> BreakerStats {
        self.stats
    }

    /// Gate one request at device-clock `now`. `false` means reject
    /// without executing (and charge the reject cost to the clock).
    pub fn admit(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.opened_at.saturating_add(self.cfg.open_cycles) {
                    self.state = BreakerState::HalfOpen;
                    self.stats.half_opens += 1;
                    true
                } else {
                    self.stats.rejections += 1;
                    false
                }
            }
        }
    }

    /// The admitted query completed without a device fault.
    pub fn on_success(&mut self) {
        self.consecutive_faults = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            self.stats.closes += 1;
        }
    }

    /// The admitted query died of (or absorbed retries into) a device
    /// fault at device-clock `now`.
    pub fn on_fault(&mut self, now: u64) {
        self.consecutive_faults += 1;
        match self.state {
            BreakerState::HalfOpen => {
                // Failed probe: straight back to open.
                self.state = BreakerState::Open;
                self.opened_at = now;
                self.stats.opens += 1;
            }
            BreakerState::Closed if self.consecutive_faults >= self.cfg.trip_after => {
                self.state = BreakerState::Open;
                self.opened_at = now;
                self.stats.opens += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            trip_after: 3,
            open_cycles: 1_000,
            reject_cost_cycles: 100,
        }
    }

    #[test]
    fn trips_after_consecutive_faults_only() {
        let mut b = CircuitBreaker::new(cfg());
        b.on_fault(10);
        b.on_fault(20);
        b.on_success(); // streak broken
        b.on_fault(30);
        b.on_fault(40);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_fault(50);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().opens, 1);
    }

    #[test]
    fn open_rejects_until_cooldown_then_half_opens() {
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.on_fault(500);
        }
        assert!(!b.admit(600), "still cooling down");
        assert!(!b.admit(1_499));
        assert_eq!(b.stats().rejections, 2);
        assert!(b.admit(1_500), "cool-down over: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.stats().half_opens, 1);
    }

    #[test]
    fn half_open_probe_outcome_decides() {
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.on_fault(0);
        }
        assert!(b.admit(1_000));
        b.on_fault(1_100); // failed probe
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(1_200), "new full cool-down from the re-open");
        assert!(b.admit(2_100));
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats().closes, 1);
        assert!(b.admit(2_200), "closed admits freely");
    }
}
