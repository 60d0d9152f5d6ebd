//! Request/response types of the serving layer.

use gpl_core::{ExecError, ExecMode};
use gpl_obs::RecorderDump;
use gpl_tpch::QueryOutput;
use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// One SQL query submitted to the server.
#[derive(Clone)]
pub struct QueryRequest {
    /// Caller-chosen id, echoed in the response and used as the trace
    /// track prefix (`q{id}/`).
    pub id: u64,
    pub sql: String,
    pub mode: ExecMode,
    /// Per-query timeout in *simulated* cycles (deterministic), checked
    /// at stage boundaries.
    pub max_cycles: Option<u64>,
    /// Cooperative cancellation flag; raise it to abort between stages.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl QueryRequest {
    pub fn new(id: u64, sql: impl Into<String>, mode: ExecMode) -> Self {
        QueryRequest {
            id,
            sql: sql.into(),
            mode,
            max_cycles: None,
            cancel: None,
        }
    }

    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = Some(max_cycles);
        self
    }

    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }
}

/// Why a request failed. Planning errors carry the SQL front-end's
/// message; execution errors carry the structured [`ExecError`] with the
/// simulator's diagnostic intact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    Plan(String),
    Exec(ExecError),
    /// The worker's circuit breaker is open: the request was rejected
    /// without touching the device while its fault streak cools down.
    CircuitOpen,
    /// The worker panicked while running this request (a bug in this
    /// program, with the panic message). The worker survives and the
    /// request is answered, so `collect` never hangs on it.
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Plan(msg) => write!(f, "planning failed: {msg}"),
            ServeError::Exec(e) => write!(f, "execution failed: {e}"),
            // Deliberately carries no worker id: which worker rejected a
            // request is a scheduling accident, and this text feeds the
            // deterministic batch fingerprint.
            ServeError::CircuitOpen => {
                write!(f, "circuit breaker open: device cooling down after faults")
            }
            ServeError::Internal(msg) => write!(f, "internal error: worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The deterministic part of a successful execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    pub output: QueryOutput,
    /// Simulated device cycles — a pure function of (sql, mode, db,
    /// device), independent of worker count and queueing.
    pub cycles: u64,
}

/// The server's answer to one [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    pub id: u64,
    pub mode: ExecMode,
    pub result: Result<QueryResult, ServeError>,
    /// Whether planning was served from the [`crate::PlanCache`].
    pub plan_cache_hit: bool,
    /// Wall time spent planning (≈0 on a cache hit).
    pub plan_wall: Duration,
    /// Wall time from submission to a worker picking the query up.
    pub queue_wall: Duration,
    /// Wall time executing on the worker's simulator.
    pub exec_wall: Duration,
    /// Which worker ran the query (scheduling detail, non-deterministic).
    /// `usize::MAX` for responses manufactured off-worker (shed at
    /// admission, cancelled at shutdown).
    pub worker: usize,
    /// Per-query recorder dump when tracing was enabled.
    pub trace: Option<RecorderDump>,
    /// What the recovery stack absorbed for this query (all zeros on a
    /// fault-free run or when recovery is disabled).
    pub recovery: gpl_core::RecoveryStats,
}
