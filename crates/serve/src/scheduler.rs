//! The multi-query scheduler: a bounded pool of worker threads behind
//! one FIFO queue.
//!
//! Each worker owns its own simulators: it builds a fresh
//! [`ExecContext`] per pool device per query over the shared
//! `Arc<TpchDb>`, so a query's simulated cycle count is a pure function
//! of the request — never of which worker ran it, what ran before it, or
//! how many workers exist. That is the scheduler's determinism contract
//! (`tests/determinism.rs` pins it): concurrency changes wall-clock
//! latencies only.

use crate::breaker::{BreakerConfig, BreakerTransition, CircuitBreaker};
use crate::cache::PlanCache;
use crate::lock;
use crate::report::BatchReport;
use crate::request::{QueryRequest, QueryResponse, QueryResult, ServeError};
use gpl_core::shard::{run_pool, DevicePool, HedgePlan, PoolDevice, RunSpec, ShardPlan};
use gpl_core::{ExecContext, ExecError, ExecLimits, ExecMode, RecoveryPolicy};
use gpl_model::GammaTable;
use gpl_obs::Recorder;
use gpl_sim::DeviceSpec;
use gpl_tpch::TpchDb;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Seeded fault injection for every query the server runs: the pool's
/// seeded recipe, re-seeded per query by request id
/// ([`FaultConfig::for_request`]), so a query's fault schedule is a
/// pure function of (config seed, request id) — independent of worker
/// count and arrival order, like every other deterministic per-query
/// fact.
pub use gpl_core::shard::ShardFaults as FaultConfig;

/// Multi-device serving: run every query sharded across a heterogeneous
/// [`DevicePool`] instead of on the single worker device. The placement
/// pass (cached with the plan) picks CPU vs GPU per stage; shards
/// round-robin over live devices of the chosen class. A server without
/// one runs the one-device pool of its worker spec and Γ table, at one
/// shard and without hedging.
#[derive(Debug, Clone)]
pub struct ShardServeConfig {
    pub pool: DevicePool,
    /// One calibrated Γ table per pool device, in pool order.
    pub gammas: Vec<GammaTable>,
    /// Shard count, applied to every query.
    pub plan: ShardPlan,
    /// Straggler hedging: shards observed past `modeled × threshold`
    /// cycles get a speculative backup on the modeled-cheapest other
    /// live device (the modeled costs come from the cached placement).
    /// Per-query cycle budgets ([`QueryRequest::max_cycles`]) gate the
    /// duplicate launch. `None` disables hedging.
    pub hedge_threshold: Option<f64>,
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each owns one simulator at a time).
    pub workers: usize,
    /// [`PlanCache`] capacity in entries.
    pub plan_cache_capacity: usize,
    /// Attach a per-query recorder to pool device 0's simulator and ship
    /// its dump in the response (merged into a multi-track trace by the
    /// batch report).
    pub record_traces: bool,
    /// Load shedding: reject submissions once the admission queue holds
    /// this many jobs ([`ExecError::Rejected`]). `None` = unbounded.
    pub max_queue_depth: Option<usize>,
    /// Inject seeded faults into every query's simulator.
    pub faults: Option<FaultConfig>,
    /// Recovery stack applied to every query (retries / degradation /
    /// last-resort KBE). `None` = first fault surfaces as an error.
    pub recovery: Option<RecoveryPolicy>,
    /// Circuit breakers over device faults: one per pool device per
    /// worker (one per worker without [`ServeConfig::sharding`]). A
    /// tripped device is excluded from that worker's next runs until it
    /// cools down; a query is rejected only when every device is open.
    pub breaker: Option<BreakerConfig>,
    /// Run queries sharded over a heterogeneous device pool. `None`
    /// (the default) runs them on a one-device pool of the worker spec
    /// and Γ table, at one shard — the classic single-device server.
    pub sharding: Option<ShardServeConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            plan_cache_capacity: 64,
            record_traces: false,
            max_queue_depth: None,
            faults: None,
            recovery: None,
            breaker: None,
            sharding: None,
        }
    }
}

struct Job {
    req: QueryRequest,
    submitted: Instant,
}

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    db: Arc<TpchDb>,
    /// The pool every query plans and runs over: `config.sharding`,
    /// taken out of `config`, or the one-device pool without it.
    sharding: ShardServeConfig,
    plans: Arc<PlanCache>,
    queue: Mutex<Queue>,
    available: Condvar,
    config: ServeConfig,
    /// The `(queued, running, done)` gauges behind [`Server::gauges`].
    queued: AtomicU64,
    running: AtomicU64,
    done: AtomicU64,
    /// Requests rejected by load shedding / an open breaker (the
    /// response stream carries the structured errors; these are the
    /// cheap aggregate gauges).
    sheds: AtomicU64,
    breaker_rejections: AtomicU64,
    breaker_opens: AtomicU64,
    /// Cumulative wall-clock nanoseconds workers spent processing jobs
    /// (the wall-clock plane: non-deterministic, never fingerprinted),
    /// read through [`Server::busy_wall`].
    busy_wall_ns: AtomicU64,
    /// Breaker state changes across all workers, each stamped with the
    /// owning worker's device clock (fully deterministic with one
    /// worker).
    breaker_transitions: Mutex<Vec<BreakerTransition>>,
}

impl Shared {
    /// Breaker transitions name the device only when the pool has more
    /// than one, so an explicit one-device pool reads like a server
    /// without `sharding`.
    fn names_devices(&self) -> bool {
        self.sharding.pool.len() > 1
    }

    fn new(
        mut config: ServeConfig,
        spec: DeviceSpec,
        db: Arc<TpchDb>,
        gamma: Arc<GammaTable>,
    ) -> Self {
        let sharding = config.sharding.take().unwrap_or_else(|| ShardServeConfig {
            pool: DevicePool::new(vec![PoolDevice { spec }]),
            gammas: vec![GammaTable::clone(&gamma)],
            plan: ShardPlan::single(),
            hedge_threshold: None,
        });
        Shared {
            db,
            sharding,
            plans: Arc::new(PlanCache::new(config.plan_cache_capacity)),
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            config,
            queued: AtomicU64::new(0),
            running: AtomicU64::new(0),
            done: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            breaker_rejections: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            busy_wall_ns: AtomicU64::new(0),
            breaker_transitions: Mutex::new(Vec::new()),
        }
    }
}

/// The query server: owns the worker pool, the admission queue and the
/// shared [`PlanCache`].
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Producer side of the response stream, for responses that never
    /// reach a worker (shed at admission, drained at shutdown).
    tx: Sender<QueryResponse>,
    results: Mutex<Receiver<QueryResponse>>,
}

/// Why `config` cannot be deployed, if it cannot: every query builds a
/// `FaultPlan` from the fault spec, placement indexes `gammas` by pool
/// device, and hedging builds a [`HedgePlan`] from the threshold.
fn check_deployment(config: &ServeConfig) -> Result<(), String> {
    if let Some(fc) = &config.faults {
        fc.spec.validate().map_err(|e| e.to_string())?;
    }
    if let Some(sc) = &config.sharding {
        if sc.gammas.len() != sc.pool.len() {
            return Err(format!(
                "one gamma table per pool device: {} tables for {} devices",
                sc.gammas.len(),
                sc.pool.len()
            ));
        }
        if let Some(t) = sc.hedge_threshold {
            HedgePlan::check_threshold(t)?;
        }
    }
    Ok(())
}

/// The one response constructor: `result` as answered by `worker`, every
/// wall time zero and nothing planned, traced or recovered — callers
/// fill in what they measured with struct-update syntax.
fn response(
    worker: usize,
    (id, mode): (u64, ExecMode),
    result: Result<QueryResult, ServeError>,
) -> QueryResponse {
    QueryResponse {
        id,
        mode,
        result,
        plan_cache_hit: false,
        plan_wall: Default::default(),
        queue_wall: Default::default(),
        exec_wall: Default::default(),
        worker,
        trace: None,
        recovery: Default::default(),
    }
}

/// A response manufactured outside any worker (shed / drained).
fn synthetic_response(req: QueryRequest, err: ExecError) -> QueryResponse {
    response(usize::MAX, (req.id, req.mode), Err(ServeError::Exec(err)))
}

impl Server {
    /// Start `config.workers` workers over a shared database. Without
    /// [`ServeConfig::sharding`] they run a one-device pool of `spec` and
    /// the calibrated Γ table `gamma`, at one shard and without hedging.
    pub fn start(
        config: ServeConfig,
        spec: DeviceSpec,
        db: Arc<TpchDb>,
        gamma: Arc<GammaTable>,
    ) -> Self {
        // Deployment errors, caught at construction (not on the request
        // path).
        if let Err(e) = check_deployment(&config) {
            panic!("{e}");
        }
        let shared = Arc::new(Shared::new(config, spec, db, gamma));
        let (tx, rx) = channel();
        let workers = (0..shared.config.workers.max(1))
            .map(|idx| {
                let shared = shared.clone();
                let tx: Sender<QueryResponse> = tx.clone();
                std::thread::Builder::new()
                    .name(format!("gpl-serve-{idx}"))
                    .spawn(move || {
                        let mut devices = Devices::new(&shared);
                        worker_loop(idx, &shared, &tx, |job| {
                            run_job(idx, &shared, job, &mut devices)
                        })
                    })
                    .expect("spawn worker")
            })
            .collect();
        Server {
            shared,
            workers,
            tx,
            results: Mutex::new(rx),
        }
    }

    /// The shared plan cache (for stats and tests).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.shared.plans
    }

    /// Current `(queued, running, done)` gauge values.
    pub fn gauges(&self) -> (u64, u64, u64) {
        (
            self.shared.queued.load(Ordering::Relaxed),
            self.shared.running.load(Ordering::Relaxed),
            self.shared.done.load(Ordering::Relaxed),
        )
    }

    /// Enqueue one request.
    pub fn submit(&self, req: QueryRequest) {
        self.submit_all(std::iter::once(req));
    }

    /// Enqueue a batch atomically: the queue lock is held across every
    /// push, so no worker observes a partially-admitted batch. With one
    /// worker this makes the *execution order* of a batch fully
    /// deterministic: submit order.
    ///
    /// Load shedding happens here, under the same lock: once the queue
    /// holds [`ServeConfig::max_queue_depth`] jobs, further requests are
    /// answered immediately with [`ExecError::Rejected`] instead of
    /// queueing unboundedly. A shed response still arrives on the
    /// response stream, so `collect(n)` accounts for every submission.
    pub fn submit_all(&self, reqs: impl IntoIterator<Item = QueryRequest>) {
        let mut n = 0u64;
        let mut sheds = 0u64;
        {
            let mut q = lock(&self.shared.queue);
            for req in reqs {
                let depth = q.jobs.len();
                if let Some(bound) = self.shared.config.max_queue_depth {
                    if depth >= bound {
                        sheds += 1;
                        let shed = ExecError::Rejected {
                            queue_depth: depth as u64,
                            bound: bound as u64,
                        };
                        let _ = self.tx.send(synthetic_response(req, shed));
                        continue;
                    }
                }
                q.jobs.push_back(Job {
                    req,
                    submitted: Instant::now(),
                });
                n += 1;
            }
        }
        self.shared.queued.fetch_add(n, Ordering::Relaxed);
        self.shared.sheds.fetch_add(sheds, Ordering::Relaxed);
        self.shared.available.notify_all();
    }

    /// Collect `n` responses, blocking until all have arrived. Responses
    /// arrive in completion order (worker-count dependent).
    pub fn collect(&self, n: usize) -> Vec<QueryResponse> {
        // `Server` holds a sender of its own, so `recv` cannot fail while
        // `self` is alive; the `map_while` is for the type checker.
        let rx = lock(&self.results);
        (0..n).map_while(|_| rx.recv().ok()).collect()
    }

    /// Submit a batch, wait for every response, and return them sorted
    /// by request id — the deterministic view of a workload.
    pub fn run_batch(&self, reqs: Vec<QueryRequest>) -> Vec<QueryResponse> {
        let n = reqs.len();
        self.submit_all(reqs);
        let mut responses = self.collect(n);
        responses.sort_by_key(|r| r.id);
        responses
    }

    /// [`Server::run_batch`] wrapped into a [`BatchReport`] with the
    /// worker count and the shed and breaker counters.
    pub fn run_batch_report(&self, reqs: Vec<QueryRequest>) -> BatchReport {
        BatchReport {
            responses: self.run_batch(reqs),
            workers: self.workers.len(),
            sheds: self.shed_count(),
            breaker: self.breaker_counts(),
        }
    }

    /// Cumulative wall-clock time workers have spent processing jobs
    /// (across all workers, so it can exceed elapsed wall time).
    /// Wall-clock plane: host-dependent, never part of a fingerprint.
    pub fn busy_wall(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.shared.busy_wall_ns.load(Ordering::Relaxed))
    }

    /// Requests rejected so far by load shedding.
    pub fn shed_count(&self) -> u64 {
        self.shared.sheds.load(Ordering::Relaxed)
    }

    /// `(rejections, opens)` across every worker's circuit breaker.
    pub fn breaker_counts(&self) -> (u64, u64) {
        (
            self.shared.breaker_rejections.load(Ordering::Relaxed),
            self.shared.breaker_opens.load(Ordering::Relaxed),
        )
    }

    /// Every breaker state change so far, sorted by (device cycle,
    /// worker) for a stable view.
    pub fn breaker_transitions(&self) -> Vec<BreakerTransition> {
        let mut v = lock(&self.shared.breaker_transitions).clone();
        v.sort_by_key(|t| (t.cycle, t.worker));
        v
    }

    /// Stop accepting work, cancel whatever is still queued, join every
    /// worker, and return *all* outstanding responses — completed ones
    /// still buffered in the response stream plus a structured
    /// [`ExecError::Cancelled`] response for each drained job — sorted
    /// by id. Callers who submitted more than they collected therefore
    /// get an answer for every request instead of a hang.
    pub fn shutdown(mut self) -> Vec<QueryResponse> {
        let drained = self.shutdown_inner();
        let mut responses: Vec<QueryResponse> = drained
            .into_iter()
            .map(|job| synthetic_response(job.req, ExecError::Cancelled))
            .collect();
        {
            let rx = lock(&self.results);
            responses.extend(rx.try_iter());
        }
        responses.sort_by_key(|r| r.id);
        responses
    }

    /// Flip the shutdown flag and drain the queue *atomically* (one lock
    /// scope): a worker either popped a job before this ran, or finds an
    /// empty queue with the flag set and exits — no job is both drained
    /// here and executed there.
    fn shutdown_inner(&mut self) -> Vec<Job> {
        let drained: Vec<Job> = {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
            q.jobs.drain(..).collect()
        };
        self.shared
            .queued
            .fetch_sub(drained.len() as u64, Ordering::Relaxed);
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        drained
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One worker's view of its pool's devices: a circuit breaker each (none
/// without [`ServeConfig::breaker`]) and a device clock each — the
/// simulated cycles the device has executed, on success or error, plus
/// reject costs, driving its breaker's deterministic cool-down timer.
struct Devices {
    breakers: Vec<CircuitBreaker>,
    clocks: Vec<u64>,
}

impl Devices {
    fn new(shared: &Shared) -> Self {
        let n = shared.sharding.pool.len();
        let breakers = (shared.config.breaker.as_ref())
            .map_or_else(Vec::new, |cfg| vec![CircuitBreaker::new(cfg.clone()); n]);
        Devices {
            breakers,
            clocks: vec![0; n],
        }
    }
}

/// Pop jobs until shutdown, answering each exactly once: `body` runs the
/// job, and a panic inside it becomes a [`ServeError::Internal`]
/// response with the worker's slot freed, instead of a dead thread, a
/// stuck `running` gauge and a `collect` that never returns.
fn worker_loop(
    idx: usize,
    shared: &Shared,
    tx: &Sender<QueryResponse>,
    mut body: impl FnMut(Job) -> QueryResponse,
) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = (shared.available.wait(q)).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        shared.queued.fetch_sub(1, Ordering::Relaxed);
        shared.running.fetch_add(1, Ordering::Relaxed);
        let busy_t0 = Instant::now();
        let (who, submitted) = ((job.req.id, job.req.mode), job.submitted);
        // Unwind safety: what `body` can leave half-updated is this
        // worker's breakers and device clocks — plain counters, valid at
        // every step — and the shared state behind `lock`.
        let resp = catch_unwind(AssertUnwindSafe(|| body(job))).unwrap_or_else(|panic| {
            let msg = (panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            QueryResponse {
                queue_wall: submitted.elapsed(),
                ..response(idx, who, Err(ServeError::Internal(msg)))
            }
        });
        shared
            .busy_wall_ns
            .fetch_add(busy_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.running.fetch_sub(1, Ordering::Relaxed);
        shared.done.fetch_add(1, Ordering::Relaxed);
        if tx.send(resp).is_err() {
            // Server dropped the receiver; nothing left to report to.
            return;
        }
    }
}

/// What one query did on one device, as seen by that device's breaker.
#[derive(Debug, Clone, Copy, Default)]
struct DeviceOutcome {
    cycles: u64,
    /// Whether the query failed on a device fault and this device's
    /// simulator confirmed a failing fault.
    faulted: bool,
    /// Whether the device participated (breakers only hear from devices
    /// that actually ran or faulted; an idle device's streak is
    /// untouched).
    ran: bool,
}

/// The one job path: per-device breaker admission (a tripped device is
/// excluded; the query is rejected only when *every* device is open —
/// with one device, when its breaker does not admit), execution, and
/// per-device breaker feedback from each device's outcome.
fn run_job(idx: usize, shared: &Shared, job: Job, devices: &mut Devices) -> QueryResponse {
    let Devices { breakers, clocks } = devices;
    let named = shared.names_devices();
    let label = |d: usize| named.then_some(d);
    let excluded: Vec<bool> = (breakers.iter_mut().enumerate())
        .map(|(d, b)| {
            let before = b.state();
            let ok = b.admit(clocks[d]);
            record_transition(shared, idx, label(d), clocks[d], before, b.state());
            !ok
        })
        .collect();
    if let (Some(cfg), true) = (&shared.config.breaker, excluded.iter().all(|&x| x)) {
        for c in clocks.iter_mut() {
            *c += cfg.reject_cost_cycles;
        }
        shared.breaker_rejections.fetch_add(1, Ordering::Relaxed);
        return QueryResponse {
            queue_wall: job.submitted.elapsed(),
            ..response(
                idx,
                (job.req.id, job.req.mode),
                Err(ServeError::CircuitOpen),
            )
        };
    }
    let (resp, outcomes) = process(idx, shared, job, &excluded);
    for (d, o) in outcomes.iter().enumerate() {
        clocks[d] += o.cycles;
        let Some(b) = breakers.get_mut(d).filter(|_| o.ran) else {
            continue;
        };
        let opens_before = b.stats().opens;
        let before = b.state();
        if o.faulted {
            b.on_fault(clocks[d]);
        } else {
            b.on_success();
        }
        record_transition(shared, idx, label(d), clocks[d], before, b.state());
        shared
            .breaker_opens
            .fetch_add(b.stats().opens - opens_before, Ordering::Relaxed);
    }
    resp
}

/// Log one breaker state change (no-op when the state did not move).
fn record_transition(
    shared: &Shared,
    worker: usize,
    device: Option<usize>,
    cycle: u64,
    from: crate::breaker::BreakerState,
    to: crate::breaker::BreakerState,
) {
    if from != to {
        lock(&shared.breaker_transitions).push(BreakerTransition {
            worker,
            device,
            cycle,
            from,
            to,
        });
    }
}

/// Plan and run one job over a fresh context per pool device; returns
/// the response plus each device's outcome (the cycles its simulator
/// advanced — successful or not, wasted cycles count toward its clock —
/// and whether it faulted) for the caller's breakers. `excluded` is per
/// device, empty when no breaker is configured.
fn process(
    idx: usize,
    shared: &Shared,
    job: Job,
    excluded: &[bool],
) -> (QueryResponse, Vec<DeviceOutcome>) {
    let queue_wall = job.submitted.elapsed();
    let req = job.req;
    let sc = &shared.sharding;
    let plan_t0 = Instant::now();
    let planned = (shared.plans).get_or_place(
        &shared.db, &sc.pool, &sc.gammas, &req.sql, req.mode, &sc.plan,
    );
    let plan_wall = plan_t0.elapsed();
    let (entry, plan_cache_hit) = match planned {
        Ok(v) => v,
        Err(msg) => {
            let resp = QueryResponse {
                plan_wall,
                queue_wall,
                ..response(idx, (req.id, req.mode), Err(ServeError::Plan(msg)))
            };
            return (resp, vec![DeviceOutcome::default(); sc.pool.len()]);
        }
    };
    let exec_t0 = Instant::now();
    let limits = ExecLimits {
        max_cycles: req.max_cycles,
        cancel: req.cancel.clone(),
    };
    // A fresh context per device per query: fresh simulator clock, cold
    // data cache, private memory map — the isolation that makes cycles
    // per-query pure. Layout installation is cheap (region bookkeeping,
    // no copy).
    let new_ctx = |d: &PoolDevice| ExecContext::with_shared(d.spec.clone(), shared.db.clone());
    let mut ctxs: Vec<ExecContext> = sc.pool.devices().iter().map(new_ctx).collect();
    // Seeded per query id, not per worker: the fault schedule a query
    // sees is part of its deterministic identity.
    if let Some(fc) = &shared.config.faults {
        fc.for_request(req.id).attach(&mut ctxs);
    }
    let rec = shared.config.record_traces.then(Recorder::new);
    if let Some(r) = &rec {
        ctxs[0].sim.attach_recorder(r.clone());
    }
    // Straggler defense: the cached placement already scored every stage
    // on every device, so the hedge plan is a free projection of it. The
    // query's own cycle budget rides in via `limits`.
    let hedge = (sc.hedge_threshold).map(|t| gpl_model::hedge_plan(&entry.placement, t));
    let assignment = &entry.placement.assignment;
    let spec = RunSpec {
        plan: &entry.plan,
        mode: req.mode,
        shard: &sc.plan,
        anchors: &assignment.stage_device,
        configs: &assignment.configs,
        limits: &limits,
        recovery: shared.config.recovery.as_ref(),
        hedge: hedge.as_ref(),
    };
    let run = run_pool(&mut ctxs, &spec, excluded, None).map(|(run, _)| run);
    // Every device's clock is charged the cycles its simulator ran, on
    // success or error. A run that died on a device fault charges it to
    // each device whose simulator confirmed a failing fault (a rescinded
    // hazard fault is not counted): the device that faulted trips, the
    // ones that merely shared the query do not.
    let outcomes = (ctxs.iter().enumerate())
        .map(|(d, c)| {
            let (faulted, ran) = match &run {
                Ok(run) => (false, run.per_device[d].cycles > 0),
                Err(e) => {
                    let failed = (c.sim.fault_stats()).is_some_and(|f| f.total_failures() > 0);
                    let faulted = e.is_device_fault() && failed;
                    (faulted, faulted)
                }
            };
            let cycles = c.sim.clock();
            DeviceOutcome {
                cycles,
                faulted,
                ran,
            }
        })
        .collect();
    let (result, recovery) = match run {
        Ok(run) => {
            let result = QueryResult {
                output: run.output,
                cycles: run.cycles,
            };
            (Ok(result), run.recovery)
        }
        Err(e) => (Err(ServeError::Exec(e)), Default::default()),
    };
    let resp = QueryResponse {
        plan_cache_hit,
        plan_wall,
        queue_wall,
        exec_wall: exec_t0.elapsed(),
        trace: rec.map(|r| r.dump()),
        recovery,
        ..response(idx, (req.id, req.mode), result)
    };
    (resp, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic inside the job body is answered as `ServeError::Internal`
    /// with the slot freed, and the same worker serves the next job.
    #[test]
    fn a_panicking_job_is_answered_and_the_worker_serves_the_next_one() {
        let spec = gpl_sim::amd_a10();
        let gamma = GammaTable::calibrate_grid(&spec, vec![1], vec![16], vec![256 << 10]);
        let db = Arc::new(TpchDb::at_scale(0.001));
        let shared = Shared::new(ServeConfig::default(), spec, db, Arc::new(gamma));
        {
            let mut q = lock(&shared.queue);
            for id in [7, 8] {
                q.jobs.push_back(Job {
                    req: QueryRequest::new(id, "select 1", ExecMode::Gpl),
                    submitted: Instant::now(),
                });
            }
            // Queued jobs drain before the flag is honoured, so the loop
            // below returns once both are answered.
            q.shutdown = true;
        }
        shared.queued.store(2, Ordering::Relaxed);
        let (tx, rx) = channel();
        let mut calls = 0;
        worker_loop(3, &shared, &tx, |job| {
            calls += 1;
            if job.req.id == 7 {
                // Poison a shared lock on the way down, as a real panic
                // under `record_transition` would.
                let _guard = shared.breaker_transitions.lock().unwrap();
                panic!("boom in job {}", job.req.id);
            }
            response(3, (job.req.id, job.req.mode), Err(ServeError::CircuitOpen))
        });
        assert_eq!(calls, 2, "the worker survived the first job's panic");
        let answers: Vec<QueryResponse> = rx.try_iter().collect();
        assert_eq!(answers.len(), 2, "every submission answered exactly once");
        assert_eq!((answers[0].id, answers[0].worker), (7, 3));
        assert_eq!(
            answers[0].result,
            Err(ServeError::Internal("boom in job 7".to_string()))
        );
        assert_eq!(
            (answers[1].id, &answers[1].result),
            (8, &Err(ServeError::CircuitOpen))
        );
        let gauge = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!(
            (
                gauge(&shared.queued),
                gauge(&shared.running),
                gauge(&shared.done)
            ),
            (0, 0, 2)
        );
        assert!(shared.breaker_transitions.is_poisoned());
        assert!(
            lock(&shared.breaker_transitions).is_empty(),
            "poison is recovered"
        );
    }
}
