//! `paper_modes`: the hand plans of every workload query run directly —
//! no server, one thread — under KBE, GPL w/o CE, GPL, GPL pipelined and
//! the Ocelot baseline. The same simulator and operators, used three
//! ways: materialise-and-replay, channels, fused launches. The paper's
//! own claims (GPL over KBE, Eq. 8 error) are computed here.

use crate::byhand::{self, Executed, Planned, MODES};
use crate::probes;
use crate::report::{ModeAgg, Report};
use crate::served::{host_metrics, setup_metric, Timed, SETUP_REPEATS};
use crate::trace::{self, Tracer};
use crate::util::{fingerprint, geomean, median, ms};
use gpl_core::{plan_for, ExecContext, ExecMode};
use gpl_model::{evaluate, GammaTable};
use gpl_obs::Recorder;
use gpl_ocelot::OcelotContext;
use gpl_prng::{Rng, SeedableRng, StdRng};
use gpl_sim::DeviceSpec;
use gpl_tpch::{reference, QueryId, QueryOutput, TpchDb};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Engine {
    Mode(ExecMode),
    Ocelot,
}

const ENGINES: [Engine; 5] = [
    Engine::Mode(ExecMode::Kbe),
    Engine::Mode(ExecMode::GplNoCe),
    Engine::Mode(ExecMode::Gpl),
    Engine::Mode(ExecMode::GplPipelined),
    Engine::Ocelot,
];

struct Query {
    id: QueryId,
    /// Eq. 8-tuned configuration shared by the sequential modes and
    /// Ocelot.
    tuned: Planned,
    /// The same with the overlap post-pass applied, for `GplPipelined`.
    pipelined: Planned,
    expected: QueryOutput,
    reference_ms: f64,
}

struct Env {
    db: Arc<TpchDb>,
    spec: DeviceSpec,
    gamma: GammaTable,
    queries: Vec<Query>,
    dbgen_s: f64,
}

/// Database, Γ calibration, Eq. 8 search per query and mode family, and
/// the CPU reference outputs. Planning spans land in `tr` (request id =
/// query index).
fn setup(tr: &mut Tracer, smoke: bool) -> Env {
    let t = Instant::now();
    let db = Arc::new(TpchDb::at_scale(if smoke { 0.005 } else { 0.1 }));
    let dbgen_s = t.elapsed().as_secs_f64();
    let spec = gpl_sim::amd_a10();
    let gamma = GammaTable::calibrate(&spec);
    let queries = QueryId::all()
        .into_iter()
        .enumerate()
        .map(|(i, id)| {
            let req = i as u64;
            let plan = |tr: &mut Tracer, mode| {
                byhand::tune(tr, req, &db, &spec, &gamma, plan_for(&db, id), mode)
            };
            let tuned = plan(tr, ExecMode::Gpl);
            // Planned with spans off: the pipelined plan repeats the
            // same search, and would double every planning metric.
            let pipelined = plan(&mut Tracer::new(false), ExecMode::GplPipelined);
            let t = Instant::now();
            let expected = reference::run(&db, id);
            Query {
                id,
                tuned,
                pipelined,
                expected,
                reference_ms: ms(t.elapsed()),
            }
        })
        .collect();
    Env {
        db,
        spec,
        gamma,
        queries,
        dbgen_s,
    }
}

impl Env {
    /// One engine run of one query on a fresh context: the operation
    /// this workload counts.
    fn op(&self, tr: &mut Tracer, q: usize, engine: Engine) -> Result<Executed, String> {
        let query = &self.queries[q];
        let req = q as u64;
        match engine {
            Engine::Mode(mode) => {
                let p = if mode == ExecMode::GplPipelined {
                    &query.pipelined
                } else {
                    &query.tuned
                };
                byhand::exec(tr, req, &self.spec, &self.db, p, mode, None, None)
                    .map_err(|e| e.to_string())
            }
            Engine::Ocelot => Ok(tr.span("ocelot.exec", req, |_| {
                let mut ctx = ExecContext::with_shared(self.spec.clone(), self.db.clone());
                let plan = &query.tuned.plan;
                let run = gpl_ocelot::run_query(&mut ctx, &mut OcelotContext::new(), plan);
                byhand::executed(&self.db, plan, run)
            })),
        }
    }
}

struct Op {
    round: usize,
    q: usize,
    engine: Engine,
    run: Executed,
    latency: Duration,
    done_at: Duration,
}

/// Cycles and rows fingerprint of every (query, engine) pair run so far.
type Seen = HashMap<(usize, Engine), (u64, u64)>;

impl Env {
    /// One operation, timed and checked: rows equal the CPU reference,
    /// cycles and rows equal every earlier run of the pair.
    fn checked_op(
        &self,
        tr: &mut Tracer,
        q: usize,
        engine: Engine,
        seen: &mut Seen,
        r: &mut Report,
    ) -> Option<(Executed, Duration)> {
        let t = Instant::now();
        let outcome = tr.span("request", q as u64, |tr| self.op(tr, q, engine));
        let latency = t.elapsed();
        r.attempted += 1;
        let name = self.queries[q].id.name();
        let run = match outcome {
            Ok(run) => run,
            Err(e) => {
                r.fail(format!("{name}: {e}"));
                return None;
            }
        };
        if run.output != self.queries[q].expected {
            r.fail(format!("{name}: rows differ from the CPU reference"));
            return None;
        }
        let facts = (run.cycles, fingerprint(&run.output));
        if *seen.entry((q, engine)).or_insert(facts) != facts {
            r.nondeterministic(format!("{name}: cycles or rows changed between runs"));
        }
        Some((run, latency))
    }

    /// Every (query, engine) pair once, in an order drawn from `rng`.
    fn round(&self, rng: &mut StdRng) -> Vec<(usize, Engine)> {
        let mut round: Vec<(usize, Engine)> = (0..self.queries.len())
            .flat_map(|q| ENGINES.map(|e| (q, e)))
            .collect();
        rng.shuffle(&mut round);
        round
    }
}

/// Whole rounds, spans off, until `seconds` have passed; at least one.
fn measure(env: &Env, seed: u64, seconds: f64, r: &mut Report) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tr = &mut Tracer::new(false);
    let mut seen = Seen::new();
    let mut ops = Vec::new();
    let start = Instant::now();
    for number in 0.. {
        for (q, engine) in env.round(&mut rng) {
            if let Some((run, latency)) = env.checked_op(tr, q, engine, &mut seen, r) {
                ops.push(Op {
                    round: number,
                    q,
                    engine,
                    run,
                    latency,
                    done_at: start.elapsed(),
                });
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    ops
}

/// One round, every operation twice: spans off and spans on (into `tr`),
/// in alternating order. Returns the spans-on operations and the host
/// nanoseconds of every pair.
fn traced_round(
    env: &Env,
    tr: &mut Tracer,
    seed: u64,
    r: &mut Report,
) -> (Vec<Op>, Vec<(f64, f64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let off = &mut Tracer::new(false);
    let mut seen = Seen::new();
    let (mut ops, mut off_on_ns) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for (i, (q, engine)) in env.round(&mut rng).into_iter().enumerate() {
        let mut both = [None, None];
        for side in [i % 2, 1 - i % 2] {
            let tracer = if side == 0 { &mut *off } else { &mut *tr };
            both[side] = env.checked_op(tracer, q, engine, &mut seen, r);
        }
        if let [Some((_, plain)), Some((run, latency))] = both {
            off_on_ns.push((plain.as_nanos() as f64, latency.as_nanos() as f64));
            ops.push(Op {
                round: 0,
                q,
                engine,
                run,
                latency,
                done_at: start.elapsed(),
            });
        }
    }
    (ops, off_on_ns)
}

/// Cycles per (query, engine), from the first round.
fn cycles_of(ops: &[Op]) -> HashMap<(usize, Engine), u64> {
    let mut m = HashMap::new();
    for op in ops {
        m.entry((op.q, op.engine)).or_insert(op.run.cycles);
    }
    m
}

/// Figure 11 / 24: relative error of the Eq. 8 estimate at each query's
/// model-chosen configuration, on a device profile.
fn model_errors(
    db: &Arc<TpchDb>,
    spec: &DeviceSpec,
    gamma: &GammaTable,
    set: [QueryId; 5],
) -> Vec<(QueryId, f64)> {
    let mut ctx = ExecContext::with_shared(spec.clone(), db.clone());
    set.into_iter()
        .map(|q| {
            let plan = plan_for(db, q);
            let out = gpl_model::optimize(spec, gamma, db, &plan);
            let eval = evaluate(&mut ctx, gamma, &plan, &out.config);
            (q, eval.relative_error)
        })
        .collect()
}

fn max_err(errs: &[(QueryId, f64)]) -> f64 {
    errs.iter().map(|e| e.1).fold(0.0, f64::max)
}

fn end_to_end(env: &Env, ops: &[Op], r: &mut Report) {
    // A round holds every operation once: it is the window.
    let timed: Vec<Timed> = ops
        .iter()
        .map(|o| Timed {
            window: o.round,
            latency_ms: ms(o.latency),
            done_at: o.done_at,
        })
        .collect();
    host_metrics(r, &timed);

    let cycles = cycles_of(ops);
    r.set("sim_cycles", cycles.values().map(|&c| c as f64).sum());
    let speedups: Vec<f64> = (0..env.queries.len())
        .filter_map(|q| {
            let kbe = cycles.get(&(q, Engine::Mode(ExecMode::Kbe)))?;
            let gpl = cycles.get(&(q, Engine::Mode(ExecMode::Gpl)))?;
            Some(*kbe as f64 / *gpl as f64)
        })
        .collect();
    r.set(
        "sim_speedup_gpl_over_kbe",
        geomean(&speedups).max(f64::MIN_POSITIVE),
    );
    let errs = model_errors(&env.db, &env.spec, &env.gamma, QueryId::evaluation_set());
    r.set("model_rel_err_max", max_err(&errs));
    r.set(
        "model_rel_err_mean",
        errs.iter().map(|e| e.1).sum::<f64>() / errs.len() as f64,
    );
}

fn per_layer(env: &Env, ops: &[Op], tr: &Tracer, r: &mut Report) {
    r.set("trace.coverage_frac", tr.coverage());

    // Planning spans come from the set-up of the traced pass.
    let med = |name: &str, per: f64| median(&tr.durations(name)) / per;
    r.set("model.stats_ms", med("model.stats", 1e6));
    r.set("model.build_models_us", med("model.build_models", 1e3));
    r.set("model.search_ms", med("model.search", 1e6));
    let evals: u64 = env.queries.iter().map(|q| q.tuned.evaluated as u64).sum();
    r.set("model.search_evals", evals as f64);
    let search_ns: f64 = tr.durations("model.search").iter().sum();
    r.set("model.search_ns_per_eval", search_ns / evals.max(1) as f64);
    r.set("core.lower_us", med("core.lower", 1e3));

    for (q, err) in model_errors(&env.db, &env.spec, &env.gamma, QueryId::evaluation_set()) {
        r.set(&format!("model.rel_err.{}", q.name()), err);
    }
    // Held back from tuning: the queries beyond the paper's evaluation.
    r.set(
        "model.rel_err_holdout_max",
        max_err(&model_errors(
            &env.db,
            &env.spec,
            &env.gamma,
            QueryId::extended_set(),
        )),
    );
    let nvidia = gpl_sim::nvidia_k40();
    r.set(
        "model.rel_err_max.nvidia",
        max_err(&model_errors(
            &env.db,
            &nvidia,
            &GammaTable::calibrate(&nvidia),
            QueryId::evaluation_set(),
        )),
    );

    // Host time per engine, from the spans-on round. Both span lists and
    // `ops` are in execution order.
    let exec_ns = tr.durations("core.exec");
    let mode_ops: Vec<&Op> = ops
        .iter()
        .filter(|o| matches!(o.engine, Engine::Mode(_)))
        .collect();
    assert_eq!(
        exec_ns.len(),
        mode_ops.len(),
        "one core.exec span per mode run"
    );
    let (mut events, mut launches, mut exec_total) = (0u64, 0u64, 0.0);
    let (mut gpl_ms, mut native_ms) = (0.0, 0.0);
    for mode in MODES {
        let key = byhand::mode_key(mode);
        let mut agg = ModeAgg::default();
        let (mut walls, mut rows) = (Vec::new(), 0u64);
        for (op, ns) in mode_ops.iter().zip(&exec_ns) {
            if op.engine != Engine::Mode(mode) {
                continue;
            }
            agg.add(&op.run.profiles);
            walls.push(ns / 1e6);
            rows += op.run.leaf_rows;
            events += op.run.events;
            launches += op.run.launches;
            exec_total += ns;
            if mode == ExecMode::Gpl {
                gpl_ms += ns / 1e6;
                native_ms += env.queries[op.q].reference_ms;
            }
        }
        agg.emit(r, key);
        r.set(&format!("core.exec_ms.{key}"), median(&walls));
        r.set(
            &format!("core.exec_ns_per_row.{key}"),
            walls.iter().sum::<f64>() * 1e6 / rows.max(1) as f64,
        );
    }
    r.set("core.exec_over_reference", gpl_ms / native_ms.max(1e-9));

    r.set("ocelot.exec_ms", med("ocelot.exec", 1e6));
    r.set(
        "ocelot.sim_cycles",
        ops.iter()
            .filter(|o| o.engine == Engine::Ocelot)
            .map(|o| o.run.cycles as f64)
            .sum(),
    );
    r.set("tpch.dbgen_s", env.dbgen_s);
    let reference: Vec<f64> = env.queries.iter().map(|q| q.reference_ms).collect();
    r.set("tpch.reference_ms", median(&reference));

    // gpl-obs: every query once more under GPL with a Recorder attached,
    // against the unrecorded GPL runs above.
    let (mut recorded_ms, mut spans) = (0.0, 0usize);
    for q in &env.queries {
        let rec = Recorder::new();
        let t = Instant::now();
        let mut ctx = ExecContext::with_shared(env.spec.clone(), env.db.clone());
        ctx.sim.attach_recorder(rec.clone());
        let run = gpl_core::run_query(&mut ctx, &q.tuned.plan, ExecMode::Gpl, &q.tuned.config);
        recorded_ms += ms(t.elapsed());
        r.attempted += 1;
        if run.output != q.expected {
            r.fail(format!(
                "{}: recorded run differs from reference",
                q.id.name()
            ));
        }
        spans += rec.dump().spans.len();
    }
    r.set(
        "obs.record_overhead_frac",
        recorded_ms / gpl_ms.max(1e-9) - 1.0,
    );
    r.set(
        "obs.spans_per_query",
        spans as f64 / env.queries.len() as f64,
    );

    probes::run(r, &env.spec, &env.db, events, launches, exec_total);
}

pub fn run(r: &mut Report, out: &Path) {
    r.notes
        .push("load: one thread calling the library, one engine run per operation".into());
    let smoke = r.smoke;
    if r.trace {
        // One set-up, its planning spans recorded; then one round.
        let mut tr = Tracer::new(true);
        let env = setup(&mut tr, smoke);
        let (ops, off_on_ns) = traced_round(&env, &mut tr, r.seed, r);
        trace::overhead(r, &off_on_ns);
        per_layer(&env, &ops, &tr, r);
        tr.write(out, r);
        return;
    }
    let timed_setup = || {
        let t = Instant::now();
        let env = setup(&mut Tracer::new(false), smoke);
        (env, t.elapsed().as_secs_f64())
    };
    let (env, first_setup_s) = timed_setup();
    let ops = measure(&env, r.seed, r.seconds, r);
    end_to_end(&env, &ops, r);
    // As in `served::run`: the other set-ups follow `peak_rss_mb`.
    drop(env);
    let mut setup_s = vec![first_setup_s];
    if !smoke {
        setup_s.extend((1..SETUP_REPEATS).map(|_| timed_setup().1));
    }
    setup_metric(r, setup_s);
}
