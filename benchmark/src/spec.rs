//! The benchmark's vocabulary: workloads, metric names, units, direction
//! and regression bounds. `BENCHMARK.json` at the repository root is this
//! table printed by `--print-spec`; `tests/smoke.rs` keeps the two equal.

use gpl_obs::Json;

/// How long one run measures, in seconds (the `run_seconds` of the spec).
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "corpus_warm",
        why: "SF 0.1 corpus SQL via the server, plan cache warm: executor row work and the simulator do all the work, planning none; lineitem exceeds the modelled 4 MB L2",
    },
    Workload {
        name: "adhoc_cold",
        why: "SF 0.02 unique ad-hoc SQL, every request misses both caches: parse/join-order/stats/Eq.8 search are ~28% of busy time and per-request serve overhead shows; data fits the modelled L2",
    },
    Workload {
        name: "paper_modes",
        why: "SF 0.1 hand plans run directly under KBE, GPL w/o CE, GPL, pipelined GPL and Ocelot: replay vs channels vs fused launches. Eq. 8 error is model vs simulator; the simulator is unvalidated on silicon",
    },
    Workload {
        name: "shard_chaos",
        why: "SF 0.1 corpus SQL sharded 4-way over the CPU/GPU pool under injected faults and slowdowns: second driver, placement, merge, hedging and recovery loops, idle in the other three",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
    /// Deterministic-plane value (simulated cycles, modelled ratios,
    /// counts): repeats to the last digit for any seed and host, so a
    /// later claim may rest on it as a count.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact,
    }
}

use Better::{Higher, Lower};

/// The three timings carry the widest bound the driver's contract allows
/// and not ISSUE 12's 10%: the driver refuses a benchmark whose ten-run
/// spread exceeds a metric's bound, and on the shared two-core host this
/// was written on a neighbour slows one commit by 10–35% for seconds or
/// minutes at a time. Reported as the fast-side quartile of a run's
/// windows they still spread by 9–11% when such a spell covers half the
/// runs (README, "Noise and the bounds"). `peak_rss_mb` spreads by 1–5%,
/// on `adhoc_cold` (two worker arenas over a 14 MB database) by up to
/// 7.5%: 15% is the same factor of two above that.
pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("queries_per_s", "1/s", Higher, 0.25, false),
    e2e("wall_ms_p50", "ms", Lower, 0.25, false),
    e2e("wall_ms_p95", "ms", Lower, 0.25, false),
    e2e("peak_rss_mb", "MB", Lower, 0.15, false),
    e2e("sim_cycles", "cycles", Lower, 0.01, true),
    e2e("sim_speedup_gpl_over_kbe", "ratio", Higher, 0.01, true),
    e2e("model_rel_err_max", "ratio", Lower, 0.05, true),
    e2e("model_rel_err_mean", "ratio", Lower, 0.05, true),
];

/// Mode suffixes of the per-mode metrics, in `ExecMode` order.
pub const MODE_KEYS: [&str; 4] = ["kbe", "gpl-noce", "gpl", "gpl-pipelined"];

pub const PER_LAYER: [Metric; 101] = [
    // gpl-sql
    layer("sql.parse_us", "us", Lower, false),
    layer("sql.compile_us", "us", Lower, false),
    // gpl-model
    layer("model.joinopt_ms", "ms", Lower, false),
    layer("model.stats_ms", "ms", Lower, false),
    layer("model.build_models_us", "us", Lower, false),
    layer("model.search_ms", "ms", Lower, false),
    layer("model.search_evals", "count", Lower, true),
    layer("model.search_ns_per_eval", "ns", Lower, false),
    layer("model.plan_share", "ratio", Lower, false),
    layer("model.place_ms", "ms", Lower, false),
    layer("model.rel_err.Q5", "ratio", Lower, true),
    layer("model.rel_err.Q7", "ratio", Lower, true),
    layer("model.rel_err.Q8", "ratio", Lower, true),
    layer("model.rel_err.Q9", "ratio", Lower, true),
    layer("model.rel_err.Q14", "ratio", Lower, true),
    layer("model.rel_err_holdout_max", "ratio", Lower, true),
    layer("model.rel_err_max.nvidia", "ratio", Lower, true),
    // gpl-core
    layer("core.lower_us", "us", Lower, false),
    layer("core.exec_ms.kbe", "ms", Lower, false),
    layer("core.exec_ms.gpl-noce", "ms", Lower, false),
    layer("core.exec_ms.gpl", "ms", Lower, false),
    layer("core.exec_ms.gpl-pipelined", "ms", Lower, false),
    layer("core.exec_ns_per_row.kbe", "ns", Lower, false),
    layer("core.exec_ns_per_row.gpl-noce", "ns", Lower, false),
    layer("core.exec_ns_per_row.gpl", "ns", Lower, false),
    layer("core.exec_ns_per_row.gpl-pipelined", "ns", Lower, false),
    layer("core.exec_over_reference", "ratio", Lower, false),
    layer("core.expr_eval_ns_per_row", "ns", Lower, false),
    layer("core.ht_insert_ns", "ns", Lower, false),
    layer("core.ht_probe_ns", "ns", Lower, false),
    layer("core.group_update_ns_per_row", "ns", Lower, false),
    layer("core.shard_exec_ms", "ms", Lower, false),
    layer("core.recover.retries", "count", Lower, true),
    layer("core.recover.fallbacks", "count", Lower, true),
    layer("core.recover.hedges", "count", Lower, true),
    layer("core.recover.hedge_wins", "count", Lower, true),
    layer("core.recover.resumed_slices", "count", Lower, true),
    layer("core.recover.wasted_cycle_frac", "ratio", Lower, true),
    // gpl-sim: host cost of the simulator
    layer("sim.events", "count", Lower, true),
    layer("sim.launches", "count", Lower, true),
    layer("sim.events_per_s", "1/s", Higher, false),
    layer("sim.host_us_per_event", "us", Lower, false),
    layer("sim.engine_ns_per_event", "ns", Lower, false),
    layer("sim.channel_ns_per_packet", "ns", Lower, false),
    layer("sim.cache_ns_per_access.fit", "ns", Lower, false),
    layer("sim.cache_ns_per_access.spill", "ns", Lower, false),
    layer("sim.engine_share", "ratio", Lower, false),
    // gpl-sim: modelled components, per execution mode
    layer("sim.cache_hit_ratio.kbe", "ratio", Higher, true),
    layer("sim.cache_hit_ratio.gpl-noce", "ratio", Higher, true),
    layer("sim.cache_hit_ratio.gpl", "ratio", Higher, true),
    layer("sim.cache_hit_ratio.gpl-pipelined", "ratio", Higher, true),
    layer("sim.valu_busy.kbe", "ratio", Higher, true),
    layer("sim.valu_busy.gpl-noce", "ratio", Higher, true),
    layer("sim.valu_busy.gpl", "ratio", Higher, true),
    layer("sim.valu_busy.gpl-pipelined", "ratio", Higher, true),
    layer("sim.mem_unit_busy.kbe", "ratio", Higher, true),
    layer("sim.mem_unit_busy.gpl-noce", "ratio", Higher, true),
    layer("sim.mem_unit_busy.gpl", "ratio", Higher, true),
    layer("sim.mem_unit_busy.gpl-pipelined", "ratio", Higher, true),
    layer("sim.occupancy.kbe", "ratio", Higher, true),
    layer("sim.occupancy.gpl-noce", "ratio", Higher, true),
    layer("sim.occupancy.gpl", "ratio", Higher, true),
    layer("sim.occupancy.gpl-pipelined", "ratio", Higher, true),
    layer("sim.intermediate_bytes.kbe", "bytes", Lower, true),
    layer("sim.intermediate_bytes.gpl-noce", "bytes", Lower, true),
    layer("sim.intermediate_bytes.gpl", "bytes", Lower, true),
    layer("sim.intermediate_bytes.gpl-pipelined", "bytes", Lower, true),
    layer("sim.cycles_compute.kbe", "cycles", Lower, true),
    layer("sim.cycles_compute.gpl-noce", "cycles", Lower, true),
    layer("sim.cycles_compute.gpl", "cycles", Lower, true),
    layer("sim.cycles_compute.gpl-pipelined", "cycles", Lower, true),
    layer("sim.cycles_mem.kbe", "cycles", Lower, true),
    layer("sim.cycles_mem.gpl-noce", "cycles", Lower, true),
    layer("sim.cycles_mem.gpl", "cycles", Lower, true),
    layer("sim.cycles_mem.gpl-pipelined", "cycles", Lower, true),
    layer("sim.cycles_dc.kbe", "cycles", Lower, true),
    layer("sim.cycles_dc.gpl-noce", "cycles", Lower, true),
    layer("sim.cycles_dc.gpl", "cycles", Lower, true),
    layer("sim.cycles_dc.gpl-pipelined", "cycles", Lower, true),
    layer("sim.cycles_delay.kbe", "cycles", Lower, true),
    layer("sim.cycles_delay.gpl-noce", "cycles", Lower, true),
    layer("sim.cycles_delay.gpl", "cycles", Lower, true),
    layer("sim.cycles_delay.gpl-pipelined", "cycles", Lower, true),
    // gpl-ocelot
    layer("ocelot.exec_ms", "ms", Lower, false),
    layer("ocelot.sim_cycles", "cycles", Lower, true),
    // gpl-storage, gpl-tpch
    layer("storage.gather_ns_per_row", "ns", Lower, false),
    layer("tpch.dbgen_s", "s", Lower, false),
    layer("tpch.reference_ms", "ms", Lower, false),
    // gpl-obs
    layer("obs.record_overhead_frac", "ratio", Lower, false),
    layer("obs.spans_per_query", "count", Lower, true),
    // gpl-serve
    layer("serve.queue_ms_p50", "ms", Lower, false),
    layer("serve.plan_ms_p50", "ms", Lower, false),
    layer("serve.exec_ms_p50", "ms", Lower, false),
    layer("serve.overhead_ms_p50", "ms", Lower, false),
    layer("serve.plan_cache_hit_ratio", "ratio", Higher, false),
    layer("serve.search_cache_hit_ratio", "ratio", Higher, false),
    layer("serve.worker_utilization", "ratio", Higher, false),
    layer("serve.shed_count", "count", Lower, true),
    layer("serve.breaker_opens", "count", Lower, true),
    // the benchmark's own spans
    layer("trace.coverage_frac", "ratio", Higher, false),
    layer("trace.overhead_frac", "ratio", Lower, false),
];

fn metric_json(m: &Metric) -> Json {
    let mut pairs = vec![
        ("name", Json::Str(m.name.into())),
        ("unit", Json::Str(m.unit.into())),
        ("better", Json::Str(m.better.as_str().into())),
    ];
    if let Some(b) = m.bound {
        pairs.push(("bound", Json::Num(b)));
    }
    Json::obj(pairs)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str((*s).into())).collect());
    Json::obj(vec![
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}
