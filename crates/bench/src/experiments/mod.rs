//! The experiment registry: one entry per table/figure of the paper.
//!
//! Each experiment prints the same rows/series the paper reports, plus a
//! short note on what shape to expect. DESIGN.md carries the full
//! per-experiment index; EXPERIMENTS.md records paper-vs-measured.

pub mod bench;
pub mod breakdown;
pub mod calibration;
pub mod chaos;
pub mod faults;
pub mod intermediates;
pub mod model_eval;
pub mod modes;
pub mod pipeline;
pub mod profile;
pub mod serve;
pub mod shard;
pub mod utilization;
pub mod verify;

use crate::artifact::ArtifactSink;
use gpl_core::ExecContext;
use gpl_model::GammaTable;
use gpl_sim::{amd_a10, nvidia_k40, DeviceSpec};
use gpl_tpch::TpchDb;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Parsed command-line options shared by all experiments.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Scale-factor override (each experiment has its own default).
    pub sf: Option<f64>,
    /// Device: "amd" (default) or "nvidia".
    pub device: DeviceSpec,
    /// Positional arguments after the experiment name (e.g. the query
    /// for `repro profile q1`).
    pub extra: Vec<String>,
    /// Pin the `repro serve` sweep to one worker count.
    pub workers: Option<usize>,
    /// Workload size for `repro serve` (default: 22 requests).
    pub queries: Option<usize>,
    /// Where the experiment records its [`crate::artifact::BenchArtifact`]
    /// entries; the dispatcher writes `BENCH_<name>.json` on return.
    pub artifact: ArtifactSink,
}

impl Opts {
    pub fn sf_or(&self, default: f64) -> f64 {
        self.sf.unwrap_or(default)
    }

    pub fn ctx(&self, sf: f64) -> ExecContext {
        ExecContext::new(self.device.clone(), TpchDb::at_scale(sf))
    }

    /// The calibrated Γ table for the CLI device.
    pub fn gamma(&self) -> GammaTable {
        gamma_for(&self.device)
    }
}

/// The calibrated Γ table of `spec`, calibrated once per process (the
/// sharding experiments want one per pool device, several more than once).
pub(crate) fn gamma_for(spec: &DeviceSpec) -> GammaTable {
    static CACHE: OnceLock<Mutex<HashMap<String, GammaTable>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("gamma cache lock");
    map.entry(spec.name.clone())
        .or_insert_with(|| GammaTable::calibrate(spec))
        .clone()
}

/// One runnable experiment.
pub struct Experiment {
    pub name: &'static str,
    pub paper_ref: &'static str,
    pub description: &'static str,
    pub run: fn(&Opts),
}

/// Every experiment, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "table1",
            paper_ref: "Table 1",
            description: "hardware specification of the simulated devices",
            run: calibration::table1,
        },
        Experiment {
            name: "fig2",
            paper_ref: "Figure 2",
            description: "channel throughput vs data size and #channels (AMD)",
            run: calibration::fig2,
        },
        Experiment {
            name: "fig3",
            paper_ref: "Figure 3",
            description: "KBE intermediate size vs selectivity (Q14)",
            run: intermediates::fig3,
        },
        Experiment {
            name: "fig4",
            paper_ref: "Figure 4",
            description: "KBE communication cost vs selectivity (Q14)",
            run: intermediates::fig4,
        },
        Experiment {
            name: "fig5",
            paper_ref: "Figure 5",
            description: "GPU resource utilization under KBE",
            run: utilization::fig5,
        },
        Experiment {
            name: "fig7",
            paper_ref: "Figure 7",
            description: "KBE vs GPL query plans (Listing 1 and the workload)",
            run: modes::fig7,
        },
        Experiment {
            name: "timeline",
            paper_ref: "Figures 9+10",
            description: "traced per-kernel Gantt charts, KBE vs GPL (Q8)",
            run: modes::timeline,
        },
        Experiment {
            name: "fig11",
            paper_ref: "Figure 11",
            description: "model relative error per query (optimal config)",
            run: model_eval::fig11,
        },
        Experiment {
            name: "fig12",
            paper_ref: "Figures 12+13",
            description: "runtime and model error vs tile size (Q8)",
            run: model_eval::fig12_13,
        },
        Experiment {
            name: "fig14",
            paper_ref: "Figures 14+15",
            description: "model error and delay cost vs work-group settings S1..S7 (Q8)",
            run: model_eval::fig14_15,
        },
        Experiment {
            name: "fig16",
            paper_ref: "Figure 16",
            description: "KBE vs GPL (w/o CE) vs GPL runtimes",
            run: modes::fig16,
        },
        Experiment {
            name: "fig17",
            paper_ref: "Figure 17",
            description: "materialized intermediates, GPL normalized to KBE",
            run: intermediates::fig17,
        },
        Experiment {
            name: "fig18",
            paper_ref: "Figure 18",
            description: "GPL intermediate size vs selectivity (Q14)",
            run: intermediates::fig18,
        },
        Experiment {
            name: "fig19",
            paper_ref: "Figure 19",
            description: "GPU resource utilization, KBE vs GPL",
            run: utilization::fig19,
        },
        Experiment {
            name: "fig20",
            paper_ref: "Figure 20",
            description: "query execution time breakdown (Q8)",
            run: breakdown::fig20,
        },
        Experiment {
            name: "fig21",
            paper_ref: "Figure 21",
            description: "runtime vs data size (scale-factor sweep)",
            run: modes::fig21,
        },
        Experiment {
            name: "fig22",
            paper_ref: "Figure 22",
            description: "GPL vs Ocelot across scale factors",
            run: modes::fig22,
        },
        Experiment {
            name: "fig23",
            paper_ref: "Figure 23",
            description: "channel throughput calibration on the NVIDIA profile",
            run: calibration::fig23,
        },
        Experiment {
            name: "fig24",
            paper_ref: "Figure 24",
            description: "model relative error per query (NVIDIA)",
            run: model_eval::fig24,
        },
        Experiment {
            name: "fig25",
            paper_ref: "Figures 25+26",
            description: "runtime and model error vs tile size (Q8, NVIDIA)",
            run: model_eval::fig25_26,
        },
        Experiment {
            name: "fig27",
            paper_ref: "Figure 27",
            description: "GPL vs KBE normalized runtimes (NVIDIA)",
            run: modes::fig27,
        },
        Experiment {
            name: "fig28",
            paper_ref: "Figure 28",
            description: "resource utilization for Q8 (NVIDIA)",
            run: utilization::fig28,
        },
        Experiment {
            name: "fig29",
            paper_ref: "Figure 29",
            description: "execution-time breakdown for Q8 (NVIDIA)",
            run: breakdown::fig29,
        },
        Experiment {
            name: "faults",
            paper_ref: "robustness",
            description: "fault injection & recovery: goodput, fallbacks, breaker, shedding",
            run: faults::faults,
        },
        Experiment {
            name: "chaos",
            paper_ref: "robustness",
            description:
                "straggler defense: slowdown faults, speculative hedging, checkpoint resume",
            run: chaos::chaos,
        },
        Experiment {
            name: "serve",
            paper_ref: "serving",
            description: "multi-query scheduler: throughput and queue latency vs workers",
            run: serve::serve,
        },
        Experiment {
            name: "profile",
            paper_ref: "observability",
            description: "trace one query under all modes; Chrome-trace + metrics JSON export",
            run: profile::profile,
        },
        Experiment {
            name: "pipeline",
            paper_ref: "pipelining",
            description: "cross-segment overlap: modeled vs observed cycles, GPL vs pipelined",
            run: pipeline::pipeline,
        },
        Experiment {
            name: "shard",
            paper_ref: "multi-device",
            description: "heterogeneous CPU/GPU sharding: placement, modeled vs observed, scaling",
            run: shard::shard,
        },
    ]
}

/// Dispatch from raw CLI arguments.
pub fn dispatch(args: &[String]) {
    let mut name = None;
    let mut sf = None;
    let mut device = amd_a10();
    let mut extra = Vec::new();
    let mut workers = None;
    let mut queries = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sf" => {
                sf = args.get(i + 1).and_then(|v| v.parse().ok());
                i += 2;
            }
            "--workers" => {
                workers = args.get(i + 1).and_then(|v| v.parse().ok());
                i += 2;
            }
            "--queries" => {
                queries = args.get(i + 1).and_then(|v| v.parse().ok());
                i += 2;
            }
            "--device" => {
                device = match args.get(i + 1).map(String::as_str) {
                    Some("nvidia") => nvidia_k40(),
                    Some("amd") | None => amd_a10(),
                    Some(other) => {
                        eprintln!("unknown device {other:?}; use amd or nvidia");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            a if name.is_none() && !a.starts_with("--") => {
                name = Some(a.to_string());
                i += 1;
            }
            a if name.is_some() && !a.starts_with("--") => {
                extra.push(a.to_string());
                i += 1;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let opts = Opts {
        sf,
        device,
        extra,
        workers,
        queries,
        artifact: ArtifactSink::default(),
    };
    match name.as_deref() {
        None | Some("list") => {
            println!("repro — regenerate the paper's tables and figures\n");
            println!(
                "usage: repro <experiment|all|bench|verify> [args] [--sf <f>] [--device amd|nvidia]\n"
            );
            for e in registry() {
                println!("  {:<8} {:<14} {}", e.name, e.paper_ref, e.description);
            }
            println!(
                "  {:<8} {:<14} {}",
                "bench",
                "trajectory",
                bench::DESCRIPTION
            );
            println!("  {:<8} {:<14} {}", "verify", "pins", verify::DESCRIPTION);
        }
        Some("all") => {
            for e in registry() {
                println!(
                    "==================== {} ({}) ====================",
                    e.name, e.paper_ref
                );
                run_with_artifact(&e, &opts);
                println!();
            }
        }
        Some(n @ ("bench" | "verify")) if args.len() > 1 => {
            eprintln!("`repro {n}` takes no arguments");
            std::process::exit(2);
        }
        Some("bench") => bench::bench(),
        Some("verify") => verify::verify(),
        Some(n) => match registry().into_iter().find(|e| e.name == n) {
            Some(e) => run_with_artifact(&e, &opts),
            None => {
                eprintln!("unknown experiment {n:?}; run `repro list`");
                std::process::exit(2);
            }
        },
    }
}

/// Run one experiment with the artifact lifecycle around it: reset the
/// sink, run, then write the parse-checked `BENCH_<name>.json` — every
/// experiment emits an artifact, even one that records nothing.
fn run_with_artifact(e: &Experiment, opts: &Opts) {
    opts.artifact.begin(e.name, &opts.device.name);
    if let Some(sf) = opts.sf {
        opts.artifact.sf(sf);
    }
    (e.run)(opts);
    let path = opts.artifact.finish();
    println!("artifact: {path}");
}
