//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! gpl-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! gpl-benchmark [--seed N] [--seconds S] [--trace 0|1] [--runs K] [--smoke]
//! gpl-benchmark --compare a.json b.json
//! gpl-benchmark --print-spec
//! ```
//!
//! With `--workload` it runs that workload in this process and prints
//! every metric by name, the contract's JSON object last. Without, it
//! runs every workload — each run in a process of its own, so
//! `peak_rss_mb` is per workload — and writes `results.json`.

mod byhand;
mod compare;
mod paper;
mod probes;
mod report;
mod served;
mod spec;
mod trace;
mod util;

use gpl_obs::Json;
use report::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    runs: u64,
    smoke: bool,
    out: PathBuf,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("gpl-benchmark: {problem}");
    eprintln!(
        "usage: run.sh [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--runs K] [--smoke] [--out DIR]\n       run.sh --compare a.json b.json",
        spec::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn run_one(a: &Args, workload: &'static str, trace: bool) -> ExitCode {
    let seconds = if a.smoke { 0.0 } else { a.seconds };
    let mut r = Report::new(workload, a.seed, seconds, trace, a.smoke);
    match workload {
        "corpus_warm" => served::run(served::Kind::CorpusWarm, &mut r, &a.out),
        "adhoc_cold" => served::run(served::Kind::AdhocCold, &mut r, &a.out),
        "shard_chaos" => served::run(served::Kind::ShardChaos, &mut r, &a.out),
        "paper_modes" => paper::run(&mut r, &a.out),
        _ => unreachable!("workload names are checked while parsing"),
    }
    if let Err(e) = r.write_record(&a.out) {
        eprintln!("gpl-benchmark: {}: {e}", a.out.display());
    }
    r.print();
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each run in a child process; the children's records
/// are gathered into `results.json`.
fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let traces: &[bool] = match a.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut runs = Vec::new();
    let mut all_ok = true;
    for w in &spec::WORKLOADS {
        for &trace in traces {
            for i in 0..a.runs {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name])
                    .args(["--seed", &(a.seed + i).to_string()])
                    .args(["--seconds", &a.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&a.out);
                if a.smoke {
                    cmd.arg("--smoke");
                }
                // A record left by an earlier run must not pass for this one's.
                let record = a.out.join(format!("{}.trace{}.json", w.name, trace as u8));
                let _ = std::fs::remove_file(&record);
                // The child prints its own table; wait for it to end.
                if !cmd.status().is_ok_and(|s| s.success()) {
                    all_ok = false;
                    eprintln!("gpl-benchmark: {} trace={} FAILED", w.name, trace as u8);
                }
                match std::fs::read_to_string(&record)
                    .map_err(|e| e.to_string())
                    .and_then(|t| gpl_obs::parse(&t).map_err(|e| e.to_string()))
                {
                    Ok(j) => runs.push(j),
                    Err(e) => {
                        all_ok = false;
                        eprintln!("gpl-benchmark: {}: {e}", record.display());
                    }
                }
                println!();
            }
        }
    }
    let results = Json::obj(vec![
        ("benchmark", Json::Str("gpl-benchmark-v1".into())),
        ("comparable", Json::Bool(!a.smoke)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = a.out.join("results.json");
    match std::fs::write(&path, results.to_pretty_string()) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("gpl-benchmark: {}: {e}", path.display());
            all_ok = false;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        runs: 1,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i).map(String::as_str)
        };
        match flag {
            "--print-spec" => {
                print!("{}", spec::benchmark_json().to_pretty_string());
                return ExitCode::SUCCESS;
            }
            "--compare" => {
                return match (value(), value()) {
                    (Some(x), Some(y)) => compare::run(Path::new(x), Path::new(y)),
                    _ => usage("--compare takes two results files"),
                };
            }
            "--smoke" => a.smoke = true,
            "--workload" => {
                let Some(w) = value().and_then(|v| spec::WORKLOADS.iter().find(|w| w.name == v))
                else {
                    return usage("--workload takes one of the workload names");
                };
                a.workload = Some(w.name);
            }
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(v) => a.seed = v,
                None => return usage("--seed takes a whole number"),
            },
            // The driver's flag: it passes the spec's `run_seconds`.
            "--seconds" => match value().and_then(|v| v.parse().ok()) {
                Some(v) if (0.0..=120.0).contains(&v) => a.seconds = v,
                _ => return usage("--seconds takes a number from 0 to 120"),
            },
            "--trace" => match value() {
                Some("0") => a.trace = Some(false),
                Some("1") => a.trace = Some(true),
                _ => return usage("--trace takes 0 or 1"),
            },
            "--runs" => match value().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => a.runs = v,
                _ => return usage("--runs takes a whole number, at least 1"),
            },
            "--out" => match value() {
                Some(v) => a.out = PathBuf::from(v),
                None => return usage("--out takes a directory"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    match a.workload {
        Some(w) => run_one(&a, w, a.trace.unwrap_or(false)),
        None => run_all(&a),
    }
}
