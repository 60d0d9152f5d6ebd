//! `--compare a.json b.json`: two `results.json` files, row by row.
//!
//! Per (metric, workload): both medians, the ratio with its base, the
//! bound, and a verdict — `regressed` when b's median is worse than a's
//! by more than the bound, `unresolved` when the run-to-run spread on
//! either side is wider than the bound (so the comparison cannot say),
//! `ok` otherwise. Spread is the inter-quartile distance over the median
//! across a file's runs; a file with one run per workload falls back to
//! the quartiles over the windows of that run's measured phase.
//!
//! Run length is part of what a number means (a short run reaches fewer
//! windows and pools fewer samples), so files whose runs measured for
//! different `--seconds` are refused.

use crate::spec::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::util::{median, spread};
use gpl_obs::Json;
use std::path::Path;
use std::process::ExitCode;

struct Side {
    median: f64,
    spread: f64,
    runs: usize,
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    gpl_obs::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn side(results: &Json, workload: &str, metric: &str) -> Option<Side> {
    let runs: Vec<&Json> = results
        .get("runs")?
        .as_arr()?
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("metrics").is_some_and(|m| m.get(metric).is_some()))
        .collect();
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect();
    if values.is_empty() {
        return None;
    }
    let spread = if values.len() >= 2 {
        spread(&values)
    } else {
        let blocks: Vec<f64> = runs[0]
            .get("blocks")
            .and_then(|b| b.get(metric))
            .and_then(Json::as_arr)
            .map(|v| v.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        spread(&blocks)
    };
    Some(Side {
        median: median(&values),
        spread,
        runs: values.len(),
    })
}

/// Every `(trace, seconds)` the file's runs were made with.
fn run_lengths(results: &Json) -> Vec<(i64, f64)> {
    let mut lengths: Vec<(i64, f64)> = results
        .get("runs")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .filter_map(|r| {
            Some((
                r.get("trace")?.as_f64()? as i64,
                r.get("seconds")?.as_f64()?,
            ))
        })
        .collect();
    lengths.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
    lengths.dedup();
    lengths
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match m.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("gpl-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (la, lb) = (run_lengths(&a), run_lengths(&b));
    if la != lb || la.iter().zip(la.iter().skip(1)).any(|(x, y)| x.0 == y.0) {
        eprintln!(
            "gpl-benchmark: runs of different length do not compare: (trace, seconds) a = {la:?}, b = {lb:?}"
        );
        return ExitCode::from(2);
    }
    for (which, j) in [("a", &a), ("b", &b)] {
        if j.get("comparable") == Some(&Json::Bool(false)) {
            println!("# {which} is a smoke run: its numbers are NOT comparable");
        }
    }
    println!(
        "# a = {}  b = {}  ratio = b / a (base a)",
        a_path.display(),
        b_path.display()
    );
    let mut regressed = 0;
    for w in &WORKLOADS {
        println!("\n## {}", w.name);
        println!(
            "{:<38} {:>16} {:>16} {:>9} {:>6} {:>8}  verdict",
            "metric", "median a", "median b", "b/a", "bound", "spread"
        );
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let (Some(sa), Some(sb)) = (side(&a, w.name, m.name), side(&b, w.name, m.name)) else {
                continue;
            };
            let ratio = if sa.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", sb.median / sa.median)
            };
            let wider = sa.spread.max(sb.spread);
            let (bound, verdict) = match m.bound {
                None => ("-".to_string(), ""),
                Some(bound) => (
                    format!("{:.0}%", bound * 100.0),
                    if wider > bound {
                        "unresolved"
                    } else if worsening(m, sa.median, sb.median) > bound {
                        regressed += 1;
                        "regressed"
                    } else {
                        "ok"
                    },
                ),
            };
            println!(
                "{:<38} {:>16.6} {:>16.6} {:>9} {:>6} {:>7.2}%  {}{}",
                m.name,
                sa.median,
                sb.median,
                ratio,
                bound,
                wider * 100.0,
                verdict,
                if m.exact && sa.median != sb.median {
                    "  [exact metric differs]"
                } else {
                    ""
                }
            );
            if sa.runs != sb.runs {
                println!("#   ({} runs in a, {} in b)", sa.runs, sb.runs);
            }
        }
    }
    println!("\n# {regressed} regressed");
    if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
