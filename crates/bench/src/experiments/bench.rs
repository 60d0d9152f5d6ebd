//! `repro bench`: aggregate every `target/obs/BENCH_*.json` artifact
//! into one trajectory table, sourced *only* from the artifacts (no
//! re-execution) — so the table is byte-identical for identical
//! artifact sets and can be diffed across commits. The pins themselves
//! are the committed `BENCH_<experiment>.json` files at the repo root,
//! byte-compared by `repro verify`.

use crate::artifact::{validate, OUT_DIR, SCHEMA};
use gpl_obs::parse;

pub const DESCRIPTION: &str = "aggregate BENCH_*.json artifacts into one trajectory table";

/// One run row.
struct Row {
    experiment: String,
    label: String,
    mode: String,
    cycles: u64,
    rows: u64,
    fingerprint: String,
    drift_max: Option<f64>,
}

/// Load, parse-check and validate every `BENCH_*.json`, in name order.
/// Returns `(artifact file names, run rows)`; exits on a malformed file
/// — a bad artifact is a bug in the emitting experiment.
fn load() -> (Vec<String>, Vec<Row>) {
    let mut names: Vec<String> = match std::fs::read_dir(OUT_DIR) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(_) => Vec::new(),
    };
    names.sort();
    let mut rows = Vec::new();
    for name in &names {
        let path = format!("{OUT_DIR}/{name}");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        });
        let j = parse(&text).unwrap_or_else(|e| {
            eprintln!("{path}: does not parse: {e}");
            std::process::exit(1);
        });
        if let Err(e) = validate(&j) {
            eprintln!("{path}: not a {SCHEMA} artifact: {e}");
            std::process::exit(1);
        }
        let experiment = j.get("experiment").unwrap().as_str().unwrap().to_string();
        for r in j.get("runs").unwrap().as_arr().unwrap() {
            rows.push(Row {
                experiment: experiment.clone(),
                label: r.get("label").unwrap().as_str().unwrap().to_string(),
                mode: r.get("mode").unwrap().as_str().unwrap().to_string(),
                cycles: r.get("cycles").unwrap().as_f64().unwrap() as u64,
                rows: r.get("rows").unwrap().as_f64().unwrap() as u64,
                fingerprint: r.get("fingerprint").unwrap().as_str().unwrap().to_string(),
                drift_max: r
                    .get("drift")
                    .and_then(|d| d.get("max_cycles_err"))
                    .and_then(|v| v.as_f64()),
            });
        }
    }
    (names, rows)
}

pub fn bench() {
    let (names, rows) = load();
    if names.is_empty() {
        println!("no BENCH_*.json artifacts under {OUT_DIR}/; run some experiments first");
        return;
    }
    println!(
        "trajectory across {} artifact(s), {} run(s):",
        names.len(),
        rows.len()
    );
    println!(
        "\n{:<12} {:<12} {:<14} {:>14} {:>8} {:<20} {:>10}",
        "experiment", "label", "mode", "cycles", "rows", "fingerprint", "drift max"
    );
    for r in &rows {
        let drift = r
            .drift_max
            .map(|d| format!("{d:.4}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<12} {:<12} {:<14} {:>14} {:>8} {:<20} {:>10}",
            r.experiment, r.label, r.mode, r.cycles, r.rows, r.fingerprint, drift
        );
    }
    println!("\nsourced only from {OUT_DIR}/BENCH_*.json (no re-execution):");
    for n in &names {
        println!("  {OUT_DIR}/{n}");
    }
}
