//! Runs every workload in `--smoke` mode, both ways, and holds what it
//! prints against `BENCHMARK.json`: same metric names, same units, and
//! the spec itself within the limits its schema sets.

use gpl_obs::Json;
use std::collections::BTreeSet;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_gpl-benchmark");

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    gpl_obs::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric under `key` in the spec.
fn declared(spec: &Json, key: &str) -> BTreeSet<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn spec_file_is_the_table_in_the_code() {
    let out = Command::new(BIN)
        .arg("--print-spec")
        .output()
        .expect("runs");
    assert!(out.status.success());
    let printed = gpl_obs::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(
        printed,
        spec(),
        "regenerate with: run.sh --print-spec > BENCHMARK.json"
    );
}

#[test]
fn spec_stays_within_its_schema() {
    let spec = spec();
    let e2e = declared(&spec, "end_to_end");
    let layers = declared(&spec, "per_layer");
    assert!(
        (1..=16).contains(&e2e.len()),
        "{} end-to-end metrics",
        e2e.len()
    );
    assert!(
        (1..=128).contains(&layers.len()),
        "{} per-layer metrics",
        layers.len()
    );
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let workloads = spec.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let mut names = BTreeSet::new();
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(
            why.chars().count() <= 200 && !why.contains('\n'),
            "{name}: why too long"
        );
        assert!(names.insert(name.to_string()), "{name} used twice");
    }
    for (name, unit) in e2e.iter().chain(&layers) {
        assert!(name_ok(name), "bad metric name {name:?}");
        assert!(names.insert(name.clone()), "{name} used twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?}"
        );
    }
    for m in spec.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

#[test]
fn smoke_run_prints_exactly_the_declared_metrics() {
    let spec = spec();
    let out_dir = std::env::temp_dir().join(format!("gpl-benchmark-smoke-{}", std::process::id()));
    for w in spec.get("workloads").and_then(Json::as_arr).unwrap() {
        let workload = w.get("name").and_then(Json::as_str).unwrap();
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(BIN)
                .args(["--workload", workload, "--trace", trace, "--smoke", "--out"])
                .arg(&out_dir)
                .output()
                .expect("runs");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed:\n{stdout}"
            );
            assert!(stdout.contains("NOT comparable"), "smoke runs say so");
            let last = gpl_obs::parse(stdout.lines().last().unwrap()).expect("result line");
            let Json::Obj(members) = &last else {
                panic!("result line is an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let Some(Json::Obj(metrics)) = last.get("metrics") else {
                panic!("metrics is an object")
            };
            let printed: BTreeSet<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{name} has a number"
                    );
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(printed, declared(&spec, key), "{workload} trace={trace}");
            // Every name also appears in the table printed above the line.
            for (name, _) in &printed {
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.split_whitespace().next() == Some(name)),
                    "{name} missing from the table"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}
