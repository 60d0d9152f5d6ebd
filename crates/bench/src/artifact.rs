//! The `BenchArtifact` schema: one byte-reproducible JSON per `repro`
//! experiment, under `target/obs/BENCH_<experiment>.json`.
//!
//! Every field is derived from simulated state — cycles, row counts,
//! FNV fingerprints, drift summaries — never wall-clock, so two runs of
//! the same experiment produce byte-identical artifacts and `repro
//! bench` can diff trajectories across commits. The schema is
//! versioned (`gpl-bench-artifact-v1`); [`validate`] is the gate the
//! dispatcher and the aggregator apply to every emitted file. The
//! artifacts of the experiments `repro verify` pins are committed at
//! the repo root and compared by bytes.
//!
//! Experiments do not write files themselves: the dispatcher hands each
//! one an [`ArtifactSink`] through `Opts`, collects what it recorded
//! ([`RunEntry`] per executed query, free-form facts for calibration
//! tables and sweeps), and writes the parse-checked artifact when the
//! experiment returns — so *every* experiment emits one, even if it
//! recorded nothing.

use gpl_obs::{parse, DriftSummary, Json};
use std::cell::RefCell;
use std::rc::Rc;

/// Schema tag checked by [`validate`].
pub const SCHEMA: &str = "gpl-bench-artifact-v1";
/// Where artifacts land, relative to the working directory.
pub const OUT_DIR: &str = "target/obs";

/// Stable lowercase key for an execution mode, used in artifact `mode`
/// fields and export file names.
pub fn mode_key(mode: gpl_core::ExecMode) -> &'static str {
    match mode {
        gpl_core::ExecMode::Kbe => "kbe",
        gpl_core::ExecMode::GplNoCe => "gpl-noce",
        gpl_core::ExecMode::Gpl => "gpl",
        gpl_core::ExecMode::GplPipelined => "gpl-pipelined",
        gpl_core::ExecMode::Ocelot => "ocelot",
    }
}

/// One executed query (or workload) inside an experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunEntry {
    /// Query or workload label, e.g. `Q9` or `serve-4w`.
    pub label: String,
    /// Execution mode key, e.g. `gpl-pipelined` (empty when the notion
    /// does not apply).
    pub mode: String,
    /// Observed simulated cycles.
    pub cycles: u64,
    /// Result rows.
    pub rows: u64,
    /// FNV-1a over the result rows (0 when not computed).
    pub fingerprint: u64,
    /// Predicted-vs-observed drift, when the experiment joined one.
    pub drift: Option<DriftSummary>,
    /// Experiment-specific extras (overlap windows, error percentages…).
    pub extra: Vec<(String, Json)>,
}

impl RunEntry {
    pub fn new(label: impl Into<String>, mode: impl Into<String>) -> Self {
        RunEntry {
            label: label.into(),
            mode: mode.into(),
            ..Default::default()
        }
    }

    pub fn cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }

    pub fn rows(mut self, rows: u64) -> Self {
        self.rows = rows;
        self
    }

    pub fn fingerprint(mut self, fp: u64) -> Self {
        self.fingerprint = fp;
        self
    }

    pub fn drift(mut self, summary: DriftSummary) -> Self {
        self.drift = Some(summary);
        self
    }

    pub fn extra(mut self, key: &str, value: Json) -> Self {
        self.extra.push((key.to_string(), value));
        self
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("label".to_string(), Json::Str(self.label.clone())),
            ("mode".to_string(), Json::Str(self.mode.clone())),
            ("cycles".to_string(), Json::Int(self.cycles as i64)),
            ("rows".to_string(), Json::Int(self.rows as i64)),
            (
                "fingerprint".to_string(),
                Json::Str(format!("{:#018x}", self.fingerprint)),
            ),
        ];
        if let Some(d) = &self.drift {
            pairs.push(("drift".to_string(), d.to_json()));
        }
        if !self.extra.is_empty() {
            pairs.push(("extra".to_string(), Json::Obj(self.extra.clone())));
        }
        Json::Obj(pairs)
    }
}

/// Everything one experiment reports.
#[derive(Debug, Clone, Default)]
pub struct BenchArtifact {
    pub experiment: String,
    pub device: String,
    /// Scale factor, when the experiment resolved one.
    pub sf: Option<f64>,
    pub runs: Vec<RunEntry>,
    /// Non-query results: calibration points, sweep series, assertions.
    pub facts: Vec<(String, Json)>,
}

impl BenchArtifact {
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("device".to_string(), Json::Str(self.device.clone())),
        ];
        if let Some(sf) = self.sf {
            pairs.push(("sf".to_string(), Json::Num(sf)));
        }
        pairs.push((
            "runs".to_string(),
            Json::Arr(self.runs.iter().map(|r| r.to_json()).collect()),
        ));
        pairs.push(("facts".to_string(), Json::Obj(self.facts.clone())));
        Json::Obj(pairs)
    }
}

/// Check that a parsed `BENCH_*.json` is a well-formed v1 artifact.
pub fn validate(j: &Json) -> Result<(), String> {
    match j.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("unknown schema {s:?}")),
        None => return Err("missing schema tag".to_string()),
    }
    for key in ["experiment", "device"] {
        if j.get(key).and_then(|v| v.as_str()).is_none() {
            return Err(format!("missing string field {key:?}"));
        }
    }
    let Some(runs) = j.get("runs").and_then(|r| r.as_arr()) else {
        return Err("missing runs array".to_string());
    };
    for (i, r) in runs.iter().enumerate() {
        for key in ["label", "mode", "fingerprint"] {
            if r.get(key).and_then(|v| v.as_str()).is_none() {
                return Err(format!("run {i}: missing string field {key:?}"));
            }
        }
        for key in ["cycles", "rows"] {
            if r.get(key).and_then(|v| v.as_f64()).is_none() {
                return Err(format!("run {i}: missing numeric {key:?}"));
            }
        }
    }
    if j.get("facts").is_none() {
        return Err("missing facts object".to_string());
    }
    Ok(())
}

/// Shared recording handle threaded through `Opts`. The dispatcher owns
/// the lifecycle ([`ArtifactSink::begin`] / [`ArtifactSink::finish`]);
/// experiments only record.
#[derive(Debug, Clone, Default)]
pub struct ArtifactSink {
    inner: Rc<RefCell<BenchArtifact>>,
}

impl ArtifactSink {
    /// Reset for a new experiment.
    pub fn begin(&self, experiment: &str, device: &str) {
        let mut a = self.inner.borrow_mut();
        *a = BenchArtifact {
            experiment: experiment.to_string(),
            device: device.to_string(),
            ..Default::default()
        };
    }

    /// Record the scale factor the experiment resolved.
    pub fn sf(&self, sf: f64) {
        self.inner.borrow_mut().sf = Some(sf);
    }

    /// Record one executed query.
    pub fn run(&self, entry: RunEntry) {
        self.inner.borrow_mut().runs.push(entry);
    }

    /// Record a non-query fact (calibration point, sweep series…).
    pub fn fact(&self, key: &str, value: Json) {
        self.inner.borrow_mut().facts.push((key.to_string(), value));
    }

    /// Parse-check and write `target/obs/BENCH_<experiment>.json`;
    /// returns the path. Panics if the export does not satisfy its own
    /// schema — an artifact that doesn't validate is a bug, not a report.
    pub fn finish(&self) -> String {
        let a = self.inner.borrow();
        assert!(!a.experiment.is_empty(), "finish before begin");
        std::fs::create_dir_all(OUT_DIR).expect("create target/obs");
        let path = format!("{OUT_DIR}/BENCH_{}.json", a.experiment);
        let text = a.to_json().to_pretty_string();
        let back =
            parse(&text).unwrap_or_else(|e| panic!("{path}: artifact does not re-parse: {e}"));
        validate(&back).unwrap_or_else(|e| panic!("{path}: artifact does not validate: {e}"));
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("{path}: {e}"));
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_round_trips_and_validates() {
        let sink = ArtifactSink::default();
        sink.begin("unit", "Test GPU");
        sink.sf(0.01);
        sink.run(
            RunEntry::new("Q14", "gpl")
                .cycles(1234)
                .rows(1)
                .fingerprint(0xdead_beef)
                .extra("note", Json::Str("x".into())),
        );
        sink.fact("points", Json::Int(3));
        let a = sink.inner.borrow().clone();
        let text = a.to_json().to_pretty_string();
        let back = parse(&text).unwrap();
        validate(&back).expect("validates");
        assert_eq!(back.get("schema").unwrap().as_str().unwrap(), SCHEMA);
        let runs = back.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs[0].get("cycles").unwrap().as_f64().unwrap(), 1234.0);
        assert_eq!(
            runs[0].get("fingerprint").unwrap().as_str().unwrap(),
            "0x00000000deadbeef"
        );
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        let j =
            parse(r#"{"schema":"v0","experiment":"x","device":"d","runs":[],"facts":{}}"#).unwrap();
        assert!(validate(&j).is_err());
        let j = parse(r#"{"experiment":"x"}"#).unwrap();
        assert!(validate(&j).is_err());
    }

    #[test]
    fn empty_artifact_is_still_well_formed() {
        let sink = ArtifactSink::default();
        sink.begin("nothing-recorded", "Test GPU");
        let text = sink.inner.borrow().to_json().to_pretty_string();
        validate(&parse(&text).unwrap()).expect("empty artifact validates");
    }
}
