//! The benchmark's own spans: one around every call into a layer's
//! public function, kept in memory and written out when the run ends.
//! Spans *inside* the crates are a later change; these are timed from
//! outside.

use crate::report::Report;
use gpl_obs::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. When disabled, `span` runs the closure and records
/// nothing — the by-hand pass runs every request once each way, and the
/// wall-time difference is the tracing overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as a span named `name`, child of whatever span is open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time per span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Share of `request` span time covered by child spans.
    pub fn coverage(&self) -> f64 {
        let own = self.self_ns();
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (s, o) in self.spans.iter().zip(&own) {
            if s.name == "request" {
                total += s.end_ns - s.start_ns;
                uncovered += o;
            }
        }
        if total == 0 {
            0.0
        } else {
            1.0 - uncovered as f64 / total as f64
        }
    }

    /// Write `trace_<workload>.json` under `out`.
    pub fn write(&self, out: &Path, r: &mut Report) {
        let path = out.join(format!("trace_{}.json", r.workload));
        if let Err(e) = std::fs::create_dir_all(out)
            .and_then(|()| std::fs::write(&path, self.to_json(r.workload).to_string()))
        {
            r.notes.push(format!("{} not written: {e}", path.display()));
        }
    }

    /// The trace file: every span, plus self time summed per span name.
    fn to_json(&self, workload: &str) -> Json {
        let own = self.self_ns();
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, o) in self.spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += o;
        }
        Json::obj(vec![
            ("workload", Json::Str(workload.into())),
            (
                "clock",
                Json::Str("host nanoseconds since the pass began".into()),
            ),
            (
                "self_time_by_name",
                Json::Arr(
                    by_name
                        .into_iter()
                        .map(|(name, (count, total, own))| {
                            Json::obj(vec![
                                ("name", Json::Str(name.into())),
                                ("count", Json::Int(count as i64)),
                                ("total_ns", Json::Int(total as i64)),
                                ("self_ns", Json::Int(own as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            Json::obj(vec![
                                ("id", Json::Int(i as i64)),
                                ("name", Json::Str(s.name.into())),
                                ("request", Json::Int(s.request as i64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                                ),
                                ("start_ns", Json::Int(s.start_ns as i64)),
                                ("end_ns", Json::Int(s.end_ns as i64)),
                                ("self_ns", Json::Int(own[i] as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// `trace.overhead_frac` from the host time (ns) the same requests took
/// with spans off and with spans on. The two runs of a request follow
/// each other and the order alternates from request to request, so
/// warm-up and drift fall on both sides alike. A difference within the
/// noise of the pairs is reported as measured and called unresolved.
pub fn overhead(r: &mut Report, off_on_ns: &[(f64, f64)]) {
    let n = off_on_ns.len() as f64;
    let off: f64 = off_on_ns.iter().map(|p| p.0).sum();
    if off == 0.0 {
        return;
    }
    let extra: f64 = off_on_ns.iter().map(|p| p.1 - p.0).sum();
    let mean = extra / n;
    let var = off_on_ns
        .iter()
        .map(|p| (p.1 - p.0 - mean).powi(2))
        .sum::<f64>()
        / (n - 1.0).max(1.0);
    // Twice the standard error of the summed difference.
    let noise = 2.0 * (n * var).sqrt() / off;
    r.set("trace.overhead_frac", extra / off);
    if (extra / off).abs() <= noise {
        r.notes.push(format!(
            "trace.overhead_frac {:+.4} is unresolved: within the noise of {} off/on pairs (±{:.4})",
            extra / off,
            off_on_ns.len(),
            noise
        ));
    }
}
