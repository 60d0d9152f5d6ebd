//! What one run of one workload reports, and how it is printed.

use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::util::{median, quartiles};
use gpl_obs::Json;
use gpl_sim::LaunchProfile;
use std::collections::BTreeMap;
use std::path::Path;

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every exact quantity repeated exactly wherever it was recomputed
    /// (between rounds, and between the served and by-hand paths).
    pub deterministic: bool,
    values: BTreeMap<&'static str, f64>,
    /// Per-window values of the host-clock metrics (for `setup_s`, its
    /// repeats), so spread is visible within one run.
    pub blocks: BTreeMap<&'static str, Vec<f64>>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Self {
        Report {
            workload,
            seed,
            seconds,
            trace,
            smoke,
            attempted: 0,
            failed: 0,
            deterministic: true,
            values: BTreeMap::new(),
            blocks: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    fn metrics(&self) -> &'static [Metric] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let m = self
            .metrics()
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this run"));
        assert!(value.is_finite(), "{name} is not finite");
        self.values.insert(m.name, value);
    }

    /// Count a failed operation and say why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// Record a broken determinism check.
    pub fn nondeterministic(&mut self, why: String) {
        self.deterministic = false;
        if self.notes.len() < 20 {
            self.notes.push(format!("NOT DETERMINISTIC: {why}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.deterministic
    }

    /// Value of `name`: an end-to-end metric must have been set; a
    /// per-layer metric the workload leaves idle reads 0.
    fn value(&self, m: &Metric) -> f64 {
        match self.values.get(m.name) {
            Some(v) => *v,
            None if self.trace => 0.0,
            None => panic!("end-to-end metric {} was not measured", m.name),
        }
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics()
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::obj(vec![
                            ("value", Json::Num(self.value(m))),
                            ("unit", Json::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", self.metrics_json()),
        ])
        .to_string()
    }

    /// The run as one entry of `results.json`.
    pub fn record(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Int(self.seed as i64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Int(self.trace as i64)),
            ("comparable", Json::Bool(!self.smoke)),
            (
                "host_threads",
                Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", self.metrics_json()),
            (
                "blocks",
                Json::Obj(
                    self.blocks
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.to_string(),
                                Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit, then the result line last.
    pub fn print(&self) {
        println!(
            "# {} seed={} seconds={} trace={}{}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace as u8,
            if self.smoke {
                "  SMOKE RUN: tiny scale factor, numbers are NOT comparable"
            } else {
                ""
            }
        );
        println!(
            "# every operation runs on a fresh ExecContext, so the modelled L2 starts empty each time; the simulator is unvalidated against silicon"
        );
        for m in self.metrics() {
            let mut line = format!("{:<40} {:>18.6} {}", m.name, self.value(m), m.unit);
            if m.exact {
                line.push_str("  [exact]");
            }
            if let Some(b) = self.blocks.get(m.name) {
                if let Some((q1, q3)) = quartiles(b) {
                    line.push_str(&format!(
                        "  blocks: q1 {:.4} median {:.4} q3 {:.4} (n={})",
                        q1,
                        median(b),
                        q3,
                        b.len()
                    ));
                }
            }
            println!("{line}");
        }
        println!(
            "# [exact] metrics are simulated-clock values or counts: they repeat to the last digit for any --seed and host"
        );
        for n in &self.notes {
            println!("# {n}");
        }
        println!(
            "# operations attempted {} failed {} deterministic {}",
            self.attempted, self.failed, self.deterministic
        );
        println!("{}", self.result_line());
    }

    pub fn write_record(&self, out: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(out)?;
        std::fs::write(
            out.join(format!("{}.trace{}.json", self.workload, self.trace as u8)),
            self.record().to_pretty_string(),
        )
    }
}

/// Modelled components of the simulator summed over the runs of one
/// execution mode (all exact).
#[derive(Default)]
pub struct ModeAgg {
    runs: u64,
    hit_lines: u64,
    lines: u64,
    valu_busy: u64,
    mem_busy: u64,
    cu_cycles: u64,
    inflight: u64,
    wavefront_cycles: u64,
    intermediate_bytes: u64,
    compute: u64,
    mem: u64,
    dc: u64,
    delay: u64,
}

impl ModeAgg {
    pub fn add(&mut self, profiles: &[LaunchProfile]) {
        self.runs += 1;
        for p in profiles {
            self.add_launch(p);
        }
    }

    fn add_launch(&mut self, p: &LaunchProfile) {
        self.hit_lines += p.cache.hit_lines;
        self.lines += p.cache.total();
        self.valu_busy += p.valu_busy_cycles;
        self.mem_busy += p.mem_busy_cycles;
        self.cu_cycles += p.elapsed_cycles * u64::from(p.num_cus);
        self.inflight += p.inflight_integral;
        self.wavefront_cycles += p.elapsed_cycles * p.max_wavefronts;
        self.intermediate_bytes += p.intermediate_bytes();
        self.compute += p.total_compute_cycles();
        self.mem += p.total_mem_cycles();
        self.dc += p.total_dc_cycles();
        self.delay += p.total_delay_cycles();
    }

    pub fn emit(&self, r: &mut Report, mode_key: &str) {
        if self.runs == 0 {
            return;
        }
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut set = |stem: &str, v: f64| r.set(&format!("sim.{stem}.{mode_key}"), v);
        set("cache_hit_ratio", ratio(self.hit_lines, self.lines));
        set("valu_busy", ratio(self.valu_busy, self.cu_cycles));
        set("mem_unit_busy", ratio(self.mem_busy, self.cu_cycles));
        set("occupancy", ratio(self.inflight, self.wavefront_cycles));
        set("intermediate_bytes", self.intermediate_bytes as f64);
        set("cycles_compute", self.compute as f64);
        set("cycles_mem", self.mem as f64);
        set("cycles_dc", self.dc as f64);
        set("cycles_delay", self.delay as f64);
    }
}
