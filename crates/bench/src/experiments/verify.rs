//! `repro verify`: the one table behind every "same command, same
//! bytes" claim this repository makes.
//!
//! Each [`Row`] of [`TABLE`] is one `repro` invocation, run `repeats`
//! times as a child of this executable (a fresh process per run keeps
//! stdout capturable and gives every run cold in-process caches). After
//! each run the row's `compared` outputs must exist, be non-empty and
//! equal the first run's bytes. A row that compares its own
//! `BENCH_<experiment>.json` is *pinned*: the regenerated file must then
//! equal the committed `BENCH_<experiment>.json` in the working
//! directory byte for byte — those files are the repository's
//! cycle/row/fingerprint/drift pins.
//! Run it from the repo root. To re-pin after a deliberate change:
//! `cp target/obs/BENCH_*.json .` and explain the diff in the commit.

use crate::artifact::OUT_DIR;
use std::process::Command;
use std::time::Instant;

pub const DESCRIPTION: &str =
    "re-run the pinned experiments; byte-compare repeats and committed BENCH_*.json";

/// Pseudo-output naming the child's captured standard output.
pub const STDOUT: &str = "stdout";

/// The one root `BENCH_*.json` that is not a pin: the append-only host
/// wall-clock trajectory of alternating-pair benchmark runs. No
/// experiment writes it and nothing byte-compares it.
pub const HOST_TRAJECTORY: &str = "BENCH_wall.json";

/// One verified `repro` invocation.
pub struct Row {
    /// Arguments after `repro`; `args[0]` is the experiment name.
    pub args: &'static [&'static str],
    /// How many fresh processes run it.
    pub repeats: usize,
    /// What must be non-empty after every run and byte-identical across
    /// repeats: [`STDOUT`] or a file name under `target/obs/`.
    pub compared: &'static [&'static str],
}

impl Row {
    pub fn experiment(&self) -> &'static str {
        self.args[0]
    }

    /// The artifact's file name, both under `target/obs/` and as a pin.
    pub fn artifact(&self) -> String {
        format!("BENCH_{}.json", self.experiment())
    }

    /// Whether a committed copy pins the artifact this row regenerates.
    pub fn pinned(&self) -> bool {
        self.compared.contains(&self.artifact().as_str())
    }
}

/// Every verified invocation, at the pinned scales. `bench` comes last:
/// it renders the artifacts the rows above it regenerate.
pub const TABLE: &[Row] = &[
    Row {
        args: &["table1"],
        repeats: 1,
        compared: &[STDOUT, "BENCH_table1.json"],
    },
    Row {
        args: &["fig3", "--sf", "0.01"],
        repeats: 1,
        compared: &[STDOUT, "BENCH_fig3.json"],
    },
    // Figures 11 and 24 print wall-clock search time, so only their
    // artifacts compare.
    Row {
        args: &["fig11"],
        repeats: 2,
        compared: &["BENCH_fig11.json"],
    },
    Row {
        args: &["fig24"],
        repeats: 2,
        compared: &["BENCH_fig24.json"],
    },
    // Figures 16, 20, 21 and 22: the paper's KBE, GPL (w/o CE) and
    // Ocelot comparisons.
    Row {
        args: &["fig16"],
        repeats: 2,
        compared: &[STDOUT, "BENCH_fig16.json"],
    },
    Row {
        args: &["fig20"],
        repeats: 2,
        compared: &[STDOUT, "BENCH_fig20.json"],
    },
    Row {
        args: &["fig21"],
        repeats: 2,
        compared: &[STDOUT, "BENCH_fig21.json"],
    },
    Row {
        args: &["fig22"],
        repeats: 2,
        compared: &[STDOUT, "BENCH_fig22.json"],
    },
    Row {
        args: &["profile", "q1", "--sf", "0.01"],
        repeats: 1,
        compared: &[
            "profile-q1-kbe.trace.json",
            "profile-q1-gpl-noce.trace.json",
            "profile-q1-gpl.trace.json",
            "profile-q1-metrics.json",
            "BENCH_profile.json",
        ],
    },
    Row {
        args: &["pipeline", "q14", "--sf", "0.01"],
        repeats: 2,
        compared: &[STDOUT, "BENCH_pipeline.json"],
    },
    Row {
        args: &["serve", "--workers", "4", "--queries", "32", "--sf", "0.01"],
        repeats: 2,
        compared: &[STDOUT, "BENCH_serve.json"],
    },
    Row {
        args: &["faults", "--sf", "0.01"],
        repeats: 5,
        compared: &[STDOUT, "faults-report.txt", "BENCH_faults.json"],
    },
    Row {
        args: &["shard", "q9"],
        repeats: 2,
        compared: &[STDOUT, "BENCH_shard.json"],
    },
    Row {
        args: &["chaos"],
        repeats: 2,
        compared: &[STDOUT, "chaos-report.txt", "BENCH_chaos.json"],
    },
    Row {
        args: &["bench"],
        repeats: 2,
        compared: &[STDOUT],
    },
];

/// Run `row` once; the bytes of each compared output, or what went wrong.
fn run_once(row: &Row) -> Result<Vec<Vec<u8>>, String> {
    for name in row.compared.iter().filter(|&&n| n != STDOUT) {
        // A stale file must not stand in for one this run failed to write.
        let _ = std::fs::remove_file(format!("{OUT_DIR}/{name}"));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(row.args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    row.compared
        .iter()
        .map(|&name| {
            let bytes = if name == STDOUT {
                out.stdout.clone()
            } else {
                std::fs::read(format!("{OUT_DIR}/{name}")).map_err(|e| format!("{name}: {e}"))?
            };
            if bytes.is_empty() {
                return Err(format!("{name}: empty"));
            }
            Ok(bytes)
        })
        .collect()
}

/// Run every repeat of `row`, then hold the regenerated artifact against
/// its committed pin; the first failure, naming the output.
fn run_row(row: &Row) -> Result<(), String> {
    let first = run_once(row)?;
    for i in 2..=row.repeats {
        let again = run_once(row).map_err(|e| format!("run {i}: {e}"))?;
        if let Some(k) = (0..first.len()).find(|&k| first[k] != again[k]) {
            return Err(format!(
                "{} differs between run 1 and run {i}",
                row.compared[k]
            ));
        }
    }
    if row.pinned() {
        let pin = row.artifact();
        let fresh = format!("{OUT_DIR}/{pin}");
        let read = |path: &str| std::fs::read(path).map_err(|e| format!("{path}: {e}"));
        if read(&pin)? != read(&fresh)? {
            return Err(format!("{fresh} differs from the committed ./{pin}"));
        }
    }
    Ok(())
}

pub fn verify() {
    let mut failures = 0usize;
    println!("{:>4} {:>8}  {:<8}  row", "runs", "seconds", "result");
    for row in TABLE {
        let t0 = Instant::now();
        let result = run_row(row);
        println!(
            "{:>4} {:>8.1}  {:<8}  repro {}",
            row.repeats,
            t0.elapsed().as_secs_f64(),
            if result.is_ok() { "ok" } else { "FAIL" },
            row.args.join(" ")
        );
        if let Err(e) = result {
            println!("  FAIL {}: {e}", row.experiment());
            failures += 1;
        }
    }
    if failures > 0 {
        println!("verify FAILED: {failures} row(s)");
        println!("(re-pin a deliberate change with `cp {OUT_DIR}/BENCH_*.json .`)");
        std::process::exit(1);
    }
    println!("verify: every row reproducible, every pin byte-identical");
}
