//! `repro profile <query>`: run one workload query under all three
//! execution modes with full observability on — SQL planning, the
//! cost-model search, per-stage execution, per-kernel simulator activity
//! and channel occupancy all recorded — then export a Chrome-trace JSON
//! per mode (drop it on <https://ui.perfetto.dev> or `chrome://tracing`)
//! and one flat metrics report, and print a side-by-side summary plus the
//! Eq. 8 predicted-vs-observed per-kernel cycle table.
//!
//! Every export is deterministic (simulated cycles and the recorder's
//! logical clock are the only time sources), and the command re-parses
//! its own output with the in-tree JSON parser before declaring success,
//! so a passing run guarantees well-formed files.

use super::Opts;
use crate::artifact::{mode_key, RunEntry};
use gpl_core::{run_query, ExecMode, QueryConfig, QueryRun};
use gpl_model::{build_models, drift_for_run, optimize_models_traced};
use gpl_obs::{chrome_trace_string, metrics_report, parse, DriftReport, MetricsRegistry, Recorder};
use gpl_tpch::QueryId;

/// Where the exports land, relative to the working directory.
const OUT_DIR: &str = "target/obs";

fn query_by_name(name: &str) -> Option<QueryId> {
    QueryId::all()
        .into_iter()
        .find(|q| q.name().eq_ignore_ascii_case(name))
}

/// Write `text` to `path`, after asserting it round-trips the in-tree
/// JSON parser (an export that doesn't parse is a bug, not a report).
fn write_checked(path: &str, text: &str) {
    parse(text).unwrap_or_else(|e| panic!("{path}: export does not re-parse: {e}"));
    std::fs::write(path, text).unwrap_or_else(|e| panic!("{path}: {e}"));
}

pub fn profile(opts: &Opts) {
    let Some(qname) = opts.extra.first() else {
        eprintln!("usage: repro profile <query> [--sf <f>] [--device amd|nvidia]");
        eprintln!(
            "queries: {}",
            QueryId::all()
                .into_iter()
                .filter(|q| gpl_sql::sql_for(*q).is_some())
                .map(|q| q.name().to_lowercase())
                .collect::<Vec<_>>()
                .join(" ")
        );
        std::process::exit(2);
    };
    let Some(query) = query_by_name(qname) else {
        eprintln!("unknown query {qname:?}; run `repro profile` for the list");
        std::process::exit(2);
    };
    let Some(sql) = gpl_sql::sql_for(query) else {
        eprintln!(
            "{} has no SQL formulation; profile a TPC-H query instead",
            query.name()
        );
        std::process::exit(2);
    };
    let sf = opts.sf_or(0.01);
    let gamma = opts.gamma();
    opts.artifact.sf(sf);
    std::fs::create_dir_all(OUT_DIR).expect("create target/obs");

    println!(
        "profiling {} under all execution modes ({}, SF {sf}); traces land in {OUT_DIR}/",
        query.name(),
        opts.device.name
    );
    let mut registry = MetricsRegistry::new();
    let mut summary: Vec<(ExecMode, QueryRun)> = Vec::new();
    let mut written: Vec<String> = Vec::new();
    let mut gpl_drift: Option<DriftReport> = None;

    for mode in [ExecMode::Kbe, ExecMode::GplNoCe, ExecMode::Gpl] {
        // A fresh context and recorder per mode: each trace file stands
        // alone, and the modes never share cache state.
        let mut ctx = opts.ctx(sf);
        let rec = Recorder::new();
        let plan = gpl_sql::compile_traced(&ctx.db, sql, Some(&rec)).expect("corpus SQL compiles");
        let (plan, stats) = gpl_model::optimize_with_stats(&ctx.db, &plan);
        let models = build_models(&ctx.db, &plan, &stats, &opts.device);
        let cfg = match mode {
            // KBE ignores the pipeline knobs; it runs the paper default.
            ExecMode::Kbe => QueryConfig::default_for(&opts.device, &plan),
            _ => optimize_models_traced(&opts.device, &gamma, &plan, &models, Some(&rec)).config,
        };
        ctx.sim.attach_recorder(rec.clone());
        ctx.sim.enable_trace();
        let run = run_query(&mut ctx, &plan, mode, &cfg);
        gpl_sim::record_spans(&rec, &ctx.sim.take_trace());

        let labels = [
            ("query", query.name()),
            ("mode", mode.name()),
            ("device", opts.device.name.as_str()),
        ];
        run.profile.export_metrics(&mut registry, &labels);

        let path = format!(
            "{OUT_DIR}/profile-{}-{}.trace.json",
            query.name().to_lowercase(),
            mode_key(mode)
        );
        write_checked(&path, &chrome_trace_string(&rec));
        written.push(path);

        // Predicted-vs-observed drift, for the mode the model targets:
        // the Eq. 8 cycle estimates and the per-kernel λ joined against
        // the simulator's observed cycles and row counts, keyed by the
        // shared lowered-IR kernel names.
        let mut entry = RunEntry::new(query.name(), mode_key(mode))
            .cycles(run.cycles)
            .rows(run.output.rows.len() as u64)
            .fingerprint(run.output.fingerprint());
        if mode == ExecMode::Gpl {
            let report = drift_for_run(
                &opts.device,
                &gamma,
                &models,
                &cfg,
                &run,
                query.name(),
                mode_key(mode),
            );
            entry = entry.drift(report.summary());
            gpl_drift = Some(report);
        }
        opts.artifact.run(entry);
        summary.push((mode, run));
    }

    println!(
        "\n{:<14} {:>12} {:>9} {:>12} {:>10} {:>10} {:>14}",
        "mode", "cycles", "ms", "VALUBusy", "MemBusy", "occupancy", "intermediates"
    );
    for (mode, run) in &summary {
        let p = &run.profile;
        println!(
            "{:<14} {:>12} {:>9.3} {:>11.1}% {:>9.1}% {:>9.1}% {:>13}B",
            mode.name(),
            run.cycles,
            run.ms(&opts.device),
            p.valu_busy() * 100.0,
            p.mem_unit_busy() * 100.0,
            p.occupancy() * 100.0,
            p.intermediate_footprint()
        );
    }

    if let Some(report) = &gpl_drift {
        println!("\nEq. 8 model vs simulator, per GPL kernel");
        println!("(whole-stage busy cycles over the kernel's effective CUs):");
        print!("{}", report.render());
        let path = format!(
            "{OUT_DIR}/profile-{}-drift.json",
            query.name().to_lowercase()
        );
        write_checked(&path, &report.to_json().to_pretty_string());
        written.push(path);
    }

    let sf_text = format!("{sf}");
    let meta = [
        ("query", query.name()),
        ("sf", sf_text.as_str()),
        ("device", opts.device.name.as_str()),
    ];
    let report = metrics_report(&registry, &meta).to_pretty_string();
    let path = format!(
        "{OUT_DIR}/profile-{}-metrics.json",
        query.name().to_lowercase()
    );
    write_checked(&path, &report);
    written.push(path);

    println!("\nexports (all re-parsed with the in-tree JSON parser):");
    for p in &written {
        println!("  {p}");
    }
    println!("load the .trace.json files in Perfetto (ui.perfetto.dev) or chrome://tracing;");
    println!("timestamps are simulated device cycles shown as µs.");
}
