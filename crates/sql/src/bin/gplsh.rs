//! `gplsh` — an interactive SQL shell over the GPL engine.
//!
//! ```text
//! cargo run --release -p gpl-sql --bin gplsh -- [--sf 0.05] [--device amd|nvidia] [--mode gpl|kbe]
//! ```
//!
//! Reads one statement per line (`;` optional). Meta-commands:
//! `\mode gpl|kbe|noce|pipelined|ocelot`, `\explain <sql>`, `\timeline <sql>`
//! (traced per-kernel Gantt chart), `\trace` (toggle per-query
//! predicted-vs-observed drift), `\shard <n>` (run subsequent queries
//! sharded over the heterogeneous device pool; `\shard off` returns to
//! the single CLI device), `\chaos [threshold]` (toggle straggler
//! hedging for sharded queries: shards observed past `threshold`× their
//! modeled cycles get a speculative backup on the modeled-cheapest
//! other device), `\stats` (session metrics registry, plus the last
//! drift table when tracing is on), `\timing` (toggle per-query host
//! wall-clock milliseconds next to the simulated cycles — wall numbers
//! are non-deterministic and machine-dependent), `\tables` (rows, and
//! MB in simulated device memory beside MB held on the host), `\q`.

use gpl_core::shard::{try_run_query_sharded, DevicePool, ShardPlan};
use gpl_core::{run_query, DisplayHint, ExecContext, ExecLimits, ExecMode, QueryConfig};
use gpl_model::GammaTable;
use gpl_obs::{metrics_report, DriftReport, MetricsRegistry};
use gpl_sim::{amd_a10, nvidia_k40};
use gpl_sql::{compile_optimized, compile_with_stats, run_sql};
use gpl_storage::{decimal_to_string, Date};
use gpl_tpch::TpchDb;
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sf = 0.05;
    let mut spec = amd_a10();
    let mut mode = ExecMode::Gpl;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sf" => {
                sf = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(sf);
                i += 2;
            }
            "--device" => {
                if args.get(i + 1).map(String::as_str) == Some("nvidia") {
                    spec = nvidia_k40();
                }
                i += 2;
            }
            "--mode" => {
                mode = parse_mode(args.get(i + 1).map(String::as_str).unwrap_or("gpl"));
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    eprintln!("generating TPC-H at SF {sf} on {} ...", spec.name);
    let mut ctx = ExecContext::new(spec.clone(), TpchDb::at_scale(sf));
    eprintln!(
        "ready — {} lineitem rows. \\q quits, \\explain <sql> shows the plan.",
        ctx.db.lineitem.rows()
    );

    // Session observability: every executed query folds its profile into
    // this registry; `\stats` prints it. `\trace` additionally joins each
    // GPL query's observed rows/cycles against the model (Eq. 8 + λ).
    let mut registry = MetricsRegistry::new();
    let mut tracing = false;
    let mut last_drift: Option<DriftReport> = None;
    let mut gamma: Option<GammaTable> = None;
    // `\shard <n>` routes subsequent queries through the heterogeneous
    // device pool; 0 means the classic single-device path. The pool and
    // its per-device Γ tables calibrate lazily on first sharded query.
    let mut shards: usize = 0;
    let mut pool_state: Option<(DevicePool, Vec<GammaTable>)> = None;
    // `\chaos [threshold]` arms straggler hedging on sharded queries
    // (speculative backups for shards observed past modeled × threshold
    // cycles); `\chaos off` (or a bare repeat) disarms it.
    let mut hedge_threshold: Option<f64> = None;
    // `\timing` additionally reports host wall-clock per query. The two
    // time planes stay clearly separated: simulated cycles are
    // deterministic and pinned by tests; wall milliseconds depend on the
    // machine and are labeled as such.
    let mut timing = false;

    let stdin = std::io::stdin();
    loop {
        eprint!("gpl> ");
        std::io::stderr().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("{e}");
                break;
            }
        }
        let line = line.trim().trim_end_matches(';').trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\q" || line == "quit" || line == "exit" {
            break;
        }
        if line == "\\tables" {
            // Simulated MB price the device copy at each type's width;
            // host MB is the narrower copy this process holds.
            let mb = |b: u64| b as f64 / 1e6;
            for t in ctx.db.tables() {
                eprintln!(
                    "  {:<10} {:>9} rows  {:>8.3} MB simulated  {:>8.3} MB host",
                    t.name(),
                    t.rows(),
                    mb(t.total_bytes()),
                    mb(t.host_bytes())
                );
            }
            continue;
        }
        if line == "\\timing" {
            timing = !timing;
            eprintln!(
                "timing: {} (host wall clock; non-deterministic, varies by machine — \
                 simulated cycles remain the reproducible number)",
                if timing { "on" } else { "off" }
            );
            continue;
        }
        if line == "\\trace" {
            tracing = !tracing;
            eprintln!(
                "drift tracing: {} (GPL queries join observed rows/cycles against the model)",
                if tracing { "on" } else { "off" }
            );
            continue;
        }
        if line == "\\stats" {
            let report = metrics_report(&registry, &[("device", spec.name.as_str())]);
            println!("{}", report.to_pretty_string());
            match (&last_drift, tracing) {
                (Some(d), true) => {
                    eprintln!("model vs simulator, last traced GPL query:");
                    eprint!("{}", d.render());
                }
                (None, true) => eprintln!("no GPL query traced yet"),
                _ => {}
            }
            continue;
        }
        if let Some(m) = line.strip_prefix("\\mode") {
            mode = parse_mode(m.trim());
            eprintln!("mode: {}", mode.name());
            continue;
        }
        if let Some(n) = line.strip_prefix("\\shard") {
            shards = match n.trim() {
                "" | "off" | "0" => 0,
                v => match v.parse() {
                    Ok(k) if k >= 1 => k,
                    _ => {
                        eprintln!("usage: \\shard <n>|off");
                        continue;
                    }
                },
            };
            if shards == 0 {
                eprintln!("sharding: off (single device {})", spec.name);
            } else {
                eprintln!(
                    "sharding: {shards} range shard(s) over {} with per-stage placement",
                    DevicePool::default_pool().key()
                );
            }
            continue;
        }
        if let Some(t) = line.strip_prefix("\\chaos") {
            hedge_threshold = match t.trim() {
                "off" => None,
                "" => match hedge_threshold {
                    Some(_) => None,
                    None => Some(gpl_core::shard::HedgePlan::DEFAULT_THRESHOLD),
                },
                v => match v.parse::<f64>() {
                    Ok(t) if gpl_core::shard::HedgePlan::check_threshold(t).is_ok() => Some(t),
                    _ => {
                        eprintln!("usage: \\chaos [threshold>=1|off]");
                        continue;
                    }
                },
            };
            match hedge_threshold {
                Some(t) => eprintln!(
                    "straggler hedging: on (backup past {t}x modeled; applies under \\shard)"
                ),
                None => eprintln!("straggler hedging: off"),
            }
            continue;
        }
        if let Some(sql) = line.strip_prefix("\\explain") {
            match compile_optimized(&ctx.db, sql.trim()) {
                Ok(plan) => eprintln!("{}", plan.explain()),
                Err(e) => eprintln!("{e}"),
            }
            continue;
        }
        if let Some(sql) = line.strip_prefix("\\timeline") {
            ctx.sim.enable_trace();
            match run_sql(&mut ctx, sql.trim(), mode) {
                Ok(run) => {
                    let spans = ctx.sim.take_trace();
                    eprintln!(
                        "{} cycles under {}, kernel overlap {:.0}%",
                        run.cycles,
                        mode.name(),
                        100.0 * gpl_sim::overlap_fraction(&spans)
                    );
                    eprintln!("{}", gpl_sim::render_timeline(&spans, 96, spec.num_cus));
                }
                Err(e) => {
                    ctx.sim.take_trace();
                    eprintln!("{e}");
                }
            }
            continue;
        }
        let planned_t0 = std::time::Instant::now();
        let (plan, stats) = match compile_with_stats(&ctx.db, line) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                continue;
            }
        };
        let hints = plan.display.clone().unwrap_or_default();
        if shards > 0 {
            let (pool, gammas) = pool_state.get_or_insert_with(|| {
                let pool = DevicePool::default_pool();
                eprintln!("calibrating Γ per pool device ...");
                let gammas = pool
                    .devices()
                    .iter()
                    .map(|d| GammaTable::calibrate(&d.spec))
                    .collect();
                (pool, gammas)
            });
            let placement = gpl_model::place_with_stats(pool, gammas, &ctx.db, &plan, &stats, None);
            let hedge = hedge_threshold.map(|t| gpl_model::hedge_plan(&placement, t));
            let wall_t0 = std::time::Instant::now();
            match try_run_query_sharded(
                pool,
                &ctx.db,
                &plan,
                mode,
                &ShardPlan::range(shards),
                &placement.assignment,
                &ExecLimits::default(),
                None,
                None,
                hedge.as_ref(),
                None,
            ) {
                Ok(run) => {
                    println!("{}", run.output.columns.join(" | "));
                    for row in &run.output.rows {
                        let cells: Vec<String> = row
                            .iter()
                            .enumerate()
                            .map(|(i, v)| render(&ctx, hints.get(i), *v))
                            .collect();
                        println!("{}", cells.join(" | "));
                    }
                    eprintln!(
                        "-- {} rows, {} simulated cycles, {shards} shard(s), placement {} over {}",
                        run.output.num_rows(),
                        run.cycles,
                        placement.assignment.key(),
                        pool.key()
                    );
                    if timing {
                        eprintln!(
                            "-- wall: {:.1} ms on this host (non-deterministic)",
                            wall_t0.elapsed().as_secs_f64() * 1e3
                        );
                    }
                    if run.recovery.hedges > 0 {
                        eprintln!(
                            "-- hedged {} straggler(s), {} backup win(s), {} duplicate cycles",
                            run.recovery.hedges,
                            run.recovery.hedge_wins,
                            run.recovery.wasted_cycles
                        );
                    }
                    registry.counter_add("gplsh.queries.sharded", &[("mode", mode.name())], 1);
                }
                Err(e) => eprintln!("{e}"),
            }
            continue;
        }
        // The statement is already planned: run that plan under the default
        // configuration, as `run_sql` would after planning it again.
        let cfg = QueryConfig::default_for(&spec, &plan);
        let run = run_query(&mut ctx, &plan, mode, &cfg);
        let wall = planned_t0.elapsed();
        println!("{}", run.output.columns.join(" | "));
        for row in &run.output.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, v)| render(&ctx, hints.get(i), *v))
                .collect();
            println!("{}", cells.join(" | "));
        }
        eprintln!(
            "-- {} rows, {} simulated cycles ({:.2} ms on the {})",
            run.output.num_rows(),
            run.cycles,
            run.ms(&spec),
            spec.name
        );
        if timing {
            eprintln!(
                "-- wall: {:.1} ms on this host (non-deterministic) vs {} simulated cycles",
                wall.as_secs_f64() * 1e3,
                run.cycles
            );
        }
        registry.counter_add("gplsh.queries", &[("mode", mode.name())], 1);
        run.profile
            .export_metrics(&mut registry, &[("mode", mode.name())]);
        if tracing && mode == ExecMode::Gpl {
            // The models of the plan and the default config that ran.
            let g = gamma.get_or_insert_with(|| {
                eprintln!("calibrating Γ for {} ...", spec.name);
                GammaTable::calibrate(&spec)
            });
            let models = gpl_model::build_models(&ctx.db, &plan, &stats, &spec);
            let report = gpl_model::drift_for_run(&spec, g, &models, &cfg, &run, "sql", "gpl");
            eprint!("{}", report.render());
            last_drift = Some(report);
        }
    }
}

fn render(ctx: &ExecContext, hint: Option<&DisplayHint>, v: i64) -> String {
    match hint {
        Some(DisplayHint::Decimal) => decimal_to_string(v),
        Some(DisplayHint::Date) => Date::from_days(v as i32).to_string(),
        Some(DisplayHint::Dict { table, column }) => ctx
            .db
            .table(table)
            .col(column)
            .dictionary()
            .map(|d| d.get(v as u32).to_string())
            .unwrap_or_else(|| v.to_string()),
        _ => v.to_string(),
    }
}

fn parse_mode(s: &str) -> ExecMode {
    match s {
        "kbe" => ExecMode::Kbe,
        "noce" => ExecMode::GplNoCe,
        "pipelined" | "gpl-pipelined" => ExecMode::GplPipelined,
        "ocelot" => ExecMode::Ocelot,
        _ => ExecMode::Gpl,
    }
}
