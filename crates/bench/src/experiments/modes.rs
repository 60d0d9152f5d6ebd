//! Execution-mode comparisons: the headline results (Figures 7, 16, 21,
//! 22, 27).

use super::Opts;
use crate::artifact::{mode_key, RunEntry};
use gpl_core::{plan_for, run_query, ExecContext, ExecMode, QueryConfig};
use gpl_model::{optimize, GammaTable};
use gpl_obs::Json;
use gpl_ocelot::OcelotContext;
use gpl_tpch::QueryId;

/// Model-optimized configuration for a plan (what GPL actually runs with
/// in the headline comparisons, as in the paper).
fn optimized_config(
    opts: &Opts,
    gamma: &GammaTable,
    ctx: &ExecContext,
    plan: &gpl_core::QueryPlan,
) -> QueryConfig {
    optimize(&opts.device, gamma, &ctx.db, plan).config
}

/// Figure 7: the KBE and GPL plans side by side.
pub fn fig7(opts: &Opts) {
    let ctx = opts.ctx(0.002);
    let l1 = gpl_core::plan::listing1_plan(gpl_tpch::queries::literals::listing1_cutoff());
    println!("{}", l1.explain());
    for q in QueryId::evaluation_set() {
        println!("{}", plan_for(&ctx.db, q).explain());
    }
    opts.artifact.fact(
        "plans_printed",
        Json::Int(1 + QueryId::evaluation_set().len() as i64),
    );
}

/// Figures 9/10 made visible: trace Q8 under KBE and GPL and render the
/// per-kernel occupancy Gantt charts (an extra view, not a paper figure —
/// the paper draws the channel mechanism; this shows its effect).
pub fn timeline(opts: &Opts) {
    let sf = opts.sf_or(0.05);
    let mut ctx = opts.ctx(sf);
    let plan = plan_for(&ctx.db, QueryId::Q8);
    let cfg = QueryConfig::default_for(&opts.device, &plan);
    opts.artifact.sf(sf);
    for mode in [ExecMode::Kbe, ExecMode::Gpl] {
        ctx.sim.clear_cache();
        ctx.sim.enable_trace();
        let run = run_query(&mut ctx, &plan, mode, &cfg);
        opts.artifact.run(
            RunEntry::new("Q8", mode_key(mode))
                .cycles(run.cycles)
                .rows(run.output.rows.len() as u64)
                .fingerprint(run.output.fingerprint()),
        );
        let spans = ctx.sim.take_trace();
        println!(
            "Q8 under {} ({}, SF {sf}) — {} cycles, kernel overlap {:.0}%",
            mode.name(),
            opts.device.name,
            run.cycles,
            100.0 * gpl_sim::overlap_fraction(&spans)
        );
        println!(
            "{}",
            gpl_sim::render_timeline(&spans, 96, opts.device.num_cus)
        );
    }
    println!(
        "shades ' . : = # @' = idle..all-CUs-busy; KBE kernels run strictly one \
         after another, GPL's probe rows shade the same cycles as the scan feeding them."
    );
}

/// Figure 16 (AMD) / Figure 27 (NVIDIA): KBE vs GPL (w/o CE) vs GPL.
pub fn fig16(opts: &Opts) {
    mode_comparison(opts);
}

pub fn fig27(opts: &Opts) {
    let mut o = opts.clone();
    o.device = gpl_sim::nvidia_k40();
    mode_comparison(&o);
}

fn mode_comparison(opts: &Opts) {
    let sf = opts.sf_or(0.2);
    let gamma = opts.gamma();
    let mut ctx = opts.ctx(sf);
    opts.artifact.sf(sf);
    println!(
        "query runtimes (SF {sf}, {}), normalized to KBE",
        opts.device.name
    );
    println!(
        "{:>5} {:>12} {:>14} {:>12}   {:>11} {:>8}",
        "query", "KBE cyc", "GPL(w/o CE)", "GPL cyc", "w/oCE/KBE", "GPL/KBE"
    );
    let mut best = f64::MAX;
    for q in QueryId::evaluation_set() {
        let plan = plan_for(&ctx.db, q);
        let default_cfg = QueryConfig::default_for(&opts.device, &plan);
        let gpl_cfg = optimized_config(opts, &gamma, &ctx, &plan);
        ctx.sim.clear_cache();
        let kbe = run_query(&mut ctx, &plan, ExecMode::Kbe, &default_cfg);
        ctx.sim.clear_cache();
        let noce = run_query(&mut ctx, &plan, ExecMode::GplNoCe, &gpl_cfg);
        ctx.sim.clear_cache();
        let gpl = run_query(&mut ctx, &plan, ExecMode::Gpl, &gpl_cfg);
        for (mode, run) in [
            (ExecMode::Kbe, &kbe),
            (ExecMode::GplNoCe, &noce),
            (ExecMode::Gpl, &gpl),
        ] {
            opts.artifact.run(
                RunEntry::new(q.name(), mode_key(mode))
                    .cycles(run.cycles)
                    .rows(run.output.rows.len() as u64)
                    .fingerprint(run.output.fingerprint()),
            );
        }
        let r_noce = noce.cycles as f64 / kbe.cycles as f64;
        let r_gpl = gpl.cycles as f64 / kbe.cycles as f64;
        best = best.min(r_gpl);
        println!(
            "{:>5} {:>12} {:>14} {:>12}   {:>10.2}x {:>7.2}x",
            q.name(),
            kbe.cycles,
            noce.cycles,
            gpl.cycles,
            r_noce,
            r_gpl
        );
    }
    println!(
        "best GPL improvement over KBE: {:.0}% (paper: up to 48% on AMD, ~50% on NVIDIA; \
         GPL w/o CE degrades vs KBE — tiling alone only adds launch and materialization \
         overhead, amplified at this reduced scale)",
        (1.0 - best) * 100.0
    );
}

/// Figure 21: runtime vs data size. The paper sweeps SF 0.1–10; this
/// reproduction's default sweep is scaled down 20x (see DESIGN.md).
pub fn fig21(opts: &Opts) {
    // The paper sweeps SF 0.1..10; the equivalent regimes on the scaled
    // data sit lower — KBE's intermediates cross the 4 MB cache around
    // SF 0.05. An explicit --sf collapses the sweep to that one point
    // (like fig22), which keeps `repro all --sf <tiny>` cheap.
    let sweep: Vec<f64> = match opts.sf {
        Some(sf) => vec![sf],
        None => vec![0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5],
    };
    let gamma = opts.gamma();
    println!("runtime vs scale factor ({}), Q8 and Q14", opts.device.name);
    println!(
        "{:>6} {:>14} {:>14} {:>9}   {:>14} {:>14} {:>9}",
        "SF", "Q8 KBE ms", "Q8 GPL ms", "speedup", "Q14 KBE ms", "Q14 GPL ms", "speedup"
    );
    for &sf in &sweep {
        let mut ctx = opts.ctx(sf);
        let mut cells = Vec::new();
        for q in [QueryId::Q8, QueryId::Q14] {
            let plan = plan_for(&ctx.db, q);
            let kbe_cfg = QueryConfig::default_for(&opts.device, &plan);
            let gpl_cfg = optimized_config(opts, &gamma, &ctx, &plan);
            ctx.sim.clear_cache();
            let kbe = run_query(&mut ctx, &plan, ExecMode::Kbe, &kbe_cfg);
            ctx.sim.clear_cache();
            let gpl = run_query(&mut ctx, &plan, ExecMode::Gpl, &gpl_cfg);
            for (mode, run) in [(ExecMode::Kbe, &kbe), (ExecMode::Gpl, &gpl)] {
                opts.artifact.run(
                    RunEntry::new(format!("{}@{sf}", q.name()), mode_key(mode))
                        .cycles(run.cycles)
                        .rows(run.output.rows.len() as u64)
                        .fingerprint(run.output.fingerprint()),
                );
            }
            cells.push((kbe.ms(&opts.device), gpl.ms(&opts.device)));
        }
        println!(
            "{:>6} {:>14.2} {:>14.2} {:>8.2}x   {:>14.2} {:>14.2} {:>8.2}x",
            sf,
            cells[0].0,
            cells[0].1,
            cells[0].0 / cells[0].1,
            cells[1].0,
            cells[1].1,
            cells[1].0 / cells[1].1
        );
    }
    println!(
        "GPL wins decisively at every size. The paper additionally reports the margin \
         growing with data size; at this reduced scale both engines converge on simulated \
         DRAM bandwidth past SF ~0.1 and the ratio compresses toward ~2x instead — see \
         EXPERIMENTS.md, Figure 21."
    );
}

/// Figure 22: GPL vs Ocelot. The paper's SF 1 / 5 / 10 map to the scaled
/// defaults 0.05 / 0.25 / 0.5.
pub fn fig22(opts: &Opts) {
    let sweep = match opts.sf {
        Some(sf) => vec![sf],
        None => vec![0.05, 0.25, 0.5],
    };
    let gamma = opts.gamma();
    println!(
        "GPL vs Ocelot ({}); Ocelot runs warm (hash-table cache primed)",
        opts.device.name
    );
    println!(
        "{:>6} {:>5} {:>12} {:>12} {:>14}",
        "SF", "query", "GPL cyc", "Ocelot cyc", "GPL/Ocelot"
    );
    for &sf in &sweep {
        let mut ctx = opts.ctx(sf);
        let mut oc = OcelotContext::new();
        for q in QueryId::evaluation_set() {
            let plan = plan_for(&ctx.db, q);
            let gpl_cfg = optimized_config(opts, &gamma, &ctx, &plan);
            ctx.sim.clear_cache();
            let gpl = run_query(&mut ctx, &plan, ExecMode::Gpl, &gpl_cfg);
            // Warm Ocelot: first run builds the hash tables, second reuses.
            ctx.sim.clear_cache();
            let _cold = gpl_ocelot::run_query(&mut ctx, &mut oc, &plan);
            ctx.sim.clear_cache();
            let warm = gpl_ocelot::run_query(&mut ctx, &mut oc, &plan);
            assert_eq!(gpl.output, warm.output, "{} outputs diverged", q.name());
            opts.artifact.run(
                RunEntry::new(format!("{}@{sf}", q.name()), "gpl")
                    .cycles(gpl.cycles)
                    .rows(gpl.output.rows.len() as u64)
                    .fingerprint(gpl.output.fingerprint()),
            );
            opts.artifact.run(
                RunEntry::new(format!("{}@{sf}", q.name()), "ocelot-warm")
                    .cycles(warm.cycles)
                    .rows(warm.output.rows.len() as u64)
                    .fingerprint(warm.output.fingerprint()),
            );
            println!(
                "{:>6} {:>5} {:>12} {:>12} {:>13.2}x",
                sf,
                q.name(),
                gpl.cycles,
                warm.cycles,
                gpl.cycles as f64 / warm.cycles as f64
            );
        }
    }
    println!(
        "expected shape: comparable on most queries, GPL clearly ahead on the highly \
         selective Q8/Q9 where Ocelot's bitmap pipeline keeps scanning full columns \
         (Section 5.5)."
    );
}
