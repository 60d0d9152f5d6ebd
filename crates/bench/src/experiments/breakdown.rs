//! Execution-time breakdown (Figure 20 / Figure 29): where the cycles go
//! under KBE vs GPL — the communication-cost claim of Section 5.3.2.

use super::Opts;
use crate::artifact::{mode_key, RunEntry};
use gpl_core::{plan_for, run_query, ExecMode, QueryConfig, QueryRun};
use gpl_obs::Json;
use gpl_tpch::QueryId;

fn breakdown(run: &QueryRun) -> (f64, f64, f64, f64) {
    let c = run.profile.total_compute_cycles() as f64;
    let m = run.profile.total_mem_cycles() as f64;
    let dc = run.profile.total_dc_cycles() as f64;
    let delay = run.profile.total_delay_cycles() as f64;
    let total = (c + m + dc + delay).max(1.0);
    (
        c / total * 100.0,
        m / total * 100.0,
        dc / total * 100.0,
        delay / total * 100.0,
    )
}

fn run_breakdown(opts: &Opts) {
    let sf = opts.sf_or(0.2);
    let mut ctx = opts.ctx(sf);
    opts.artifact.sf(sf);
    let plan = plan_for(&ctx.db, QueryId::Q8);
    let cfg = QueryConfig::default_for(&opts.device, &plan);
    println!(
        "Q8 execution-time breakdown (SF {sf}, {})",
        opts.device.name
    );
    println!(
        "{:>12} {:>9} {:>9} {:>9} {:>9} {:>16}",
        "mode", "compute", "memory", "DC_cost", "delay", "communication*"
    );
    for (name, mode) in [("KBE", ExecMode::Kbe), ("GPL", ExecMode::Gpl)] {
        ctx.sim.clear_cache();
        let run = run_query(&mut ctx, &plan, mode, &cfg);
        let (c, m, dc, delay) = breakdown(&run);
        // Section 5.3.2: in GPL, memory + DC + delay is "communication";
        // in KBE it is the memory cost.
        let comm = if matches!(mode, ExecMode::Gpl) {
            m + dc + delay
        } else {
            m
        };
        opts.artifact.run(
            RunEntry::new("Q8", mode_key(mode))
                .cycles(run.cycles)
                .rows(run.output.rows.len() as u64)
                .fingerprint(run.output.fingerprint())
                .extra("compute_pct", Json::Num(c))
                .extra("mem_pct", Json::Num(m))
                .extra("dc_pct", Json::Num(dc))
                .extra("delay_pct", Json::Num(delay))
                .extra("communication_pct", Json::Num(comm)),
        );
        println!("{name:>12} {c:>8.1}% {m:>8.1}% {dc:>8.1}% {delay:>8.1}% {comm:>15.1}%");
    }
    println!(
        "* communication = Mem (KBE) vs Mem + DC + Delay (GPL). paper: up to 34% of KBE \
         time vs at most ~14% in GPL; note this simulator's KBE is heavily memory-bound, \
         so its absolute shares differ (see EXPERIMENTS.md)."
    );
}

/// Figure 20: AMD breakdown.
pub fn fig20(opts: &Opts) {
    run_breakdown(opts);
}

/// Figure 29: NVIDIA breakdown.
pub fn fig29(opts: &Opts) {
    let mut o = opts.clone();
    o.device = gpl_sim::nvidia_k40();
    run_breakdown(&o);
}
