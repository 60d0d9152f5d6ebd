//! Intermediate-result materialization experiments (Figures 3, 4, 17, 18)
//! — Observation 1 and its resolution by channels.

use super::Opts;
use crate::artifact::{mode_key, RunEntry};
use gpl_core::plan::q14_plan;
use gpl_core::{plan_for, run_query, ExecMode, QueryConfig, QueryPlan};
use gpl_obs::Json;
use gpl_tpch::{q14_window_for_selectivity, QueryId, TpchDb};

/// Selectivity grid used by the Q14 studies (the paper sweeps 1%–100%;
/// the default predicate is ~16.4% selective on their data).
pub const SELECTIVITIES: [f64; 7] = [0.01, 0.05, 0.1, 0.164, 0.25, 0.5, 1.0];

/// Bytes of input the query actually reads: the loaded columns of every
/// stage's driving relation (the normalization basis of Figures 3/18).
pub fn input_bytes(db: &TpchDb, plan: &QueryPlan) -> u64 {
    plan.stages
        .iter()
        .map(|s| {
            let t = db.table(&s.driver);
            s.loads
                .iter()
                .map(|c| t.col(c).data_type().width())
                .sum::<u64>()
                * t.rows() as u64
        })
        .sum()
}

fn q14_sweep(opts: &Opts, mode: ExecMode) -> Vec<(f64, f64, u64)> {
    let sf = opts.sf_or(0.1);
    let mut ctx = opts.ctx(sf);
    opts.artifact.sf(sf);
    let mut out = Vec::new();
    for &sel in &SELECTIVITIES {
        let params = q14_window_for_selectivity(&ctx.db, sel);
        let plan = q14_plan(&ctx.db, params);
        let cfg = QueryConfig::default_for(&opts.device, &plan);
        let input = input_bytes(&ctx.db, &plan);
        ctx.sim.clear_cache();
        let run = run_query(&mut ctx, &plan, mode, &cfg);
        let norm = run.profile.intermediate_footprint() as f64 / input as f64;
        out.push((sel, norm, run.cycles));
    }
    opts.artifact.fact(
        "q14_selectivity_sweep",
        Json::Arr(
            out.iter()
                .map(|(sel, norm, cycles)| {
                    Json::obj(vec![
                        ("selectivity", Json::Num(*sel)),
                        ("intermediate_over_input", Json::Num(*norm)),
                        ("cycles", Json::Int(*cycles as i64)),
                    ])
                })
                .collect(),
        ),
    );
    out
}

/// Figure 3: size of intermediate results in KBE with varying
/// selectivity (Q14), normalized to the query's input size.
pub fn fig3(opts: &Opts) {
    println!(
        "KBE Q14 (SF {}): materialized intermediates / input size",
        opts.sf_or(0.1)
    );
    println!("{:>12} {:>22}", "selectivity", "intermediate / input");
    for (sel, norm, _) in q14_sweep(opts, ExecMode::Kbe) {
        println!("{:>11.0}% {:>22.2}", sel * 100.0, norm);
    }
    println!(
        "expected shape: grows with selectivity; the paper reports intermediates exceeding \
         the input beyond ~75% selectivity (1.38x at 100%)."
    );
}

/// Figure 4: communication cost in KBE with varying selectivity (Q14):
/// the share of execution attributable to memory stalls.
pub fn fig4(opts: &Opts) {
    let sf = opts.sf_or(0.1);
    let mut ctx = opts.ctx(sf);
    opts.artifact.sf(sf);
    println!("KBE Q14 (SF {sf}): execution-time split, memory vs other");
    println!("{:>12} {:>10} {:>10}", "selectivity", "Mem_cost", "Others");
    let mut points = Vec::new();
    for &sel in &SELECTIVITIES {
        let params = q14_window_for_selectivity(&ctx.db, sel);
        let plan = q14_plan(&ctx.db, params);
        let cfg = QueryConfig::default_for(&opts.device, &plan);
        ctx.sim.clear_cache();
        let run = run_query(&mut ctx, &plan, ExecMode::Kbe, &cfg);
        let mem = run.profile.total_mem_cycles() as f64;
        let other =
            run.profile.total_compute_cycles() as f64 + run.profile.total_delay_cycles() as f64;
        let total = (mem + other).max(1.0);
        points.push(Json::obj(vec![
            ("selectivity", Json::Num(sel)),
            ("mem_share", Json::Num(mem / total)),
        ]));
        println!(
            "{:>11.0}% {:>9.1}% {:>9.1}%",
            sel * 100.0,
            mem / total * 100.0,
            other / total * 100.0
        );
    }
    opts.artifact.fact("q14_mem_share", Json::Arr(points));
    println!("expected shape: the memory share grows with selectivity (up to ~1/3 or more).");
}

/// Figure 17: intermediates materialized in global memory by GPL,
/// normalized to KBE, for the whole workload.
pub fn fig17(opts: &Opts) {
    let sf = opts.sf_or(0.1);
    let mut ctx = opts.ctx(sf);
    opts.artifact.sf(sf);
    println!(
        "materialized intermediates, GPL / KBE (SF {sf}, {})",
        opts.device.name
    );
    println!(
        "{:>5} {:>12} {:>12} {:>10}",
        "query", "KBE bytes", "GPL bytes", "GPL/KBE"
    );
    for q in QueryId::evaluation_set() {
        let plan = plan_for(&ctx.db, q);
        let cfg = QueryConfig::default_for(&opts.device, &plan);
        ctx.sim.clear_cache();
        let kbe = run_query(&mut ctx, &plan, ExecMode::Kbe, &cfg);
        ctx.sim.clear_cache();
        let gpl = run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
        let (kb, gb) = (
            kbe.profile.intermediate_footprint(),
            gpl.profile.intermediate_footprint(),
        );
        for (mode, run, bytes) in [(ExecMode::Kbe, &kbe, kb), (ExecMode::Gpl, &gpl, gb)] {
            opts.artifact.run(
                RunEntry::new(q.name(), mode_key(mode))
                    .cycles(run.cycles)
                    .rows(run.output.rows.len() as u64)
                    .fingerprint(run.output.fingerprint())
                    .extra("intermediate_bytes", Json::Int(bytes as i64)),
            );
        }
        println!(
            "{:>5} {:>12} {:>12} {:>9.0}%",
            q.name(),
            kb,
            gb,
            gb as f64 / kb as f64 * 100.0
        );
    }
    println!("paper: GPL materializes only 15–33% of what KBE does.");
}

/// Figure 18: GPL Q14 intermediates vs selectivity, normalized to the
/// input size (compare with Figure 3's KBE curve).
pub fn fig18(opts: &Opts) {
    println!(
        "GPL Q14 (SF {}): materialized intermediates / input size",
        opts.sf_or(0.1)
    );
    println!("{:>12} {:>22}", "selectivity", "intermediate / input");
    for (sel, norm, _) in q14_sweep(opts, ExecMode::Gpl) {
        println!("{:>11.0}% {:>22.3}", sel * 100.0, norm);
    }
    println!(
        "expected shape: far below the KBE curve at every selectivity (paper: 0.22x vs \
         1.38x of the input at 100%) — only blocking kernels materialize."
    );
}
