//! `repro pipeline [<query>...]`: cross-segment pipelining, modeled vs
//! observed. For each query (default: the two acceptance workloads, Q9
//! and Q14) the command plans once, runs the overlap predicate
//! ([`gpl_model::attach_overlap`]) over the paper-default configuration,
//! then executes the plan twice — sequential GPL and GPL (pipelined) —
//! asserting the outputs bit-identical before reporting anything.
//!
//! The printed table and the `target/obs/BENCH_pipeline.json` artifact
//! (standard [`crate::artifact::BenchArtifact`] schema, written by the
//! dispatcher) carry, per fused pair: the chosen slice count K, the
//! model's sequential and pipelined cycle estimates, and the
//! simulator's observed build/probe spans with the measured overlap
//! window. All numbers are simulated cycles, so two runs of the same
//! command are byte-identical — the verify gate diffs them.

use super::Opts;
use crate::artifact::RunEntry;
use gpl_core::{plan_for, run_query, ExecMode, QueryConfig, QueryRun};
use gpl_model::{attach_overlap, build_models, estimate_stats, OverlapDecision};
use gpl_obs::Json;
use gpl_tpch::{QueryId, TpchDb};

fn query_by_name(name: &str) -> Option<QueryId> {
    QueryId::all()
        .into_iter()
        .find(|q| q.name().eq_ignore_ascii_case(name))
}

/// The simulated span `[first dispatch, last complete]` of one stage's
/// kernels in a finished run.
fn stage_span(run: &QueryRun, stage: usize) -> (u64, u64) {
    let ks = &run.per_stage[stage].kernels;
    let start = ks.iter().map(|k| k.first_dispatch).min().unwrap_or(0);
    let end = ks.iter().map(|k| k.last_complete).max().unwrap_or(0);
    (start, end)
}

/// Observed overlap between a fused pair's segments: how many cycles the
/// build stage's span and the probe stage's span share.
fn observed_overlap(run: &QueryRun, d: &OverlapDecision) -> u64 {
    let (b0, b1) = stage_span(run, d.build_stage);
    let (p0, p1) = stage_span(run, d.probe_stage);
    b1.min(p1).saturating_sub(b0.max(p0))
}

pub fn pipeline(opts: &Opts) {
    let names: Vec<String> = if opts.extra.is_empty() {
        vec!["q9".into(), "q14".into()]
    } else {
        opts.extra.clone()
    };
    let queries: Vec<QueryId> = names
        .iter()
        .map(|n| {
            query_by_name(n).unwrap_or_else(|| {
                eprintln!("unknown query {n:?}; run `repro profile` for the list");
                std::process::exit(2);
            })
        })
        .collect();
    let sf = opts.sf_or(0.01);
    let gamma = opts.gamma();
    opts.artifact.sf(sf);

    println!(
        "cross-segment pipelining, GPL vs GPL (pipelined) ({}, SF {sf})",
        opts.device.name
    );
    println!(
        "\n{:<6} {:>5} {:>12} {:>12} {:>12} {:>12} {:>9} {:>12}",
        "query", "K", "model seq", "model pipe", "obs seq", "obs pipe", "obs Δ", "overlap cyc"
    );

    for query in queries {
        let db = TpchDb::at_scale(sf);
        let plan = plan_for(&db, query);
        let stats = estimate_stats(&db, &plan);
        let models = build_models(&db, &plan, &stats, &opts.device);
        let base = QueryConfig::default_for(&opts.device, &plan);
        let mut piped = base.clone();
        let decisions = attach_overlap(&opts.device, &gamma, &plan, &models, &mut piped);

        let mut ctx = opts.ctx(sf);
        let seq = run_query(&mut ctx, &plan, ExecMode::Gpl, &base);
        let mut ctx = opts.ctx(sf);
        let pipe = run_query(&mut ctx, &plan, ExecMode::GplPipelined, &piped);
        assert_eq!(
            seq.output,
            pipe.output,
            "{}: pipelined output must be bit-identical to sequential",
            query.name()
        );
        let fp = seq.output.fingerprint();
        assert_eq!(fp, pipe.output.fingerprint());

        let model_seq: f64 = decisions.iter().map(|d| d.sequential).sum();
        let model_pipe: f64 = decisions.iter().map(|d| d.pipelined).sum();
        let k_text = decisions
            .iter()
            .map(|d| d.slices.to_string())
            .collect::<Vec<_>>()
            .join("+");
        let delta = 100.0 * (seq.cycles as f64 - pipe.cycles as f64) / seq.cycles as f64;
        let overlap: u64 = decisions
            .iter()
            .filter(|d| d.slices > 0)
            .map(|d| observed_overlap(&pipe, d))
            .sum();
        println!(
            "{:<6} {:>5} {:>12.0} {:>12.0} {:>12} {:>12} {:>8.1}% {:>12}",
            query.name(),
            k_text,
            model_seq,
            model_pipe,
            seq.cycles,
            pipe.cycles,
            delta,
            overlap
        );

        let pair_entries: Vec<Json> = decisions
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("build_stage", Json::Int(d.build_stage as i64)),
                    ("probe_stage", Json::Int(d.probe_stage as i64)),
                    ("slices", Json::Int(i64::from(d.slices))),
                    ("model_sequential_cycles", Json::Num(d.sequential)),
                    ("model_pipelined_cycles", Json::Num(d.pipelined)),
                    (
                        "observed_overlap_cycles",
                        Json::Int(observed_overlap(&pipe, d) as i64),
                    ),
                ])
            })
            .collect();
        opts.artifact.run(
            RunEntry::new(query.name(), "gpl")
                .cycles(seq.cycles)
                .rows(seq.output.rows.len() as u64)
                .fingerprint(fp),
        );
        opts.artifact.run(
            RunEntry::new(query.name(), "gpl-pipelined")
                .cycles(pipe.cycles)
                .rows(pipe.output.rows.len() as u64)
                .fingerprint(fp)
                .extra("pairs", Json::Arr(pair_entries)),
        );
    }

    println!("\noutputs asserted bit-identical between modes before reporting;");
    println!("per-pair overlap details land in the BENCH_pipeline.json artifact.");
}
