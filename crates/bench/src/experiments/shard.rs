//! `repro shard [<query>...]` — multi-device sharding with
//! heterogeneous CPU/GPU placement, modeled vs observed.
//!
//! For each query (default: the acceptance workloads Q9 and Q14) the
//! experiment runs the placement pass over the default device pool
//! (AMD + NVIDIA GPUs plus the host-CPU profile) twice — free
//! (heterogeneous) and restricted to the GPU class — then executes
//! both placements across the pool and every homogeneous single-device
//! baseline, asserting all outputs bit-identical before reporting:
//!
//! * a per-query table of **modeled** and **observed** simulated
//!   cycles: heterogeneous vs GPU-only placement vs each homogeneous
//!   device;
//! * per-`(device, kernel)` drift summaries joining each pool device's
//!   merged shard profiles against that device's model predictions;
//! * a **shard-count scaling** sweep on the first query (1, 2, 4
//!   shards under the heterogeneous placement).
//!
//! Everything printed is deterministic (simulated cycles only), so two
//! runs of the same command are byte-identical — `repro verify` diffs
//! them, and `target/obs/BENCH_shard.json` against the committed
//! `BENCH_shard.json` pin at the repo root.

use super::Opts;
use crate::artifact::RunEntry;
use gpl_core::shard::{
    try_run_query_sharded, DeviceKind, DevicePool, ShardAssignment, ShardPlan, ShardedRun,
};
use gpl_core::{plan_for, ExecLimits, ExecMode, QueryPlan};
use gpl_model::{
    build_models, drift_for_device_run, estimate_stats, place_query, GammaTable, Placement,
};
use gpl_obs::{DriftSummary, Json};
use gpl_tpch::{QueryId, TpchDb};
use std::sync::Arc;

/// One calibrated Γ table per pool device.
pub(crate) fn pool_gammas(pool: &DevicePool) -> Vec<GammaTable> {
    pool.devices()
        .iter()
        .map(|d| super::gamma_for(&d.spec))
        .collect()
}

fn query_by_name(name: &str) -> Option<QueryId> {
    QueryId::all()
        .into_iter()
        .find(|q| q.name().eq_ignore_ascii_case(name))
}

fn run(
    pool: &DevicePool,
    db: &Arc<TpchDb>,
    plan: &QueryPlan,
    shard: &ShardPlan,
    assignment: &ShardAssignment,
) -> ShardedRun {
    try_run_query_sharded(
        pool,
        db,
        plan,
        ExecMode::Gpl,
        shard,
        assignment,
        &ExecLimits::default(),
        None,
        None,
        None,
        None,
    )
    .expect("fault-free sharded run")
}

/// The placement restricted to one anchor device for every stage (the
/// homogeneous baseline), reusing the tuned per-device configs.
fn pin_to(placement: &Placement, device: usize, stages: usize) -> ShardAssignment {
    ShardAssignment {
        stage_device: vec![device; stages],
        configs: placement.assignment.configs.clone(),
    }
}

pub fn shard(opts: &Opts) {
    let names: Vec<String> = if opts.extra.is_empty() {
        vec!["q5".into(), "q7".into(), "q9".into(), "q14".into()]
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
    let sf = opts.sf_or(0.002);
    let db = Arc::new(TpchDb::at_scale(sf));
    let pool = DevicePool::default_pool();
    let gammas = pool_gammas(&pool);
    opts.artifact.sf(sf);

    println!(
        "multi-device sharding & heterogeneous placement (pool {}, SF {sf})",
        pool.key()
    );

    let mut hetero_won = false;
    for query in &queries {
        let plan = plan_for(&db, *query);
        let stages = plan.stages.len();
        let hetero = place_query(&pool, &gammas, &db, &plan, None);
        let gpu_only = place_query(&pool, &gammas, &db, &plan, Some(DeviceKind::Gpu));
        let single = ShardPlan::single();

        let het_run = run(&pool, &db, &plan, &single, &hetero.assignment);
        let gpu_run = run(&pool, &db, &plan, &single, &gpu_only.assignment);
        assert_eq!(
            het_run.output,
            gpu_run.output,
            "{}: placement must never change rows",
            query.name()
        );

        println!(
            "\n{}: placement {} (hetero) vs {} (gpu-only)",
            query.name(),
            hetero.assignment.key(),
            gpu_only.assignment.key()
        );
        println!(
            "{:<28} {:>14} {:>14}",
            "placement", "modeled cyc", "observed cyc"
        );
        println!(
            "{:<28} {:>14.0} {:>14}   stages {:?}",
            "heterogeneous", hetero.modeled_total, het_run.cycles, het_run.stage_cycles
        );
        println!(
            "{:<28} {:>14.0} {:>14}   stages {:?}",
            "gpu-only", gpu_only.modeled_total, gpu_run.cycles, gpu_run.stage_cycles
        );

        // Homogeneous single-GPU baselines: every stage pinned to one
        // GPU, that device's tuned config, outputs asserted identical.
        let mut best_gpu_observed = gpu_run.cycles;
        let mut best_gpu_modeled = gpu_only.modeled_total;
        for (d, dev) in pool.devices().iter().enumerate() {
            if dev.kind() != DeviceKind::Gpu {
                continue;
            }
            let homo = run(&pool, &db, &plan, &single, &pin_to(&hetero, d, stages));
            assert_eq!(homo.output, het_run.output);
            println!(
                "{:<28} {:>14.0} {:>14}",
                format!("all @ {}", dev.spec.name),
                hetero.device_totals[d],
                homo.cycles
            );
            best_gpu_observed = best_gpu_observed.min(homo.cycles);
            best_gpu_modeled = best_gpu_modeled.min(hetero.device_totals[d]);
        }
        let wins = hetero.modeled_total < best_gpu_modeled && het_run.cycles < best_gpu_observed;
        hetero_won |= wins;
        println!(
            "heterogeneous {} the best all-GPU placement (modeled {:.0} vs {:.0}, observed {} vs {})",
            if wins { "beats" } else { "does not beat" },
            hetero.modeled_total,
            best_gpu_modeled,
            het_run.cycles,
            best_gpu_observed
        );

        // Per-(device, kernel) drift: each pool device's merged shard
        // profiles joined against that device's own model predictions.
        let stats = estimate_stats(&db, &plan);
        let mut reports = Vec::new();
        let mut drift_entries = Vec::new();
        for (d, dev) in pool.devices().iter().enumerate() {
            let dr = &het_run.per_device[d];
            if dr.cycles == 0 {
                continue; // never participated: nothing observed to join
            }
            let models = build_models(&db, &plan, &stats, &dev.spec);
            let report = drift_for_device_run(
                &dev.spec,
                &gammas[d],
                &models,
                &hetero.assignment.configs[d],
                &dr.per_stage,
                query.name(),
                &dev.spec.name,
                "gpl",
            );
            let s = report.summary();
            println!(
                "drift {:<22} kernels {:>2}  mean cycle err {:.4}  worst {}",
                dev.spec.name, s.kernels, s.mean_cycles_err, s.worst_kernel
            );
            drift_entries.push((d, s));
            reports.push(report);
        }

        let fp = het_run.output.fingerprint();
        opts.artifact.run(
            RunEntry::new(format!("{}-hetero", query.name()), "gpl")
                .cycles(het_run.cycles)
                .rows(het_run.output.rows.len() as u64)
                .fingerprint(fp)
                .drift(DriftSummary::from_reports(&reports))
                .extra("modeled_cycles", Json::Num(hetero.modeled_total))
                .extra("placement", Json::Str(hetero.assignment.key()))
                .extra(
                    "device_drift",
                    Json::Arr(
                        drift_entries
                            .iter()
                            .map(|(d, s)| {
                                Json::obj(vec![
                                    ("device", Json::Str(pool.devices()[*d].spec.name.clone())),
                                    ("summary", s.to_json()),
                                ])
                            })
                            .collect(),
                    ),
                ),
        );
        opts.artifact.run(
            RunEntry::new(format!("{}-gpu-best", query.name()), "gpl")
                .cycles(best_gpu_observed)
                .rows(gpu_run.output.rows.len() as u64)
                .fingerprint(fp)
                .extra("modeled_cycles", Json::Num(best_gpu_modeled)),
        );
    }
    // The acceptance fact — asserted on the default workload at the
    // default scale; a caller pinning one query or another SF still
    // gets the comparison printed without tripping the gate.
    if opts.extra.is_empty() && opts.sf.is_none() {
        assert!(
            hetero_won,
            "expected at least one query where the heterogeneous placement wins in both planes"
        );
    }

    // Shard-count scaling (on Q9 when present, else the first query):
    // the driving relation splits over the pool, so wall cycles (max
    // over devices per stage) drop as shards spread across devices of
    // the anchor class.
    let query = queries
        .iter()
        .copied()
        .find(|q| q.name().eq_ignore_ascii_case("q9"))
        .unwrap_or(queries[0]);
    let plan = plan_for(&db, query);
    let hetero = place_query(&pool, &gammas, &db, &plan, None);
    println!(
        "\n{} shard-count scaling (heterogeneous placement):",
        query.name()
    );
    println!("{:>7} {:>14} {:>10}", "shards", "observed cyc", "vs 1");
    let mut by_shards = Vec::new();
    for shards in [1usize, 2, 4] {
        let r = run(
            &pool,
            &db,
            &plan,
            &ShardPlan::range(shards),
            &hetero.assignment,
        );
        let base = by_shards.first().map(|&(_, c)| c).unwrap_or(r.cycles);
        println!(
            "{:>7} {:>14} {:>9.2}x",
            shards,
            r.cycles,
            base as f64 / r.cycles as f64
        );
        opts.artifact.run(
            RunEntry::new(format!("{}-shards-{shards}", query.name()), "gpl")
                .cycles(r.cycles)
                .rows(r.output.rows.len() as u64)
                .fingerprint(r.output.fingerprint()),
        );
        by_shards.push((shards, r.cycles));
    }
    let one = by_shards[0].1;
    let best = by_shards[1..].iter().map(|&(_, c)| c).min().unwrap();
    assert!(
        best < one,
        "{}: some multi-shard count must beat 1 shard in observed cycles ({best} vs {one})",
        query.name()
    );
    // The stronger 1→4 monotone-win claim only holds on the default
    // workload at the default scale (at tiny SFs the per-shard launch
    // overhead outweighs the spread past 2 shards).
    if opts.extra.is_empty() && opts.sf.is_none() {
        let four = by_shards.last().unwrap().1;
        assert!(
            four < one,
            "{}: 4 shards must beat 1 shard in observed cycles ({four} vs {one})",
            query.name()
        );
    }

    println!("\noutputs asserted bit-identical across placements and shard counts;");
    println!("per-device drift details land in the BENCH_shard.json artifact.");
}
