//! Integration checks on the analytical model: valid configurations for
//! every query on both devices, bounded errors, and useful optimization.

use gpl_repro::core::{plan_for, ExecContext};
use gpl_repro::model::{evaluate, optimize, GammaTable};
use gpl_repro::sim::{amd_a10, nvidia_k40, DeviceSpec};
use gpl_repro::tpch::{QueryId, TpchDb};

fn small_gamma(spec: &DeviceSpec) -> GammaTable {
    // The CPU profile caps channel fan-out below 16.
    let ns = [1u32, 4, 16].into_iter();
    let ns = ns.filter(|&n| n <= spec.channel.max_channels).collect();
    let ps = if spec.channel.tunable_packet_size {
        vec![16, 64]
    } else {
        vec![spec.channel.fixed_packet_bytes]
    };
    GammaTable::calibrate_grid(spec, ns, ps, vec![256 << 10, 2 << 20, 16 << 20])
}

#[test]
fn optimizer_yields_valid_configs_on_both_devices() {
    for spec in [amd_a10(), nvidia_k40()] {
        let gamma = small_gamma(&spec);
        let db = TpchDb::at_scale(0.01);
        for q in QueryId::evaluation_set() {
            let plan = plan_for(&db, q);
            let out = optimize(&spec, &gamma, &db, &plan);
            assert!(out.estimate.is_finite() && out.estimate > 0.0);
            for (stage, cfg) in plan.stages.iter().zip(&out.config.stages) {
                assert_eq!(cfg.wg_counts.len(), stage.gpl_kernel_names().len());
                assert!((1..=16).contains(&cfg.n_channels));
                assert!(cfg.tile_bytes >= 256 << 10 && cfg.tile_bytes <= 16 << 20);
                if !spec.channel.tunable_packet_size {
                    assert_eq!(cfg.packet_bytes, spec.channel.fixed_packet_bytes);
                }
            }
            // The paper's <5 ms budget, with slack for cold caches in CI.
            assert!(
                out.elapsed.as_millis() < 1_000,
                "{}: {:?}",
                q.name(),
                out.elapsed
            );
        }
    }
}

#[test]
fn model_errors_are_bounded_at_optimal_configs() {
    let spec = amd_a10();
    let gamma = small_gamma(&spec);
    let mut ctx = ExecContext::new(spec.clone(), TpchDb::at_scale(0.05));
    for q in QueryId::evaluation_set() {
        let plan = plan_for(&ctx.db, q);
        let out = optimize(&spec, &gamma, &ctx.db, &plan);
        let eval = evaluate(&mut ctx, &gamma, &plan, &out.config);
        assert!(
            eval.relative_error < 0.8,
            "{}: rel. error {:.1}% (measured {}, estimated {:.0})",
            q.name(),
            eval.relative_error * 100.0,
            eval.measured_cycles,
            eval.estimated_cycles
        );
    }
}

#[test]
fn tuned_configs_do_not_regress_much_vs_default() {
    use gpl_repro::core::{run_query, ExecMode, QueryConfig};
    let spec = amd_a10();
    let gamma = small_gamma(&spec);
    let mut ctx = ExecContext::new(spec.clone(), TpchDb::at_scale(0.05));
    for q in QueryId::evaluation_set() {
        let plan = plan_for(&ctx.db, q);
        let tuned = optimize(&spec, &gamma, &ctx.db, &plan).config;
        let default = QueryConfig::default_for(&spec, &plan);
        ctx.sim.clear_cache();
        let t = run_query(&mut ctx, &plan, ExecMode::Gpl, &tuned);
        ctx.sim.clear_cache();
        let d = run_query(&mut ctx, &plan, ExecMode::Gpl, &default);
        assert!(
            (t.cycles as f64) < 1.3 * d.cycles as f64,
            "{}: tuned {} vs default {}",
            q.name(),
            t.cycles,
            d.cycles
        );
    }
}

/// The Eq. 8 search is pinned end to end: which grid points it visits,
/// in which order, what it picks and what it costs — `evaluated`, the
/// estimate (its shortest round-tripping decimal and its bits) and the
/// per-stage config of every TPC-H plan on the three device profiles,
/// one `pins/search_outcomes` line each. `evaluated` is one evaluation
/// per (Δ, n, p) grid point of each stage; every config keeps 4 × #CU
/// work-groups per kernel. Any reordering of an f64 operation in
/// `estimate_stage`, or of the grid walk, moves them.
#[test]
fn search_outcomes_are_pinned_on_three_devices() {
    use gpl_repro::sim::cpu_host;
    let db = TpchDb::at_scale(0.01);
    let mut lines = Vec::new();
    for spec in [amd_a10(), nvidia_k40(), cpu_host()] {
        let gamma = small_gamma(&spec);
        for q in QueryId::all() {
            let out = optimize(&spec, &gamma, &db, &plan_for(&db, q));
            let stages: Vec<String> = (out.config.stages.iter())
                .map(|s| {
                    format!(
                        "d={} n={} p={} o={} wg={:?}",
                        s.tile_bytes, s.n_channels, s.packet_bytes, s.overlap_slices, s.wg_counts
                    )
                })
                .collect();
            lines.push(format!(
                "{} {} evaluated={} estimate={:?} ({:#018x}) [{}]",
                spec.name,
                q.name(),
                out.evaluated,
                out.estimate,
                out.estimate.to_bits(),
                stages.join("; ")
            ));
        }
    }
    gpl_check::pins::check("search_outcomes", &lines.join("\n")).unwrap_or_else(|e| panic!("{e}"));
}
