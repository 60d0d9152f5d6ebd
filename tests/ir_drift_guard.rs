//! Drift-guard for the segment-IR seam: the pipeline the cost model
//! prices must be *exactly* the pipeline the GPL executor launches.
//! Both derive from [`SegmentIr`] — the model through
//! `gpl_model::analyze`'s adapter, the executor through `gpl.rs` — so
//! any divergence in kernel identity, resources, channel widths, or the
//! eager/lazy leaf split is a regression in that seam. The corpus is
//! every TPC-H plan plus 100 generator queries.

use gpl_prng::{SeedableRng, StdRng};
use gpl_repro::core::segment::SegmentIr;
use gpl_repro::core::{
    overlap_pairs, plan_for, run_query, ExecContext, ExecMode, PipeOp, QueryConfig, QueryPlan,
    Terminal,
};
use gpl_repro::model::{build_models, estimate_stats};
use gpl_repro::sim::amd_a10;
use gpl_repro::tpch::{QueryId, TpchDb};
use std::sync::Arc;

mod common;
use common::db_sf0002 as shared_db;

/// Assert that the cost model of every stage of `plan` describes the
/// kernels, channels and leaf column split its lowered IR carries.
fn assert_model_matches_ir(db: &TpchDb, plan: &QueryPlan, tag: &str) {
    let spec = amd_a10();
    let stats = estimate_stats(db, plan);
    let models = build_models(db, plan, &stats, &spec);
    for (si, (stage, sm)) in plan.stages.iter().zip(&models).enumerate() {
        // Lower independently of the model — the same call `exec.rs`
        // makes before handing the IR to the executors.
        let ir = SegmentIr::lower(stage, db.table(&stage.driver), spec.wavefront_size);
        let at = format!("{tag}, stage {}", stage.name);

        // The model's embedded IR is a fresh lowering plus its λs.
        let mut with_lambdas = ir.clone();
        with_lambdas.attach_lambdas(&stats.stage_lambdas[si]);
        assert_eq!(
            sm.ir, with_lambdas,
            "{at}: model IR differs from a fresh lowering"
        );

        // Kernel identity and resources.
        assert_eq!(sm.kernels.len(), ir.nodes.len(), "{at}: kernel count");
        for (k, node) in sm.kernels.iter().zip(&ir.nodes) {
            assert_eq!(&*k.name, &*node.name, "{at}: kernel name");
            assert_eq!(k.resources, node.resources, "{at}: kernel resources");
        }

        // Channel edge widths.
        assert_eq!(sm.kernels[0].in_width, 0, "{at}: leaf has no inbound edge");
        let term = sm.kernels.last().expect("terminal kernel");
        assert_eq!(term.out_width, 0, "{at}: terminal has no outbound edge");
        for (g, edge) in ir.edges.iter().enumerate() {
            assert_eq!(
                sm.kernels[g].out_width, edge.row_bytes,
                "{at}: edge {g} out width"
            );
            assert_eq!(
                sm.kernels[g + 1].in_width,
                edge.row_bytes,
                "{at}: edge {g} in width"
            );
        }

        // Edge ship-sets and row widths, model IR vs fresh lowering:
        // the whole-IR equality above would catch these too, but the
        // per-edge form pinpoints *which* edge drifted, and checks the
        // width invariant (8 bytes per shipped slot, floored at one
        // slot) the channel sizing math assumes.
        assert_eq!(sm.ir.edges.len(), ir.edges.len(), "{at}: edge count");
        for (g, (me, fe)) in sm.ir.edges.iter().zip(&ir.edges).enumerate() {
            assert_eq!(me.ship, fe.ship, "{at}: edge {g} ship-set drifted");
            assert_eq!(me.row_bytes, fe.row_bytes, "{at}: edge {g} row width");
            let mut sorted = fe.ship.clone();
            sorted.sort();
            assert_eq!(fe.ship, sorted, "{at}: edge {g} ship-set unsorted");
            assert_eq!(
                fe.row_bytes,
                (8 * fe.ship.len() as u64).max(8),
                "{at}: edge {g} row width must be 8 bytes per shipped slot"
            );
        }

        // Leaf column split: the model streams eagerly exactly the
        // columns the executor streams.
        let leaf = &sm.kernels[0];
        let eager_bytes: u64 = ir.eager.iter().map(|c| c.width).sum();
        assert_eq!(leaf.scan_bytes_per_row, eager_bytes, "{at}: eager bytes");
        // Lazy gather bytes: the λ-scaled per-survivor cost over the
        // IR's lazy set, capped at one line per column. For a promoted
        // leaf the promoted column's term is summed then removed, so
        // the f64 order matches the adapter bit-for-bit.
        let leaf_lambda = stats.stage_lambdas[si][0].max(1e-6);
        let gather = |w: u64| (w as f64 / leaf_lambda).min(64.0);
        let expect_lazy = if ir.promoted_leaf {
            let p = gather(ir.eager[0].width);
            let sum = ir.lazy.iter().fold(p, |acc, c| acc + gather(c.width));
            (sum - p).max(0.0)
        } else {
            ir.lazy.iter().fold(0.0, |acc, c| acc + gather(c.width))
        };
        assert_eq!(
            leaf.lazy_bytes_per_row, expect_lazy as u64,
            "{at}: lazy bytes"
        );
        for k in &sm.kernels[1..] {
            assert_eq!(k.scan_bytes_per_row, 0, "{at}: only the leaf scans");
            assert_eq!(k.lazy_bytes_per_row, 0, "{at}: only the leaf gathers");
        }
    }
}

/// Run `plan` under full GPL and assert the launched kernels carry the
/// IR's node names, stage for stage.
fn assert_executor_launches_ir_kernels(db: &Arc<TpchDb>, plan: &QueryPlan, tag: &str) {
    let spec = amd_a10();
    let cfg = QueryConfig::default_for(&spec, plan);
    let mut ctx = ExecContext::with_shared(spec.clone(), db.clone());
    let run = run_query(&mut ctx, plan, ExecMode::Gpl, &cfg);
    for (si, stage) in plan.stages.iter().enumerate() {
        let ir = SegmentIr::lower(stage, db.table(&stage.driver), spec.wavefront_size);
        let launched: Vec<&str> = run.per_stage[si].kernels.iter().map(|k| &*k.name).collect();
        assert_eq!(
            launched,
            ir.kernel_names(),
            "{tag}, stage {}: launched kernels differ from the IR",
            stage.name
        );
    }
}

/// Drift checks for the cross-segment seam: [`overlap_pairs`] is the
/// single source of truth for which adjacent stages may fuse, consumed
/// by the executor, the overlap predicate and the serving cache. Its
/// edges must be deterministic and structurally consistent with the
/// plan and with the lowered probe IR (whose gated-kernel position the
/// predicate's `gated_share` computation relies on).
fn assert_overlap_edges_consistent(db: &TpchDb, plan: &QueryPlan, tag: &str) {
    let spec = amd_a10();
    let pairs = overlap_pairs(&plan.stages);
    assert_eq!(
        pairs,
        overlap_pairs(&plan.stages),
        "{tag}: overlap detection must be deterministic"
    );
    for pair in &pairs {
        let at = format!("{tag}, pair {}→{}", pair.build_stage, pair.probe_stage);
        assert_eq!(pair.probe_stage, pair.build_stage + 1, "{at}: adjacency");
        assert!(pair.probe_op > 0, "{at}: the gated probe starts a kernel");
        let Terminal::HashBuild { ht, .. } = &plan.stages[pair.build_stage].terminal else {
            panic!("{at}: build stage must end in HashBuild");
        };
        assert_eq!(*ht, pair.ht, "{at}: edge names the built table");
        let probe = &plan.stages[pair.probe_stage];
        match &probe.ops[pair.probe_op] {
            PipeOp::Probe { ht, .. } => {
                assert_eq!(*ht, pair.ht, "{at}: gated probe reads the built table")
            }
            other => panic!("{at}: op {} is not a probe: {other:?}", pair.probe_op),
        }
        // Detection leaves K = 1; re-slicing is the scheduler's move and
        // must cover the table volume exactly.
        assert_eq!(pair.slices, 1, "{at}: detection does not choose K");
        let sliced = pair.clone().with_slices(8, 1 << 20);
        assert_eq!(sliced.slices, 8);
        assert!(
            sliced.slice_bytes * u64::from(sliced.slices) >= 1 << 20,
            "{at}: slices must cover the table"
        );
        // The probe IR must carry a kernel that *starts* with the gated
        // op — the position `gpl_model::attach_overlap` keys its
        // gated-share split on, and the kernel the executor gates.
        let ir = SegmentIr::lower(probe, db.table(&probe.driver), spec.wavefront_size);
        assert!(
            ir.nodes
                .iter()
                .any(|n| n.ops.first() == Some(&pair.probe_op)),
            "{at}: no kernel starts at the gated probe op"
        );
    }
}

#[test]
fn model_matches_executor_on_every_tpch_plan() {
    let db = shared_db();
    let mut pairs_seen = 0;
    for q in QueryId::all() {
        let plan = plan_for(&db, q);
        assert_model_matches_ir(&db, &plan, q.name());
        assert_executor_launches_ir_kernels(&db, &plan, q.name());
        assert_overlap_edges_consistent(&db, &plan, q.name());
        pairs_seen += overlap_pairs(&plan.stages).len();
    }
    assert!(
        pairs_seen >= 5,
        "the corpus must exercise real overlap edges, saw {pairs_seen}"
    );
}

/// `explain`'s KBE line names the kernels a KBE run launches, stage for
/// stage.
#[test]
fn kbe_explain_names_the_launched_kernels() {
    let db = shared_db();
    let spec = amd_a10();
    for q in QueryId::all() {
        let plan = plan_for(&db, q);
        let cfg = QueryConfig::default_for(&spec, &plan);
        let mut ctx = ExecContext::with_shared(spec.clone(), db.clone());
        let run = run_query(&mut ctx, &plan, ExecMode::Kbe, &cfg);
        for (si, stage) in plan.stages.iter().enumerate() {
            let launched: Vec<&str> = run.per_stage[si].kernels.iter().map(|k| &*k.name).collect();
            assert_eq!(
                stage.kbe_kernel_names(),
                launched,
                "{}, stage {}",
                q.name(),
                stage.name
            );
        }
    }
}

#[test]
fn model_matches_executor_on_100_generator_queries() {
    let db = shared_db();
    let mut rng = StdRng::seed_from_u64(42);
    for i in 0..100 {
        let sql = gpl_repro::sql::random_query(&mut rng);
        let plan = gpl_repro::sql::compile(&db, &sql)
            .unwrap_or_else(|e| panic!("query {i} must compile: {sql:?}: {e}"));
        let tag = format!("generator query {i} ({sql:.60?})");
        assert_model_matches_ir(&db, &plan, &tag);
        assert_overlap_edges_consistent(&db, &plan, &tag);
        // A slice of the stream also runs end-to-end, pinning launched
        // kernel names against the IR (the full stream would dominate
        // suite runtime without adding coverage: launch names are a
        // pure function of the IR already checked structurally above).
        if i % 10 == 0 {
            assert_executor_launches_ir_kernels(&db, &plan, &tag);
        }
    }
}
