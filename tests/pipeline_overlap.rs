//! Cross-segment pipelining, pinned differentially: GPL (pipelined)
//! must be bit-identical to sequential GPL — rows, fingerprints and
//! recovery stats — for every TPC-H hand plan, for generated SQL, at
//! every slice count, and through the serving layer at any worker
//! count. The overlap knob is *forced* on in most tests (the predicate
//! would decline many pairs at this scale); correctness must hold
//! whether or not the model thinks fusing is profitable.

use gpl_check::prelude::*;
use gpl_prng::{SeedableRng, StdRng};
use gpl_repro::core::{overlap_pairs, plan_for, run_query, ExecContext, ExecMode, QueryConfig};
use gpl_repro::model::GammaTable;
use gpl_repro::serve::{QueryRequest, ServeConfig, Server};
use gpl_repro::sim::amd_a10;
use gpl_repro::tpch::QueryId;

mod common;
use common::{db_sf001 as db, fingerprint, gamma};

/// Every TPC-H hand plan, every slice count: the fused run returns the
/// same rows, the same fingerprint and the same (empty) recovery record
/// as the sequential run. Plans without an eligible pair exercise the
/// degenerate path — the knob is set but nothing fuses.
#[test]
fn every_tpch_plan_is_bit_identical_at_every_slice_count() {
    let spec = amd_a10();
    let mut fused_plans = 0;
    for q in QueryId::all() {
        let plan = plan_for(&db(), q);
        let base = QueryConfig::default_for(&spec, &plan);
        let mut ctx = ExecContext::with_shared(spec.clone(), db());
        let seq = run_query(&mut ctx, &plan, ExecMode::Gpl, &base);
        if !overlap_pairs(&plan.stages).is_empty() {
            fused_plans += 1;
        }
        for k in [1u32, 2, 8] {
            let cfg = base.clone().with_overlap_slices(k);
            let mut ctx = ExecContext::with_shared(spec.clone(), db());
            let pipe = run_query(&mut ctx, &plan, ExecMode::GplPipelined, &cfg);
            assert_eq!(
                pipe.output,
                seq.output,
                "{} K={k}: pipelined rows diverge",
                q.name()
            );
            assert_eq!(
                fingerprint(&pipe.output),
                fingerprint(&seq.output),
                "{} K={k}: fingerprint diverges",
                q.name()
            );
            assert_eq!(
                pipe.recovery,
                seq.recovery,
                "{} K={k}: clean runs must have identical recovery stats",
                q.name()
            );
            assert!(!pipe.recovery.eventful(), "{} K={k}", q.name());
        }
    }
    assert!(
        fused_plans >= 5,
        "the sweep must exercise real fusion, got {fused_plans} eligible plans"
    );
}

/// The model-chosen configuration (overlap predicate included) is just
/// as row-stable as the forced knob.
#[test]
fn predicate_chosen_slices_are_bit_identical_for_the_evaluation_set() {
    let spec = amd_a10();
    let gamma = GammaTable::calibrate(&spec);
    for q in QueryId::evaluation_set() {
        let plan = plan_for(&db(), q);
        let stats = gpl_repro::model::estimate_stats(&db(), &plan);
        let models = gpl_repro::model::build_models(&db(), &plan, &stats, &spec);
        let base = QueryConfig::default_for(&spec, &plan);
        let mut piped = base.clone();
        gpl_repro::model::attach_overlap(&spec, &gamma, &plan, &models, &mut piped);
        let mut ctx = ExecContext::with_shared(spec.clone(), db());
        let seq = run_query(&mut ctx, &plan, ExecMode::Gpl, &base);
        let mut ctx = ExecContext::with_shared(spec.clone(), db());
        let pipe = run_query(&mut ctx, &plan, ExecMode::GplPipelined, &piped);
        assert_eq!(pipe.output, seq.output, "{}", q.name());
        assert_eq!(pipe.recovery, seq.recovery, "{}", q.name());
    }
}

prop! {
    #![cases(100)]

    /// Generated SQL: whatever the generator emits, the fused run
    /// matches the sequential one row for row at an awkward slice
    /// count (3 — never a divisor of the partition counts in play).
    #[test]
    fn random_queries_pipeline_bit_identically(seed in any::<u64>()) {
        let spec = amd_a10();
        let mut rng = StdRng::seed_from_u64(seed);
        let sql = gpl_repro::sql::random_query(&mut rng);
        let plan = gpl_repro::sql::compile(&db(), &sql)
            .unwrap_or_else(|e| panic!("generated query must compile: {sql:?}: {e}"));
        let base = QueryConfig::default_for(&spec, &plan);
        let mut ctx = ExecContext::with_shared(spec.clone(), db());
        let seq = run_query(&mut ctx, &plan, ExecMode::Gpl, &base);
        let cfg = base.with_overlap_slices(3);
        let pipe = run_query(&mut ctx, &plan, ExecMode::GplPipelined, &cfg);
        prop_assert_eq!(
            &pipe.output, &seq.output,
            "pipelined diverges on {:?}", sql
        );
        prop_assert_eq!(&pipe.recovery, &seq.recovery);
    }
}

/// The serving layer plans pipelined queries through the cache (overlap
/// predicate applied there): rows must match a sequential-mode server,
/// and the full report fingerprint must be worker-count independent.
#[test]
fn served_pipelined_batches_match_sequential_at_any_worker_count() {
    let reqs = |mode: ExecMode| -> Vec<QueryRequest> {
        gpl_repro::sql::random_workload(11, 24)
            .into_iter()
            .enumerate()
            .map(|(i, sql)| QueryRequest::new(i as u64, sql, mode))
            .collect()
    };
    let sequential = Server::start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        amd_a10(),
        db(),
        gamma(),
    )
    .run_batch_report(reqs(ExecMode::Gpl));
    assert_eq!(sequential.err_count(), 0);

    let mut fingerprints = Vec::new();
    for workers in [1usize, 2, 8] {
        let report = Server::start(
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
            amd_a10(),
            db(),
            gamma(),
        )
        .run_batch_report(reqs(ExecMode::GplPipelined));
        assert_eq!(report.err_count(), 0, "at {workers} workers");
        // The report fingerprints fold in the request mode, so compare
        // rows across modes response by response instead.
        assert_eq!(report.responses.len(), sequential.responses.len());
        for (p, s) in report.responses.iter().zip(&sequential.responses) {
            assert_eq!(p.id, s.id);
            assert_eq!(
                p.result.as_ref().unwrap().output,
                s.result.as_ref().unwrap().output,
                "request {} diverges from the sequential server at {workers} workers",
                p.id
            );
        }
        fingerprints.push(report.fingerprint());
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "pipelined serving must be worker-count independent: {fingerprints:x?}"
    );
}
