//! Join-order optimization (the Selinger-style \[32\] optimizer the
//! paper's plan generator relies on, Section 3.1).
//!
//! Our probe pipelines are left-deep join chains: each hash probe keeps
//! or drops rows, so the order of probes (and of the filters interleaved
//! with them) determines every intermediate cardinality. This module
//! runs a System-R style dynamic program over probe subsets — classic
//! optimal substructure, with per-op selectivities estimated by sampled
//! evaluation — and rewrites each stage's op order to minimize the total
//! intermediate row count, respecting slot dependencies (a probe cannot
//! run before the op that fills its key slot).

use crate::stats::{PlanStats, SampledPass};
use gpl_core::plan::{PipeOp, QueryPlan, Stage};
use gpl_tpch::TpchDb;
use std::collections::HashMap;

/// Probes per stage past which the subset DP is skipped and the compiled
/// order kept. The DP clones a state of three `Vec`s per transition into
/// a `HashMap<u64, State>`, so it doubles per probe: at SF 0.002 (release,
/// best of five) 10 probes take 1.2 ms, 11 take 2.6 ms, 12 take 5.4 ms;
/// without a bound 14 took 50 ms and 16 took 271 ms. Twelve is the last
/// count inside Section 4.1's "smaller than 5 ms" for the search this
/// runs beside. SQL aliases make any count legal, so the bound is on
/// time, not on arity.
const MAX_DP_PROBES: usize = 12;

/// Deterministically extend `order` with every ready non-probe op
/// (cheapest-λ filters first — they only shrink the stream), updating the
/// filled-slot set, cardinality and cumulative cost.
fn apply_ready_maps(
    stage: &Stage,
    lambdas: &[f64],
    used: &mut [bool],
    filled: &mut [bool],
    order: &mut Vec<usize>,
    card: &mut f64,
    cost: &mut f64,
) {
    loop {
        // Among ready, unused non-probe ops, run filters in ascending-λ
        // order and computes only once nothing else is ready (they cost a
        // pass over the stream without shrinking it).
        let mut candidate: Option<(usize, f64, bool)> = None; // (idx, λ, is_filter)
        for (i, op) in stage.ops.iter().enumerate() {
            if used[i] || matches!(op, PipeOp::Probe { .. }) {
                continue;
            }
            if !op.reads().iter().all(|&s| filled[s]) {
                continue;
            }
            let is_filter = matches!(op, PipeOp::Filter(_));
            let better = match candidate {
                None => true,
                Some((_, l, f)) => (is_filter && !f) || (is_filter == f && lambdas[i] < l),
            };
            if better {
                candidate = Some((i, lambdas[i], is_filter));
            }
        }
        let Some((i, _, is_filter)) = candidate else {
            break;
        };
        // Defer computes that no pending op needs yet: a compute is only
        // worth running once something reads its output. Terminal inputs
        // make every compute eventually required, so run it if nothing
        // else is available — which is exactly this branch.
        used[i] = true;
        for &s in stage.ops[i].fills() {
            filled[s] = true;
        }
        order.push(i);
        *cost += *card;
        if is_filter {
            *card *= lambdas[i];
        }
    }
}

/// Optimal probe order for one stage via subset DP.
fn reorder_stage(stage: &Stage, lambdas: &[f64], driver_rows: f64) -> Option<Vec<usize>> {
    let probes: Vec<usize> = stage
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, PipeOp::Probe { .. }))
        .map(|(i, _)| i)
        .collect();
    if probes.len() <= 1 || probes.len() > MAX_DP_PROBES {
        return None; // nothing to reorder, or too much to enumerate
    }

    #[derive(Clone)]
    struct State {
        cost: f64,
        card: f64,
        used: Vec<bool>,
        filled: Vec<bool>,
        order: Vec<usize>,
    }

    let init = {
        let mut used = vec![false; stage.ops.len()];
        let mut filled = vec![false; stage.num_slots()];
        for f in filled.iter_mut().take(stage.loads.len()) {
            *f = true;
        }
        let mut order = Vec::new();
        let mut card = driver_rows;
        let mut cost = 0.0;
        apply_ready_maps(
            stage,
            lambdas,
            &mut used,
            &mut filled,
            &mut order,
            &mut card,
            &mut cost,
        );
        State {
            cost,
            card,
            used,
            filled,
            order,
        }
    };

    let mut best: HashMap<u64, State> = HashMap::new();
    best.insert(0, init);
    let full = (1u64 << probes.len()) - 1;
    for mask in 0..=full {
        let Some(cur) = best.get(&mask).cloned() else {
            continue;
        };
        for (bit, &p) in probes.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                continue;
            }
            if !stage.ops[p].reads().iter().all(|&s| cur.filled[s]) {
                continue;
            }
            let mut next = cur.clone();
            next.used[p] = true;
            for &s in stage.ops[p].fills() {
                next.filled[s] = true;
            }
            next.order.push(p);
            next.cost += next.card;
            next.card *= lambdas[p];
            apply_ready_maps(
                stage,
                lambdas,
                &mut next.used,
                &mut next.filled,
                &mut next.order,
                &mut next.card,
                &mut next.cost,
            );
            let key = mask | (1 << bit);
            if best.get(&key).map(|b| next.cost < b.cost).unwrap_or(true) {
                best.insert(key, next);
            }
        }
    }
    let done = best.remove(&full)?;
    debug_assert_eq!(done.order.len(), stage.ops.len(), "all ops scheduled");
    Some(done.order)
}

/// Rewrite `plan` with selectivity-optimal probe orders and return it with
/// its [`PlanStats`], from one sampled evaluation: each stage is walked
/// once in its compiled order — the per-op λ the DP reads — and walked
/// again only if the DP moved an op, since only then do the counts
/// between its ops change. Equal, bit for bit, to
/// [`optimize_join_order`] followed by [`crate::stats::estimate`] on its
/// result, which sample the plan twice.
pub fn optimize_with_stats(db: &TpchDb, plan: &QueryPlan) -> (QueryPlan, PlanStats) {
    let mut out = plan.clone();
    let mut pass = SampledPass::new(db, plan);
    for stage in &mut out.stages {
        let mut sample = pass.walk(stage);
        let rows = db.table(&stage.driver).rows() as f64;
        let order = reorder_stage(stage, &sample.op_lambdas(), rows);
        if let Some(order) = order.filter(|o| o.windows(2).any(|w| w[0] > w[1])) {
            stage.ops = order.into_iter().map(|i| stage.ops[i].clone()).collect();
            sample = pass.walk(stage);
        }
        pass.finish(stage, sample);
    }
    out.validate();
    (out, pass.into_stats())
}

/// Rewrite `plan` with selectivity-optimal probe orders. Results are
/// unchanged (ops commute when dependencies allow); only intermediate
/// cardinalities — and therefore channel traffic and probe work — shrink.
pub fn optimize_join_order(db: &TpchDb, plan: &QueryPlan) -> QueryPlan {
    optimize_with_stats(db, plan).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpl_core::{plan_for, run_query, ExecContext, ExecMode, QueryConfig};
    use gpl_sim::amd_a10;
    use gpl_tpch::{reference, QueryId};

    fn db() -> TpchDb {
        TpchDb::at_scale(0.01)
    }

    fn db_big() -> TpchDb {
        // Large enough that intermediate cardinalities dominate fixed
        // overheads in measured cycles.
        TpchDb::at_scale(0.05)
    }

    #[test]
    fn optimized_plans_stay_correct() {
        let db = db();
        let spec = amd_a10();
        let mut ctx = ExecContext::new(spec.clone(), db.clone());
        for q in [QueryId::Q5, QueryId::Q8, QueryId::Q9, QueryId::Q3] {
            let plan = optimize_join_order(&db, &plan_for(&db, q));
            let cfg = QueryConfig::default_for(&spec, &plan);
            let run = run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg);
            assert_eq!(run.output, reference::run(&ctx.db, q), "{}", q.name());
        }
    }

    #[test]
    fn q8_keeps_the_most_selective_probe_first() {
        let db = db();
        let plan = optimize_join_order(&db, &plan_for(&db, QueryId::Q8));
        let probe_stage = plan.stages.last().expect("probe stage");
        let first_probe = probe_stage
            .ops
            .iter()
            .find_map(|op| match op {
                PipeOp::Probe { ht, .. } => Some(*ht),
                _ => None,
            })
            .expect("has probes");
        assert_eq!(first_probe, 0, "the ~1/150 steel semi-join must stay first");
    }

    #[test]
    fn scrambled_q8_is_repaired() {
        let db = db();
        let mut plan = plan_for(&db, QueryId::Q8);
        // Sabotage: move the steel semi-join to the end. The dependency
        // structure allows it (its key is a load slot), but every probe
        // then processes 150x the rows.
        let stage = plan.stages.last_mut().expect("probe stage");
        let steel = stage.ops.remove(0);
        // Legal because the semi-probe reads a load slot and fills none:
        // it can sit anywhere after the loads.
        let last_probe = stage
            .ops
            .iter()
            .rposition(|op| matches!(op, PipeOp::Probe { .. }))
            .expect("probes");
        stage.ops.insert(last_probe + 1, steel);
        plan.validate();

        let fixed = optimize_join_order(&db, &plan);
        let stage = fixed.stages.last().expect("probe stage");
        let first_probe = stage
            .ops
            .iter()
            .find_map(|op| match op {
                PipeOp::Probe { ht, .. } => Some(*ht),
                _ => None,
            })
            .expect("has probes");
        assert_eq!(
            first_probe, 0,
            "optimizer must move the selective probe back up"
        );

        // And the repair is visible in simulated cycles (at a scale where
        // intermediate cardinality dominates fixed overheads).
        let db = db_big();
        let plan = {
            let mut plan = plan_for(&db, QueryId::Q8);
            let stage = plan.stages.last_mut().expect("probe stage");
            let steel = stage.ops.remove(0);
            let last_probe = stage
                .ops
                .iter()
                .rposition(|op| matches!(op, PipeOp::Probe { .. }))
                .expect("probes");
            stage.ops.insert(last_probe + 1, steel);
            plan
        };
        let fixed = optimize_join_order(&db, &plan);
        let spec = amd_a10();
        let mut ctx = ExecContext::new(spec.clone(), db.clone());
        let cfg_bad = QueryConfig::default_for(&spec, &plan);
        let cfg_good = QueryConfig::default_for(&spec, &fixed);
        ctx.sim.clear_cache();
        let bad = run_query(&mut ctx, &plan, ExecMode::Gpl, &cfg_bad);
        ctx.sim.clear_cache();
        let good = run_query(&mut ctx, &fixed, ExecMode::Gpl, &cfg_good);
        assert_eq!(bad.output, good.output);
        assert!(
            good.cycles < bad.cycles,
            "repaired order {} must beat scrambled {}",
            good.cycles,
            bad.cycles
        );
    }

    #[test]
    fn single_probe_stages_are_untouched() {
        let db = db();
        let plan = plan_for(&db, QueryId::Q14);
        let opt = optimize_join_order(&db, &plan);
        for (a, b) in plan.stages.iter().zip(&opt.stages) {
            assert_eq!(a.ops.len(), b.ops.len());
        }
    }
}
