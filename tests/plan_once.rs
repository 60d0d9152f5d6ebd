//! A cold query is planned from one sampled evaluation. These checks hold
//! that pass to the two it replaced: λ read off per-op row counts equals
//! λ from evaluating the sample one group at a time, and the fused
//! `optimize_with_stats` equals `optimize_join_order` followed by
//! `estimate_stats` on its result — exact `f64` equality, over the corpus
//! SQL and the benchmark's pinned ad-hoc texts.

use gpl_repro::core::plan::QueryPlan;
use gpl_repro::model::{estimate_stats, optimize_join_order, optimize_with_stats, PlanStats};
use gpl_repro::sql::{compile, random_workload, sql_for};
use gpl_repro::tpch::{QueryId, TpchDb};

/// The sampled evaluation as it stood before the single pass: the sample
/// re-evaluated group by group under a caller-chosen grouping, build
/// tables as a map of `Vec`s. Kept as the reference the counts must match.
mod reference {
    use gpl_repro::core::ht::BuildMix64;
    use gpl_repro::core::ops::{apply_compute, apply_filter, Chunk};
    use gpl_repro::core::plan::{PipeOp, QueryPlan, Stage, Terminal};
    use gpl_repro::model::stats::SAMPLE_ROWS;
    use gpl_repro::model::PlanStats;
    use gpl_repro::tpch::TpchDb;
    use std::collections::HashMap;

    struct MiniHt {
        map: HashMap<i64, Vec<i64>, BuildMix64>,
    }

    fn eval_group(ops: &[&PipeOp], mut chunk: Chunk, hts: &[Option<MiniHt>]) -> (Chunk, f64) {
        let rows_in = chunk.rows.max(1) as f64;
        for op in ops {
            if chunk.rows == 0 {
                break;
            }
            match op {
                PipeOp::Filter(p) => chunk = apply_filter(&chunk, p),
                PipeOp::Compute { expr, out } => apply_compute(&mut chunk, expr, *out),
                PipeOp::Probe { ht, key, payloads } => {
                    let table = hts[*ht].as_ref().expect("probe after build");
                    let mut keep = Vec::new();
                    let mut pay: Vec<Vec<i64>> = vec![Vec::new(); payloads.len()];
                    for r in 0..chunk.rows {
                        if let Some(p) = table.map.get(&chunk.cols[*key][r]) {
                            keep.push(r);
                            for (i, v) in p.iter().enumerate() {
                                pay[i].push(*v);
                            }
                        }
                    }
                    let mut out = Chunk::new(chunk.cols.len());
                    out.rows = keep.len();
                    for s in 0..chunk.cols.len() {
                        if chunk.filled[s] {
                            out.cols[s] = keep.iter().map(|&r| chunk.cols[s][r]).collect();
                            out.filled[s] = true;
                        }
                    }
                    for (i, &s) in payloads.iter().enumerate() {
                        out.cols[s] = std::mem::take(&mut pay[i]);
                        out.filled[s] = true;
                    }
                    chunk = out;
                }
            }
        }
        (chunk, rows_in)
    }

    fn load_chunk(db: &TpchDb, stage: &Stage, rows: &[usize]) -> Chunk {
        let t = db.table(&stage.driver);
        let mut chunk = Chunk::new(stage.num_slots());
        for (s, name) in stage.loads.iter().enumerate() {
            let col = t.col(name);
            chunk.fill(s, col.gather_i64(rows));
        }
        chunk
    }

    pub fn estimate(db: &TpchDb, plan: &QueryPlan) -> PlanStats {
        let mut hts: Vec<Option<MiniHt>> = (0..plan.num_hts).map(|_| None).collect();
        let mut stage_lambdas = Vec::with_capacity(plan.stages.len());
        let mut stage_selectivity = Vec::with_capacity(plan.stages.len());
        let mut ht_rows = vec![0.0; plan.num_hts];

        for stage in &plan.stages {
            let total = db.table(&stage.driver).rows();
            let is_build = matches!(stage.terminal, Terminal::HashBuild { .. });
            let rows: Vec<usize> = if is_build || total <= SAMPLE_ROWS {
                (0..total).collect()
            } else {
                let step = total as f64 / SAMPLE_ROWS as f64;
                (0..SAMPLE_ROWS)
                    .map(|i| (i as f64 * step) as usize)
                    .collect()
            };
            let scale = total as f64 / rows.len().max(1) as f64;

            let mut chunk = load_chunk(db, stage, &rows);
            let groups = stage.gpl_fusion();
            let mut lambdas = Vec::with_capacity(groups.len());
            for g in &groups {
                let ops: Vec<&PipeOp> = g.iter().map(|&i| &stage.ops[i]).collect();
                let (out, rows_in) = eval_group(&ops, chunk, &hts);
                lambdas.push((out.rows as f64 / rows_in).clamp(0.0, 1.0));
                chunk = out;
            }
            let sel = if rows.is_empty() {
                0.0
            } else {
                chunk.rows as f64 / rows.len() as f64
            };
            stage_selectivity.push(sel);

            if let Terminal::HashBuild { ht, key, payloads } = &stage.terminal {
                let mut map = HashMap::with_capacity_and_hasher(chunk.rows, BuildMix64::default());
                for r in 0..chunk.rows {
                    let pay: Vec<i64> = payloads.iter().map(|&p| chunk.cols[p][r]).collect();
                    map.insert(chunk.cols[*key][r], pay);
                }
                ht_rows[*ht] = chunk.rows as f64 * scale;
                hts[*ht] = Some(MiniHt { map });
            }
            stage_lambdas.push(lambdas);
        }
        PlanStats {
            stage_lambdas,
            stage_selectivity,
            ht_rows,
        }
    }
}

/// The benchmark's `adhoc_cold` content: window and warm-up texts.
const ADHOC_SEED: u64 = 20160626;
const ADHOC_TEXTS: usize = 550;
/// The two texts with a stage that loads no column (`count(*)` only).
const ZERO_ROW_TEXTS: [usize; 2] = [189, 430];

/// Op order and hash-table wiring of every stage, as text.
fn shape(plan: &QueryPlan) -> String {
    format!(
        "{:?}",
        (plan.stages.iter())
            .map(|s| (&s.ops, &s.terminal))
            .collect::<Vec<_>>()
    )
}

fn bits(stats: &PlanStats) -> Vec<u64> {
    (stats.stage_lambdas.iter().flatten())
        .chain(&stats.stage_selectivity)
        .chain(&stats.ht_rows)
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn one_pass_equals_the_two_it_replaced() {
    let db = TpchDb::at_scale(0.005);
    let adhoc = random_workload(ADHOC_SEED, ADHOC_TEXTS);
    let corpus = QueryId::all().into_iter().filter_map(sql_for);
    // Ad-hoc texts carry their index; corpus texts none.
    let texts: Vec<(Option<usize>, &str)> = (corpus.map(|sql| (None, sql)))
        .chain((adhoc.iter().enumerate()).map(|(i, sql)| (Some(i), sql.as_str())))
        .collect();

    let (mut reordered, mut moved_a_count, mut zero_row_stages) = (0, 0, 0);
    // FNV-1a over every reordered plan's shape and statistics.
    let mut digest = gpl_prng::Fnv1a::new();
    for &(i, sql) in &texts {
        let compiled = compile(&db, sql).unwrap_or_else(|e| panic!("text {i:?}: {e}\n{sql}"));
        // λ from counts ≡ λ from the group-at-a-time walk, before …
        let by_counts = estimate_stats(&db, &compiled);
        assert_eq!(
            bits(&by_counts),
            bits(&reference::estimate(&db, &compiled)),
            "text {i:?} as compiled: {sql}"
        );

        // … and after the join-order DP, where the fused entry re-walks
        // only the stages it reordered while the reference and the plain
        // `estimate_stats` evaluate the reordered plan from scratch.
        let (plan, stats) = optimize_with_stats(&db, &compiled);
        let ordered = optimize_join_order(&db, &compiled);
        assert_eq!(shape(&plan), shape(&ordered), "text {i:?}: {sql}");
        let fresh = estimate_stats(&db, &ordered);
        assert_eq!(stats, fresh, "text {i:?}: {sql}");
        assert_eq!(
            bits(&fresh),
            bits(&reference::estimate(&db, &ordered)),
            "text {i:?} reordered: {sql}"
        );

        digest.write(shape(&ordered).as_bytes());
        bits(&fresh).into_iter().for_each(|b| digest.write_u64(b));

        if shape(&plan) != shape(&compiled) {
            reordered += 1;
            // A moved op changes the counts between ops: here a stale
            // count would show.
            moved_a_count += usize::from(bits(&stats) != bits(&by_counts));
        }
        // The zero-row quirk, pinned: a stage that loads no column gets a
        // chunk of zero rows, so λ and selectivity read 0 (ROADMAP, Eq. 8
        // item: fix in the PR that re-pins).
        for (s, stage) in plan.stages.iter().enumerate() {
            if stage.loads.is_empty() {
                zero_row_stages += 1;
                assert!(stats.stage_lambdas[s].iter().all(|&l| l == 0.0), "{sql}");
                assert_eq!(stats.stage_selectivity[s], 0.0, "{sql}");
            }
        }
        if i.is_some_and(|i| ZERO_ROW_TEXTS.contains(&i)) {
            assert!(plan.stages.iter().any(|s| s.loads.is_empty()), "{sql}");
        }
    }
    assert!(
        reordered >= 1 && moved_a_count >= 1,
        "no text exercised a DP reorder ({reordered} reordered, {moved_a_count} moved λ)"
    );
    assert!(zero_row_stages >= ZERO_ROW_TEXTS.len());
    // What `optimize_join_order` + `estimate_stats` returned for these
    // texts at the commit before the single pass (the DP's per-op λ input
    // is not public; its decisions are).
    let line = format!(
        "texts={} reordered={reordered} moved_a_count={moved_a_count} \
         zero_row_stages={zero_row_stages} digest={:#018x}",
        texts.len(),
        digest.finish()
    );
    gpl_check::pins::check("plan_once", &line).unwrap_or_else(|e| panic!("{e}"));
}
