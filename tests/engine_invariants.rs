//! Engine-invariants suite: pins the simulator's *internal* shape —
//! per-launch event counts and `LaunchProfile` fingerprints — across
//! TPC-H plans × exec modes × shard counts. `tests/determinism.rs`
//! guards results and end-to-end fingerprints; this suite guards the
//! event-loop itself, so a scheduling rewrite (calendar queue, scratch
//! arenas, SoA counters) that silently reorders or drops events fails
//! here even when the query output happens to survive.
//!
//! Every work unit dispatched by the engine retires as exactly one
//! completion event, so the per-launch event count is the sum of
//! `KernelProfile::units` over the launch — pinned per stage below.
//! Running this suite in debug mode also exercises the engine's
//! zero-alloc `debug_assert` guard on every drained event.

use gpl_check::pins;
use gpl_repro::core::shard::{try_run_query_sharded, DevicePool, ShardAssignment, ShardPlan};
use gpl_repro::core::{plan_for, run_query, ExecContext, ExecLimits, ExecMode, QueryConfig};
use gpl_repro::ocelot::{self, OcelotContext};
use gpl_repro::sim::{amd_a10, nvidia_k40, LaunchProfile};
use gpl_repro::tpch::{QueryId, TpchDb};
use std::sync::{Arc, OnceLock};

/// FNV-1a over the Debug rendering — any field of any profile moving
/// (cycles, bytes, cache stats, per-kernel stamps) changes the digest.
fn profiles_fp(profiles: &[LaunchProfile]) -> u64 {
    gpl_prng::fnv1a(format!("{profiles:?}").as_bytes())
}

/// One completion event per dispatched work unit.
fn events(profiles: &[LaunchProfile]) -> u64 {
    profiles
        .iter()
        .flat_map(|p| &p.kernels)
        .map(|k| k.units)
        .sum()
}

fn db() -> Arc<TpchDb> {
    static DB: OnceLock<Arc<TpchDb>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(TpchDb::at_scale(0.005))).clone()
}

/// Structural invariants that must hold for any launch the engine
/// produces, pinned or not: work retired, time moved forward, stamps
/// ordered, occupancy within the device's theoretical ceiling.
fn check_structure(at: &str, profiles: &[LaunchProfile]) {
    assert!(!profiles.is_empty(), "{at}: no launches recorded");
    for (si, p) in profiles.iter().enumerate() {
        if p.kernels.is_empty() {
            continue; // devices that sat a stage out report a default profile
        }
        assert!(p.elapsed_cycles > 0, "{at} stage {si}: zero elapsed");
        for k in &p.kernels {
            assert!(k.units > 0, "{at} stage {si} {}: no events", k.name);
            assert!(
                k.last_complete >= k.first_dispatch,
                "{at} stage {si} {}: completion before dispatch",
                k.name
            );
            assert!(
                u64::from(k.peak_inflight) <= p.max_wavefronts,
                "{at} stage {si} {}: occupancy above device ceiling",
                k.name
            );
        }
    }
}

/// Pinned per-launch event counts and profile fingerprints on the
/// paper device at SF 0.005, one line per (query, mode) cell in
/// `pins/engine_single`. These are outputs of the seeded engine,
/// recorded from the first green run of this suite. If a line changes,
/// the event loop's behavior changed: explain the delta (new kernel?
/// different tiling? event dropped?) in the commit that re-pins it —
/// never re-pin blindly. GplPipelined matching Gpl is itself pinned:
/// at this scale no stage pair is overlap-eligible, so pipelined mode
/// must degrade to exactly Gpl.
#[test]
fn per_launch_events_and_profiles_pinned_across_modes() {
    let queries = [QueryId::Q1, QueryId::Q9, QueryId::Q14];
    let modes = [
        ExecMode::Kbe,
        ExecMode::GplNoCe,
        ExecMode::Gpl,
        ExecMode::GplPipelined,
    ];
    let mut got = Vec::new();
    for q in queries {
        for mode in modes {
            let mut ctx = ExecContext::with_shared(amd_a10(), db());
            let plan = plan_for(&ctx.db, q);
            let cfg = QueryConfig::default_for(&ctx.sim.spec().clone(), &plan);
            let run = run_query(&mut ctx, &plan, mode, &cfg);
            let at = format!("{q:?} {mode:?}");
            check_structure(&at, &run.per_stage);
            got.push(format!(
                "{} {mode:?} events={} fp={:#018x}",
                format!("{q:?}").to_lowercase(),
                events(&run.per_stage),
                profiles_fp(&run.per_stage),
            ));
        }
    }
    pins::check("engine_single", &got.join("\n")).unwrap_or_else(|e| panic!("{e}"));
}

/// Same pins for the sharded executor (`pins/engine_sharded`): event
/// counts and per-device profile digests must be a pure function of
/// (query, mode, shard count) on the default pool. Recorded from the first green run; the
/// shard count changes tiling so the cells legitimately differ from
/// each other — what must never change is any cell on its own.
#[test]
fn per_launch_events_and_profiles_pinned_across_shards() {
    let pool = DevicePool::default_pool();
    let cases = [(QueryId::Q9, ExecMode::Gpl), (QueryId::Q5, ExecMode::Kbe)];
    let mut got = Vec::new();
    for (q, mode) in cases {
        let plan = plan_for(&db(), q);
        let assignment = ShardAssignment::round_robin(&pool, &plan);
        for shards in [1usize, 2, 4] {
            let run = try_run_query_sharded(
                &pool,
                &db(),
                &plan,
                mode,
                &ShardPlan::range(shards),
                &assignment,
                &ExecLimits::default(),
                None,
                None,
                None,
                None,
            )
            .expect("fault-free sharded run");
            let all: Vec<LaunchProfile> = run
                .per_device
                .iter()
                .flat_map(|d| d.per_stage.iter().cloned())
                .collect();
            let at = format!("{q:?} {mode:?} shards={shards}");
            check_structure(&at, &all);
            got.push(format!(
                "{} {mode:?} shards={shards} events={} fp={:#018x}",
                format!("{q:?}").to_lowercase(),
                events(&all),
                profiles_fp(&all),
            ));
        }
    }
    pins::check("engine_sharded", &got.join("\n")).unwrap_or_else(|e| panic!("{e}"));
}

/// Ocelot's cycles (`pins/ocelot_cycles`), cold (tables built) then
/// warm (every build served by the hash-table cache), per query on both
/// devices at SF 0.01 — a fresh context and a fresh cache per query,
/// because the simulated L2 carries over from cold to warm (on the K40
/// Q1 runs *slower* warm).
/// The digest covers both runs' per-stage profiles with the observed
/// `rows_in/rows_out` plane cleared: it pins the timing side — kernel
/// sequence, stamps, bytes, cache statistics — which is what these
/// lines were recorded for, before Ocelot's kernels reported row flow.
/// Ocelot sizes each build table by the sampled estimate every mode
/// uses, so a filtered build (Q3, Q5, Q7, Q8, Q10) gets a table sized to
/// its filtered rows, not to its driver.
#[test]
fn ocelot_cold_and_warm_cycles_pinned_on_both_devices() {
    let db = Arc::new(TpchDb::at_scale(0.01));
    let queries = QueryId::evaluation_set()
        .into_iter()
        .chain(QueryId::extended_set());
    let mut got = Vec::new();
    for spec in [amd_a10(), nvidia_k40()] {
        let (mut cold_sum, mut warm_sum) = (0, 0);
        for q in queries.clone() {
            let mut ctx = ExecContext::with_shared(spec.clone(), db.clone());
            let mut oc = OcelotContext::new();
            let plan = plan_for(&ctx.db, q);
            let cold = ocelot::run_query(&mut ctx, &mut oc, &plan);
            let warm = ocelot::run_query(&mut ctx, &mut oc, &plan);
            let at = format!("{} {q:?}", spec.name);
            check_structure(&at, &cold.per_stage);
            check_structure(&at, &warm.per_stage);
            cold_sum += cold.cycles;
            warm_sum += warm.cycles;
            let mut stages = [cold.per_stage, warm.per_stage].concat();
            for k in stages.iter_mut().flat_map(|p| &mut p.kernels) {
                (k.rows_in, k.rows_out) = (0, 0);
            }
            got.push(format!(
                "{at} cold={} warm={} fp={:#018x}",
                cold.cycles,
                warm.cycles,
                profiles_fp(&stages),
            ));
        }
        got.push(format!("{} sum cold={cold_sum} warm={warm_sum}", spec.name));
    }
    pins::check("ocelot_cycles", &got.join("\n")).unwrap_or_else(|e| panic!("{e}"));
}
