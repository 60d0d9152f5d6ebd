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

use gpl_repro::core::shard::{try_run_query_sharded, DevicePool, ShardAssignment, ShardPlan};
use gpl_repro::core::{plan_for, run_query, ExecContext, ExecLimits, ExecMode, QueryConfig};
use gpl_repro::ocelot::{self, OcelotContext};
use gpl_repro::sim::{amd_a10, nvidia_k40, LaunchProfile};
use gpl_repro::tpch::{QueryId, TpchDb};
use std::sync::{Arc, OnceLock};

/// FNV-1a over the Debug rendering — any field of any profile moving
/// (cycles, bytes, cache stats, per-kernel stamps) changes the digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn profiles_fp(profiles: &[LaunchProfile]) -> u64 {
    fnv1a(format!("{profiles:?}").as_bytes())
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
/// paper device at SF 0.005, one line per (query, mode) cell. These are
/// outputs of the seeded engine, recorded from the first green run of
/// this suite. If a line changes, the event loop's behavior changed:
/// explain the delta (new kernel? different tiling? event dropped?) in
/// the commit that re-pins it — never re-pin blindly. GplPipelined
/// matching Gpl is itself pinned: at this scale no stage pair is
/// overlap-eligible, so pipelined mode must degrade to exactly Gpl.
const PINNED_SINGLE: &[&str] = &[
    "q1 Kbe events=33 fp=0xf96c9b477f0aee16",
    "q1 GplNoCe events=33 fp=0xa504e386341ca21e",
    "q1 Gpl events=24 fp=0x62a7efb5b740330b",
    "q1 GplPipelined events=24 fp=0x62a7efb5b740330b",
    "q9 Kbe events=151 fp=0xbb125bbca9a3759e",
    "q9 GplNoCe events=170 fp=0x0ba185a21f78d669",
    "q9 Gpl events=105 fp=0x695f0f60f99182e0",
    "q9 GplPipelined events=105 fp=0x695f0f60f99182e0",
    "q14 Kbe events=19 fp=0x7fcd58ef12d6a8f1",
    "q14 GplNoCe events=19 fp=0x7fcd58ef12d6a8f1",
    "q14 Gpl events=21 fp=0x3b908c24b31a5948",
    "q14 GplPipelined events=21 fp=0x3b908c24b31a5948",
];

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
    assert_eq!(
        got.iter().map(String::as_str).collect::<Vec<_>>(),
        PINNED_SINGLE,
        "engine event/profile invariants drifted — see module doc before re-pinning"
    );
}

/// Same pins for the sharded executor: event counts and per-device
/// profile digests must be a pure function of (query, mode, shard
/// count) on the default pool. Recorded from the first green run; the
/// shard count changes tiling so the cells legitimately differ from
/// each other — what must never change is any cell on its own.
const PINNED_SHARDED: &[&str] = &[
    "q9 Gpl shards=1 events=106 fp=0x71b6fc79cc43e296",
    "q9 Gpl shards=2 events=112 fp=0xa6d29dc248c8fcaa",
    "q9 Gpl shards=4 events=124 fp=0x125653f858eea3da",
    "q5 Kbe shards=1 events=41 fp=0x52c003ba69c4f5fa",
    "q5 Kbe shards=2 events=61 fp=0xc068609a4609b119",
    "q5 Kbe shards=4 events=101 fp=0xefdc06b4276b28fe",
];

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
    assert_eq!(
        got.iter().map(String::as_str).collect::<Vec<_>>(),
        PINNED_SHARDED,
        "sharded engine invariants drifted — see module doc before re-pinning"
    );
}

/// Ocelot's cycles, cold (tables built) then warm (every build served
/// by the hash-table cache), per query on both devices at SF 0.01 — a
/// fresh context and a fresh cache per query, because the simulated L2
/// carries over from cold to warm (on the K40 Q1 runs *slower* warm).
/// The digest covers both runs' per-stage profiles with the observed
/// `rows_in/rows_out` plane cleared: it pins the timing side — kernel
/// sequence, stamps, bytes, cache statistics — which is what these
/// lines were recorded for, before Ocelot's kernels reported row flow.
/// Ocelot sizes each build table by the sampled estimate every mode
/// uses, so a filtered build (Q3, Q5, Q7, Q8, Q10) gets a table sized to
/// its filtered rows, not to its driver.
const PINNED_OCELOT: &[&str] = &[
    "AMD A10 APU Q5 cold=477646 warm=262487 fp=0x5728cfc818e25478",
    "AMD A10 APU Q7 cold=614068 warm=375704 fp=0x5a853b1d033fe6d1",
    "AMD A10 APU Q8 cold=643354 warm=366835 fp=0xfc2e92e9caafe196",
    "AMD A10 APU Q9 cold=821032 warm=502224 fp=0xc647c68f301e4d0a",
    "AMD A10 APU Q14 cold=294472 warm=227163 fp=0x4817a4c6fbc2e135",
    "AMD A10 APU Q1 cold=264332 warm=214156 fp=0xdec778fd893b53b6",
    "AMD A10 APU Q3 cold=452301 warm=192619 fp=0x10f8287251e65c26",
    "AMD A10 APU Q6 cold=152076 warm=123404 fp=0x5fad70c36d1d2b94",
    "AMD A10 APU Q10 cold=414807 warm=244895 fp=0x03ae458b18d3f46b",
    "AMD A10 APU Q12 cold=408929 warm=237588 fp=0xcc346ae1a0d8593a",
    "AMD A10 APU sum cold=4543017 warm=2747075",
    "NVIDIA Tesla K40 Q5 cold=539283 warm=404925 fp=0xb9701f395840a30e",
    "NVIDIA Tesla K40 Q7 cold=751697 warm=594375 fp=0xc6b8e8311fc5d4de",
    "NVIDIA Tesla K40 Q8 cold=773929 warm=541434 fp=0x5359476adb41fd9a",
    "NVIDIA Tesla K40 Q9 cold=1008793 warm=683456 fp=0x8e2f38c436d131a0",
    "NVIDIA Tesla K40 Q14 cold=371849 warm=361802 fp=0x5e754b94e5c8d21f",
    "NVIDIA Tesla K40 Q1 cold=301309 warm=319427 fp=0xc38f6b992152fe05",
    "NVIDIA Tesla K40 Q3 cold=520245 warm=309245 fp=0x88947bd61bc2e24c",
    "NVIDIA Tesla K40 Q6 cold=189822 warm=174695 fp=0x6a0a24413e85d833",
    "NVIDIA Tesla K40 Q10 cold=484949 warm=368669 fp=0x7032a75262311475",
    "NVIDIA Tesla K40 Q12 cold=475577 warm=371837 fp=0x39065f6a4ca84871",
    "NVIDIA Tesla K40 sum cold=5417453 warm=4129865",
];

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
    assert_eq!(
        got.iter().map(String::as_str).collect::<Vec<_>>(),
        PINNED_OCELOT,
        "Ocelot cycles drifted — see module doc before re-pinning"
    );
}
