//! Smoke test: every `repro` experiment must run end to end at a tiny
//! scale factor without panicking (the heavyweight fixed-sweep ones are
//! exercised by the repro binary itself and skipped here for time).

use gpl_bench::experiments::{registry, Opts};
use gpl_sim::amd_a10;

#[test]
fn cheap_experiments_run_at_tiny_scale() {
    // fig2/fig23 run full calibration sweeps and fig21/fig22 fixed SF
    // sweeps; they are covered by `repro all`. profile needs a query
    // argument and has its own smoke test below. chaos gates its tail
    // improvements at the pinned default scale (its hazard window is
    // sized for SF 0.3 launches, so a tiny-SF sweep never confirms a
    // fault) — `repro verify` runs it twice at the defaults instead.
    let skip = ["fig2", "fig21", "fig22", "fig23", "profile", "chaos"];
    let opts = Opts {
        sf: Some(0.004),
        device: amd_a10(),
        extra: Vec::new(),
        // Keep `serve` cheap here: a pinned pool and a short workload.
        workers: Some(2),
        queries: Some(6),
        artifact: Default::default(),
    };
    // faults' breaker run needs two device faults in a row at its 5e-2
    // per-launch rate: two passes over the ten corpus texts make enough
    // launches for that, six requests do not.
    let faults = Opts {
        queries: Some(20),
        ..opts.clone()
    };
    for e in registry() {
        if skip.contains(&e.name) {
            continue;
        }
        (e.run)(if e.name == "faults" { &faults } else { &opts });
    }
}

#[test]
fn profile_runs_and_exports() {
    let opts = Opts {
        sf: Some(0.004),
        device: amd_a10(),
        extra: vec!["q1".to_string()],
        workers: None,
        queries: None,
        artifact: Default::default(),
    };
    let e = registry()
        .into_iter()
        .find(|e| e.name == "profile")
        .expect("registered");
    (e.run)(&opts);
    for f in [
        "profile-q1-kbe.trace.json",
        "profile-q1-gpl.trace.json",
        "profile-q1-metrics.json",
    ] {
        let text = std::fs::read_to_string(format!("target/obs/{f}")).expect(f);
        gpl_obs::parse(&text).expect(f);
    }
}
