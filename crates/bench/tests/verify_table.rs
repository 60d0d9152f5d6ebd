//! The `repro verify` surface, checked without running it: the table
//! names real experiments, the committed pins are well-formed and
//! one-to-one with the table's pinned rows, and the Γ table every
//! experiment consumes is the unrounded calibration, whatever is on disk.

use gpl_bench::artifact::{validate, ArtifactSink};
use gpl_bench::experiments::verify::TABLE;
use gpl_bench::experiments::{registry, Opts};
use gpl_model::GammaTable;
use gpl_sim::{cpu_host, nvidia_k40, DeviceSpec};

/// The repo root: where the pins are committed and `repro verify` runs.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

#[test]
fn every_table_row_names_a_registered_experiment() {
    let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
    for row in TABLE {
        // `bench` is the artifact aggregator, dispatched beside the registry.
        let name = row.experiment();
        assert!(
            names.contains(&name) || name == "bench",
            "row `repro {}` names no experiment",
            row.args.join(" ")
        );
        assert!(row.repeats >= 1 && !row.compared.is_empty());
    }
}

#[test]
fn committed_pins_validate_and_match_the_pinned_rows() {
    let mut committed: Vec<String> = std::fs::read_dir(ROOT)
        .expect("repo root")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    committed.sort();
    let mut pinned: Vec<String> = TABLE
        .iter()
        .filter(|r| r.pinned())
        .map(|r| r.artifact())
        .collect();
    pinned.sort();
    assert_eq!(committed, pinned, "committed pins vs pinned table rows");
    for name in &committed {
        let text = std::fs::read_to_string(format!("{ROOT}/{name}")).expect(name);
        let json = gpl_obs::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        validate(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            format!(
                "BENCH_{}.json",
                json.get("experiment").unwrap().as_str().unwrap()
            ),
            *name,
            "{name} carries another experiment's artifact"
        );
    }
}

fn opts_for(device: DeviceSpec) -> Opts {
    Opts {
        sf: None,
        device,
        extra: Vec::new(),
        workers: None,
        queries: None,
        artifact: ArtifactSink::default(),
    }
}

/// `Opts::gamma` is `GammaTable::calibrate`, bit for bit (`Debug` prints
/// the shortest round-tripping form of every `f64`), both with nothing
/// on disk and with a stale six-decimal `target/gamma-*.txt` of the kind
/// earlier versions cached and preferred.
#[test]
fn opts_gamma_is_the_unrounded_calibration_whatever_is_on_disk() {
    std::fs::create_dir_all("target").expect("target dir");
    let stale = "target/gamma-nvidia-tesla-k40.txt";
    std::fs::write(
        stale,
        "gamma v1 Nvidia ns=1 ps=16 ds=65536\npressure 1.000000\nt 1 16 1.000000\n",
    )
    .expect("write stale cache file");
    let _ = std::fs::remove_file("target/gamma-host-cpu-x86.txt");
    for spec in [nvidia_k40(), cpu_host()] {
        assert_eq!(
            format!("{:?}", opts_for(spec.clone()).gamma()),
            format!("{:?}", GammaTable::calibrate(&spec)),
            "{}",
            spec.name
        );
    }
    let _ = std::fs::remove_file(stale);
}
