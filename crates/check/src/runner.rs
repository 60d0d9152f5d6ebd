//! The property runner: replay persisted regression seeds, run fresh
//! deterministic cases, and on failure shrink + persist + panic with
//! the minimal counterexample.

use crate::shrink::shrink;
use crate::strategy::Strategy;
use crate::Gen;
use std::cell::Cell;
use std::io::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Once;

/// Default cases per property (proptest's default).
pub const DEFAULT_CASES: u32 = 256;

thread_local! {
    /// Set while the harness intentionally provokes panics (shrinking),
    /// so the default hook doesn't spam the test output.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn payload_to_string(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// FNV-1a's shape with prime `0x1000_0000_01b3`, not FNV's
/// `0x100_0000_01b3`. Every property's base seed is this hash of its
/// name, so its case stream and the seeds persisted from its failures
/// depend on the constant, and it stays.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Locate a workspace-relative path such as a `file!()` path or
/// `pins`. Paths are relative to the *workspace* root but tests run with
/// CWD at the *package* root, so probe a few parent levels.
pub(crate) fn locate_source(file: &str) -> Option<PathBuf> {
    for up in ["", "..", "../.."] {
        let p = Path::new(up).join(file);
        if p.exists() {
            return Some(p);
        }
    }
    None
}

/// `foo/bar.rs` → `foo/bar.proptest-regressions` (the proptest
/// convention, kept so existing files stay meaningful in place).
fn regressions_path(file: &str) -> Option<PathBuf> {
    locate_source(file).map(|p| p.with_extension("proptest-regressions"))
}

/// Parse persisted seeds for `name`. New-format lines look like
/// `seed 0x1234 # name: shrinks to …`; legacy proptest `cc <hash>`
/// lines cannot be replayed by this harness and are skipped.
fn load_seeds(path: &Path, name: &str) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut seeds = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("seed ") else {
            continue;
        };
        let token = rest.split_whitespace().next().unwrap_or("");
        let parsed = token.strip_prefix("0x").map_or_else(
            || token.parse::<u64>().ok(),
            |h| u64::from_str_radix(h, 16).ok(),
        );
        let Some(seed) = parsed else { continue };
        // A `# name:` comment scopes the seed to one property; unscoped
        // seeds are replayed by every property in the file (harmless).
        let scoped_elsewhere = rest
            .split_once('#')
            .map(|(_, c)| {
                let c = c.trim();
                c.contains(':') && !c.starts_with(&format!("{name}:"))
            })
            .unwrap_or(false);
        if !scoped_elsewhere {
            seeds.push(seed);
        }
    }
    seeds
}

/// Append `seed` to the regressions file unless the file already
/// replays it for `name` (a persisted seed that fails again).
fn persist_seed(path: &Path, name: &str, seed: u64, minimal: &str) {
    if load_seeds(path, name).contains(&seed) {
        return;
    }
    let fresh = !path.exists();
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        return; // read-only checkouts still get the panic report
    };
    if fresh {
        let _ = writeln!(
            f,
            "# Seeds for failure cases the gpl-check harness found in the past.\n\
             # Automatically read and re-run before any novel cases are generated.\n\
             # Check this file in so every checkout replays the same regressions.\n#"
        );
    }
    let one_line = minimal.replace('\n', " ");
    let _ = writeln!(f, "seed {seed:#x} # {name}: shrinks to {one_line}");
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// Run one case from a seed; `Err` carries the recorded choice stream
/// and the panic message.
#[allow(clippy::type_complexity)]
fn run_seed<S: Strategy>(
    strat: &S,
    test: &impl Fn(S::Value),
    seed: u64,
) -> Result<(), (Vec<u64>, String)> {
    let mut g = Gen::from_seed(seed);
    let value = strat.generate(&mut g);
    let choices = g.into_record();
    QUIET.with(|q| q.set(true));
    let r = panic::catch_unwind(AssertUnwindSafe(|| test(value)));
    QUIET.with(|q| q.set(false));
    r.map_err(|p| (choices, payload_to_string(p)))
}

/// The main entry used by the [`prop!`](macro@crate::prop) macro.
pub fn run<S: Strategy>(file: &str, name: &str, cases: u32, strat: S, test: impl Fn(S::Value)) {
    run_config(file, name, cases, true, strat, test)
}

pub fn run_config<S: Strategy>(
    file: &str,
    name: &str,
    cases: u32,
    persist: bool,
    strat: S,
    test: impl Fn(S::Value),
) {
    install_quiet_hook();
    let cases = env_u64("GPL_CHECK_CASES")
        .map(|n| n as u32)
        .unwrap_or(cases);
    // Hermetic by construction: the universe of cases is a pure function
    // of (file, name) unless GPL_CHECK_SEED overrides the base.
    let base =
        env_u64("GPL_CHECK_SEED").unwrap_or_else(|| fnv1a(format!("{file}::{name}").as_bytes()));

    let regressions = regressions_path(file);
    let persisted: Vec<u64> = regressions
        .as_deref()
        .map(|p| load_seeds(p, name))
        .unwrap_or_default();

    let total = persisted.len() as u64 + cases as u64;
    let seeds = persisted
        .into_iter()
        .chain((0..cases as u64).map(|i| base.wrapping_add(i)));
    for (i, seed) in seeds.enumerate() {
        let Err((choices, msg)) = run_seed(&strat, &test, seed) else {
            continue;
        };
        // Shrink on the recorded choice stream.
        QUIET.with(|q| q.set(true));
        let minimal = shrink(choices, |cand| {
            let mut g = Gen::replay(cand.to_vec());
            let v = strat.generate(&mut g);
            panic::catch_unwind(AssertUnwindSafe(|| test(v))).is_err()
        });
        QUIET.with(|q| q.set(false));
        let mut g = Gen::replay(minimal);
        let minimal_value = strat.generate(&mut g);
        let minimal_dbg = format!("{minimal_value:?}");
        let mut note = String::new();
        if persist {
            if let Some(p) = &regressions {
                persist_seed(p, name, seed, &minimal_dbg);
                note = format!("\nseed persisted to {}", p.display());
            }
        }
        panic!(
            "[gpl-check] property '{name}' failed at case {}/{total} (seed {seed:#x}).\n\
             minimal counterexample: {minimal_dbg}\n\
             original failure: {msg}{note}",
            i + 1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection;

    fn failure_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        install_quiet_hook();
        QUIET.with(|q| q.set(true));
        let r = panic::catch_unwind(f);
        QUIET.with(|q| q.set(false));
        payload_to_string(r.expect_err("property must fail"))
    }

    #[test]
    fn passing_property_runs_all_cases() {
        run_config(
            "tests/x.rs",
            "always_passes",
            64,
            false,
            (0u32..100,),
            |(v,)| {
                assert!(v < 100);
            },
        );
    }

    #[test]
    fn failing_property_shrinks_to_minimal_counterexample() {
        // Deliberately failing: rejects any vector containing an
        // element >= 10. The minimal counterexample is exactly [10].
        let msg = failure_message(|| {
            run_config(
                "tests/x.rs",
                "no_big_elements",
                256,
                false,
                (collection::vec(0u32..1000, 0..50),),
                |(v,)| {
                    assert!(v.iter().all(|&x| x < 10), "big element in {v:?}");
                },
            )
        });
        assert!(
            msg.contains("minimal counterexample: ([10],)"),
            "shrinker landed elsewhere: {msg}"
        );
    }

    #[test]
    fn scalar_failures_shrink_to_the_boundary() {
        let msg = failure_message(|| {
            run_config(
                "tests/x.rs",
                "boundary",
                256,
                false,
                (0i64..1_000_000,),
                |(v,)| {
                    assert!(v < 31_337);
                },
            )
        });
        assert!(msg.contains("minimal counterexample: (31337,)"), "{msg}");
    }

    #[test]
    fn mapped_strategies_shrink_through_the_map() {
        // prop_map has no inverse; shrinking must happen on choices.
        #[derive(Debug)]
        struct Wrap(u64);
        let strat = (0u64..100_000).prop_map(Wrap);
        let msg = failure_message(|| {
            run_config("tests/x.rs", "wrapped", 256, false, (strat,), |(w,)| {
                assert!(w.0 < 777);
            })
        });
        assert!(
            msg.contains("minimal counterexample: (Wrap(777),)"),
            "{msg}"
        );
    }

    #[test]
    fn seed_lines_parse_and_filter() {
        let dir = std::env::temp_dir().join("gpl-check-selftest");
        let _ = std::fs::create_dir_all(&dir);
        let p = dir.join("r.proptest-regressions");
        std::fs::write(
            &p,
            "# comment\n\
             cc 5c77b94e36e6bc9728955ac1b80212157992f70a6c8062995211fd4b7fb138e9 # legacy\n\
             seed 0x2a # mine: shrinks to []\n\
             seed 7 # other: shrinks to []\n\
             seed 9\n",
        )
        .unwrap();
        assert_eq!(load_seeds(&p, "mine"), vec![42, 9]);
        assert_eq!(load_seeds(&p, "other"), vec![7, 9]);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn a_seed_already_persisted_for_the_property_is_not_appended_again() {
        let dir = std::env::temp_dir().join("gpl-check-selftest");
        let _ = std::fs::create_dir_all(&dir);
        let p = dir.join("persist-twice.proptest-regressions");
        let _ = std::fs::remove_file(&p);
        persist_seed(&p, "mine", 0x2a, "(1,)");
        persist_seed(&p, "mine", 0x2a, "(1,)");
        persist_seed(&p, "other", 0x2a, "(1,)");
        let text = std::fs::read_to_string(&p).unwrap();
        let seeds: Vec<&str> = text.lines().filter(|l| l.starts_with("seed ")).collect();
        assert_eq!(
            seeds,
            [
                "seed 0x2a # mine: shrinks to (1,)",
                "seed 0x2a # other: shrinks to (1,)"
            ]
        );
        assert_eq!(load_seeds(&p, "mine"), vec![0x2a]);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn deterministic_across_invocations() {
        // The exact failing seed must be stable run over run.
        let grab = || {
            failure_message(|| {
                run_config("tests/x.rs", "det", 256, false, (0u32..1_000,), |(v,)| {
                    assert!(v < 900);
                })
            })
        };
        let a = grab();
        let b = grab();
        assert_eq!(a, b);
    }
}
