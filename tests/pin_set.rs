//! The committed pin set, checked without running the tests that read
//! it: every file in `pins/` is named by exactly one `pins::check` call
//! in the workspace sources, so a deleted or renamed test cannot leave
//! an orphan pin behind, and no two calls share a plane.

use std::collections::BTreeMap;
use std::path::Path;

/// The call whose first argument names a plane. Spelled in two pieces so
/// this file holds no call of its own.
const CALL: &str = concat!("pins::", "check(");

/// Every `.rs` file under `dir`, build output skipped.
fn sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.filter_map(|e| Some(e.ok()?.path())) {
        if path.is_dir() && !path.ends_with("target") {
            sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The string literal each call passes as its plane, with where it is.
fn planes_named(text: &str, file: &Path, out: &mut BTreeMap<String, Vec<String>>) {
    for (at, _) in text.match_indices(CALL) {
        let rest = text[at + CALL.len()..].trim_start();
        let plane = rest
            .strip_prefix('"')
            .and_then(|r| r.split_once('"'))
            .map(|(plane, _)| plane)
            .unwrap_or_else(|| panic!("{}: a pins call without a literal plane", file.display()));
        let line = text[..at].lines().count();
        (out.entry(plane.to_string()).or_default()).push(format!("{}:{line}", file.display()));
    }
}

#[test]
fn every_pin_is_read_by_exactly_one_check_call() {
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples", "crates"] {
        sources(Path::new(dir), &mut files);
    }
    let mut calls = BTreeMap::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        planes_named(&text, file, &mut calls);
    }
    for (plane, sites) in &calls {
        assert_eq!(sites.len(), 1, "plane `{plane}` is checked at {sites:?}");
    }
    let mut committed: Vec<String> = std::fs::read_dir("pins")
        .expect("pins/ at the repo root")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    committed.sort();
    let named: Vec<&String> = calls.keys().collect();
    assert_eq!(
        committed.iter().collect::<Vec<_>>(),
        named,
        "files in pins/ vs planes named by check calls"
    );
}
