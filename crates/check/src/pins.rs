//! Committed expected values: one plain-text file per pinned plane under
//! `pins/` at the repo root, one entry per line.
//!
//! [`check`] writes what a test observed to `target/pins/<plane>` first,
//! then byte-compares it with the committed `pins/<plane>`. So one run of
//! the suite leaves every observed plane on disk, also when several pins
//! fail, and a deliberate re-pin is one copy from the repo root:
//! `cp target/pins/* pins/`, the same protocol `repro verify` uses for
//! `cp target/obs/BENCH_*.json .`. The diff of `pins/` then shows what
//! moved.

use std::path::Path;

/// How many differing lines an error quotes.
const QUOTED: usize = 3;

/// Compare `observed` with the committed `pins/<plane>`, after writing it
/// to `target/pins/<plane>`. `pins/` is found as the property runner
/// finds regression files, by probing up from the working directory:
/// root tests run at the repo root, crate tests in `crates/<crate>`.
/// The error names the plane, the first differing lines and the copy
/// that re-pins.
pub fn check(plane: &str, observed: &str) -> Result<(), String> {
    let pins = crate::runner::locate_source("pins")
        .ok_or_else(|| format!("pins/{plane}: no pins/ at or above the working directory"))?;
    check_in(pins.parent().unwrap_or(Path::new("")), plane, observed)
}

fn check_in(root: &Path, plane: &str, observed: &str) -> Result<(), String> {
    let mut text = observed.to_string();
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    let out = root.join("target/pins");
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join(plane), &text))
        .map_err(|e| format!("pins/{plane}: cannot write target/pins/{plane}: {e}"))?;
    let hint = format!(
        "the observed plane is in target/pins/{plane}; if the change is deliberate, \
         re-pin from the repo root with `cp target/pins/{plane} pins/` and say in the \
         commit what moved"
    );
    let pinned = match std::fs::read_to_string(root.join("pins").join(plane)) {
        Ok(pinned) => pinned,
        Err(e) => return Err(format!("pins/{plane}: cannot read it ({e});\n{hint}")),
    };
    if pinned == text {
        return Ok(());
    }
    let (want, got): (Vec<&str>, Vec<&str>) = (pinned.lines().collect(), text.lines().collect());
    let differing: Vec<usize> = (0..want.len().max(got.len()))
        .filter(|&i| want.get(i) != got.get(i))
        .collect();
    let mut msg = format!(
        "pins/{plane}: {} line(s) differ ({} pinned, {} observed)",
        differing.len(),
        want.len(),
        got.len()
    );
    for &i in differing.iter().take(QUOTED) {
        let show = |l: Option<&&str>| l.map_or("(no line)".to_string(), |l| format!("`{l}`"));
        msg += &format!(
            "\n  line {}:\n    pinned   {}\n    observed {}",
            i + 1,
            show(want.get(i)),
            show(got.get(i))
        );
    }
    if differing.len() > QUOTED {
        msg += &format!("\n  … and {} more", differing.len() - QUOTED);
    }
    Err(format!("{msg}\n{hint}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gpl-pins-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("pins")).unwrap();
        dir
    }

    #[test]
    fn a_matching_plane_passes_and_is_written_out() {
        let root = scratch("match");
        std::fs::write(root.join("pins/p"), "a 1\nb 2\n").unwrap();
        assert_eq!(check_in(&root, "p", "a 1\nb 2"), Ok(()));
        let seen = std::fs::read_to_string(root.join("target/pins/p")).unwrap();
        assert_eq!(seen, "a 1\nb 2\n");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn a_differing_plane_names_file_line_and_copy() {
        let root = scratch("differ");
        std::fs::write(root.join("pins/p"), "a 1\nb 2\nc 3\n").unwrap();
        let err = check_in(&root, "p", "a 1\nb 9\nc 3\nd 4\n").unwrap_err();
        assert!(
            err.starts_with("pins/p: 2 line(s) differ (3 pinned, 4 observed)"),
            "{err}"
        );
        assert!(
            err.contains("line 2:\n    pinned   `b 2`\n    observed `b 9`"),
            "{err}"
        );
        assert!(err.contains("line 4:\n    pinned   (no line)"), "{err}");
        assert!(err.contains("`cp target/pins/p pins/`"), "{err}");
        // Written before the comparison, so the copy re-pins.
        let seen = std::fs::read_to_string(root.join("target/pins/p")).unwrap();
        std::fs::write(root.join("pins/p"), seen).unwrap();
        assert_eq!(check_in(&root, "p", "a 1\nb 9\nc 3\nd 4\n"), Ok(()));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn a_missing_pin_still_writes_the_observed_plane() {
        let root = scratch("missing");
        let err = check_in(&root, "new", "x\n").unwrap_err();
        assert!(err.starts_with("pins/new: cannot read it"), "{err}");
        assert!(root.join("target/pins/new").is_file());
        let _ = std::fs::remove_dir_all(root);
    }
}
