//! `srclint` — source-level lint gate for the frame-relay hot path.
//!
//! The relay path (server relay loop, RIS forwarding, tunnel transport)
//! must not panic: a panicking `unwrap()`/`expect()` there takes the
//! whole shared facility down with it. The same rule covers the static
//! analyzer (`crates/analysis`), which runs inside the deploy gate on
//! arbitrary user configs. This gate scans the hot-path files for
//! panic-prone constructs in non-test code and fails CI when it finds
//! one that is not explicitly allowlisted.
//!
//! Allowlist: `tools/srclint-allow.txt`, one entry per line in the form
//! `<path>: <trimmed source line>`. Stale entries (no longer matching
//! any offending line) also fail the gate so the list cannot rot.
//!
//! Exit status: 0 clean, 1 findings or stale allowlist, 2 on I/O error.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files whose non-test code must stay panic-free.
const HOT_PATHS: &[&str] = &[
    "crates/server/src/lib.rs",
    "crates/server/src/relay.rs",
    "crates/server/src/journal.rs",
    "crates/server/src/overload.rs",
    "crates/server/src/snapshot.rs",
    "crates/server/src/matrix.rs",
    "crates/server/src/inventory.rs",
    "crates/server/src/shard.rs",
    "crates/ris/src/lib.rs",
    "crates/ris/src/supervisor.rs",
    "crates/obs/src/hash.rs",
    "crates/ris/src/mesh.rs",
    "crates/server/src/mesh.rs",
    "crates/tunnel/src/mesh.rs",
    "crates/tunnel/src/backoff.rs",
    "crates/tunnel/src/transport.rs",
    "crates/tunnel/src/wait.rs",
    "crates/tunnel/src/faults.rs",
    "crates/tunnel/src/ring.rs",
    "crates/tunnel/src/codec.rs",
    "crates/tunnel/src/msg.rs",
    "crates/tunnel/src/compress.rs",
    "crates/l1switch/src/lib.rs",
    "crates/analysis/src/lib.rs",
    "crates/analysis/src/checks.rs",
    "crates/analysis/src/diag.rs",
    "crates/analysis/src/model.rs",
    "crates/analysis/src/cover.rs",
    "crates/analysis/src/verify.rs",
];

/// Panic-prone constructs the gate rejects.
const BANNED: &[&str] = &[".unwrap()", ".expect(", "panic!("];

fn repo_root() -> PathBuf {
    // bench lives at crates/bench; the workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Strip `#[cfg(test)] mod … { … }` blocks: offenses inside tests are
/// fine (tests *should* assert hard). Tracks brace depth from the mod
/// opening brace.
fn non_test_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut skipping = false;
    let mut depth: i64 = 0;
    let mut cfg_test_pending = false;
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if skipping {
            depth += brace_delta(line);
            if depth <= 0 {
                skipping = false;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            cfg_test_pending = true;
            continue;
        }
        if cfg_test_pending {
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                skipping = true;
                depth = brace_delta(line);
                if depth <= 0 && line.contains('{') {
                    // `mod t { … }` on one line with balanced braces.
                    skipping = false;
                }
                cfg_test_pending = false;
                continue;
            }
            // Some other cfg(test) item (fn, use): skip just that line.
            cfg_test_pending = false;
            continue;
        }
        out.push((idx + 1, line));
    }
    out
}

fn brace_delta(line: &str) -> i64 {
    let mut delta = 0;
    for c in line.chars() {
        match c {
            '{' => delta += 1,
            '}' => delta -= 1,
            _ => {}
        }
    }
    delta
}

fn main() -> ExitCode {
    let root = repo_root();
    let allow_path = root.join("tools/srclint-allow.txt");
    let allowlist: BTreeSet<String> = match std::fs::read_to_string(&allow_path) {
        Ok(text) => text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect(),
        Err(_) => BTreeSet::new(),
    };
    let mut used_allows: BTreeSet<String> = BTreeSet::new();
    let mut findings = Vec::new();
    for rel in HOT_PATHS {
        let path = root.join(rel);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("srclint: {rel}: {e}");
                return ExitCode::from(2);
            }
        };
        for (line_no, line) in non_test_lines(&text) {
            let trimmed = line.trim();
            if trimmed.starts_with("//") {
                continue;
            }
            if BANNED.iter().any(|b| trimmed.contains(b)) {
                let key = format!("{rel}: {trimmed}");
                if allowlist.contains(&key) {
                    used_allows.insert(key);
                } else {
                    findings.push(format!("{rel}:{line_no}: {trimmed}"));
                }
            }
        }
    }
    let stale: Vec<&String> = allowlist.difference(&used_allows).collect();
    if findings.is_empty() && stale.is_empty() {
        println!(
            "srclint: hot path clean ({} files, {} allowlisted)",
            HOT_PATHS.len(),
            used_allows.len()
        );
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        eprintln!("srclint: panic-prone construct in hot path: {f}");
    }
    for s in &stale {
        eprintln!("srclint: stale allowlist entry (remove it): {s}");
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_outside_tests_only() {
        let src = "fn hot() {\n    x.unwrap();\n}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        y.unwrap();\n    }\n}\nfn more() {\n    z.expect(\"boom\");\n}\n";
        let lines = non_test_lines(src);
        let flagged: Vec<usize> = lines
            .iter()
            .filter(|(_, l)| BANNED.iter().any(|b| l.contains(b)))
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(flagged, vec![2, 11]);
    }

    #[test]
    fn cfg_test_on_single_item_skips_one_line() {
        let src = "#[cfg(test)]\nuse x::y;\nfn live() { a.unwrap(); }\n";
        let lines = non_test_lines(src);
        assert!(lines.iter().any(|(n, _)| *n == 3));
        assert!(!lines.iter().any(|(n, _)| *n == 2));
    }

    #[test]
    fn hot_path_files_exist() {
        let root = repo_root();
        for rel in HOT_PATHS {
            assert!(root.join(rel).is_file(), "missing hot-path file {rel}");
        }
    }
}
