//! # hex-lint — static auditor of the determinism & architecture contract
//!
//! The repo's value proposition is *bit-reproducible* simulation: every
//! run is a pure function of `(RunSpec, seed)`, pinned by VCD
//! byte-identity walls. Those walls are dynamic and sample-based; this
//! crate encodes the contract they guard as an enumerable set of
//! source-level rules, checked offline with zero dependencies (a
//! hand-rolled lexer, no `syn`) so the audit runs before — and
//! independently of — the code it audits.
//!
//! The rule set (see [`rules::Rule`]):
//!
//! 1. **nondet-collection** — no `HashMap`/`HashSet` in simulation
//!    crates (`hex-des`/`hex-core`/`hex-sim`/`hex-clock`);
//! 2. **wall-clock** — no `Instant`/`SystemTime` outside bench/emit
//!    code;
//! 3. **unseeded-rng** — RNG construction flows from the seed policy,
//!    never entropy;
//! 4. **env-knob** — `std::env::var` only in `hex_sim::knobs`, and
//!    `available_parallelism` only in `hex_sim::batch`;
//! 5. **sealed-impl** — sealed engine traits implemented only in their
//!    home modules;
//! 6. **forbid-unsafe** — every crate root carries
//!    `#![forbid(unsafe_code)]`;
//! 7. **float-ord** — no `partial_cmp`-based sorting on statistics
//!    paths.
//!
//! Violations are suppressed in place with
//! `// hexlint: allow(<rule>, reason = "…")` — the reason is mandatory.
//!
//! Three integration points: the `hexlint` binary (`cargo run -p
//! hex-lint`) with rustc-style diagnostics and a nonzero exit on
//! findings; the facade's `tests/lint.rs` gate so `cargo test -q` fails
//! on a dirty workspace; and the CI `lint` job.
//!
//! ```
//! use hex_lint::{lint_source, FileCtx};
//!
//! let ctx = FileCtx::classify("crates/hex-sim/src/example.rs");
//! let findings = lint_source(&ctx, "use std::time::Instant;");
//! assert_eq!(findings.len(), 1);
//! assert!(findings[0].render().starts_with("error[hexlint::wall-clock]"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

pub use rules::{lint_source, FileCtx, FileKind, Finding, Rule};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories under the workspace root the audit walks. `compat/` is
/// deliberately excluded: the shims mirror external crates.io APIs and
/// are deleted wholesale once a registry is available.
pub const WALK_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Directory names skipped during the walk: build output, and the
/// linter's own intentionally-violating test fixtures.
pub const SKIP_DIRS: [&str; 2] = ["target", "fixtures"];

/// Lint every `.rs` file under the [`WALK_ROOTS`] of `root`, in
/// deterministic (path-sorted) order. Returns findings sorted by
/// `(path, line, col, rule)` — the linter is itself reproducible.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for dir in WALK_ROOTS {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path)?;
        findings.extend(lint_source(&FileCtx::classify(&rel), &src));
    }
    findings.sort();
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render a full report: one rustc-style block per finding plus a
/// summary line. Returns `(report, clean)`.
pub fn report(findings: &[Finding]) -> (String, bool) {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.render());
        out.push('\n');
    }
    if findings.is_empty() {
        out.push_str("hexlint: clean (7 rules)\n");
    } else {
        out.push_str(&format!(
            "hexlint: {} finding{} — the determinism contract is violated\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
        ));
    }
    (out, findings.is_empty())
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_clean_and_dirty() {
        let (clean, ok) = report(&[]);
        assert!(ok);
        assert!(clean.contains("clean"));
        let f = Finding {
            path: "crates/hex-des/src/x.rs".into(),
            line: 1,
            col: 1,
            rule: Rule::NondetCollection,
            message: "`HashMap` in simulation crate `hex-des`".into(),
        };
        let (dirty, ok) = report(&[f]);
        assert!(!ok);
        assert!(dirty.contains("error[hexlint::nondet-collection]"));
        assert!(dirty.contains("1 finding"));
    }

    #[test]
    fn finds_this_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/hex-lint/Cargo.toml").is_file());
    }
}
