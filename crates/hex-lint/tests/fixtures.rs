//! The analyzer under its own test wall: every rule is proven to fire
//! on a committed bad-code fixture and proven suppressible by the
//! `allow` pragma, and the diagnostic format is snapshot-pinned.
//!
//! Fixtures live under `tests/fixtures/` (excluded from the workspace
//! walk — they violate the contract on purpose) and are linted under a
//! *virtual* path that puts them in each rule's scope.

use std::fs;
use std::path::Path;

use hex_lint::{lint_source, FileCtx, Rule};

fn lint_fixture(fixture: &str, virtual_path: &str) -> Vec<hex_lint::Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    lint_source(&FileCtx::classify(virtual_path), &src)
}

/// `(rule, bad fixture, allowed fixture, virtual path, findings in bad)`.
const CASES: [(Rule, &str, &str, &str, usize); 7] = [
    (
        Rule::NondetCollection,
        "bad_nondet_collection.rs",
        "allowed_nondet_collection.rs",
        "crates/hex-des/src/fixture.rs",
        6,
    ),
    (
        Rule::WallClock,
        "bad_wall_clock.rs",
        "allowed_wall_clock.rs",
        "crates/hex-sim/src/fixture.rs",
        4,
    ),
    (
        Rule::UnseededRng,
        "bad_unseeded_rng.rs",
        "allowed_unseeded_rng.rs",
        "crates/hex-theory/src/fixture.rs",
        4,
    ),
    (
        Rule::EnvKnob,
        "bad_env_knob.rs",
        "allowed_env_knob.rs",
        "crates/hex-core/src/fixture.rs",
        3,
    ),
    (
        Rule::SealedImpl,
        "bad_sealed_impl.rs",
        "allowed_sealed_impl.rs",
        "crates/hex-des/src/fixture.rs",
        3,
    ),
    (
        Rule::ForbidUnsafe,
        "bad_forbid_unsafe.rs",
        "allowed_forbid_unsafe.rs",
        "crates/hex-rogue/src/lib.rs",
        1,
    ),
    (
        Rule::FloatOrd,
        "bad_float_ord.rs",
        "allowed_float_ord.rs",
        "crates/hex-analysis/src/fixture.rs",
        2,
    ),
];

/// Every rule fires on its bad fixture — the exact count is pinned so a
/// rule can neither rot silent nor start double-reporting.
#[test]
fn every_rule_fires_on_its_bad_fixture() {
    for (rule, bad, _, vpath, expected) in CASES {
        let findings = lint_fixture(bad, vpath);
        let hits = findings.iter().filter(|f| f.rule == rule).count();
        assert_eq!(
            hits,
            expected,
            "{bad} under {vpath}: expected {expected} {} findings, got {findings:#?}",
            rule.name()
        );
        assert!(
            findings.iter().all(|f| f.rule == rule),
            "{bad}: unexpected extra rules in {findings:#?}"
        );
    }
}

/// Every allowed fixture is the bad one plus reasoned pragmas — and
/// lints clean.
#[test]
fn every_allow_fixture_suppresses_cleanly() {
    for (rule, _, allowed, vpath, _) in CASES {
        let findings = lint_fixture(allowed, vpath);
        assert!(
            findings.is_empty(),
            "{allowed} under {vpath} should be clean for rule {}, got {findings:#?}",
            rule.name()
        );
    }
}

/// The CASES table covers all seven contract rules exactly.
#[test]
fn fixture_coverage_is_complete() {
    let mut covered: Vec<Rule> = CASES.iter().map(|c| c.0).collect();
    covered.sort();
    covered.dedup();
    assert_eq!(covered, Rule::ALL.to_vec());
}

/// A pragma naming the wrong rule suppresses nothing, and a reasonless
/// pragma is itself a finding — on fixtures, not synthetic strings.
#[test]
fn mismatched_pragma_does_not_suppress_fixture() {
    let src = "// hexlint: allow(wall-clock, reason = \"wrong rule\")\n\
               use std::collections::HashMap;\n";
    let findings = lint_source(&FileCtx::classify("crates/hex-des/src/fixture.rs"), src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, Rule::NondetCollection);
}

/// Diagnostic-format snapshot: the exact rendered report for the
/// forbid-unsafe fixture (chosen because its single finding has a
/// position independent of fixture edits).
#[test]
fn diagnostic_format_snapshot() {
    let findings = lint_fixture("bad_forbid_unsafe.rs", "crates/hex-rogue/src/lib.rs");
    let rendered: String = findings.iter().map(|f| f.render()).collect();
    let expected = "\
error[hexlint::forbid-unsafe]: crate root does not carry #![forbid(unsafe_code)]
  --> crates/hex-rogue/src/lib.rs:1:1
  = help: add #![forbid(unsafe_code)] to the crate root
";
    assert_eq!(rendered, expected);
}

/// Snapshot of a position-carrying diagnostic: line and column point at
/// the offending token, not the line start.
#[test]
fn diagnostic_positions_point_at_the_token() {
    let findings = lint_fixture("bad_wall_clock.rs", "crates/hex-sim/src/fixture.rs");
    let use_site = findings
        .iter()
        .find(|f| f.line == 3)
        .expect("finding on the use line");
    // `use std::time::{Instant, ...}` — Instant starts at column 17.
    assert_eq!(use_site.col, 17);
    assert!(use_site.render().contains(":3:17"));
}
