//! The named rules of the determinism & architecture contract.
//!
//! Each rule is a token-pattern pass over one file's lexed stream (see
//! [`crate::lexer`]), scoped by the file's [`FileCtx`] (crate, target
//! kind, `#[cfg(test)]` regions). A finding can be suppressed in place
//! with
//!
//! ```text
//! // hexlint: allow(<rule>, reason = "why this site is sound")
//! ```
//!
//! trailing the offending line, or on a standalone comment line directly
//! above it. The `reason` is mandatory: an allowance without an argument
//! is itself reported (as `bad-pragma`).

use crate::lexer::{lex, Tok, TokKind};

/// Crates whose event processing must be reproducible event-for-event:
/// the [`Rule::NondetCollection`] scope.
pub const SIM_CRATES: [&str; 4] = ["hex-des", "hex-core", "hex-sim", "hex-clock"];

/// The single module allowed to read process environment variables
/// ([`Rule::EnvKnob`]'s designated home).
pub const KNOB_MODULE: &str = "crates/hex-sim/src/knobs.rs";

/// The single module allowed to probe the host's core count
/// (`available_parallelism`): `hex_sim::batch::default_threads` resolves
/// it once per process, and everything else asks that function.
pub const PROBE_MODULE: &str = "crates/hex-sim/src/batch.rs";

/// Files exempt from [`Rule::WallClock`] besides benches and `hex-bench`:
/// table/CSV emission may timestamp its output.
pub const EMIT_MODULE: &str = "crates/hex-analysis/src/emit.rs";

/// Sealed traits and the modules allowed to implement them:
/// `(trait name, allowed files, tests may implement)`.
pub const SEALED_TRAITS: [(&str, &[&str], bool); 2] = [
    ("RunObserver", &["crates/hex-sim/src/observe.rs"], false),
    // `Reducer` is a public extension point: production impls live in
    // the two homes, but tests/benches/examples fold ad hoc.
    (
        "Reducer",
        &[
            "crates/hex-sim/src/batch.rs",
            "crates/hex-analysis/src/reduce.rs",
        ],
        true,
    ),
];

/// Crates whose statistics pipelines sort floats: the [`Rule::FloatOrd`]
/// scope.
pub const FLOAT_ORD_CRATES: [&str; 4] = ["hex-analysis", "hex-sim", "hex-clock", "hex-theory"];

/// One named rule of the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hashed collections in simulation crates (iteration order varies
    /// per process, per platform, per insertion history).
    NondetCollection,
    /// `Instant`/`SystemTime` outside bench/emit code: simulated time
    /// comes from the event queue, never from the host clock.
    WallClock,
    /// RNG construction from entropy instead of the run's seed policy.
    UnseededRng,
    /// `std::env::var` outside the designated knob module, so `HEX_*`
    /// behavior stays enumerable in one place; likewise the host's core
    /// count (`available_parallelism`) outside [`PROBE_MODULE`], whose
    /// cached probe every other caller shares.
    EnvKnob,
    /// `impl` of a sealed trait outside its home module.
    SealedImpl,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// `partial_cmp`-based sorting on statistics paths (NaN-partial
    /// comparators panic or reorder; use a total order).
    FloatOrd,
    /// A `hexlint:` pragma that does not parse, names an unknown rule,
    /// or omits its `reason`. Not suppressible.
    BadPragma,
}

impl Rule {
    /// The seven contract rules, in report order ([`Rule::BadPragma`] is
    /// pragma hygiene, not part of the contract).
    pub const ALL: [Rule; 7] = [
        Rule::NondetCollection,
        Rule::WallClock,
        Rule::UnseededRng,
        Rule::EnvKnob,
        Rule::SealedImpl,
        Rule::ForbidUnsafe,
        Rule::FloatOrd,
    ];

    /// Kebab-case rule name, as used in pragmas and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondetCollection => "nondet-collection",
            Rule::WallClock => "wall-clock",
            Rule::UnseededRng => "unseeded-rng",
            Rule::EnvKnob => "env-knob",
            Rule::SealedImpl => "sealed-impl",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::FloatOrd => "float-ord",
            Rule::BadPragma => "bad-pragma",
        }
    }

    /// Parse a pragma rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// The fix hint rendered under every diagnostic of this rule.
    pub fn hint(self) -> &'static str {
        match self {
            Rule::NondetCollection => {
                "key by index into a Vec or use a BTreeMap/BTreeSet; hashed iteration \
                 order is nondeterministic"
            }
            Rule::WallClock => {
                "simulated time comes from the event queue (hex_des::Time); host-clock \
                 reads belong in benches or emit code"
            }
            Rule::UnseededRng => {
                "construct randomness via SimRng::seed_from_u64 flowing from the \
                 RunSpec seed policy"
            }
            Rule::EnvKnob => {
                "read environment knobs through hex_sim::knobs so HEX_* behavior stays \
                 enumerable in one module, and the core count through \
                 hex_sim::batch::default_threads, which probes the host once per process"
            }
            Rule::SealedImpl => {
                "implement sealed engine traits only in their home module, where the \
                 determinism walls cover them"
            }
            Rule::ForbidUnsafe => "add #![forbid(unsafe_code)] to the crate root",
            Rule::FloatOrd => {
                "sort floats with f64::total_cmp (see hex_analysis::stats::total_f64), \
                 not partial_cmp"
            }
            Rule::BadPragma => {
                "write `// hexlint: allow(<rule>, reason = \"…\")` with a known rule \
                 name and a non-empty reason"
            }
        }
    }
}

/// Cargo target kind a file belongs to, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`src/` outside `src/bin/`).
    Lib,
    /// Binary source (`src/bin/` or figure/table drivers).
    Bin,
    /// Integration test (`tests/`).
    Test,
    /// Criterion bench (`benches/`).
    Bench,
    /// Example (`examples/`).
    Example,
}

/// Per-file rule-scoping context, derived purely from the
/// workspace-relative path.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Owning crate (`hexclock` for root `src/`/`tests/`/`examples/`).
    pub crate_name: String,
    /// Target kind.
    pub kind: FileKind,
    /// True for `src/lib.rs` of a crate (the [`Rule::ForbidUnsafe`]
    /// scope).
    pub is_lib_root: bool,
}

impl FileCtx {
    /// Classify a workspace-relative `.rs` path.
    pub fn classify(rel_path: &str) -> FileCtx {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let (crate_name, rest) = if parts.first() == Some(&"crates") && parts.len() >= 3 {
            (parts[1].to_string(), &parts[2..])
        } else {
            ("hexclock".to_string(), &parts[..])
        };
        let kind = match rest.first().copied() {
            Some("tests") => FileKind::Test,
            Some("benches") => FileKind::Bench,
            Some("examples") => FileKind::Example,
            Some("src") if rest.get(1) == Some(&"bin") => FileKind::Bin,
            Some("src") if rest.get(1) == Some(&"main.rs") => FileKind::Bin,
            _ => FileKind::Lib,
        };
        let is_lib_root = rest == ["src", "lib.rs"];
        FileCtx {
            rel_path: rel_path.to_string(),
            crate_name,
            kind,
            is_lib_root,
        }
    }
}

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Violated rule.
    pub rule: Rule,
    /// One-line description of the violation site.
    pub message: String,
}

impl Finding {
    /// Render in rustc-style: error line, arrow line, help line.
    pub fn render(&self) -> String {
        format!(
            "error[hexlint::{}]: {}\n  --> {}:{}:{}\n  = help: {}\n",
            self.rule.name(),
            self.message,
            self.path,
            self.line,
            self.col,
            self.rule.hint(),
        )
    }
}

/// A parsed `hexlint: allow(...)` pragma.
struct Pragma {
    rule: Rule,
    /// Line the pragma suppresses (its own line for trailing pragmas,
    /// the next source line for standalone ones).
    covers: Vec<u32>,
}

/// Lint one file's source under the given context.
pub fn lint_source(ctx: &FileCtx, src: &str) -> Vec<Finding> {
    let toks = lex(src);
    let mut findings = Vec::new();
    let pragmas = collect_pragmas(ctx, &toks, &mut findings);

    // Significant tokens: everything the grammar sees.
    let sig: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let in_test = mark_cfg_test(&sig);

    rule_nondet_collection(ctx, &sig, &mut findings);
    rule_wall_clock(ctx, &sig, &mut findings);
    rule_unseeded_rng(ctx, &sig, &mut findings);
    rule_env_knob(ctx, &sig, &mut findings);
    rule_sealed_impl(ctx, &sig, &in_test, &mut findings);
    rule_forbid_unsafe(ctx, &sig, &mut findings);
    rule_float_ord(ctx, &sig, &mut findings);

    findings.retain(|f| {
        f.rule == Rule::BadPragma
            || !pragmas
                .iter()
                .any(|p| p.rule == f.rule && p.covers.contains(&f.line))
    });
    findings.sort();
    findings
}

/// Extract well-formed pragmas from comment tokens; malformed ones are
/// reported as [`Rule::BadPragma`].
fn collect_pragmas(ctx: &FileCtx, toks: &[Tok], findings: &mut Vec<Finding>) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for (ix, t) in toks.iter().enumerate() {
        if t.kind != TokKind::LineComment {
            continue;
        }
        // A pragma comment *starts* with `hexlint:` (after the slashes);
        // prose or doc examples that merely mention the syntax are not
        // pragmas.
        let body = t
            .text
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim();
        if !body.starts_with("hexlint:") {
            continue;
        }
        match parse_pragma(body) {
            Ok(rule) => {
                let standalone = ix == 0 || toks[ix - 1].line != t.line;
                let mut covers = vec![t.line];
                if standalone {
                    // Cover the next source line: skip over further
                    // comments (stacked pragmas, interleaved docs).
                    if let Some(next) = toks[ix + 1..]
                        .iter()
                        .find(|n| !matches!(n.kind, TokKind::LineComment | TokKind::BlockComment))
                    {
                        covers.push(next.line);
                    }
                }
                pragmas.push(Pragma { rule, covers });
            }
            Err(why) => findings.push(Finding {
                path: ctx.rel_path.clone(),
                line: t.line,
                col: t.col,
                rule: Rule::BadPragma,
                message: format!("malformed hexlint pragma: {why}"),
            }),
        }
    }
    pragmas
}

/// Parse `// hexlint: allow(<rule>, reason = "...")`.
fn parse_pragma(comment: &str) -> Result<Rule, String> {
    let after = comment
        .split_once("hexlint:")
        .map(|(_, rest)| rest.trim())
        .unwrap_or("");
    let Some(args) = after
        .strip_prefix("allow(")
        .and_then(|r| r.strip_suffix(')'))
    else {
        return Err("expected `allow(<rule>, reason = \"…\")`".to_string());
    };
    let (name, rest) = match args.split_once(',') {
        Some((n, r)) => (n.trim(), r.trim()),
        None => (args.trim(), ""),
    };
    let rule = Rule::from_name(name).ok_or_else(|| format!("unknown rule `{name}`"))?;
    let reason = rest
        .strip_prefix("reason")
        .map(|r| r.trim_start())
        .and_then(|r| r.strip_prefix('='))
        .map(|r| r.trim())
        .unwrap_or("");
    if reason.len() < 3 || !reason.starts_with('"') || !reason.ends_with('"') {
        return Err(format!(
            "rule `{}` allowed without a quoted reason",
            rule.name()
        ));
    }
    Ok(rule)
}

/// Mark which significant tokens sit inside a `#[cfg(test)] mod … { … }`
/// region.
fn mark_cfg_test(sig: &[&Tok]) -> Vec<bool> {
    let mut in_test = vec![false; sig.len()];
    let mut i = 0;
    while i < sig.len() {
        if let Some(open) = cfg_test_mod_open(sig, i) {
            // Find the matching close brace of the mod body.
            let mut depth = 0i32;
            let mut j = open;
            while j < sig.len() {
                if sig[j].is_punct("{") {
                    depth += 1;
                } else if sig[j].is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            for flag in in_test.iter_mut().take(j.min(sig.len())).skip(i) {
                *flag = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// If `sig[i..]` starts a `#[cfg(test)]` attribute followed (possibly
/// after more attributes) by `mod <name> {`, return the index of that
/// opening brace.
fn cfg_test_mod_open(sig: &[&Tok], i: usize) -> Option<usize> {
    let attr_end = match_attr(sig, i)?;
    let is_cfg_test = sig[i + 2].is_ident("cfg")
        && sig
            .get(i + 2..attr_end)
            .is_some_and(|w| w.iter().any(|t| t.is_ident("test")));
    if !is_cfg_test {
        return None;
    }
    // Skip any further attributes.
    let mut j = attr_end + 1;
    while let Some(end) = match_attr(sig, j) {
        j = end + 1;
    }
    if !sig.get(j)?.is_ident("mod") {
        return None;
    }
    j += 1; // mod name
    while let Some(t) = sig.get(j) {
        if t.is_punct("{") {
            return Some(j);
        }
        if t.is_punct(";") {
            return None; // out-of-line mod
        }
        j += 1;
    }
    None
}

/// If `sig[i]` opens an attribute `#[ … ]`, return the index of its
/// closing bracket.
fn match_attr(sig: &[&Tok], i: usize) -> Option<usize> {
    if !sig.get(i)?.is_punct("#") || !sig.get(i + 1)?.is_punct("[") {
        return None;
    }
    let mut depth = 0i32;
    for (k, t) in sig.iter().enumerate().skip(i + 1) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

fn push(findings: &mut Vec<Finding>, ctx: &FileCtx, t: &Tok, rule: Rule, message: String) {
    findings.push(Finding {
        path: ctx.rel_path.clone(),
        line: t.line,
        col: t.col,
        rule,
        message,
    });
}

fn rule_nondet_collection(ctx: &FileCtx, sig: &[&Tok], findings: &mut Vec<Finding>) {
    if !SIM_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    for t in sig {
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            push(
                findings,
                ctx,
                t,
                Rule::NondetCollection,
                format!("`{}` in simulation crate `{}`", t.text, ctx.crate_name),
            );
        }
    }
}

fn rule_wall_clock(ctx: &FileCtx, sig: &[&Tok], findings: &mut Vec<Finding>) {
    if ctx.kind == FileKind::Bench || ctx.crate_name == "hex-bench" || ctx.rel_path == EMIT_MODULE {
        return;
    }
    for t in sig {
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            push(
                findings,
                ctx,
                t,
                Rule::WallClock,
                format!("host-clock type `{}` outside bench/emit code", t.text),
            );
        }
    }
}

fn rule_unseeded_rng(ctx: &FileCtx, sig: &[&Tok], findings: &mut Vec<Finding>) {
    for (i, t) in sig.iter().enumerate() {
        let entropy_ident =
            t.is_ident("from_entropy") || t.is_ident("thread_rng") || t.is_ident("OsRng");
        // `rand::random` — the implicit thread-local generator.
        let rand_random = t.is_ident("random")
            && i >= 2
            && sig[i - 1].is_punct("::")
            && sig[i - 2].is_ident("rand");
        if entropy_ident || rand_random {
            push(
                findings,
                ctx,
                t,
                Rule::UnseededRng,
                format!("entropy-sourced RNG construction `{}`", t.text),
            );
        }
    }
}

fn rule_env_knob(ctx: &FileCtx, sig: &[&Tok], findings: &mut Vec<Finding>) {
    let knob_home = ctx.rel_path == KNOB_MODULE;
    let probe_home = ctx.rel_path == PROBE_MODULE;
    for (i, t) in sig.iter().enumerate() {
        let reads_env = !knob_home
            && (t.is_ident("var")
                || t.is_ident("var_os")
                || t.is_ident("vars")
                || t.is_ident("vars_os"))
            && i >= 2
            && sig[i - 1].is_punct("::")
            && sig[i - 2].is_ident("env");
        if reads_env {
            push(
                findings,
                ctx,
                t,
                Rule::EnvKnob,
                format!("environment read `env::{}` outside the knob module", t.text),
            );
        } else if !probe_home && t.is_ident("available_parallelism") {
            push(
                findings,
                ctx,
                t,
                Rule::EnvKnob,
                "host probe `available_parallelism` outside hex_sim::batch::default_threads"
                    .to_string(),
            );
        }
    }
}

fn rule_sealed_impl(ctx: &FileCtx, sig: &[&Tok], in_test: &[bool], findings: &mut Vec<Finding>) {
    for (i, t) in sig.iter().enumerate() {
        if !t.is_ident("impl") {
            continue;
        }
        // Skip the generic parameter list, if any (its bounds may name
        // sealed traits legitimately: `impl<O: RunObserver> Holder<O>`).
        let mut j = i + 1;
        if sig.get(j).is_some_and(|t| t.is_punct("<")) {
            let mut depth = 0i32;
            while let Some(t) = sig.get(j) {
                if t.is_punct("<") {
                    depth += 1;
                } else if t.is_punct(">") {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                } else if t.is_punct("{") {
                    break; // malformed; bail out of the skip
                }
                j += 1;
            }
        }
        // Collect the trait path: identifiers up to `for`. No `for`
        // before the body means an inherent impl (or `impl Trait` in
        // type position) — not our concern.
        let mut trait_idents: Vec<&str> = Vec::new();
        let mut saw_for = false;
        while let Some(t) = sig.get(j) {
            if t.is_ident("for") {
                saw_for = true;
                break;
            }
            if t.is_punct("{") || t.is_punct(";") || t.is_ident("impl") {
                break;
            }
            if t.kind == TokKind::Ident {
                trait_idents.push(&t.text);
            }
            j += 1;
        }
        if !saw_for {
            continue;
        }
        for (name, allowed, tests_ok) in SEALED_TRAITS {
            if !trait_idents.contains(&name) {
                continue;
            }
            let in_home = allowed.contains(&ctx.rel_path.as_str());
            let in_test_code = in_test.get(i).copied().unwrap_or(false)
                || matches!(
                    ctx.kind,
                    FileKind::Test | FileKind::Bench | FileKind::Example
                );
            if in_home || (tests_ok && in_test_code) {
                continue;
            }
            push(
                findings,
                ctx,
                t,
                Rule::SealedImpl,
                format!("`impl {name}` outside its home module"),
            );
        }
    }
}

fn rule_forbid_unsafe(ctx: &FileCtx, sig: &[&Tok], findings: &mut Vec<Finding>) {
    if !ctx.is_lib_root {
        return;
    }
    // Look for `#![forbid( … unsafe_code … )]`.
    for (i, t) in sig.iter().enumerate() {
        if !t.is_ident("forbid") {
            continue;
        }
        let inner_attr = i >= 3
            && sig[i - 1].is_punct("[")
            && sig[i - 2].is_punct("!")
            && sig[i - 3].is_punct("#");
        // An outer `#[forbid]` on the first item would also do, but the
        // house style is the inner attribute; accept both.
        let outer_attr = i >= 2 && sig[i - 1].is_punct("[") && sig[i - 2].is_punct("#");
        if !inner_attr && !outer_attr {
            continue;
        }
        let listed = sig[i..]
            .iter()
            .take_while(|t| !t.is_punct(")"))
            .any(|t| t.is_ident("unsafe_code"));
        if listed {
            return;
        }
    }
    findings.push(Finding {
        path: ctx.rel_path.clone(),
        line: 1,
        col: 1,
        rule: Rule::ForbidUnsafe,
        message: "crate root does not carry #![forbid(unsafe_code)]".to_string(),
    });
}

fn rule_float_ord(ctx: &FileCtx, sig: &[&Tok], findings: &mut Vec<Finding>) {
    if !FLOAT_ORD_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    const SORTERS: [&str; 5] = [
        "sort_by",
        "sort_unstable_by",
        "min_by",
        "max_by",
        "binary_search_by",
    ];
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokKind::Ident || !SORTERS.contains(&t.text.as_str()) {
            continue;
        }
        if !sig.get(i + 1).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        // Scan the comparator argument (balanced parens) for partial_cmp.
        let mut depth = 0i32;
        for tok in &sig[i + 1..] {
            if tok.is_punct("(") {
                depth += 1;
            } else if tok.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if tok.is_ident("partial_cmp") {
                push(
                    findings,
                    ctx,
                    t,
                    Rule::FloatOrd,
                    format!("`{}` with a partial_cmp comparator", t.text),
                );
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_at(path: &str, src: &str) -> Vec<Finding> {
        lint_source(&FileCtx::classify(path), src)
    }

    fn rules_of(f: &[Finding]) -> Vec<Rule> {
        f.iter().map(|f| f.rule).collect()
    }

    const ROOT_OK: &str = "#![forbid(unsafe_code)]\n";

    #[test]
    fn classify_paths() {
        let c = FileCtx::classify("crates/hex-sim/src/batch.rs");
        assert_eq!(c.crate_name, "hex-sim");
        assert_eq!(c.kind, FileKind::Lib);
        assert!(!c.is_lib_root);
        assert!(FileCtx::classify("crates/hex-des/src/lib.rs").is_lib_root);
        assert_eq!(FileCtx::classify("tests/lint.rs").kind, FileKind::Test);
        assert_eq!(FileCtx::classify("tests/lint.rs").crate_name, "hexclock");
        assert_eq!(
            FileCtx::classify("crates/hex-bench/benches/pq.rs").kind,
            FileKind::Bench
        );
        assert_eq!(FileCtx::classify("src/bin/hexctl.rs").kind, FileKind::Bin);
        assert_eq!(
            FileCtx::classify("examples/quickstart.rs").kind,
            FileKind::Example
        );
    }

    #[test]
    fn hashmap_flagged_only_in_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_of(&lint_at("crates/hex-des/src/x.rs", src)),
            vec![Rule::NondetCollection]
        );
        assert!(lint_at("crates/hex-analysis/src/x.rs", src).is_empty());
        assert!(lint_at("crates/hex-theory/src/x.rs", src).is_empty());
    }

    #[test]
    fn string_and_comment_mentions_do_not_fire() {
        let src = "// HashMap in a comment\nlet s = \"HashMap\";\n";
        assert!(lint_at("crates/hex-sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_exemptions() {
        let src = "use std::time::Instant;\n";
        assert_eq!(
            rules_of(&lint_at("crates/hex-sim/src/x.rs", src)),
            vec![Rule::WallClock]
        );
        assert!(lint_at("crates/hex-bench/benches/pq.rs", src).is_empty());
        assert!(lint_at("crates/hex-bench/src/bin/fig10.rs", src).is_empty());
        assert!(lint_at("crates/hex-analysis/src/emit.rs", src).is_empty());
    }

    #[test]
    fn env_var_flagged_outside_knob_module() {
        let src = "let v = std::env::var(\"HEX_RUNS\");\n";
        assert_eq!(
            rules_of(&lint_at("crates/hex-sim/src/spec.rs", src)),
            vec![Rule::EnvKnob]
        );
        assert!(lint_at("crates/hex-sim/src/knobs.rs", src).is_empty());
    }

    #[test]
    fn host_probe_flagged_outside_batch_module() {
        let src = "let n = std::thread::available_parallelism();\n";
        for path in [
            "crates/hex-serve/src/server.rs",
            "crates/hex-sim/src/knobs.rs",
            "crates/hex-bench/benches/batch_parallel.rs",
            "tests/serve.rs",
        ] {
            let findings = lint_at(path, src);
            assert_eq!(rules_of(&findings), vec![Rule::EnvKnob], "{path}");
            assert!(findings[0].message.contains("available_parallelism"));
        }
        assert!(lint_at("crates/hex-sim/src/batch.rs", src).is_empty());
        // An environment read in the probe's home is still a finding.
        let env = "let v = std::env::var(\"HEX_RUNS\");\n";
        assert_eq!(
            rules_of(&lint_at("crates/hex-sim/src/batch.rs", env)),
            vec![Rule::EnvKnob]
        );
    }

    #[test]
    fn sealed_impl_scoping() {
        let src = "impl RunObserver for MyObserver { }\n";
        assert_eq!(
            rules_of(&lint_at("crates/hex-des/src/other.rs", src)),
            vec![Rule::SealedImpl]
        );
        assert!(lint_at("crates/hex-sim/src/observe.rs", src).is_empty());
        // The SoA node-state module sits beside the observers in hex-sim
        // but is not the trait's home: an impl there is a finding too.
        assert_eq!(
            rules_of(&lint_at("crates/hex-sim/src/soa.rs", src)),
            vec![Rule::SealedImpl]
        );
        // Generic *bounds* naming a sealed trait are not impls of it.
        let bound = "impl<O: RunObserver> Holder<O> { }\n";
        assert!(lint_at("crates/hex-sim/src/engine.rs", bound).is_empty());
        // `impl Trait` in argument position is not an impl item.
        let arg = "fn run(o: &mut impl RunObserver) { }\n";
        assert!(lint_at("crates/hex-sim/src/engine.rs", arg).is_empty());
    }

    #[test]
    fn reducer_impls_ok_in_tests_and_benches() {
        let src = "struct S;\nimpl Reducer<u64> for S { }\n";
        assert_eq!(
            rules_of(&lint_at("crates/hex-sim/src/spec.rs", src)),
            vec![Rule::SealedImpl]
        );
        assert!(lint_at("tests/spec_equivalence.rs", src).is_empty());
        assert!(lint_at("crates/hex-bench/benches/batch_parallel.rs", src).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
        assert!(lint_at("crates/hex-sim/src/spec.rs", &in_test_mod).is_empty());
        // RunObserver stays sealed even in test code.
        let observer = "#[cfg(test)]\nmod tests {\nimpl RunObserver for S { }\n}\n";
        assert_eq!(
            rules_of(&lint_at("crates/hex-sim/src/spec.rs", observer)),
            vec![Rule::SealedImpl]
        );
    }

    #[test]
    fn forbid_unsafe_on_lib_roots_only() {
        assert_eq!(
            rules_of(&lint_at("crates/hex-des/src/lib.rs", "pub mod x;\n")),
            vec![Rule::ForbidUnsafe]
        );
        assert!(lint_at("crates/hex-des/src/lib.rs", ROOT_OK).is_empty());
        assert!(lint_at(
            "crates/hex-des/src/lib.rs",
            "#![forbid(unsafe_code, missing_docs)]\n"
        )
        .is_empty());
        assert!(lint_at("crates/hex-des/src/event.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn float_ord_flags_partial_cmp_sorts() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert_eq!(
            rules_of(&lint_at("crates/hex-analysis/src/stats.rs", src)),
            vec![Rule::FloatOrd]
        );
        let total = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }\n";
        assert!(lint_at("crates/hex-analysis/src/stats.rs", total).is_empty());
        // A PartialOrd *definition* is not a sort.
        let def = "fn partial_cmp(&self, o: &Self) -> Option<Ordering> { None }\n";
        assert!(lint_at("crates/hex-analysis/src/stats.rs", def).is_empty());
    }

    #[test]
    fn trailing_pragma_suppresses_same_line() {
        let src = "use std::collections::HashSet; \
                   // hexlint: allow(nondet-collection, reason = \"test census\")\n";
        assert!(lint_at("crates/hex-sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn standalone_pragma_suppresses_next_line() {
        let src = "// hexlint: allow(nondet-collection, reason = \"test census\")\n\
                   use std::collections::HashSet;\n";
        assert!(lint_at("crates/hex-sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn stacked_pragmas_reach_past_each_other() {
        let src = "// hexlint: allow(nondet-collection, reason = \"census\")\n\
                   // hexlint: allow(wall-clock, reason = \"watchdog\")\n\
                   use std::collections::HashSet; use std::time::Instant;\n";
        assert!(lint_at("crates/hex-sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn wrong_rule_pragma_does_not_suppress() {
        let src = "// hexlint: allow(wall-clock, reason = \"mismatched\")\n\
                   use std::collections::HashSet;\n";
        assert_eq!(
            rules_of(&lint_at("crates/hex-sim/src/x.rs", src)),
            vec![Rule::NondetCollection]
        );
    }

    #[test]
    fn pragma_without_reason_is_reported() {
        let src = "// hexlint: allow(nondet-collection)\n\
                   use std::collections::HashSet;\n";
        let f = lint_at("crates/hex-sim/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::BadPragma, Rule::NondetCollection]);
    }

    #[test]
    fn unknown_rule_pragma_is_reported() {
        let src = "// hexlint: allow(no-such-rule, reason = \"nope\")\nlet x = 1;\n";
        assert_eq!(
            rules_of(&lint_at("crates/hex-sim/src/x.rs", src)),
            vec![Rule::BadPragma]
        );
    }

    #[test]
    fn render_format_is_stable() {
        let f = Finding {
            path: "crates/hex-sim/src/x.rs".into(),
            line: 3,
            col: 7,
            rule: Rule::WallClock,
            message: "host-clock type `Instant` outside bench/emit code".into(),
        };
        let rendered = f.render();
        assert!(rendered.starts_with("error[hexlint::wall-clock]: "));
        assert!(rendered.contains("\n  --> crates/hex-sim/src/x.rs:3:7\n"));
        assert!(rendered.contains("\n  = help: "));
    }
}
