//! The single home of `HEX_*` environment knobs.
//!
//! Reading the process environment is an easy way to smuggle hidden
//! state into an experiment: a run stops being a pure function of
//! `(RunSpec, seed)` the moment some buried call site consults a
//! variable nobody knows about. The `env-knob` rule of `hex-lint`
//! therefore bans `std::env::var` everywhere *except this module*, so
//! the complete set of runtime knobs stays enumerable in one table
//! ([`KNOWN`]) and every caller goes through one strict parser.
//!
//! Knobs are read at explicit points (`RunSpec::with_env`,
//! `ServeConfig::from_knobs`, `Emitter::from_env`, bench setup) — never
//! inside the engine. None of them selects how the engine runs: it has
//! one event list and one driver.

use std::str::FromStr;

/// Every environment variable the workspace reads, with its meaning.
///
/// The compat shims (`compat/criterion`, `compat/proptest`) read the
/// last two directly — they mirror external crates.io APIs and sit
/// outside the lint walk — but they are listed here so this table stays
/// the complete inventory.
pub const KNOWN: &[(&str, &str)] = &[
    (
        "HEX_RUNS",
        "batch-size override for figure/table drivers and benches",
    ),
    ("HEX_SEED", "base-seed override for RunSpec sweeps"),
    ("HEX_THREADS", "worker-thread-count override for batch runs"),
    ("HEX_EMIT", "table output format: csv | json | off"),
    ("HEX_CSV", "legacy alias for HEX_EMIT=csv (presence only)"),
    (
        "HEX_SERVE_ADDR",
        "hexd listen address: `unix:<path>` / a socket path / `host:port`",
    ),
    (
        "HEX_CACHE_DIR",
        "hexd on-disk result-cache directory (default: `hexd-cache`)",
    ),
    (
        "HEX_CACHE_MAX_MB",
        "hexd result-cache size ceiling in MiB (FIFO eviction; 0 = unbounded)",
    ),
    (
        "HEX_SERVE_WORKERS",
        "hexd compute-worker count (default: available parallelism)",
    ),
    (
        "HEX_SERVE_RETRIES",
        "hexctl retry budget when hexd answers `busy` (default: 4; 0 = fail fast)",
    ),
    (
        "HEX_SERVE_TIMEOUT_MS",
        "hexd per-connection socket read/write timeout in ms (default: 10000; 0 = no timeout)",
    ),
    (
        "HEX_BENCH_BUDGET_MS",
        "per-bench time budget (read by the criterion shim)",
    ),
    (
        "PROPTEST_CASES",
        "property-test case budget (read by the proptest shim)",
    ),
];

/// Read a knob's raw value, if set. Panics (debug builds) on a name
/// missing from [`KNOWN`]: new knobs must be added to the table first.
pub fn raw(name: &str) -> Option<String> {
    debug_assert!(
        KNOWN.iter().any(|(n, _)| *n == name),
        "knob {name} is not listed in hex_sim::knobs::KNOWN"
    );
    std::env::var(name).ok()
}

/// True iff the knob is set (to anything), without interpreting it.
pub fn is_set(name: &str) -> bool {
    raw(name).is_some()
}

/// Read and parse a knob. Malformed values panic with a uniform
/// `<NAME> must be <what>` message — a typo'd knob must never silently
/// fall back and change what an experiment measures.
pub fn parsed<T: FromStr>(name: &str, what: &str) -> Option<T> {
    raw(name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{name} must be {what}, got {v:?}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The env mutations below cannot race other readers: every test that
    // touches these knob names within this crate is in this module, and
    // each documents why no concurrent test reads the name it sets.

    #[test]
    fn unset_knob_reads_none() {
        std::env::remove_var("HEX_SEED");
        assert_eq!(raw("HEX_SEED"), None);
        assert_eq!(parsed::<u64>("HEX_SEED", "a number"), None);
        assert!(!is_set("HEX_SEED"));
    }

    #[test]
    fn set_knob_parses() {
        // HEX_CSV is only read by hex-analysis (a different test
        // process), so the brief mutation cannot race a reader here.
        std::env::set_var("HEX_CSV", "17");
        assert_eq!(parsed::<usize>("HEX_CSV", "a number"), Some(17));
        assert!(is_set("HEX_CSV"));
        std::env::remove_var("HEX_CSV");
    }

    #[test]
    #[should_panic(expected = "HEX_BENCH_BUDGET_MS must be a number")]
    fn malformed_knob_panics_with_uniform_message() {
        // This knob is only read at bench time, so no concurrently
        // running test can observe the malformed value.
        std::env::set_var("HEX_BENCH_BUDGET_MS", "lots");
        let _ = parsed::<u64>("HEX_BENCH_BUDGET_MS", "a number");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not listed")]
    fn unlisted_knob_is_rejected() {
        let _ = raw("HEX_NOT_A_KNOB");
    }

    #[test]
    #[should_panic(expected = "HEX_SERVE_RETRIES must be a number of retries")]
    fn malformed_retry_knob_panics_with_uniform_message() {
        // HEX_SERVE_RETRIES is only read by the hex-serve client (a
        // different test process), so the malformed value cannot race a
        // reader here.
        std::env::set_var("HEX_SERVE_RETRIES", "several");
        let _ = parsed::<u32>("HEX_SERVE_RETRIES", "a number of retries");
    }

    #[test]
    fn serve_knobs_are_known() {
        // The hexd daemon reads its configuration exclusively through
        // this module; the tripwire must accept every serve knob.
        for name in [
            "HEX_SERVE_ADDR",
            "HEX_CACHE_DIR",
            "HEX_CACHE_MAX_MB",
            "HEX_SERVE_WORKERS",
            "HEX_SERVE_RETRIES",
            "HEX_SERVE_TIMEOUT_MS",
        ] {
            assert!(
                KNOWN.iter().any(|(n, _)| *n == name),
                "{name} missing from KNOWN"
            );
            // Exercises the debug_assert tripwire path with the real name.
            let _ = raw(name);
        }
    }
}
