//! `hexctl` — command-line front end for the HEX reproduction.
//!
//! ```text
//! hexctl wave      [--length L] [--width W] [--scenario i|ii|iii|iv] [--seed S]
//!                  [--byzantine N] [--fail-silent N]      one pulse, ASCII wave + skews
//! hexctl table     [--runs R] [--scenario ..] [--byzantine N] ...   Table-1/2-style stats
//! hexctl stabilize [--runs R] [--pulses P] [--byzantine N] ...      stabilization estimate
//! hexctl bounds    [--length L] [--width W]                         Theorem-1 / Condition-2 numbers
//! hexctl vcd       [--out FILE] [--pulses P] [--scenario ..] ...    dump a run as a VCD waveform
//! hexctl campaign  [--regime burst|crash|churn] [--runs R] ...      dynamic fault campaign + re-stabilization
//! hexctl serve     [--addr A]                                       run the hexd daemon in-process
//! hexctl query     [--addr A] [--kind skew|stabilize] [--hop H] ... ask a hexd daemon (thin client)
//! hexctl ping      [--addr A]                                       probe a hexd daemon
//! hexctl stats     [--addr A]                                       dump a hexd daemon's counters
//! hexctl stop      [--addr A]                                       shut a hexd daemon down
//! ```
//!
//! Every simulating subcommand builds one [`RunSpec`] from the flags; mixed
//! `--byzantine`/`--fail-silent` counts map to [`FaultRegime::Mixed`]
//! (joint Condition-1 placement). `campaign` instead runs one of the canned
//! [`FaultScript`] shapes (`--regime`, scaled by the scenario's pulse
//! separation) under [`FaultRegime::Script`] and reports per-disturbance
//! re-stabilization through the streaming observed fold: the
//! `campaign_summary` table JSON goes to stdout (byte-identical across
//! worker-thread counts) and a human summary to stderr; it also honors
//! `HEX_RUNS`/`HEX_SEED`/`HEX_THREADS` like the figure drivers. `query` sends the flag-built spec to a `hexd`
//! daemon instead of computing locally: the result JSON goes to stdout and
//! a `cache_hit=0|1 query_hash=.. engine=..` provenance line to stderr.
//! Plain `std::env::args` parsing — no CLI dependency; unknown flags,
//! malformed values, and unknown subcommands all exit 2 with the usage
//! string.
//!
//! Exit codes: 0 success, 1 failure, 2 usage, 3 daemon still busy after
//! the retry budget (HEX_SERVE_RETRIES) ran out — retryable by the
//! caller, unlike 1.

use hexclock::analysis::reduce::ObservedStabilizationReducer;
use hexclock::analysis::stabilization::{summarize, Criterion};
use hexclock::analysis::wave::wave_ascii;
use hexclock::core::fault::forwarder_candidates;
use hexclock::prelude::*;
use hexclock::serve::{Client, QueryKind, ServeConfig};

/// The canned [`FaultScript`] shape behind `hexctl campaign --regime`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// A transient Byzantine burst on a mid-grid node, healing into
    /// adversarial local state.
    Burst,
    /// Crash-then-rejoin: a fail-silent window on a mid-grid node with a
    /// clean (power-cycled) recovery.
    Crash,
    /// Rolling churn: three consecutive single-node crash windows over
    /// seed-drawn forwarder victims.
    Churn,
}

impl Regime {
    fn label(self) -> &'static str {
        match self {
            Regime::Burst => "burst",
            Regime::Crash => "crash",
            Regime::Churn => "churn",
        }
    }
}

#[derive(Debug, Clone)]
struct Opts {
    command: String,
    length: u32,
    width: u32,
    scenario: Scenario,
    seed: u64,
    runs: usize,
    pulses: usize,
    byzantine: usize,
    fail_silent: usize,
    out: String,
    /// hexd address override (`--addr`); default comes from the
    /// HEX_SERVE_ADDR knob via [`ServeConfig::from_knobs`].
    addr: Option<String>,
    kind: QueryKind,
    hop: usize,
    regime: Regime,
}

const USAGE: &str =
    "usage: hexctl <wave|table|stabilize|bounds|vcd|campaign|serve|query|ping|stats|stop> \
 [--length L] [--width W] [--scenario i|ii|iii|iv] [--seed S] [--runs R] [--pulses P] \
 [--byzantine N] [--fail-silent N] [--out FILE] [--addr A] [--kind skew|stabilize] [--hop H] \
 [--regime burst|crash|churn]";

/// Parse an argument vector (without the program name). Every failure —
/// missing subcommand, unknown flag, missing or malformed value, unknown
/// subcommand — is an `Err` with a one-line reason; `main` turns that
/// into the usage string and exit code 2.
fn parse_args(mut args: Vec<String>) -> Result<Opts, String> {
    if args.is_empty() {
        return Err("missing subcommand".to_string());
    }
    let command = args.remove(0);
    const COMMANDS: [&str; 11] = [
        "wave",
        "table",
        "stabilize",
        "bounds",
        "vcd",
        "campaign",
        "serve",
        "query",
        "ping",
        "stats",
        "stop",
    ];
    if !COMMANDS.contains(&command.as_str()) {
        return Err(format!("unknown subcommand `{command}`"));
    }
    let mut o = Opts {
        command,
        length: 50,
        width: 20,
        scenario: Scenario::RandomDPlus,
        seed: 42,
        runs: 50,
        pulses: 10,
        byzantine: 0,
        fail_silent: 0,
        out: "hex.vcd".to_string(),
        addr: None,
        kind: QueryKind::Skew,
        hop: 0,
        regime: Regime::Crash,
    };
    while !args.is_empty() {
        let flag = args.remove(0);
        if args.is_empty() {
            return Err(format!("missing value for {flag}"));
        }
        let value = args.remove(0);
        fn parsed<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("malformed {what} value {value:?}"))
        }
        match flag.as_str() {
            "--length" => o.length = parsed(&value, "--length")?,
            "--width" => o.width = parsed(&value, "--width")?,
            "--seed" => o.seed = parsed(&value, "--seed")?,
            "--runs" => o.runs = parsed(&value, "--runs")?,
            "--pulses" => o.pulses = parsed(&value, "--pulses")?,
            "--byzantine" => o.byzantine = parsed(&value, "--byzantine")?,
            "--fail-silent" => o.fail_silent = parsed(&value, "--fail-silent")?,
            "--hop" => o.hop = parsed(&value, "--hop")?,
            "--out" => o.out = value,
            "--addr" => o.addr = Some(value),
            "--kind" => {
                o.kind = match value.as_str() {
                    "skew" => QueryKind::Skew,
                    "stabilize" => QueryKind::Stabilize,
                    other => return Err(format!("unknown query kind `{other}`")),
                }
            }
            "--regime" => {
                o.regime = match value.as_str() {
                    "burst" => Regime::Burst,
                    "crash" => Regime::Crash,
                    "churn" => Regime::Churn,
                    other => return Err(format!("unknown campaign regime `{other}`")),
                }
            }
            "--scenario" => {
                o.scenario = match value.as_str() {
                    "i" | "zero" => Scenario::Zero,
                    "ii" => Scenario::RandomDMinus,
                    "iii" => Scenario::RandomDPlus,
                    "iv" | "ramp" => Scenario::Ramp,
                    other => return Err(format!("unknown scenario `{other}`")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(o)
}

/// The one place where flags become an experiment description.
fn spec_for(o: &Opts) -> RunSpec {
    RunSpec::grid(o.length, o.width)
        .scenario(o.scenario)
        .seed(o.seed)
        .runs(o.runs)
        .faults(FaultRegime::Mixed {
            byzantine: o.byzantine,
            fail_silent: o.fail_silent,
        })
}

/// The daemon address: `--addr` wins, then the HEX_SERVE_ADDR knob.
fn addr_for(o: &Opts) -> String {
    o.addr
        .clone()
        .unwrap_or_else(|| ServeConfig::from_knobs().addr)
}

fn cmd_wave(o: &Opts) {
    let spec = spec_for(o).runs(1);
    let grid = spec.hex_grid();
    let rv = spec.run_single();
    println!(
        "wave: {}x{} grid, scenario {}, {} fault(s)",
        o.length,
        o.width,
        o.scenario.label(),
        rv.faulty.len()
    );
    print!("{}", wave_ascii(&grid, rv.view(), 30));
    let mask = exclusion_mask(&grid, &rv.faulty, 0);
    let skews = collect_skews(&grid, rv.view(), &mask);
    if let Some(s) = Summary::from_durations(&skews.intra) {
        println!(
            "intra-layer skews (ns): avg {:.3} q95 {:.3} max {:.3}",
            s.avg, s.q95, s.max
        );
    }
    if let Some(s) = Summary::from_durations(&skews.inter) {
        println!(
            "inter-layer skews (ns): min {:.3} avg {:.3} max {:.3}",
            s.min, s.avg, s.max
        );
    }
}

fn cmd_table(o: &Opts) {
    let spec = spec_for(o);
    let skews = batch_skews(&spec, 0);
    let intra = Summary::from_durations(&skews.cumulated.intra).unwrap();
    let inter = Summary::from_durations(&skews.cumulated.inter).unwrap();
    println!(
        "{} over {} runs ({} byzantine, {} fail-silent):",
        o.scenario.label(),
        o.runs,
        o.byzantine,
        o.fail_silent
    );
    println!("  intra (avg/q95/max): {}", intra.intra_row());
    println!("  inter (min/q5/avg/q95/max): {}", inter.inter_row());
}

fn cmd_stabilize(o: &Opts) {
    let spec = spec_for(o).pulses(o.pulses).init(InitState::Arbitrary);
    let grid = spec.hex_grid();
    let criteria = [Criterion::uniform(D_PLUS * 3, D_PLUS, grid.length())];
    let estimates = spec.fold_observed(&ObservedStabilizationReducer::new(&grid, &criteria, 0));
    let stats = summarize(&estimates[0]);
    println!(
        "stabilization ({} runs, {} pulses, scenario {}): avg pulse {:.2} ± {:.2}, {}/{} stabilized",
        stats.runs,
        o.pulses,
        o.scenario.label(),
        stats.avg,
        stats.std,
        stats.stabilized,
        stats.runs
    );
}

fn cmd_bounds(o: &Opts) {
    let delays = DelayRange::paper();
    let bound = theorem1_intra_bound(o.width, delays);
    let diam = hexclock::theory::limits::hex_diameter(o.length, o.width);
    println!(
        "{}x{} grid, [d-,d+] = [{:.3},{:.3}] ns, eps = {:.3} ns:",
        o.length,
        o.width,
        delays.lo.ns(),
        delays.hi.ns(),
        delays.uncertainty().ns()
    );
    println!(
        "  Theorem-1 neighbor skew bound (Δ0=0): {:.3} ns",
        bound.ns()
    );
    println!(
        "  global skew lower bound (any algorithm, D = {}): {:.3} ns",
        diam,
        hexclock::theory::limits::global_skew_lower_bound(diam, delays).ns()
    );
    println!(
        "  gradient neighbor lower bound:         {:.3} ns",
        hexclock::theory::limits::gradient_skew_lower_bound(diam, delays).ns()
    );
    let c2 = Condition2::paper(Duration::from_ns(31.75)).derive();
    println!(
        "  Condition-2 (sigma 31.75 ns): T-link {:.2}, T-sleep {:.2}, S {:.2} ns  (max pulse rate {:.2} MHz)",
        c2.t_link_min.ns(),
        c2.t_sleep_min.ns(),
        c2.separation.ns(),
        1e3 / c2.separation.ns()
    );
}

fn cmd_vcd(o: &Opts) {
    use hexclock::sim::{vcd_document, VcdOptions};
    let spec = spec_for(o).pulses(o.pulses.max(1));
    let grid = spec.hex_grid();
    let (trace, _schedule) = spec.trace(0);
    let doc = vcd_document(&grid, &trace, &VcdOptions::default());
    std::fs::write(&o.out, &doc).expect("write VCD file");
    println!(
        "wrote {} ({} nodes, {} firings, {} fault(s), {} pulse(s)) — open with gtkwave",
        o.out,
        grid.node_count(),
        trace.total_fires(),
        trace.faulty.len(),
        o.pulses.max(1)
    );
}

/// Build the canned campaign script for `--regime`, scaled by the spec's
/// Table-3 pulse separation so the same shapes work across scenarios: the
/// first disturbance lands mid-flight of pulse 1 and every window spans
/// two separations (churn: three one-separation windows, one every three
/// separations — close enough to stress, spaced enough that each
/// disturbance's segment can re-stabilize before the next hit).
fn campaign_script(o: &Opts, spec: &RunSpec) -> FaultScript {
    let grid = spec.hex_grid();
    let s = spec.separation();
    let onset = Time::ZERO + s + s / 2;
    let victim = grid.node((o.length / 2).max(1), i64::from(o.width / 2));
    match o.regime {
        Regime::Burst => FaultScript::burst(
            victim,
            NodeFault::Byzantine,
            onset,
            onset + s.times(2),
            RejoinState::Arbitrary,
        ),
        Regime::Crash => {
            FaultScript::crash_rejoin(victim, onset, onset + s.times(2), RejoinState::Clean)
        }
        Regime::Churn => {
            // Victims come from the lower quarter of the grid: a wave that
            // already passed them when a window opens stays clean, so each
            // churn hit disturbs exactly one pulse instead of every
            // in-flight wave — the per-disturbance segments stay readable.
            // (A pulse launched half a separation before a window crosses
            // layer L up to ~(L+1)*d+ later; L <= length/4 keeps that
            // crossing safely inside the window-free gap.)
            let cap = (o.length / 4).max(1);
            let mut candidates = forwarder_candidates(grid.graph());
            candidates.retain(|&n| grid.graph().coord(n).is_some_and(|c| c.layer <= cap));
            let mut rng = SimRng::seed_from_u64(o.seed);
            FaultScript::churn(
                &candidates,
                onset,
                s,
                s.times(3),
                3,
                RejoinState::Clean,
                &mut rng,
            )
        }
    }
}

fn cmd_campaign(o: &Opts) -> Result<(), String> {
    let base = spec_for(o).pulses(o.pulses).with_env();
    let script = campaign_script(o, &base);
    let spec = base.faults(FaultRegime::Script(script));
    let grid = spec.hex_grid();
    let criterion = Criterion::uniform(D_PLUS * 3, D_PLUS, grid.length());
    let stats = campaign_restabilization(&spec, &criterion, o.hop);
    eprintln!(
        "campaign {} on {}x{} (scenario {}, {} runs, {} pulses): {} disturbance(s), {}",
        o.regime.label(),
        grid.length(),
        grid.width(),
        o.scenario.label(),
        spec.runs,
        o.pulses,
        stats.disturbances.len(),
        match stats.worst() {
            Some(w) => format!("worst re-stabilization {w} pulse(s)"),
            None => "no disturbance fully recovered".to_string(),
        }
    );
    for (i, d) in stats.disturbances.iter().enumerate() {
        let (avg, worst) = if d.restabilized > 0 {
            let worst = d.worst_pulses.expect("restabilized segment has a worst");
            (format!("{:.2}", d.avg_pulses), worst.to_string())
        } else {
            ("-".to_string(), "-".to_string())
        };
        eprintln!(
            "  disturbance {i} at {} ps: {}/{} run(s) re-stabilized, avg {} pulse(s), worst {}",
            d.at.ps(),
            d.restabilized,
            d.runs,
            avg,
            worst
        );
    }
    let table = campaign_summary_table(&stats);
    println!("{}", table.to_json());
    Ok(())
}

fn cmd_serve(o: &Opts) -> Result<(), String> {
    let mut cfg = ServeConfig::from_knobs();
    if let Some(addr) = &o.addr {
        cfg.addr = addr.clone();
    }
    let cache_dir = cfg.cache_dir.display().to_string();
    let handle = hexclock::serve::serve(cfg).map_err(|e| format!("failed to start: {e}"))?;
    println!("hexd: listening on {} (cache {cache_dir})", handle.addr());
    let stats = handle.join();
    println!("hexd: stopped — {}", stats.to_json());
    Ok(())
}

fn cmd_query(o: &Opts) -> Result<(), String> {
    // The query spec mirrors what the local subcommands would compute:
    // `table`'s single-pulse batch for skew, `stabilize`'s multi-pulse
    // arbitrary-init batch for stabilization.
    let spec = match o.kind {
        QueryKind::Skew => spec_for(o),
        QueryKind::Stabilize => spec_for(o).pulses(o.pulses).init(InitState::Arbitrary),
    };
    let addr = addr_for(o);
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reply = match client.query(o.kind, o.hop, &spec) {
        Ok(r) => r,
        // The client already retried `busy` through its backoff budget;
        // exit 3 tells scripts "try again later" apart from hard failure.
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
            eprintln!("hexctl query: {e}");
            std::process::exit(3);
        }
        Err(e) => return Err(format!("query: {e}")),
    };
    // Provenance on stderr, payload alone on stdout: scripts can consume
    // the JSON while the CI smoke job greps the cache_hit flag.
    eprintln!(
        "cache_hit={} query_hash={:016x} engine={}",
        u8::from(reply.cached),
        reply.query_hash,
        reply.engine
    );
    let payload = String::from_utf8_lossy(&reply.payload);
    println!("{}", payload.trim_end_matches('\n'));
    Ok(())
}

fn cmd_ping(o: &Opts) -> Result<(), String> {
    let addr = addr_for(o);
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    println!("pong from {addr}");
    Ok(())
}

fn cmd_stats(o: &Opts) -> Result<(), String> {
    let addr = addr_for(o);
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let body = client.stats_json().map_err(|e| format!("stats: {e}"))?;
    println!("{}", String::from_utf8_lossy(&body).trim_end_matches('\n'));
    Ok(())
}

fn cmd_stop(o: &Opts) -> Result<(), String> {
    let addr = addr_for(o);
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.shutdown().map_err(|e| format!("stop: {e}"))?;
    println!("hexd at {addr} shutting down");
    Ok(())
}

fn main() {
    let o = match parse_args(std::env::args().skip(1).collect()) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("hexctl: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match o.command.as_str() {
        "wave" => {
            cmd_wave(&o);
            Ok(())
        }
        "table" => {
            cmd_table(&o);
            Ok(())
        }
        "stabilize" => {
            cmd_stabilize(&o);
            Ok(())
        }
        "bounds" => {
            cmd_bounds(&o);
            Ok(())
        }
        "vcd" => {
            cmd_vcd(&o);
            Ok(())
        }
        "campaign" => cmd_campaign(&o),
        "serve" => cmd_serve(&o),
        "query" => cmd_query(&o),
        "ping" => cmd_ping(&o),
        "stats" => cmd_stats(&o),
        "stop" => cmd_stop(&o),
        // parse_args validated the subcommand; nothing can reach here.
        other => Err(format!("unknown subcommand `{other}`")),
    };
    if let Err(msg) = outcome {
        eprintln!("hexctl {}: {msg}", o.command);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn valid_flags_parse() {
        let o = parse_args(argv(&[
            "table",
            "--length",
            "8",
            "--width",
            "6",
            "--scenario",
            "i",
            "--runs",
            "3",
            "--byzantine",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.command, "table");
        assert_eq!((o.length, o.width, o.runs, o.byzantine), (8, 6, 3, 1));
        assert_eq!(o.scenario, Scenario::Zero);
    }

    #[test]
    fn query_flags_parse() {
        let o = parse_args(argv(&[
            "query",
            "--addr",
            "unix:/tmp/x.sock",
            "--kind",
            "stabilize",
            "--hop",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.addr.as_deref(), Some("unix:/tmp/x.sock"));
        assert_eq!(o.kind, QueryKind::Stabilize);
        assert_eq!(o.hop, 1);
    }

    #[test]
    fn campaign_flags_parse() {
        let o = parse_args(argv(&["campaign", "--regime", "burst", "--runs", "3"])).unwrap();
        assert_eq!(o.command, "campaign");
        assert_eq!(o.regime, Regime::Burst);
        assert_eq!(o.runs, 3);
    }

    #[test]
    fn campaign_scripts_have_the_advertised_shapes() {
        let base = parse_args(argv(&["campaign", "--length", "8", "--width", "6"])).unwrap();
        for (regime, disturbances, transitions) in [
            (Regime::Burst, 1, 2),
            (Regime::Crash, 1, 2),
            (Regime::Churn, 3, 6),
        ] {
            let o = Opts {
                regime,
                ..base.clone()
            };
            let spec = spec_for(&o).pulses(o.pulses);
            let script = campaign_script(&o, &spec);
            assert_eq!(script.len(), transitions, "{}", regime.label());
            assert_eq!(
                script.disturbance_times().len(),
                disturbances,
                "{}",
                regime.label()
            );
            let grid = spec.hex_grid();
            script.assert_in_bounds(grid.node_count(), grid.graph().link_count());
        }
    }

    #[test]
    fn errors_are_reported_not_swallowed() {
        for (label, args) in [
            ("no subcommand", argv(&[])),
            ("unknown subcommand", argv(&["warp"])),
            ("unknown flag", argv(&["wave", "--bogus", "1"])),
            ("missing value", argv(&["wave", "--length"])),
            ("malformed value", argv(&["wave", "--length", "many"])),
            ("bad scenario", argv(&["wave", "--scenario", "v"])),
            ("bad kind", argv(&["query", "--kind", "median"])),
            ("bad regime", argv(&["campaign", "--regime", "meteor"])),
        ] {
            assert!(parse_args(args).is_err(), "{label} accepted");
        }
    }

    #[test]
    fn defaults_match_the_paper_grid() {
        let o = parse_args(argv(&["wave"])).unwrap();
        assert_eq!((o.length, o.width), (50, 20));
        assert_eq!(o.seed, 42);
        assert_eq!(o.kind, QueryKind::Skew);
        assert_eq!(o.regime, Regime::Crash);
        assert!(o.addr.is_none());
    }
}
