//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <skew_tables|stabilize_sweep|hexd_sweep> --seed N --seconds S
//!           --trace 0|1 --data DIR --run-dir DIR
//! perfbench --workload W --bless --data DIR --run-dir DIR
//! ```
//!
//! The seed picks one of [`VARIANTS`] input sets whose outputs are pinned in
//! `DIR/digests/<workload>.txt`; the program under test only ever sees the
//! generated specs. Every run checks its outputs against those digests,
//! then prints its notes and, as the last line, one JSON result object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
//! `--bless` regenerates the digest file of a workload for every variant.
//! See `README.md` beside this package for the workloads and metrics.

#![forbid(unsafe_code)]

mod batches;
mod clock;
mod digests;
mod hexd;
mod jobs;
mod layers;
mod report;
#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::ExitCode;

use hex_sim::canon::fnv1a_64;

use crate::clock::Tracer;
use crate::digests::{Digests, Pin};
use crate::jobs::Job;

/// Input variants with committed digests; the seed selects one.
pub const VARIANTS: u32 = 16;

/// Execution knobs that would change the program being measured.
const REFUSED_KNOBS: [&str; 5] = [
    "HEX_QUEUE",
    "HEX_BATCH",
    "HEX_SHARDS",
    "HEX_THREADS",
    "HEX_RUNS",
];

const WORKLOADS: [&str; 3] = ["skew_tables", "stabilize_sweep", "hexd_sweep"];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub variant: u32,
    pub seconds: f64,
    pub trace: bool,
    pub bless: bool,
    pub data: PathBuf,
    pub run_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        variant: 0,
        seconds: 10.0,
        trace: false,
        bless: false,
        data: PathBuf::from("perfbench"),
        run_dir: PathBuf::from(".bench_run"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = || format!("malformed {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--data" => args.data = PathBuf::from(&value),
            "--run-dir" => args.run_dir = PathBuf::from(&value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    args.variant = variant_of(args.seed);
    Ok(args)
}

/// The input variant a seed selects (SplitMix64 finalizer, so nearby seeds
/// spread over the variants).
fn variant_of(seed: u64) -> u32 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % u64::from(VARIANTS)) as u32
}

fn digest_path(args: &Args) -> PathBuf {
    args.data
        .join("digests")
        .join(format!("{}.txt", args.workload))
}

/// Every batch of every variant of the workload, run serially, pinned;
/// each is also run through the public entry points at the host's thread
/// count, which must give the same table.
fn bless(args: &Args) -> Result<(), String> {
    let threads = hex_sim::batch::default_threads();
    let mut digests = Digests::default();
    for variant in 0..VARIANTS {
        let jobs: Vec<Job> = match args.workload.as_str() {
            "skew_tables" => jobs::skew_tables(variant),
            "stabilize_sweep" => jobs::stabilize_sweep(variant),
            _ => (0..2).flat_map(|c| jobs::hexd_pool(variant, c)).collect(),
        };
        for (ix, job) in jobs.iter().enumerate() {
            let out = jobs::serial(job, &mut Tracer::new(false), 1, ix as u64);
            let parallel = jobs::emit(&jobs::compute(job));
            if parallel != out.table {
                return Err(format!(
                    "v{variant} {}: table at {threads} threads differs from 1 thread",
                    job.label
                ));
            }
            digests.insert(
                variant,
                &job.label,
                Pin {
                    table: fnv1a_64(out.table.as_bytes()),
                    popped: out.popped,
                    stale: out.stale,
                },
            );
        }
        eprintln!("perfbench: blessed {} v{variant}", args.workload);
    }
    let path = digest_path(args);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    digests
        .write(
            &path,
            &format!(
                "{} outputs, written by `perfbench --workload {} --bless`.",
                args.workload, args.workload
            ),
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The execution settings under measurement, printed with every report.
fn config_line(args: &Args) -> String {
    let threads = hex_sim::batch::default_threads();
    format!(
        "config: workload={} seed={} variant={} queue={} batch_default={} shard_default={} \
         threads={threads} host_cores={threads} engine={}",
        args.workload,
        args.seed,
        args.variant,
        hex_sim::QueuePolicy::default().label(),
        hex_sim::engine::batch_default(),
        hex_sim::engine::shard_default(),
        hex_sim::canon::engine_version()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = REFUSED_KNOBS.iter().find(|k| hex_sim::knobs::is_set(k)) {
        eprintln!(
            "perfbench: refusing to run with {knob} set: it changes the program being measured"
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.run_dir.display());
        return ExitCode::FAILURE;
    }
    if args.bless {
        return match bless(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("perfbench: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let digests = match Digests::load(&digest_path(&args)) {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", config_line(&args));
    let outcome = match args.workload.as_str() {
        "skew_tables" => batches::run(&args, jobs::skew_tables, &digests),
        "stabilize_sweep" => batches::run(&args, jobs::stabilize_sweep, &digests),
        _ => hexd::run(&args, &digests),
    };
    match outcome {
        Ok(report) if report.print(args.trace) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
