//! The two batch workloads, `skew_tables` and `stabilize_sweep`: set-up,
//! the timed sweeps at the host's thread count, the check passes and, with
//! `--trace 1`, the traced pass.

use hex_analysis::reduce::BatchSkews;
use hex_analysis::stats::Summary;
use hex_sim::canon::fnv1a_64;

use crate::clock::{more_setups, ratio, traced_pass, Stopwatch, Tracer};
use crate::digests::{Digests, Pin};
use crate::jobs::{compute, emit, serial, Job, Reduced, Serial};
use crate::report::{fastest, median, percentile, Outcome, Report};
use crate::Args;

/// Fewest timed sweeps, however long one takes.
const MIN_SWEEPS: usize = 3;

pub fn run(args: &Args, jobs_of: fn(u32) -> Vec<Job>, digests: &Digests) -> Outcome {
    let threads = hex_sim::batch::default_threads();
    let mut report = Report::default();
    let pin = |job: &Job| {
        digests
            .get(args.variant, &job.label)
            .ok_or_else(|| format!("no committed digest for v{} {}", args.variant, job.label))
    };

    // Set-up: build the specs and run one warm-up batch.
    let mut setups = Vec::new();
    let mut jobs = Vec::new();
    let setup = Stopwatch::start();
    while more_setups(setups.len(), &setup) {
        let sw = Stopwatch::start();
        jobs = jobs_of(args.variant);
        let table = emit(&compute(&jobs[0]));
        setups.push(sw.s());
        report.check(fnv1a_64(table.as_bytes()) == pin(&jobs[0])?.table, || {
            format!("warm-up {} table digest differs", jobs[0].label)
        });
    }
    let pins: Vec<Pin> = jobs.iter().map(pin).collect::<Result<_, _>>()?;
    let events: u64 = pins.iter().map(|p| p.popped).sum();

    // Timed sweeps at the host's thread count. A batch is one query: on a
    // miss, `hexd` computes exactly such a batch.
    let mut per_batch: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut batch_ms = Vec::new();
    let mut sweeps = 0;
    let window = Stopwatch::start();
    while sweeps < MIN_SWEEPS || window.s() < args.seconds {
        for ((job, pin), times) in jobs.iter().zip(&pins).zip(&mut per_batch) {
            let sw = Stopwatch::start();
            let table = emit(&compute(job));
            let s = sw.s();
            times.push(s);
            batch_ms.push(s * 1e3);
            report.check(fnv1a_64(table.as_bytes()) == pin.table, || {
                format!("{} table digest differs at {threads} threads", job.label)
            });
        }
        sweeps += 1;
    }
    let peak_rss_mb = crate::report::peak_rss_mb();

    check_one_thread(jobs.iter().zip(&pins), &mut report);
    let sw = Stopwatch::start();
    let cells = serial_pass(&jobs, &pins, &mut Tracer::new(false), threads, &mut report);
    let untraced_s = sw.s();

    if args.workload == "skew_tables" {
        accuracy_report(&jobs, &cells, &mut report);
    } else {
        report.note("accuracy: Fig. 18 and the fault campaigns have no reference values in the repository; these outputs are unvalidated");
    }

    // A sweep is the sum of each batch's fastest time in the window. On a
    // shared host, interference only ever adds time, and this estimate is
    // about half as spread across runs as the median sweep (README.md).
    let sweep_s: f64 = per_batch.iter().map(|t| fastest(t)).sum();
    report.metric("sweep_s", sweep_s, "s");
    report.metric("events_per_s", events as f64 / sweep_s, "1/s");
    report.metric("queries_per_s", jobs.len() as f64 / sweep_s, "1/s");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.note(&format!(
        "samples: {sweeps} sweeps of {} batches ({} batch latencies, p50 {:.3} ms, \
         p99 {:.3} ms); {events} popped events per sweep",
        jobs.len(),
        batch_ms.len(),
        median(&batch_ms),
        percentile(&batch_ms, 0.99)
    ));

    if args.trace {
        let (tr, overhead_s) = traced_pass(untraced_s, |tr| {
            serial_pass(&jobs, &pins, tr, threads, &mut report);
        });
        crate::layers::batch_layers(&mut report, &tr);
        // Σ serial per-run spans ÷ (threads × parallel wall).
        let run_ns: u64 = tr
            .spans
            .iter()
            .filter(|s| {
                matches!(s.layer(), "spec" | "engine") || s.name.starts_with("analysis.fold")
            })
            .map(|s| s.ns())
            .sum();
        report.layer(
            "batch.parallel_eff",
            ratio(run_ns as f64 / 1e9, threads as f64 * sweep_s),
        );
        report.layer("batch.wall_ms", sweep_s * 1e3 / jobs.len() as f64);
        report.layer("trace.overhead_s", overhead_s);
        report.layer("trace.spans", tr.spans.len() as f64);
        crate::report::write_spans(args, &tr);
    }
    Ok(report)
}

/// Run every batch through the public entry points on one thread, which
/// takes the batch runner's single-thread path, and check its table.
pub fn check_one_thread<'a>(
    jobs: impl IntoIterator<Item = (&'a Job, &'a Pin)>,
    report: &mut Report,
) {
    for (job, pin) in jobs {
        let one_thread = Job {
            spec: job.spec.clone().threads(1),
            ..job.clone()
        };
        let table = emit(&compute(&one_thread));
        report.check(fnv1a_64(table.as_bytes()) == pin.table, || {
            format!("{} table digest differs at 1 thread", job.label)
        });
    }
}

/// Run every batch serially, call by call, and check it. Returns the
/// Table 1/2 cells of the skew batches.
fn serial_pass(
    jobs: &[Job],
    pins: &[Pin],
    tr: &mut Tracer,
    threads: usize,
    report: &mut Report,
) -> Vec<Option<[f64; 8]>> {
    let mut cells = Vec::new();
    for (ix, (job, pin)) in jobs.iter().zip(pins).enumerate() {
        let out = serial(job, tr, threads, ix as u64);
        cells.push(match &out.reduced {
            Reduced::Skew(skews) => table_cells(skews),
            _ => None,
        });
        check_serial(job, pin, &out, report);
    }
    cells
}

/// Check a serial pass over one batch: its table digest, its event counts,
/// and that every timed fault placement was the one its run used.
pub fn check_serial(job: &Job, pin: &Pin, out: &Serial, report: &mut Report) {
    report.check(fnv1a_64(out.table.as_bytes()) == pin.table, || {
        format!("{} table digest differs in the serial pass", job.label)
    });
    report.check(out.popped == pin.popped && out.stale == pin.stale, || {
        format!(
            "{} event counts {}/{} differ from the pinned {}/{}",
            job.label, out.popped, out.stale, pin.popped, pin.stale
        )
    });
    report.check(out.plan_mismatches == 0, || {
        format!(
            "{}: {} timed fault placements differ from the runs' own",
            job.label, out.plan_mismatches
        )
    });
}

/// Paper reference rows (ns), as quoted in the doc comments of the
/// `table1` and `table2` drivers: intra avg/q95/max, inter
/// min/q5/avg/q95/max, scenarios (i)–(iv).
const PAPER: [[[f64; 8]; 4]; 2] = [
    [
        [0.395, 1.000, 3.098, 7.164, 7.356, 7.937, 8.626, 11.030],
        [0.462, 1.226, 6.888, 7.164, 7.350, 7.988, 8.795, 15.199],
        [0.473, 1.260, 7.786, 7.164, 7.349, 7.997, 8.814, 16.219],
        [1.860, 7.639, 8.191, 0.357, 7.262, 8.642, 14.834, 16.390],
    ],
    [
        [0.539, 1.335, 10.385, 5.575, 7.352, 8.007, 8.760, 17.548],
        [0.607, 1.717, 10.123, 4.205, 7.343, 8.058, 9.003, 20.027],
        [0.618, 1.787, 10.363, 3.515, 7.343, 8.067, 9.033, 20.717],
        [1.973, 7.660, 34.590, -19.695, 7.260, 8.690, 14.866, 24.305],
    ],
];

const CELLS: [&str; 8] = [
    "intra.avg",
    "intra.q95",
    "intra.max",
    "inter.min",
    "inter.q5",
    "inter.avg",
    "inter.q95",
    "inter.max",
];

/// Print every Table 1/2 cell beside the paper's value and its error.
fn accuracy_report(jobs: &[Job], cells: &[Option<[f64; 8]>], report: &mut Report) {
    let mut abs_err = Vec::new();
    for (ix, (job, cells)) in jobs.iter().zip(cells).enumerate() {
        let Some(cells) = cells else { continue };
        let paper = PAPER[ix / 4][ix % 4];
        let row: Vec<String> = CELLS
            .iter()
            .zip(cells.iter().zip(paper))
            .map(|(name, (got, want))| {
                abs_err.push((got - want).abs());
                format!("{name} {got:.3}/{want:.3} ({:+.3})", got - want)
            })
            .collect();
        report.note(&format!(
            "accuracy {} measured/paper (error) ns: {}",
            job.label,
            row.join(", ")
        ));
    }
    report.note(&format!(
        "accuracy: mean |error| {:.3} ns, max |error| {:.3} ns over {} cells",
        abs_err.iter().sum::<f64>() / abs_err.len().max(1) as f64,
        abs_err.iter().copied().fold(0.0, f64::max),
        abs_err.len()
    ));
}

fn table_cells(skews: &BatchSkews) -> Option<[f64; 8]> {
    let a = Summary::from_durations(&skews.cumulated.intra)?;
    let e = Summary::from_durations(&skews.cumulated.inter)?;
    Some([a.avg, a.q95, a.max, e.min, e.q05, e.avg, e.q95, e.max])
}
