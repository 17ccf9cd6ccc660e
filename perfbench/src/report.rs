//! Checks, metrics and the result line.

use std::fmt::Write as _;

use crate::clock::Tracer;
use crate::layers::{unit_of, LAYER_METRICS};
use crate::Args;

/// A workload's report, or the reason it could not run at all.
pub type Outcome = Result<Report, String>;

/// Everything a run reports: output checks, end-to-end metrics, per-layer
/// metrics and human-readable notes printed before the result line.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    layers: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Report {
    /// Count one checked output; a false `ok` is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(&format!("FAILED: {}", what()));
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            LAYER_METRICS.contains(&name),
            "unlisted layer metric {name}"
        );
        self.layers.push((name.to_string(), value));
    }

    pub fn note(&mut self, line: &str) {
        self.notes.push(line.to_string());
    }

    /// Print the notes, then the result line. With `trace` the metrics are
    /// the per-layer ones (every listed metric, 0 where the workload never
    /// called the layer); otherwise the end-to-end ones. A run with a
    /// failed check reports no timing.
    pub fn print(&self, trace: bool) -> bool {
        for line in &self.notes {
            println!("{line}");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = String::new();
        if correct {
            let rows: Vec<(String, f64, &str)> = if trace {
                LAYER_METRICS
                    .iter()
                    .map(|&name| {
                        let value = self
                            .layers
                            .iter()
                            .find(|(n, _)| n == name)
                            .map_or(0.0, |(_, v)| *v);
                        (name.to_string(), value, unit_of(name))
                    })
                    .collect()
            } else {
                self.metrics.clone()
            };
            for (i, (name, value, unit)) in rows.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    metrics,
                    "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                );
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        );
        correct
    }
}

/// A finite JSON number with all its digits (non-finite values read 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The smallest of a sample of times (infinite for an empty one).
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `p ∈ (0, 1]` of a sample (0 for an empty one).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Write the traced pass's spans under the run directory.
pub fn write_spans(args: &Args, tr: &Tracer) {
    let path = args
        .run_dir
        .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    if let Err(e) = tr.write_tsv(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
