//! Per-layer metrics derived from the traced pass. A layer is a module of
//! the workspace; a span's name starts with its layer.

use crate::clock::{ratio, Tracer};
use crate::report::Report;

/// Engine regimes with their own `engine.*` metrics.
pub const CLASSES: [&str; 4] = ["single", "byzantine", "multi_pulse", "scripted"];

/// Every per-layer metric, in report order. A traced run reports all of
/// them; a layer the workload never calls reads 0.
pub const LAYER_METRICS: [&str; 40] = [
    "engine.ns_per_event.single",
    "engine.ns_per_event.byzantine",
    "engine.ns_per_event.multi_pulse",
    "engine.ns_per_event.scripted",
    "engine.events_per_run.single",
    "engine.events_per_run.byzantine",
    "engine.events_per_run.multi_pulse",
    "engine.events_per_run.scripted",
    "engine.stale_frac.single",
    "engine.stale_frac.byzantine",
    "engine.stale_frac.multi_pulse",
    "engine.stale_frac.scripted",
    "engine.self_share",
    "spec.plan_us.byzantine",
    "spec.plan_us.fail_silent",
    "analysis.fold_us_per_run.skew",
    "analysis.fold_us_per_run.stabilize",
    "analysis.fold_us_per_run.restabilize",
    "analysis.merge_us",
    "analysis.summary_ms.skew",
    "analysis.summary_ms.stabilize",
    "analysis.summary_ms.campaign",
    "analysis.self_share",
    "batch.parallel_eff",
    "batch.wall_ms",
    "canon.encode_us",
    "canon.decode_us",
    "canon.hash_us",
    "protocol.codec_us",
    "cache.load_us",
    "cache.store_us",
    "cache.hit_ratio",
    "server.computations",
    "server.coalesced",
    "server.rejected",
    "server.failures",
    "server.overhead_us",
    "server.hit_share",
    "trace.overhead_s",
    "trace.spans",
];

/// The unit of a per-layer metric, read off its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.contains("ns_per_event") {
        "ns"
    } else if name.ends_with("_us") || name.contains("_us.") || name.contains("_us_") {
        "us"
    } else if name.ends_with("_ms") || name.contains("_ms.") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.contains("share")
        || name.contains("frac")
        || name.contains("eff")
        || name.contains("ratio")
    {
        "ratio"
    } else {
        "count"
    }
}

/// The engine, spec and analysis metrics of a serial traced pass.
pub fn batch_layers(report: &mut Report, tr: &Tracer) {
    for class in CLASSES {
        let (ns, _) = tr.total(&format!("engine.simulate.{class}"));
        let popped = tr.counter(&format!("engine.popped.{class}")) as f64;
        let stale = tr.counter(&format!("engine.stale.{class}")) as f64;
        let runs = tr.counter(&format!("engine.runs.{class}")) as f64;
        report.layer(
            &format!("engine.ns_per_event.{class}"),
            ratio(ns as f64, popped),
        );
        report.layer(
            &format!("engine.events_per_run.{class}"),
            ratio(popped, runs),
        );
        report.layer(&format!("engine.stale_frac.{class}"), ratio(stale, popped));
    }
    report.layer("engine.self_share", tr.self_share("engine"));
    report.layer("spec.plan_us.byzantine", tr.mean_us("spec.plan.byzantine"));
    report.layer(
        "spec.plan_us.fail_silent",
        tr.mean_us("spec.plan.fail_silent"),
    );
    for (metric, span) in [
        ("analysis.fold_us_per_run.skew", "analysis.fold.skew"),
        (
            "analysis.fold_us_per_run.stabilize",
            "analysis.fold.stabilize",
        ),
        (
            "analysis.fold_us_per_run.restabilize",
            "analysis.fold.restabilize",
        ),
        ("analysis.merge_us", "analysis.merge"),
    ] {
        report.layer(metric, tr.mean_us(span));
    }
    for kind in ["skew", "stabilize", "campaign"] {
        report.layer(
            &format!("analysis.summary_ms.{kind}"),
            tr.mean_us(&format!("analysis.summary.{kind}")) / 1e3,
        );
    }
    report.layer("analysis.self_share", tr.self_share("analysis"));
}
