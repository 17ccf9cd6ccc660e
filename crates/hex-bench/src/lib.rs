//! # hex-bench — experiment drivers for every table and figure
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation; its first doc line names which, and the README section
//! "Reproducing the paper" shows how to run them. Since the `RunSpec`
//! redesign the experiment vocabulary itself — grid shape, scenarios, fault
//! regimes, Table-3 timing, seeding — lives in [`hex_sim::spec`], and the
//! reductions (skews, stabilization estimates) in [`hex_analysis::reduce`];
//! this library only keeps the *presentation* drivers (paper-layout rows,
//! the Fig. 15/16 and Fig. 18/19 sweep printers) so the binaries stay
//! declarative. Criterion benches under `benches/` time the underlying
//! kernels and run reduced versions of the experiment pipelines.
//!
//! Environment knobs honored by all binaries (via [`RunSpec::from_env`] /
//! [`RunSpec::with_env`]):
//!
//! * `HEX_RUNS` — runs per configuration (default 250, the paper's count);
//! * `HEX_SEED` — base seed (default 42);
//! * `HEX_THREADS` — worker threads (default: available parallelism);
//! * `HEX_EMIT` — `csv`/`json` machine-readable output next to the text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hex_analysis::reduce::ObservedStabilizationReducer;
use hex_analysis::stats::Summary;
use hex_core::{D_MINUS, D_PLUS};
use hex_des::{Duration, Schedule, Time};

pub use hex_analysis::emit::{Emitter, Table, Value};
pub use hex_analysis::reduce::{batch_skews, BatchSkews, ObservedSkewReducer};
pub use hex_sim::spec::{
    scenario_separation, scenario_timing, FaultRegime, RunSpec, RunView, TimingPolicy,
};

use hex_clock::Scenario;

/// A single-run spec reproducing a deterministic adversarial
/// [`Construction`](hex_theory::adversary::Construction) (Fig. 5, Fig. 17,
/// the worst-case landscape): explicit delay tables, fault plan and
/// layer-0 schedule, generous single-pulse timeouts.
pub fn construction_spec(c: &hex_theory::adversary::Construction, seed: u64) -> RunSpec {
    RunSpec::grid(c.grid.length(), c.grid.width())
        .runs(1)
        .threads(1)
        .seed(seed)
        .delays(c.delays.clone())
        .faults(FaultRegime::Plan(c.faults.clone()))
        .schedule(c.schedule.clone())
        .timing(TimingPolicy::Generous)
}

/// The full triggering-time matrix of a wave as a
/// `(layer, col, t_ns, cause)` emit table (Figs. 8/9/13/14).
pub fn wave_table(name: &str, grid: &hex_core::HexGrid, view: &hex_sim::PulseView) -> Table {
    use hex_analysis::wave::cause_label;
    let mut t = Table::new(name, &["layer", "col", "t_ns", "cause"]);
    for layer in 0..=grid.length() {
        for col in 0..grid.width() {
            let time = view
                .time(layer, col as i64)
                .map(|at| (at - Time::ZERO).ns());
            t.row(vec![
                Value::from(layer),
                Value::from(col),
                Value::from(time),
                Value::from(cause_label(view.trigger_cause(layer, col as i64))),
            ]);
        }
    }
    t
}

/// A histogram as a `(bin_lo_ns, bin_hi_ns, count)` emit table
/// (Figs. 10/11).
pub fn histogram_table(name: &str, h: &hex_analysis::histogram::Histogram) -> Table {
    let mut t = Table::new(name, &["bin_lo_ns", "bin_hi_ns", "count"]);
    for (lo, hi, count) in h.rows() {
        t.row(vec![
            Value::from(lo.ns()),
            Value::from(hi.ns()),
            Value::from(count),
        ]);
    }
    t
}

/// A per-layer skew series as an emit table (Fig. 12).
pub fn layer_table(name: &str, rows: &[hex_analysis::layers::LayerRow]) -> Table {
    let mut t = Table::new(name, &["layer", "min", "q5", "avg", "q95", "max", "std"]);
    for r in rows {
        t.row(vec![
            Value::from(r.layer),
            Value::from(r.summary.min),
            Value::from(r.summary.q05),
            Value::from(r.summary.avg),
            Value::from(r.summary.q95),
            Value::from(r.summary.max),
            Value::from(r.summary.std),
        ]);
    }
    t
}

/// Render the paper's table row (intra avg/q95/max + inter min/q5/avg/q95/
/// max) from cumulated samples.
pub fn table_row(label: &str, skews: &BatchSkews) -> String {
    let intra = Summary::from_durations(&skews.cumulated.intra).expect("intra samples");
    let inter = Summary::from_durations(&skews.cumulated.inter).expect("inter samples");
    format!(
        "{label:<24} | {} | {}",
        intra.intra_row(),
        inter.inter_row()
    )
}

/// Zero-time schedule helper (tests, benches).
pub fn zero_schedule(w: u32) -> Schedule {
    Schedule::single_pulse(vec![Time::ZERO; w as usize])
}

/// The Fig. 15/16 fault sweep: for `f ∈ {0,…,5}` Byzantine nodes and
/// `h ∈ {0, 1}` exclusion radii, print the per-run skew op distributions
/// as box-plot CSV. `base` fixes grid, runs, seed and scenario; the sweep
/// overrides the fault regime per cell and streams each batch through
/// [`batch_skews`].
pub fn fault_sweep(base: &RunSpec, title: &str) {
    use hex_analysis::boxplot::{op_boxes, sweep_csv, OpBoxes};
    for h in [0usize, 1] {
        println!(
            "\n{title}, scenario {}, h = {h}: per-run skew op distributions over {} runs (ns)",
            base.scenario.label(),
            base.runs
        );
        let mut sweep_intra: Vec<(usize, OpBoxes)> = Vec::new();
        let mut sweep_inter: Vec<(usize, OpBoxes)> = Vec::new();
        for f in 0..=5usize {
            let spec = base.clone().faults(FaultRegime::Byzantine(f));
            let skews = batch_skews(&spec, h);
            sweep_intra.push((f, op_boxes(&skews.per_run_intra())));
            sweep_inter.push((f, op_boxes(&skews.per_run_inter())));
        }
        println!("intra-layer:\n{}", sweep_csv(&sweep_intra));
        println!("inter-layer:\n{}", sweep_csv(&sweep_inter));
    }
}

/// The Fig. 18/19 stabilization sweep: for fault kinds Byzantine and
/// fail-silent, `f ∈ {0,…,5}` and threshold classes `C ∈ {0,…,3}`, print
/// average (± std) stabilization pulse and the number of stabilized runs.
/// Each `(kind, f)` batch is simulated once on the streaming extraction
/// path and folded through an [`ObservedStabilizationReducer`] evaluating
/// all four classes — no run of the sweep materializes a trace or a
/// pulse-view matrix.
pub fn stabilization_sweep(base: &RunSpec, title: &str, pulses: usize) {
    use hex_analysis::stabilization::{summarize, Criterion};
    use hex_theory::bounds::lemma5_layer_bound;

    let scenario = base.scenario;
    let grid = base.hex_grid();
    let source_spread = match scenario {
        Scenario::Zero => Duration::ZERO,
        Scenario::RandomDMinus => D_MINUS,
        Scenario::RandomDPlus => D_PLUS,
        Scenario::Ramp => D_PLUS.times((base.width / 2) as i64),
    };
    println!(
        "\n{title}, scenario {}: stabilization over {} pulses, {} runs (avg pulse ± std | stabilized/runs)",
        scenario.label(),
        pulses,
        base.runs
    );
    println!(
        "{:<12} {:>2} | {:>18} {:>18} {:>18} {:>18}",
        "fault kind", "f", "C=0", "C=1", "C=2", "C=3"
    );
    for byzantine in [true, false] {
        for f in 0..=5usize {
            let regime = if byzantine {
                FaultRegime::Byzantine(f)
            } else {
                FaultRegime::FailSilent(f)
            };
            let spec = base
                .clone()
                .faults(regime)
                .pulses(pulses)
                .init(hex_sim::InitState::Arbitrary);
            let criteria: Vec<Criterion> = (0..=3u8)
                .map(|c| {
                    Criterion::class(c, D_PLUS, base.length, |layer| {
                        lemma5_layer_bound(
                            source_spread,
                            layer,
                            f.min(layer as usize),
                            hex_core::DelayRange::paper(),
                        )
                    })
                })
                .collect();
            let estimates =
                spec.fold_observed(&ObservedStabilizationReducer::new(&grid, &criteria, 0));
            let cells: Vec<String> = estimates
                .iter()
                .map(|per_run| {
                    let stats = summarize(per_run);
                    format!(
                        "{:>5.2}±{:<4.2} {:>3}/{:<3}",
                        stats.avg, stats.std, stats.stabilized, stats.runs
                    )
                })
                .collect();
            println!(
                "{:<12} {:>2} | {} ",
                if byzantine {
                    "byzantine"
                } else {
                    "fail-silent"
                },
                f,
                cells.join(" | ")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_match_paper() {
        let s = RunSpec::paper();
        assert_eq!(s.length, 50);
        assert_eq!(s.width, 20);
        assert_eq!(s.runs, 250);
    }

    #[test]
    fn single_pulse_batch_shapes() {
        let spec = RunSpec::small();
        let views = spec.run_batch();
        assert_eq!(views.len(), spec.runs);
        for rv in &views {
            assert!(rv.faulty.is_empty());
            assert_eq!(rv.view().spurious, 0);
        }
    }

    #[test]
    fn batch_skews_nonempty() {
        let spec = RunSpec::small();
        let skews = batch_skews(&spec, 0);
        assert_eq!(skews.runs(), spec.runs);
        assert_eq!(
            skews.cumulated.intra.len(),
            spec.runs * (spec.length * spec.width) as usize
        );
    }

    #[test]
    fn scenario_timing_matches_table3() {
        let t = scenario_timing(Scenario::RandomDPlus);
        assert!((t.link.lo.ns() - 35.25).abs() < 0.05);
        let s = scenario_separation(Scenario::Ramp);
        assert!((s.ns() - 316.40).abs() < 0.05);
    }

    #[test]
    fn stabilization_batch_shapes() {
        let spec = RunSpec::small()
            .runs(3)
            .pulses(5)
            .init(hex_sim::InitState::Arbitrary);
        let runs = spec.run_batch();
        assert_eq!(runs.len(), 3);
        for r in &runs {
            assert_eq!(r.views.len(), 5);
        }
    }

    #[test]
    fn table_row_formats() {
        let spec = RunSpec::small();
        let skews = batch_skews(&spec, 0);
        let row = table_row("(i) 0", &skews);
        assert!(row.contains("(i) 0"));
        assert!(row.contains('|'));
    }
}
