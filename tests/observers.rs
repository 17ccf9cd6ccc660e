//! The observer-equivalence wall: the streaming extraction path
//! (`RunSpec::fold_observed` + `PulseBinner`-backed reducers) must be
//! **byte-identical** to the materialized `PulseView` reference path —
//! identical cumulated sample vectors (order included), identical per-run
//! summaries, identical stabilization estimates — for randomized
//! experiment descriptions across every fault regime, every `QueuePolicy`
//! and 1..8 worker threads.
//!
//! This is the executable version of re-checking a derived claim against
//! its definition (cf. Altisen & Bozga's mechanized re-verification of
//! convergence arguments): the paper's statistics are *defined* over the
//! triggering-time matrices, and the observer path recomputes them
//! without ever building one.

use hexclock::analysis::reduce::{
    ObservedSkewReducer, ObservedStabilizationReducer, SkewReducer, StabilizationReducer,
};
use hexclock::analysis::stabilization::Criterion;
use hexclock::prelude::*;
use proptest::prelude::*;

fn regime(ix: usize) -> FaultRegime {
    match ix {
        0 => FaultRegime::None,
        1 => FaultRegime::Byzantine(1),
        2 => FaultRegime::FailSilent(2),
        3 => FaultRegime::Mixed {
            byzantine: 1,
            fail_silent: 1,
        },
        _ => FaultRegime::FixedByzantine(1, 2),
    }
}

proptest! {
    // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized `RunSpec`s — grid shape, scenario, mixed fault regimes,
    /// init, pulse count, seed, all three queue policies, 1..8 threads —
    /// produce observer-backed skew AND stabilization statistics
    /// byte-equal to the materialized `PulseView` path.
    #[test]
    fn prop_observed_stats_equal_materialized(
        length in 4u32..8,
        width in 6u32..9,
        regime_ix in 0usize..5,
        scenario_ix in 0usize..3,
        pulses in 1usize..4,
        arbitrary_init in 0usize..2,
        h in 0usize..2,
        threads in 1usize..9,
        queue_ix in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let scenario = [Scenario::Zero, Scenario::RandomDPlus, Scenario::Ramp][scenario_ix];
        let init = if arbitrary_init == 1 && pulses > 1 {
            InitState::Arbitrary
        } else {
            InitState::Clean
        };
        let spec = RunSpec::grid(length, width)
            .runs(3)
            .seed(seed)
            .threads(threads)
            .scenario(scenario)
            .faults(regime(regime_ix))
            .init(init)
            .pulses(pulses)
            .queue(QueuePolicy::ALL[queue_ix]);
        let grid = spec.hex_grid();

        // Skew reduction of the last pulse (pulse 0 for single-pulse
        // runs), with h-hop fault exclusion.
        let pulse = pulses - 1;
        let observed =
            spec.fold_observed(&ObservedSkewReducer::new(&grid, h).at_pulse(pulse));
        let materialized = spec.fold(&SkewReducer::new(&grid, h).at_pulse(pulse));
        prop_assert_eq!(&observed.cumulated.intra, &materialized.cumulated.intra);
        prop_assert_eq!(&observed.cumulated.inter, &materialized.cumulated.inter);
        prop_assert_eq!(observed.per_run_intra(), materialized.per_run_intra());
        prop_assert_eq!(observed.per_run_inter(), materialized.per_run_inter());

        // Stabilization estimates against a solvable and an impossible
        // criterion.
        let criteria = [
            Criterion::uniform(D_PLUS * 3, D_PLUS, grid.length()),
            Criterion::uniform(Duration::ZERO, Duration::ZERO, grid.length()),
        ];
        let observed =
            spec.fold_observed(&ObservedStabilizationReducer::new(&grid, &criteria, h));
        let materialized = spec.fold(&StabilizationReducer::new(&grid, &criteria, h));
        prop_assert_eq!(observed, materialized);
    }
}

/// Thread-count independence of the observed fold, pinned explicitly at
/// the thread counts the batch runner special-cases (serial path, more
/// threads than runs).
#[test]
fn observed_fold_is_thread_count_independent() {
    let base = RunSpec::grid(10, 6)
        .runs(12)
        .scenario(Scenario::RandomDPlus)
        .faults(FaultRegime::Byzantine(2));
    let grid = base.hex_grid();
    let reference = base
        .clone()
        .threads(1)
        .fold_observed(&ObservedSkewReducer::new(&grid, 1));
    for threads in [2usize, 3, 8, 64] {
        let streamed = base
            .clone()
            .threads(threads)
            .fold_observed(&ObservedSkewReducer::new(&grid, 1));
        assert_eq!(
            streamed.cumulated.intra, reference.cumulated.intra,
            "threads = {threads}"
        );
        assert_eq!(
            streamed.cumulated.inter, reference.cumulated.inter,
            "threads = {threads}"
        );
        assert_eq!(
            streamed.per_run_intra(),
            reference.per_run_intra(),
            "threads = {threads}"
        );
    }
}

/// `batch_skews` (now riding the observed path) still equals the
/// sequential materialized reference it was originally defined as.
#[test]
fn batch_skews_still_equals_materialized_reference() {
    use hexclock::analysis::reduce::{batch_skews, batch_skews_from_views};
    let spec = RunSpec::grid(10, 6)
        .runs(8)
        .scenario(Scenario::Ramp)
        .faults(FaultRegime::FailSilent(1));
    let grid = spec.hex_grid();
    let streamed = batch_skews(&spec, 1);
    let reference = batch_skews_from_views(&grid, &spec.run_batch(), 1);
    assert_eq!(streamed.cumulated.intra, reference.cumulated.intra);
    assert_eq!(streamed.cumulated.inter, reference.cumulated.inter);
    assert_eq!(streamed.per_run_intra(), reference.per_run_intra());
    assert_eq!(streamed.per_run_inter(), reference.per_run_inter());
}
