//! Equivalence pins for the `RunSpec`/`run_batch_fold` redesign.
//!
//! The redesign moved the experiment wiring (schedules, fault placement,
//! Table-3 timing, per-run seeding) from hand-rolled closures in
//! `hex-bench` into `hex_sim::spec::RunSpec`, and the batch reduction from
//! a serial post-pass into a streaming parallel fold. These tests pin that
//! nothing drifted:
//!
//! 1. a `RunSpec`-built 50×20 fault-free single-pulse batch is
//!    byte-identical to the legacy `simulate(...)` wiring;
//! 2. a `RunSpec`-built 50×20 Byzantine stabilization batch is
//!    byte-identical to the legacy wiring;
//! 3. the streaming observed fold equals `run_batch` reduced run by run at
//!    any thread count, for the multi-pulse stabilization reduction, and
//!    `run_batch_fold` (streaming, chunk-stealing) equals `run_batch` + a
//!    sequential fold.

use hexclock::core::fault::{forwarder_candidates, place_condition1};
use hexclock::core::NodeFault;
use hexclock::prelude::*;
use hexclock::sim::spec::scenario_timing;

/// The paper grid with a test-sized run count (the shape matters for the
/// pin, the statistics do not).
fn paper_spec(runs: usize) -> RunSpec {
    RunSpec::grid(50, 20).runs(runs).seed(42)
}

#[test]
fn fault_free_single_pulse_batch_is_byte_identical_to_legacy_wiring() {
    let spec = paper_spec(4).scenario(Scenario::RandomDPlus);
    let grid = spec.hex_grid();
    let batch = spec.run_batch();
    assert_eq!(batch.len(), 4);

    for (run, rv) in batch.iter().enumerate() {
        // The exact pre-redesign wiring of `single_pulse_batch`.
        let seed = 42 + run as u64;
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5EED_0001);
        let offsets = Scenario::RandomDPlus.single_pulse_times(20, D_MINUS, D_PLUS, &mut rng);
        let schedule = Schedule::single_pulse(offsets);
        let cfg = SimConfig {
            timing: scenario_timing(Scenario::RandomDPlus),
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &schedule, &cfg, seed);
        let view = PulseView::from_single_pulse(&grid, &trace);

        assert_eq!(rv.faulty, trace.faulty, "run {run}: faulty set");
        assert_eq!(rv.views.len(), 1, "run {run}: single pulse");
        assert_eq!(rv.view().t, view.t, "run {run}: triggering times");
        assert_eq!(rv.view().cause, view.cause, "run {run}: trigger causes");
        assert_eq!(rv.view().spurious, view.spurious, "run {run}");
    }
}

#[test]
fn byzantine_stabilization_batch_is_byte_identical_to_legacy_wiring() {
    let pulses = 4;
    let spec = paper_spec(2)
        .scenario(Scenario::Zero)
        .faults(FaultRegime::Byzantine(3))
        .pulses(pulses)
        .init(InitState::Arbitrary);
    let grid = spec.hex_grid();
    let separation = spec.separation();
    let batch = spec.run_batch();
    assert_eq!(batch.len(), 2);

    for (run, rv) in batch.iter().enumerate() {
        // The exact pre-redesign wiring of `stabilization_batch`.
        let seed = 42 + run as u64;
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5EED_0002);
        let train = PulseTrain::new(Scenario::Zero, pulses, separation);
        let schedule = train.generate(20, &mut rng);
        let candidates = forwarder_candidates(grid.graph());
        let placed = place_condition1(grid.graph(), &candidates, 3, &mut rng, 10_000)
            .expect("Condition-1 placement feasible");
        let faults = FaultPlan::none().with_nodes(&placed, NodeFault::Byzantine);
        let cfg = SimConfig {
            timing: scenario_timing(Scenario::Zero),
            faults,
            init: InitState::Arbitrary,
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &schedule, &cfg, seed);
        let views = assign_pulses(&grid, &trace, &schedule, DelayRange::paper().mid());

        assert_eq!(rv.faulty, trace.faulty, "run {run}: faulty set");
        assert_eq!(rv.faulty.len(), 3, "run {run}: three Byzantine nodes");
        assert_eq!(rv.views.len(), views.len(), "run {run}: pulse count");
        for (k, (got, want)) in rv.views.iter().zip(&views).enumerate() {
            assert_eq!(got.t, want.t, "run {run} pulse {k}: triggering times");
            assert_eq!(got.cause, want.cause, "run {run} pulse {k}: causes");
        }
    }
}

#[test]
fn scratch_backed_fold_equals_materialize_for_multi_pulse_batches() {
    use hexclock::analysis::stabilization::{stabilization_pulse, Criterion};

    // Multi-pulse + Arbitrary init + Byzantine faults exercises every
    // scratch-reuse path at once: trace buffers and view matrices
    // (assign_pulses_into) on the materialized side, and the per-worker
    // SimScratch and its binner on the observed fold.
    let base = RunSpec::grid(10, 6)
        .runs(12)
        .scenario(Scenario::Zero)
        .faults(FaultRegime::Byzantine(1))
        .pulses(4)
        .init(InitState::Arbitrary);
    let grid = base.hex_grid();
    let criteria: Vec<Criterion> = (1..=2u8)
        .map(|c| Criterion::class(c, D_PLUS, base.length, |_| D_PLUS))
        .collect();

    // Reference: materialized batch + sequential per-run loop.
    let runs = base.clone().threads(1).run_batch();
    let expected: Vec<Vec<Option<usize>>> = criteria
        .iter()
        .map(|criterion| {
            runs.iter()
                .map(|rv| {
                    let mask = exclusion_mask(&grid, &rv.faulty, 0);
                    stabilization_pulse(&grid, &rv.views, &mask, criterion)
                })
                .collect()
        })
        .collect();

    for threads in [1usize, 2, 3, 8, 64] {
        let streamed = base
            .clone()
            .threads(threads)
            .fold_observed(&ObservedStabilizationReducer::new(&grid, &criteria, 0));
        assert_eq!(streamed, expected, "threads = {threads}");
        // The materialized batch is also thread-count independent.
        assert_eq!(
            base.clone().threads(threads).run_batch(),
            runs,
            "threads = {threads}: run_batch"
        );
    }
}

#[test]
fn run_batch_fold_primitive_matches_sequential_fold() {
    use hexclock::sim::batch::Reducer;

    struct Pairs;
    impl Reducer<u64> for Pairs {
        type Acc = Vec<(usize, u64)>;
        fn empty(&self) -> Self::Acc {
            Vec::new()
        }
        fn fold_ref(&self, acc: &mut Self::Acc, run: usize, item: &u64) {
            acc.push((run, *item));
        }
        fn merge(&self, mut left: Self::Acc, right: Self::Acc) -> Self::Acc {
            left.extend(right);
            left
        }
    }

    let job = |run: usize| (run as u64).wrapping_mul(0x9E37_79B9);
    let materialized: Vec<(usize, u64)> = run_batch(97, 4, job).into_iter().enumerate().collect();
    for threads in [1usize, 2, 5, 16] {
        assert_eq!(
            run_batch_fold(97, threads, job, &Pairs),
            materialized,
            "threads = {threads}"
        );
    }
}

#[test]
fn hex_bench_drivers_ride_on_the_same_spec() {
    // The thin drivers in hex-bench consume the same RunSpec: a Table-1
    // style row renders from a streaming reduction.
    let spec = RunSpec::small().scenario(Scenario::Zero);
    let skews = hex_bench::batch_skews(&spec, 0);
    let row = hex_bench::table_row(Scenario::Zero.label(), &skews);
    assert!(row.contains("(i) 0"));
    assert_eq!(skews.runs(), spec.runs);
}
