//! The dynamic twin of the `hex-lint` static rules: `debug_assert!`
//! invariants wired into the engine and its calendar event queue must
//! hold in every demanding regime.
//!
//! Tests compile with `debug_assertions` on, so simply *driving* the
//! engine through demanding regimes (Byzantine, mixed, arbitrary
//! initial states, multi-pulse, scratch reuse) exercises:
//!
//! * pop-time monotonicity in `CalendarQueue` (`pop` never hands back an
//!   instant behind `now`);
//! * the engine's epoch bounds (no `LinkTimeout`/`Wake` ever pops with
//!   an epoch newer than its target's counter).

use hex_sim::engine::SimScratch;
use hex_sim::{FaultRegime, InitState, RunSpec};

fn demanding_specs() -> Vec<(&'static str, RunSpec)> {
    vec![
        ("fault-free", RunSpec::grid(10, 8).runs(3).pulses(2)),
        (
            "byzantine-arbitrary-init",
            RunSpec::grid(8, 6)
                .runs(3)
                .pulses(3)
                .faults(FaultRegime::Byzantine(2))
                .init(InitState::Arbitrary)
                .seed(42),
        ),
        (
            "mixed-faults",
            RunSpec::grid(7, 6)
                .runs(3)
                .pulses(2)
                .faults(FaultRegime::Mixed {
                    byzantine: 1,
                    fail_silent: 1,
                })
                .seed(7),
        ),
    ]
}

/// Every demanding regime runs with debug assertions enabled, and the
/// parallel batch equals the run-by-run fresh-scratch output.
#[test]
fn invariants_hold_in_demanding_regimes() {
    // The point of this test is exercising the debug_assert! invariants;
    // under a release test profile only the output-equality half still
    // bites, so flag that loudly instead of failing.
    if !cfg!(debug_assertions) {
        eprintln!("note: debug assertions are off; only checking output equality");
    }
    for (name, spec) in demanding_specs() {
        let grid = spec.hex_grid();
        for (run, got) in spec.run_batch().into_iter().enumerate() {
            let fresh = spec.run_one(&grid, &mut SimScratch::new(), run);
            assert_eq!(got, fresh, "{name} run {run}");
        }
    }
}

/// Scratch reuse keeps the invariants intact: one dirty arena is driven
/// through every regime in turn, twice.
#[test]
fn invariants_hold_through_a_dirty_scratch() {
    let mut scratch = SimScratch::new();
    for pass in 0..2 {
        for (name, spec) in demanding_specs() {
            let grid = spec.hex_grid();
            for run in 0..spec.runs {
                let view = spec.run_one(&grid, &mut scratch, run);
                let fresh = spec.run_one(&grid, &mut SimScratch::new(), run);
                assert_eq!(view, fresh, "{name} run {run} pass {pass}");
            }
        }
    }
}
