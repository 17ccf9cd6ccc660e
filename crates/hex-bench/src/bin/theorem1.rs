//! Theorem 1 cross-check — measured worst skews vs. the analytic bounds,
//! per scenario.
//!
//! For each scenario this prints the measured max intra-layer skew (over
//! `HEX_RUNS` runs) next to the Theorem-1 bound for the scenario's skew
//! potential, and verifies measured ≤ bound. It also reports the per-layer
//! split (transient layers ℓ ≤ 2W−3 vs steady layers) for the ramp
//! scenario, where Lemma 3's potential decay is the interesting part.

use hex_analysis::skew::{exclusion_mask, per_layer_max_intra};
use hex_analysis::stats::Summary;
use hex_bench::{batch_skews, RunSpec};
use hex_clock::Scenario;
use hex_core::{D_MINUS, D_PLUS};
use hex_des::Duration;
use hex_des::SimRng;
use hex_theory::bounds::Theorem1;

fn main() {
    let base = RunSpec::from_env();
    let delays = hex_core::DelayRange::paper();
    println!(
        "Theorem 1 cross-check: {} runs, {}x{} grid, eps <= d+/7: {}",
        base.runs,
        base.length,
        base.width,
        delays.satisfies_theorem1_constraint()
    );
    println!(
        "{:<24} {:>12} {:>12} {:>8}",
        "scenario", "measured max", "bound", "ratio"
    );
    for scenario in Scenario::ALL {
        // Worst-case potential of the scenario (max over a sampling of
        // offset draws; exact for deterministic scenarios).
        let mut rng = SimRng::seed_from_u64(base.seed);
        let mut pot = Duration::ZERO;
        for _ in 0..32 {
            let offs = scenario.offsets(base.width, D_MINUS, D_PLUS, &mut rng);
            pot = pot.max(Scenario::skew_potential(&offs, D_MINUS));
        }
        let thm = Theorem1 {
            width: base.width,
            length: base.length,
            delays,
            potential0: pot,
        };
        let spec = base.clone().scenario(scenario);
        let skews = batch_skews(&spec, 0);
        let measured = Summary::from_durations(&skews.cumulated.intra).unwrap();
        let bound = thm.intra_max();
        let ok = measured.max <= bound.ns() + 1e-9;
        println!(
            "{:<24} {:>12.3} {:>12.3} {:>8.2} {}",
            scenario.label(),
            measured.max,
            bound.ns(),
            measured.max / bound.ns(),
            if ok { "OK" } else { "VIOLATED" }
        );
        assert!(ok, "Theorem 1 violated for {}", scenario.label());

        if scenario == Scenario::Ramp {
            // Per-layer detail: the transient (ℓ < 2W−2) vs steady regime,
            // from the materialized views of the batch.
            let grid = spec.hex_grid();
            let views = spec.run_batch();
            let mask = exclusion_mask(&grid, &[], 0);
            let mut transient_max = Duration::ZERO;
            let mut steady_max = Duration::ZERO;
            for rv in &views {
                for (ix, s) in per_layer_max_intra(&grid, rv.view(), &mask)
                    .into_iter()
                    .enumerate()
                {
                    let layer = ix as u32 + 1;
                    if let Some(s) = s {
                        if layer <= 2 * base.width - 3 {
                            transient_max = transient_max.max(s);
                        } else {
                            steady_max = steady_max.max(s);
                        }
                    }
                }
            }
            println!(
                "    ramp detail: transient layers max {:.3} ns (bound {:.3}), steady layers max {:.3} ns (bound {:.3})",
                transient_max.ns(),
                thm.intra(1).ns().max(thm.intra(2 * base.width - 3).ns()),
                steady_max.ns(),
                thm.steady_intra().ns()
            );
            assert!(steady_max <= thm.steady_intra());
        }
    }
    println!("all scenarios within Theorem-1 bounds");
}
