//! Theorem 1 cross-check — measured worst skews vs. the analytic bounds,
//! per scenario.
//!
//! For each scenario this prints the measured max intra-layer skew (over
//! `HEX_RUNS` runs) next to the Theorem-1 bound for the scenario's skew
//! potential, and verifies measured ≤ bound. It also reports the per-layer
//! split (transient layers ℓ ≤ 2W−3 vs steady layers) for the ramp
//! scenario, where Lemma 3's potential decay is the interesting part. Each
//! scenario simulates one batch: the measured max and the split both come
//! from the per-layer maxima of its views.

use hex_analysis::skew::{exclusion_mask, per_layer_max_intra};
use hex_bench::RunSpec;
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
        // Per-layer maxima split into the transient (ℓ < 2W−2) and the
        // steady regime; their max is the measured max.
        let grid = spec.hex_grid();
        let mask = exclusion_mask(&grid, &[], 0);
        let mut transient_max = Duration::ZERO;
        let mut steady_max = Duration::ZERO;
        for rv in spec.run_batch() {
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
        let measured = transient_max.max(steady_max);
        let bound = thm.intra_max();
        let ok = measured <= bound;
        println!(
            "{:<24} {:>12.3} {:>12.3} {:>8.2} {}",
            scenario.label(),
            measured.ns(),
            bound.ns(),
            measured.ns() / bound.ns(),
            if ok { "OK" } else { "VIOLATED" }
        );
        assert!(ok, "Theorem 1 violated for {}", scenario.label());

        if scenario == Scenario::Ramp {
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
