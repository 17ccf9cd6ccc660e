//! Appendix A — single-fault skew degradation, position sweep.
//!
//! The appendix argues that one Byzantine node degrades the Section-3 skew
//! bounds by at most `O(d+)` *no matter where it sits or how it behaves*.
//! This driver sweeps the fault position over layers and columns, measures
//! the worst observed intra-layer skew (with `h ∈ {0, 1}` exclusion), and
//! compares it against the executable Appendix-A bound
//! (`hex_theory::appendix_a::single_fault_intra_bound`). It also builds a
//! fault-avoiding left zig-zag path (`hex_analysis::causal`) to every
//! probed correct node of the first runs and checks it: construction
//! success, causality of every link, the relaxed Lemma 2, and detour
//! statistics.
//!
//! ```text
//! cargo run --release -p hex-bench --bin appendix_a
//! ```

use hex_analysis::causal::{
    check_causality, check_lemma2, left_zigzag_with_shift, AvoidStats, FaultSet,
};
use hex_analysis::skew::{exclusion_mask, per_layer_max_intra};
use hex_bench::{FaultRegime, RunSpec};
use hex_clock::Scenario;
use hex_core::{DelayRange, FaultPlan, NodeFault, D_MINUS, D_PLUS};
use hex_des::{Duration, SimRng};
use hex_theory::appendix_a::{single_fault_intra_bound, LEMMA2_DETOUR_HOPS, SINGLE_FAULT_HOPS};
use hex_theory::Theorem1;

fn main() {
    let base = RunSpec::from_env();
    println!(
        "Appendix A sweep: {}x{} grid, {} runs per fault position, seed {}",
        base.length, base.width, base.runs, base.seed
    );
    println!(
        "degradation constants: intra {SINGLE_FAULT_HOPS} d+ per fault, \
         Lemma-2 slack {LEMMA2_DETOUR_HOPS} d+ per detour\n"
    );

    for scenario in [Scenario::Zero, Scenario::Ramp] {
        sweep(&base, scenario);
    }
}

fn sweep(base: &RunSpec, scenario: Scenario) {
    let grid = base.hex_grid();
    // Conservative Δ₀ estimate: worst skew potential over 64 draws.
    let mut rng = SimRng::seed_from_u64(base.seed ^ 0xA11D);
    let mut pot = Duration::ZERO;
    for _ in 0..64 {
        let offs = scenario.offsets(base.width, D_MINUS, D_PLUS, &mut rng);
        pot = pot.max(Scenario::skew_potential(&offs, D_MINUS));
    }
    let thm = Theorem1 {
        width: base.width,
        length: base.length,
        delays: DelayRange::paper(),
        potential0: pot,
    };

    let fault_layers: Vec<u32> = [1u32, 2, 4, 8, 16, 32, base.length]
        .into_iter()
        .filter(|&l| l >= 1 && l <= base.length)
        .collect();
    let fault_cols: Vec<u32> = (0..base.width)
        .step_by((base.width as usize / 5).max(1))
        .collect();

    println!(
        "scenario {} (Δ0 ≤ {:.3} ns): worst intra-layer skew by fault layer",
        scenario.label(),
        pot.ns()
    );
    println!(
        "{:>6} | {:>12} {:>12} {:>7} | {:>12} | {:>10}",
        "f-layer", "worst h=0", "bound", "ratio", "worst h=1", "detours"
    );

    let mut lemma2_checked = 0usize;
    let mut causality_checked = 0usize;
    let mut stats_total = AvoidStats::default();

    for &fl in &fault_layers {
        let mut worst_h0 = Duration::ZERO;
        let mut worst_h1 = Duration::ZERO;
        let mut worst_bound = Duration::ZERO;
        let mut stats_here = AvoidStats::default();
        for &fc in &fault_cols {
            let victim = grid.node(fl, fc as i64);
            let spec = base
                .clone()
                .scenario(scenario)
                .faults(FaultRegime::Plan(
                    FaultPlan::none().with_node(victim, NodeFault::Byzantine),
                ))
                .runs(base.runs.min(40));
            for (run, rv) in spec.run_batch().into_iter().enumerate() {
                let view = rv.view();
                let fs = FaultSet::new(&grid, &rv.faulty);

                for (h, worst) in [(0usize, &mut worst_h0), (1, &mut worst_h1)] {
                    let mask = exclusion_mask(&grid, &rv.faulty, h);
                    for (ix, s) in per_layer_max_intra(&grid, view, &mask).iter().enumerate() {
                        let layer = ix as u32 + 1;
                        if let Some(s) = s {
                            *worst = (*worst).max(*s);
                            if h == 0 {
                                let b = single_fault_intra_bound(&thm, layer);
                                worst_bound = worst_bound.max(b);
                                assert!(
                                    *s <= b,
                                    "{} fault ({fl},{fc}) run {run}: layer {layer} skew \
                                     {s:?} > Appendix-A bound {b:?}",
                                    scenario.label()
                                );
                            }
                        }
                    }
                }

                // Causal machinery: probe the top layer plus the layer just
                // above the fault (where detours actually occur — a zig-zag
                // from far above rarely meets a single fault).
                if run < 8 {
                    for probe in [base.length, (fl + 1).min(base.length)] {
                        for col in 0..base.width as i64 {
                            if fs.contains(&grid, probe, col) {
                                continue;
                            }
                            let (path, shift) =
                                left_zigzag_with_shift(&grid, view, &fs, probe, col)
                                    .expect("fault-avoiding path exists");
                            causality_checked += check_causality(view, &path, D_MINUS)
                                .unwrap_or_else(|k| panic!("non-causal link {k}"));
                            lemma2_checked += check_lemma2(
                                &grid,
                                view,
                                &fs,
                                &path,
                                thm.delays,
                                LEMMA2_DETOUR_HOPS,
                            )
                            .unwrap_or_else(|k| panic!("relaxed Lemma 2 violated at prefix {k}"));
                            stats_here.record(&path, shift);
                        }
                        if probe == base.length && fl + 1 >= base.length {
                            break; // same layer, don't double count
                        }
                    }
                }
            }
        }
        let ratio = if worst_bound > Duration::ZERO {
            worst_h0.ns() / worst_bound.ns()
        } else {
            0.0
        };
        println!(
            "{:>6} | {:>12.3} {:>12.3} {:>7.3} | {:>12.3} | {:>10}",
            fl,
            worst_h0.ns(),
            worst_bound.ns(),
            ratio,
            worst_h1.ns(),
            stats_here.detour_links
        );
        stats_total.merge(&stats_here);
    }

    println!(
        "checks: {causality_checked} causal links, {lemma2_checked} relaxed-Lemma-2 prefixes, \
         0 violations"
    );
    println!(
        "paths: {} total, {} with detours, {} detour links, shifts 1/2/3 = {}/{}/{}, \
         {} triangular / {} layer-0\n",
        stats_total.paths,
        stats_total.with_detours,
        stats_total.detour_links,
        stats_total.shifts[0],
        stats_total.shifts[1],
        stats_total.shifts[2],
        stats_total.triangular,
        stats_total.layer0
    );
}
