//! Appendix-A cross checks: the single-fault degradation bounds hold on
//! simulated executions, and the fault-avoiding causal machinery succeeds
//! for every correct node under Condition 1.

use hexclock::analysis::causal::{
    check_causality, check_lemma2, faults_in_triangle, left_zigzag_with_shift, FaultSet, ZigZag,
    ZigZagEnd, ZigZagLink,
};
use hexclock::analysis::skew::{exclusion_mask, per_layer_max_intra};
use hexclock::core::fault::{forwarder_candidates, place_condition1};
use hexclock::prelude::*;
use hexclock::theory::appendix_a::{
    faulty_inter_envelope, faulty_intra_bound, single_fault_intra_bound, LEMMA2_DETOUR_HOPS,
};
use hexclock::theory::Theorem1;

const L: u32 = 16;
const W: u32 = 10;

fn theorem1_for(scenario: Scenario, seed: u64) -> Theorem1 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut pot = Duration::ZERO;
    for _ in 0..32 {
        let offs = scenario.offsets(W, D_MINUS, D_PLUS, &mut rng);
        pot = pot.max(Scenario::skew_potential(&offs, D_MINUS));
    }
    Theorem1 {
        width: W,
        length: L,
        delays: DelayRange::paper(),
        potential0: pot,
    }
}

fn faulty_run(
    scenario: Scenario,
    f: usize,
    seed: u64,
) -> (HexGrid, PulseView, Vec<hexclock::core::NodeId>) {
    let grid = HexGrid::new(L, W);
    let mut rng = SimRng::seed_from_u64(seed);
    let offsets = scenario.single_pulse_times(W, D_MINUS, D_PLUS, &mut rng);
    let sched = Schedule::single_pulse(offsets);
    let candidates = forwarder_candidates(grid.graph());
    let placed = place_condition1(grid.graph(), &candidates, f, &mut rng, 5_000)
        .expect("Condition-1 placement feasible");
    let cfg = SimConfig {
        faults: FaultPlan::none().with_nodes(&placed, NodeFault::Byzantine),
        ..SimConfig::fault_free()
    };
    let trace = simulate(grid.graph(), &sched, &cfg, seed);
    let view = PulseView::from_single_pulse(&grid, &trace);
    (grid, view, placed)
}

#[test]
fn single_fault_intra_bound_holds() {
    for scenario in Scenario::ALL {
        let thm = theorem1_for(scenario, 99);
        for seed in 0..25u64 {
            let (grid, view, faulty) = faulty_run(scenario, 1, 7000 + seed);
            let mask = exclusion_mask(&grid, &faulty, 0);
            for (ix, s) in per_layer_max_intra(&grid, &view, &mask).iter().enumerate() {
                let layer = ix as u32 + 1;
                if let Some(s) = s {
                    let bound = single_fault_intra_bound(&thm, layer);
                    assert!(
                        *s <= bound,
                        "{} seed {seed}: layer {layer} skew {s:?} > {bound:?}",
                        scenario.label()
                    );
                }
            }
        }
    }
}

#[test]
fn multi_fault_bound_holds_for_separated_faults() {
    let thm = theorem1_for(Scenario::RandomDPlus, 77);
    for f in 2..=3usize {
        for seed in 0..15u64 {
            let (grid, view, faulty) = faulty_run(Scenario::RandomDPlus, f, 8000 + seed);
            let mask = exclusion_mask(&grid, &faulty, 0);
            for (ix, s) in per_layer_max_intra(&grid, &view, &mask).iter().enumerate() {
                let layer = ix as u32 + 1;
                if let Some(s) = s {
                    let bound = faulty_intra_bound(&thm, layer, f);
                    assert!(
                        *s <= bound,
                        "f={f} seed {seed} layer {layer}: {s:?} > {bound:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn inter_layer_envelope_with_fault_holds() {
    // Check measured inter-layer offsets against the f-widened envelope,
    // using the per-layer measured intra skew of the layer below as
    // σ_below (which the envelope is stated in terms of).
    let thm = theorem1_for(Scenario::Zero, 55);
    for seed in 0..20u64 {
        let (grid, view, faulty) = faulty_run(Scenario::Zero, 1, 9000 + seed);
        let mask = exclusion_mask(&grid, &faulty, 0);
        for layer in 1..=L {
            let sigma_below = single_fault_intra_bound(&thm, layer.max(1));
            let (lo, hi) = faulty_inter_envelope(sigma_below, DelayRange::paper(), 1);
            for col in 0..W as i64 {
                let n = grid.node(layer, col);
                if mask[n as usize] {
                    continue;
                }
                let Some(t) = view.time(layer, col) else {
                    continue;
                };
                for lower in [col, col + 1] {
                    let m = grid.node(layer - 1, lower);
                    if mask[m as usize] {
                        continue;
                    }
                    if let Some(tl) = view.time(layer - 1, lower) {
                        let d = t - tl;
                        assert!(
                            d >= lo && d <= hi,
                            "seed {seed} ({layer},{col}): inter {d:?} outside [{lo:?},{hi:?}]"
                        );
                    }
                }
            }
        }
    }
}

/// Appends a path's nodes, links and termination to a fingerprint.
fn push_path(out: &mut Vec<u8>, path: &ZigZag) {
    for &(layer, col) in &path.nodes {
        out.extend(layer.to_le_bytes());
        out.extend(col.to_le_bytes());
    }
    out.extend(path.links.iter().map(|link| match link {
        ZigZagLink::Rightward => b'R',
        ZigZagLink::UpLeft => b'U',
        ZigZagLink::UpRight => b'u',
        ZigZagLink::Leftward => b'L',
    }));
    out.push(match path.end {
        ZigZagEnd::Triangular => b'T',
        ZigZagEnd::NonTriangular => b'N',
    });
}

/// Every correct node of a one-Byzantine run has a fault-avoiding causal
/// path on which the relaxed Lemma 2 holds, and the paths are pinned to
/// committed values: each row holds `fnv1a_64` over every path's nodes,
/// links, termination, target shift and relaxed-Lemma-2 prefix count, the
/// scenario's detour links and its relaxed-Lemma-2 total. A deliberate
/// change of the construction is re-pinned by hand from the observed rows
/// the failure message prints.
#[test]
fn avoiding_paths_exist_for_all_correct_destinations() {
    use hexclock::sim::canon::fnv1a_64;

    #[rustfmt::skip]
    const PINS: &[(&str, u64, usize, usize)] = &[
        // (scenario, paths hash, detour links, relaxed-Lemma-2 prefixes checked)
        ("i",  0xa40b0950a61c0936, 14, 1924),
        ("iv", 0x8f6a1f52d8432b95, 13, 1966),
    ];

    let mut drifted = Vec::new();
    for (scenario, &(slug, hash, detours, pinned)) in
        [Scenario::Zero, Scenario::Ramp].into_iter().zip(PINS)
    {
        assert_eq!(slug, scenario.slug());
        let mut bytes = Vec::new();
        let (mut detours_here, mut checked) = (0usize, 0usize);
        for seed in 0..12u64 {
            let (grid, view, faulty) = faulty_run(scenario, 1, 6000 + seed);
            let fs = FaultSet::new(&grid, &faulty);
            for layer in 1..=L {
                for col in 0..W as i64 {
                    if fs.contains(&grid, layer, col) {
                        continue;
                    }
                    let (path, shift) = left_zigzag_with_shift(&grid, &view, &fs, layer, col)
                        .unwrap_or_else(|| {
                            panic!(
                                "{} seed {seed}: no path to ({layer},{col})",
                                scenario.label()
                            )
                        });
                    for &(l, c) in &path.nodes {
                        assert!(!fs.contains(&grid, l, c), "path visits fault");
                    }
                    check_causality(&view, &path, D_MINUS)
                        .unwrap_or_else(|k| panic!("non-causal link {k}"));
                    let n = check_lemma2(
                        &grid,
                        &view,
                        &fs,
                        &path,
                        DelayRange::paper(),
                        LEMMA2_DETOUR_HOPS,
                    )
                    .unwrap_or_else(|k| {
                        panic!(
                            "{} seed {seed} ({layer},{col}): relaxed Lemma 2 violated at {k}",
                            scenario.label()
                        )
                    });
                    push_path(&mut bytes, &path);
                    bytes.extend(shift.to_le_bytes());
                    bytes.extend((n as u64).to_le_bytes());
                    detours_here += path.detours();
                    checked += n;
                }
            }
        }
        let observed = (fnv1a_64(&bytes), detours_here, checked);
        if observed != (hash, detours, pinned) {
            drifted.push(format!(
                "(\"{slug}\", {:#018x}, {}, {}),",
                observed.0, observed.1, observed.2
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "fault-avoiding paths drifted from the golden pins; observed rows:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn triangle_fault_counter_geometry() {
    let grid = HexGrid::new(8, 10);
    // Fault at (4, 3): triangles rooted at (2, 5) reaching layer ≥ 4 whose
    // span covers column 3 must count it.
    let fs = FaultSet::new(&grid, &[grid.node(4, 3)]);
    // At layer 4 the triangle rooted at (2,5) spans cols 3..=5 → hit.
    assert_eq!(faults_in_triangle(&grid, &fs, 2, 5, 4), 1);
    assert_eq!(faults_in_triangle(&grid, &fs, 2, 5, 8), 1);
    // Top layer below the fault → no hit.
    assert_eq!(faults_in_triangle(&grid, &fs, 2, 5, 3), 0);
    // Triangle strictly to the right → no hit.
    assert_eq!(faults_in_triangle(&grid, &fs, 2, 9, 5), 0);
    // Empty fault set short-circuits.
    let empty = FaultSet::new(&grid, &[]);
    assert_eq!(faults_in_triangle(&grid, &empty, 0, 5, 8), 0);
}
