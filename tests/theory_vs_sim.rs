//! Theory-versus-simulation cross checks: the executable versions of the
//! paper's lemmas hold on every simulated execution, and the adversarial
//! constructions behave as analyzed.

use hexclock::analysis::causal::{
    cause_counts, check_lemma1_prefixes, check_lemma2, left_zigzag, FaultSet, ZigZag, ZigZagEnd,
    ZigZagLink,
};
use hexclock::prelude::*;
use hexclock::theory::adversary::{byzantine_ramp, fault_free_worst_case, ByzProfile};
use hexclock::theory::bounds::Theorem1;

const L: u32 = 20;
const W: u32 = 12;

fn view_for(scenario: Scenario, seed: u64) -> (HexGrid, PulseView) {
    let grid = HexGrid::new(L, W);
    let mut rng = SimRng::seed_from_u64(seed);
    let offsets = scenario.single_pulse_times(W, D_MINUS, D_PLUS, &mut rng);
    let sched = Schedule::single_pulse(offsets);
    let trace = simulate(grid.graph(), &sched, &SimConfig::fault_free(), seed);
    (grid.clone(), PulseView::from_single_pulse(&grid, &trace))
}

/// Appends a path's nodes, links and termination to a fingerprint.
fn push_path(out: &mut Vec<u8>, zz: &ZigZag) {
    for &(layer, col) in &zz.nodes {
        out.extend(layer.to_le_bytes());
        out.extend(col.to_le_bytes());
    }
    out.extend(zz.links.iter().map(|link| match link {
        ZigZagLink::Rightward => b'R',
        ZigZagLink::UpLeft => b'U',
        ZigZagLink::UpRight => b'u',
        ZigZagLink::Leftward => b'L',
    }));
    out.push(match zz.end {
        ZigZagEnd::Triangular => b'T',
        ZigZagEnd::NonTriangular => b'N',
    });
}

/// Lemmas 1 and 2 hold on every zig-zag path of the sweep, and the paths
/// themselves are pinned to committed values: each row holds `fnv1a_64`
/// over every path's nodes, links and termination with its Lemma-1 result
/// and Lemma-2 prefix count, and the scenario's Lemma-2 total. In
/// scenarios (i)–(iii) every node of these runs is centrally triggered, so
/// every path is one up-left link and their rows agree. A deliberate
/// change of the construction is re-pinned by hand from the observed rows
/// the failure message prints.
#[test]
fn lemma1_and_lemma2_hold_across_scenarios() {
    use hexclock::sim::canon::fnv1a_64;

    #[rustfmt::skip]
    const PINS: &[(&str, u64, usize)] = &[
        // (scenario, paths hash, Lemma-2 prefixes checked)
        ("i",   0xb2ea5e01ea5df225, 288),
        ("ii",  0xb2ea5e01ea5df225, 288),
        ("iii", 0xb2ea5e01ea5df225, 288),
        ("iv",  0x9ad535fd64c3a036, 281),
    ];

    let (none, delays) = (FaultSet::default(), DelayRange::paper());
    let mut checked = 0usize;
    let mut drifted = Vec::new();
    for (scenario, &(slug, hash, pinned)) in Scenario::ALL.into_iter().zip(PINS) {
        assert_eq!(slug, scenario.slug());
        let mut bytes = Vec::new();
        let mut here = 0usize;
        for seed in 0..8u64 {
            let (grid, view) = view_for(scenario, 4000 + seed);
            for layer in [2, L / 2, L] {
                for col in 0..W as i64 {
                    let zz = left_zigzag(&grid, &view, &none, layer, col, col + 1)
                        .expect("fault-free paths exist");
                    let lemma1 = check_lemma1_prefixes(&zz);
                    assert!(
                        lemma1,
                        "{} seed {seed} ({layer},{col}): Lemma 1 prefix property",
                        scenario.label()
                    );
                    let n = check_lemma2(&grid, &view, &none, &zz, delays, 0).unwrap_or_else(|k| {
                        panic!(
                            "{} seed {seed} ({layer},{col}): Lemma 2 violated at prefix {k}",
                            scenario.label()
                        )
                    });
                    push_path(&mut bytes, &zz);
                    bytes.push(lemma1 as u8);
                    bytes.extend((n as u64).to_le_bytes());
                    here += n;
                }
            }
        }
        checked += here;
        let observed = (fnv1a_64(&bytes), here);
        if observed != (hash, pinned) {
            drifted.push(format!(
                "(\"{slug}\", {:#018x}, {}),",
                observed.0, observed.1
            ));
        }
    }
    assert!(checked > 50, "only {checked} triangular prefixes exercised");
    assert!(
        drifted.is_empty(),
        "zig-zag paths drifted from the golden pins; observed rows:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn zigzag_termination_kinds() {
    // Definition 2's two terminations: a centrally/right-triggered
    // destination ends the construction immediately as a length-1
    // triangular path (the first up-left link lands on the target column
    // with surplus 1); left-triggered chains walk leftward/downward and
    // either hit the target column deeper or reach layer 0
    // (non-triangular). Across scenarios and seeds: every path is valid,
    // triangular paths dominate, and multi-link walks occur.
    // Sample both a low layer (where ramped layer-0 skews make the wave
    // diagonal, so left-triggered destinations — and hence multi-link
    // walks — are common) and the top layer (where smoothing makes
    // central triggering dominate and length-1 triangular paths prevail).
    let layers = [2u32, L];
    let (mut triangular, mut non_triangular, mut multi_link) = (0usize, 0usize, 0usize);
    for scenario in [Scenario::Zero, Scenario::Ramp] {
        for seed in 0..6u64 {
            let (grid, view) = view_for(scenario, 4100 + seed);
            for layer in layers {
                for col in 0..W as i64 {
                    let zz = left_zigzag(&grid, &view, &FaultSet::default(), layer, col, col + 1)
                        .unwrap();
                    if zz.links.len() > 1 {
                        multi_link += 1;
                    }
                    match zz.end {
                        ZigZagEnd::NonTriangular => {
                            assert_eq!(zz.nodes[0].0, 0, "non-triangular must reach layer 0");
                            non_triangular += 1;
                        }
                        ZigZagEnd::Triangular => {
                            assert!(zz.surplus() > 0, "triangular needs positive surplus");
                            triangular += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(triangular > 0, "no triangular terminations at all");
    assert!(multi_link > 0, "no multi-link walks at all");
    // Layer-0 hits are rare by Definition 2; only require that the counter
    // arithmetic is consistent.
    assert_eq!(
        triangular + non_triangular,
        2 * 6 * layers.len() * W as usize
    );
}

#[test]
fn trigger_cause_mix_depends_on_scenario() {
    // Zero skew: central triggering dominates. Ramp: one-sided triggering
    // becomes prominent (the wave is diagonal).
    let (grid, zero_view) = view_for(Scenario::Zero, 4200);
    let (_, ramp_view) = view_for(Scenario::Ramp, 4201);
    let (zl, zc, zr) = cause_counts(&grid, &zero_view);
    let (rl, rc, rr) = cause_counts(&grid, &ramp_view);
    assert!(
        zc > zl && zc > zr,
        "zero scenario: central dominates ({zl},{zc},{zr})"
    );
    let zero_sided = (zl + zr) as f64 / (zl + zc + zr) as f64;
    let ramp_sided = (rl + rr) as f64 / (rl + rc + rr) as f64;
    assert!(
        ramp_sided > zero_sided,
        "ramp should shift towards side-triggering: {ramp_sided:.3} vs {zero_sided:.3}"
    );
}

#[test]
fn theorem1_bound_never_violated() {
    let delays = DelayRange::paper();
    for scenario in Scenario::ALL {
        // Conservative potential: worst over 32 draws.
        let mut rng = SimRng::seed_from_u64(5);
        let mut pot = Duration::ZERO;
        for _ in 0..32 {
            let offs = scenario.offsets(W, D_MINUS, D_PLUS, &mut rng);
            pot = pot.max(Scenario::skew_potential(&offs, D_MINUS));
        }
        let thm = Theorem1 {
            width: W,
            length: L,
            delays,
            potential0: pot,
        };
        for seed in 0..10u64 {
            let (grid, view) = view_for(scenario, 4300 + seed);
            let mask = exclusion_mask(&grid, &[], 0);
            for (ix, s) in hexclock::analysis::skew::per_layer_max_intra(&grid, &view, &mask)
                .into_iter()
                .enumerate()
            {
                let layer = ix as u32 + 1;
                let s = s.unwrap();
                assert!(
                    s <= thm.intra(layer),
                    "{} seed {seed}: layer {layer} skew {s:?} > bound {:?}",
                    scenario.label(),
                    thm.intra(layer)
                );
            }
        }
    }
}

#[test]
fn fig5_construction_approaches_bound() {
    let delays = DelayRange::paper();
    let c = fault_free_worst_case(L, W, 4, 9, delays);
    let cfg = SimConfig {
        delays: c.delays.clone(),
        faults: c.faults.clone(),
        ..SimConfig::fault_free()
    };
    let trace = simulate(c.grid.graph(), &c.schedule, &cfg, 1);
    let view = PulseView::from_single_pulse(&c.grid, &trace);
    let ((la, ca), (lb, cb)) = c.focus;
    let skew = view
        .time(la, ca)
        .unwrap()
        .abs_diff(view.time(lb, cb).unwrap());
    // Adversarial determinism beats the random-delay regime by a lot.
    let (grid, rand_view) = view_for(Scenario::Zero, 4400);
    let mask = exclusion_mask(&grid, &[], 0);
    let rand_max = Summary::from_durations(&collect_skews(&grid, &rand_view, &mask).intra)
        .unwrap()
        .max;
    assert!(
        skew.ns() > rand_max,
        "constructed {:.3} should beat random max {:.3}",
        skew.ns(),
        rand_max
    );
}

#[test]
fn fig17_construction_hits_multiple_d_plus() {
    let delays = DelayRange::paper();
    let mut best = Duration::ZERO;
    for profile in ByzProfile::sweep() {
        for col in 0..W {
            let c = byzantine_ramp(L, W, 5, col, profile, delays);
            let cfg = SimConfig {
                delays: c.delays.clone(),
                faults: c.faults.clone(),
                ..SimConfig::fault_free()
            };
            let trace = simulate(c.grid.graph(), &c.schedule, &cfg, 1);
            let view = PulseView::from_single_pulse(&c.grid, &trace);
            let ((la, ca), (lb, cb)) = c.focus;
            if let (Some(a), Some(b)) = (view.time(la, ca), view.time(lb, cb)) {
                best = best.max(a.abs_diff(b));
            }
        }
    }
    assert!(
        best >= D_PLUS * 3,
        "single-Byzantine construction only reached {best:?}"
    );
}

#[test]
fn condition2_separation_is_sufficient_but_not_wasteful() {
    // The derived S keeps pulses separated even under the Lemma-5 envelope;
    // and S is within the paper's "at most roughly 10x" of the 2·d+ floor.
    let c2 = Condition2::paper(Duration::from_ns(31.75));
    let d = c2.derive();
    let lemma5 = hexclock::theory::lemma5_pulse_skew(Duration::ZERO, 50, 5, DelayRange::paper());
    assert!(
        d.separation > lemma5,
        "S must exceed the pulse completion spread"
    );
    assert!(
        d.separation.ns() < 2.0 * D_PLUS.ns() * 25.0,
        "S should stay near the paper's ~10x estimate"
    );
}
