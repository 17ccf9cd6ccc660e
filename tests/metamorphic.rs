//! Metamorphic tests: transformations of a simulation's input whose effect
//! on the output is known exactly. These are the executable versions of
//! the symmetry arguments the paper's proofs lean on ("we will exploit the
//! translation and mirror symmetry of the grid w.r.t. column indices",
//! footnote 6).
//!
//! The skew-distribution tests at the bottom run every property against
//! **both extraction paths** — `collect_skews` over each run's
//! materialized `PulseView` and the streaming observer fold — so a
//! symmetry violation in either one (or a divergence between them) fails
//! the same wall.

use hexclock::prelude::*;

const L: u32 = 10;
const W: u32 = 8;

fn fire_matrix(grid: &HexGrid, offsets: Vec<Time>, cfg: &SimConfig, seed: u64) -> Vec<Vec<Time>> {
    let trace = simulate(grid.graph(), &Schedule::single_pulse(offsets), cfg, seed);
    (0..=L)
        .map(|layer| {
            (0..W as i64)
                .map(|col| {
                    trace
                        .unique_fire(grid.node(layer, col))
                        .expect("clean fault-free pulse")
                })
                .collect()
        })
        .collect()
}

#[test]
fn time_shift_invariance() {
    // Shifting every source offset by Δ shifts every firing time by exactly
    // Δ (same seed ⇒ same delay and timer draws: the event order, and hence
    // the RNG consumption order, is invariant under a global shift).
    let grid = HexGrid::new(L, W);
    let cfg = SimConfig::fault_free();
    let mut rng = SimRng::seed_from_u64(3);
    let offsets: Vec<Time> = Scenario::RandomDPlus.single_pulse_times(W, D_MINUS, D_PLUS, &mut rng);
    let delta = Duration::from_ns(123.456);
    let shifted: Vec<Time> = offsets.iter().map(|&t| t + delta).collect();
    for seed in 0..5u64 {
        let base = fire_matrix(&grid, offsets.clone(), &cfg, seed);
        let moved = fire_matrix(&grid, shifted.clone(), &cfg, seed);
        for layer in 0..=L as usize {
            for col in 0..W as usize {
                assert_eq!(
                    moved[layer][col] - base[layer][col],
                    delta,
                    "seed {seed} node ({layer},{col})"
                );
            }
        }
    }
}

#[test]
fn column_rotation_equivariance_under_fixed_delays() {
    // With deterministic (per-link-identical) delays, rotating the source
    // offsets by r columns rotates the whole triggering-time matrix by r:
    // the grid's translation symmetry, executable.
    let grid = HexGrid::new(L, W);
    let cfg = SimConfig {
        delays: DelayModel::Fixed(D_PLUS),
        ..SimConfig::fault_free()
    };
    let mut rng = SimRng::seed_from_u64(11);
    let offsets: Vec<Time> =
        Scenario::RandomDMinus.single_pulse_times(W, D_MINUS, D_PLUS, &mut rng);
    let base = fire_matrix(&grid, offsets.clone(), &cfg, 0);
    for r in 1..W as usize {
        let rotated: Vec<Time> = (0..W as usize)
            .map(|i| offsets[(i + r) % W as usize])
            .collect();
        let rot = fire_matrix(&grid, rotated, &cfg, 0);
        for layer in 0..=L as usize {
            for col in 0..W as usize {
                assert_eq!(
                    rot[layer][col],
                    base[layer][(col + r) % W as usize],
                    "rotation {r} node ({layer},{col})"
                );
            }
        }
    }
}

#[test]
fn mirror_symmetry_under_fixed_delays() {
    // The mirror map of the cylindric grid is ψ(ℓ, i) = (ℓ, a − ℓ − i): it
    // swaps left↔right and lower-left↔lower-right in-neighbors, so under
    // per-link-identical delays, mirroring the source offsets mirrors the
    // triggering-time matrix. This is footnote 6's "mirror symmetry",
    // which lets the paper prove only the i < i′ cases of its lemmas.
    let grid = HexGrid::new(L, W);
    let cfg = SimConfig {
        delays: DelayModel::Fixed(D_MINUS),
        ..SimConfig::fault_free()
    };
    let mut rng = SimRng::seed_from_u64(17);
    let offsets: Vec<Time> = Scenario::RandomDPlus.single_pulse_times(W, D_MINUS, D_PLUS, &mut rng);
    let a = 0i64; // any fixed anchor works; the map is mod W
    let mirrored: Vec<Time> = (0..W as i64)
        .map(|i| offsets[(a - i).rem_euclid(W as i64) as usize])
        .collect();
    let base = fire_matrix(&grid, offsets, &cfg, 0);
    let mir = fire_matrix(&grid, mirrored, &cfg, 0);
    for layer in 0..=L as i64 {
        for col in 0..W as i64 {
            let m = (a - layer - col).rem_euclid(W as i64);
            assert_eq!(
                mir[layer as usize][m as usize], base[layer as usize][col as usize],
                "mirror node ({layer},{col}) -> ({layer},{m})"
            );
        }
    }
}

#[test]
fn batch_results_independent_of_thread_count() {
    // The crossbeam batch runner must be a pure function of (runs, seeds),
    // not of the worker count.
    let grid = HexGrid::new(6, 6);
    let job = |run: usize| {
        let seed = 100 + run as u64;
        let trace = simulate(
            grid.graph(),
            &Schedule::single_pulse(vec![Time::ZERO; 6]),
            &SimConfig::fault_free(),
            seed,
        );
        trace.fires
    };
    let one = run_batch(12, 1, job);
    let four = run_batch(12, 4, job);
    assert_eq!(one, four);
}

/// The observed fold's skew samples for a single-run spec, asserted
/// byte-equal to `collect_skews` over the run's materialized view before
/// any metamorphic use, so every property below implicitly re-pins path
/// equivalence on its transformed inputs too.
fn both_path_skews(spec: &RunSpec, h: usize) -> BatchSkews {
    let grid = spec.hex_grid();
    let observed = spec.fold_observed(&ObservedSkewReducer::new(&grid, h));
    let mut materialized = SkewSamples::default();
    for rv in spec.run_batch() {
        let mask = exclusion_mask(&grid, &rv.faulty, h);
        materialized.extend(&collect_skews(&grid, rv.view(), &mask));
    }
    assert_eq!(
        observed.cumulated.intra, materialized.intra,
        "extraction paths diverged (intra)"
    );
    assert_eq!(
        observed.cumulated.inter, materialized.inter,
        "extraction paths diverged (inter)"
    );
    observed
}

fn sorted(samples: &[Duration]) -> Vec<Duration> {
    let mut s = samples.to_vec();
    s.sort_unstable();
    s
}

/// Multiset inclusion of sorted duration samples (two-pointer sweep).
fn is_submultiset(sub: &[Duration], sup: &[Duration]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < sub.len() && j < sup.len() {
        if sub[i] == sup[j] {
            i += 1;
        } else if sub[i] < sup[j] {
            return false;
        }
        j += 1;
    }
    i == sub.len()
}

#[test]
fn column_rotation_leaves_skew_distribution_invariant() {
    // With per-link-identical delays, rotating the source offsets by r
    // columns rotates the triggering-time matrix (proved above), so the
    // *multisets* of intra- and inter-layer skew samples are invariant —
    // on both extraction paths.
    let mut rng = SimRng::seed_from_u64(29);
    let offsets: Vec<Time> = Scenario::RandomDPlus.single_pulse_times(W, D_MINUS, D_PLUS, &mut rng);
    let spec_for = |offs: Vec<Time>| {
        RunSpec::grid(L, W)
            .runs(1)
            .threads(1)
            .delays(DelayModel::Fixed(D_MINUS))
            .timing(TimingPolicy::Generous)
            .schedule(Schedule::single_pulse(offs))
    };
    let base = both_path_skews(&spec_for(offsets.clone()), 0);
    for r in [1usize, 3, W as usize - 1] {
        let rotated: Vec<Time> = (0..W as usize)
            .map(|i| offsets[(i + r) % W as usize])
            .collect();
        let rot = both_path_skews(&spec_for(rotated), 0);
        assert_eq!(
            sorted(&rot.cumulated.intra),
            sorted(&base.cumulated.intra),
            "rotation {r}: intra distribution changed"
        );
        assert_eq!(
            sorted(&rot.cumulated.inter),
            sorted(&base.cumulated.inter),
            "rotation {r}: inter distribution changed"
        );
    }
}

#[test]
fn mirror_relabeling_leaves_skew_distribution_invariant() {
    // The node relabeling ψ(ℓ, i) = (ℓ, a − ℓ − i) (footnote 6's mirror
    // symmetry) maps neighbor pairs to neighbor pairs, so mirroring the
    // source offsets leaves both skew distributions invariant — the
    // relabeled grid measures the same population.
    let mut rng = SimRng::seed_from_u64(31);
    let offsets: Vec<Time> =
        Scenario::RandomDMinus.single_pulse_times(W, D_MINUS, D_PLUS, &mut rng);
    let mirrored: Vec<Time> = (0..W as i64)
        .map(|i| offsets[(-i).rem_euclid(W as i64) as usize])
        .collect();
    let spec_for = |offs: Vec<Time>| {
        RunSpec::grid(L, W)
            .runs(1)
            .threads(1)
            .delays(DelayModel::Fixed(D_PLUS))
            .timing(TimingPolicy::Generous)
            .schedule(Schedule::single_pulse(offs))
    };
    let base = both_path_skews(&spec_for(offsets), 0);
    let mir = both_path_skews(&spec_for(mirrored), 0);
    assert_eq!(sorted(&mir.cumulated.intra), sorted(&base.cumulated.intra));
    assert_eq!(sorted(&mir.cumulated.inter), sorted(&base.cumulated.inter));
}

#[test]
fn shrinking_exclusion_radius_only_adds_samples() {
    // The h-hop fault-locality filter is monotone: every pair surviving
    // the h = 1 mask also survives h = 0, so shrinking h can only *add*
    // samples — as multisets, samples(h=1) ⊆ samples(h=0). Checked on
    // faulty batches through both extraction paths.
    for seed in [3u64, 17] {
        let spec = RunSpec::grid(8, 6)
            .runs(4)
            .seed(seed)
            .scenario(Scenario::RandomDPlus)
            .faults(FaultRegime::Byzantine(2));
        let h0 = both_path_skews(&spec, 0);
        let h1 = both_path_skews(&spec, 1);
        assert!(
            h1.cumulated.intra.len() < h0.cumulated.intra.len(),
            "seed {seed}"
        );
        assert!(
            is_submultiset(&sorted(&h1.cumulated.intra), &sorted(&h0.cumulated.intra)),
            "seed {seed}: h=1 intra samples not a sub-multiset of h=0"
        );
        assert!(
            is_submultiset(&sorted(&h1.cumulated.inter), &sorted(&h0.cumulated.inter)),
            "seed {seed}: h=1 inter samples not a sub-multiset of h=0"
        );
    }
}

#[test]
fn pulse_number_irrelevance() {
    // Within a well-separated multi-pulse run, every pulse is statistically
    // the same experiment: with *fixed* delays the per-pulse relative
    // triggering times are identical across pulses.
    let grid = HexGrid::new(L, W);
    let sep = Duration::from_ns(400.0);
    let mut rng = SimRng::seed_from_u64(23);
    let sched = PulseTrain::new(Scenario::Zero, 4, sep).generate(W, &mut rng);
    let cfg = SimConfig {
        delays: DelayModel::Fixed(D_PLUS),
        timing: Timing::paper_scenario_iii(),
        ..SimConfig::fault_free()
    };
    let trace = simulate(grid.graph(), &sched, &cfg, 23);
    let views = assign_pulses(&grid, &trace, &sched, DelayRange::paper().mid());
    assert_eq!(views.len(), 4);
    let base_origin = views[0].time(0, 0).unwrap();
    for (k, v) in views.iter().enumerate() {
        let origin = v.time(0, 0).unwrap();
        for layer in 0..=L {
            for col in 0..W as i64 {
                let rel = v.time(layer, col).unwrap() - origin;
                let base_rel = views[0].time(layer, col).unwrap() - base_origin;
                assert_eq!(rel, base_rel, "pulse {k} node ({layer},{col})");
            }
        }
    }
}
