//! Worst-case landscape: random delays vs. automated adversarial search
//! vs. hand construction vs. the Theorem-1 bound.
//!
//! Quantifies how much of the analytic worst case each method reaches —
//! the tightness story of Section 3.1 (Fig. 5 and the Lemma-4 remark).

use hex_bench::construction_spec;
use hex_core::{DelayRange, HexGrid};
use hex_des::{SimRng, Time};
use hex_theory::adversary::fault_free_worst_case;
use hex_theory::appendix_a::single_fault_intra_bound;
use hex_theory::bounds::Theorem1;
use hex_theory::search::{random_baseline, worst_case_search};

fn main() {
    let delays = DelayRange::paper();
    let (l, w) = (20u32, 20u32);
    let grid = HexGrid::new(l, w);

    // 1. Random delays (what Table 1 sees).
    let random = random_baseline(&grid, l, delays, 100, 7);

    // 2. Automated hill-climbing over deterministic delay tables (Δ0 = 0).
    let mut searched = hex_des::Duration::ZERO;
    for seed in 0..6u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let zeros = vec![Time::ZERO; w as usize];
        searched =
            searched.max(worst_case_search(&grid, l, None, zeros, delays, 400, &mut rng).skew);
    }

    // 3. The hand construction of Fig. 5 (barrier + skew potential).
    let c = fault_free_worst_case(l, w, 8, 16, delays);
    let rv = construction_spec(&c, 1).run_single();
    let ((la, ca), (lb, cb)) = c.focus;
    let constructed = rv
        .view()
        .time(la, ca)
        .unwrap()
        .abs_diff(rv.view().time(lb, cb).unwrap());

    // 4. Theorem-1 bounds.
    let steady = Theorem1 {
        width: w,
        length: l,
        delays,
        potential0: hex_des::Duration::ZERO,
    }
    .steady_intra();

    println!(
        "Worst-case neighbor skew landscape ({l}x{w} grid, [d-,d+] = [{:.3},{:.3}] ns):",
        delays.lo.ns(),
        delays.hi.ns()
    );
    println!(
        "  random delays, 100 runs (Δ0=0):        {:>7.3} ns",
        random.ns()
    );
    println!(
        "  adversarial search, 6x400 iters (Δ0=0): {:>7.3} ns",
        searched.ns()
    );
    println!(
        "  Theorem-1 steady bound (Δ0=0):          {:>7.3} ns",
        steady.ns()
    );
    println!(
        "  Fig.-5 construction (barrier + Δ0>0):   {:>7.3} ns",
        constructed.ns()
    );
    println!(
        "\nsearch reaches {:.0}% of the Δ0=0 bound; the barrier construction escapes it via skew potential (Lemma 4's Δ0 term).",
        100.0 * searched.ns() / steady.ns()
    );
    assert!(searched <= steady, "search must respect the bound");

    // 5. Joint delay + Byzantine-behavior search (Appendix A / Fig. 17
    //    regime: ramp offsets, one fault, climber tunes delays and the
    //    fault's per-link stuck-0/1 profile).
    let ramp: Vec<Time> = {
        let mut t = Time::ZERO;
        (0..w)
            .map(|i| {
                let cur = t;
                if i < w / 2 {
                    t += delays.hi;
                } else {
                    t -= delays.hi;
                }
                cur
            })
            .collect()
    };
    let fault = grid.node(4, w as i64 / 2);
    let probe_layer = 5u32;
    let mut byz_best = hex_des::Duration::ZERO;
    let mut byz_initial = hex_des::Duration::ZERO;
    for seed in 0..4u64 {
        let mut rng = SimRng::seed_from_u64(100 + seed);
        let r = worst_case_search(
            &grid,
            probe_layer,
            Some(fault),
            ramp.clone(),
            delays,
            300,
            &mut rng,
        );
        byz_initial = byz_initial.max(r.initial_skew);
        byz_best = byz_best.max(r.skew);
    }
    let ramp_thm = Theorem1 {
        width: w,
        length: l,
        delays,
        potential0: delays.uncertainty().times((w / 2) as i64),
    };
    let byz_bound = single_fault_intra_bound(&ramp_thm, probe_layer);
    println!(
        "\nByzantine landscape (ramp Δ0, 1 fault at (4,{}), probe layer {probe_layer}):",
        w / 2
    );
    println!(
        "  Fig.-17 starting profile:               {:>7.3} ns ({:.1} d+)",
        byz_initial.ns(),
        byz_initial.ns() / delays.hi.ns()
    );
    println!(
        "  joint delay+behavior search, 4x300:     {:>7.3} ns ({:.1} d+)",
        byz_best.ns(),
        byz_best.ns() / delays.hi.ns()
    );
    println!(
        "  Appendix-A single-fault bound:          {:>7.3} ns",
        byz_bound.ns()
    );
    assert!(
        byz_best <= byz_bound,
        "Byzantine search must respect the Appendix-A bound"
    );
    println!(
        "search reaches {:.0}% of the Appendix-A degradation budget.",
        100.0 * byz_best.ns() / byz_bound.ns()
    );
}
