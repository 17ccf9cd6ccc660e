//! Appendix A: skew bounds in the presence of a single Byzantine fault.
//!
//! The appendix walks through the cases of Lemma 4 and shows that each is
//! "affected by at most `O(d+)`, no matter where the fault is located and
//! how it behaves". This module makes the constant concrete and exposes
//! executable bounds:
//!
//! * the causal-path detours (evading the fault via the other causal link,
//!   or shifting the target column by up to 3) lengthen the slow side by at
//!   most [`SINGLE_FAULT_HOPS`]` · d+` — the value realized by the paper's
//!   own Fig. 17 construction, which produces an intra-layer skew of
//!   exactly `5·d+` out of a single Byzantine node under ramped inputs;
//! * faulty inter-layer readings widen the Theorem-1 envelope by up to
//!   [`INTER_FAULT_HOPS`]` · d+` on each side (a node next to the fault may
//!   have to wait for side support, one extra `2·d+` round trip).
//!
//! The bounds here are *empirically sharp* (Fig. 17 meets the intra bound's
//! degradation term) and validated against simulation sweeps by the
//! `appendix_a` regenerator and the `appendix_a` integration tests; they
//! are engineering bounds in exactly the sense of the appendix's `O(d+)`
//! statement, not new theorems.

use hex_core::DelayRange;
use hex_des::Duration;

use crate::bounds::Theorem1;

/// Degradation hops of the intra-layer bound per Byzantine fault: the
/// Fig. 17 construction realizes `5·d+` from one fault, and the Appendix-A
/// case analysis never loses more than a constant number of `d+`-hops per
/// detour (column shifts of up to 3, plus the two-hop side-support rescue).
pub const SINGLE_FAULT_HOPS: i64 = 5;

/// Widening of the inter-layer envelope per side and fault: a correct node
/// whose lower-layer in-neighbor is faulty is rescued by its left/right
/// neighbor within `2·d+` (proof of Lemma 5).
pub const INTER_FAULT_HOPS: i64 = 2;

/// Intra-layer skew bound at `layer` with `f` separated Byzantine faults
/// (Condition 1): the fault-free Theorem-1 bound plus
/// `f · `[`SINGLE_FAULT_HOPS`]` · d+`. The appendix's simulations (and
/// ours; Figs. 15/16) show skew effects of separated faults do not
/// accumulate, so the linear-in-`f` term is conservative.
pub fn faulty_intra_bound(thm: &Theorem1, layer: u32, f: usize) -> Duration {
    let per_fault = thm.delays.hi.times(SINGLE_FAULT_HOPS);
    thm.intra(layer) + per_fault.times(f as i64)
}

/// Single-fault convenience form of [`faulty_intra_bound`].
pub fn single_fault_intra_bound(thm: &Theorem1, layer: u32) -> Duration {
    faulty_intra_bound(thm, layer, 1)
}

/// The Theorem-1 inter-layer envelope widened for `f` separated faults:
/// `(d− − σ_below − f·2·d+, σ_below + d+ + f·2·d+)`.
pub fn faulty_inter_envelope(
    sigma_below: Duration,
    delays: DelayRange,
    f: usize,
) -> (Duration, Duration) {
    let widen = delays.hi.times(INTER_FAULT_HOPS * f as i64);
    (
        delays.lo - sigma_below - widen,
        sigma_below + delays.hi + widen,
    )
}

/// The slack budget (in `d+`-hops) that the Lemma-2 check of
/// `hex_analysis::causal` grants per detour link and per fault inside a
/// prefix's triangle. Three suffices: an evasion step replaces at most a
/// three-hop segment of the regular construction (Fig. A.22's worst case
/// routes via column `i + 3`).
pub const LEMMA2_DETOUR_HOPS: i64 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use hex_core::{DelayRange, D_PLUS};
    use proptest::prelude::*;

    fn thm(potential_ps: i64) -> Theorem1 {
        Theorem1 {
            width: 20,
            length: 50,
            delays: DelayRange::paper(),
            potential0: Duration::from_ps(potential_ps),
        }
    }

    #[test]
    fn zero_faults_reduce_to_theorem1() {
        let t = thm(0);
        for layer in 1..=50 {
            assert_eq!(faulty_intra_bound(&t, layer, 0), t.intra(layer));
        }
    }

    #[test]
    fn single_fault_adds_five_hops() {
        let t = thm(0);
        let bound = single_fault_intra_bound(&t, 50);
        assert_eq!(bound, t.intra(50) + D_PLUS.times(SINGLE_FAULT_HOPS));
    }

    #[test]
    fn table2_worst_cases_fit() {
        // Table 2's measured maxima must sit below the Appendix-A bounds:
        // scenario (i): 10.385 ns ≤ 11.305 + 5·8.197; scenario (iv)
        // (Δ₀ ≈ W/2·ε = 10.36 ns): 34.590 ns ≤ transient + 5·d+.
        let zero = thm(0);
        assert!(single_fault_intra_bound(&zero, 50) >= Duration::from_ns(10.385));
        let ramp = thm(10 * 1_036);
        let worst = (1..=50)
            .map(|l| single_fault_intra_bound(&ramp, l))
            .max()
            .unwrap();
        assert!(worst >= Duration::from_ns(34.590), "bound {worst:?}");
    }

    #[test]
    fn inter_envelope_widens_symmetrically() {
        let sigma = Duration::from_ns(11.305);
        let (lo0, hi0) = faulty_inter_envelope(sigma, DelayRange::paper(), 0);
        let (lo1, hi1) = faulty_inter_envelope(sigma, DelayRange::paper(), 1);
        assert_eq!(lo0 - lo1, D_PLUS.times(INTER_FAULT_HOPS));
        assert_eq!(hi1 - hi0, D_PLUS.times(INTER_FAULT_HOPS));
        // Table 2 scenario (iv) extremes fit inside the f = 1 envelope for
        // the ramp's stabilized σ ≈ d+ + 3ε + Δ-decay ≈ 16.4 ns.
        let (lo, hi) = faulty_inter_envelope(Duration::from_ns(16.4), DelayRange::paper(), 1);
        assert!(lo <= Duration::from_ns(-19.695));
        assert!(hi >= Duration::from_ns(24.305));
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The faulty bound is monotone in f and always at least the
        /// fault-free bound.
        #[test]
        fn prop_monotone_in_f(layer in 1u32..50, pot in 0i64..20_000, f in 0usize..5) {
            let t = thm(pot);
            let b0 = faulty_intra_bound(&t, layer, f);
            let b1 = faulty_intra_bound(&t, layer, f + 1);
            prop_assert!(b1 >= b0);
            prop_assert!(b0 >= t.intra(layer).min(b0));
        }

        /// The envelope never inverts (lower < upper) for sane inputs.
        #[test]
        fn prop_envelope_ordered(sigma in 0i64..100_000, f in 0usize..6) {
            let (lo, hi) = faulty_inter_envelope(
                Duration::from_ps(sigma), DelayRange::paper(), f);
            prop_assert!(lo < hi);
        }
    }
}
