//! The skew bounds of Section 3.1 / 3.2 as executable arithmetic.
//!
//! All bounds are computed exactly in integer picoseconds (ceilings and
//! floors are integer operations, as in the paper's `⌈·⌉`/`⌊·⌋`).

use hex_core::DelayRange;
use hex_des::Duration;

/// `λ₀(ℓ) = ⌊ℓ·d−/d+⌋` — the deepest layer a slow (`d+`-per-hop) chain can
/// reach in the time a fast (`d−`-per-hop) chain needs for `ℓ` hops.
pub fn lambda0(layer: u32, delays: DelayRange) -> u32 {
    ((layer as i64 * delays.lo.ps()) / delays.hi.ps()) as u32
}

/// `ℓ − λ₀(ℓ) = ⌈ℓ·ε/d+⌉` (Eq. (4) of the paper).
pub fn epsilon_hops(layer: u32, delays: DelayRange) -> i64 {
    let eps = delays.uncertainty().ps();
    let d_plus = delays.hi.ps();
    (layer as i64 * eps + d_plus - 1) / d_plus
}

/// Lemma 3: for `W > 2` and `ℓ ≥ W − 2`, the skew potential satisfies
/// `Δℓ ≤ 2(W − 2)·ε`, independent of the initial skews.
pub fn lemma3_skew_potential(width: u32, delays: DelayRange) -> Duration {
    assert!(width > 2, "Lemma 3 needs W > 2");
    delays.uncertainty().times(2 * (width as i64 - 2))
}

/// Lemma 4: `|t_{ℓ,i} − t_{ℓ,i+1}| ≤ d+ + ⌈(ℓ−ℓ₀)·ε/d+⌉·ε + Δ_{ℓ₀}` for
/// any reference layer `ℓ₀ < ℓ` with skew potential `Δ_{ℓ₀}`.
pub fn lemma4_intra_bound(
    layer: u32,
    ref_layer: u32,
    ref_potential: Duration,
    delays: DelayRange,
) -> Duration {
    assert!(ref_layer <= layer, "reference layer must not exceed layer");
    let eps = delays.uncertainty();
    delays.hi + eps.times(epsilon_hops(layer - ref_layer, delays)) + ref_potential
}

/// Corollary 1: for `ℓ ≥ W`,
/// `|t_{ℓ,i} − t_{ℓ,i+1}| ≤ max{d+ + ⌈W·ε/d+⌉·ε, Δ_{ℓ−W} + d+ − W·δ}` with
/// `δ = d−/2 − ε`.
pub fn corollary1_intra_bound(
    width: u32,
    potential_l_minus_w: Duration,
    delays: DelayRange,
) -> Duration {
    let eps = delays.uncertainty();
    let first = delays.hi + eps.times(epsilon_hops(width, delays));
    let delta = Duration::from_ps(delays.lo.ps() / 2 - eps.ps());
    let second = potential_l_minus_w + delays.hi - delta.times(width as i64);
    first.max(second)
}

/// The assembled Theorem 1 bounds for a concrete grid.
#[derive(Debug, Clone, Copy)]
pub struct Theorem1 {
    /// Grid width `W`.
    pub width: u32,
    /// Grid length `L`.
    pub length: u32,
    /// Delay interval `[d−, d+]`.
    pub delays: DelayRange,
    /// Layer-0 skew potential `Δ₀`.
    pub potential0: Duration,
}

impl Theorem1 {
    /// Check the premise `ε ≤ d+/7`.
    pub fn premise_holds(&self) -> bool {
        self.delays.satisfies_theorem1_constraint()
    }

    /// The steady-state intra-layer bound `d+ + ⌈W·ε/d+⌉·ε` (valid for all
    /// layers when `Δ₀ = 0`, and for `ℓ ≥ 2W − 2` in general).
    pub fn steady_intra(&self) -> Duration {
        let eps = self.delays.uncertainty();
        self.delays.hi + eps.times(epsilon_hops(self.width, self.delays))
    }

    /// The transient intra-layer bound for `ℓ ∈ {1,…,2W−3}` in the general
    /// case: `d+ + ⌈ℓ·ε/d+⌉·ε + Δ₀` (the exact Lemma-4 form; the paper
    /// displays the relaxation `d+ + 2W·ε²/d+ + Δ₀`).
    pub fn transient_intra(&self, layer: u32) -> Duration {
        lemma4_intra_bound(layer, 0, self.potential0, self.delays)
    }

    /// The per-layer intra-layer bound `σℓ` of Theorem 1.
    pub fn intra(&self, layer: u32) -> Duration {
        assert!(layer >= 1 && layer <= self.length);
        if self.potential0 == Duration::ZERO {
            self.steady_intra()
        } else if layer <= 2 * self.width - 3 {
            self.transient_intra(layer)
        } else {
            self.steady_intra()
        }
    }

    /// The worst intra-layer bound over all layers `1..=L`.
    pub fn intra_max(&self) -> Duration {
        (1..=self.length)
            .map(|l| self.intra(l))
            .max()
            .expect("length ≥ 1")
    }
}

/// Theorem 1's inter-layer envelope: given the intra-layer bound `σ_{ℓ−1}`
/// of the layer below, `t_{ℓ,i} − t_{ℓ−1,·} ∈ [d− − σ_{ℓ−1}, σ_{ℓ−1} + d+]`.
/// Returns `(lower, upper)`.
pub fn inter_layer_envelope(sigma_below: Duration, delays: DelayRange) -> (Duration, Duration) {
    (delays.lo - sigma_below, sigma_below + delays.hi)
}

/// Theorem 1 convenience: the intra bound for a grid with `Δ₀ = 0`.
pub fn theorem1_intra_bound(width: u32, delays: DelayRange) -> Duration {
    Theorem1 {
        width,
        length: 1,
        delays,
        potential0: Duration::ZERO,
    }
    .steady_intra()
}

/// Lemma 5: with layer-0 triggering spread `t_max − t_min`, grid length `L`
/// and `f` faulty layers, the pulse skew is below
/// `(t_max − t_min) + ε·L + f·d+`.
pub fn lemma5_pulse_skew(
    source_spread: Duration,
    length: u32,
    f: usize,
    delays: DelayRange,
) -> Duration {
    source_spread + delays.uncertainty().times(length as i64) + delays.hi.times(f as i64)
}

/// Per-layer refinement of Lemma 5 used for the `C = 0` stabilization
/// thresholds: all correct nodes of layer `ℓ` trigger within
/// `[t_min + ℓ·d−, t_max + (ℓ + f_ℓ)·d+]`, so the layer's skew is below
/// `(t_max − t_min) + ℓ·ε + f_ℓ·d+`.
pub fn lemma5_layer_bound(
    source_spread: Duration,
    layer: u32,
    faulty_layers: usize,
    delays: DelayRange,
) -> Duration {
    source_spread + delays.uncertainty().times(layer as i64) + delays.hi.times(faulty_layers as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hex_core::{DelayRange, D_MINUS, D_PLUS, EPSILON};
    use proptest::prelude::*;

    fn paper() -> DelayRange {
        DelayRange::paper()
    }

    #[test]
    fn lambda0_and_epsilon_hops_partition() {
        // Eq. (4): ℓ − λ₀(ℓ) = ⌈ℓ·ε/d+⌉.
        for layer in 0..200 {
            assert_eq!(
                layer as i64 - lambda0(layer, paper()) as i64,
                epsilon_hops(layer, paper()),
                "layer {layer}"
            );
        }
    }

    #[test]
    fn paper_grid_steady_bound() {
        // W = 20: ⌈20·1036/8197⌉ = ⌈2.53⌉ = 3 → σ ≤ d+ + 3ε = 11.305 ns.
        let b = theorem1_intra_bound(20, paper());
        assert_eq!(b.ps(), 8_197 + 3 * 1_036);
    }

    #[test]
    fn lemma3_value() {
        // 2(W−2)ε = 2·18·1.036 = 37.296 ns for W = 20.
        assert_eq!(lemma3_skew_potential(20, paper()).ps(), 37_296);
    }

    #[test]
    fn lemma4_monotone_in_layer_gap() {
        let mut prev = Duration::ZERO;
        for layer in 1..100 {
            let b = lemma4_intra_bound(layer, 0, Duration::ZERO, paper());
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn corollary1_dominated_by_first_term_for_paper_params() {
        // ε ≤ d+/7 ⇒ 2ε − δ ≤ 0, so the max is the first term (proof of
        // Theorem 1).
        let pot = lemma3_skew_potential(20, paper());
        let b = corollary1_intra_bound(20, pot, paper());
        assert_eq!(b, theorem1_intra_bound(20, paper()));
    }

    #[test]
    fn theorem1_piecewise() {
        let t = Theorem1 {
            width: 20,
            length: 50,
            delays: paper(),
            potential0: Duration::from_ps(10 * EPSILON.ps()), // ramp Δ₀ = 10ε
        };
        assert!(t.premise_holds());
        // Transient layers include Δ₀.
        assert!(t.intra(1) > t.steady_intra() || t.intra(1) >= t.steady_intra());
        assert!(t.intra(2 * 20 - 3) >= t.steady_intra());
        // Steady layers don't.
        assert_eq!(t.intra(2 * 20 - 2), t.steady_intra());
        assert_eq!(t.intra(50), t.steady_intra());
        assert!(t.intra_max() >= t.steady_intra());
    }

    #[test]
    fn zero_potential_is_uniform() {
        let t = Theorem1 {
            width: 20,
            length: 50,
            delays: paper(),
            potential0: Duration::ZERO,
        };
        for l in 1..=50 {
            assert_eq!(t.intra(l), t.steady_intra());
        }
    }

    #[test]
    fn inter_envelope() {
        let (lo, hi) = inter_layer_envelope(Duration::from_ps(11_305), paper());
        assert_eq!(lo, D_MINUS - Duration::from_ps(11_305));
        assert_eq!(hi, Duration::from_ps(11_305) + D_PLUS);
        assert!(lo.ps() < 0); // the envelope admits negative inter-layer skews
    }

    #[test]
    fn lemma5_values() {
        // Fault-free, zero spread, L = 50: σ < ε·50 = 51.8 ns.
        assert_eq!(
            lemma5_pulse_skew(Duration::ZERO, 50, 0, paper()).ps(),
            50 * 1_036
        );
        // f = 5 adds 5·d+.
        assert_eq!(
            lemma5_pulse_skew(Duration::ZERO, 50, 5, paper()).ps(),
            50 * 1_036 + 5 * 8_197
        );
        // Per-layer version grows with ℓ.
        assert!(
            lemma5_layer_bound(Duration::ZERO, 10, 1, paper())
                < lemma5_layer_bound(Duration::ZERO, 30, 1, paper())
        );
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// λ₀ is monotone and bounded by ℓ; epsilon_hops is nonnegative and
        /// monotone.
        #[test]
        fn prop_lambda0(l1 in 0u32..500, l2 in 0u32..500) {
            let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
            prop_assert!(lambda0(lo, paper()) <= lambda0(hi, paper()));
            prop_assert!(lambda0(hi, paper()) <= hi);
            prop_assert!(epsilon_hops(lo, paper()) <= epsilon_hops(hi, paper()));
            prop_assert!(epsilon_hops(lo, paper()) >= 0);
        }

        /// Lemma 4 bound is monotone in the reference potential.
        #[test]
        fn prop_lemma4_monotone_potential(p1 in 0i64..50_000, p2 in 0i64..50_000, l in 1u32..100) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(
                lemma4_intra_bound(l, 0, Duration::from_ps(lo), paper())
                    <= lemma4_intra_bound(l, 0, Duration::from_ps(hi), paper())
            );
        }

        /// Theorem 1 intra bound is always at least d+ (a single hop's worth
        /// of uncertainty can always materialize).
        #[test]
        fn prop_intra_at_least_dplus(w in 3u32..64, l in 1u32..64, pot in 0i64..100_000) {
            let t = Theorem1 {
                width: w,
                length: l.max(1),
                delays: paper(),
                potential0: Duration::from_ps(pot),
            };
            for layer in 1..=t.length {
                prop_assert!(t.intra(layer) >= D_PLUS);
            }
        }
    }
}
