//! Fundamental synchronization limits (the lower bounds the introduction
//! measures HEX against).
//!
//! * **Global skew**: no deterministic clock synchronization algorithm can
//!   guarantee a worst-case skew between all pairs better than `D·ε/2`,
//!   where `D` is the diameter of the communication graph (Biaz & Welch
//!   \[19\]).
//! * **Gradient (neighbor) skew**: the skew between *neighbors* cannot be
//!   better than `Ω(ε·log D)` (Lenzen, Locher & Wattenhofer \[20\]).
//! * **HEX's position**: Theorem 1
//!   ([`theorem1_intra_bound`](crate::bounds::theorem1_intra_bound)) gives
//!   a neighbor skew of `d+ + ⌈W·ε/d+⌉·ε = d+ + O(W·ε²/d+)` — the paper's
//!   `O(D·ε²)` claim with `D` the grid width. HEX thus sits a factor
//!   ≈ `W·ε/(d+·log W)` above the gradient lower bound, paying for
//!   constant-size state and Byzantine tolerance.

use hex_core::DelayRange;
use hex_des::Duration;

/// The diameter of the cylindric HEX grid: `⌊W/2⌋` around the cylinder
/// plus `L` across the layers (each hop moves one layer or one column).
pub fn hex_diameter(length: u32, width: u32) -> u32 {
    length + width / 2
}

/// The Biaz–Welch global lower bound `D·ε/2` \[19\]: some pair of nodes is
/// at least this far apart in the worst case, for *any* algorithm.
pub fn global_skew_lower_bound(diameter: u32, delays: DelayRange) -> Duration {
    delays.uncertainty().times(diameter as i64) / 2
}

/// The gradient lower bound `ε·log₂(D)` \[20\] (up to the unpublished
/// constant): the worst-case *neighbor* skew of any algorithm is
/// `Ω(ε·log D)`.
pub fn gradient_skew_lower_bound(diameter: u32, delays: DelayRange) -> Duration {
    if diameter <= 1 {
        return Duration::ZERO;
    }
    let log = (diameter as f64).log2();
    Duration::from_ps((delays.uncertainty().ps() as f64 * log).round() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::theorem1_intra_bound;
    use hex_core::{D_PLUS, EPSILON};

    fn paper() -> DelayRange {
        DelayRange::paper()
    }

    #[test]
    fn paper_grid_limits() {
        // 50x20 grid: D = 60; global lower bound 60·ε/2 = 31.08 ns.
        let d = hex_diameter(50, 20);
        assert_eq!(d, 60);
        assert_eq!(global_skew_lower_bound(d, paper()).ps(), 60 * 1_036 / 2);
        // Gradient lower bound ε·log2(60) ≈ 6.12 ns.
        let g = gradient_skew_lower_bound(d, paper());
        assert!((g.ns() - 1.036 * 60.0f64.log2()).abs() < 0.01);
    }

    #[test]
    fn hex_sits_between_gradient_bound_and_global_bound() {
        // HEX's *neighbor* bound must exceed the gradient lower bound
        // (it is an upper bound for a weaker-than-optimal algorithm) and,
        // on the paper's grid, stays below the *global* lower bound —
        // i.e. HEX neighbors are better synchronized than arbitrary pairs
        // can ever be.
        let upper = theorem1_intra_bound(20, paper());
        let d = hex_diameter(50, 20);
        assert!(upper >= gradient_skew_lower_bound(d, paper()));
        assert!(upper <= global_skew_lower_bound(d, paper()));
    }

    #[test]
    fn neighbor_bound_is_o_of_w_eps_squared() {
        // The O(D·ε²) shape: subtracting the d+ offset, the bound grows
        // ~linearly in W with slope ~ε²/d+.
        let slope = |w: u32| (theorem1_intra_bound(w, paper()) - D_PLUS).ps() as f64 / w as f64;
        let s_small = slope(32);
        let s_large = slope(256);
        let ideal = EPSILON.ps() as f64 * EPSILON.ps() as f64 / D_PLUS.ps() as f64;
        // Within ceiling slack of the ideal slope.
        assert!(
            (s_large - ideal).abs() / ideal < 0.2,
            "slope {s_large} vs {ideal}"
        );
        assert!((s_small - ideal).abs() / ideal < 0.5);
    }

    #[test]
    fn degenerate_diameter() {
        assert_eq!(gradient_skew_lower_bound(1, paper()), Duration::ZERO);
    }
}
