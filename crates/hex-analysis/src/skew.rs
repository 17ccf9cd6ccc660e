//! Definition-3 skews from per-pulse triggering-time matrices.
//!
//! For a pulse view `t_{ℓ,i}` this module extracts
//!
//! * **intra-layer skews** `|t_{ℓ,i} − t_{ℓ,i+1}|` for `ℓ ∈ {1,…,L}`,
//!   `i ∈ [W]` (absolute, by the grid's mirror symmetry), and
//! * **inter-layer skews** `t_{ℓ,i} − t_{ℓ−1,i}` and
//!   `t_{ℓ,i} − t_{ℓ−1,i+1}` (signed — they carry the ≥ `d-` propagation
//!   bias, Section 4.1),
//!
//! skipping any pair that touches an **excluded** node. Exclusion masks
//! combine the faulty nodes themselves with their `h`-hop outgoing
//! neighborhoods — the paper's `h ∈ {0, 1}` fault-locality filter
//! (Figs. 15/16).

use hex_core::{HexGrid, NodeId};
use hex_des::{Duration, Time};
use hex_sim::{PulseBinner, PulseView};

/// Skew samples of one pulse.
#[derive(Debug, Clone, Default)]
pub struct SkewSamples {
    /// Absolute intra-layer neighbor skews.
    pub intra: Vec<Duration>,
    /// Signed inter-layer neighbor skews.
    pub inter: Vec<Duration>,
}

impl SkewSamples {
    /// Merge another sample set into this one (for cumulating runs).
    pub fn extend(&mut self, other: &SkewSamples) {
        self.intra.extend_from_slice(&other.intra);
        self.inter.extend_from_slice(&other.inter);
    }
}

/// Node exclusion mask: `true` = excluded. Combines `faulty` nodes and, for
/// `h ≥ 1`, every node within `h` hops along outgoing links of a faulty
/// node.
pub fn exclusion_mask(grid: &HexGrid, faulty: &[NodeId], h: usize) -> Vec<bool> {
    let graph = grid.graph();
    let mut mask = vec![false; graph.node_count()];
    for &f in faulty {
        for n in graph.out_ball(f, h) {
            mask[n as usize] = true;
        }
    }
    mask
}

/// The shared sample walk of the batch reduction and the per-view
/// reference: `get(layer, col)` is the exclusion-masked triggering time
/// (from a [`PulseBinner`] pulse or a [`PulseView`]), and the samples are
/// appended to `out`. One canonical traversal order means the two produce
/// *identical sample vectors*, not just identical statistics.
// Inlined into each caller: as a shared out-of-line call the walk measured
// ~1.4× slower on 50×20 grids.
#[inline(always)]
pub(crate) fn collect_skews_with(
    l: u32,
    w: u32,
    get: impl Fn(u32, i64) -> Option<Time>,
    out: &mut SkewSamples,
) {
    for layer in 1..=l {
        for col in 0..w as i64 {
            let here = get(layer, col);
            // Intra-layer: (ℓ, i) vs (ℓ, i+1).
            if let (Some(a), Some(b)) = (here, get(layer, col + 1)) {
                out.intra.push(a.abs_diff(b));
            }
            // Inter-layer: (ℓ, i) vs (ℓ−1, i) and (ℓ−1, i+1).
            if let (Some(a), Some(b)) = (here, get(layer - 1, col)) {
                out.inter.push(a - b);
            }
            if let (Some(a), Some(b)) = (here, get(layer - 1, col + 1)) {
                out.inter.push(a - b);
            }
        }
    }
}

/// The exclusion-masked time accessor of a materialized [`PulseView`].
pub(crate) fn masked_view<'a>(
    grid: &'a HexGrid,
    view: &'a PulseView,
    excluded: &'a [bool],
) -> impl Fn(u32, i64) -> Option<Time> + 'a {
    move |layer, col| {
        let n = grid.node(layer, col);
        if excluded[n as usize] {
            None
        } else {
            view.time(layer, col)
        }
    }
}

/// The exclusion-masked time accessor of one [`PulseBinner`] pulse.
pub(crate) fn masked_binner<'a>(
    grid: &'a HexGrid,
    binner: &'a PulseBinner,
    pulse: usize,
    excluded: &'a [bool],
) -> impl Fn(u32, i64) -> Option<Time> + 'a {
    move |layer, col| {
        let n = grid.node(layer, col);
        if excluded[n as usize] {
            None
        } else {
            binner.time(pulse, n)
        }
    }
}

/// Collect the Definition-3 skew samples of one pulse view, skipping pairs
/// that touch excluded or missing nodes.
pub fn collect_skews(grid: &HexGrid, view: &PulseView, excluded: &[bool]) -> SkewSamples {
    let mut out = SkewSamples::default();
    collect_skews_with(
        grid.length(),
        grid.width(),
        masked_view(grid, view, excluded),
        &mut out,
    );
    out
}

/// The shared per-layer intra-max walk of [`per_layer_max_intra`] and the
/// stabilization profiles.
pub(crate) fn per_layer_max_intra_with(
    l: u32,
    w: u32,
    get: impl Fn(u32, i64) -> Option<Time>,
) -> Vec<Option<Duration>> {
    (1..=l)
        .map(|layer| {
            let mut best: Option<Duration> = None;
            for col in 0..w as i64 {
                if let (Some(ta), Some(tb)) = (get(layer, col), get(layer, col + 1)) {
                    let s = ta.abs_diff(tb);
                    best = Some(best.map_or(s, |m| m.max(s)));
                }
            }
            best
        })
        .collect()
}

/// The shared per-layer inter-max walk of [`per_layer_max_inter`] and the
/// stabilization profiles.
pub(crate) fn per_layer_max_inter_with(
    l: u32,
    w: u32,
    get: impl Fn(u32, i64) -> Option<Time>,
) -> Vec<Option<Duration>> {
    (1..=l)
        .map(|layer| {
            let mut best: Option<Duration> = None;
            for col in 0..w as i64 {
                let Some(t) = get(layer, col) else {
                    continue;
                };
                for lower in [col, col + 1] {
                    if let Some(tl) = get(layer - 1, lower) {
                        let s = t.abs_diff(tl);
                        best = Some(best.map_or(s, |m| m.max(s)));
                    }
                }
            }
            best
        })
        .collect()
}

/// Per-layer maximum absolute intra-layer skew, `None` for layers with no
/// valid pair. Index 0 of the result is layer 1 (layer 0 skews are the
/// source scenario's business).
pub fn per_layer_max_intra(
    grid: &HexGrid,
    view: &PulseView,
    excluded: &[bool],
) -> Vec<Option<Duration>> {
    per_layer_max_intra_with(
        grid.length(),
        grid.width(),
        masked_view(grid, view, excluded),
    )
}

/// Per-layer maximum absolute inter-layer skew towards layer `ℓ−1`.
pub fn per_layer_max_inter(
    grid: &HexGrid,
    view: &PulseView,
    excluded: &[bool],
) -> Vec<Option<Duration>> {
    per_layer_max_inter_with(
        grid.length(),
        grid.width(),
        masked_view(grid, view, excluded),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hex_core::{DelayModel, FaultPlan, NodeFault, D_MINUS, D_PLUS};
    use hex_des::{Schedule, Time};
    use hex_sim::{simulate, PulseView, SimConfig};

    fn zero_run(l: u32, w: u32, seed: u64) -> (HexGrid, PulseView) {
        let grid = HexGrid::new(l, w);
        let sched = Schedule::single_pulse(vec![Time::ZERO; w as usize]);
        let trace = simulate(grid.graph(), &sched, &SimConfig::fault_free(), seed);
        let view = PulseView::from_single_pulse(&grid, &trace);
        (grid, view)
    }

    #[test]
    fn fault_free_sample_counts() {
        let (grid, view) = zero_run(5, 6, 1);
        let mask = exclusion_mask(&grid, &[], 0);
        let s = collect_skews(&grid, &view, &mask);
        // Intra: L·W pairs; inter: 2·L·W pairs.
        assert_eq!(s.intra.len(), 5 * 6);
        assert_eq!(s.inter.len(), 2 * 5 * 6);
    }

    #[test]
    fn inter_layer_bias_positive() {
        // Fault-free zero-skew waves always propagate upward: inter-layer
        // skew ≥ d- > 0 (every node triggered by the layer below).
        let (grid, view) = zero_run(8, 8, 2);
        let mask = exclusion_mask(&grid, &[], 0);
        let s = collect_skews(&grid, &view, &mask);
        for d in &s.inter {
            assert!(*d >= D_MINUS - (D_PLUS - D_MINUS), "inter skew {d:?}");
        }
        // And the minimum is at least d- when all sources fire together.
        assert!(s.inter.iter().min().unwrap() >= &D_MINUS);
    }

    #[test]
    fn intra_skews_nonnegative_and_bounded() {
        let (grid, view) = zero_run(10, 8, 3);
        let mask = exclusion_mask(&grid, &[], 0);
        let s = collect_skews(&grid, &view, &mask);
        for d in &s.intra {
            assert!(*d >= Duration::ZERO);
            // Generous sanity bound for a zero-potential run.
            assert!(*d <= D_PLUS * 2, "intra skew {d:?}");
        }
    }

    #[test]
    fn exclusion_mask_radii() {
        let grid = HexGrid::new(6, 8);
        let f = grid.node(2, 3);
        let m0 = exclusion_mask(&grid, &[f], 0);
        assert_eq!(m0.iter().filter(|&&b| b).count(), 1);
        let m1 = exclusion_mask(&grid, &[f], 1);
        // f + its 4 out-neighbors (left, right, up-left, up-right).
        assert_eq!(m1.iter().filter(|&&b| b).count(), 5);
        assert!(m1[f as usize]);
        assert!(m1[grid.node(3, 3) as usize]); // upper-right receiver
        assert!(m1[grid.node(3, 2) as usize]); // upper-left receiver
        assert!(m1[grid.node(2, 2) as usize]);
        assert!(m1[grid.node(2, 4) as usize]);
        assert!(!m1[grid.node(1, 3) as usize]); // lower neighbors not in OUT ball
    }

    #[test]
    fn excluded_pairs_are_skipped() {
        let grid = HexGrid::new(4, 6);
        let victim = grid.node(2, 2);
        let cfg = SimConfig {
            faults: FaultPlan::none().with_node(victim, NodeFault::FailSilent),
            ..SimConfig::fault_free()
        };
        let sched = Schedule::single_pulse(vec![Time::ZERO; 6]);
        let trace = simulate(grid.graph(), &sched, &cfg, 4);
        let view = PulseView::from_single_pulse(&grid, &trace);
        let mask = exclusion_mask(&grid, &[victim], 0);
        let s = collect_skews(&grid, &view, &mask);
        // Intra loses the 2 pairs touching (2,2); inter loses 2 upward from
        // (2,2) and 2 downward into (3,1)/(3,2)… at least 4 total.
        assert!(s.intra.len() <= 4 * 6 - 2);
        assert!(s.inter.len() <= 2 * 4 * 6 - 4);
    }

    #[test]
    fn per_layer_series_shapes() {
        let (grid, view) = zero_run(7, 5, 5);
        let mask = exclusion_mask(&grid, &[], 0);
        let intra = per_layer_max_intra(&grid, &view, &mask);
        let inter = per_layer_max_inter(&grid, &view, &mask);
        assert_eq!(intra.len(), 7);
        assert_eq!(inter.len(), 7);
        assert!(intra.iter().all(|o| o.is_some()));
        assert!(inter.iter().all(|o| o.is_some()));
    }

    #[test]
    fn deterministic_delays_give_zero_intra_skew() {
        let grid = HexGrid::new(5, 5);
        let sched = Schedule::single_pulse(vec![Time::ZERO; 5]);
        let cfg = SimConfig {
            delays: DelayModel::Fixed(D_PLUS),
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &sched, &cfg, 6);
        let view = PulseView::from_single_pulse(&grid, &trace);
        let mask = exclusion_mask(&grid, &[], 0);
        let s = collect_skews(&grid, &view, &mask);
        assert!(s.intra.iter().all(|&d| d == Duration::ZERO));
        assert!(s.inter.iter().all(|&d| d == D_PLUS));
    }
}
