//! The augmented HEX grid ("Decreasing skews further", Section 5).
//!
//! Standard HEX nodes rely on *same-layer* neighbors to help out when a
//! lower neighbor is faulty, costing an extra sideways hop and hence ≈ 2×
//! skew under faults (visible in Fig. 15). The paper proposes "augmenting
//! the HEX topology by connecting each node to additional in-neighbors from
//! the previous layer". Here each node `(ℓ, i)` additionally hears
//! `(ℓ−1, i−1)` (lower-left-left) and `(ℓ−1, i+2)` (lower-right-right), and
//! the guard accepts any two *angularly adjacent* in-neighbors of the
//! six-port fan `[left, LLL, LL, LR, LRR, right]`.

use hex_core::graph::Role;
use hex_core::{Coord, NodeId, PulseGraph};

/// The augmented guard: adjacent pairs of the six-port fan.
pub const AUG_GUARD: [(u8, u8); 5] = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];

/// A cylindric HEX grid with two extra lower in-neighbors per node.
#[derive(Debug, Clone)]
pub struct AugmentedHexGrid {
    graph: PulseGraph,
    length: u32,
    width: u32,
}

impl AugmentedHexGrid {
    /// Build an augmented grid of length `L` and width `W ≥ 5` (the wider
    /// fan needs more distinct columns).
    pub fn new(length: u32, width: u32) -> Self {
        assert!(width >= 5, "augmented HEX needs width ≥ 5, got {width}");
        assert!(length >= 1);
        let mut b = PulseGraph::builder();
        for layer in 0..=length {
            for col in 0..width {
                let role = if layer == 0 {
                    Role::Source
                } else {
                    Role::Forwarder
                };
                let guard = if layer == 0 {
                    vec![]
                } else {
                    AUG_GUARD.to_vec()
                };
                b.add_node(role, Some(Coord::new(layer, col)), guard);
            }
        }
        let id = |layer: u32, col: i64| -> NodeId {
            layer * width + col.rem_euclid(width as i64) as u32
        };
        for layer in 1..=length {
            for col in 0..width as i64 {
                let dst = id(layer, col);
                b.add_link(id(layer, col - 1), dst, 0); // left
                b.add_link(id(layer - 1, col - 1), dst, 1); // lower-left-left
                b.add_link(id(layer - 1, col), dst, 2); // lower-left
                b.add_link(id(layer - 1, col + 1), dst, 3); // lower-right
                b.add_link(id(layer - 1, col + 2), dst, 4); // lower-right-right
                b.add_link(id(layer, col + 1), dst, 5); // right
            }
        }
        AugmentedHexGrid {
            graph: b.build(),
            length,
            width,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &PulseGraph {
        &self.graph
    }

    /// Grid length `L`.
    pub fn length(&self) -> u32 {
        self.length
    }

    /// Grid width `W`.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Node id of `(layer, col)`.
    pub fn node(&self, layer: u32, col: i64) -> NodeId {
        layer * self.width + col.rem_euclid(self.width as i64) as u32
    }

    /// Max intra-layer neighbor skew of `layer` given per-node unique fire
    /// times, skipping pairs with an excluded node.
    pub fn layer_skew(
        &self,
        layer: u32,
        fires: &[Option<hex_des::Time>],
        excluded: &[bool],
    ) -> Option<hex_des::Duration> {
        let mut best: Option<hex_des::Duration> = None;
        for col in 0..self.width as i64 {
            let a = self.node(layer, col);
            let b = self.node(layer, col + 1);
            if excluded[a as usize] || excluded[b as usize] {
                continue;
            }
            let (Some(ta), Some(tb)) = (fires[a as usize], fires[b as usize]) else {
                continue;
            };
            let s = ta.abs_diff(tb);
            best = Some(best.map_or(s, |m| m.max(s)));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hex_core::{FaultPlan, HexGrid, NodeFault};
    use hex_des::{Duration, Schedule, Time};
    use hex_sim::{simulate, SimConfig};

    fn unique_fires(graph: &PulseGraph, w: u32, faults: FaultPlan, seed: u64) -> Vec<Option<Time>> {
        let sched = Schedule::single_pulse(vec![Time::ZERO; w as usize]);
        let cfg = SimConfig {
            faults,
            ..SimConfig::fault_free()
        };
        let trace = simulate(graph, &sched, &cfg, seed);
        (0..graph.node_count())
            .map(|n| trace.unique_fire(n as u32))
            .collect()
    }

    #[test]
    fn structure() {
        let g = AugmentedHexGrid::new(4, 8);
        for layer in 1..=4 {
            for col in 0..8i64 {
                let n = g.node(layer, col);
                assert_eq!(g.graph().port_count(n), 6);
                assert_eq!(g.graph().in_neighbor(n, 1), g.node(layer - 1, col - 1));
                assert_eq!(g.graph().in_neighbor(n, 4), g.node(layer - 1, col + 2));
            }
        }
    }

    #[test]
    fn fault_free_pulse_completes() {
        let g = AugmentedHexGrid::new(6, 8);
        let fires = unique_fires(g.graph(), 8, FaultPlan::none(), 1);
        assert!(fires.iter().all(Option::is_some));
    }

    #[test]
    fn tolerates_single_fault_without_sideways_detour() {
        // Kill one layer-2 node; in the augmented grid its upper neighbors
        // still have two live *lower* in-neighbor pairs, so the pulse is not
        // delayed by a sideways detour.
        let g = AugmentedHexGrid::new(6, 10);
        let victim = g.node(2, 4);
        let fires = unique_fires(
            g.graph(),
            10,
            FaultPlan::none().with_node(victim, NodeFault::FailSilent),
            2,
        );
        for n in g.graph().node_ids() {
            if n != victim {
                assert!(fires[n as usize].is_some(), "node {n} starved");
            }
        }
    }

    #[test]
    fn fault_skew_better_than_standard_hex() {
        // The Section-5 claim: the augmented fan mitigates the ≈ 2× skew
        // increase a crashed lower neighbor causes in standard HEX.
        // Compare the worst skew in the crash victim's upper layer,
        // averaged over seeds.
        let (l, w, victim_layer, victim_col) = (8u32, 10u32, 3u32, 4i64);
        let mut std_sum = 0.0;
        let mut aug_sum = 0.0;
        let seeds = 20u64;
        for seed in 0..seeds {
            // Standard HEX.
            let grid = HexGrid::new(l, w);
            let victim = grid.node(victim_layer, victim_col);
            let fires = unique_fires(
                grid.graph(),
                w,
                FaultPlan::none().with_node(victim, NodeFault::FailSilent),
                seed,
            );
            let mut excluded = vec![false; grid.node_count()];
            excluded[victim as usize] = true;
            let mut worst = Duration::ZERO;
            for col in 0..w as i64 {
                let a = grid.node(victim_layer + 1, col);
                let b = grid.node(victim_layer + 1, col + 1);
                if excluded[a as usize] || excluded[b as usize] {
                    continue;
                }
                if let (Some(ta), Some(tb)) = (fires[a as usize], fires[b as usize]) {
                    worst = worst.max(ta.abs_diff(tb));
                }
            }
            std_sum += worst.ns();

            // Augmented HEX.
            let aug = AugmentedHexGrid::new(l, w);
            let victim = aug.node(victim_layer, victim_col);
            let fires = unique_fires(
                aug.graph(),
                w,
                FaultPlan::none().with_node(victim, NodeFault::FailSilent),
                seed,
            );
            let mut excluded = vec![false; aug.graph().node_count()];
            excluded[victim as usize] = true;
            let worst = aug.layer_skew(victim_layer + 1, &fires, &excluded).unwrap();
            aug_sum += worst.ns();
        }
        let (std_avg, aug_avg) = (std_sum / seeds as f64, aug_sum / seeds as f64);
        assert!(
            aug_avg < std_avg,
            "augmented skew {aug_avg:.3} should beat standard {std_avg:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "width ≥ 5")]
    fn rejects_narrow() {
        AugmentedHexGrid::new(3, 4);
    }
}
