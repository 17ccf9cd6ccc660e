//! The cylindric hexagonal grid of Section 2 / Fig. 1.
//!
//! Nodes are `(ℓ, i)` with layers `0..=L` and cyclic columns `0..W`. Layer 0
//! holds the clock sources. A node `(ℓ, i)` with `ℓ > 0` has four incoming
//! links, bound to ports in this fixed order:
//!
//! | port | name        | from            |
//! |------|-------------|-----------------|
//! | 0    | left        | `(ℓ,   i−1)`    |
//! | 1    | lower-left  | `(ℓ−1, i)`      |
//! | 2    | lower-right | `(ℓ−1, i+1)`    |
//! | 3    | right       | `(ℓ,   i+1)`    |
//!
//! and the Algorithm-1 guard `{(0,1), (1,2), (2,3)}` — trigger on
//! (left ∧ lower-left) ∨ (lower-left ∧ lower-right) ∨ (lower-right ∧ right).
//! Note ports 0/3 at layer 1 come from layer-1 siblings; layer-0 nodes have
//! no incoming links (they are externally driven sources, cf. Section 2:
//! links are defined for nodes with ℓ > 0 only).
//!
//! ```
//! use hex_core::grid::HexGrid;
//! use hex_core::graph::Role;
//!
//! // L = 3 forwarding layers above W = 6 sources, cylindric columns.
//! let grid = HexGrid::new(3, 6);
//! assert_eq!(grid.node_count(), 4 * 6);
//! assert_eq!(grid.graph().role(grid.node(0, 2)), Role::Source);
//!
//! // Columns wrap: node (2, -1) is node (2, 5).
//! assert_eq!(grid.node(2, -1), grid.node(2, 5));
//!
//! // A forwarder's four in-ports follow the fixed left / lower-left /
//! // lower-right / right order of the table above.
//! let n = grid.node(2, 0);
//! let ports = grid.graph().in_links(n);
//! assert_eq!(ports.len(), 4);
//! let src = |l: u32| grid.graph().link(ports[l as usize] as u32).src;
//! assert_eq!(src(0), grid.node(2, -1)); // left
//! assert_eq!(src(1), grid.node(1, 0)); // lower-left
//! assert_eq!(src(2), grid.node(1, 1)); // lower-right
//! assert_eq!(src(3), grid.node(2, 1)); // right
//! ```

use crate::coord::Coord;
use crate::graph::{NodeId, PulseGraph, Role};

/// Port index of the left in-neighbor `(ℓ, i−1)`.
pub const PORT_LEFT: u8 = 0;
/// Port index of the lower-left in-neighbor `(ℓ−1, i)`.
pub const PORT_LOWER_LEFT: u8 = 1;
/// Port index of the lower-right in-neighbor `(ℓ−1, i+1)`.
pub const PORT_LOWER_RIGHT: u8 = 2;
/// Port index of the right in-neighbor `(ℓ, i+1)`.
pub const PORT_RIGHT: u8 = 3;

/// The HEX guard of Algorithm 1: two *adjacent* in-neighbors.
pub const HEX_GUARD: [(u8, u8); 3] = [
    (PORT_LEFT, PORT_LOWER_LEFT),
    (PORT_LOWER_LEFT, PORT_LOWER_RIGHT),
    (PORT_LOWER_RIGHT, PORT_RIGHT),
];

/// A cylindric hexagonal grid with `L+1` layers (`0..=L`) of `W` columns.
///
/// Wraps a [`PulseGraph`] plus the coordinate arithmetic needed by the
/// analysis (layer/column of node ids, neighbor lookups).
#[derive(Debug, Clone)]
pub struct HexGrid {
    graph: PulseGraph,
    length: u32,
    width: u32,
}

impl HexGrid {
    /// Build a grid with length `L` (highest layer index; `L+1` layers in
    /// total) and width `W`.
    ///
    /// # Panics
    ///
    /// Panics unless `W ≥ 3` (with fewer columns "left" and "right" collide)
    /// and `L ≥ 1`.
    pub fn new(length: u32, width: u32) -> Self {
        assert!(width >= 3, "HEX needs width ≥ 3, got {width}");
        assert!(length >= 1, "HEX needs length ≥ 1, got {length}");
        let (l, w) = (length, width);
        let mut b = PulseGraph::builder();

        // Nodes in (layer, col) row-major order so ids are predictable.
        for layer in 0..=l {
            for col in 0..w {
                let role = if layer == 0 {
                    Role::Source
                } else {
                    Role::Forwarder
                };
                let guard = if layer == 0 {
                    vec![]
                } else {
                    HEX_GUARD.to_vec()
                };
                b.add_node(role, Some(Coord::new(layer, col)), guard);
            }
        }

        let id = |layer: u32, col: u32| -> NodeId { layer * w + col.rem_euclid(w) };

        // Links, added receiver-by-receiver in port order.
        for layer in 1..=l {
            for col in 0..w {
                let dst = id(layer, col);
                b.add_link(id(layer, (col + w - 1) % w), dst, PORT_LEFT);
                b.add_link(id(layer - 1, col), dst, PORT_LOWER_LEFT);
                b.add_link(id(layer - 1, (col + 1) % w), dst, PORT_LOWER_RIGHT);
                b.add_link(id(layer, (col + 1) % w), dst, PORT_RIGHT);
            }
        }

        HexGrid {
            graph: b.build(),
            length: l,
            width: w,
        }
    }

    /// The paper's evaluation grid: `L = 50`, `W = 20`.
    pub fn paper() -> Self {
        HexGrid::new(50, 20)
    }

    /// The underlying generic graph.
    pub fn graph(&self) -> &PulseGraph {
        &self.graph
    }

    /// Consume the grid, returning the underlying graph.
    pub fn into_graph(self) -> PulseGraph {
        self.graph
    }

    /// Grid length `L` (index of the highest layer).
    pub fn length(&self) -> u32 {
        self.length
    }

    /// Grid width `W` (number of columns).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Total node count `(L+1)·W`.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Node id of `(layer, col)`; `col` is taken modulo `W`.
    pub fn node(&self, layer: u32, col: i64) -> NodeId {
        assert!(layer <= self.length, "layer {layer} > L = {}", self.length);
        let col = col.rem_euclid(self.width as i64) as u32;
        layer * self.width + col
    }

    /// Coordinate of a node id.
    pub fn coord_of(&self, n: NodeId) -> Coord {
        Coord::new(n / self.width, n % self.width)
    }

    /// The in-neighbor id of `(layer, col)` on a given HEX port.
    pub fn hex_in_neighbor(&self, layer: u32, col: u32, port: u8) -> NodeId {
        assert!(layer > 0, "layer-0 nodes have no in-neighbors");
        let c = col as i64;
        match port {
            PORT_LEFT => self.node(layer, c - 1),
            PORT_LOWER_LEFT => self.node(layer - 1, c),
            PORT_LOWER_RIGHT => self.node(layer - 1, c + 1),
            PORT_RIGHT => self.node(layer, c + 1),
            _ => panic!("invalid HEX port {port}"),
        }
    }

    /// The six hexagon neighbors of `(layer, col)` that exist in the grid:
    /// left, right, lower-left, lower-right (if `layer > 0`), upper-left,
    /// upper-right (if `layer < L`).
    pub fn hexagon(&self, layer: u32, col: u32) -> Vec<NodeId> {
        let c = col as i64;
        let mut v = vec![self.node(layer, c - 1), self.node(layer, c + 1)];
        if layer > 0 {
            v.push(self.node(layer - 1, c));
            v.push(self.node(layer - 1, c + 1));
        }
        if layer < self.length {
            v.push(self.node(layer + 1, c - 1));
            v.push(self.node(layer + 1, c));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_grid_dimensions() {
        let g = HexGrid::paper();
        assert_eq!(g.length(), 50);
        assert_eq!(g.width(), 20);
        assert_eq!(g.node_count(), 51 * 20);
        assert_eq!(g.graph().source_ids().count(), 20);
    }

    #[test]
    fn link_counts() {
        let g = HexGrid::new(3, 5);
        // Each of the 3·5 forwarder nodes has exactly 4 in-links.
        assert_eq!(g.graph().link_count(), 3 * 5 * 4);
        for layer in 1..=3 {
            for col in 0..5 {
                assert_eq!(g.graph().port_count(g.node(layer, col as i64)), 4);
            }
        }
        for col in 0..5 {
            assert_eq!(g.graph().port_count(g.node(0, col)), 0);
        }
    }

    #[test]
    fn out_degree() {
        let g = HexGrid::new(3, 5);
        // Sources: 2 out-links (to upper-left and upper-right receivers).
        for col in 0..5 {
            assert_eq!(g.graph().out_links(g.node(0, col)).len(), 2);
        }
        // Middle layers: 4 out-links (left, right, up-left, up-right).
        for col in 0..5 {
            assert_eq!(g.graph().out_links(g.node(1, col)).len(), 4);
            assert_eq!(g.graph().out_links(g.node(2, col)).len(), 4);
        }
        // Top layer: only the 2 intra-layer out-links.
        for col in 0..5 {
            assert_eq!(g.graph().out_links(g.node(3, col)).len(), 2);
        }
    }

    #[test]
    fn port_neighbors_match_figure1() {
        let g = HexGrid::new(4, 7);
        let n = g.node(2, 3);
        let graph = g.graph();
        assert_eq!(graph.in_neighbor(n, PORT_LEFT), g.node(2, 2));
        assert_eq!(graph.in_neighbor(n, PORT_LOWER_LEFT), g.node(1, 3));
        assert_eq!(graph.in_neighbor(n, PORT_LOWER_RIGHT), g.node(1, 4));
        assert_eq!(graph.in_neighbor(n, PORT_RIGHT), g.node(2, 4));
    }

    #[test]
    fn wraparound_columns() {
        let g = HexGrid::new(2, 4);
        let n = g.node(1, 0);
        assert_eq!(g.graph().in_neighbor(n, PORT_LEFT), g.node(1, 3));
        let m = g.node(1, 3);
        assert_eq!(g.graph().in_neighbor(m, PORT_RIGHT), g.node(1, 0));
        assert_eq!(g.graph().in_neighbor(m, PORT_LOWER_RIGHT), g.node(0, 0));
    }

    #[test]
    fn coord_roundtrip() {
        let g = HexGrid::new(5, 9);
        for layer in 0..=5 {
            for col in 0..9 {
                let n = g.node(layer, col as i64);
                assert_eq!(g.coord_of(n), Coord::new(layer, col));
                assert_eq!(g.graph().coord(n), Some(Coord::new(layer, col)));
            }
        }
    }

    #[test]
    fn hexagon_shape() {
        let g = HexGrid::new(4, 7);
        // Interior node: full hexagon of 6 neighbors.
        assert_eq!(g.hexagon(2, 3).len(), 6);
        // Bottom layer: no lower neighbors.
        assert_eq!(g.hexagon(0, 3).len(), 4);
        // Top layer: no upper neighbors.
        assert_eq!(g.hexagon(4, 3).len(), 4);
    }

    #[test]
    #[should_panic(expected = "width ≥ 3")]
    fn rejects_narrow() {
        HexGrid::new(3, 2);
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The grid's link structure is self-consistent: the out-links of
        /// (ℓ, i) point exactly at its upper-left/upper-right/left/right
        /// neighbors, and the in/out link sets are mirror images.
        #[test]
        fn prop_in_out_consistency(l in 1u32..6, w in 3u32..10) {
            let g = HexGrid::new(l, w);
            let graph = g.graph();
            for n in graph.node_ids() {
                for &lid in graph.out_links(n) {
                    let link = graph.link(lid);
                    prop_assert_eq!(link.src, n);
                    // The receiver's in-link at that port is this link.
                    prop_assert_eq!(graph.in_links(link.dst)[link.dst_port as usize], lid);
                }
            }
            // Total in-degree equals total out-degree equals link count.
            let in_total: usize = graph.node_ids().map(|n| graph.in_links(n).len()).sum();
            let out_total: usize = graph.node_ids().map(|n| graph.out_links(n).len()).sum();
            prop_assert_eq!(in_total, graph.link_count());
            prop_assert_eq!(out_total, graph.link_count());
        }

        /// Every forwarder's in-neighbors agree with the coordinate math of
        /// `hex_in_neighbor` (mod-W wraparound included).
        #[test]
        fn prop_ports_match_coords(l in 1u32..6, w in 3u32..10) {
            let g = HexGrid::new(l, w);
            for layer in 1..=l {
                for col in 0..w {
                    let n = g.node(layer, col as i64);
                    for port in 0..4u8 {
                        prop_assert_eq!(
                            g.graph().in_neighbor(n, port),
                            g.hex_in_neighbor(layer, col, port)
                        );
                    }
                }
            }
        }

        /// Translation symmetry: shifting all columns by s maps the link set
        /// onto itself.
        #[test]
        fn prop_translation_symmetry(l in 1u32..5, w in 3u32..9, s in 1u32..9) {
            let g = HexGrid::new(l, w);
            for layer in 1..=l {
                for col in 0..w {
                    let n = g.node(layer, col as i64);
                    let n_shift = g.node(layer, (col + s) as i64);
                    for port in 0..4u8 {
                        let a = g.coord_of(g.graph().in_neighbor(n, port));
                        let b = g.coord_of(g.graph().in_neighbor(n_shift, port));
                        prop_assert_eq!(a.layer, b.layer);
                        prop_assert_eq!((a.col + s) % w, b.col);
                    }
                }
            }
        }
    }
}
