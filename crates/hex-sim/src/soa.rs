//! Structure-of-arrays node state for the engine hot loop.
//!
//! [`SoaNodes`] carries the same dynamic state as one [`NodeState`] per node
//! — firing machine, per-port memory flags, and the epoch counters that
//! cancel stale timers — but split into parallel vectors so batch kernels
//! touch dense arrays instead of chasing one heap allocation per node:
//!
//! * `sleeping[n]` / `sleep_epochs[n]` — the firing state machine,
//! * `flags[..]` / `flag_epochs[..]` — all ports of all nodes flattened into
//!   one pair of arrays, with `port_base[n]..port_base[n + 1]` delimiting
//!   node `n`'s slice (CSR-style offsets, matching the link layout in
//!   [`PulseGraph`]).
//!
//! Every transition method mirrors the corresponding [`NodeState`] method
//! *exactly* — same epoch bumps, same return values, same panics — so the
//! engine's batch kernel runs Algorithm 1 unchanged. The parity proptest
//! at the bottom drives both representations through identical random
//! operation sequences and compares every observable after every step.
//! `fire_count` is intentionally not replicated: the engine never reads it
//! (fires are counted by the trace).

use hex_core::node::ArbitraryEpochs;
use hex_core::{NodeId, PulseGraph};
// The reference every transition mirrors; only the docs and the parity
// tests name it.
#[cfg(any(test, doc))]
use hex_core::NodeState;

/// Parallel-vector node state for a whole graph. See the module docs.
#[derive(Debug, Default)]
pub struct SoaNodes {
    /// Firing machine per node: `true` = `Sleeping`, `false` = `Ready`.
    sleeping: Vec<bool>,
    /// Sleep-timer epoch per node.
    sleep_epochs: Vec<u32>,
    /// CSR offsets: node `n`'s ports live at `port_base[n]..port_base[n+1]`.
    /// Always `node_count + 1` entries (last = total port count).
    port_base: Vec<u32>,
    /// Memory flag per (node, in-port), flattened.
    flags: Vec<bool>,
    /// Flag-timer epoch per (node, in-port), flattened.
    flag_epochs: Vec<u32>,
}

impl SoaNodes {
    /// Empty state holding no nodes; [`SoaNodes::rebuild`] sizes it.
    pub fn new() -> Self {
        SoaNodes::default()
    }

    /// Resize for `graph` and reset every node to the clean state
    /// ([`NodeState::clean`]: ready, flags clear, epochs zero).
    pub fn rebuild(&mut self, graph: &PulseGraph) {
        let nodes = graph.node_count();
        self.port_base.clear();
        self.port_base.reserve(nodes + 1);
        let mut total = 0u32;
        self.port_base.push(0);
        for id in graph.node_ids() {
            total += graph.port_count(id) as u32;
            self.port_base.push(total);
        }
        self.sleeping.clear();
        self.sleeping.resize(nodes, false);
        self.sleep_epochs.clear();
        self.sleep_epochs.resize(nodes, 0);
        self.flags.clear();
        self.flags.resize(total as usize, false);
        self.flag_epochs.clear();
        self.flag_epochs.resize(total as usize, 0);
    }

    /// Reset to the clean state without changing shape. Equivalent to
    /// [`NodeState::reset_clean`] on every node: a reset state is
    /// indistinguishable from a freshly built one, so scratch reuse cannot
    /// perturb determinism.
    pub fn reset_clean(&mut self) {
        self.sleeping.fill(false);
        self.sleep_epochs.fill(0);
        self.flags.fill(false);
        self.flag_epochs.fill(0);
    }

    /// Whether the current shape matches `graph` (same node count, same
    /// per-node port counts). Used by scratch recycling to decide between
    /// [`SoaNodes::reset_clean`] and [`SoaNodes::rebuild`].
    pub fn matches(&self, graph: &PulseGraph) -> bool {
        self.sleeping.len() == graph.node_count()
            && self.port_base.len() == graph.node_count() + 1
            && graph
                .node_ids()
                .all(|id| self.ports(id) == graph.port_count(id))
    }

    /// Number of in-ports of `node`.
    pub fn ports(&self, node: NodeId) -> usize {
        let n = node as usize;
        (self.port_base[n + 1] - self.port_base[n]) as usize
    }

    #[inline]
    fn slot(&self, node: NodeId, port: u8) -> usize {
        let i = self.port_base[node as usize] as usize + port as usize;
        debug_assert!(
            (port as usize) < self.ports(node),
            "port {port} out of range for node {node}"
        );
        i
    }

    /// Whether `node` is sleeping (`FiringState::Sleeping`).
    #[inline]
    pub fn is_sleeping(&self, node: NodeId) -> bool {
        self.sleeping[node as usize]
    }

    /// Current sleep epoch of `node`.
    #[inline]
    pub fn sleep_epoch(&self, node: NodeId) -> u32 {
        self.sleep_epochs[node as usize]
    }

    /// Current epoch of the flag of (`node`, `port`).
    #[inline]
    pub fn flag_epoch(&self, node: NodeId, port: u8) -> u32 {
        self.flag_epochs[self.slot(node, port)]
    }

    /// Trigger message received on `port` (mirrors [`NodeState::set_flag`]):
    /// `Some(new_epoch)` if the flag was newly set, `None` if already set.
    #[inline]
    pub fn set_flag(&mut self, node: NodeId, port: u8) -> Option<u32> {
        let i = self.slot(node, port);
        if self.flags[i] {
            return None;
        }
        self.flags[i] = true;
        self.flag_epochs[i] += 1;
        Some(self.flag_epochs[i])
    }

    /// Link timeout expired (mirrors [`NodeState::expire_flag`]): clears the
    /// flag and returns `true` iff it is set *and* `epoch` is current.
    #[inline]
    pub fn expire_flag(&mut self, node: NodeId, port: u8, epoch: u32) -> bool {
        let i = self.slot(node, port);
        if self.flags[i] && self.flag_epochs[i] == epoch {
            self.flags[i] = false;
            self.flag_epochs[i] += 1;
            true
        } else {
            false
        }
    }

    /// Index of the first satisfied guard pair (mirrors
    /// [`NodeState::satisfied_guard`]).
    #[inline]
    pub fn satisfied_guard(&self, node: NodeId, guard: &[(u8, u8)]) -> Option<usize> {
        let base = self.port_base[node as usize] as usize;
        let flags = &self.flags[base..self.port_base[node as usize + 1] as usize];
        guard
            .iter()
            .position(|&(a, b)| flags[a as usize] && flags[b as usize])
    }

    /// Fire (mirrors [`NodeState::fire`]): ready → sleeping, returning the
    /// new sleep epoch for the wake-up event.
    ///
    /// # Panics
    ///
    /// Panics if `node` is sleeping, exactly like [`NodeState::fire`].
    #[inline]
    pub fn fire(&mut self, node: NodeId) -> u32 {
        let n = node as usize;
        assert!(!self.sleeping[n], "node {node} fired while sleeping");
        self.sleeping[n] = true;
        self.sleep_epochs[n] += 1;
        self.sleep_epochs[n]
    }

    /// Sleep timeout expired (mirrors [`NodeState::wake`]): sleeping → ready
    /// and all flags cleared iff `epoch` is current.
    #[inline]
    pub fn wake(&mut self, node: NodeId, epoch: u32) -> bool {
        let n = node as usize;
        if self.sleeping[n] && self.sleep_epochs[n] == epoch {
            self.sleeping[n] = false;
            self.clear_all_flags(node);
            true
        } else {
            false
        }
    }

    /// Clear every set flag of `node`, bumping its epoch (mirrors
    /// [`NodeState::clear_all_flags`]).
    #[inline]
    pub fn clear_all_flags(&mut self, node: NodeId) {
        let lo = self.port_base[node as usize] as usize;
        let hi = self.port_base[node as usize + 1] as usize;
        for i in lo..hi {
            if self.flags[i] {
                self.flags[i] = false;
                self.flag_epochs[i] += 1;
            }
        }
    }

    /// Force an arbitrary state for self-stabilization experiments (mirrors
    /// [`NodeState::force_arbitrary`]): set the firing machine, bump the
    /// sleep epoch unconditionally, clear-then-set flags, and return the
    /// epochs for the caller's residual timeout events.
    pub fn force_arbitrary(
        &mut self,
        node: NodeId,
        sleeping: bool,
        set_flags: &[u8],
    ) -> ArbitraryEpochs {
        let n = node as usize;
        self.sleeping[n] = sleeping;
        self.sleep_epochs[n] += 1;
        self.clear_all_flags(node);
        let mut flag_epochs = Vec::with_capacity(set_flags.len());
        for &port in set_flags {
            let e = self
                .set_flag(node, port)
                .expect("duplicate port in set_flags");
            flag_epochs.push((port, e));
        }
        ArbitraryEpochs {
            sleep_epoch: if sleeping {
                Some(self.sleep_epochs[n])
            } else {
                None
            },
            flag_epochs,
        }
    }
}

/// Readers only the tests use: the node count, single flags, and the
/// parity check against a [`NodeState`] reference.
#[cfg(test)]
impl SoaNodes {
    /// Number of nodes currently held.
    pub fn node_count(&self) -> usize {
        self.sleeping.len()
    }

    /// Whether the flag of (`node`, `port`) is set.
    pub fn flag(&self, node: NodeId, port: u8) -> bool {
        self.flags[self.slot(node, port)]
    }

    /// Compare every observable of `node` against a [`NodeState`]
    /// reference.
    pub fn parity_eq(&self, reference: &NodeState) -> bool {
        let node = reference.id();
        let sleeping = reference.firing_state() == hex_core::FiringState::Sleeping;
        self.ports(node) == reference.ports()
            && self.is_sleeping(node) == sleeping
            && self.sleep_epoch(node) == reference.sleep_epoch()
            && (0..reference.ports() as u8).all(|p| {
                self.flag(node, p) == reference.flag(p)
                    && self.flag_epoch(node, p) == reference.flag_epoch(p)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hex_core::HexGrid;
    use proptest::prelude::*;

    fn grid_graph() -> PulseGraph {
        HexGrid::new(6, 4).into_graph()
    }

    fn fresh_pair() -> (SoaNodes, Vec<NodeState>) {
        let graph = grid_graph();
        let mut soa = SoaNodes::new();
        soa.rebuild(&graph);
        let aos = graph
            .node_ids()
            .map(|id| NodeState::clean(id, graph.port_count(id)))
            .collect();
        (soa, aos)
    }

    #[test]
    fn rebuild_matches_graph_shape() {
        let graph = grid_graph();
        let mut soa = SoaNodes::new();
        assert!(!soa.matches(&graph));
        soa.rebuild(&graph);
        assert!(soa.matches(&graph));
        assert_eq!(soa.node_count(), graph.node_count());
        for id in graph.node_ids() {
            assert_eq!(soa.ports(id), graph.port_count(id));
        }
        // A different geometry no longer matches.
        let other = HexGrid::new(5, 4).into_graph();
        assert!(!soa.matches(&other));
    }

    #[test]
    fn reset_clean_equals_rebuild() {
        let graph = grid_graph();
        let (mut soa, _) = fresh_pair();
        soa.fire(3);
        soa.set_flag(7, 1);
        soa.force_arbitrary(9, true, &[0, 2]);
        soa.reset_clean();
        let mut fresh = SoaNodes::new();
        fresh.rebuild(&graph);
        for id in graph.node_ids() {
            assert_eq!(soa.is_sleeping(id), fresh.is_sleeping(id));
            assert_eq!(soa.sleep_epoch(id), fresh.sleep_epoch(id));
            for p in 0..soa.ports(id) as u8 {
                assert_eq!(soa.flag(id, p), fresh.flag(id, p));
                assert_eq!(soa.flag_epoch(id, p), fresh.flag_epoch(id, p));
            }
        }
    }

    #[test]
    #[should_panic(expected = "fired while sleeping")]
    fn fire_while_sleeping_panics_like_nodestate() {
        let (mut soa, _) = fresh_pair();
        soa.fire(5);
        soa.fire(5);
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Drive SoA and per-node-struct state through the same random
        /// operation sequence; every return value and every observable must
        /// agree after every single step.
        #[test]
        fn prop_soa_matches_nodestate(
            ops in prop::collection::vec(
                (0u32..24, 0u8..4, 0u8..6, any::<bool>()), 1..250),
        ) {
            let (mut soa, mut aos) = fresh_pair();
            for (node, port, op, arg) in ops {
                let node = node % soa.node_count() as u32;
                let st = &mut aos[node as usize];
                let port = (port as usize % st.ports().max(1)) as u8;
                if st.ports() == 0 && matches!(op, 0 | 1) {
                    continue; // sources have no in-ports
                }
                match op {
                    0 => prop_assert_eq!(soa.set_flag(node, port), st.set_flag(port)),
                    1 => {
                        // Mix current and stale epochs.
                        let e = if arg { st.flag_epoch(port) } else { st.flag_epoch(port).wrapping_sub(1) };
                        prop_assert_eq!(soa.expire_flag(node, port, e), st.expire_flag(port, e));
                    }
                    2 => {
                        if st.firing_state() == hex_core::FiringState::Ready {
                            prop_assert_eq!(soa.fire(node), st.fire());
                        }
                    }
                    3 => {
                        let e = if arg { st.sleep_epoch() } else { st.sleep_epoch().wrapping_sub(1) };
                        prop_assert_eq!(soa.wake(node, e), st.wake(e));
                    }
                    4 => {
                        let set: Vec<u8> = if st.ports() >= 2 && arg { vec![0, 1] } else { vec![] };
                        let a = soa.force_arbitrary(node, arg, &set);
                        let b = st.force_arbitrary(arg, &set);
                        prop_assert_eq!(a.sleep_epoch, b.sleep_epoch);
                        prop_assert_eq!(a.flag_epochs, b.flag_epochs);
                    }
                    _ => {
                        soa.clear_all_flags(node);
                        st.clear_all_flags();
                    }
                }
                prop_assert!(soa.parity_eq(&aos[node as usize]), "node {} diverged", node);
            }
            // Final sweep: every node, every observable.
            for st in &aos {
                prop_assert!(soa.parity_eq(st));
            }
            // Guard evaluation parity on the grid guard of each node.
            let graph = grid_graph();
            for id in graph.node_ids() {
                prop_assert_eq!(
                    soa.satisfied_guard(id, graph.guard(id)),
                    aos[id as usize].satisfied_guard(graph.guard(id))
                );
            }
        }
    }
}
