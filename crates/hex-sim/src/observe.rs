//! Streaming run observers: the engine's fire-recording path as a sealed
//! abstraction.
//!
//! Historically every statistic flowed through the same funnel: the engine
//! recorded all fires into a [`Trace`](crate::Trace), the trace was
//! reshaped into per-pulse [`PulseView`](crate::PulseView) matrices, and
//! `hex-analysis` folded the matrices into skew samples and stabilization
//! estimates. For sweep-style workloads the matrices are pure intermediate
//! state — the paper's headline numbers are *statistics over pulses*, not
//! traces — so this module lets the engine stream each fire directly into
//! an observer instead:
//!
//! * [`RunObserver`] — the sealed per-fire hook the event loop is
//!   monomorphized over (one instantiation per observer, no per-event
//!   dispatch);
//! * [`PulseBinner`] — the production observer: bins each firing to its
//!   pulse **online**, exactly replicating the post-hoc assignment of
//!   [`assign_pulses`](crate::assign_pulses) (nearest expected time,
//!   first-fire-wins, extras counted as spurious) without ever holding a
//!   trace or a matrix.
//!
//! The trait is **sealed** because the byte-equality walls (observer-backed
//! statistics identical to the materialized `PulseView` path, across
//! thread counts) only cover the observers defined here.
//!
//! ```
//! use hex_clock::Scenario;
//! use hex_sim::{PulseBinner, RunSpec, SimScratch};
//!
//! let spec = RunSpec::grid(6, 5).runs(2).seed(7).scenario(Scenario::Zero);
//! let grid = spec.hex_grid();
//! let mut scratch = SimScratch::new();
//! let binner: &PulseBinner = spec.run_one_observed_into(&grid, &mut scratch, 0);
//! assert_eq!(binner.pulses(), 1);
//! // Every node's firing time is available without a PulseView detour.
//! for layer in 0..=6 {
//!     for col in 0..5i64 {
//!         assert!(binner.grid_time(0, layer, col).is_some());
//!     }
//! }
//! ```

use hex_core::{HexGrid, NodeId, TriggerCause};
use hex_des::{Duration, Schedule, Time};

use crate::trace::{column_base, nearest_pulse};

pub(crate) mod sealed {
    /// Only observers covered by the observer-equivalence walls may
    /// implement [`super::RunObserver`].
    pub trait Sealed {}
}

/// A per-fire hook the engine's event loop is monomorphized over (sealed;
/// see the [module docs](self)).
///
/// [`on_fire`](RunObserver::on_fire) is called exactly where the trace
/// path records a firing: once per (node, time, cause) firing record, in
/// event order, and never for faulty nodes.
pub trait RunObserver: sealed::Sealed {
    /// Observe one firing.
    fn on_fire(&mut self, node: NodeId, at: Time, cause: TriggerCause);
}

/// Observer that streams fires into per-node, per-pulse first-fire slots —
/// the online twin of [`assign_pulses`](crate::assign_pulses) (multi-pulse
/// runs) and
/// [`PulseView::from_single_pulse`](crate::PulseView::from_single_pulse)
/// (single-pulse runs).
///
/// The slot layout is a flat node-major buffer reused across runs (it
/// lives in [`SimScratch`](crate::SimScratch)); [`PulseBinner::prepare`]
/// makes it observationally identical to a fresh binner while recycling
/// every allocation, like the rest of the scratch.
#[derive(Debug, Clone, Default)]
pub struct PulseBinner {
    /// Pulses per run (≥ 1).
    pulses: usize,
    /// Grid shape recorded at prepare time.
    length: u32,
    width: u32,
    /// First firing time binned to `slots[node · pulses + k]`, else `None`.
    slots: Vec<Option<Time>>,
    /// Per-column expected layer-0 times, column-major:
    /// `colbase[col · pulses + k]` (multi-pulse runs only).
    colbase: Vec<Time>,
    /// Per-node propagation shift `d_mid · layer` (multi-pulse runs only).
    node_shift: Vec<Duration>,
    /// Per-node column index (multi-pulse runs only).
    node_col: Vec<u32>,
    /// Firings beyond the first binned to an already-claimed slot — the
    /// sum of [`PulseView::spurious`](crate::PulseView::spurious) over the
    /// run's views.
    spurious: usize,
    /// Faulty node ids of the observed run (ascending).
    faulty: Vec<NodeId>,
}

impl PulseBinner {
    /// An empty binner; buffers are grown on first
    /// [`prepare`](PulseBinner::prepare) and reused after.
    pub fn new() -> Self {
        PulseBinner::default()
    }

    /// Reset for one run of `schedule` on `grid`, reusing buffer capacity:
    /// afterwards the binner is observationally identical to a fresh one.
    ///
    /// `d_mid` is the midpoint link delay used by the expected-time model
    /// (the same value [`assign_pulses`](crate::assign_pulses) takes);
    /// `faulty` is the run's ascending faulty node set.
    pub fn prepare(
        &mut self,
        grid: &HexGrid,
        schedule: &Schedule,
        d_mid: Duration,
        faulty: &[NodeId],
    ) {
        let n = grid.node_count();
        self.pulses = schedule.pulses().max(1);
        self.length = grid.length();
        self.width = grid.width();
        self.slots.clear();
        self.slots.resize(n * self.pulses, None);
        self.spurious = 0;
        self.faulty.clear();
        self.faulty.extend_from_slice(faulty);

        if self.pulses <= 1 {
            // Single-pulse fast path: no expected-time model needed.
            self.colbase.clear();
            self.node_shift.clear();
            self.node_col.clear();
            return;
        }

        // Per-column expected layer-0 times, exactly as `assign_pulses`
        // derives them.
        let w = self.width as usize;
        self.colbase.clear();
        self.colbase.reserve(w * self.pulses);
        for col in 0..w {
            self.colbase
                .extend((0..self.pulses).map(|k| column_base(schedule, col, k)));
        }

        // Per-node binning tables (shape-dependent only, but rebuilt per
        // run: O(nodes), dwarfed by the run itself).
        self.node_shift.clear();
        self.node_col.clear();
        self.node_shift.reserve(n);
        self.node_col.reserve(n);
        for node in grid.graph().node_ids() {
            let c = grid.coord_of(node);
            self.node_shift.push(d_mid.times(c.layer as i64));
            self.node_col.push(c.col);
        }
    }

    /// Pulses per run this binner was prepared for (≥ 1).
    pub fn pulses(&self) -> usize {
        self.pulses
    }

    /// Grid length `L` of the observed run.
    pub fn length(&self) -> u32 {
        self.length
    }

    /// Grid width `W` of the observed run.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Firings binned to an already-claimed `(node, pulse)` slot — equal to
    /// the sum of `spurious` over the run's materialized views.
    pub fn spurious(&self) -> usize {
        self.spurious
    }

    /// The raw node-major slot buffer (`slots[node · pulses + k]`): the
    /// complete binned observation in one flat view, for walls that pin
    /// two observed runs byte-identical without probing slot by slot.
    pub fn slots(&self) -> &[Option<Time>] {
        &self.slots
    }

    /// Faulty node ids of the observed run (ascending).
    pub fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    /// The first firing time binned to pulse `pulse` of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `pulse >= self.pulses()` — the node-major slot layout
    /// would otherwise alias another node's slot in-bounds, so an
    /// out-of-range pulse must fail loudly here, exactly like indexing
    /// `views[pulse]` does on the materialized path.
    #[inline]
    pub fn time(&self, pulse: usize, node: NodeId) -> Option<Time> {
        assert!(
            pulse < self.pulses,
            "pulse {pulse} out of range: the observed run recorded only {} pulse(s)",
            self.pulses
        );
        self.slots[node as usize * self.pulses + pulse]
    }

    /// The first firing time binned to pulse `pulse` of grid node
    /// `(layer, col)` (cyclic column, like
    /// [`PulseView::time`](crate::PulseView::time)).
    pub fn grid_time(&self, pulse: usize, layer: u32, col: i64) -> Option<Time> {
        let w = self.width as i64;
        let node = layer * self.width + col.rem_euclid(w) as u32;
        self.time(pulse, node)
    }

    /// Bin one firing: claim the nearest-expected-pulse slot if it is
    /// still free, else count the firing as spurious. Exactly the
    /// per-firing step of [`assign_pulses`](crate::assign_pulses).
    #[inline]
    fn bin(&mut self, node: NodeId, at: Time) {
        let k = if self.pulses <= 1 {
            0
        } else {
            let ix = node as usize;
            let base = &self.colbase[self.node_col[ix] as usize * self.pulses..][..self.pulses];
            nearest_pulse(base, at - self.node_shift[ix])
        };
        let slot = &mut self.slots[node as usize * self.pulses + k];
        if slot.is_none() {
            *slot = Some(at);
        } else {
            self.spurious += 1;
        }
    }
}

impl sealed::Sealed for PulseBinner {}

impl RunObserver for PulseBinner {
    #[inline]
    fn on_fire(&mut self, node: NodeId, at: Time, _cause: TriggerCause) {
        self.bin(node, at);
    }
}

/// The trace-recording observer behind [`simulate`](crate::simulate) /
/// [`simulate_into`](crate::simulate_into): appends each firing to the
/// per-node `fires` records, preserving the engine's historical behavior.
pub(crate) struct FireLog<'a> {
    pub(crate) fires: &'a mut [Vec<(Time, TriggerCause)>],
}

impl sealed::Sealed for FireLog<'_> {}

impl RunObserver for FireLog<'_> {
    #[inline]
    fn on_fire(&mut self, node: NodeId, at: Time, cause: TriggerCause) {
        self.fires[node as usize].push((at, cause));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::assign_pulses;
    use crate::{simulate, InitState, SimConfig};
    use hex_clock::{PulseTrain, Scenario};
    use hex_core::Timing;
    use hex_des::SimRng;

    /// Replaying a recorded trace through the binner reproduces the
    /// post-hoc pulse assignment slot for slot — the unit-level version of
    /// the engine-integrated equality pinned in `spec.rs` and the
    /// workspace walls.
    #[test]
    fn replayed_trace_matches_assign_pulses() {
        let grid = HexGrid::new(5, 6);
        let mut rng = SimRng::seed_from_u64(8);
        let sched = PulseTrain::new(Scenario::RandomDPlus, 4, Duration::from_ns(300.0))
            .generate(6, &mut rng);
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            init: InitState::Arbitrary,
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &sched, &cfg, 21);
        let d_mid = hex_core::DelayRange::paper().mid();
        let views = assign_pulses(&grid, &trace, &sched, d_mid);

        let mut binner = PulseBinner::new();
        binner.prepare(&grid, &sched, d_mid, &[]);
        // Replay in per-node chronological order, like the views consume
        // the trace (binning is per-node, so cross-node order is moot).
        for node in grid.graph().node_ids() {
            for &(at, cause) in &trace.fires[node as usize] {
                binner.on_fire(node, at, cause);
            }
        }

        assert_eq!(binner.pulses(), views.len());
        let mut spurious = 0;
        for (k, v) in views.iter().enumerate() {
            spurious += v.spurious;
            for layer in 0..=grid.length() {
                for col in 0..grid.width() as i64 {
                    assert_eq!(
                        binner.grid_time(k, layer, col),
                        v.time(layer, col),
                        "pulse {k} node ({layer},{col})"
                    );
                }
            }
        }
        assert_eq!(binner.spurious(), spurious);
    }

    /// A dirty binner prepared for a new run is indistinguishable from a
    /// fresh one, whatever shape ran through it before.
    #[test]
    fn prepare_resets_to_fresh_state() {
        let big = HexGrid::new(6, 8);
        let small = HexGrid::new(3, 4);
        let mut rng = SimRng::seed_from_u64(4);
        let multi =
            PulseTrain::new(Scenario::Zero, 3, Duration::from_ns(300.0)).generate(8, &mut rng);
        let single = Schedule::single_pulse(vec![Time::ZERO; 4]);
        let d_mid = hex_core::DelayRange::paper().mid();

        let mut dirty = PulseBinner::new();
        dirty.prepare(&big, &multi, d_mid, &[3, 9]);
        for node in big.graph().node_ids() {
            dirty.on_fire(node, Time::from_ps(node as i64), TriggerCause::Source);
            dirty.on_fire(node, Time::from_ps(node as i64), TriggerCause::Source);
        }
        assert!(dirty.spurious() > 0);

        dirty.prepare(&small, &single, d_mid, &[]);
        let mut fresh = PulseBinner::new();
        fresh.prepare(&small, &single, d_mid, &[]);
        assert_eq!(dirty.pulses(), fresh.pulses());
        assert_eq!(dirty.spurious(), 0);
        assert_eq!(dirty.faulty(), fresh.faulty());
        for node in small.graph().node_ids() {
            assert_eq!(dirty.time(0, node), None);
        }
    }
}
