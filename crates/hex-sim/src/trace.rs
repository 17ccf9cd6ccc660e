//! Simulation traces and per-pulse triggering-time matrices.
//!
//! A [`Trace`] records every firing of every node. For grid-shaped
//! topologies it is reshaped into [`PulseView`]s — the matrices
//! `t^(k)_{ℓ,i}` that all of the paper's statistics (Definition 3 skews,
//! histograms, stabilization estimates) are computed from.
//!
//! This is the **materialized reference path**; [`assign_pulses`] and
//! [`PulseView::from_single_pulse`] share one binning loop. Sweep workloads
//! that only need the statistics ride the streaming twin instead — a
//! [`PulseBinner`](crate::observe::PulseBinner) observer bins fires to
//! pulses online, byte-identically to [`assign_pulses`] /
//! [`PulseView::from_single_pulse`], without recording a trace at all
//! (see [`crate::observe`]).

use hex_core::{HexGrid, NodeId, TriggerCause};
use hex_des::{Duration, Schedule, Time};

/// A recorded flag-setting message arrival (provenance record; only
/// populated when [`crate::SimConfig::record_arrivals`] is set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Delivery time.
    pub at: Time,
    /// Sending node.
    pub from: NodeId,
    /// Receiving port.
    pub port: u8,
}

/// The raw output of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Per node: chronological `(time, cause)` firing records. Faulty nodes
    /// have no records.
    pub fires: Vec<Vec<(Time, TriggerCause)>>,
    /// Per node: flag-setting message arrivals (empty unless
    /// `record_arrivals` was requested).
    pub arrivals: Vec<Vec<Arrival>>,
    /// The faulty node ids of this run (ascending).
    pub faulty: Vec<NodeId>,
    /// The simulation end time that was enforced.
    pub horizon: Time,
}

impl Trace {
    /// Empty all recorded data while keeping the per-node vectors (and
    /// their capacities) alive, so the next run refills without new
    /// trace-sized allocations. The node count is preserved.
    pub fn clear(&mut self) {
        for f in &mut self.fires {
            f.clear();
        }
        for a in &mut self.arrivals {
            a.clear();
        }
        self.faulty.clear();
        self.horizon = Time::ZERO;
    }

    /// Total number of firings across all nodes.
    pub fn total_fires(&self) -> usize {
        self.fires.iter().map(Vec::len).sum()
    }

    /// The single firing time of `node`, if it fired exactly once.
    pub fn unique_fire(&self, node: NodeId) -> Option<Time> {
        match self.fires[node as usize].as_slice() {
            [(t, _)] => Some(*t),
            _ => None,
        }
    }

    /// True iff `node` is in the faulty set.
    pub fn is_faulty(&self, node: NodeId) -> bool {
        self.faulty.binary_search(&node).is_ok()
    }
}

/// The triggering-time matrix of one pulse on a `(L+1) × W` grid:
/// `t[ℓ][i]` is the first triggering time of node `(ℓ, i)` binned to this
/// pulse, `None` for nodes that did not fire (faulty or starved). Further
/// firings binned to the same pulse are counted in
/// [`PulseView::spurious`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PulseView {
    /// Triggering times, `[layer][column]`.
    pub t: Vec<Vec<Option<Time>>>,
    /// Trigger causes, `[layer][column]`.
    pub cause: Vec<Vec<Option<TriggerCause>>>,
    /// Number of firings that mapped to this pulse beyond the first, per
    /// grid (ambiguity indicator; 0 in every well-separated run).
    pub spurious: usize,
}

impl PulseView {
    /// Grid length `L` (layers are `0..=L`).
    pub fn length(&self) -> u32 {
        self.t.len() as u32 - 1
    }

    /// Grid width `W`.
    pub fn width(&self) -> u32 {
        self.t[0].len() as u32
    }

    /// Triggering time of `(layer, col)` (cyclic column).
    pub fn time(&self, layer: u32, col: i64) -> Option<Time> {
        let w = self.width() as i64;
        self.t[layer as usize][col.rem_euclid(w) as usize]
    }

    /// Trigger cause of `(layer, col)` (cyclic column).
    pub fn trigger_cause(&self, layer: u32, col: i64) -> Option<TriggerCause> {
        let w = self.width() as i64;
        self.cause[layer as usize][col.rem_euclid(w) as usize]
    }

    /// True iff every non-excluded node has a unique triggering time.
    /// `excluded` is an ascending list of node ids (e.g. faulty nodes).
    pub fn complete_except(&self, grid: &HexGrid, excluded: &[NodeId]) -> bool {
        for layer in 0..=self.length() {
            for col in 0..self.width() {
                let n = grid.node(layer, col as i64);
                if excluded.binary_search(&n).is_ok() {
                    continue;
                }
                if self.t[layer as usize][col as usize].is_none() {
                    return false;
                }
            }
        }
        true
    }

    /// Build a single-pulse view directly from a trace (every node's first
    /// firing; further firings count as spurious).
    pub fn from_single_pulse(grid: &HexGrid, trace: &Trace) -> PulseView {
        bin_pulses(grid, trace, 1, |_, _| Time::ZERO, Duration::ZERO)
            .pop()
            .expect("one pulse, one view")
    }
}

/// The layer-0 time of pulse `k` in column `col`: the column's own source
/// entry, or for a mute source the pulse's earliest source time (zero if
/// no source has pulse `k`).
pub(crate) fn column_base(schedule: &Schedule, col: usize, k: usize) -> Time {
    schedule
        .source(col)
        .get(k)
        .copied()
        .unwrap_or_else(|| schedule.t_min(k).unwrap_or(Time::ZERO))
}

/// The index of the entry of `base` (ascending) nearest to `t`: ties go to
/// the earlier pulse, and times outside the range clamp to the first or
/// last entry. The one nearest-expected-pulse rule of [`assign_pulses`]
/// and the streaming [`PulseBinner`](crate::observe::PulseBinner).
#[inline]
pub(crate) fn nearest_pulse(base: &[Time], t: Time) -> usize {
    match base.binary_search(&t) {
        Ok(k) | Err(k @ 0) => k,
        Err(ins) if ins >= base.len() => base.len() - 1,
        Err(ins) => {
            if t - base[ins - 1] <= base[ins] - t {
                ins - 1
            } else {
                ins
            }
        }
    }
}

/// Bin the firings of a multi-pulse run into per-pulse views.
///
/// Each node's expected triggering time for pulse `k` is its column's
/// layer-0 schedule entry plus `layer · d_mid` propagation (with `d_mid` the
/// midpoint delay); each firing is assigned to the pulse with the nearest
/// expected time. This is the paper's "unambiguously assigning a
/// corresponding pulse number to a triggering time" post-processing
/// (Section 4.4) — unambiguous because pulse separation times dwarf
/// accumulated jitter; any residual ambiguity is surfaced via
/// [`PulseView::spurious`].
pub fn assign_pulses(
    grid: &HexGrid,
    trace: &Trace,
    schedule: &Schedule,
    d_mid: Duration,
) -> Vec<PulseView> {
    let base = |col, k| column_base(schedule, col, k);
    bin_pulses(grid, trace, schedule.pulses(), base, d_mid)
}

/// The one binning loop of [`assign_pulses`] and
/// [`PulseView::from_single_pulse`]. A node's expected time of pulse `k`
/// is its column's `base(col, k)` plus `layer · d_mid`, so each firing
/// shifted back by `layer · d_mid` is searched against the column bases;
/// with one pulse, every firing bins to pulse 0. The first firing binned to
/// a slot claims it, and later ones count as spurious.
fn bin_pulses(
    grid: &HexGrid,
    trace: &Trace,
    pulses: usize,
    base: impl Fn(usize, usize) -> Time,
    d_mid: Duration,
) -> Vec<PulseView> {
    let (l, w) = (grid.length(), grid.width() as usize);
    let blank = PulseView {
        t: vec![vec![None; w]; l as usize + 1],
        cause: vec![vec![None; w]; l as usize + 1],
        spurious: 0,
    };
    let mut views = vec![blank; pulses];
    let mut bases = Vec::with_capacity(pulses);
    for col in 0..w {
        bases.clear();
        bases.extend((0..pulses).map(|k| base(col, k)));
        for layer in 0..=l {
            let n = grid.node(layer, col as i64);
            let shift = d_mid.times(layer as i64);
            let row = layer as usize;
            for &(time, cause) in &trace.fires[n as usize] {
                let view = &mut views[nearest_pulse(&bases, time - shift)];
                if view.t[row][col].is_none() {
                    view.t[row][col] = Some(time);
                    view.cause[row][col] = Some(cause);
                } else {
                    view.spurious += 1;
                }
            }
        }
    }
    views
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, InitState, SimConfig};
    use hex_clock::{PulseTrain, Scenario};
    use hex_core::Timing;
    use hex_des::SimRng;

    #[test]
    fn single_pulse_view_roundtrip() {
        let grid = HexGrid::new(5, 6);
        let sched = Schedule::single_pulse(vec![Time::ZERO; 6]);
        let trace = simulate(grid.graph(), &sched, &SimConfig::fault_free(), 3);
        let view = PulseView::from_single_pulse(&grid, &trace);
        assert_eq!(view.length(), 5);
        assert_eq!(view.width(), 6);
        assert_eq!(view.spurious, 0);
        assert!(view.complete_except(&grid, &[]));
        for n in grid.graph().node_ids() {
            let c = grid.coord_of(n);
            assert_eq!(view.time(c.layer, c.col as i64), trace.unique_fire(n));
        }
    }

    #[test]
    fn cyclic_column_access() {
        let grid = HexGrid::new(2, 5);
        let sched = Schedule::single_pulse(vec![Time::ZERO; 5]);
        let trace = simulate(grid.graph(), &sched, &SimConfig::fault_free(), 4);
        let view = PulseView::from_single_pulse(&grid, &trace);
        assert_eq!(view.time(1, -1), view.time(1, 4));
        assert_eq!(view.time(1, 5), view.time(1, 0));
    }

    #[test]
    fn multi_pulse_assignment_is_exact_for_clean_runs() {
        let grid = HexGrid::new(6, 6);
        let mut rng = SimRng::seed_from_u64(9);
        let train = PulseTrain::new(Scenario::RandomDPlus, 5, Duration::from_ns(300.0));
        let sched = train.generate(6, &mut rng);
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &sched, &cfg, 10);
        let views = assign_pulses(&grid, &trace, &sched, hex_core::DelayRange::paper().mid());
        assert_eq!(views.len(), 5);
        for (k, v) in views.iter().enumerate() {
            assert_eq!(v.spurious, 0, "pulse {k}");
            assert!(v.complete_except(&grid, &[]), "pulse {k} incomplete");
        }
        // Monotone: pulse k+1 strictly after pulse k at every node.
        for layer in 0..=6 {
            for col in 0..6i64 {
                for k in 0..4 {
                    assert!(
                        views[k].time(layer, col).unwrap() < views[k + 1].time(layer, col).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn arbitrary_init_assignment_reports_consistency_late() {
        let grid = HexGrid::new(4, 6);
        let mut rng = SimRng::seed_from_u64(11);
        let train = PulseTrain::new(Scenario::Zero, 6, Duration::from_ns(300.0));
        let sched = train.generate(6, &mut rng);
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            init: InitState::Arbitrary,
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &sched, &cfg, 12);
        let views = assign_pulses(&grid, &trace, &sched, hex_core::DelayRange::paper().mid());
        // The final pulse must be complete (stabilization well before it).
        assert!(views.last().unwrap().complete_except(&grid, &[]));
    }

    /// The nearest-pulse rule both binning paths share: exact hits, the
    /// nearest entry with ties going to the earlier pulse, and clamping
    /// outside the range.
    #[test]
    fn nearest_pulse_breaks_ties_early_and_clamps() {
        let base = [Time::from_ps(100), Time::from_ps(200), Time::from_ps(400)];
        let at = |ps| nearest_pulse(&base, Time::from_ps(ps));
        assert_eq!(at(200), 1);
        assert_eq!((at(149), at(150), at(151)), (0, 0, 1));
        assert_eq!((at(299), at(300), at(301)), (1, 1, 2));
        assert_eq!((at(-5), at(100), at(900)), (0, 0, 2));
        assert_eq!(nearest_pulse(&base[..1], Time::from_ps(900)), 0);
    }

    #[test]
    fn trace_helpers() {
        let grid = HexGrid::new(2, 4);
        let sched = Schedule::single_pulse(vec![Time::ZERO; 4]);
        let trace = simulate(grid.graph(), &sched, &SimConfig::fault_free(), 5);
        assert_eq!(trace.total_fires(), grid.node_count());
        assert!(!trace.is_faulty(grid.node(1, 1)));
        assert!(trace.unique_fire(grid.node(2, 0)).is_some());
    }
}
