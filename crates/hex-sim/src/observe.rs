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
//! * [`RunObserver`] — the sealed per-event hooks the event loop is
//!   monomorphized over (one instantiation per observer, no per-event
//!   dispatch): every firing, the sleep drawn for it, and every message
//!   arrival that sets a memory flag;
//! * [`PulseBinner`] — the production observer: bins each firing to its
//!   pulse **online**, exactly replicating the post-hoc assignment of
//!   [`assign_pulses`](crate::assign_pulses) (nearest expected time,
//!   first-fire-wins, extras counted as spurious) without ever holding a
//!   trace or a matrix;
//! * the model checker behind [`check_model`](crate::check_model): checks
//!   the paper's Section 2 model as events happen and reports the first
//!   [`Violation`], or [`CheckStats`] that show what it checked.
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

use hex_core::{
    DelayRange, FaultScript, HexGrid, LinkBehavior, NodeId, PulseGraph, Role, TriggerCause,
};
use hex_des::{Duration, Schedule, Time};

use crate::engine::{InitState, SimConfig};
use crate::trace::{column_base, nearest_pulse};

pub(crate) mod sealed {
    /// Only observers covered by the observer-equivalence walls may
    /// implement [`super::RunObserver`].
    pub trait Sealed {}
}

/// The per-event hooks the engine's event loop is monomorphized over
/// (sealed; see the [module docs](self)). All are called in event order.
///
/// [`on_fire`](RunObserver::on_fire) is called exactly where the trace
/// path records a firing: once per (node, time, cause) firing record, and
/// never for faulty nodes. [`on_sleep`](RunObserver::on_sleep) follows
/// each forwarder firing with the sleep the engine drew for it.
/// [`on_arrival`](RunObserver::on_arrival) is called when a delivered
/// message newly sets a memory flag, before the receiver's guard is
/// evaluated. The defaults of `on_sleep` and `on_arrival` do nothing, so
/// observers that ignore them pay nothing for them.
pub trait RunObserver: sealed::Sealed {
    /// Observe one firing.
    fn on_fire(&mut self, node: NodeId, at: Time, cause: TriggerCause);

    /// Observe one sleep draw: `node`, firing at `at`, sleeps for `sleep`.
    #[inline]
    fn on_sleep(&mut self, _node: NodeId, _at: Time, _sleep: Duration) {}

    /// Observe one flag-setting arrival: a message from `from` set
    /// `node`'s memory flag on `port` at `at`.
    #[inline]
    fn on_arrival(&mut self, _node: NodeId, _port: u8, _from: NodeId, _at: Time) {}
}

/// Observer that streams fires into per-node, per-pulse first-fire slots —
/// the online twin of [`assign_pulses`](crate::assign_pulses), with one
/// nearest-expected-pulse rule for every pulse count (a one-pulse run bins
/// every firing to pulse 0).
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
    /// `colbase[col · pulses + k]`.
    colbase: Vec<Time>,
    /// Per-node propagation shift `d_mid · layer`.
    node_shift: Vec<Duration>,
    /// Per-node column index.
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
        let ix = node as usize;
        let base = &self.colbase[self.node_col[ix] as usize * self.pulses..][..self.pulses];
        let k = nearest_pulse(base, at - self.node_shift[ix]);
        let slot = &mut self.slots[ix * self.pulses + k];
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

/// A breach of the paper's Section 2 model, found by
/// [`check_model`](crate::check_model). Each variant names one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Sleep separation: a forwarder fired twice less than `T−_sleep`
    /// apart.
    SleepViolated {
        /// The node.
        node: NodeId,
        /// Gap between the two firings.
        gap: Duration,
    },
    /// Sleep bounds: a forwarder drew a sleep outside
    /// `[T−_sleep, T+_sleep]`.
    SleepOutOfBounds {
        /// The node.
        node: NodeId,
        /// Firing time the sleep starts at.
        at: Time,
        /// The drawn sleep.
        sleep: Duration,
    },
    /// Source conformance: a correct source fired off its schedule, or
    /// missed a scheduled instant within the horizon.
    SourceMismatch {
        /// The source node.
        node: NodeId,
    },
    /// Fault silence: a node of the fault plan fired.
    FaultyNodeFired {
        /// The node.
        node: NodeId,
    },
    /// Delay bounds: a flag-setting arrival from a correct sender that no
    /// firing of that sender between `d+` and `d−` earlier explains.
    UnexplainedArrival {
        /// Receiving node.
        node: NodeId,
        /// Sending node.
        from: NodeId,
        /// Arrival time.
        at: Time,
    },
    /// Guard support: a forwarder fired on a guard pair with a port
    /// whose latest arrival is missing or older than `T+_link`. Stuck-at-1
    /// ports, and firings up to `T+_link` after a corrupted initial state
    /// (initial flags expire by then), need no arrival.
    UnsupportedFiring {
        /// The firing node.
        node: NodeId,
        /// Firing time.
        at: Time,
        /// The unsupported port.
        port: u8,
    },
    /// Causal floor: a forwarder fired less than `d−` after the sender
    /// firing behind one of its supporting arrivals, i.e. before the
    /// message that enabled it could have arrived.
    CausalFloorViolated {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Gap between the two firings.
        gap: Duration,
    },
}

/// What a run that passed [`check_model`](crate::check_model) was checked
/// against; all zero would mean the check was vacuous.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Sleep draws inside `[T−_sleep, T+_sleep]`.
    pub sleeps_checked: usize,
    /// Arrivals matched to a sender firing between `d+` and `d−` earlier.
    pub arrivals_checked: usize,
    /// Guard ports of forwarder firings supported by an arrival within
    /// `T+_link`.
    pub supports_checked: usize,
    /// Supporting arrivals whose sender fired at least `d−` before the
    /// supported firing.
    pub causal_links_checked: usize,
}

/// The model checker: holds one run's event stream to the rules of
/// [`Violation`], keeping the first breach. Every bound comes from the
/// run's [`SimConfig`].
pub(crate) struct ModelCheck<'a> {
    graph: &'a PulseGraph,
    /// The delay envelope `[d−, d+]`.
    delays: DelayRange,
    /// `T+_link`: how long an arrival can support a firing.
    link_max: Duration,
    /// `[T−_sleep, T+_sleep]`: every sleep a forwarder draws, and so the
    /// least gap between two of its firings.
    sleep: DelayRange,
    /// Forwarders start with flags no arrival set; they expire within
    /// `T+_link` of time 0.
    initial_flags: bool,
    /// Per node: in the fault plan.
    faulty: Vec<bool>,
    /// Per link: may be stuck at 1 (faulty sender or a `StuckOne`
    /// override), so its port needs no arrival.
    stuck: Vec<bool>,
    /// Per node: the scheduled instants within the horizon (correct
    /// sources only).
    due: Vec<&'a [Time]>,
    /// Per node: firing times so far.
    fires: Vec<Vec<Time>>,
    /// Per link: time of the latest flag-setting arrival.
    last_arrival: Vec<Option<Time>>,
    stats: CheckStats,
    violation: Option<Violation>,
}

impl<'a> ModelCheck<'a> {
    /// A checker for one run of `schedule` on `graph` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` carries a non-empty fault script.
    pub(crate) fn new(graph: &'a PulseGraph, schedule: &'a Schedule, cfg: &SimConfig) -> Self {
        assert!(
            cfg.script.as_ref().map_or(true, FaultScript::is_empty),
            "the model check holds nodes to the static fault plan; scripted runs are out of scope"
        );
        let horizon = cfg.horizon_on(graph, schedule);
        let mut faulty = vec![false; graph.node_count()];
        for f in cfg.faults.faulty_nodes() {
            faulty[f as usize] = true;
        }
        let mut stuck: Vec<bool> = (0..graph.link_count() as u32)
            .map(|l| faulty[graph.link(l).src as usize])
            .collect();
        for (l, b) in cfg.faults.link_override_entries() {
            stuck[l as usize] |= b == LinkBehavior::StuckOne;
        }
        let mut due = vec![&[][..]; graph.node_count()];
        for (ix, s) in graph.source_ids().enumerate() {
            if !faulty[s as usize] {
                let list = schedule.source(ix);
                due[s as usize] = &list[..list.partition_point(|&t| t <= horizon)];
            }
        }
        ModelCheck {
            graph,
            delays: cfg.delays.envelope(),
            link_max: cfg.timing.link.hi,
            sleep: cfg.timing.sleep,
            initial_flags: matches!(cfg.init, InitState::Arbitrary | InitState::AllFlagsSet),
            faulty,
            stuck,
            due,
            fires: vec![Vec::new(); graph.node_count()],
            last_arrival: vec![None; graph.link_count()],
            stats: CheckStats::default(),
            violation: None,
        }
    }

    /// Settle the run: the first violation, else a correct source that
    /// missed a scheduled instant, else the counters.
    pub(crate) fn finish(self) -> Result<CheckStats, Violation> {
        if let Some(v) = self.violation {
            return Err(v);
        }
        match (0..self.due.len()).find(|&n| self.fires[n].len() < self.due[n].len()) {
            Some(n) => Err(Violation::SourceMismatch { node: n as NodeId }),
            None => Ok(self.stats),
        }
    }

    fn flag(&mut self, v: Violation) {
        self.violation.get_or_insert(v);
    }

    /// The latest firing of `from` between `d+` and `d−` before `at`: the
    /// send behind an arrival at `at`.
    fn send_behind(&self, from: NodeId, at: Time) -> Option<Time> {
        let fires = &self.fires[from as usize];
        let sent = *fires[..fires.partition_point(|&t| t <= at - self.delays.lo)].last()?;
        (sent >= at - self.delays.hi).then_some(sent)
    }

    /// Guard support and the causal floor for a forwarder firing.
    fn check_support(&mut self, node: NodeId, at: Time, cause: TriggerCause) {
        let ix = match cause {
            TriggerCause::Left => 0,
            TriggerCause::Central => 1,
            TriggerCause::Right => 2,
            TriggerCause::Other(ix) => ix as usize,
            TriggerCause::Source => return,
        };
        let (a, b) = self.graph.guard(node)[ix];
        for port in [a, b] {
            let link = self.graph.in_links(node)[port as usize];
            if self.stuck[link as usize] {
                continue;
            }
            match self.last_arrival[link as usize] {
                Some(arrived) if at - arrived <= self.link_max => {
                    self.stats.supports_checked += 1;
                    let from = self.graph.link(link).src;
                    if let Some(sent) = self.send_behind(from, arrived) {
                        let gap = at - sent;
                        if gap < self.delays.lo {
                            self.flag(Violation::CausalFloorViolated {
                                from,
                                to: node,
                                gap,
                            });
                        } else {
                            self.stats.causal_links_checked += 1;
                        }
                    }
                }
                _ if self.initial_flags && at <= Time::ZERO + self.link_max => {}
                _ => self.flag(Violation::UnsupportedFiring { node, at, port }),
            }
        }
    }
}

impl sealed::Sealed for ModelCheck<'_> {}

impl RunObserver for ModelCheck<'_> {
    fn on_fire(&mut self, node: NodeId, at: Time, cause: TriggerCause) {
        let n = node as usize;
        if self.faulty[n] {
            self.flag(Violation::FaultyNodeFired { node });
        } else if self.graph.role(node) == Role::Source {
            if self.due[n].get(self.fires[n].len()) != Some(&at) {
                self.flag(Violation::SourceMismatch { node });
            }
        } else {
            if let Some(&last) = self.fires[n].last() {
                let gap = at - last;
                if gap < self.sleep.lo {
                    self.flag(Violation::SleepViolated { node, gap });
                }
            }
            self.check_support(node, at, cause);
        }
        self.fires[n].push(at);
    }

    fn on_sleep(&mut self, node: NodeId, at: Time, sleep: Duration) {
        if self.sleep.contains(sleep) {
            self.stats.sleeps_checked += 1;
        } else {
            self.flag(Violation::SleepOutOfBounds { node, at, sleep });
        }
    }

    fn on_arrival(&mut self, node: NodeId, port: u8, from: NodeId, at: Time) {
        let link = self.graph.in_links(node)[port as usize];
        self.last_arrival[link as usize] = Some(at);
        if self.faulty[from as usize] {
            return;
        }
        if self.send_behind(from, at).is_some() {
            self.stats.arrivals_checked += 1;
        } else {
            self.flag(Violation::UnexplainedArrival { node, from, at });
        }
    }
}

/// Test-only observer that logs every flag-setting arrival in event
/// order, so the engine tests can compare two drivers' arrival streams.
#[cfg(test)]
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct ArrivalLog(pub(crate) Vec<(NodeId, u8, NodeId, Time)>);

#[cfg(test)]
impl sealed::Sealed for ArrivalLog {}

#[cfg(test)]
impl RunObserver for ArrivalLog {
    fn on_fire(&mut self, _node: NodeId, _at: Time, _cause: TriggerCause) {}

    fn on_arrival(&mut self, node: NodeId, port: u8, from: NodeId, at: Time) {
        self.0.push((node, port, from, at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::assign_pulses;
    use crate::{check_model, simulate};
    use hex_clock::{PulseTrain, Scenario};
    use hex_core::fault::{forwarder_candidates, place_condition1};
    use hex_core::{FaultPlan, NodeFault, Timing, D_MINUS, D_PLUS};
    use hex_des::SimRng;
    use proptest::prelude::*;

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

    /// The fabricated-stream fixture: a 3×4 grid whose sources all fire
    /// at 0, and node (1, 1) with the ports and senders of its central
    /// guard pair.
    struct Fixture {
        grid: HexGrid,
        sched: Schedule,
        node: NodeId,
        pair: [(u8, NodeId); 2],
    }

    fn fixture() -> Fixture {
        let grid = HexGrid::new(3, 4);
        let node = grid.node(1, 1);
        let g = grid.graph();
        let (a, b) = g.guard(node)[1];
        let pair = [a, b].map(|p| (p, g.link(g.in_links(node)[p as usize]).src));
        assert!(pair.iter().all(|&(_, s)| g.role(s) == Role::Source));
        Fixture {
            sched: Schedule::single_pulse(vec![Time::ZERO; 4]),
            grid,
            node,
            pair,
        }
    }

    impl Fixture {
        /// Feed a checker under `cfg` every source firing on schedule, the
        /// central pair's messages reaching the node at `arrive` (if
        /// given), then central firings of the node at `fires`, each with
        /// a `T−_sleep` sleep.
        fn settle(
            &self,
            cfg: &SimConfig,
            arrive: Option<Time>,
            fires: &[Time],
        ) -> Result<CheckStats, Violation> {
            let sleeps: Vec<_> = fires.iter().map(|&at| (at, cfg.timing.sleep.lo)).collect();
            self.settle_sleeps(cfg, arrive, &sleeps)
        }

        /// [`Fixture::settle`] with each central firing's sleep given.
        fn settle_sleeps(
            &self,
            cfg: &SimConfig,
            arrive: Option<Time>,
            fires: &[(Time, Duration)],
        ) -> Result<CheckStats, Violation> {
            let mut check = ModelCheck::new(self.grid.graph(), &self.sched, cfg);
            for s in self.grid.graph().source_ids() {
                check.on_fire(s, Time::ZERO, TriggerCause::Source);
            }
            if let Some(at) = arrive {
                for (port, from) in self.pair {
                    check.on_arrival(self.node, port, from, at);
                }
            }
            for &(at, sleep) in fires {
                check.on_fire(self.node, at, TriggerCause::Central);
                check.on_sleep(self.node, at, sleep);
            }
            check.finish()
        }
    }

    const PS: Duration = Duration::from_ps(1);

    /// The unaltered stream passes, with every rule exercised.
    #[test]
    fn fabricated_clean_stream_passes() {
        let (fx, at) = (fixture(), Time::ZERO + D_PLUS);
        let all = CheckStats {
            sleeps_checked: 1,
            arrivals_checked: 2,
            supports_checked: 2,
            causal_links_checked: 2,
        };
        assert_eq!(
            fx.settle(&SimConfig::fault_free(), Some(at), &[at]),
            Ok(all)
        );
    }

    #[test]
    fn detects_sleep_violation() {
        let (fx, at) = (fixture(), Time::ZERO + D_PLUS);
        let fires = [at, at + PS.times(10)];
        let gap = PS.times(10);
        let want = Violation::SleepViolated { node: fx.node, gap };
        assert_eq!(
            fx.settle(&SimConfig::fault_free(), Some(at), &fires),
            Err(want)
        );
    }

    /// A sleep drawn 1 ps outside `[T−_sleep, T+_sleep]` is out of
    /// bounds, even when the node never fires again.
    #[test]
    fn detects_sleep_out_of_bounds() {
        let (fx, at) = (fixture(), Time::ZERO + D_PLUS);
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            ..SimConfig::fault_free()
        };
        let bounds = cfg.timing.sleep;
        for sleep in [bounds.lo - PS, bounds.hi + PS] {
            let want = Violation::SleepOutOfBounds {
                node: fx.node,
                at,
                sleep,
            };
            let got = fx.settle_sleeps(&cfg, Some(at), &[(at, sleep)]);
            assert_eq!(got, Err(want));
        }
        assert!(fx.settle_sleeps(&cfg, Some(at), &[(at, bounds.hi)]).is_ok());
    }

    /// A source firing off its schedule fails at once; a scheduled instant
    /// it never fires is settled when the run ends.
    #[test]
    fn detects_source_mismatch() {
        let fx = fixture();
        let cfg = SimConfig::fault_free();
        let first = fx.grid.graph().source_ids().next().expect("a source");
        let mut check = ModelCheck::new(fx.grid.graph(), &fx.sched, &cfg);
        check.on_fire(first, Time::ZERO + PS, TriggerCause::Source);
        assert_eq!(
            check.finish(),
            Err(Violation::SourceMismatch { node: first })
        );
        let silent = ModelCheck::new(fx.grid.graph(), &fx.sched, &cfg);
        assert_eq!(
            silent.finish(),
            Err(Violation::SourceMismatch { node: first })
        );
    }

    #[test]
    fn detects_faulty_node_firing() {
        let (fx, at) = (fixture(), Time::ZERO + D_PLUS);
        let cfg = SimConfig {
            faults: FaultPlan::none().with_node(fx.node, NodeFault::FailSilent),
            ..SimConfig::fault_free()
        };
        let want = Violation::FaultyNodeFired { node: fx.node };
        assert_eq!(fx.settle(&cfg, Some(at), &[at]), Err(want));
    }

    /// An arrival 1 ps outside `[d−, d+]` after its sender's firing has no
    /// send behind it.
    #[test]
    fn detects_arrival_outside_the_delay_bounds() {
        let fx = fixture();
        for at in [Time::ZERO + D_MINUS - PS, Time::ZERO + D_PLUS + PS] {
            let (node, from) = (fx.node, fx.pair[0].1);
            let want = Violation::UnexplainedArrival { node, from, at };
            assert_eq!(
                fx.settle(&SimConfig::fault_free(), Some(at), &[]),
                Err(want)
            );
        }
    }

    /// A firing with no arrival on its guard pair, or only arrivals older
    /// than `T+_link`, is unsupported. After a corrupted initial state a
    /// firing up to `T+_link` may rest on initial flags.
    #[test]
    fn detects_unsupported_firing() {
        let (fx, at) = (fixture(), Time::ZERO + D_PLUS);
        let (node, port) = (fx.node, fx.pair[0].0);
        let cfg = SimConfig::fault_free();
        let want = Violation::UnsupportedFiring { node, at, port };
        assert_eq!(fx.settle(&cfg, None, &[at]), Err(want));
        let corrupted = SimConfig {
            init: InitState::Arbitrary,
            ..cfg.clone()
        };
        assert!(fx.settle(&corrupted, None, &[at]).is_ok());

        let tight = SimConfig {
            timing: Timing::paper_scenario_iii(),
            ..cfg
        };
        let late = at + tight.timing.link.hi + PS;
        let want = Violation::UnsupportedFiring {
            node,
            at: late,
            port,
        };
        assert_eq!(fx.settle(&tight, Some(at), &[late]), Err(want));
    }

    /// A firing stamped before the message that enabled it could arrive
    /// breaks the `d−` causal floor.
    #[test]
    fn detects_firing_under_the_causal_floor() {
        let fx = fixture();
        let arrive = Time::ZERO + D_MINUS;
        let (from, to, gap) = (fx.pair[0].1, fx.node, D_MINUS - PS);
        let want = Violation::CausalFloorViolated { from, to, gap };
        let got = fx.settle(&SimConfig::fault_free(), Some(arrive), &[arrive - PS]);
        assert_eq!(got, Err(want));
    }

    /// A fault-free single-pulse run passes with every rule exercised, and
    /// so does one next to a Byzantine node, whose stuck-at-1 ports need
    /// no arrival.
    #[test]
    fn clean_and_byzantine_runs_pass() {
        let grid = HexGrid::new(10, 8);
        let sched = Schedule::single_pulse(vec![Time::ZERO; 8]);
        let byzantine = SimConfig {
            faults: FaultPlan::none().with_node(grid.node(3, 4), NodeFault::Byzantine),
            timing: Timing::paper_scenario_iii(),
            ..SimConfig::fault_free()
        };
        for (cfg, seed) in [(SimConfig::fault_free(), 1), (byzantine, 3)] {
            let stats = check_model(grid.graph(), &sched, &cfg, seed).expect("inside the model");
            assert!(stats.sleeps_checked > 0);
            assert!(stats.arrivals_checked > 0);
            assert!(stats.supports_checked > 0);
            assert!(stats.causal_links_checked > 0);
        }
    }

    #[test]
    fn every_scenario_and_seed_passes() {
        let grid = HexGrid::new(8, 8);
        for scenario in Scenario::ALL {
            for seed in 0..5u64 {
                let mut rng = SimRng::seed_from_u64(seed);
                let offsets = scenario.single_pulse_times(8, D_MINUS, D_PLUS, &mut rng);
                let sched = Schedule::single_pulse(offsets);
                check_model(grid.graph(), &sched, &SimConfig::fault_free(), seed)
                    .unwrap_or_else(|v| panic!("{} seed {seed}: {v:?}", scenario.label()));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every randomized configuration — grid shape, scenario, fault
        /// count/kind, initial-state regime, pulse count, seed — stays
        /// inside the model.
        #[test]
        fn prop_model_holds(
            l in 3u32..10,
            w in 4u32..10,
            scenario_ix in 0usize..4,
            f in 0usize..3,
            byzantine in any::<bool>(),
            arbitrary_init in any::<bool>(),
            pulses in 1usize..4,
            seed in any::<u64>(),
        ) {
            let grid = HexGrid::new(l, w);
            let scenario = Scenario::ALL[scenario_ix];
            let mut rng = SimRng::seed_from_u64(seed);
            let sched = PulseTrain::new(scenario, pulses, Duration::from_ns(300.0))
                .generate(w, &mut rng);
            let candidates = forwarder_candidates(grid.graph());
            let placed = place_condition1(grid.graph(), &candidates, f, &mut rng, 2_000)
                .unwrap_or_default();
            let kind = if byzantine { NodeFault::Byzantine } else { NodeFault::FailSilent };
            let cfg = SimConfig {
                timing: Timing::paper_scenario_iii(),
                faults: FaultPlan::none().with_nodes(&placed, kind),
                init: if arbitrary_init { InitState::Arbitrary } else { InitState::Clean },
                ..SimConfig::fault_free()
            };
            prop_assert_eq!(check_model(grid.graph(), &sched, &cfg, seed).err(), None);
        }

        /// Clean-start fault-free runs additionally fire exactly once per
        /// node per pulse.
        #[test]
        fn prop_exactly_once_per_pulse(
            l in 3u32..8,
            w in 4u32..8,
            pulses in 1usize..4,
            seed in any::<u64>(),
        ) {
            let grid = HexGrid::new(l, w);
            let mut rng = SimRng::seed_from_u64(seed);
            let sched = PulseTrain::new(Scenario::Zero, pulses, Duration::from_ns(300.0))
                .generate(w, &mut rng);
            let cfg = SimConfig {
                timing: Timing::paper_scenario_iii(),
                ..SimConfig::fault_free()
            };
            let trace = simulate(grid.graph(), &sched, &cfg, seed);
            for n in grid.graph().node_ids() {
                prop_assert_eq!(trace.fires[n as usize].len(), pulses);
            }
        }
    }
}
