//! The simulation engine: Algorithm 1 + Fig. 7 state machines on any
//! [`PulseGraph`], under configurable delays, faults and initial states.
//!
//! ## Event model
//!
//! * `SourceFire` — a layer-0 source emits its scheduled pulse;
//! * `Deliver` — a trigger message arrives at a link's receiver (memory-flag
//!   SM: ready → memorize);
//! * `LinkTimeout` — a memory flag expires (memorize → ready), epoch-tagged;
//! * `Wake` — a sleep timeout expires (sleeping → ready, flags cleared),
//!   epoch-tagged.
//!
//! ## Future event list
//!
//! Every event the engine schedules lands inside a bounded lookahead
//! window of the current instant (`[d-, d+]` deliveries, `[T-, T+]` link
//! and sleep timeouts). The bounded-horizon [`CalendarQueue`] exploits
//! exactly that bound, and the engine drains it in bucket batches
//! through one driver (`run_windows`). Pops follow `(time, seq)` order
//! with FIFO ties, so a run is a pure function of its configuration and
//! seed; the workspace determinism tests pin its output to committed
//! golden values.
//!
//! ## Fault semantics
//!
//! Outgoing links of faulty nodes (and explicitly overridden links) are
//! resolved to [`LinkBehavior`]s at simulation start:
//!
//! * `StuckZero` never delivers anything;
//! * `StuckOne` holds the receiver's port at logical 1: the port's memory
//!   flag is set at simulation start and **re-sets itself the instant it is
//!   cleared** (by link timeout or wake-up) — the paper's "constant 1 ⇒
//!   fast triggering" behaviour. Faulty nodes themselves are inert: their
//!   own firing rule is irrelevant because their outputs are constants.

use hex_core::delay::ResolvedDelays;
use hex_core::{
    DelayModel, DelayRange, FaultEvent, FaultPlan, FaultScript, FaultTransition, HexGrid,
    LinkBehavior, NodeFault, NodeId, PulseGraph, RejoinState, Role, Timing, TriggerCause,
};
use hex_des::{CalendarQueue, Duration, Schedule, SimRng, Time};

use crate::observe::{CheckStats, FireLog, ModelCheck, PulseBinner, RunObserver, Violation};
use crate::soa::SoaNodes;
use crate::trace::Trace;

/// Initial node states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitState {
    /// All nodes ready with cleared memory flags — the properly-initialized
    /// state assumed by the Section 3.1 analysis (constraints (C1)/(C2)).
    Clean,
    /// Every forwarder starts in an arbitrary state (Theorem 2): firing SM
    /// ready or sleeping with a uniform residual sleep in `[0, T+_sleep]`,
    /// each memory flag independently set with probability 1/2 with a
    /// uniform residual timeout in `[0, T+_link]`.
    Arbitrary,
    /// Adversarial corruption: every forwarder is ready with **all** memory
    /// flags set and full link timeouts — the whole fabric emits one
    /// spurious global pulse at time 0 and must recover. The worst case for
    /// spurious-pulse confusion within Theorem 2's state space.
    AllFlagsSet,
    /// Adversarial corruption: every forwarder is asleep with the maximal
    /// residual sleep `T+_sleep` and cleared flags — the fabric misses the
    /// earliest trigger messages and must resynchronize off link timeouts.
    /// The worst case for missed-pulse recovery.
    AllAsleep,
}

/// The engine's future event list: the bounded-horizon calendar ring,
/// the only one it has. Kept only because the benchmark harness prints
/// its label in its config line (`perfbench/src/main.rs:180`), and the
/// harness changes only with a revision of the benchmark itself; delete
/// both together then.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Bounded-horizon calendar ring ([`CalendarQueue`]), sized per run
    /// from the delivery envelope and the graph's node count (see
    /// `calendar_geometry`).
    #[default]
    Calendar,
}

impl QueuePolicy {
    /// The label the benchmark harness prints.
    pub fn label(self) -> &'static str {
        match self {
            QueuePolicy::Calendar => "calendar",
        }
    }
}

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Link-delay model (random per message, per link, or deterministic).
    pub delays: DelayModel,
    /// Algorithm-1 timeout parameters.
    pub timing: Timing,
    /// Fault assignment.
    pub faults: FaultPlan,
    /// Initial state regime.
    pub init: InitState,
    /// Hard simulation end time. `None` derives a horizon generous enough
    /// for the whole schedule to propagate through the grid: the last
    /// scheduled source pulse, plus `depth + faults + 2` hops at `2·d+`
    /// each (Lemma 5's worst-case propagation allowance), plus two full
    /// sleep periods of slack.
    pub horizon: Option<Time>,
    /// Dynamic fault timeline: scheduled [`FaultTransition`]s that flip
    /// the hoisted `active`/`faulty` bitmasks (and the link-behaviour
    /// table) mid-run. `None` (or an empty script) runs the static-plan
    /// engine byte-identically to before the subsystem existed. All
    /// script-induced randomness (Byzantine link draws, arbitrary-rejoin
    /// states, residual timers) comes from a **separate RNG stream**
    /// seeded `seed ^ SCRIPT_SALT`, so the main draw sequence is
    /// untouched by the script machinery.
    pub script: Option<FaultScript>,
}

/// Seed salt of the script RNG stream: all apply-time draws of a
/// [`FaultScript`] come from `SimRng::seed_from_u64(seed ^ SCRIPT_SALT)`,
/// leaving the main per-run stream (delays, behaviours, in-loop timers)
/// byte-identical to an unscripted run.
pub const SCRIPT_SALT: u64 = 0x5EED_5C21;

/// Always true: every run drains its event list in bucket batches (see
/// [`SimConfig::min_increment`]). Kept only because the benchmark harness prints it
/// in its config line (`perfbench/src/main.rs:181`), and the harness
/// changes only with a revision of the benchmark itself; delete both
/// together then.
pub fn batch_default() -> bool {
    true
}

/// Always 1: each run executes on one thread (batches spread whole runs
/// over cores, see [`crate::batch`]). Kept only because the benchmark
/// harness prints it in its config line (`perfbench/src/main.rs:182`),
/// and the harness changes only with a revision of the benchmark itself;
/// delete both together then.
pub fn shard_default() -> usize {
    1
}

impl SimConfig {
    /// Fault-free, clean-start configuration with the paper's delay model
    /// and generous timeouts (single-pulse regime).
    pub fn fault_free() -> Self {
        SimConfig {
            delays: DelayModel::paper(),
            timing: Timing::generous(),
            faults: FaultPlan::none(),
            init: InitState::Clean,
            horizon: None,
            script: None,
        }
    }

    /// The end time a run of `schedule` on `graph` enforces:
    /// [`SimConfig::horizon`], else the horizon derived as that field
    /// describes.
    pub(crate) fn horizon_on(&self, graph: &PulseGraph, schedule: &Schedule) -> Time {
        if let Some(horizon) = self.horizon {
            return horizon;
        }
        let depth = graph
            .node_ids()
            .filter_map(|n| graph.coord(n))
            .map(|c| c.layer)
            .max()
            .unwrap_or_else(|| (graph.node_count() as f64).sqrt() as u32)
            as i64;
        let last = (0..schedule.pulses())
            .filter_map(|k| schedule.t_max(k))
            .max()
            .unwrap_or(Time::ZERO);
        let d_plus = self.delays.envelope().hi;
        let f = self.faults.fault_count() as i64;
        last + d_plus.times(2 * (depth + f + 2)) + self.timing.sleep.hi.times(2)
    }

    /// The largest increment this configuration ever schedules ahead of
    /// `now`: the slowest delivery, memory timeout or sleep. This is the
    /// calendar queue's ring horizon.
    pub fn max_increment(&self) -> Duration {
        self.delays
            .envelope()
            .hi
            .max(self.timing.link.hi)
            .max(self.timing.sleep.hi)
    }

    /// The smallest increment the event loop ever schedules ahead of `now`:
    /// the fastest delivery, memory timeout or sleep. This is the engine's
    /// batch span — while a batch covering
    /// `[first, first + min_increment]` is processed, every event it
    /// schedules lands at or beyond the batch's end (same-instant pushes
    /// get later sequence numbers), so draining the whole batch up front
    /// replays the one-at-a-time pop order exactly. Only in-loop
    /// scheduling is constrained: pre-loop pushes (corrupted-init
    /// residuals may be arbitrarily short) all happen before the first
    /// batch is drained.
    pub fn min_increment(&self) -> Duration {
        self.delays
            .envelope()
            .lo
            .min(self.timing.link.lo)
            .min(self.timing.sleep.lo)
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    SourceFire {
        node: NodeId,
    },
    Deliver {
        link: u32,
    },
    LinkTimeout {
        node: NodeId,
        port: u8,
        epoch: u32,
    },
    Wake {
        node: NodeId,
        epoch: u32,
    },
    /// Sentinel for `cfg.script.transitions()[index]`: popping it ends the
    /// current fault window. Seeded up-front (one per transition, after
    /// every other seed-time event), so at its instant seed-time events
    /// apply before the transition and in-loop events after it.
    Script {
        index: u32,
    },
}

/// The calendar ring geometry for a configuration on an `n`-node graph:
/// bucket count tracks the resident event set (≈ one pending timer per
/// node), one ring lap covers the maximum scheduling increment. It is
/// the geometry the ring will use ([`hex_des::calendar::ring_geometry`]),
/// so `SimScratch::prepare` recognises a ring it can recycle.
fn calendar_geometry(cfg: &SimConfig, nodes: usize) -> (i64, usize) {
    let (_, nb) = hex_des::calendar::profile_geometry(cfg.max_increment(), nodes);
    let nb_i = nb as i64;
    let env = cfg.delays.envelope();
    // Deliveries are the dense event class (a node broadcasts ~3 per
    // fire), so the width is tuned to them rather than to the slowest
    // timeout: at least one ring lap must cover a whole delivery hop
    // (else every delivery pop degenerates to a full-lap scan), and a
    // hop's jitter ε should spread over ~4 buckets before rounding (2
    // to 4 after it) so concurrent deliveries don't pile into one.
    // Sparse far-future timeouts beyond the lap (e.g. the generous
    // 10 µs sleeps of single-pulse runs) just wait out extra laps. That
    // measured cheaper than widening the buckets to reach them on
    // `single_pulse/grid_scratch` before widths became powers of two;
    // since then only its 20x20 and 50x20 medians still favour it, and
    // runs on a fresh ring (`single_pulse/grid`) favour wider buckets.
    let lap_covers_hop = (env.hi.ps().max(1) + nb_i - 1) / nb_i;
    let jitter_spread = (env.uncertainty().ps() / 4).max(lap_covers_hop);
    let width = (cfg.max_increment().ps().max(1) / nb_i).clamp(lap_covers_hop, jitter_spread);
    hex_des::calendar::ring_geometry(Duration::from_ps(width.max(1)), nb)
}

/// Reusable simulation working memory: the event queue, per-node states,
/// the [`Trace`] storage (per-node `fires` vectors) and the streaming
/// path's [`PulseBinner`] slots.
///
/// One run of [`simulate_into`] on a dirty scratch is **byte-identical** to
/// [`simulate`] on fresh allocations (pinned by the workspace determinism
/// wall and a property suite): reuse only recycles capacity, never state.
/// The batch paths ([`RunSpec::fold_observed`](crate::spec::RunSpec::fold_observed),
/// [`RunSpec::run_batch`](crate::spec::RunSpec::run_batch)) allocate one
/// scratch per worker thread, so a 250-run sweep performs O(threads) rather
/// than O(runs) trace-sized allocations.
///
/// After a run the scratch also exposes the engine's work counters:
/// [`SimScratch::popped_events`] and [`SimScratch::stale_events`] (the
/// epoch-rejected `LinkTimeout`/`Wake` churn — events popped that bought
/// no state change).
///
/// ```
/// use hex_core::HexGrid;
/// use hex_des::{Schedule, Time};
/// use hex_sim::{simulate, simulate_into, SimConfig, SimScratch};
///
/// let grid = HexGrid::new(6, 5);
/// let sched = Schedule::single_pulse(vec![Time::ZERO; 5]);
/// let cfg = SimConfig::fault_free();
///
/// let mut scratch = SimScratch::new();
/// for seed in 0..4 {
///     let reused = simulate_into(&mut scratch, grid.graph(), &sched, &cfg, seed);
///     assert_eq!(reused.fires, simulate(grid.graph(), &sched, &cfg, seed).fires);
///     assert!(scratch.popped_events() > 0);
/// }
/// // All four runs shared one trace-sized allocation.
/// assert_eq!(scratch.grow_count(), 1);
/// ```
#[derive(Debug)]
pub struct SimScratch {
    trace: Trace,
    /// Structure-of-arrays node state ([`SoaNodes`]), the layout the
    /// batch kernel runs on.
    nodes: SoaNodes,
    /// The event list, rebuilt only when a run's `calendar_geometry`
    /// differs from the last one's.
    queue: CalendarQueue<Ev>,
    /// The batch kernel's pop buffer ([`CalendarQueue::drain_bucket`]
    /// drains into it); recycled like every other arena here.
    batch_buf: Vec<(Time, Ev)>,
    /// Per-node `role == Forwarder && !faulty` — the per-event
    /// eligibility test, hoisted out of the loop (a `FaultPlan` probe is
    /// a `BTreeMap` lookup).
    active: Vec<bool>,
    /// Per-node `FaultPlan::is_faulty` bitmask.
    faulty: Vec<bool>,
    /// Observer state of the streaming extraction path
    /// ([`simulate_observed_into`]); its slot buffers are recycled across
    /// runs like every other arena here.
    binner: PulseBinner,
    grows: usize,
    popped_events: u64,
    stale_events: u64,
}

impl Default for SimScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SimScratch {
    /// An empty scratch; buffers are grown on first use and reused after.
    pub fn new() -> Self {
        SimScratch {
            trace: Trace {
                fires: Vec::new(),
                faulty: Vec::new(),
                horizon: Time::ZERO,
            },
            nodes: SoaNodes::new(),
            // A placeholder: every real geometry has at least 16 buckets,
            // so the first `prepare` replaces it.
            queue: CalendarQueue::with_geometry(Duration::from_ps(1), 1),
            batch_buf: Vec::new(),
            active: Vec::new(),
            faulty: Vec::new(),
            binner: PulseBinner::new(),
            grows: 0,
            popped_events: 0,
            stale_events: 0,
        }
    }

    /// How many times the per-node buffers had to be (re)allocated — 1
    /// after any number of same-shape runs; grows only when the graph
    /// shape changes under the scratch.
    pub fn grow_count(&self) -> usize {
        self.grows
    }

    /// Events popped by the most recent run (the simulation work metric).
    pub fn popped_events(&self) -> u64 {
        self.popped_events
    }

    /// Events popped by the most recent run that were rejected by their
    /// target's epoch check — stale `LinkTimeout`/`Wake` churn from flags
    /// re-set (or sleeps restarted) after the timeout was scheduled.
    /// Queue work that bought no state change; the `pq` bench reports
    /// this share to justify its hold-model mix.
    pub fn stale_events(&self) -> u64 {
        self.stale_events
    }

    /// Make every buffer observationally identical to a fresh allocation
    /// for `graph` under `cfg`, reusing capacity whenever the shape (and
    /// ring geometry) allows.
    fn prepare(&mut self, graph: &PulseGraph, cfg: &SimConfig) {
        let n = graph.node_count();
        if self.nodes.matches(graph) {
            self.nodes.reset_clean();
        } else {
            self.grows += 1;
            self.nodes.rebuild(graph);
        }

        // Hoist the per-event eligibility checks into bitmasks.
        self.faulty.clear();
        self.faulty.resize(n, false);
        for f in cfg.faults.faulty_nodes() {
            self.faulty[f as usize] = true;
        }
        self.active.clear();
        self.active.resize(n, false);
        for id in graph.node_ids() {
            self.active[id as usize] =
                graph.role(id) == Role::Forwarder && !self.faulty[id as usize];
        }

        // Recycle the event list when its ring geometry fits this run.
        let (width, buckets) = calendar_geometry(cfg, n);
        if self.queue.bucket_width() == width && self.queue.bucket_count() == buckets {
            self.queue.clear();
        } else {
            self.queue = CalendarQueue::with_geometry(Duration::from_ps(width), buckets);
        }
        self.popped_events = 0;
        self.stale_events = 0;
    }

    /// The one run body behind every entry point: derive the run's setup,
    /// recycle the scratch for it, and drive it through [`run_windows`],
    /// streaming every firing and flag-setting arrival into `obs`.
    /// Records the work counters and returns the enforced horizon.
    fn run<O: RunObserver, const REFERENCE: bool>(
        &mut self,
        graph: &PulseGraph,
        schedule: &Schedule,
        cfg: &SimConfig,
        seed: u64,
        obs: &mut O,
    ) -> Time {
        let mut setup = prepare_run(graph, schedule, cfg, seed);
        self.prepare(graph, cfg);
        let SimScratch {
            nodes,
            queue,
            batch_buf,
            active,
            faulty,
            ..
        } = self;
        let (popped, stale) = run_windows::<_, REFERENCE>(
            &mut setup, graph, cfg, schedule, queue, nodes, active, faulty, obs, batch_buf,
        );
        self.popped_events = popped;
        self.stale_events = stale;
        setup.horizon
    }
}

/// Run one simulation of `graph` driven by `schedule` (one entry per source
/// node, in [`PulseGraph::source_ids`] order) under `cfg`, seeded by `seed`.
///
/// Returns the full [`Trace`]: per node, the list of firing times with
/// their trigger causes. Faulty nodes never record fires.
///
/// This is a thin fresh-scratch wrapper over [`simulate_into`]; batch
/// drivers that run many simulations reuse one [`SimScratch`] instead.
///
/// # Panics
///
/// Panics if the schedule's source count does not match the graph's.
pub fn simulate(graph: &PulseGraph, schedule: &Schedule, cfg: &SimConfig, seed: u64) -> Trace {
    let mut scratch = SimScratch::new();
    simulate_into(&mut scratch, graph, schedule, cfg, seed);
    scratch.trace
}

/// Read-only per-run context shared by the event loop and its helpers.
/// Everything per-event-resolvable at setup lives here, resolved: the
/// eligibility bitmasks replace `FaultPlan` probes and `role` calls, and
/// `all_links_correct` lets the stuck-at-1 re-assertions
/// ([`refresh_stuck_one`], [`arm_stuck_ports`]) skip the behaviors table
/// in the fault-free common case.
struct RunCtx<'a> {
    graph: &'a PulseGraph,
    cfg: &'a SimConfig,
    behaviors: &'a [LinkBehavior],
    delays: &'a ResolvedDelays,
    /// `role == Forwarder && !faulty`, per node.
    active: &'a [bool],
    /// `FaultPlan::is_faulty`, per node.
    faulty: &'a [bool],
    /// No faulty node and no link override anywhere.
    all_links_correct: bool,
    horizon: Time,
}

/// Everything a run derives before the event loop, in the one canonical
/// order. The RNG draw sequence — delays resolved first, fault behaviors
/// second — is part of the byte-equality contract between the trace and
/// observer entry points, so it lives in exactly one place.
struct RunSetup {
    sources: Vec<NodeId>,
    rng: SimRng,
    delays: ResolvedDelays,
    behaviors: Vec<LinkBehavior>,
    horizon: Time,
    /// The script RNG stream (`seed ^ SCRIPT_SALT`); only ever drawn from
    /// while applying a [`FaultTransition`].
    script_rng: SimRng,
    /// Setup-resolved copy of `behaviors`, the restore table for
    /// `Heal`/`LinkUp` transitions. Empty when the run has no script.
    base_behaviors: Vec<LinkBehavior>,
}

/// # Panics
///
/// Panics if the schedule's source count does not match the graph's.
fn prepare_run(graph: &PulseGraph, schedule: &Schedule, cfg: &SimConfig, seed: u64) -> RunSetup {
    let sources: Vec<NodeId> = graph.source_ids().collect();
    assert_eq!(
        sources.len(),
        schedule.sources(),
        "schedule has {} sources, graph has {}",
        schedule.sources(),
        sources.len()
    );
    let mut rng = SimRng::seed_from_u64(seed);
    let delays = cfg.delays.resolve(graph, &mut rng);
    let behaviors = cfg.faults.resolve(graph, &mut rng);
    let horizon = cfg.horizon_on(graph, schedule);
    let base_behaviors = match &cfg.script {
        Some(script) if !script.is_empty() => {
            script.assert_in_bounds(graph.node_count(), graph.link_count());
            behaviors.clone()
        }
        _ => Vec::new(),
    };
    RunSetup {
        sources,
        rng,
        delays,
        behaviors,
        horizon,
        script_rng: SimRng::seed_from_u64(seed ^ SCRIPT_SALT),
        base_behaviors,
    }
}

/// Run one simulation into `scratch`, recycling its event queue, node
/// states and trace storage, and return the recorded trace (borrowed from
/// the scratch, which stays reusable for the next run).
///
/// The result is byte-identical to [`simulate`] with the same arguments,
/// no matter what ran through the scratch before.
///
/// # Panics
///
/// Panics if the schedule's source count does not match the graph's.
pub fn simulate_into<'s>(
    scratch: &'s mut SimScratch,
    graph: &PulseGraph,
    schedule: &Schedule,
    cfg: &SimConfig,
    seed: u64,
) -> &'s Trace {
    traced_run::<false>(scratch, graph, schedule, cfg, seed)
}

/// The body of [`simulate_into`], and with `REFERENCE` of
/// [`simulate_reference_into`].
fn traced_run<'s, const REFERENCE: bool>(
    scratch: &'s mut SimScratch,
    graph: &PulseGraph,
    schedule: &Schedule,
    cfg: &SimConfig,
    seed: u64,
) -> &'s Trace {
    // The fire records step out of the scratch while the run borrows it.
    let mut fires = std::mem::take(&mut scratch.trace.fires);
    fires.iter_mut().for_each(Vec::clear);
    fires.resize_with(graph.node_count(), Vec::new);
    let mut obs = FireLog { fires: &mut fires };
    let horizon = scratch.run::<_, REFERENCE>(graph, schedule, cfg, seed, &mut obs);
    scratch.trace = Trace {
        fires,
        faulty: cfg.faults.faulty_nodes(),
        horizon,
    };
    &scratch.trace
}

/// Run one simulation into `scratch`, streaming every firing into the
/// scratch's [`PulseBinner`] instead of recording a trace: skew and
/// stabilization statistics can then be extracted straight from the
/// binner's per-pulse slots — no [`Trace`] fires, no
/// [`PulseView`](crate::PulseView) matrices, no second pass.
///
/// The binner's contents are **identical** to running [`simulate_into`]
/// and post-processing the trace with
/// [`assign_pulses`](crate::assign_pulses) (or
/// [`PulseView::from_single_pulse`](crate::PulseView::from_single_pulse)
/// for single-pulse schedules) with the same `d_mid` — pinned by the
/// observer-equivalence walls across thread counts.
/// The scratch stays reusable for either path afterwards.
///
/// # Panics
///
/// Panics if the schedule's source count does not match the graph's.
pub fn simulate_observed_into<'s>(
    scratch: &'s mut SimScratch,
    grid: &HexGrid,
    schedule: &Schedule,
    cfg: &SimConfig,
    seed: u64,
    d_mid: Duration,
) -> &'s PulseBinner {
    observed_run::<false>(scratch, grid, schedule, cfg, seed, d_mid)
}

/// The body of [`simulate_observed_into`], and with `REFERENCE` of
/// [`simulate_observed_reference_into`].
fn observed_run<'s, const REFERENCE: bool>(
    scratch: &'s mut SimScratch,
    grid: &HexGrid,
    schedule: &Schedule,
    cfg: &SimConfig,
    seed: u64,
    d_mid: Duration,
) -> &'s PulseBinner {
    // The binner steps out of the scratch while the run borrows it.
    let mut binner = std::mem::take(&mut scratch.binner);
    binner.prepare(grid, schedule, d_mid, &cfg.faults.faulty_nodes());
    scratch.run::<_, REFERENCE>(grid.graph(), schedule, cfg, seed, &mut binner);
    scratch.binner = binner;
    &scratch.binner
}

/// Run the execution [`simulate`] records for the same arguments under the
/// model checker, and return what was checked or the first breach of the
/// paper's Section 2 model in event order (each rule is a [`Violation`]
/// variant). Every bound comes from `cfg`: the delay envelope, `T+_link`,
/// `[T−_sleep, T+_sleep]`, the fault plan and the horizon.
///
/// # Panics
///
/// Panics if the schedule's source count does not match the graph's, or
/// if `cfg` carries a non-empty fault script: the checker holds each
/// node to the static fault plan.
pub fn check_model(
    graph: &PulseGraph,
    schedule: &Schedule,
    cfg: &SimConfig,
    seed: u64,
) -> Result<CheckStats, Violation> {
    let mut check = ModelCheck::new(graph, schedule, cfg);
    SimScratch::new().run::<_, false>(graph, schedule, cfg, seed, &mut check);
    check.finish()
}

/// The batching reference: [`simulate_into`] through the same driver and
/// kernel with batch span 0. Span 0 drains only the events of one instant
/// per batch, so this replays the one-at-a-time pop order; the engine
/// tests compare production runs against it.
#[cfg(test)]
pub(crate) fn simulate_reference_into<'s>(
    scratch: &'s mut SimScratch,
    graph: &PulseGraph,
    schedule: &Schedule,
    cfg: &SimConfig,
    seed: u64,
) -> &'s Trace {
    traced_run::<true>(scratch, graph, schedule, cfg, seed)
}

/// [`simulate_observed_into`] on the batching reference (see
/// [`simulate_reference_into`]).
#[cfg(test)]
pub(crate) fn simulate_observed_reference_into<'s>(
    scratch: &'s mut SimScratch,
    grid: &HexGrid,
    schedule: &Schedule,
    cfg: &SimConfig,
    seed: u64,
    d_mid: Duration,
) -> &'s PulseBinner {
    observed_run::<true>(scratch, grid, schedule, cfg, seed, d_mid)
}

/// Schedule everything that exists before the first event pops: source
/// pulses, corrupted-init states with their residual timeouts, stuck-at-1
/// port assertions and the time-0 guard sweep, then one sentinel per
/// scripted transition. The pre-loop RNG draw order is part of the
/// pinned output.
fn seed_events<O: RunObserver>(
    q: &mut CalendarQueue<Ev>,
    ctx: &RunCtx<'_>,
    schedule: &Schedule,
    sources: &[NodeId],
    nodes: &mut SoaNodes,
    obs: &mut O,
    rng: &mut SimRng,
) {
    let graph = ctx.graph;
    let cfg = ctx.cfg;

    // Schedule all source pulses.
    for (ix, &node) in sources.iter().enumerate() {
        for &t in schedule.source(ix) {
            q.push(t, Ev::SourceFire { node });
        }
    }

    // Corrupted initial states (self-stabilization experiments).
    let timing = cfg.timing;
    for node in graph.node_ids().filter(|&n| ctx.active[n as usize]) {
        match cfg.init {
            InitState::Clean => {}
            InitState::Arbitrary => seed_arbitrary(node, Time::ZERO, graph, timing, nodes, q, rng),
            InitState::AllFlagsSet => {
                let all: Vec<u8> = (0..graph.port_count(node) as u8).collect();
                for (port, epoch) in nodes.force_arbitrary(node, false, &all).flag_epochs {
                    let at = Time::ZERO + rng.duration_in(timing.link.lo, timing.link.hi);
                    q.push(at, Ev::LinkTimeout { node, port, epoch });
                }
            }
            InitState::AllAsleep => {
                if let Some(epoch) = nodes.force_arbitrary(node, true, &[]).sleep_epoch {
                    q.push(Time::ZERO + timing.sleep.hi, Ev::Wake { node, epoch });
                }
            }
        }
    }

    // Stuck-at-1 in-ports assert themselves from the start.
    for n in graph.node_ids().filter(|&n| ctx.active[n as usize]) {
        arm_stuck_ports(n, Time::ZERO, ctx, nodes, q, rng);
    }

    // Nodes whose guards are satisfied by the initial flag assignment fire
    // immediately (time 0).
    for n in graph.node_ids().filter(|&n| ctx.active[n as usize]) {
        maybe_fire(n, Time::ZERO, ctx, nodes, obs, q, rng);
    }

    // One sentinel per scripted fault transition, pushed after everything
    // else: at equal timestamps, seed-time events apply before the
    // transition and in-loop events after it.
    if let Some(script) = &cfg.script {
        for (index, tr) in script.transitions().iter().enumerate() {
            q.push(
                tr.at,
                Ev::Script {
                    index: index as u32,
                },
            );
        }
    }
}

/// The engine's one driver: seed the event list, then drain it in
/// windows. A window ends 1 ps before the next script transition, or at
/// the horizon when no transition is left, so an unscripted run is one
/// window. Inside a window, [`drain`] pops bucket batches spanning
/// [`SimConfig::min_increment`] and hands each to [`dispatch`]. At a
/// window's end, the events at the transition instant that precede its
/// sentinel are dispatched one at a time, the transition is applied
/// ([`apply_transition`]), and the next window re-hoists the masks. The
/// run ends by popping the first event past the horizon, which `popped()`
/// counts. Returns `(events popped, stale epoch-rejected events)`.
///
/// `REFERENCE` (tests only, see [`simulate_reference_into`]) drains with
/// span 0: one instant per batch.
#[allow(clippy::too_many_arguments)]
fn run_windows<O: RunObserver, const REFERENCE: bool>(
    setup: &mut RunSetup,
    graph: &PulseGraph,
    cfg: &SimConfig,
    schedule: &Schedule,
    q: &mut CalendarQueue<Ev>,
    nodes: &mut SoaNodes,
    active: &mut [bool],
    faulty: &mut [bool],
    obs: &mut O,
    batch_buf: &mut Vec<(Time, Ev)>,
) -> (u64, u64) {
    let transitions = cfg.script.as_ref().map_or(&[][..], |s| s.transitions());
    let span = if REFERENCE {
        Duration::ZERO
    } else {
        cfg.min_increment()
    };
    let mut next = 0usize;
    let mut stale = 0u64;
    let mut seeded = false;
    loop {
        let ctx = RunCtx {
            graph,
            cfg,
            behaviors: &setup.behaviors,
            delays: &setup.delays,
            active,
            faulty,
            all_links_correct: setup.behaviors.iter().all(|&b| b == LinkBehavior::Correct),
            horizon: setup.horizon,
        };
        if !seeded {
            seed_events(
                q,
                &ctx,
                schedule,
                &setup.sources,
                nodes,
                obs,
                &mut setup.rng,
            );
            seeded = true;
        }
        let boundary = transitions.get(next).filter(|tr| tr.at <= ctx.horizon);
        let cap = match boundary {
            Some(tr) => Time::from_ps(tr.at.ps() - 1),
            None => ctx.horizon,
        };
        let rng = &mut setup.rng;
        stale += drain(q, &ctx, span, cap, nodes, obs, rng, batch_buf);
        if boundary.is_none() {
            q.pop(); // the first event past the horizon, if any
            break;
        }
        let index = loop {
            let e = q.pop().expect("the transition's sentinel is pending");
            match e.payload {
                Ev::Script { index } => break index as usize,
                ev => stale += dispatch(&[(e.at, ev)], &ctx, nodes, obs, q, rng),
            }
        };
        debug_assert_eq!(index, next, "sentinels pop in timeline order");
        apply_transition(
            q,
            transitions[index],
            graph,
            cfg,
            nodes,
            active,
            faulty,
            setup,
            obs,
        );
        next = index + 1;
    }
    (q.popped(), stale)
}

/// The pop loop of [`run_windows`]: drain bucket batches of at most
/// `span` past their first event, never past `cap`, and [`dispatch`]
/// each. Returns the stale-event count.
#[allow(clippy::too_many_arguments)]
fn drain<O: RunObserver>(
    q: &mut CalendarQueue<Ev>,
    ctx: &RunCtx<'_>,
    span: Duration,
    cap: Time,
    nodes: &mut SoaNodes,
    obs: &mut O,
    rng: &mut SimRng,
    batch: &mut Vec<(Time, Ev)>,
) -> u64 {
    let mut stale = 0u64;
    while q.drain_bucket(span, cap, batch) > 0 {
        stale += dispatch(batch, ctx, nodes, obs, q, rng);
    }
    stale
}

/// Process one batch of popped events in `(time, seq)` order against the
/// SoA node arrays, one `match` per event: the only copy of the per-event
/// arms. Nothing in the batch can schedule back into it (see
/// [`SimConfig::min_increment`]), so this replays the one-at-a-time order
/// exactly. Events aimed at a faulty node are dropped, and the timers of a
/// currently-faulty node count as stale (only a scripted fault gives an
/// inactive node a timer). Script sentinels never reach it. A `Deliver`
/// that newly sets a flag is reported to [`RunObserver::on_arrival`]
/// before the guard is evaluated. Returns the stale-event count.
fn dispatch<O: RunObserver>(
    batch: &[(Time, Ev)],
    ctx: &RunCtx<'_>,
    nodes: &mut SoaNodes,
    obs: &mut O,
    q: &mut CalendarQueue<Ev>,
    rng: &mut SimRng,
) -> u64 {
    let mut stale = 0u64;
    for &(now, ev) in batch {
        match ev {
            Ev::SourceFire { node } => {
                if ctx.faulty[node as usize] {
                    continue; // mute/Byzantine source
                }
                obs.on_fire(node, now, TriggerCause::Source);
                broadcast(node, now, ctx, q, rng);
            }
            Ev::Deliver { link } => {
                let l = ctx.graph.link(link);
                let n = l.dst;
                if ctx.active[n as usize]
                    && arm_flag(n, l.dst_port, now, ctx.cfg.timing.link, nodes, q, rng)
                {
                    obs.on_arrival(n, l.dst_port, l.src, now);
                    maybe_fire(n, now, ctx, nodes, obs, q, rng);
                }
            }
            Ev::LinkTimeout { node, port, epoch } => {
                if !ctx.active[node as usize] {
                    stale += 1; // timer owned by a currently-faulty node
                    continue;
                }
                // Epoch bound: a timeout can carry at most the epoch it
                // was scheduled under, and epochs only move forward — a
                // popped epoch from the future means timer-cancellation
                // bookkeeping is corrupt (the dynamic twin of the
                // hex-lint determinism rules).
                debug_assert!(
                    epoch <= nodes.flag_epoch(node, port),
                    "LinkTimeout from the future: node {node} port {port} \
                     carries epoch {epoch} > current {}",
                    nodes.flag_epoch(node, port)
                );
                if nodes.expire_flag(node, port, epoch) {
                    refresh_stuck_one(node, port, now, ctx, nodes, q, rng);
                    maybe_fire(node, now, ctx, nodes, obs, q, rng);
                } else {
                    stale += 1;
                }
            }
            Ev::Wake { node, epoch } => {
                if !ctx.active[node as usize] {
                    stale += 1; // timer owned by a currently-faulty node
                    continue;
                }
                debug_assert!(
                    epoch <= nodes.sleep_epoch(node),
                    "Wake from the future: node {node} carries epoch {epoch} > current {}",
                    nodes.sleep_epoch(node)
                );
                if nodes.wake(node, epoch) {
                    // All flags were cleared; stuck-1 re-asserts.
                    arm_stuck_ports(node, now, ctx, nodes, q, rng);
                    maybe_fire(node, now, ctx, nodes, obs, q, rng);
                } else {
                    stale += 1;
                }
            }
            Ev::Script { .. } => unreachable!("a sentinel ends its window before dispatch"),
        }
    }
    stale
}

/// Apply one scripted [`FaultTransition`] at its scheduled instant: flip
/// the hoisted `active`/`faulty` bitmasks, rewrite the affected link
/// behaviours, and mutate the SoA node state. All randomness (Byzantine
/// link draws, arbitrary-rejoin states, residual timers, any fires the
/// transition itself provokes) comes from `setup.script_rng`, so the main
/// per-run stream is untouched.
///
/// Every event this pushes lands at `tr.at + positive duration`, i.e. at
/// or after the last popped timestamp — no past-push.
#[allow(clippy::too_many_arguments)]
fn apply_transition<O: RunObserver>(
    q: &mut CalendarQueue<Ev>,
    tr: FaultTransition,
    graph: &PulseGraph,
    cfg: &SimConfig,
    nodes: &mut SoaNodes,
    active: &mut [bool],
    faulty: &mut [bool],
    setup: &mut RunSetup,
    obs: &mut O,
) {
    let now = tr.at;

    // Phase 1: rewrite masks, behaviours and local state.
    match tr.event {
        FaultEvent::Fail(node, fault) => {
            faulty[node as usize] = true;
            active[node as usize] = false;
            for &l in graph.out_links(node) {
                setup.behaviors[l as usize] = match fault {
                    NodeFault::FailSilent => LinkBehavior::StuckZero,
                    NodeFault::Byzantine => {
                        if setup.script_rng.coin() {
                            LinkBehavior::StuckOne
                        } else {
                            LinkBehavior::StuckZero
                        }
                    }
                };
            }
        }
        FaultEvent::Heal(node, rejoin) => {
            faulty[node as usize] = false;
            active[node as usize] = graph.role(node) == Role::Forwarder;
            for &l in graph.out_links(node) {
                setup.behaviors[l as usize] = setup.base_behaviors[l as usize];
            }
            match rejoin {
                RejoinState::Clean => {
                    // Epoch-bumping reset: awake, flags cleared, every
                    // pending timer from before the fault invalidated.
                    nodes.force_arbitrary(node, false, &[]);
                }
                RejoinState::Arbitrary => {
                    // The corrupted-init seeding, drawn from the script
                    // stream.
                    let rng = &mut setup.script_rng;
                    seed_arbitrary(node, now, graph, cfg.timing, nodes, q, rng);
                }
            }
        }
        FaultEvent::LinkDown(link, behavior) => {
            setup.behaviors[link as usize] = behavior;
        }
        FaultEvent::LinkUp(link) => {
            setup.behaviors[link as usize] = setup.base_behaviors[link as usize];
        }
    }

    // Phase 2: react under the updated context — stuck-at-1 links assert
    // their receiver's port, and affected ready nodes may fire.
    let ctx = RunCtx {
        graph,
        cfg,
        behaviors: &setup.behaviors,
        delays: &setup.delays,
        active,
        faulty,
        all_links_correct: setup.behaviors.iter().all(|&b| b == LinkBehavior::Correct),
        horizon: setup.horizon,
    };
    let rng = &mut setup.script_rng;
    let single;
    let links: &[u32] = match tr.event {
        FaultEvent::Fail(node, _) | FaultEvent::Heal(node, _) => graph.out_links(node),
        FaultEvent::LinkDown(link, _) | FaultEvent::LinkUp(link) => {
            single = [link];
            &single
        }
    };
    for &l in links {
        if ctx.behaviors[l as usize] != LinkBehavior::StuckOne {
            continue;
        }
        let lk = graph.link(l);
        if !ctx.active[lk.dst as usize] {
            continue;
        }
        arm_flag(lk.dst, lk.dst_port, now, cfg.timing.link, nodes, q, rng);
        maybe_fire(lk.dst, now, &ctx, nodes, obs, q, rng);
    }

    // A healed node re-arms its stuck-at-1 in-ports (still-faulty
    // neighbours, link overrides) and may fire off its rejoin state.
    if let FaultEvent::Heal(node, _) = tr.event {
        arm_stuck_ports(node, now, &ctx, nodes, q, rng);
        if ctx.active[node as usize] {
            maybe_fire(node, now, &ctx, nodes, obs, q, rng);
        }
    }
}

/// If `node` is ready and its guard is satisfied, fire: observe the firing
/// record, sleep (observing the drawn sleep), broadcast.
fn maybe_fire<O: RunObserver>(
    node: NodeId,
    now: Time,
    ctx: &RunCtx<'_>,
    nodes: &mut SoaNodes,
    obs: &mut O,
    q: &mut CalendarQueue<Ev>,
    rng: &mut SimRng,
) {
    if nodes.is_sleeping(node) {
        return;
    }
    let Some(ix) = nodes.satisfied_guard(node, ctx.graph.guard(node)) else {
        return;
    };
    let cause = TriggerCause::from_guard_index(ix);
    obs.on_fire(node, now, cause);
    let sleep_epoch = nodes.fire(node);
    let dur = rng.duration_in(ctx.cfg.timing.sleep.lo, ctx.cfg.timing.sleep.hi);
    obs.on_sleep(node, now, dur);
    q.push(
        now + dur,
        Ev::Wake {
            node,
            epoch: sleep_epoch,
        },
    );
    broadcast(node, now, ctx, q, rng);
}

/// Send a trigger message on every correct outgoing link of `node`, one
/// delay draw per message sent.
fn broadcast(
    node: NodeId,
    now: Time,
    ctx: &RunCtx<'_>,
    q: &mut CalendarQueue<Ev>,
    rng: &mut SimRng,
) {
    for &l in ctx.graph.out_links(node) {
        if ctx.behaviors[l as usize] == LinkBehavior::Correct {
            let d = ctx.delays.sample(l, rng);
            q.push(now + d, Ev::Deliver { link: l });
        }
    }
}

/// A stuck-at-1 in-port re-asserts its memory flag the instant a link
/// timeout cleared it. A no-op when every link is correct.
fn refresh_stuck_one(
    node: NodeId,
    port: u8,
    now: Time,
    ctx: &RunCtx<'_>,
    nodes: &mut SoaNodes,
    q: &mut CalendarQueue<Ev>,
    rng: &mut SimRng,
) {
    if ctx.all_links_correct {
        return; // no stuck-at-1 links anywhere
    }
    let l = ctx.graph.in_links(node)[port as usize];
    if ctx.behaviors[l as usize] == LinkBehavior::StuckOne {
        arm_flag(node, port, now, ctx.cfg.timing.link, nodes, q, rng);
    }
}

/// Assert every stuck-at-1 in-port of `node` at `now`: at simulation
/// start, after a wake-up cleared all its flags, and when it heals.
fn arm_stuck_ports(
    node: NodeId,
    now: Time,
    ctx: &RunCtx<'_>,
    nodes: &mut SoaNodes,
    q: &mut CalendarQueue<Ev>,
    rng: &mut SimRng,
) {
    for port in 0..ctx.graph.port_count(node) as u8 {
        refresh_stuck_one(node, port, now, ctx, nodes, q, rng);
    }
}

/// Put `node` into an arbitrary state (Theorem 2) at `now`, drawing from
/// `rng` in a fixed order: a coin for sleeping, one coin per in-port for
/// its memory flag, a residual sleep in `[0, T+_sleep]` if asleep, then a
/// residual in `[0, T+_link]` per set flag. Corrupted-init seeding
/// ([`InitState::Arbitrary`], main stream) and arbitrary rejoins
/// ([`RejoinState::Arbitrary`], script stream) both go through here.
fn seed_arbitrary(
    node: NodeId,
    now: Time,
    graph: &PulseGraph,
    timing: Timing,
    nodes: &mut SoaNodes,
    q: &mut CalendarQueue<Ev>,
    rng: &mut SimRng,
) {
    let sleeping = rng.coin();
    let set: Vec<u8> = (0..graph.port_count(node) as u8)
        .filter(|_| rng.coin())
        .collect();
    let eps = nodes.force_arbitrary(node, sleeping, &set);
    if let Some(epoch) = eps.sleep_epoch {
        let residual = rng.duration_in(Duration::ZERO, timing.sleep.hi);
        q.push(now + residual, Ev::Wake { node, epoch });
    }
    for (port, epoch) in eps.flag_epochs {
        let residual = rng.duration_in(Duration::ZERO, timing.link.hi);
        q.push(now + residual, Ev::LinkTimeout { node, port, epoch });
    }
}

/// Set `node`'s memory flag on `port` and, if it was clear, schedule its
/// expiry a `link = [T−_link, T+_link]` draw from `rng` after `now`.
/// Returns whether the flag was newly set. Every flag a message or a
/// stuck-at-1 link sets goes through here; only arbitrary-state seeding
/// (initial or on rejoin) sets flags directly.
fn arm_flag(
    node: NodeId,
    port: u8,
    now: Time,
    link: DelayRange,
    nodes: &mut SoaNodes,
    q: &mut CalendarQueue<Ev>,
    rng: &mut SimRng,
) -> bool {
    let Some(epoch) = nodes.set_flag(node, port) else {
        return false;
    };
    q.push(
        now + rng.duration_in(link.lo, link.hi),
        Ev::LinkTimeout { node, port, epoch },
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ArrivalLog;
    use hex_core::{HexGrid, NodeFault, D_MINUS, D_PLUS};
    use hex_des::Schedule;

    fn zero_schedule(w: u32) -> Schedule {
        Schedule::single_pulse(vec![Time::ZERO; w as usize])
    }

    #[test]
    fn fault_free_wave_triggers_everyone_once() {
        let grid = HexGrid::new(10, 8);
        let trace = simulate(grid.graph(), &zero_schedule(8), &SimConfig::fault_free(), 1);
        for n in grid.graph().node_ids() {
            assert_eq!(
                trace.fires[n as usize].len(),
                1,
                "node {:?} fired {} times",
                grid.coord_of(n),
                trace.fires[n as usize].len()
            );
        }
    }

    #[test]
    fn wave_respects_delay_bounds_per_layer() {
        let grid = HexGrid::new(10, 8);
        let trace = simulate(grid.graph(), &zero_schedule(8), &SimConfig::fault_free(), 2);
        for layer in 1..=10u32 {
            for col in 0..8 {
                let n = grid.node(layer, col as i64);
                let t = trace.fires[n as usize][0].0;
                // A node at layer ℓ cannot fire before ℓ·d- nor after the
                // fault-free upper envelope 2ℓ·d+ (Lemma 3's induction).
                assert!(t >= Time::ZERO + D_MINUS.times(layer as i64));
                assert!(t <= Time::ZERO + D_PLUS.times(2 * layer as i64));
            }
        }
    }

    #[test]
    fn layer1_triggering_causes_are_central_with_zero_skew() {
        // With all sources firing at 0 and the first wave, layer-1 nodes are
        // triggered by their two lower neighbors (the side neighbors fire no
        // earlier), i.e. centrally (or via a pair involving a lower port).
        let grid = HexGrid::new(3, 6);
        let trace = simulate(grid.graph(), &zero_schedule(6), &SimConfig::fault_free(), 3);
        for col in 0..6 {
            let n = grid.node(1, col as i64);
            let (_, cause) = trace.fires[n as usize][0];
            assert_ne!(cause, TriggerCause::Source);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let grid = HexGrid::new(8, 6);
        let cfg = SimConfig::fault_free();
        let t1 = simulate(grid.graph(), &zero_schedule(6), &cfg, 42);
        let t2 = simulate(grid.graph(), &zero_schedule(6), &cfg, 42);
        assert_eq!(t1.fires, t2.fires);
        let t3 = simulate(grid.graph(), &zero_schedule(6), &cfg, 43);
        assert_ne!(t1.fires, t3.fires);
    }

    #[test]
    fn fixed_delays_give_exact_wave() {
        // With every delay exactly d+, node (ℓ, i) fires at exactly ℓ·d+.
        let grid = HexGrid::new(6, 5);
        let cfg = SimConfig {
            delays: DelayModel::Fixed(D_PLUS),
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &zero_schedule(5), &cfg, 7);
        for layer in 0..=6u32 {
            for col in 0..5 {
                let n = grid.node(layer, col as i64);
                assert_eq!(
                    trace.fires[n as usize][0].0,
                    Time::ZERO + D_PLUS.times(layer as i64)
                );
            }
        }
    }

    #[test]
    fn fail_silent_node_leaves_neighbors_alive() {
        let grid = HexGrid::new(10, 8);
        let victim = grid.node(3, 4);
        let cfg = SimConfig {
            faults: FaultPlan::none().with_node(victim, NodeFault::FailSilent),
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &zero_schedule(8), &cfg, 11);
        // Faulty node records nothing.
        assert!(trace.fires[victim as usize].is_empty());
        // Everyone else still fires exactly once (Condition 1 holds for a
        // single fault).
        for n in grid.graph().node_ids() {
            if n != victim {
                assert_eq!(
                    trace.fires[n as usize].len(),
                    1,
                    "node {:?}",
                    grid.coord_of(n)
                );
            }
        }
    }

    #[test]
    fn two_adjacent_crashes_starve_common_upper_neighbor() {
        // Section 3.2: "two adjacent crash failures on some layer just
        // effectively crash their common neighbor in the layer above".
        // (2,3) and (2,4) are the lower-left/lower-right in-neighbors of
        // (3,3). With both silent, (3,3) can still be saved by left/right
        // support... but if we also keep the wave from the sides it cannot.
        // Use a narrow wave: actually with full-width wave the side
        // neighbors DO save (3,3) via (left ∧ lower-left)? No: lower-left
        // (2,3) is dead, so pairs (0,1),(1,2),(2,3) all involve a dead lower
        // port except (left, lower-left) = (0,1) with port 1 dead and
        // (lower-right, right) = (2,3) with port 2 dead. All three guard
        // pairs include a lower port — so (3,3) can never fire. This
        // violates Condition 1 (two faulty in-neighbors) and demonstrates
        // exactly the effective-crash the paper describes.
        let grid = HexGrid::new(6, 8);
        let a = grid.node(2, 3);
        let b = grid.node(2, 4);
        let starved = grid.node(3, 3);
        let cfg = SimConfig {
            faults: FaultPlan::none().with_nodes(&[a, b], NodeFault::FailSilent),
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &zero_schedule(8), &cfg, 13);
        assert!(
            trace.fires[starved as usize].is_empty(),
            "(3,3) should starve"
        );
        // But the pulse still reaches the top layer everywhere else: the
        // wave flows around the hole.
        for col in 0..8 {
            let n = grid.node(6, col as i64);
            assert_eq!(trace.fires[n as usize].len(), 1);
        }
    }

    #[test]
    fn stuck_one_links_alone_do_not_trigger() {
        // A single Byzantine in-neighbor (even stuck-1 on all links) cannot
        // make a correct node fire: the guard needs two adjacent flags and
        // only one port is faulty (Condition 1 with f = 1).
        let grid = HexGrid::new(4, 6);
        let byz = grid.node(1, 2);
        let cfg = SimConfig {
            faults: FaultPlan::none().with_node(byz, NodeFault::Byzantine),
            timing: Timing::paper_scenario_iii(),
            // No pulses at all: sources never fire.
            ..SimConfig::fault_free()
        };
        let empty = Schedule::new(vec![Vec::new(); 6]);
        let cfg = SimConfig {
            horizon: Some(Time::from_ns(500.0)),
            ..cfg
        };
        let trace = simulate(grid.graph(), &empty, &cfg, 17);
        for n in grid.graph().node_ids() {
            assert!(
                trace.fires[n as usize].is_empty(),
                "node {:?} fired spuriously",
                grid.coord_of(n)
            );
        }
    }

    #[test]
    fn multi_pulse_clean_run_fires_once_per_pulse() {
        use hex_clock::{PulseTrain, Scenario};
        let grid = HexGrid::new(6, 6);
        let mut rng = SimRng::seed_from_u64(5);
        let train = PulseTrain::new(Scenario::Zero, 4, Duration::from_ns(300.0));
        let sched = train.generate(6, &mut rng);
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &sched, &cfg, 19);
        for n in grid.graph().node_ids() {
            assert_eq!(
                trace.fires[n as usize].len(),
                4,
                "node {:?}",
                grid.coord_of(n)
            );
        }
    }

    #[test]
    fn all_flags_set_fires_spurious_pulse_then_recovers() {
        use hex_clock::{PulseTrain, Scenario};
        let grid = HexGrid::new(5, 6);
        let mut rng = SimRng::seed_from_u64(31);
        let train = PulseTrain::new(Scenario::Zero, 6, Duration::from_ns(300.0));
        let sched = train.generate(6, &mut rng);
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            init: InitState::AllFlagsSet,
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &sched, &cfg, 37);
        // Every forwarder fires the spurious pulse at exactly time 0 (its
        // guard is satisfied by the corrupted flags)...
        for n in grid.graph().node_ids() {
            if grid.graph().role(n) == Role::Forwarder {
                assert_eq!(trace.fires[n as usize][0].0, Time::ZERO, "node {n}");
            }
        }
        // ...and still settles to exactly one firing per real pulse: 6
        // scheduled + 1 spurious.
        for n in grid.graph().node_ids() {
            if grid.graph().role(n) == Role::Forwarder {
                let count = trace.fires[n as usize].len();
                assert!(
                    (6..=7).contains(&count),
                    "node {n} fired {count} times (expected 6 real + ≤1 spurious)"
                );
            }
        }
    }

    #[test]
    fn all_asleep_misses_first_pulse_but_recovers() {
        use hex_clock::{PulseTrain, Scenario};
        let grid = HexGrid::new(5, 6);
        let mut rng = SimRng::seed_from_u64(41);
        let train = PulseTrain::new(Scenario::Zero, 6, Duration::from_ns(300.0));
        let sched = train.generate(6, &mut rng);
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            init: InitState::AllAsleep,
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &sched, &cfg, 43);
        let period = train.period(6);
        for n in grid.graph().node_ids() {
            if grid.graph().role(n) != Role::Forwarder {
                continue;
            }
            let fires = &trace.fires[n as usize];
            // The fabric may lose the pulse(s) that arrive while asleep but
            // must fire regularly afterwards: at least the last 4 pulses,
            // never more than one firing per pulse window.
            assert!(
                (4..=6).contains(&fires.len()),
                "node {n} fired {} times",
                fires.len()
            );
            for w in fires.windows(2) {
                let gap = w[1].0 - w[0].0;
                assert!(
                    gap > period / 2,
                    "node {n}: double firing within one pulse window"
                );
            }
        }
    }

    #[test]
    fn arbitrary_init_stabilizes_to_once_per_pulse() {
        use hex_clock::{PulseTrain, Scenario};
        let grid = HexGrid::new(5, 6);
        let mut rng = SimRng::seed_from_u64(23);
        let train = PulseTrain::new(Scenario::Zero, 8, Duration::from_ns(300.0));
        let sched = train.generate(6, &mut rng);
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            init: InitState::Arbitrary,
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &sched, &cfg, 29);
        // After the first few pulses every node must fire regularly: count
        // fires in the second half of the run.
        let period = train.period(6);
        let half = sched.t_min(4).unwrap();
        for n in grid.graph().node_ids() {
            if grid.graph().role(n) == Role::Source {
                continue;
            }
            let late: Vec<Time> = trace.fires[n as usize]
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| t >= half)
                .collect();
            assert!(
                late.len() >= 3 && late.len() <= 5,
                "node {:?} fired {} times after stabilization",
                grid.coord_of(n),
                late.len()
            );
            for w in late.windows(2) {
                let gap = w[1] - w[0];
                assert!(
                    gap > period / 2 && gap < period * 2,
                    "irregular gap {gap:?} at node {:?}",
                    grid.coord_of(n)
                );
            }
        }
    }

    /// The stale counter sees exactly the epoch-rejected churn: a strict
    /// share of the pops in the generous single-pulse regime and under
    /// tight timeouts with corrupted init.
    #[test]
    fn stale_counter_tracks_epoch_rejections() {
        use hex_clock::{PulseTrain, Scenario};
        let grid = HexGrid::new(6, 6);
        let sched = zero_schedule(6);
        let mut scratch = SimScratch::new();

        // Even a fault-free single-pulse run churns: every wake-up clears
        // flags whose LinkTimeouts are still pending, which then pop
        // epoch-rejected. The counter must see them without ever
        // exceeding the pop count.
        simulate_into(
            &mut scratch,
            grid.graph(),
            &sched,
            &SimConfig::fault_free(),
            1,
        );
        let (popped, stale) = (scratch.popped_events(), scratch.stale_events());
        assert!(popped > 0);
        assert!(stale < popped, "stale {stale} of {popped} popped");

        let mut rng = SimRng::seed_from_u64(9);
        let multi =
            PulseTrain::new(Scenario::Zero, 6, Duration::from_ns(300.0)).generate(6, &mut rng);
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            // Arbitrary init is the churn generator: nodes wake early and
            // clear flags whose residual timeouts are still pending, and
            // fresh deliveries re-set them before the old epoch pops.
            init: InitState::Arbitrary,
            ..SimConfig::fault_free()
        };
        simulate_into(&mut scratch, grid.graph(), &multi, &cfg, 2);
        let (popped, stale) = (scratch.popped_events(), scratch.stale_events());
        assert!(stale > 0, "corrupted multi-pulse runs churn timeouts");
        assert!(stale < popped, "stale events are a strict share");
    }

    /// The streaming observer path replays the identical execution: the
    /// binner's slots match the trace-then-view extraction, with one dirty
    /// scratch carried across both paths.
    #[test]
    fn observed_run_matches_trace_extraction() {
        use crate::trace::{assign_pulses, PulseView};
        use hex_clock::{PulseTrain, Scenario};

        let grid = HexGrid::new(7, 6);
        let mut rng = SimRng::seed_from_u64(13);
        let multi =
            PulseTrain::new(Scenario::Zero, 3, Duration::from_ns(300.0)).generate(6, &mut rng);
        let single = zero_schedule(6);
        let d_mid = hex_core::DelayRange::paper().mid();
        let mut scratch = SimScratch::new();

        {
            // Single pulse: binner slots == PulseView::from_single_pulse.
            let cfg = SimConfig::fault_free();
            let trace = simulate(grid.graph(), &single, &cfg, 5);
            let view = PulseView::from_single_pulse(&grid, &trace);
            let binner = simulate_observed_into(&mut scratch, &grid, &single, &cfg, 5, d_mid);
            assert_eq!(binner.pulses(), 1);
            for layer in 0..=7 {
                for col in 0..6i64 {
                    assert_eq!(
                        binner.grid_time(0, layer, col),
                        view.time(layer, col),
                        "node ({layer},{col})"
                    );
                }
            }
            assert_eq!(binner.spurious(), view.spurious);

            // Multi pulse with corrupted init: binner == assign_pulses.
            let cfg = SimConfig {
                timing: Timing::paper_scenario_iii(),
                init: InitState::Arbitrary,
                ..SimConfig::fault_free()
            };
            let trace = simulate(grid.graph(), &multi, &cfg, 6);
            let views = assign_pulses(&grid, &trace, &multi, d_mid);
            let binner = simulate_observed_into(&mut scratch, &grid, &multi, &cfg, 6, d_mid);
            assert_eq!(binner.pulses(), views.len());
            let mut spurious = 0;
            for (k, v) in views.iter().enumerate() {
                spurious += v.spurious;
                for layer in 0..=7 {
                    for col in 0..6i64 {
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
        // Both paths shared the scratch without regrowing its buffers.
        assert_eq!(scratch.grow_count(), 1);
    }

    /// The observed path records the faulty set and skips faulty fires
    /// exactly like the trace path.
    #[test]
    fn observed_run_reports_faulty_nodes() {
        let grid = HexGrid::new(5, 6);
        let victim = grid.node(2, 3);
        let cfg = SimConfig {
            faults: FaultPlan::none().with_node(victim, NodeFault::FailSilent),
            ..SimConfig::fault_free()
        };
        let mut scratch = SimScratch::new();
        let d_mid = hex_core::DelayRange::paper().mid();
        let binner = simulate_observed_into(&mut scratch, &grid, &zero_schedule(6), &cfg, 3, d_mid);
        assert_eq!(binner.faulty(), &[victim]);
        assert_eq!(binner.time(0, victim), None);
    }

    /// Regression net for the scratch work counters: **every** reuse path
    /// (same-geometry reuse, a ring rebuild, the observed entry point, and
    /// a run that pops zero events) must leave `popped_events` /
    /// `stale_events` describing the *most recent* run only — never a
    /// stale or accumulated value from earlier runs through the same
    /// scratch.
    #[test]
    fn counters_describe_only_the_most_recent_run() {
        let grid = HexGrid::new(6, 6);
        let sched = zero_schedule(6);
        let d_mid = hex_core::DelayRange::paper().mid();
        let mut scratch = SimScratch::new();

        // A real run accumulates work...
        simulate_into(
            &mut scratch,
            grid.graph(),
            &sched,
            &SimConfig::fault_free(),
            1,
        );
        let first = scratch.popped_events();
        assert!(first > 0);

        // ...a second identical run through the same scratch reports the
        // same work, not 2× (the queue's pop counter resets with it).
        simulate_into(
            &mut scratch,
            grid.graph(),
            &sched,
            &SimConfig::fault_free(),
            1,
        );
        assert_eq!(
            scratch.popped_events(),
            first,
            "counter accumulated across reuse"
        );

        // The observed entry point resets and reports identically: the
        // event interleaving is the same, only the recording differs.
        simulate_observed_into(
            &mut scratch,
            &grid,
            &sched,
            &SimConfig::fault_free(),
            1,
            d_mid,
        );
        assert_eq!(scratch.popped_events(), first, "observed path diverged");

        // A ring rebuild (fixed delays, another geometry) through the
        // same scratch reports that run's work, then the original
        // geometry reports its own again.
        let fixed = SimConfig {
            delays: DelayModel::Fixed(D_PLUS),
            ..SimConfig::fault_free()
        };
        simulate_into(&mut scratch, grid.graph(), &sched, &fixed, 1);
        let mut fresh = SimScratch::new();
        simulate_into(&mut fresh, grid.graph(), &sched, &fixed, 1);
        assert_eq!(
            scratch.popped_events(),
            fresh.popped_events(),
            "ring rebuild leaked counters"
        );
        simulate_into(
            &mut scratch,
            grid.graph(),
            &sched,
            &SimConfig::fault_free(),
            1,
        );
        assert_eq!(
            scratch.popped_events(),
            first,
            "geometry switch leaked counters"
        );

        // A run that pops nothing (no scheduled pulses, clean init) must
        // read 0 — not the previous run's totals.
        let empty = Schedule::new(vec![Vec::new(); 6]);
        let quiet = SimConfig {
            horizon: Some(Time::from_ns(100.0)),
            ..SimConfig::fault_free()
        };
        simulate_into(&mut scratch, grid.graph(), &empty, &quiet, 1);
        assert_eq!(
            scratch.popped_events(),
            0,
            "stale popped count survived reuse"
        );
        assert_eq!(
            scratch.stale_events(),
            0,
            "stale stale count survived reuse"
        );
    }

    /// The batching wall: the production driver (bucket batches spanning
    /// `min_increment`) replays the one-instant reference — trace, the
    /// stream of flag-setting arrivals and popped/stale counters — in the
    /// four regimes that shape the kernel differently: fault-free, Byzantine,
    /// arbitrary-init multi-pulse (pre-loop residuals shorter than the
    /// batch span, heavy stale churn), and a script mixing every
    /// transition kind with two transitions at one instant. Each side
    /// carries its own dirty scratch across regimes.
    #[test]
    fn batched_driver_matches_one_instant_reference() {
        use hex_clock::{PulseTrain, Scenario};
        let grid = HexGrid::new(8, 6);
        let single = zero_schedule(6);
        let mut rng = SimRng::seed_from_u64(3);
        let multi =
            PulseTrain::new(Scenario::Zero, 4, Duration::from_ns(300.0)).generate(6, &mut rng);
        let script = FaultScript::none()
            .with(
                Time::from_ns(40.0),
                FaultEvent::Fail(grid.node(3, 2), NodeFault::Byzantine),
            )
            .with(
                Time::from_ns(400.0),
                FaultEvent::Heal(grid.node(3, 2), RejoinState::Arbitrary),
            )
            .with(
                Time::from_ns(400.0),
                FaultEvent::Fail(grid.node(1, 4), NodeFault::FailSilent),
            )
            .with(
                Time::from_ns(700.0),
                FaultEvent::Heal(grid.node(1, 4), RejoinState::Clean),
            )
            .with(
                Time::from_ns(900.0),
                FaultEvent::LinkDown(5, LinkBehavior::StuckOne),
            )
            .with(Time::from_ns(1_100.0), FaultEvent::LinkUp(5));
        let tight = SimConfig {
            timing: Timing::paper_scenario_iii(),
            ..SimConfig::fault_free()
        };
        let regimes: Vec<(&str, SimConfig, &Schedule)> = vec![
            ("fault-free", SimConfig::fault_free(), &single),
            (
                "byzantine",
                SimConfig {
                    faults: FaultPlan::none().with_node(grid.node(3, 2), NodeFault::Byzantine),
                    ..tight.clone()
                },
                &single,
            ),
            (
                "arbitrary-init",
                SimConfig {
                    init: InitState::Arbitrary,
                    ..tight.clone()
                },
                &multi,
            ),
            (
                "scripted",
                SimConfig {
                    script: Some(script),
                    ..tight.clone()
                },
                &multi,
            ),
        ];
        let mut production = SimScratch::new();
        let mut reference = SimScratch::new();
        for (name, cfg, sched) in &regimes {
            for seed in [77u64, 78] {
                let want = simulate_reference_into(&mut reference, grid.graph(), sched, cfg, seed);
                let got = simulate_into(&mut production, grid.graph(), sched, cfg, seed);
                assert_eq!(got, want, "{name}/seed {seed}: trace diverged");
                assert_eq!(
                    (production.popped_events(), production.stale_events()),
                    (reference.popped_events(), reference.stale_events()),
                    "{name}/seed {seed}: work counters diverged"
                );
                let (mut want, mut got) = (ArrivalLog::default(), ArrivalLog::default());
                let graph = grid.graph();
                reference.run::<_, true>(graph, sched, cfg, seed, &mut want);
                production.run::<_, false>(graph, sched, cfg, seed, &mut got);
                assert!(!want.0.is_empty(), "{name}/seed {seed}: no arrivals");
                assert_eq!(got, want, "{name}/seed {seed}: arrivals diverged");
            }
        }
    }

    /// The streaming observer sees the identical execution on the
    /// production driver and the one-instant reference, with one dirty
    /// scratch alternating between them.
    #[test]
    fn observed_path_matches_reference_with_shared_scratch() {
        let grid = HexGrid::new(7, 6);
        let sched = zero_schedule(6);
        let d_mid = hex_core::DelayRange::paper().mid();
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            init: InitState::AllFlagsSet,
            ..SimConfig::fault_free()
        };
        let mut scratch = SimScratch::new();
        let b1: Vec<_> = simulate_observed_into(&mut scratch, &grid, &sched, &cfg, 9, d_mid)
            .slots()
            .to_vec();
        let r: Vec<_> =
            simulate_observed_reference_into(&mut scratch, &grid, &sched, &cfg, 9, d_mid)
                .slots()
                .to_vec();
        let b2: Vec<_> = simulate_observed_into(&mut scratch, &grid, &sched, &cfg, 9, d_mid)
            .slots()
            .to_vec();
        assert_eq!(b1, r, "observer diverged from the reference");
        assert_eq!(b2, r, "dirty-scratch rerun diverged");
        assert_eq!(scratch.grow_count(), 1);
    }

    /// The batch span is the fastest increment the loop can schedule.
    #[test]
    fn min_increment_is_the_fastest_event() {
        let cfg = SimConfig::fault_free();
        // The delivery envelope's lower edge is the fastest increment
        // under generous timing.
        assert_eq!(cfg.min_increment(), cfg.delays.envelope().lo);
        let tight = SimConfig {
            timing: Timing::paper_scenario_iii(),
            ..SimConfig::fault_free()
        };
        assert!(tight.min_increment() <= tight.timing.link.lo);
        assert!(tight.min_increment() <= tight.timing.sleep.lo);
        assert!(tight.min_increment() <= tight.delays.envelope().lo);
        assert!(tight.min_increment() > Duration::ZERO);
    }

    /// The benchmark harness prints these in its config line, which must
    /// keep reading `queue=calendar batch_default=true shard_default=1`.
    #[test]
    fn harness_stubs_report_the_one_engine_path() {
        assert_eq!(QueuePolicy::default().label(), "calendar");
        assert!(batch_default());
        assert_eq!(shard_default(), 1);
    }

    /// A scripted mid-run crash silences the victim for exactly its
    /// window and the grid keeps pulsing around the hole; after a clean
    /// rejoin the victim fires again with later pulses.
    #[test]
    fn scripted_crash_window_silences_then_recovers() {
        use hex_clock::{PulseTrain, Scenario};
        let grid = HexGrid::new(5, 6);
        let mut rng = SimRng::seed_from_u64(51);
        let sched =
            PulseTrain::new(Scenario::Zero, 6, Duration::from_ns(300.0)).generate(6, &mut rng);
        let victim = grid.node(2, 3);
        let crash = Time::from_ns(150.0);
        let heal = Time::from_ns(1_050.0);
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            script: Some(FaultScript::crash_rejoin(
                victim,
                crash,
                heal,
                RejoinState::Clean,
            )),
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &sched, &cfg, 61);
        let fires = &trace.fires[victim as usize];
        assert!(
            fires.iter().any(|&(t, _)| t < crash),
            "victim missed the pre-crash pulse"
        );
        assert!(
            fires.iter().all(|&(t, _)| t < crash || t >= heal),
            "victim fired while crashed"
        );
        assert!(
            fires.iter().filter(|&&(t, _)| t >= heal).count() >= 2,
            "victim never rejoined the pulse train"
        );
        // The wave flows around the hole: the top layer still sees every
        // pulse (a single crash respects Condition 1).
        for col in 0..6 {
            let n = grid.node(5, col as i64);
            assert!(
                (5..=7).contains(&trace.fires[n as usize].len()),
                "top-layer node {n} fired {} times",
                trace.fires[n as usize].len()
            );
        }
    }

    /// Metamorphic: a script whose whole disturbance heals cleanly before
    /// the wavefront reaches the victim leaves no observable trace — the
    /// run is byte-identical to the unscripted one (the script machinery
    /// draws only from its own salted RNG stream).
    #[test]
    fn script_healed_before_the_wave_is_invisible() {
        let grid = HexGrid::new(5, 6);
        let sched = zero_schedule(6);
        let victim = grid.node(4, 1);
        // The wave cannot reach layer 4 before 4·d⁻; the whole fault
        // window closes (with a clean rejoin) well before that.
        let heal = Time::from_ps(20_000);
        assert!(heal < Time::ZERO + D_MINUS.times(4));
        let script =
            FaultScript::crash_rejoin(victim, Time::from_ps(1_000), heal, RejoinState::Clean);
        let plain = SimConfig::fault_free();
        let scripted = SimConfig {
            script: Some(script),
            ..plain.clone()
        };
        let a = simulate(grid.graph(), &sched, &plain, 83);
        let b = simulate(grid.graph(), &sched, &scripted, 83);
        assert_eq!(a, b, "healed-in-place script left a trace");
    }

    #[test]
    fn max_increment_is_the_slowest_event() {
        let cfg = SimConfig::fault_free();
        // Generous timing: the 10 µs sleep dominates.
        assert_eq!(cfg.max_increment(), cfg.timing.sleep.hi);
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            ..SimConfig::fault_free()
        };
        assert_eq!(cfg.max_increment().ps(), 94_940);
    }
}
