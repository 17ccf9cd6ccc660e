//! Declarative, buildable run descriptions: the experiment vocabulary of
//! the paper's evaluation (Sections 4.2–4.4) as a first-class API.
//!
//! A [`RunSpec`] owns everything that defines a batch of independent
//! simulation runs: grid shape, layer-0 [`Scenario`], [`FaultRegime`],
//! Table-3 timing derivation ([`TimingPolicy`]), initial states, pulse
//! count and separation, the delay model, and the per-run seed policy.
//! Batches execute on the one batch scheduler of [`crate::batch`], either
//! materialized ([`RunSpec::run_batch`]: each run's owned views from
//! [`RunSpec::run_one`], folded into a `Vec`) or streamed through a
//! [`Reducer`] ([`RunSpec::fold_observed`]) so that
//! per-run map+reduce never holds a whole 250-run sweep in memory.
//!
//! ```
//! use hex_clock::Scenario;
//! use hex_sim::spec::{FaultRegime, RunSpec};
//!
//! // Two runs of the paper's scenario (iv) with one Byzantine node on a
//! // small grid (the full evaluation uses `RunSpec::paper()`: 50×20, 250
//! // runs).
//! let spec = RunSpec::grid(8, 6)
//!     .scenario(Scenario::Ramp)
//!     .faults(FaultRegime::Byzantine(1))
//!     .runs(2)
//!     .seed(7)
//!     .threads(1);
//! let batch = spec.run_batch();
//! assert_eq!(batch.len(), 2);
//! assert_eq!(batch[0].faulty.len(), 1);
//! assert_eq!(batch[0].view().width(), 6);
//! ```
//!
//! The same description reproduces, bit for bit, what the pre-`RunSpec`
//! hand wiring (`Schedule::single_pulse` + `SimConfig { .. }` + `simulate`)
//! produced — `tests/spec_equivalence.rs` at the workspace root pins this.

use hex_clock::{PulseTrain, Scenario};
use hex_core::condition2::{Condition2, TABLE3_SIGMA_NS};
use hex_core::fault::{forwarder_candidates, place_condition1, satisfies_condition1};
use hex_core::{
    DelayModel, FaultPlan, FaultScript, HexGrid, NodeFault, NodeId, PulseGraph, Timing, D_MINUS,
    D_PLUS,
};
use hex_des::{Duration, Schedule, SimRng};

use crate::batch::{self, Reducer};
use crate::engine::{
    simulate, simulate_into, simulate_observed_into, InitState, SimConfig, SimScratch,
};
use crate::knobs;
use crate::observe::PulseBinner;
use crate::trace::{assign_pulses, PulseView, Trace};

/// Per-run RNG salt for single-pulse batches (the run's scenario offsets
/// and fault placement are drawn from `seed + run` XOR this).
pub const SINGLE_PULSE_SALT: u64 = 0x5EED_0001;

/// Per-run RNG salt for multi-pulse (stabilization) batches.
pub const MULTI_PULSE_SALT: u64 = 0x5EED_0002;

/// The Condition-2 timing for a scenario, using the paper's Table-3 stable
/// skews.
pub fn scenario_timing(scenario: Scenario) -> Timing {
    Condition2::paper(table3_sigma(scenario)).timing()
}

/// The Condition-2 pulse separation `S` for a scenario (Table 3).
pub fn scenario_separation(scenario: Scenario) -> Duration {
    Condition2::paper(table3_sigma(scenario))
        .derive()
        .separation
}

/// The Table-3 stable-skew input σ for a scenario.
fn table3_sigma(scenario: Scenario) -> Duration {
    let ix = Scenario::ALL
        .iter()
        .position(|&s| s == scenario)
        .expect("known scenario");
    Duration::from_ns(TABLE3_SIGMA_NS[ix])
}

/// Fault regime of a run batch: how the fault plan of each run is drawn.
#[derive(Debug, Clone)]
pub enum FaultRegime {
    /// No faults.
    None,
    /// `f` Byzantine nodes placed per run under Condition 1.
    Byzantine(usize),
    /// `f` fail-silent nodes placed per run under Condition 1.
    FailSilent(usize),
    /// A fixed Byzantine node (Fig. 13 uses `(1, 19)`).
    FixedByzantine(u32, u32),
    /// `byzantine` Byzantine plus `fail_silent` fail-silent nodes, jointly
    /// placed so the union still satisfies Condition 1 (the `hexctl` CLI's
    /// mixed regime).
    Mixed {
        /// Byzantine node count.
        byzantine: usize,
        /// Fail-silent node count.
        fail_silent: usize,
    },
    /// An explicit, fixed fault plan used verbatim in every run (custom
    /// per-link behaviours, crash clusters, adversarial constructions).
    Plan(FaultPlan),
    /// A dynamic fault campaign: the grid starts fault-free and the same
    /// [`FaultScript`] timeline of mid-run transitions (bursts, crash +
    /// rejoin, churn, link flaps) replays in every run. Script-internal
    /// randomness (Byzantine stuck directions, adversarial rejoin states)
    /// draws from a salted per-run stream, so the fault-free prefix of a
    /// scripted run is byte-identical to [`FaultRegime::None`].
    Script(FaultScript),
}

impl FaultRegime {
    /// The nominal fault count `f`.
    pub fn f(&self) -> usize {
        match self {
            FaultRegime::None => 0,
            FaultRegime::Byzantine(f) | FaultRegime::FailSilent(f) => *f,
            FaultRegime::FixedByzantine(..) => 1,
            FaultRegime::Mixed {
                byzantine,
                fail_silent,
            } => byzantine + fail_silent,
            FaultRegime::Plan(p) => p.fault_count(),
            // Scripted runs start fault-free; the static count stays 0 so
            // horizons and exclusion masks match the fault-free baseline.
            FaultRegime::Script(_) => 0,
        }
    }

    /// The script of a [`FaultRegime::Script`] regime, if any.
    pub fn script(&self) -> Option<&FaultScript> {
        match self {
            FaultRegime::Script(s) => Some(s),
            _ => None,
        }
    }

    /// Materialize the fault plan for one run on a hex grid.
    pub fn plan(&self, grid: &HexGrid, rng: &mut SimRng) -> FaultPlan {
        self.plan_on(grid.graph(), rng)
    }

    /// Materialize the fault plan for one run on any pulse graph (used by
    /// the Section-5 topology variants, e.g. the Fig.-21 doubling rings).
    pub fn plan_on(&self, graph: &PulseGraph, rng: &mut SimRng) -> FaultPlan {
        match *self {
            FaultRegime::None | FaultRegime::Script(_) => FaultPlan::none(),
            FaultRegime::Plan(ref plan) => plan.clone(),
            FaultRegime::FixedByzantine(layer, col) => {
                // The column wraps modulo the layer's width, like
                // `HexGrid::node` (cylindric columns).
                let ring: Vec<NodeId> = graph
                    .node_ids()
                    .filter(|&n| graph.coord(n).is_some_and(|c| c.layer == layer))
                    .collect();
                assert!(!ring.is_empty(), "no nodes on layer {layer}");
                let col = col % ring.len() as u32;
                let node = ring
                    .into_iter()
                    .find(|&n| graph.coord(n).is_some_and(|c| c.col == col))
                    .expect("fixed Byzantine coordinate exists in the graph");
                FaultPlan::none().with_node(node, NodeFault::Byzantine)
            }
            FaultRegime::Byzantine(f) | FaultRegime::FailSilent(f) => {
                let kind = if matches!(self, FaultRegime::Byzantine(_)) {
                    NodeFault::Byzantine
                } else {
                    NodeFault::FailSilent
                };
                let candidates = forwarder_candidates(graph);
                let placed = place_condition1(graph, &candidates, f, rng, 10_000)
                    .expect("Condition-1 placement feasible");
                FaultPlan::none().with_nodes(&placed, kind)
            }
            FaultRegime::Mixed {
                byzantine,
                fail_silent,
            } => {
                let candidates = forwarder_candidates(graph);
                let byz = place_condition1(graph, &candidates, byzantine, rng, 10_000)
                    .expect("Condition-1 placement for Byzantine nodes");
                let mut plan = FaultPlan::none().with_nodes(&byz, NodeFault::Byzantine);
                if fail_silent > 0 {
                    let remaining: Vec<NodeId> = candidates
                        .iter()
                        .copied()
                        .filter(|n| !byz.contains(n))
                        .collect();
                    // Keep Condition 1 over the union by rejection on the
                    // combined set.
                    let mut silent = Vec::new();
                    for _ in 0..10_000 {
                        let pick = place_condition1(graph, &remaining, fail_silent, rng, 1)
                            .unwrap_or_default();
                        if pick.len() == fail_silent {
                            let mut union = byz.clone();
                            union.extend(&pick);
                            union.sort_unstable();
                            if satisfies_condition1(graph, &union) {
                                silent = pick;
                                break;
                            }
                        }
                    }
                    assert_eq!(
                        silent.len(),
                        fail_silent,
                        "combined Condition-1 placement infeasible"
                    );
                    plan = plan.with_nodes(&silent, NodeFault::FailSilent);
                }
                plan
            }
        }
    }
}

/// How a [`RunSpec`] resolves the Algorithm-1 timeout parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimingPolicy {
    /// The scenario's Table-3 timeouts via the Condition-2 derivation (the
    /// evaluation's default for every table and figure batch).
    Table3,
    /// Generous single-pulse timeouts ([`Timing::generous`]); right for
    /// one-off waves where stabilization timing is irrelevant.
    Generous,
    /// An explicit, fixed [`Timing`].
    Fixed(Timing),
}

/// The result of one run: per-pulse triggering-time matrices plus the
/// faulty node set (single-pulse runs have exactly one view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunView {
    /// Per-pulse triggering-time matrices (one for single-pulse specs).
    pub views: Vec<PulseView>,
    /// Faulty nodes of this run (ascending ids).
    pub faulty: Vec<NodeId>,
}

impl RunView {
    /// The single-pulse view (the first pulse of a multi-pulse run).
    pub fn view(&self) -> &PulseView {
        &self.views[0]
    }
}

/// The fully materialized inputs of one run: what [`crate::simulate`] gets.
#[derive(Debug, Clone)]
pub struct RunInputs {
    /// The engine seed (`spec.seed + run`).
    pub seed: u64,
    /// The layer-0 schedule of this run.
    pub schedule: Schedule,
    /// The engine configuration of this run.
    pub config: SimConfig,
}

/// A declarative description of a batch of independent simulation runs.
///
/// Construct with [`RunSpec::grid`] / [`RunSpec::paper`] /
/// [`RunSpec::small`] / [`RunSpec::from_env`], refine with the builder
/// methods, then execute with [`RunSpec::run_batch`] (materialize all
/// views), [`RunSpec::fold_observed`] (streaming map+reduce), or
/// [`RunSpec::run_single`] / [`RunSpec::run_one`] / [`RunSpec::trace`]
/// (one run).
///
/// Fields are public so thin drivers can read the shape back (`spec.runs`,
/// `spec.length`, …).
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Grid length `L` (layers above the sources).
    pub length: u32,
    /// Grid width `W` (columns around the cylinder; also the source count).
    pub width: u32,
    /// Runs in the batch (the paper uses 250).
    pub runs: usize,
    /// Base seed; run `r` simulates with `seed + r`.
    pub seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Layer-0 skew scenario.
    pub scenario: Scenario,
    /// Fault regime.
    pub faults: FaultRegime,
    /// Initial node states.
    pub init: InitState,
    /// Pulses per run; 1 selects the single-pulse regime of Section 4.2/4.3,
    /// >1 the Section-4.4 pulse train at the scenario's Table-3 separation.
    pub pulses: usize,
    /// Timeout parameter policy.
    pub timing: TimingPolicy,
    /// Link-delay model.
    pub delays: DelayModel,
    /// Explicit layer-0 schedule override (adversarial constructions);
    /// `None` derives the schedule from `scenario`/`pulses` per run.
    pub schedule: Option<Schedule>,
}

impl RunSpec {
    /// A spec on an `L × W` grid with the evaluation's defaults: 250 runs,
    /// seed 42, all worker threads, scenario (i), fault-free, clean init,
    /// one pulse, Table-3 timing, paper delays.
    pub fn grid(length: u32, width: u32) -> Self {
        RunSpec {
            length,
            width,
            runs: 250,
            seed: 42,
            threads: batch::default_threads(),
            scenario: Scenario::Zero,
            faults: FaultRegime::None,
            init: InitState::Clean,
            pulses: 1,
            timing: TimingPolicy::Table3,
            delays: DelayModel::paper(),
            schedule: None,
        }
    }

    /// The paper's setup: 50×20 grid, 250 runs.
    pub fn paper() -> Self {
        RunSpec::grid(50, 20)
    }

    /// A smaller setup for unit tests and criterion benches.
    pub fn small() -> Self {
        RunSpec::grid(12, 8).runs(20).threads(2)
    }

    /// Paper setup with `HEX_RUNS` / `HEX_SEED` / `HEX_THREADS` applied.
    pub fn from_env() -> Self {
        RunSpec::paper().with_env()
    }

    /// Apply the `HEX_RUNS` / `HEX_SEED` / `HEX_THREADS` environment
    /// knobs on top of this spec (drivers with non-paper
    /// defaults chain this: `RunSpec::grid(12, 4).runs(100).with_env()`).
    pub fn with_env(mut self) -> Self {
        if let Some(v) = knobs::parsed("HEX_RUNS", "a number") {
            self.runs = v;
        }
        if let Some(v) = knobs::parsed("HEX_SEED", "a number") {
            self.seed = v;
        }
        if let Some(v) = knobs::parsed("HEX_THREADS", "a number") {
            self.threads = v;
        }
        self
    }

    /// Set the layer-0 scenario.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Set the fault regime.
    pub fn faults(mut self, faults: FaultRegime) -> Self {
        self.faults = faults;
        self
    }

    /// Set the initial-state regime (stabilization experiments use
    /// [`InitState::Arbitrary`]).
    pub fn init(mut self, init: InitState) -> Self {
        self.init = init;
        self
    }

    /// Set the pulse count (>1 switches to the Section-4.4 pulse train).
    pub fn pulses(mut self, pulses: usize) -> Self {
        self.pulses = pulses;
        self
    }

    /// Set the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the run count.
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Set the worker-thread count (0 = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the timeout policy.
    pub fn timing(mut self, timing: TimingPolicy) -> Self {
        self.timing = timing;
        self
    }

    /// Set the link-delay model.
    pub fn delays(mut self, delays: DelayModel) -> Self {
        self.delays = delays;
        self
    }

    /// Use an explicit layer-0 schedule in every run instead of deriving
    /// one from the scenario (adversarial constructions, Fig. 5/17).
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Build the hex grid described by this spec.
    pub fn hex_grid(&self) -> HexGrid {
        HexGrid::new(self.length, self.width)
    }

    /// The effective timeout parameters under the spec's [`TimingPolicy`].
    pub fn effective_timing(&self) -> Timing {
        match self.timing {
            TimingPolicy::Table3 => scenario_timing(self.scenario),
            TimingPolicy::Generous => Timing::generous(),
            TimingPolicy::Fixed(t) => t,
        }
    }

    /// The scenario's Table-3 pulse separation `S`.
    pub fn separation(&self) -> Duration {
        scenario_separation(self.scenario)
    }

    /// The engine seed of run `run`.
    pub fn run_seed(&self, run: usize) -> u64 {
        self.seed + run as u64
    }

    /// The per-run RNG salt ([`SINGLE_PULSE_SALT`] or
    /// [`MULTI_PULSE_SALT`], by pulse count).
    pub fn salt(&self) -> u64 {
        if self.pulses <= 1 {
            SINGLE_PULSE_SALT
        } else {
            MULTI_PULSE_SALT
        }
    }

    /// Materialize the inputs of run `run`: seed, layer-0 schedule, and
    /// engine configuration. This is the single point where the experiment
    /// vocabulary meets [`crate::simulate`]; drivers and tests that need
    /// raw [`Trace`]s go through here instead of assembling
    /// [`SimConfig`]/[`Schedule`] by hand.
    pub fn materialize(&self, run: usize) -> RunInputs {
        self.inputs_on(self.hex_grid().graph(), run)
    }

    /// The one place run inputs are derived, for hex grids and custom
    /// topologies alike — any change to the schedule derivation or the
    /// engine configuration belongs here.
    fn inputs_on(&self, graph: &PulseGraph, run: usize) -> RunInputs {
        let seed = self.run_seed(run);
        let mut rng = SimRng::seed_from_u64(seed ^ self.salt());
        let schedule = match &self.schedule {
            Some(s) => s.clone(),
            None if self.pulses <= 1 => Schedule::single_pulse(
                self.scenario
                    .single_pulse_times(self.width, D_MINUS, D_PLUS, &mut rng),
            ),
            None => PulseTrain::new(self.scenario, self.pulses, self.separation())
                .generate(self.width, &mut rng),
        };
        let faults = self.faults.plan_on(graph, &mut rng);
        let config = SimConfig {
            delays: self.delays.clone(),
            timing: self.effective_timing(),
            faults,
            script: self.faults.script().cloned(),
            init: self.init,
            horizon: None,
            record_arrivals: false,
        };
        RunInputs {
            seed,
            schedule,
            config,
        }
    }

    /// Execute run `run` and return its raw [`Trace`] together with the
    /// schedule that drove it (waveform export, custom post-processing).
    pub fn trace(&self, run: usize) -> (Trace, Schedule) {
        let grid = self.hex_grid();
        let inputs = self.inputs_on(grid.graph(), run);
        let trace = simulate(grid.graph(), &inputs.schedule, &inputs.config, inputs.seed);
        (trace, inputs.schedule)
    }

    /// Execute run `run` of this spec on an arbitrary [`PulseGraph`]
    /// (Section-5 topology variants). The schedule is derived from the
    /// spec, with `width` as the source count; the fault regime is placed
    /// via [`FaultRegime::plan_on`].
    pub fn simulate_on(&self, graph: &PulseGraph, run: usize) -> Trace {
        let inputs = self.inputs_on(graph, run);
        simulate(graph, &inputs.schedule, &inputs.config, inputs.seed)
    }

    /// Execute run `run` (on the grid passed in) through `scratch`, and
    /// return its owned per-pulse views plus faulty set. The scratch
    /// recycles the event queue, node states and trace storage of whatever
    /// ran before, and the result is byte-identical on a fresh or a dirty
    /// scratch — the batch paths hold one scratch per worker thread, so a
    /// sweep performs O(threads) rather than O(runs) trace-sized
    /// allocations.
    pub fn run_one(&self, grid: &HexGrid, scratch: &mut SimScratch, run: usize) -> RunView {
        let inputs = self.inputs_on(grid.graph(), run);
        let trace = simulate_into(
            scratch,
            grid.graph(),
            &inputs.schedule,
            &inputs.config,
            inputs.seed,
        );
        let views = if inputs.schedule.pulses() <= 1 {
            vec![PulseView::from_single_pulse(grid, trace)]
        } else {
            let mid = self.delays.envelope().mid();
            assign_pulses(grid, trace, &inputs.schedule, mid)
        };
        RunView {
            views,
            faulty: trace.faulty.clone(),
        }
    }

    /// Execute one run through `scratch` on the **streaming extraction
    /// path**: every firing is binned to its pulse online by the scratch's
    /// [`PulseBinner`] — no trace fires are recorded and no
    /// [`PulseView`] matrices exist. The binner's per-pulse slots are
    /// identical to the view matrices [`RunSpec::run_one`] would have
    /// produced (pinned by the observer-equivalence walls); extraction
    /// helpers in `hex-analysis` read them directly.
    pub fn run_one_observed_into<'s>(
        &self,
        grid: &HexGrid,
        scratch: &'s mut SimScratch,
        run: usize,
    ) -> &'s PulseBinner {
        let inputs = self.inputs_on(grid.graph(), run);
        let d_mid = self.delays.envelope().mid();
        simulate_observed_into(
            scratch,
            grid,
            &inputs.schedule,
            &inputs.config,
            inputs.seed,
            d_mid,
        )
    }

    /// Execute the whole batch in parallel, materializing every run's
    /// views in run-index order: a fold into a `Vec` on the one batch
    /// scheduler ([`crate::batch::run_batch_fold_with`]), with one
    /// [`SimScratch`] per worker thread.
    pub fn run_batch(&self) -> Vec<RunView> {
        let grid = self.hex_grid();
        batch::run_batch_fold_with(
            self.runs,
            self.threads,
            SimScratch::new,
            Vec::new,
            |scratch, out, run| out.push(self.run_one(&grid, scratch, run)),
            batch::append,
        )
    }

    /// Execute run 0 only (Figs. 8/9/13/14 plot one representative wave).
    pub fn run_single(&self) -> RunView {
        self.run_one(&self.hex_grid(), &mut SimScratch::new(), 0)
    }

    /// Execute the whole batch in parallel on the **streaming extraction
    /// path** and reduce every run's [`PulseBinner`] on the worker that
    /// produced it (see [`crate::batch::run_batch_fold_with`]). Skew
    /// samples and stabilization estimates are accumulated online as fires
    /// happen — no run of the sweep ever materializes a trace or a
    /// [`PulseView`] — while each worker owns a single [`SimScratch`] and
    /// the reducer reads each binner **by reference**
    /// ([`Reducer::fold_ref`]), so the whole sweep runs on O(threads)
    /// trace-sized allocations. The result is independent of the thread
    /// count, and for the reducers in `hex_analysis::reduce` it equals
    /// [`RunSpec::run_batch`] reduced view by view (pinned by the workspace
    /// observer wall).
    pub fn fold_observed<R>(&self, reducer: &R) -> R::Acc
    where
        R: Reducer<PulseBinner> + Sync,
    {
        let grid = self.hex_grid();
        batch::run_batch_fold_with(
            self.runs,
            self.threads,
            SimScratch::new,
            || reducer.empty(),
            |scratch, acc, run| {
                let binner = self.run_one_observed_into(&grid, scratch, run);
                reducer.fold_ref(acc, run, binner);
            },
            |left, right| reducer.merge(left, right),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::assign_pulses;
    use hex_des::Time;
    use proptest::prelude::*;

    #[test]
    fn paper_defaults() {
        let s = RunSpec::paper();
        assert_eq!(s.length, 50);
        assert_eq!(s.width, 20);
        assert_eq!(s.runs, 250);
        assert_eq!(s.seed, 42);
        assert_eq!(s.pulses, 1);
        assert_eq!(s.salt(), SINGLE_PULSE_SALT);
    }

    #[test]
    fn scenario_timing_matches_table3() {
        let t = scenario_timing(Scenario::RandomDPlus);
        assert!((t.link.lo.ns() - 35.25).abs() < 0.05);
        let s = scenario_separation(Scenario::Ramp);
        assert!((s.ns() - 316.40).abs() < 0.05);
    }

    #[test]
    fn single_pulse_matches_legacy_wiring() {
        // The exact pre-RunSpec per-run wiring of the experiment drivers.
        let spec = RunSpec::small()
            .scenario(Scenario::RandomDPlus)
            .faults(FaultRegime::Byzantine(2));
        let grid = spec.hex_grid();
        for run in 0..3usize {
            let seed = spec.seed + run as u64;
            let mut rng = SimRng::seed_from_u64(seed ^ 0x5EED_0001);
            let offsets =
                Scenario::RandomDPlus.single_pulse_times(spec.width, D_MINUS, D_PLUS, &mut rng);
            let schedule = Schedule::single_pulse(offsets);
            let faults = spec.faults.plan(&grid, &mut rng);
            let cfg = SimConfig {
                timing: scenario_timing(Scenario::RandomDPlus),
                faults,
                ..SimConfig::fault_free()
            };
            let trace = simulate(grid.graph(), &schedule, &cfg, seed);
            let legacy_view = PulseView::from_single_pulse(&grid, &trace);

            let rv = spec.run_one(&grid, &mut SimScratch::new(), run);
            assert_eq!(rv.faulty, trace.faulty, "run {run}");
            assert_eq!(rv.view().t, legacy_view.t, "run {run}");
            assert_eq!(rv.view().cause, legacy_view.cause, "run {run}");
        }
    }

    #[test]
    fn stabilization_matches_legacy_wiring() {
        let spec = RunSpec::small()
            .scenario(Scenario::Zero)
            .pulses(4)
            .init(InitState::Arbitrary);
        let grid = spec.hex_grid();
        let separation = scenario_separation(Scenario::Zero);
        for run in 0..2usize {
            let seed = spec.seed + run as u64;
            let mut rng = SimRng::seed_from_u64(seed ^ 0x5EED_0002);
            let train = PulseTrain::new(Scenario::Zero, 4, separation);
            let schedule = train.generate(spec.width, &mut rng);
            let faults = FaultRegime::None.plan(&grid, &mut rng);
            let cfg = SimConfig {
                timing: scenario_timing(Scenario::Zero),
                faults,
                init: InitState::Arbitrary,
                ..SimConfig::fault_free()
            };
            let trace = simulate(grid.graph(), &schedule, &cfg, seed);
            let legacy = assign_pulses(
                &grid,
                &trace,
                &schedule,
                hex_core::DelayRange::paper().mid(),
            );

            let rv = spec.run_one(&grid, &mut SimScratch::new(), run);
            assert_eq!(rv.views.len(), legacy.len(), "run {run}");
            for (k, (got, want)) in rv.views.iter().zip(&legacy).enumerate() {
                assert_eq!(got.t, want.t, "run {run} pulse {k}");
            }
        }
    }

    #[test]
    fn batch_shapes_and_fault_counts() {
        let spec = RunSpec::small()
            .scenario(Scenario::RandomDPlus)
            .faults(FaultRegime::Byzantine(2));
        let batch = spec.run_batch();
        assert_eq!(batch.len(), spec.runs);
        for rv in &batch {
            assert_eq!(rv.faulty.len(), 2);
        }
        // Different runs place different faults (with overwhelming
        // probability across 20 runs).
        let distinct: std::collections::BTreeSet<_> =
            batch.iter().map(|rv| rv.faulty.clone()).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn mixed_regime_satisfies_condition1_over_union() {
        let spec = RunSpec::small().faults(FaultRegime::Mixed {
            byzantine: 1,
            fail_silent: 2,
        });
        let grid = spec.hex_grid();
        let mut rng = SimRng::seed_from_u64(1);
        let plan = spec.faults.plan(&grid, &mut rng);
        let faulty = plan.faulty_nodes();
        assert_eq!(faulty.len(), 3);
        assert!(satisfies_condition1(grid.graph(), &faulty));
    }

    #[test]
    fn schedule_override_wins_over_scenario() {
        let sched = Schedule::single_pulse(vec![Time::ZERO; 8]);
        let spec = RunSpec::small()
            .scenario(Scenario::Ramp)
            .schedule(sched.clone());
        let inputs = spec.materialize(0);
        assert_eq!(inputs.schedule.source(0), sched.source(0));
    }

    #[test]
    fn simulate_on_grid_graph_equals_run_one() {
        let spec = RunSpec::grid(6, 5).runs(1).threads(1);
        let grid = spec.hex_grid();
        let trace = spec.simulate_on(grid.graph(), 0);
        let rv = spec.run_single();
        let view = PulseView::from_single_pulse(&grid, &trace);
        assert_eq!(view.t, rv.view().t);
    }

    #[test]
    fn fixed_byzantine_resolves_by_coordinate() {
        let spec = RunSpec::grid(6, 5).faults(FaultRegime::FixedByzantine(2, 3));
        let grid = spec.hex_grid();
        let mut rng = SimRng::seed_from_u64(3);
        let plan = spec.faults.plan(&grid, &mut rng);
        assert_eq!(plan.faulty_nodes(), vec![grid.node(2, 3)]);
    }

    #[test]
    fn fixed_byzantine_wraps_column_like_hex_grid() {
        // Legacy behavior: the column is cylindric (modulo W).
        let grid = HexGrid::new(6, 5);
        let mut rng = SimRng::seed_from_u64(3);
        let plan = FaultRegime::FixedByzantine(2, 8).plan(&grid, &mut rng);
        assert_eq!(plan.faulty_nodes(), vec![grid.node(2, 8)]);
        assert_eq!(plan.faulty_nodes(), vec![grid.node(2, 3)]);
    }

    #[test]
    fn generous_policy_matches_fault_free_config() {
        let spec = RunSpec::grid(6, 5).timing(TimingPolicy::Generous);
        assert_eq!(spec.effective_timing(), Timing::generous());
        let inputs = spec.materialize(0);
        assert_eq!(inputs.config.timing, SimConfig::fault_free().timing);
    }

    #[test]
    fn run_one_reuses_one_trace_allocation() {
        let spec = RunSpec::grid(8, 6).runs(10).scenario(Scenario::Ramp);
        let grid = spec.hex_grid();
        let mut scratch = SimScratch::new();
        for run in 0..10 {
            let reused = spec.run_one(&grid, &mut scratch, run);
            let fresh = spec.run_one(&grid, &mut SimScratch::new(), run);
            assert_eq!(reused, fresh, "run {run}");
        }
        // Ten same-shape runs share a single trace-sized allocation.
        assert_eq!(scratch.grow_count(), 1);
        // A shape change grows exactly once more, then is reused again.
        let other = RunSpec::grid(5, 4).runs(2);
        let other_grid = other.hex_grid();
        other.run_one(&other_grid, &mut scratch, 0);
        other.run_one(&other_grid, &mut scratch, 1);
        assert_eq!(scratch.grow_count(), 2);
    }

    #[test]
    fn fold_allocates_at_most_one_scratch_per_thread() {
        use crate::batch::{run_batch_fold_with, Reducer};
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Counts a cheap per-run statistic (order-sensitive enough).
        struct Fires;
        impl Reducer<PulseBinner> for Fires {
            type Acc = Vec<usize>;
            fn empty(&self) -> Vec<usize> {
                Vec::new()
            }
            fn fold_ref(&self, acc: &mut Vec<usize>, _run: usize, binner: &PulseBinner) {
                let fired = binner.slots().iter().filter(|t| t.is_some()).count();
                acc.push(fired + binner.spurious() + binner.faulty().len());
            }
            fn merge(&self, mut left: Vec<usize>, right: Vec<usize>) -> Vec<usize> {
                left.extend(right);
                left
            }
        }

        /// Reports the scratch's grow count into a shared tally when the
        /// worker drops it at scope exit.
        struct Tallied<'a> {
            scratch: SimScratch,
            grows: &'a AtomicUsize,
        }
        impl Drop for Tallied<'_> {
            fn drop(&mut self) {
                self.grows
                    .fetch_add(self.scratch.grow_count(), Ordering::Relaxed);
            }
        }

        // The acceptance bound of the scratch redesign: a whole fold
        // performs O(threads) scratch constructions, each growing its
        // trace-sized buffers exactly once — not O(runs). The factory is
        // instrumented locally (no global counter), with the same wiring
        // `RunSpec::fold_observed` uses; the accumulator is pinned against
        // the public path to keep the two in lockstep.
        for threads in [1usize, 3] {
            let spec = RunSpec::grid(6, 5).runs(40).threads(threads).seed(9);
            let grid = spec.hex_grid();
            let created = AtomicUsize::new(0);
            let grows = AtomicUsize::new(0);
            let acc = run_batch_fold_with(
                spec.runs,
                spec.threads,
                || {
                    created.fetch_add(1, Ordering::Relaxed);
                    Tallied {
                        scratch: SimScratch::new(),
                        grows: &grows,
                    }
                },
                || Fires.empty(),
                |tallied, acc, run| {
                    let binner = spec.run_one_observed_into(&grid, &mut tallied.scratch, run);
                    Fires.fold_ref(acc, run, binner);
                },
                |left, right| Fires.merge(left, right),
            );
            assert_eq!(acc.len(), 40);
            assert_eq!(acc, spec.fold_observed(&Fires), "threads = {threads}");
            let created = created.load(Ordering::Relaxed);
            assert!(
                created <= threads,
                "{created} scratches for {threads} threads / 40 runs"
            );
            // Each scratch allocates its trace buffers at most once (a
            // worker that never wins a chunk never grows its scratch).
            let grows = grows.load(Ordering::Relaxed);
            assert!(
                (1..=created).contains(&grows),
                "{grows} trace-buffer allocations from {created} scratches"
            );
        }
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Randomized RunSpecs (grid shape, fault regime, init, pulse
        /// count, seed) driven through ONE shared, dirty scratch for
        /// several consecutive runs: every run equals its
        /// fresh-allocation twin, field for field.
        #[test]
        fn prop_shared_scratch_equals_fresh_twin(
            length in 4u32..8,
            width in 6u32..9,
            regime in 0usize..4,
            pulses in 1usize..3,
            arbitrary_init in 0usize..2,
            seed in 0u64..1_000_000,
        ) {
            let faults = match regime {
                0 => FaultRegime::None,
                1 => FaultRegime::Byzantine(1),
                2 => FaultRegime::FailSilent(1),
                _ => FaultRegime::Mixed { byzantine: 1, fail_silent: 1 },
            };
            let init = if arbitrary_init == 0 {
                InitState::Clean
            } else {
                InitState::Arbitrary
            };
            let spec = RunSpec::grid(length, width)
                .runs(3)
                .seed(seed)
                .scenario(Scenario::RandomDPlus)
                .faults(faults)
                .init(init)
                .pulses(pulses);
            let grid = spec.hex_grid();

            // Dirty the scratch with an unrelated shape and regime first,
            // so reuse never starts from a conveniently fresh state.
            let mut scratch = SimScratch::new();
            let decoy = RunSpec::grid(3, 4).runs(1).seed(seed ^ 0xDEC0);
            decoy.run_one(&decoy.hex_grid(), &mut scratch, 0);

            for run in 0..spec.runs {
                let fresh = spec.run_one(&grid, &mut SimScratch::new(), run);
                let reused = spec.run_one(&grid, &mut scratch, run);
                prop_assert_eq!(reused, fresh, "run {} diverged under reuse", run);
            }
        }

        /// The observed-fold wall for the batch kernel: for randomized
        /// specs, every run's streamed [`PulseBinner`] — the exact state
        /// [`RunSpec::fold_observed`] reduces — is identical on the
        /// production driver and on the one-instant reference (the
        /// one-at-a-time pop order), each side on its own dirty reused
        /// scratch.
        #[test]
        fn prop_batched_observed_runs_equal_scalar(
            length in 4u32..8,
            width in 6u32..9,
            regime in 0usize..4,
            pulses in 1usize..3,
            arbitrary_init in 0usize..2,
            seed in 0u64..1_000_000,
        ) {
            let faults = match regime {
                0 => FaultRegime::None,
                1 => FaultRegime::Byzantine(1),
                2 => FaultRegime::FailSilent(1),
                _ => FaultRegime::Mixed { byzantine: 1, fail_silent: 1 },
            };
            let init = if arbitrary_init == 0 {
                InitState::Clean
            } else {
                InitState::Arbitrary
            };
            let spec = RunSpec::grid(length, width)
                .runs(2)
                .seed(seed)
                .scenario(Scenario::RandomDPlus)
                .faults(faults)
                .init(init)
                .pulses(pulses);
            let grid = spec.hex_grid();
            let d_mid = spec.delays.envelope().mid();
            let mut scalar_scratch = SimScratch::new();
            let mut batched_scratch = SimScratch::new();
            for run in 0..spec.runs {
                let inputs = spec.materialize(run);
                let s = crate::engine::simulate_observed_reference_into(
                    &mut scalar_scratch, &grid, &inputs.schedule,
                    &inputs.config, inputs.seed, d_mid,
                );
                let (slots, spurious) = (s.slots().to_vec(), s.spurious());
                let b = simulate_observed_into(
                    &mut batched_scratch, &grid, &inputs.schedule,
                    &inputs.config, inputs.seed, d_mid,
                );
                prop_assert_eq!(
                    b.slots(), &slots[..],
                    "run {}: batched binner diverged", run
                );
                prop_assert_eq!(b.spurious(), spurious);
            }
        }
    }
}
