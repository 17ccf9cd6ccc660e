//! The batches every workload is made of, and the two ways of running one.
//!
//! * [`compute`] + [`emit`] call the public entry points the paper drivers
//!   and `hexd` use (`batch_skews`, `RunSpec::fold_observed`,
//!   `campaign_restabilization`, the summary tables) at the spec's thread
//!   count. This is what the timed sweep measures.
//! * [`serial`] runs the same batch on one thread, call by call: fault
//!   placement (`FaultRegime::plan_on`), the engine
//!   (`simulate_observed_into`), the fold (`Reducer::fold_ref`), the merge
//!   and the summary, each as its own span when tracing is on. It also
//!   counts popped and stale events, which the public batch entry points
//!   do not expose.

use hex_analysis::reduce::{
    batch_skews, campaign_restabilization, skew_summary_table, BatchSkews,
    ObservedRestabilizationReducer, ObservedSkewReducer, ObservedStabilizationReducer,
};
use hex_analysis::stabilization::{
    campaign_summary_table, stabilization_summary_table, summarize, summarize_campaign,
    CampaignStats, Criterion, Restabilization,
};
use hex_clock::{PulseTrain, Scenario};
use hex_core::fault::forwarder_candidates;
use hex_core::{DelayRange, FaultScript, HexGrid, NodeFault, RejoinState, D_MINUS, D_PLUS};
use hex_des::{Duration, SimRng, Time};
use hex_sim::spec::RunInputs;
use hex_sim::SimScratch;
use hex_sim::{simulate_observed_into, FaultRegime, InitState, PulseBinner, Reducer, RunSpec};
use hex_theory::bounds::lemma5_layer_bound;

use crate::clock::{SpanId, Tracer};

/// Which reduction a batch runs.
#[derive(Debug, Clone)]
pub enum Reduce {
    /// Single-pulse skews: `batch_skews` + `skew_summary_table`.
    Skew,
    /// Stabilization estimates against each criterion:
    /// `fold_observed(ObservedStabilizationReducer)` + one
    /// `stabilization_summary_table` per criterion.
    Stabilize(Vec<Criterion>),
    /// Re-stabilization after scripted faults: `campaign_restabilization`
    /// + `campaign_summary_table`.
    Campaign(Criterion),
}

/// One batch: a label unique within its workload, the spec, the
/// reduction and its fault-exclusion radius.
#[derive(Debug, Clone)]
pub struct Job {
    pub label: String,
    pub spec: RunSpec,
    pub reduce: Reduce,
    pub h: usize,
}

impl Job {
    /// The engine regime the batch exercises (the `engine.*` metric key).
    pub fn class(&self) -> &'static str {
        match (&self.reduce, &self.spec.faults) {
            (Reduce::Skew, FaultRegime::None) => "single",
            (Reduce::Skew, _) => "byzantine",
            (Reduce::Stabilize(_), _) => "multi_pulse",
            (Reduce::Campaign(_), _) => "scripted",
        }
    }
}

/// A batch's reduced result, kept so its table can be emitted again.
#[derive(Debug, Clone)]
pub enum Reduced {
    Skew(BatchSkews),
    Stabilize(Vec<Vec<Option<usize>>>),
    Campaign(CampaignStats),
    /// Per-run campaign estimates not yet summarized (the serial pass
    /// summarizes inside its summary span).
    CampaignRuns(Vec<Vec<Restabilization>>),
}

/// Run a batch through the public entry points at `spec.threads`.
pub fn compute(job: &Job) -> Reduced {
    match &job.reduce {
        Reduce::Skew => Reduced::Skew(batch_skews(&job.spec, job.h)),
        Reduce::Stabilize(criteria) => {
            let grid = job.spec.hex_grid();
            Reduced::Stabilize(
                job.spec
                    .fold_observed(&ObservedStabilizationReducer::new(&grid, criteria, job.h)),
            )
        }
        Reduce::Campaign(criterion) => {
            Reduced::Campaign(campaign_restabilization(&job.spec, criterion, job.h))
        }
    }
}

/// The table bytes of a reduced batch: exactly what the paper drivers print
/// and what `hexd` caches (for a stabilize query with one criterion).
pub fn emit(reduced: &Reduced) -> String {
    match reduced {
        Reduced::Skew(skews) => skew_summary_table(skews).to_json(),
        Reduced::Stabilize(estimates) => estimates
            .iter()
            .map(|per_run| stabilization_summary_table(&summarize(per_run)).to_json())
            .collect::<Vec<_>>()
            .join("\n"),
        Reduced::Campaign(stats) => campaign_summary_table(stats).to_json(),
        Reduced::CampaignRuns(per_run) => {
            campaign_summary_table(&summarize_campaign(per_run)).to_json()
        }
    }
}

/// What a serial pass over one batch produced.
#[derive(Debug)]
pub struct Serial {
    pub table: String,
    pub reduced: Reduced,
    pub popped: u64,
    pub stale: u64,
    /// Runs whose timed fault placement differed from the one in their run
    /// inputs: nonzero once [`plan_rng`] no longer follows `RunSpec`.
    pub plan_mismatches: u64,
}

/// Run a batch serially, call by call, recording spans into `tr` (when it
/// is on) under one root span with run id `id`. Accumulators are chunked
/// and merged as the parallel batch runner chunks them at `threads`.
pub fn serial(job: &Job, tr: &mut Tracer, threads: usize, id: u64) -> Serial {
    let spec = &job.spec;
    let grid = spec.hex_grid();
    // Run inputs come from the same derivation the batch paths use. It is
    // done before the root span opens: `materialize` rebuilds the grid on
    // every call, which the production path does once per batch.
    let mut inputs: Vec<(RunInputs, SimRng)> = (0..spec.runs)
        .map(|run| (spec.materialize(run), plan_rng(spec, run)))
        .collect();
    let root = tr.begin("batch.serial", None, id);
    let mut pass = Pass {
        job,
        grid: &grid,
        tr,
        root,
        id,
        threads,
        popped: 0,
        stale: 0,
        plan_mismatches: 0,
    };
    let reduced = match &job.reduce {
        Reduce::Skew => Reduced::Skew(pass.fold(
            &mut inputs,
            &ObservedSkewReducer::new(&grid, job.h),
            "analysis.fold.skew",
        )),
        Reduce::Stabilize(criteria) => Reduced::Stabilize(pass.fold(
            &mut inputs,
            &ObservedStabilizationReducer::new(&grid, criteria, job.h),
            "analysis.fold.stabilize",
        )),
        Reduce::Campaign(criterion) => {
            let disturbances = spec
                .faults
                .script()
                .expect("campaign batches carry a script")
                .disturbance_times();
            Reduced::CampaignRuns(pass.fold(
                &mut inputs,
                &ObservedRestabilizationReducer::new(&grid, criterion, &disturbances, job.h),
                "analysis.fold.restabilize",
            ))
        }
    };
    let (popped, stale, plan_mismatches) = (pass.popped, pass.stale, pass.plan_mismatches);
    let summary = match reduced {
        Reduced::Skew(_) => "analysis.summary.skew",
        Reduced::Stabilize(_) => "analysis.summary.stabilize",
        _ => "analysis.summary.campaign",
    };
    let s = tr.begin(summary, Some(root), id);
    let table = emit(&reduced);
    tr.end(s);
    tr.end(root);
    tr.count(&format!("engine.popped.{}", job.class()), popped);
    tr.count(&format!("engine.stale.{}", job.class()), stale);
    tr.count(&format!("engine.runs.{}", job.class()), spec.runs as u64);
    Serial {
        table,
        reduced,
        popped,
        stale,
        plan_mismatches,
    }
}

struct Pass<'a> {
    job: &'a Job,
    grid: &'a HexGrid,
    tr: &'a mut Tracer,
    root: SpanId,
    id: u64,
    threads: usize,
    popped: u64,
    stale: u64,
    plan_mismatches: u64,
}

impl Pass<'_> {
    fn fold<R: Reducer<PulseBinner>>(
        &mut self,
        inputs: &mut [(RunInputs, SimRng)],
        reducer: &R,
        fold_span: &'static str,
    ) -> R::Acc {
        let spec = &self.job.spec;
        let (plan_span, engine_span) = span_names(self.job);
        let d_mid = spec.delays.envelope().mid();
        let runs = inputs.len();
        // The chunking of `batch::run_batch_fold_with` at this thread count.
        let chunk = if self.threads <= 1 {
            runs.max(1)
        } else {
            (runs / (self.threads * 8)).max(1)
        };
        let mut scratch = SimScratch::new();
        let mut parts = Vec::new();
        for (c, block) in inputs.chunks_mut(chunk).enumerate() {
            let mut acc = reducer.empty();
            for (k, (run_inputs, rng)) in block.iter_mut().enumerate() {
                let run = c * chunk + k;
                let run_id = (self.id << 20) | run as u64;
                let p = self.tr.begin(plan_span, Some(self.root), run_id);
                let plan = spec.faults.plan_on(self.grid.graph(), rng);
                self.tr.end(p);
                // `FaultPlan` has no `PartialEq`; its `Debug` form lists
                // every node and link fault in a fixed (BTreeMap) order.
                if format!("{plan:?}") != format!("{:?}", run_inputs.config.faults) {
                    self.plan_mismatches += 1;
                }
                let e = self.tr.begin(engine_span, Some(self.root), run_id);
                let binner = simulate_observed_into(
                    &mut scratch,
                    self.grid,
                    &run_inputs.schedule,
                    &run_inputs.config,
                    run_inputs.seed,
                    d_mid,
                );
                self.tr.end(e);
                let f = self.tr.begin(fold_span, Some(self.root), run_id);
                reducer.fold_ref(&mut acc, run, binner);
                self.tr.end(f);
                self.popped += scratch.popped_events();
                self.stale += scratch.stale_events();
            }
            parts.push(acc);
        }
        let m = self.tr.begin("analysis.merge", Some(self.root), self.id);
        let acc = parts
            .into_iter()
            .reduce(|left, right| reducer.merge(left, right))
            .unwrap_or_else(|| reducer.empty());
        self.tr.end(m);
        acc
    }
}

/// The span names of a batch's fault placement and engine calls.
fn span_names(job: &Job) -> (&'static str, &'static str) {
    let plan = match job.spec.faults {
        FaultRegime::Byzantine(_) => "spec.plan.byzantine",
        FaultRegime::FailSilent(_) => "spec.plan.fail_silent",
        _ => "spec.plan.other",
    };
    let engine = match job.class() {
        "single" => "engine.simulate.single",
        "byzantine" => "engine.simulate.byzantine",
        "multi_pulse" => "engine.simulate.multi_pulse",
        _ => "engine.simulate.scripted",
    };
    (plan, engine)
}

/// The per-run RNG exactly as fault placement sees it in
/// `RunSpec::materialize`: seeded from the run seed and salt, advanced past
/// the layer-0 schedule draws. This copies the derivation in `RunSpec`;
/// every serial pass checks that the placement it times equals the one in
/// the run's inputs ([`Serial::plan_mismatches`]).
fn plan_rng(spec: &RunSpec, run: usize) -> SimRng {
    let mut rng = SimRng::seed_from_u64(spec.run_seed(run) ^ spec.salt());
    if spec.schedule.is_none() {
        if spec.pulses <= 1 {
            spec.scenario
                .single_pulse_times(spec.width, D_MINUS, D_PLUS, &mut rng);
        } else {
            PulseTrain::new(spec.scenario, spec.pulses, spec.separation())
                .generate(spec.width, &mut rng);
        }
    }
    rng
}

// ---------------------------------------------------------------------------
// Workload definitions. `variant` selects one of the committed input sets;
// each batch gets its own block of run seeds.

/// Runs per batch of `skew_tables` (the paper's count).
pub const SKEW_RUNS: usize = 250;
/// Runs per Fig. 18 batch of `stabilize_sweep`.
pub const STABILIZE_RUNS: usize = 20;
/// Runs per campaign batch of `stabilize_sweep` (as in CAMPAIGN.md).
pub const CAMPAIGN_RUNS: usize = 10;
/// Pulses per stabilization and campaign run (Fig. 18, CAMPAIGN.md).
const PULSES: usize = 10;

/// The base seed of batch `batch` of input variant `variant`.
pub fn batch_seed(variant: u32, batch: usize) -> u64 {
    1 + u64::from(variant) * 1_000_000 + batch as u64 * 10_000
}

/// Tables 1 and 2: the four layer-0 scenarios, fault-free and with one
/// Byzantine node, single pulse, 50×20.
pub fn skew_tables(variant: u32) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (table, faults) in [(1, FaultRegime::None), (2, FaultRegime::Byzantine(1))] {
        for scenario in Scenario::ALL {
            let spec = RunSpec::paper()
                .runs(SKEW_RUNS)
                .seed(batch_seed(variant, jobs.len()))
                .scenario(scenario)
                .faults(faults.clone());
            jobs.push(Job {
                label: format!("table{table}.{}", scenario.slug()),
                spec,
                reduce: Reduce::Skew,
                h: 0,
            });
        }
    }
    jobs
}

/// Fig. 18 (scenario (iii), 10 pulses from arbitrary states, Byzantine
/// and fail-silent f = 0..5, the four threshold classes) followed by the
/// three CAMPAIGN.md regimes.
pub fn stabilize_sweep(variant: u32) -> Vec<Job> {
    let mut jobs = Vec::new();
    let base = RunSpec::paper().scenario(Scenario::RandomDPlus);
    for (kind, byzantine) in [("byz", true), ("silent", false)] {
        for f in 0..=5usize {
            let regime = if byzantine {
                FaultRegime::Byzantine(f)
            } else {
                FaultRegime::FailSilent(f)
            };
            let spec = base
                .clone()
                .runs(STABILIZE_RUNS)
                .seed(batch_seed(variant, jobs.len()))
                .faults(regime)
                .pulses(PULSES)
                .init(InitState::Arbitrary);
            jobs.push(Job {
                label: format!("fig18.{kind}.f{f}"),
                reduce: Reduce::Stabilize(fig18_criteria(&spec, f)),
                spec,
                h: 0,
            });
        }
    }
    for regime in ["burst", "crash_rejoin", "churn"] {
        let seed = batch_seed(variant, jobs.len());
        let spec = base.clone().runs(CAMPAIGN_RUNS).seed(seed).pulses(PULSES);
        let script = campaign_script(regime, &spec, seed);
        let criterion = Criterion::uniform(D_PLUS * 3, D_PLUS, spec.length);
        jobs.push(Job {
            label: format!("campaign.{regime}"),
            spec: spec.faults(FaultRegime::Script(script)),
            reduce: Reduce::Campaign(criterion),
            h: 0,
        });
    }
    jobs
}

/// The four Fig. 18 threshold classes (C = 0 is the Lemma 5 bound).
fn fig18_criteria(spec: &RunSpec, f: usize) -> Vec<Criterion> {
    (0..=3u8)
        .map(|c| {
            Criterion::class(c, D_PLUS, spec.length, |layer| {
                lemma5_layer_bound(D_PLUS, layer, f.min(layer as usize), DelayRange::paper())
            })
        })
        .collect()
}

/// The canned campaign shapes of `hexctl campaign`, built with the public
/// `FaultScript` constructors: the first disturbance lands half a
/// separation after pulse 1, windows span two separations, and churn takes
/// three one-separation windows over victims from the lower quarter.
fn campaign_script(regime: &str, spec: &RunSpec, seed: u64) -> FaultScript {
    let grid = spec.hex_grid();
    let s: Duration = spec.separation();
    let onset = Time::ZERO + s + s / 2;
    let victim = grid.node((spec.length / 2).max(1), i64::from(spec.width / 2));
    match regime {
        "burst" => FaultScript::burst(
            victim,
            NodeFault::Byzantine,
            onset,
            onset + s.times(2),
            RejoinState::Arbitrary,
        ),
        "crash_rejoin" => {
            FaultScript::crash_rejoin(victim, onset, onset + s.times(2), RejoinState::Clean)
        }
        _ => {
            let cap = (spec.length / 4).max(1);
            let mut candidates = forwarder_candidates(grid.graph());
            candidates.retain(|&n| grid.graph().coord(n).is_some_and(|c| c.layer <= cap));
            let mut rng = SimRng::seed_from_u64(seed);
            FaultScript::churn(
                &candidates,
                onset,
                s,
                s.times(3),
                3,
                RejoinState::Clean,
                &mut rng,
            )
        }
    }
}

/// Specs in one `hexd` client's pool.
pub const POOL: usize = 24;

/// The spec pool of `hexd` client `client`: small skew queries (even
/// slots) and stabilize queries (odd slots, the daemon's one criterion).
/// Every slot has its own seed block, so the two clients' pools are
/// disjoint and a query's first visit is always a cache miss.
pub fn hexd_pool(variant: u32, client: usize) -> Vec<Job> {
    (0..POOL)
        .map(|i| {
            let seed = batch_seed(variant, client * POOL + i);
            let scenario = Scenario::ALL[(i / 2) % 4];
            if i % 2 == 0 {
                let faults = if (i / 2) % 3 == 2 {
                    FaultRegime::Byzantine(1)
                } else {
                    FaultRegime::None
                };
                Job {
                    label: format!("client{client}.q{i:02}.skew"),
                    spec: RunSpec::grid(16, 8)
                        .runs(8)
                        .seed(seed)
                        .scenario(scenario)
                        .faults(faults),
                    reduce: Reduce::Skew,
                    h: 0,
                }
            } else {
                let faults = if (i / 2) % 3 == 2 {
                    FaultRegime::FailSilent(1)
                } else {
                    FaultRegime::None
                };
                let spec = RunSpec::grid(12, 8)
                    .runs(4)
                    .seed(seed)
                    .scenario(scenario)
                    .faults(faults)
                    .pulses(5)
                    .init(InitState::Arbitrary);
                // The criterion `hexd` applies to every stabilize query.
                let criterion = Criterion::uniform(D_PLUS * 3, D_PLUS, spec.length);
                Job {
                    label: format!("client{client}.q{i:02}.stabilize"),
                    spec,
                    reduce: Reduce::Stabilize(vec![criterion]),
                    h: 0,
                }
            }
        })
        .collect()
}
