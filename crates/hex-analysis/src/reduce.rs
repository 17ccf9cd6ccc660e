//! Streaming reductions over [`RunSpec`] batches.
//!
//! The paper's statistics are per-run map+reduce: per-pulse triggering
//! times → skew samples / summaries / stabilization estimates, aggregated
//! over 250 runs. The reducers here implement [`hex_sim::batch::Reducer`]
//! over each run's [`PulseBinner`], so [`RunSpec::fold_observed`] executes
//! the whole reduction **inside the batch worker threads**, straight from
//! the engine's online pulse binning: no trace, no
//! [`PulseView`](hex_sim::PulseView) matrix and no `Vec<RunView>` of the
//! batch ever exists. The per-view functions of [`crate::skew`] and
//! [`crate::stabilization`] over [`RunSpec::run_batch`] are the reference
//! the workspace observer wall checks these reducers against, run by run.
//!
//! ```
//! use hex_analysis::reduce::batch_skews;
//! use hex_clock::Scenario;
//! use hex_sim::RunSpec;
//!
//! let spec = RunSpec::grid(8, 6).scenario(Scenario::Zero).runs(4).seed(1);
//! let skews = batch_skews(&spec, 0);
//! assert_eq!(skews.runs(), 4);
//! // Every node pair contributes: W intra samples per layer and run.
//! assert_eq!(skews.cumulated.intra.len(), 4 * (8 * 6) as usize);
//! ```

use hex_core::HexGrid;
use hex_des::{Duration, Time};
use hex_sim::batch::Reducer;
use hex_sim::spec::RunSpec;
use hex_sim::PulseBinner;

use crate::skew::{collect_skews_with, exclusion_mask, masked_binner, SkewSamples};
use crate::stabilization::{
    observed_pulse_profiles, restabilization_observed, stabilization_from_profiles,
    summarize_campaign, CampaignStats, Criterion, Restabilization,
};
use crate::stats::Summary;

/// Cumulated skew samples of a batch, in run order, plus what it takes to
/// cut them back into runs (the inputs of Tables 1/2, Figs. 10/11 and the
/// box plots of Figs. 15/16).
#[derive(Debug, Clone, Default)]
pub struct BatchSkews {
    /// All samples across runs, each run's after the previous run's. The
    /// per-run methods cut these vectors as the fold left them.
    pub cumulated: SkewSamples,
    /// Per-run `(intra, inter)` sample counts, in run order.
    run_counts: Vec<(usize, usize)>,
}

impl BatchSkews {
    /// Runs with at least one intra-layer sample (the `runs` column of
    /// [`skew_summary_table`]).
    pub fn runs(&self) -> usize {
        self.run_counts
            .iter()
            .filter(|&&(intra, _)| intra > 0)
            .count()
    }

    /// Per-run intra-layer summaries in run order, skipping runs without
    /// samples. Computed on demand from [`BatchSkews::cumulated`].
    pub fn per_run_intra(&self) -> Vec<Summary> {
        per_run(&self.cumulated.intra, self.run_counts.iter().map(|c| c.0))
    }

    /// Per-run inter-layer summaries in run order, skipping runs without
    /// samples. Computed on demand from [`BatchSkews::cumulated`].
    pub fn per_run_inter(&self) -> Vec<Summary> {
        per_run(&self.cumulated.inter, self.run_counts.iter().map(|c| c.1))
    }

    /// Fold the skews of pulse `pulse` of one observed run into the
    /// aggregate (`h`-hop fault exclusion), straight from the worker's
    /// [`PulseBinner`]: the walk writes into [`BatchSkews::cumulated`].
    fn add(&mut self, grid: &HexGrid, binner: &PulseBinner, h: usize, pulse: usize) {
        assert!(
            pulse < binner.pulses(),
            "skew reduction of pulse {pulse}, but the run recorded only {} pulse(s)",
            binner.pulses()
        );
        let mask = exclusion_mask(grid, binner.faulty(), h);
        let (intra, inter) = (self.cumulated.intra.len(), self.cumulated.inter.len());
        collect_skews_with(
            grid.length(),
            grid.width(),
            masked_binner(grid, binner, pulse, &mask),
            &mut self.cumulated,
        );
        self.run_counts.push((
            self.cumulated.intra.len() - intra,
            self.cumulated.inter.len() - inter,
        ));
    }

    /// Concatenate two aggregates covering consecutive run ranges.
    fn append(&mut self, other: BatchSkews) {
        self.cumulated.extend(&other.cumulated);
        self.run_counts.extend(other.run_counts);
    }
}

/// Summaries of the consecutive runs of `samples` that `counts` delimits,
/// skipping empty runs.
fn per_run(samples: &[Duration], counts: impl Iterator<Item = usize>) -> Vec<Summary> {
    let mut rest = samples;
    counts
        .filter_map(|n| {
            assert!(n <= rest.len(), "cumulated samples shrank after the fold");
            let (run, tail) = rest.split_at(n);
            rest = tail;
            Summary::from_durations(run)
        })
        .collect()
}

/// A [`Reducer`] extracting [`BatchSkews`] from runs with `h`-hop fault
/// exclusion, for [`RunSpec::fold_observed`]: folds each run's
/// [`PulseBinner`], whose skew samples accumulated online as fires
/// happened. By default the reduction covers pulse 0 — the whole run for
/// the single-pulse batches of Sections 4.2/4.3; for multi-pulse
/// (stabilization) batches pick the pulse explicitly with
/// [`ObservedSkewReducer::at_pulse`] (folding panics if a run recorded
/// fewer pulses). The sample vectors equal the Definition-3 walk over each
/// run's materialized view, in run order:
///
/// ```
/// use hex_analysis::reduce::ObservedSkewReducer;
/// use hex_analysis::skew::{collect_skews, exclusion_mask};
/// use hex_sim::RunSpec;
///
/// let spec = RunSpec::grid(6, 5).runs(3).seed(9);
/// let grid = spec.hex_grid();
/// let streamed = spec.fold_observed(&ObservedSkewReducer::new(&grid, 0));
/// let mut intra = Vec::new();
/// for rv in spec.run_batch() {
///     let mask = exclusion_mask(&grid, &rv.faulty, 0);
///     intra.extend(collect_skews(&grid, rv.view(), &mask).intra);
/// }
/// assert_eq!(streamed.cumulated.intra, intra);
/// ```
#[derive(Debug)]
pub struct ObservedSkewReducer<'g> {
    grid: &'g HexGrid,
    h: usize,
    pulse: usize,
}

impl<'g> ObservedSkewReducer<'g> {
    /// Reduce on `grid` with `h`-hop exclusion around each run's faults.
    pub fn new(grid: &'g HexGrid, h: usize) -> Self {
        ObservedSkewReducer { grid, h, pulse: 0 }
    }

    /// Reduce the skews of pulse `pulse` instead of pulse 0.
    pub fn at_pulse(mut self, pulse: usize) -> Self {
        self.pulse = pulse;
        self
    }
}

impl Reducer<PulseBinner> for ObservedSkewReducer<'_> {
    type Acc = BatchSkews;

    fn empty(&self) -> BatchSkews {
        BatchSkews::default()
    }

    // Read-only reduction: fold straight from the worker's scratch binner.
    fn fold_ref(&self, acc: &mut BatchSkews, _run: usize, binner: &PulseBinner) {
        acc.add(self.grid, binner, self.h, self.pulse);
    }

    fn merge(&self, mut left: BatchSkews, right: BatchSkews) -> BatchSkews {
        left.append(right);
        left
    }
}

/// Run the single-pulse batch described by `spec` and extract its skews
/// with `h`-hop fault exclusion, streaming per-run reduction on the worker
/// threads.
///
/// This rides the streaming extraction path ([`RunSpec::fold_observed`] +
/// [`ObservedSkewReducer`]): skew samples are accumulated online as fires
/// happen, with no trace and no [`PulseView`](hex_sim::PulseView) matrices
/// per run. The result equals [`collect_skews`](crate::skew::collect_skews)
/// over each run of [`RunSpec::run_batch`], which the workspace observer
/// wall pins.
///
/// # Panics
///
/// Panics if `spec` describes a multi-pulse batch: skew statistics of a
/// stabilization run depend on *which* pulse is measured, so pick it
/// explicitly via `spec.fold_observed(&ObservedSkewReducer::new(&grid,
/// h).at_pulse(k))`.
pub fn batch_skews(spec: &RunSpec, h: usize) -> BatchSkews {
    let pulses = spec
        .schedule
        .as_ref()
        .map_or(spec.pulses, |s| s.pulses().max(spec.pulses));
    assert!(
        pulses <= 1,
        "batch_skews reduces single-pulse batches; this spec generates {pulses} pulses per \
         run — choose one with ObservedSkewReducer::at_pulse"
    );
    let grid = spec.hex_grid();
    spec.fold_observed(&ObservedSkewReducer::new(&grid, h))
}

/// Render a [`BatchSkews`] aggregate as a deterministic [`Table`] — the
/// canonical result encoding of a skew query (the `hexd` service caches
/// and replays `skew_summary_table(..).to_json()` bytes). One row per
/// skew kind summarizing the cumulated samples; empty sample sets render
/// as `null` cells so the table shape is input-independent.
///
/// [`Table`]: crate::emit::Table
pub fn skew_summary_table(skews: &BatchSkews) -> crate::emit::Table {
    use crate::emit::{Table, Value};
    let mut t = Table::new(
        "skew_summary",
        &[
            "kind", "runs", "n", "min_ns", "q05_ns", "avg_ns", "q95_ns", "max_ns", "std_ns",
        ],
    );
    let runs = skews.runs();
    for (kind, samples) in [
        ("intra", &skews.cumulated.intra),
        ("inter", &skews.cumulated.inter),
    ] {
        let row = match Summary::from_durations(samples) {
            Some(s) => vec![
                Value::from(kind),
                Value::from(runs),
                Value::from(s.n),
                Value::from(s.min),
                Value::from(s.q05),
                Value::from(s.avg),
                Value::from(s.q95),
                Value::from(s.max),
                Value::from(s.std),
            ],
            None => vec![
                Value::from(kind),
                Value::from(runs),
                Value::from(0usize),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
        };
        t.row(row);
    }
    t
}

/// A [`Reducer`] estimating the stabilization pulse of every run against
/// several threshold [`Criterion`]s at once (Figs. 18/19 evaluate classes
/// `C ∈ {0,…,3}` over one shared batch), for [`RunSpec::fold_observed`]:
/// each estimate comes straight from the worker's [`PulseBinner`] slots,
/// so the stabilization sweeps never materialize a
/// [`PulseView`](hex_sim::PulseView). The accumulator holds, per
/// criterion, the per-run estimates in run order — exactly what
/// [`crate::stabilization::summarize`] consumes. Each estimate equals
/// [`stabilization_pulse`](crate::stabilization::stabilization_pulse) over
/// the run's materialized views, pinned by the workspace observer wall.
#[derive(Debug)]
pub struct ObservedStabilizationReducer<'a> {
    grid: &'a HexGrid,
    criteria: &'a [Criterion],
    h: usize,
}

impl<'a> ObservedStabilizationReducer<'a> {
    /// Estimate against `criteria` with `h`-hop fault exclusion.
    pub fn new(grid: &'a HexGrid, criteria: &'a [Criterion], h: usize) -> Self {
        ObservedStabilizationReducer { grid, criteria, h }
    }
}

impl Reducer<PulseBinner> for ObservedStabilizationReducer<'_> {
    type Acc = Vec<Vec<Option<usize>>>;

    fn empty(&self) -> Self::Acc {
        vec![Vec::new(); self.criteria.len()]
    }

    // Per-pulse completeness and skew maxima are criterion-independent:
    // extract them once per run, then each criterion is a pure threshold
    // sweep — the Fig. 18/19 four-class evaluation walks the binner once,
    // not four times.
    fn fold_ref(&self, acc: &mut Self::Acc, _run: usize, binner: &PulseBinner) {
        let mask = exclusion_mask(self.grid, binner.faulty(), self.h);
        let profiles = observed_pulse_profiles(self.grid, binner, &mask);
        for (ci, criterion) in self.criteria.iter().enumerate() {
            acc[ci].push(stabilization_from_profiles(&profiles, criterion));
        }
    }

    fn merge(&self, mut left: Self::Acc, right: Self::Acc) -> Self::Acc {
        for (l, r) in left.iter_mut().zip(right) {
            l.extend(r);
        }
        left
    }
}

/// A [`Reducer`] estimating, per run, the re-stabilization of every
/// scripted disturbance of a dynamic fault campaign — straight from the
/// worker's [`PulseBinner`], so a 250-run campaign sweep runs trace-free
/// at batch scale. The accumulator is run-major (`[run][disturbance]`),
/// in run order; feed it to [`summarize_campaign`].
#[derive(Debug)]
pub struct ObservedRestabilizationReducer<'a> {
    grid: &'a HexGrid,
    criterion: &'a Criterion,
    disturbances: &'a [Time],
    h: usize,
}

impl<'a> ObservedRestabilizationReducer<'a> {
    /// Estimate recovery from each of `disturbances` (ascending, e.g.
    /// [`FaultScript::disturbance_times`](hex_core::FaultScript::disturbance_times))
    /// against `criterion`, with `h`-hop exclusion around each run's
    /// *static* faults (scripted campaigns usually start fault-free, so
    /// `h` only matters when a script rides on a `Plan` base).
    pub fn new(
        grid: &'a HexGrid,
        criterion: &'a Criterion,
        disturbances: &'a [Time],
        h: usize,
    ) -> Self {
        ObservedRestabilizationReducer {
            grid,
            criterion,
            disturbances,
            h,
        }
    }
}

impl Reducer<PulseBinner> for ObservedRestabilizationReducer<'_> {
    type Acc = Vec<Vec<Restabilization>>;

    fn empty(&self) -> Self::Acc {
        Vec::new()
    }

    fn fold_ref(&self, acc: &mut Self::Acc, _run: usize, binner: &PulseBinner) {
        let mask = exclusion_mask(self.grid, binner.faulty(), self.h);
        let profiles = observed_pulse_profiles(self.grid, binner, &mask);
        acc.push(restabilization_observed(
            self.grid,
            binner,
            &profiles,
            self.criterion,
            self.disturbances,
        ));
    }

    fn merge(&self, mut left: Self::Acc, right: Self::Acc) -> Self::Acc {
        left.extend(right);
        left
    }
}

/// Run the campaign described by `spec` (a
/// [`FaultRegime::Script`](hex_sim::spec::FaultRegime::Script) batch) and
/// summarize per-disturbance re-stabilization against `criterion` with
/// `h`-hop static-fault exclusion, streaming through the observed fold.
///
/// # Panics
///
/// Panics if the spec's fault regime carries no script — a campaign
/// without disturbances has nothing to re-stabilize from.
pub fn campaign_restabilization(spec: &RunSpec, criterion: &Criterion, h: usize) -> CampaignStats {
    let script = spec
        .faults
        .script()
        .expect("campaign_restabilization needs a FaultRegime::Script spec");
    let disturbances = script.disturbance_times();
    let grid = spec.hex_grid();
    let per_run = spec.fold_observed(&ObservedRestabilizationReducer::new(
        &grid,
        criterion,
        &disturbances,
        h,
    ));
    summarize_campaign(&per_run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skew::collect_skews;
    use crate::stabilization::stabilization_pulse;
    use hex_clock::Scenario;
    use hex_core::D_PLUS;
    use hex_sim::spec::FaultRegime;
    use hex_sim::InitState;

    fn small() -> RunSpec {
        RunSpec::grid(12, 8).runs(20).threads(2)
    }

    /// Per-run summaries cut `cumulated` by the recorded counts, and runs
    /// without samples of a kind are skipped for that kind only.
    #[test]
    fn per_run_summaries_skip_empty_runs() {
        let ps = |v: &[i64]| -> Vec<Duration> { v.iter().map(|&p| Duration::from_ps(p)).collect() };
        let skews = BatchSkews {
            cumulated: SkewSamples {
                intra: ps(&[1, 2, 3, 40, 50]),
                inter: ps(&[7, 8]),
            },
            run_counts: vec![(3, 0), (0, 1), (2, 1)],
        };
        let summary = |v: &[i64]| Summary::from_durations(&ps(v)).unwrap();
        assert_eq!(skews.runs(), 2);
        assert_eq!(
            skews.per_run_intra(),
            vec![summary(&[1, 2, 3]), summary(&[40, 50])]
        );
        assert_eq!(skews.per_run_inter(), vec![summary(&[7]), summary(&[8])]);
    }

    #[test]
    fn batch_skews_shapes() {
        let spec = small().scenario(Scenario::Zero);
        let skews = batch_skews(&spec, 0);
        assert_eq!(skews.runs(), spec.runs);
        assert_eq!(skews.per_run_intra().len(), spec.runs);
        assert_eq!(skews.per_run_inter().len(), spec.runs);
        assert_eq!(skews.cumulated.intra.len(), spec.runs * (12 * 8) as usize);
    }

    #[test]
    fn h1_excludes_more_than_h0() {
        let spec = small()
            .scenario(Scenario::RandomDPlus)
            .faults(FaultRegime::FailSilent(1));
        let h0 = batch_skews(&spec, 0);
        let h1 = batch_skews(&spec, 1);
        assert!(h1.cumulated.intra.len() < h0.cumulated.intra.len());
    }

    #[test]
    #[should_panic(expected = "single-pulse batches")]
    fn batch_skews_rejects_multi_pulse_specs() {
        let spec = small().pulses(5).init(InitState::Arbitrary);
        batch_skews(&spec, 0);
    }

    /// `at_pulse` reduces the requested pulse of every run: pulses 0 and 3
    /// of a corrupted-init batch against `collect_skews` over each run's
    /// materialized view of that pulse.
    #[test]
    fn at_pulse_selects_the_requested_pulse() {
        let spec = small().runs(4).pulses(4).init(InitState::Arbitrary);
        let grid = spec.hex_grid();
        let runs = spec.run_batch();
        for pulse in [0usize, 3] {
            let observed = spec.fold_observed(&ObservedSkewReducer::new(&grid, 0).at_pulse(pulse));
            let mut expected = SkewSamples::default();
            let mut per_run_intra = Vec::new();
            for rv in &runs {
                let mask = exclusion_mask(&grid, &rv.faulty, 0);
                let s = collect_skews(&grid, &rv.views[pulse], &mask);
                per_run_intra.extend(Summary::from_durations(&s.intra));
                expected.extend(&s);
            }
            assert_eq!(observed.cumulated.intra, expected.intra, "pulse {pulse}");
            assert_eq!(observed.cumulated.inter, expected.inter, "pulse {pulse}");
            assert_eq!(observed.per_run_intra(), per_run_intra, "pulse {pulse}");
        }
    }

    #[test]
    #[should_panic(expected = "only 1 pulse(s)")]
    fn observed_reducer_rejects_out_of_range_pulse() {
        let spec = small().runs(1).threads(1);
        let grid = spec.hex_grid();
        spec.fold_observed(&ObservedSkewReducer::new(&grid, 0).at_pulse(2));
    }

    /// A scripted crash + clean rejoin between two pulses: every run
    /// re-stabilizes, and the run-major accumulator is identical across
    /// worker-thread counts (the campaign sweep's byte-identity claim,
    /// through the streaming observed fold).
    #[test]
    fn campaign_restabilization_recovers_and_is_thread_invariant() {
        use hex_core::{FaultScript, RejoinState};

        let base = RunSpec::grid(8, 6).runs(4).threads(2).pulses(6).seed(11);
        let grid = base.hex_grid();
        let s = base.separation();
        // Crash a mid-grid forwarder between pulses 1 and 2, rejoin clean
        // between pulses 2 and 3: pulse 2 is incomplete, pulse 3 recovers.
        let crash = hex_des::Time::ZERO + s + s / 2;
        let heal = hex_des::Time::ZERO + s.times(2) + s / 2;
        let script = FaultScript::crash_rejoin(grid.node(3, 2), crash, heal, RejoinState::Clean);
        let spec = base.faults(FaultRegime::Script(script.clone()));
        let times = script.disturbance_times();
        assert_eq!(times, vec![crash]);
        let crit = Criterion::uniform(hex_core::D_PLUS * 2, D_PLUS, spec.length);

        let stats = campaign_restabilization(&spec, &crit, 0);
        assert_eq!(stats.disturbances.len(), 1);
        let d = &stats.disturbances[0];
        assert_eq!(d.runs, 4);
        assert_eq!(d.restabilized, 4, "campaign failed to re-stabilize");
        assert!(d.worst_pulses.is_some());
        assert!(stats.fully_recovered());
        assert_eq!(stats.worst(), d.worst_pulses);

        let reference = spec.fold_observed(&ObservedRestabilizationReducer::new(
            &grid, &crit, &times, 0,
        ));
        assert_eq!(reference.len(), 4);
        for threads in [1usize, 3] {
            let leg = spec.clone().threads(threads);
            let acc = leg.fold_observed(&ObservedRestabilizationReducer::new(
                &grid, &crit, &times, 0,
            ));
            assert_eq!(acc, reference, "{threads} threads diverged");
        }
    }

    #[test]
    #[should_panic(expected = "needs a FaultRegime::Script")]
    fn campaign_restabilization_rejects_unscripted_specs() {
        let crit = Criterion::uniform(D_PLUS, D_PLUS, 12);
        campaign_restabilization(&small(), &crit, 0);
    }

    /// The stabilization reducer reproduces the per-run estimate over the
    /// materialized views for every criterion, including an impossible one
    /// that no run ever meets.
    #[test]
    fn stabilization_reducer_matches_per_run_loop() {
        let spec = small()
            .runs(6)
            .scenario(Scenario::Zero)
            .faults(FaultRegime::FailSilent(1))
            .pulses(5)
            .init(InitState::Arbitrary);
        let grid = spec.hex_grid();
        let mut criteria: Vec<Criterion> = (1..=3u8)
            .map(|c| Criterion::class(c, D_PLUS, spec.length, |_| D_PLUS))
            .collect();
        criteria.push(Criterion::uniform(
            Duration::ZERO,
            Duration::ZERO,
            spec.length,
        ));
        let streamed = spec.fold_observed(&ObservedStabilizationReducer::new(&grid, &criteria, 0));
        let runs = spec.run_batch();
        for (ci, criterion) in criteria.iter().enumerate() {
            let expected: Vec<Option<usize>> = runs
                .iter()
                .map(|r| {
                    let mask = exclusion_mask(&grid, &r.faulty, 0);
                    stabilization_pulse(&grid, &r.views, &mask, criterion)
                })
                .collect();
            assert_eq!(streamed[ci], expected, "criterion {ci}");
        }
        assert!(streamed.last().unwrap().iter().all(Option::is_none));
    }
}
