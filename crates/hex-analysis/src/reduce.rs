//! Streaming reductions over [`RunSpec`] batches.
//!
//! The paper's statistics are per-run map+reduce: trace → [`PulseView`] →
//! skew samples / summaries / stabilization estimates, aggregated over 250
//! runs. The reducers here implement [`hex_sim::batch::Reducer`], so
//! [`RunSpec::fold`] executes the whole reduction **inside the batch
//! worker threads**: no `Vec<RunView>` of the batch ever exists, and the
//! skew extraction that used to be a serial post-pass runs in parallel.
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
use hex_sim::spec::{RunSpec, RunView};
use hex_sim::PulseBinner;

use crate::skew::{collect_skews_with, exclusion_mask, masked_binner, masked_view, SkewSamples};
use crate::stabilization::{
    observed_pulse_profiles, restabilization_observed, stabilization_from_profiles,
    stabilization_pulse, summarize_campaign, CampaignStats, Criterion, Restabilization,
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

    /// Append one run's samples (shared tail of both extraction paths):
    /// the walk writes straight into [`BatchSkews::cumulated`].
    fn add_with(&mut self, grid: &HexGrid, get: impl Fn(u32, i64) -> Option<Time>) {
        let (intra, inter) = (self.cumulated.intra.len(), self.cumulated.inter.len());
        collect_skews_with(grid.length(), grid.width(), get, &mut self.cumulated);
        self.run_counts.push((
            self.cumulated.intra.len() - intra,
            self.cumulated.inter.len() - inter,
        ));
    }

    /// Fold the skews of pulse `pulse` of one run into the aggregate
    /// (`h`-hop fault exclusion).
    fn add(&mut self, grid: &HexGrid, rv: &RunView, h: usize, pulse: usize) {
        assert!(
            pulse < rv.views.len(),
            "skew reduction of pulse {pulse}, but the run recorded only {} pulse view(s)",
            rv.views.len()
        );
        let mask = exclusion_mask(grid, &rv.faulty, h);
        self.add_with(grid, masked_view(grid, &rv.views[pulse], &mask));
    }

    /// The streaming twin of [`BatchSkews::add`]: fold pulse `pulse` of
    /// one observed run, straight from the worker's [`PulseBinner`].
    fn add_observed(&mut self, grid: &HexGrid, binner: &PulseBinner, h: usize, pulse: usize) {
        assert!(
            pulse < binner.pulses(),
            "skew reduction of pulse {pulse}, but the run recorded only {} pulse(s)",
            binner.pulses()
        );
        let mask = exclusion_mask(grid, binner.faulty(), h);
        self.add_with(grid, masked_binner(grid, binner, pulse, &mask));
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
/// exclusion. By default the reduction covers pulse 0 — the whole run for
/// the single-pulse batches of Sections 4.2/4.3; for multi-pulse
/// (stabilization) batches pick the pulse explicitly with
/// [`SkewReducer::at_pulse`] (folding panics if a run recorded fewer
/// pulses).
#[derive(Debug)]
pub struct SkewReducer<'g> {
    grid: &'g HexGrid,
    h: usize,
    pulse: usize,
}

impl<'g> SkewReducer<'g> {
    /// Reduce on `grid` with `h`-hop exclusion around each run's faults.
    pub fn new(grid: &'g HexGrid, h: usize) -> Self {
        SkewReducer { grid, h, pulse: 0 }
    }

    /// Reduce the skews of pulse `pulse` instead of pulse 0.
    pub fn at_pulse(mut self, pulse: usize) -> Self {
        self.pulse = pulse;
        self
    }
}

impl Reducer<RunView> for SkewReducer<'_> {
    type Acc = BatchSkews;

    fn empty(&self) -> BatchSkews {
        BatchSkews::default()
    }

    fn fold(&self, acc: &mut BatchSkews, run: usize, rv: RunView) {
        self.fold_ref(acc, run, &rv);
    }

    // The reduction only reads the views, so the scratch-backed fold path
    // hands them over by reference — no per-run RunView clone.
    fn fold_ref(&self, acc: &mut BatchSkews, _run: usize, rv: &RunView) {
        acc.add(self.grid, rv, self.h, self.pulse);
    }

    fn merge(&self, mut left: BatchSkews, right: BatchSkews) -> BatchSkews {
        left.append(right);
        left
    }
}

/// The observer-backed twin of [`SkewReducer`], for
/// [`RunSpec::fold_observed`]: folds each run's [`PulseBinner`] — skew
/// samples accumulated online as fires happen, with no trace and no
/// [`PulseView`](hex_sim::PulseView) matrices ever materialized. The
/// resulting [`BatchSkews`] is **byte-identical** to the materialized
/// path's (identical sample vectors, identical per-run summaries), pinned
/// by the workspace observer walls.
///
/// ```
/// use hex_analysis::reduce::{ObservedSkewReducer, SkewReducer};
/// use hex_sim::RunSpec;
///
/// let spec = RunSpec::grid(6, 5).runs(3).seed(9);
/// let grid = spec.hex_grid();
/// let streamed = spec.fold_observed(&ObservedSkewReducer::new(&grid, 0));
/// let materialized = spec.fold(&SkewReducer::new(&grid, 0));
/// assert_eq!(streamed.cumulated.intra, materialized.cumulated.intra);
/// assert_eq!(streamed.cumulated.inter, materialized.cumulated.inter);
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

    fn fold(&self, acc: &mut BatchSkews, run: usize, binner: PulseBinner) {
        self.fold_ref(acc, run, &binner);
    }

    // Read-only reduction: fold straight from the worker's scratch binner.
    fn fold_ref(&self, acc: &mut BatchSkews, _run: usize, binner: &PulseBinner) {
        acc.add_observed(self.grid, binner, self.h, self.pulse);
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
/// Since the observer redesign this rides the streaming extraction path
/// ([`RunSpec::fold_observed`] + [`ObservedSkewReducer`]): skew samples
/// are accumulated online as fires happen, with no trace and no
/// [`PulseView`](hex_sim::PulseView) matrices per run. The result is
/// byte-identical to the materialized reference path
/// (`spec.fold(&SkewReducer::new(&grid, h))`), which the workspace
/// observer walls pin.
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

/// Sequential fallback: extract [`BatchSkews`] from already-materialized
/// views (drivers that need the views for other statistics too). Reduces
/// pulse 0 of each run, like [`batch_skews`].
pub fn batch_skews_from_views(grid: &HexGrid, views: &[RunView], h: usize) -> BatchSkews {
    let mut acc = BatchSkews::default();
    for rv in views {
        acc.add(grid, rv, h, 0);
    }
    acc
}

/// A [`Reducer`] estimating the stabilization pulse of every run against
/// several threshold [`Criterion`]s at once (Figs. 18/19 evaluate classes
/// `C ∈ {0,…,3}` over one shared batch). The accumulator holds, per
/// criterion, the per-run estimates in run order — exactly what
/// [`crate::stabilization::summarize`] consumes.
#[derive(Debug)]
pub struct StabilizationReducer<'a> {
    grid: &'a HexGrid,
    criteria: &'a [Criterion],
    h: usize,
}

impl<'a> StabilizationReducer<'a> {
    /// Estimate against `criteria` with `h`-hop fault exclusion.
    pub fn new(grid: &'a HexGrid, criteria: &'a [Criterion], h: usize) -> Self {
        StabilizationReducer { grid, criteria, h }
    }
}

impl Reducer<RunView> for StabilizationReducer<'_> {
    type Acc = Vec<Vec<Option<usize>>>;

    fn empty(&self) -> Self::Acc {
        vec![Vec::new(); self.criteria.len()]
    }

    fn fold(&self, acc: &mut Self::Acc, run: usize, rv: RunView) {
        self.fold_ref(acc, run, &rv);
    }

    // Read-only reduction: fold straight from the worker's scratch views.
    fn fold_ref(&self, acc: &mut Self::Acc, _run: usize, rv: &RunView) {
        let mask = exclusion_mask(self.grid, &rv.faulty, self.h);
        for (ci, criterion) in self.criteria.iter().enumerate() {
            acc[ci].push(stabilization_pulse(self.grid, &rv.views, &mask, criterion));
        }
    }

    fn merge(&self, mut left: Self::Acc, right: Self::Acc) -> Self::Acc {
        for (l, r) in left.iter_mut().zip(right) {
            l.extend(r);
        }
        left
    }
}

/// The observer-backed twin of [`StabilizationReducer`], for
/// [`RunSpec::fold_observed`]: estimates each run's stabilization pulse
/// straight from the worker's [`PulseBinner`] slots — the multi-pulse
/// stabilization sweeps (Figs. 18/19) no longer materialize a single
/// [`PulseView`](hex_sim::PulseView). Estimates are identical to the
/// materialized path's, pinned by the workspace observer walls.
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

    fn fold(&self, acc: &mut Self::Acc, run: usize, binner: PulseBinner) {
        self.fold_ref(acc, run, &binner);
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
/// at batch scale. The accumulator is run-major ([run][disturbance]), in
/// run order; feed it to
/// [`summarize_campaign`](crate::stabilization::summarize_campaign).
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

    fn fold(&self, acc: &mut Self::Acc, run: usize, binner: PulseBinner) {
        self.fold_ref(acc, run, &binner);
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
    use hex_clock::Scenario;
    use hex_core::D_PLUS;
    use hex_sim::spec::FaultRegime;
    use hex_sim::InitState;

    fn small() -> RunSpec {
        RunSpec::grid(12, 8).runs(20).threads(2)
    }

    #[test]
    fn streaming_equals_collect_then_fold() {
        for threads in [1usize, 2, 8] {
            let spec = small()
                .scenario(Scenario::RandomDPlus)
                .faults(FaultRegime::FailSilent(1))
                .threads(threads);
            let grid = spec.hex_grid();
            let streamed = batch_skews(&spec, 1);
            let sequential = batch_skews_from_views(&grid, &spec.run_batch(), 1);
            assert_eq!(streamed.cumulated.intra, sequential.cumulated.intra);
            assert_eq!(streamed.cumulated.inter, sequential.cumulated.inter);
            assert_eq!(streamed.per_run_intra(), sequential.per_run_intra());
            assert_eq!(streamed.per_run_inter(), sequential.per_run_inter());
        }
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

    #[test]
    fn at_pulse_selects_the_requested_view() {
        let spec = small().runs(3).pulses(4).init(InitState::Arbitrary);
        let grid = spec.hex_grid();
        let last = spec.fold(&SkewReducer::new(&grid, 0).at_pulse(3));
        assert_eq!(last.runs(), 3);
        // Manually reduce pulse 3 of each run and compare.
        let mut expected = BatchSkews::default();
        for rv in spec.run_batch() {
            let mask = exclusion_mask(&grid, &rv.faulty, 0);
            let s = collect_skews(&grid, &rv.views[3], &mask);
            expected.cumulated.extend(&s);
        }
        assert_eq!(last.cumulated.intra, expected.cumulated.intra);
    }

    /// The streaming extraction path is byte-identical to the
    /// materialized reference: identical cumulated sample *vectors*
    /// (order included), identical per-run summaries, across fault
    /// regimes and exclusion radii.
    #[test]
    fn observed_skews_equal_materialized_bytes() {
        for (h, faults) in [
            (0usize, FaultRegime::None),
            (0, FaultRegime::Byzantine(2)),
            (
                1,
                FaultRegime::Mixed {
                    byzantine: 1,
                    fail_silent: 1,
                },
            ),
        ] {
            let spec = small().scenario(Scenario::RandomDPlus).faults(faults);
            let grid = spec.hex_grid();
            let observed = spec.fold_observed(&ObservedSkewReducer::new(&grid, h));
            let materialized = spec.fold(&SkewReducer::new(&grid, h));
            assert_eq!(
                observed.cumulated.intra, materialized.cumulated.intra,
                "h = {h}"
            );
            assert_eq!(
                observed.cumulated.inter, materialized.cumulated.inter,
                "h = {h}"
            );
            assert_eq!(
                observed.per_run_intra(),
                materialized.per_run_intra(),
                "h = {h}"
            );
            assert_eq!(
                observed.per_run_inter(),
                materialized.per_run_inter(),
                "h = {h}"
            );
        }
    }

    /// `at_pulse` on the observed reducer selects the same pulse as the
    /// materialized one, for a corrupted-init multi-pulse batch.
    #[test]
    fn observed_at_pulse_equals_materialized() {
        let spec = small().runs(4).pulses(4).init(InitState::Arbitrary);
        let grid = spec.hex_grid();
        for pulse in [0usize, 3] {
            let observed = spec.fold_observed(&ObservedSkewReducer::new(&grid, 0).at_pulse(pulse));
            let materialized = spec.fold(&SkewReducer::new(&grid, 0).at_pulse(pulse));
            assert_eq!(
                observed.cumulated.intra, materialized.cumulated.intra,
                "pulse {pulse}"
            );
            assert_eq!(
                observed.cumulated.inter, materialized.cumulated.inter,
                "pulse {pulse}"
            );
            assert_eq!(
                observed.per_run_intra(),
                materialized.per_run_intra(),
                "pulse {pulse}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "only 1 pulse(s)")]
    fn observed_reducer_rejects_out_of_range_pulse() {
        let spec = small().runs(1).threads(1);
        let grid = spec.hex_grid();
        spec.fold_observed(&ObservedSkewReducer::new(&grid, 0).at_pulse(2));
    }

    /// The observed stabilization reducer reproduces the materialized
    /// estimates for every criterion, including runs that never
    /// stabilize.
    #[test]
    fn observed_stabilization_equals_materialized() {
        use hex_des::Duration;
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
        // An impossible bound: estimates must be None on both paths.
        criteria.push(Criterion::uniform(
            Duration::ZERO,
            Duration::ZERO,
            spec.length,
        ));
        let observed = spec.fold_observed(&ObservedStabilizationReducer::new(&grid, &criteria, 0));
        let materialized = spec.fold(&StabilizationReducer::new(&grid, &criteria, 0));
        assert_eq!(observed, materialized);
        assert!(observed.last().unwrap().iter().all(Option::is_none));
    }

    /// A scripted crash + clean rejoin between two pulses: every run
    /// re-stabilizes, and the run-major accumulator is identical across
    /// queue policies and worker-thread counts (the campaign sweep's
    /// byte-identity claim, through the streaming observed fold).
    #[test]
    fn campaign_restabilization_recovers_and_is_policy_invariant() {
        use hex_core::{FaultScript, RejoinState};
        use hex_sim::QueuePolicy;

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
        for policy in QueuePolicy::ALL {
            for threads in [1usize, 3] {
                let leg = spec.clone().queue(policy).threads(threads);
                let acc = leg.fold_observed(&ObservedRestabilizationReducer::new(
                    &grid, &crit, &times, 0,
                ));
                assert_eq!(acc, reference, "{policy:?} × {threads} threads diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs a FaultRegime::Script")]
    fn campaign_restabilization_rejects_unscripted_specs() {
        let crit = Criterion::uniform(D_PLUS, D_PLUS, 12);
        campaign_restabilization(&small(), &crit, 0);
    }

    #[test]
    fn stabilization_reducer_matches_per_run_loop() {
        let spec = small()
            .runs(4)
            .scenario(Scenario::Zero)
            .pulses(5)
            .init(InitState::Arbitrary);
        let grid = spec.hex_grid();
        let criteria: Vec<Criterion> = (1..=3u8)
            .map(|c| Criterion::class(c, D_PLUS, spec.length, |_| D_PLUS))
            .collect();
        let streamed = spec.fold(&StabilizationReducer::new(&grid, &criteria, 0));
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
    }
}
