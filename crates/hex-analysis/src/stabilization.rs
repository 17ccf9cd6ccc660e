//! The stabilization-time estimator of Section 4.4.
//!
//! "Our stabilization time estimate for each run is computed (off-line) as
//! the minimal pulse k with the property that the maximal layer ℓ intra-
//! resp. inter-layer skew, for every layer ℓ, is below the a-priori chosen
//! skew bound σ(f, ℓ) resp. σ̂(f, ℓ)" — *persistently*, i.e. for every
//! subsequent recorded pulse too.
//!
//! Threshold classes `C ∈ {0, 1, 2, 3}` choose the per-layer bound
//! `σ(f, ℓ)`: the very conservative Lemma-5 bound for `C = 0`, and
//! `(4 − C)·d+` for `C ∈ {1, 2, 3}` (aggressively small for `C = 3`). The
//! inter-layer bound is derived as `σ̂(f, ℓ) = σ(f, ℓ) + d+` (Theorem 1's
//! envelope).

use hex_core::HexGrid;
use hex_des::{Duration, Time};
use hex_sim::{PulseBinner, PulseView};

use crate::skew::{per_layer_max_inter_with, per_layer_max_intra_with};

/// Per-layer skew thresholds for the stabilization check.
#[derive(Debug, Clone)]
pub struct Criterion {
    /// Intra-layer bound `σ(f, ℓ)`, indexed by layer − 1 (layers `1..=L`).
    pub intra: Vec<Duration>,
    /// Inter-layer bound `σ̂(f, ℓ)`, same indexing.
    pub inter: Vec<Duration>,
}

impl Criterion {
    /// Uniform thresholds: intra `σ`, inter `σ + d+`, for all `layers`
    /// layers. This is the `C ∈ {1,2,3}` regime with `σ = (4−C)·d+`.
    pub fn uniform(sigma: Duration, d_plus: Duration, layers: u32) -> Criterion {
        Criterion {
            intra: vec![sigma; layers as usize],
            inter: vec![sigma + d_plus; layers as usize],
        }
    }

    /// The paper's class-`C` criterion for a grid of `layers` layers.
    /// `lemma5_sigma` supplies the conservative per-layer bound used for
    /// `C = 0` (computed in `hex-theory`, passed in to avoid a dependency
    /// cycle).
    pub fn class(
        c: u8,
        d_plus: Duration,
        layers: u32,
        lemma5_sigma: impl Fn(u32) -> Duration,
    ) -> Criterion {
        match c {
            0 => {
                let intra: Vec<Duration> = (1..=layers).map(lemma5_sigma).collect();
                let inter = intra.iter().map(|&s| s + d_plus).collect();
                Criterion { intra, inter }
            }
            1..=3 => Criterion::uniform(d_plus.times((4 - c) as i64), d_plus, layers),
            _ => panic!("threshold class must be in 0..=3, got {c}"),
        }
    }

    fn layers(&self) -> u32 {
        self.intra.len() as u32
    }
}

/// Does pulse view `view` satisfy the criterion on every layer?
///
/// A layer also fails if any non-excluded node is missing its triggering
/// time (an incomplete pulse cannot be called stable).
pub fn pulse_satisfies(
    grid: &HexGrid,
    view: &PulseView,
    excluded: &[bool],
    criterion: &Criterion,
) -> bool {
    assert_eq!(criterion.layers(), grid.length(), "criterion layer count");
    profile_with(grid, excluded, |layer, col| view.time(layer, col)).satisfies(criterion)
}

/// The **criterion-independent** part of one pulse's stabilization check:
/// completeness of every non-excluded node plus the per-layer skew
/// maxima. Evaluating a [`Criterion`] against a profile is then a pure
/// threshold comparison, so a multi-criterion sweep (Figs. 18/19 evaluate
/// four classes) extracts each pulse **once** instead of once per
/// criterion.
#[derive(Debug, Clone)]
pub struct PulseProfile {
    /// Every non-excluded node has a triggering time (an incomplete pulse
    /// can never be called stable, whatever the thresholds).
    pub complete: bool,
    /// Per-layer maximum intra-layer skew (index 0 = layer 1); empty when
    /// the pulse is incomplete.
    pub intra: Vec<Option<Duration>>,
    /// Per-layer maximum inter-layer skew; empty when incomplete.
    pub inter: Vec<Option<Duration>>,
}

impl PulseProfile {
    /// Does this pulse satisfy `criterion` on every layer?
    pub fn satisfies(&self, criterion: &Criterion) -> bool {
        if !self.complete {
            return false;
        }
        assert_eq!(
            criterion.layers() as usize,
            self.intra.len(),
            "criterion layer count"
        );
        for ix in 0..self.intra.len() {
            if let Some(s) = self.intra[ix] {
                if s > criterion.intra[ix] {
                    return false;
                }
            }
            if let Some(s) = self.inter[ix] {
                if s > criterion.inter[ix] {
                    return false;
                }
            }
        }
        true
    }
}

/// Extract one pulse's [`PulseProfile`] through a raw (unmasked) time
/// accessor — the single walk shared by the per-view check and the
/// observed profiles. Maxima are skipped for incomplete pulses (they can
/// never satisfy any criterion).
fn profile_with(
    grid: &HexGrid,
    excluded: &[bool],
    raw: impl Fn(u32, i64) -> Option<Time> + Copy,
) -> PulseProfile {
    for layer in 0..=grid.length() {
        for col in 0..grid.width() {
            let n = grid.node(layer, col as i64);
            if !excluded[n as usize] && raw(layer, col as i64).is_none() {
                return PulseProfile {
                    complete: false,
                    intra: Vec::new(),
                    inter: Vec::new(),
                };
            }
        }
    }
    let masked = move |layer: u32, col: i64| {
        let n = grid.node(layer, col);
        if excluded[n as usize] {
            None
        } else {
            raw(layer, col)
        }
    };
    PulseProfile {
        complete: true,
        intra: per_layer_max_intra_with(grid.length(), grid.width(), masked),
        inter: per_layer_max_inter_with(grid.length(), grid.width(), masked),
    }
}

/// The criterion-independent profiles of every pulse of an observed run
/// (`h`-masked by `excluded`), extracted in one walk per pulse. Feed the
/// result to [`stabilization_from_profiles`] once per criterion.
pub fn observed_pulse_profiles(
    grid: &HexGrid,
    binner: &PulseBinner,
    excluded: &[bool],
) -> Vec<PulseProfile> {
    (0..binner.pulses())
        .map(|k| profile_with(grid, excluded, |layer, col| binner.grid_time(k, layer, col)))
        .collect()
}

/// The stabilization estimate over pre-extracted [`PulseProfile`]s: the
/// minimal pulse from which every later pulse satisfies `criterion`.
pub fn stabilization_from_profiles(
    profiles: &[PulseProfile],
    criterion: &Criterion,
) -> Option<usize> {
    let ok: Vec<bool> = profiles.iter().map(|p| p.satisfies(criterion)).collect();
    longest_suffix_start(&ok)
}

/// The stabilization estimate of one run: the minimal pulse index `k` such
/// that **every** pulse `k' ≥ k` satisfies the criterion. `None` if the run
/// never stabilizes within the recorded pulses (the last pulses violate the
/// bound).
pub fn stabilization_pulse(
    grid: &HexGrid,
    views: &[PulseView],
    excluded: &[bool],
    criterion: &Criterion,
) -> Option<usize> {
    let ok: Vec<bool> = views
        .iter()
        .map(|v| pulse_satisfies(grid, v, excluded, criterion))
        .collect();
    longest_suffix_start(&ok)
}

/// Start of the longest `true` suffix, `None` if the last pulse fails.
fn longest_suffix_start(ok: &[bool]) -> Option<usize> {
    let mut k = ok.len();
    for i in (0..ok.len()).rev() {
        if ok[i] {
            k = i;
        } else {
            break;
        }
    }
    if k == ok.len() {
        None
    } else {
        Some(k)
    }
}

/// Aggregate stabilization statistics over runs.
#[derive(Debug, Clone, Copy)]
pub struct StabilizationStats {
    /// Number of runs that stabilized within the recorded pulses.
    pub stabilized: usize,
    /// Total runs.
    pub runs: usize,
    /// Mean stabilization pulse among stabilized runs (1-based, i.e. "first
    /// pulse" = 1, matching the paper's "stabilizes after the very first
    /// pulse").
    pub avg: f64,
    /// Standard deviation of the stabilization pulse among stabilized runs.
    pub std: f64,
}

/// Summarize per-run stabilization estimates (`None` = not stabilized).
pub fn summarize(estimates: &[Option<usize>]) -> StabilizationStats {
    let runs = estimates.len();
    let done: Vec<f64> = estimates
        .iter()
        .flatten()
        .map(|&k| (k + 1) as f64)
        .collect();
    let stabilized = done.len();
    let avg = if done.is_empty() {
        f64::NAN
    } else {
        done.iter().sum::<f64>() / done.len() as f64
    };
    let std = if done.is_empty() {
        f64::NAN
    } else {
        (done.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / done.len() as f64).sqrt()
    };
    StabilizationStats {
        stabilized,
        runs,
        avg,
        std,
    }
}

/// Render a [`StabilizationStats`] as a deterministic [`Table`] — the
/// canonical result encoding of a stabilization query (the `hexd` service
/// caches and replays `stabilization_summary_table(..).to_json()` bytes).
/// The NaN sentinels of an all-unstabilized batch render as `null` cells,
/// keeping the JSON valid and byte-stable.
///
/// [`Table`]: crate::emit::Table
pub fn stabilization_summary_table(stats: &StabilizationStats) -> crate::emit::Table {
    use crate::emit::{Table, Value};
    let mut t = Table::new(
        "stabilization_summary",
        &["stabilized", "runs", "avg_pulse", "std_pulse"],
    );
    let num = |v: f64| {
        if v.is_nan() {
            Value::Null
        } else {
            Value::from(v)
        }
    };
    t.row(vec![
        Value::from(stats.stabilized),
        Value::from(stats.runs),
        num(stats.avg),
        num(stats.std),
    ]);
    t
}

// ---------------------------------------------------------------------------
// Re-stabilization after scripted mid-run disturbances.

/// The re-stabilization estimate of one disturbance in one run: how the
/// grid recovered from a scripted fault transition (a
/// [`FaultScript`](hex_core::FaultScript) injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Restabilization {
    /// When the disturbance was injected.
    pub at: Time,
    /// The first recorded pulse whose layer-0 wave starts at or after the
    /// disturbance (`None` if the disturbance lands after the last
    /// recorded pulse).
    pub covered: Option<usize>,
    /// The first pulse `k ≥ covered` from which every pulse up to the
    /// next disturbance (or the end of the run) satisfies the criterion —
    /// the per-disturbance analogue of [`stabilization_pulse`]'s
    /// persistence requirement. `None` if the window never recovers.
    pub pulse: Option<usize>,
}

impl Restabilization {
    /// Pulses the grid needed to re-stabilize, 1-based like
    /// [`StabilizationStats::avg`]: 1 means the very first pulse issued
    /// after the disturbance already satisfied the criterion. `None` if
    /// the disturbance was never covered or never recovered from.
    pub fn pulses_to_restabilize(&self) -> Option<usize> {
        match (self.covered, self.pulse) {
            (Some(c), Some(p)) => Some(p - c + 1),
            _ => None,
        }
    }
}

/// The layer-0 start of pulse `k`: the earliest recorded source time.
fn pulse_start(grid: &HexGrid, binner: &PulseBinner, pulse: usize) -> Option<Time> {
    (0..grid.width())
        .filter_map(|col| binner.grid_time(pulse, 0, col as i64))
        .min()
}

/// Per-disturbance re-stabilization estimates of one observed run.
///
/// `disturbances` must be ascending (e.g.
/// [`FaultScript::disturbance_times`](hex_core::FaultScript::disturbance_times));
/// `profiles` are the run's pre-extracted [`observed_pulse_profiles`].
/// Each disturbance owns the pulse segment from its first covering pulse
/// up to (excluding) the next disturbance's, and re-stabilizes at the
/// start of the segment's longest criterion-satisfying suffix — so a
/// later disturbance cannot mask an earlier one's recovery, and two
/// disturbances inside one pulse window leave the earlier one
/// unrecovered (its segment is empty).
pub fn restabilization_observed(
    grid: &HexGrid,
    binner: &PulseBinner,
    profiles: &[PulseProfile],
    criterion: &Criterion,
    disturbances: &[Time],
) -> Vec<Restabilization> {
    assert!(
        disturbances.windows(2).all(|w| w[0] <= w[1]),
        "disturbance times must be ascending"
    );
    let ok: Vec<bool> = profiles.iter().map(|p| p.satisfies(criterion)).collect();
    let covered: Vec<Option<usize>> = disturbances
        .iter()
        .map(|&t| {
            (0..profiles.len()).find(|&k| pulse_start(grid, binner, k).is_some_and(|s| s >= t))
        })
        .collect();
    disturbances
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            let Some(from) = covered[i] else {
                return Restabilization {
                    at,
                    covered: None,
                    pulse: None,
                };
            };
            let until = covered[i + 1..]
                .iter()
                .flatten()
                .next()
                .copied()
                .unwrap_or(profiles.len());
            Restabilization {
                at,
                covered: Some(from),
                pulse: longest_suffix_start(&ok[from..until]).map(|k| from + k),
            }
        })
        .collect()
}

/// Aggregate re-stabilization statistics of one disturbance over a
/// campaign's runs.
#[derive(Debug, Clone, Copy)]
pub struct DisturbanceStats {
    /// When the disturbance is injected (identical in every run).
    pub at: Time,
    /// Total runs.
    pub runs: usize,
    /// Runs that re-stabilized from this disturbance.
    pub restabilized: usize,
    /// Mean pulses-to-restabilize among recovered runs (1-based; NaN if
    /// no run recovered).
    pub avg_pulses: f64,
    /// Worst (maximum) pulses-to-restabilize among recovered runs.
    pub worst_pulses: Option<usize>,
}

/// Campaign-level aggregate: per-disturbance statistics plus the
/// campaign-wide worst case.
#[derive(Debug, Clone)]
pub struct CampaignStats {
    /// One entry per scripted disturbance, in injection order.
    pub disturbances: Vec<DisturbanceStats>,
}

impl CampaignStats {
    /// The campaign's worst-case pulses-to-restabilize over every
    /// disturbance and run — the headline number of a robustness sweep.
    /// `None` if no disturbance recovered anywhere.
    pub fn worst(&self) -> Option<usize> {
        self.disturbances
            .iter()
            .filter_map(|d| d.worst_pulses)
            .max()
    }

    /// Did every disturbance of every run re-stabilize?
    pub fn fully_recovered(&self) -> bool {
        self.disturbances.iter().all(|d| d.restabilized == d.runs)
    }
}

/// Summarize per-run re-stabilization estimates (run-major, as
/// accumulated by
/// [`ObservedRestabilizationReducer`](crate::reduce::ObservedRestabilizationReducer))
/// into per-disturbance campaign statistics.
pub fn summarize_campaign(per_run: &[Vec<Restabilization>]) -> CampaignStats {
    let disturbances = per_run.first().map_or(0, Vec::len);
    let stats = (0..disturbances)
        .map(|d| {
            let at = per_run[0][d].at;
            let recovered: Vec<usize> = per_run
                .iter()
                .filter_map(|run| {
                    assert_eq!(run.len(), disturbances, "ragged campaign accumulator");
                    assert_eq!(run[d].at, at, "disturbance times differ across runs");
                    run[d].pulses_to_restabilize()
                })
                .collect();
            let avg_pulses = if recovered.is_empty() {
                f64::NAN
            } else {
                recovered.iter().sum::<usize>() as f64 / recovered.len() as f64
            };
            DisturbanceStats {
                at,
                runs: per_run.len(),
                restabilized: recovered.len(),
                avg_pulses,
                worst_pulses: recovered.iter().max().copied(),
            }
        })
        .collect();
    CampaignStats {
        disturbances: stats,
    }
}

/// Render a [`CampaignStats`] as a deterministic [`Table`] — one row per
/// disturbance plus the canonical result encoding of a `campaign` query
/// (cached and replayed by `hexd` as `to_json()` bytes). NaN averages
/// and never-recovered worst cases render as `null`.
///
/// [`Table`]: crate::emit::Table
pub fn campaign_summary_table(stats: &CampaignStats) -> crate::emit::Table {
    use crate::emit::{Table, Value};
    let mut t = Table::new(
        "campaign_summary",
        &[
            "disturbance",
            "at_ps",
            "runs",
            "restabilized",
            "avg_pulses",
            "worst_pulses",
        ],
    );
    for (ix, d) in stats.disturbances.iter().enumerate() {
        t.row(vec![
            Value::from(ix),
            Value::from(d.at.ps()),
            Value::from(d.runs),
            Value::from(d.restabilized),
            if d.avg_pulses.is_nan() {
                Value::Null
            } else {
                Value::from(d.avg_pulses)
            },
            match d.worst_pulses {
                Some(w) => Value::from(w),
                None => Value::Null,
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skew::exclusion_mask;
    use hex_clock::{PulseTrain, Scenario};
    use hex_core::{Timing, D_PLUS};
    use hex_des::{Duration, SimRng};
    use hex_sim::{assign_pulses, simulate, InitState, SimConfig};

    fn run_views(init: InitState, seed: u64) -> (HexGrid, Vec<PulseView>) {
        let grid = HexGrid::new(6, 6);
        let mut rng = SimRng::seed_from_u64(seed);
        let train = PulseTrain::new(Scenario::Zero, 8, Duration::from_ns(300.0));
        let sched = train.generate(6, &mut rng);
        let cfg = SimConfig {
            timing: Timing::paper_scenario_iii(),
            init,
            ..SimConfig::fault_free()
        };
        let trace = simulate(grid.graph(), &sched, &cfg, seed);
        let views = assign_pulses(&grid, &trace, &sched, hex_core::DelayRange::paper().mid());
        (grid, views)
    }

    #[test]
    fn clean_run_stabilizes_at_pulse_zero() {
        let (grid, views) = run_views(InitState::Clean, 1);
        let mask = exclusion_mask(&grid, &[], 0);
        let crit = Criterion::uniform(D_PLUS * 2, D_PLUS, grid.length());
        assert_eq!(stabilization_pulse(&grid, &views, &mask, &crit), Some(0));
    }

    #[test]
    fn arbitrary_init_stabilizes_quickly() {
        // The paper: "the link timeouts added in Algorithm 1 cause HEX to
        // reliably stabilize within two clock pulses".
        let mut latest = 0usize;
        for seed in 0..5 {
            let (grid, views) = run_views(InitState::Arbitrary, 100 + seed);
            let mask = exclusion_mask(&grid, &[], 0);
            let crit = Criterion::uniform(D_PLUS * 2, D_PLUS, grid.length());
            let k = stabilization_pulse(&grid, &views, &mask, &crit)
                .expect("must stabilize within 8 pulses");
            latest = latest.max(k);
        }
        assert!(latest <= 3, "stabilized only at pulse {latest}");
    }

    #[test]
    fn impossible_criterion_never_stabilizes() {
        let (grid, views) = run_views(InitState::Clean, 2);
        let mask = exclusion_mask(&grid, &[], 0);
        // Intra bound of 0 ps cannot be met with random delays.
        let crit = Criterion::uniform(Duration::ZERO, D_PLUS, grid.length());
        assert_eq!(stabilization_pulse(&grid, &views, &mask, &crit), None);
    }

    #[test]
    fn class_thresholds() {
        let c1 = Criterion::class(1, D_PLUS, 5, |_| Duration::ZERO);
        assert_eq!(c1.intra[0], D_PLUS * 3);
        let c3 = Criterion::class(3, D_PLUS, 5, |_| Duration::ZERO);
        assert_eq!(c3.intra[0], D_PLUS);
        let c0 = Criterion::class(0, D_PLUS, 5, |l| Duration::from_ps(l as i64 * 100));
        assert_eq!(c0.intra[4], Duration::from_ps(500));
        assert_eq!(c0.inter[4], Duration::from_ps(500) + D_PLUS);
    }

    #[test]
    #[should_panic(expected = "threshold class")]
    fn invalid_class_panics() {
        Criterion::class(4, D_PLUS, 5, |_| Duration::ZERO);
    }

    #[test]
    fn summarize_counts() {
        let stats = summarize(&[Some(0), Some(1), None, Some(0)]);
        assert_eq!(stats.stabilized, 3);
        assert_eq!(stats.runs, 4);
        assert!((stats.avg - (1.0 + 2.0 + 1.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_empty() {
        let stats = summarize(&[None, None]);
        assert_eq!(stats.stabilized, 0);
        assert!(stats.avg.is_nan());
    }

    #[test]
    fn campaign_summary_counts_and_table() {
        let r = |at, covered, pulse| Restabilization {
            at: Time::from_ps(at),
            covered,
            pulse,
        };
        let per_run = vec![
            vec![r(100, Some(1), Some(1)), r(500, Some(3), None)],
            vec![r(100, Some(1), Some(2)), r(500, None, None)],
        ];
        let stats = summarize_campaign(&per_run);
        assert_eq!(stats.disturbances.len(), 2);
        let d0 = &stats.disturbances[0];
        assert_eq!((d0.runs, d0.restabilized), (2, 2));
        assert!((d0.avg_pulses - 1.5).abs() < 1e-12);
        assert_eq!(d0.worst_pulses, Some(2));
        let d1 = &stats.disturbances[1];
        assert_eq!(d1.restabilized, 0);
        assert!(d1.avg_pulses.is_nan());
        assert_eq!(d1.worst_pulses, None);
        assert_eq!(stats.worst(), Some(2));
        assert!(!stats.fully_recovered());
        let json = campaign_summary_table(&stats).to_json();
        assert!(json.contains("campaign_summary"), "{json}");
        assert!(json.contains("null"), "{json}");
    }

    #[test]
    fn pulses_to_restabilize_is_one_based() {
        let r = Restabilization {
            at: Time::ZERO,
            covered: Some(3),
            pulse: Some(3),
        };
        assert_eq!(r.pulses_to_restabilize(), Some(1));
        let uncovered = Restabilization {
            at: Time::ZERO,
            covered: None,
            pulse: None,
        };
        assert_eq!(uncovered.pulses_to_restabilize(), None);
    }

    #[test]
    fn persistence_required() {
        // A run that violates the bound at the last pulse is not stabilized,
        // even if earlier pulses were fine. Construct synthetic views by
        // taking a good run and voiding one node in the final pulse.
        let (grid, mut views) = run_views(InitState::Clean, 3);
        let mask = exclusion_mask(&grid, &[], 0);
        let crit = Criterion::uniform(D_PLUS * 2, D_PLUS, grid.length());
        assert_eq!(stabilization_pulse(&grid, &views, &mask, &crit), Some(0));
        let last = views.len() - 1;
        views[last].t[3][2] = None; // node (3,2) missing in final pulse
        assert_eq!(stabilization_pulse(&grid, &views, &mask, &crit), None);
    }
}
