//! Analysis-pipeline benchmarks: skew statistics, histograms and the
//! stabilization estimator over pre-simulated run sets (materialized once
//! through `RunSpec`), and the Tables 1/2 skew fold and summary at the
//! paper's 250-run scale.

use criterion::{criterion_group, criterion_main, Criterion};
use hex_analysis::histogram::Histogram;
use hex_analysis::reduce::skew_summary_table;
use hex_analysis::skew::{collect_skews, exclusion_mask, SkewSamples};
use hex_analysis::stabilization::{stabilization_pulse, Criterion as StabCriterion};
use hex_analysis::stats::Summary;
use hex_bench::{
    batch_skews, zero_schedule, FaultRegime, ObservedSkewReducer, RunSpec, TimingPolicy,
};
use hex_clock::Scenario;
use hex_core::D_PLUS;
use hex_des::Duration;
use hex_sim::{simulate_observed_into, InitState, PulseBinner, PulseView, Reducer, SimScratch};

fn bench_stats(c: &mut Criterion) {
    let spec = RunSpec::paper()
        .runs(50)
        .seed(0)
        .schedule(zero_schedule(20))
        .timing(TimingPolicy::Generous);
    let grid = spec.hex_grid();
    let mask = exclusion_mask(&grid, &[], 0);
    let views: Vec<PulseView> = spec
        .run_batch()
        .into_iter()
        .map(|rv| rv.views.into_iter().next().expect("one view"))
        .collect();
    let mut cumulated = SkewSamples::default();
    for v in &views {
        cumulated.extend(&collect_skews(&grid, v, &mask));
    }

    c.bench_function("collect_skews_50x20", |b| {
        b.iter(|| collect_skews(&grid, &views[0], &mask).intra.len())
    });
    c.bench_function("summary_50k_samples", |b| {
        b.iter(|| Summary::from_durations(&cumulated.intra).unwrap().max)
    });
    c.bench_function("histogram_50k_samples", |b| {
        b.iter(|| {
            let mut h = Histogram::new(Duration::ZERO, Duration::from_ns(9.0), 36);
            h.add_all(&cumulated.intra);
            h.total()
        })
    });
}

fn bench_stabilization_estimator(c: &mut Criterion) {
    let spec = RunSpec::grid(20, 10)
        .runs(1)
        .seed(2)
        .pulses(10)
        .init(InitState::Arbitrary);
    let grid = spec.hex_grid();
    let rv = spec.run_single();
    let mask = exclusion_mask(&grid, &[], 0);
    let crit = StabCriterion::uniform(D_PLUS * 2, D_PLUS, grid.length());
    c.bench_function("stabilization_estimate_10_pulses", |b| {
        b.iter(|| stabilization_pulse(&grid, &rv.views, &mask, &crit))
    });
}

/// One Table 2 batch (250 runs on 50×20, scenario (iii), one Byzantine
/// node per run): its observed skew fold on one thread, from binners
/// simulated beforehand, and its summary table. Both rows time the
/// analysis layer alone.
fn bench_skew_tables(c: &mut Criterion) {
    let spec = RunSpec::paper()
        .scenario(Scenario::RandomDPlus)
        .faults(FaultRegime::Byzantine(1))
        .seed(0);
    let grid = spec.hex_grid();
    let d_mid = spec.delays.envelope().mid();
    let mut scratch = SimScratch::new();
    let binners: Vec<PulseBinner> = (0..spec.runs)
        .map(|run| {
            let inputs = spec.materialize(run);
            let binner = simulate_observed_into(
                &mut scratch,
                &grid,
                &inputs.schedule,
                &inputs.config,
                inputs.seed,
                d_mid,
            );
            binner.clone()
        })
        .collect();
    let reducer = ObservedSkewReducer::new(&grid, 0);
    let fold = || {
        let mut acc = reducer.empty();
        for (run, binner) in binners.iter().enumerate() {
            reducer.fold_ref(&mut acc, run, binner);
        }
        acc
    };
    let skews = fold();
    assert_eq!(
        skews.cumulated.inter,
        batch_skews(&spec, 0).cumulated.inter,
        "the bench folds a different batch than batch_skews"
    );

    let mut g = c.benchmark_group("skew_tables_250_runs");
    g.sample_size(10);
    g.bench_function("observed_fold/50x20", |b| {
        b.iter(|| fold().cumulated.intra.len())
    });
    g.bench_function("summary_table/50x20", |b| {
        b.iter(|| skew_summary_table(&skews).to_json().len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_stats,
    bench_stabilization_estimator,
    bench_skew_tables
);
criterion_main!(benches);
