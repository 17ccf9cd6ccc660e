//! Batch-runner scaling: the experiment loop at 1, 2, 4 and all available
//! worker threads (`std::thread::scope` work stealing over run indices),
//! plus the streaming fold path — with and without per-worker `SimScratch`
//! reuse — at full parallelism, and the observed extraction fold for both
//! the skew and the stabilization workloads.
//!
//! `HEX_RUNS` overrides the batch size (default 64); CI smokes the scratch
//! path with `HEX_RUNS=2`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hex_analysis::reduce::ObservedStabilizationReducer;
use hex_analysis::stabilization::Criterion as StabCriterion;
use hex_bench::{zero_schedule, ObservedSkewReducer, RunSpec};
use hex_core::{HexGrid, D_PLUS};
use hex_sim::batch::{default_threads, run_batch_fold_with, Reducer};
use hex_sim::{
    run_batch, run_batch_fold, simulate, simulate_into, InitState, SimConfig, SimScratch,
};

struct SumFires;
impl Reducer<usize> for SumFires {
    type Acc = usize;
    fn empty(&self) -> usize {
        0
    }
    fn fold_ref(&self, acc: &mut usize, _run: usize, fires: &usize) {
        *acc += fires;
    }
    fn merge(&self, left: usize, right: usize) -> usize {
        left + right
    }
}

fn bench_batch(c: &mut Criterion) {
    let runs: usize = hex_sim::knobs::parsed("HEX_RUNS", "a number").unwrap_or(64);
    let mut g = c.benchmark_group(format!("batch_{runs}_runs"));
    g.sample_size(10);
    let grid = HexGrid::new(30, 16);
    let sched = zero_schedule(16);
    let cfg = SimConfig::fault_free();
    let all = default_threads();
    let mut threads: Vec<usize> = vec![1, 2, 4, all];
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        g.bench_with_input(BenchmarkId::new("threads", t), &t, |b, &t| {
            b.iter(|| {
                run_batch(runs, t, |run| {
                    simulate(grid.graph(), &sched, &cfg, run as u64).total_fires()
                })
            })
        });
    }
    g.bench_with_input(BenchmarkId::new("fold_threads", all), &all, |b, &t| {
        b.iter(|| {
            run_batch_fold(
                runs,
                t,
                |run| simulate(grid.graph(), &sched, &cfg, run as u64).total_fires(),
                &SumFires,
            )
        })
    });
    // The streaming fold with one SimScratch per worker — the hot
    // configuration of every RunSpec-driven sweep.
    g.bench_with_input(
        BenchmarkId::new("fold_scratch_threads", all),
        &all,
        |b, &t| {
            b.iter(|| {
                run_batch_fold_with(
                    runs,
                    t,
                    SimScratch::new,
                    || 0usize,
                    |scratch, acc, run| {
                        *acc += simulate_into(scratch, grid.graph(), &sched, &cfg, run as u64)
                            .total_fires();
                    },
                    |left, right| left + right,
                )
            })
        },
    );
    g.finish();

    // The observed extraction fold: fires binned online, statistics
    // straight off the binner slots.
    let mut g = c.benchmark_group(format!("extract_{runs}_runs"));
    g.sample_size(10);
    let skew_spec = RunSpec::grid(30, 16).runs(runs).threads(1).seed(7);
    let skew_grid = skew_spec.hex_grid();
    g.bench_function(BenchmarkId::new("skews_observed", 1), |b| {
        b.iter(|| {
            skew_spec
                .fold_observed(&ObservedSkewReducer::new(&skew_grid, 0))
                .cumulated
                .intra
                .len()
        })
    });
    // The stabilization workload: multi-pulse, corrupted init.
    let stab_spec = RunSpec::grid(12, 8)
        .runs(runs)
        .threads(1)
        .seed(7)
        .pulses(4)
        .init(InitState::Arbitrary);
    let stab_grid = stab_spec.hex_grid();
    let criteria: Vec<StabCriterion> = (1..=3u8)
        .map(|c| StabCriterion::class(c, D_PLUS, stab_spec.length, |_| D_PLUS))
        .collect();
    g.bench_function(BenchmarkId::new("stab_observed", 1), |b| {
        b.iter(|| {
            stab_spec
                .fold_observed(&ObservedStabilizationReducer::new(&stab_grid, &criteria, 0))
                .len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
