//! Wave-pipeline benchmarks: one full single-pulse experiment (simulate +
//! view extraction + skew collection) per scenario on the paper's grid,
//! driven through `RunSpec` run materialization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hex_analysis::skew::{collect_skews, exclusion_mask};
use hex_bench::RunSpec;
use hex_clock::Scenario;
use hex_sim::SimScratch;

fn bench_scenarios(c: &mut Criterion) {
    let mut g = c.benchmark_group("wave_pipeline");
    g.sample_size(20);
    let base = RunSpec::paper();
    let grid = base.hex_grid();
    let mask = exclusion_mask(&grid, &[], 0);
    for scenario in Scenario::ALL {
        let spec = base.clone().scenario(scenario);
        g.bench_with_input(
            BenchmarkId::new("scenario", scenario.label()),
            &spec,
            |b, spec| {
                let mut run = 0usize;
                b.iter(|| {
                    run += 1;
                    let rv = spec.run_one(&grid, &mut SimScratch::new(), run);
                    collect_skews(&grid, rv.view(), &mask).intra.len()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_scenarios);
criterion_main!(benches);
