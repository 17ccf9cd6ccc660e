//! Reduced-run versions of the Table 1 / Table 2 pipelines, keeping
//! `cargo bench` an honest end-to-end exercise of the experiment drivers.
//! Both pipelines run through `RunSpec` + the streaming `batch_skews`
//! reduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hex_bench::{batch_skews, FaultRegime, RunSpec};
use hex_clock::Scenario;

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.sample_size(10);
    let exp = RunSpec::paper().runs(10).scenario(Scenario::RandomDPlus);
    g.bench_with_input(
        BenchmarkId::new("table1_pipeline", "10_runs"),
        &exp,
        |b, exp| b.iter(|| batch_skews(exp, 0).cumulated.intra.len()),
    );
    let byz = exp.clone().faults(FaultRegime::Byzantine(1));
    g.bench_with_input(
        BenchmarkId::new("table2_pipeline", "10_runs"),
        &byz,
        |b, byz| b.iter(|| batch_skews(byz, 0).cumulated.intra.len()),
    );
    g.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
