//! Timeout ablation: the link timeouts of Algorithm 1 exist purely for
//! self-stabilization ("there would be no need for the individual link
//! timeout mechanism if the algorithm always started from a properly
//! initialized state"). This bench runs the stabilization pipeline with
//! the Table-3 link timeouts vs. effectively-infinite ones and reports the
//! wall time; the stabilization-quality comparison (with timeouts HEX
//! "reliably stabilizes within two clock pulses") is asserted in
//! `tests/stabilization.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hex_bench::{RunSpec, TimingPolicy};
use hex_core::{DelayRange, Timing};
use hex_des::Duration;
use hex_sim::{InitState, SimScratch};

fn bench_timeouts(c: &mut Criterion) {
    let mut g = c.benchmark_group("timeout_ablation");
    g.sample_size(10);
    let base = RunSpec::grid(20, 10).pulses(10).init(InitState::Arbitrary);
    let grid = base.hex_grid();
    let with_timeouts = Timing::paper_scenario_iii();
    let without_timeouts = Timing {
        link: DelayRange::fixed(Duration::from_ns(100_000.0)),
        sleep: with_timeouts.sleep,
    };
    for (name, timing) in [
        ("link_timeouts_on", with_timeouts),
        ("link_timeouts_off", without_timeouts),
    ] {
        let spec = base.clone().timing(TimingPolicy::Fixed(timing));
        g.bench_with_input(BenchmarkId::new("stab_run", name), &spec, |b, spec| {
            let mut run = 0usize;
            b.iter(|| {
                run += 1;
                spec.run_one(&grid, &mut SimScratch::new(), run).views.len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_timeouts);
criterion_main!(benches);
