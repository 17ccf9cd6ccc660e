//! Engine microbenchmarks: event-queue throughput and single-pulse
//! simulation cost as a function of grid size, the stabilization regime,
//! the dispatch regimes of the batch kernel and scripted fault campaigns
//! (recorded by `scripts/bench_snapshot.sh` into
//! `BENCH_single_pulse.json`).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hex_bench::zero_schedule;
use hex_core::HexGrid;
use hex_des::{EventQueue, Time};
use hex_sim::{simulate, simulate_into, SimConfig, SimScratch};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for n in [1_000usize, 10_000, 100_000] {
        g.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter_batched(
                EventQueue::<u64>::new,
                |mut q| {
                    // Pseudo-random but deterministic times.
                    let mut x = 0x9E3779B97F4A7C15u64;
                    for i in 0..n {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        q.push(Time::from_ps((x % 1_000_000) as i64), i as u64);
                    }
                    let mut acc = 0u64;
                    while let Some(e) = q.pop() {
                        acc = acc.wrapping_add(e.payload);
                    }
                    acc
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_single_pulse(c: &mut Criterion) {
    let mut g = c.benchmark_group("single_pulse");
    g.sample_size(20);
    for (l, w) in [(20u32, 20u32), (50, 20), (100, 40)] {
        let grid = HexGrid::new(l, w);
        let sched = zero_schedule(w);
        let cfg = SimConfig::fault_free();
        g.bench_with_input(
            BenchmarkId::new("grid", format!("{l}x{w}")),
            &grid,
            |b, grid| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    simulate(grid.graph(), &sched, &cfg, seed).total_fires()
                })
            },
        );
        // The same run through a persistent SimScratch: the fresh-vs-reuse
        // delta is the allocation cost the batch paths amortize away.
        g.bench_with_input(
            BenchmarkId::new("grid_scratch", format!("{l}x{w}")),
            &grid,
            |b, grid| {
                let mut scratch = SimScratch::new();
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    simulate_into(&mut scratch, grid.graph(), &sched, &cfg, seed).total_fires()
                })
            },
        );
    }
    g.finish();
}

/// The stabilization regime — Table 3 (iii) timeouts, arbitrary init, an
/// 8-pulse train. Here every scheduling increment is tightly bounded
/// (`max(T+_sleep) ≈ 95 ns`), the workload shape the calendar ring is
/// sized for; the single-pulse groups above cover the generous-timeout
/// regime where the sleep horizon dominates. The row keeps its
/// `calendar` label, the name it had when two other queues ran beside it.
fn bench_multi_pulse(c: &mut Criterion) {
    use hex_clock::{PulseTrain, Scenario};
    use hex_core::Timing;
    use hex_des::{Duration, SimRng};
    use hex_sim::InitState;

    let mut g = c.benchmark_group("multi_pulse");
    g.sample_size(10);
    let grid = HexGrid::new(20, 20);
    let mut rng = SimRng::seed_from_u64(7);
    let sched = PulseTrain::new(Scenario::Zero, 8, Duration::from_ns(300.0)).generate(20, &mut rng);
    let cfg = SimConfig {
        timing: Timing::paper_scenario_iii(),
        init: InitState::Arbitrary,
        ..SimConfig::fault_free()
    };
    g.bench_with_input(
        BenchmarkId::new("stabilization_20x20", "calendar"),
        &grid,
        |b, grid| {
            let mut scratch = SimScratch::new();
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                simulate_into(&mut scratch, grid.graph(), &sched, &cfg, seed).total_fires()
            })
        },
    );
    g.finish();
}

/// The batch kernel under a fault: one Byzantine node gives the run
/// stuck-at-1 ports, so wake-ups and link timeouts re-assert them and
/// broadcasts skip its stuck links. (The fault-free single-pulse regime
/// is `single_pulse/grid_scratch`, the multi-pulse arbitrary-init regime
/// `multi_pulse/stabilization_20x20/calendar`.) The row keeps its
/// `_batched` name from when a scalar driver ran beside it.
fn bench_dispatch(c: &mut Criterion) {
    use hex_core::{FaultPlan, NodeFault, Timing};

    let mut g = c.benchmark_group("dispatch");
    g.sample_size(20);
    let grid = HexGrid::new(50, 20);
    let sched = zero_schedule(20);
    let cfg = SimConfig {
        faults: FaultPlan::none().with_node(grid.node(10, 10), NodeFault::Byzantine),
        timing: Timing::paper_scenario_iii(),
        ..SimConfig::fault_free()
    };
    g.bench_with_input(
        BenchmarkId::new("single_pulse_byzantine_batched", "50x20"),
        &grid,
        |b, grid| {
            let mut scratch = SimScratch::new();
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                simulate_into(&mut scratch, grid.graph(), &sched, &cfg, seed).total_fires()
            })
        },
    );
    g.finish();
}

/// Dynamic fault campaigns (scripted mid-run transitions): `burst_*`
/// flips one node Byzantine for a two-pulse window, `churn_*` rolls
/// three fail-silent windows across random forwarders. This measures the
/// window and transition overhead the campaign sweeps pay. The rows keep
/// their `_batched` names from when a scalar driver ran beside them.
fn bench_campaign(c: &mut Criterion) {
    use hex_clock::{PulseTrain, Scenario};
    use hex_core::fault::forwarder_candidates;
    use hex_core::{FaultScript, NodeFault, RejoinState, Timing};
    use hex_des::{Duration, SimRng};
    use hex_sim::InitState;

    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);
    let grid = HexGrid::new(20, 20);
    let mut rng = SimRng::seed_from_u64(7);
    let sched = PulseTrain::new(Scenario::Zero, 8, Duration::from_ns(300.0)).generate(20, &mut rng);
    let burst = FaultScript::burst(
        grid.node(10, 10),
        NodeFault::Byzantine,
        Time::from_ns(450.0),
        Time::from_ns(1_050.0),
        RejoinState::Arbitrary,
    );
    let mut churn_rng = SimRng::seed_from_u64(11);
    let churn = FaultScript::churn(
        &forwarder_candidates(grid.graph()),
        Time::from_ns(450.0),
        Duration::from_ns(300.0),
        Duration::from_ns(600.0),
        3,
        RejoinState::Clean,
        &mut churn_rng,
    );
    for (regime, script) in [("burst", &burst), ("churn", &churn)] {
        let cfg = SimConfig {
            script: Some(script.clone()),
            timing: Timing::paper_scenario_iii(),
            init: InitState::Arbitrary,
            ..SimConfig::fault_free()
        };
        g.bench_with_input(
            BenchmarkId::new(format!("{regime}_batched"), "20x20"),
            &grid,
            |b, grid| {
                let mut scratch = SimScratch::new();
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    simulate_into(&mut scratch, grid.graph(), &sched, &cfg, seed).total_fires()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_single_pulse,
    bench_multi_pulse,
    bench_dispatch,
    bench_campaign
);
criterion_main!(benches);
