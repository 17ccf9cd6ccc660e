//! Priority-queue comparison: the `std::collections::BinaryHeap`-backed
//! [`EventQueue`] (the calendar's test reference) versus the
//! bounded-horizon [`CalendarQueue`] the HEX engine runs on, on
//! simulation-shaped workloads.
//!
//! Three access patterns matter for a DES:
//!
//! * **bulk drain** — schedule everything, pop everything (single-pulse
//!   runs are close to this: most events exist before the wave passes);
//! * **hold model** — pop one, reschedule it a random delta ahead
//!   (steady-state multi-pulse simulation; the classic PQ benchmark);
//! * **engine-shaped hold** — the hold model with the *engine's* increment
//!   distribution instead of uniform noise: a 3:3:1 mix of `[d-, d+]`
//!   deliveries, `[T-, T+]` link timeouts and `[T-, T+]` sleeps (per fire
//!   a node broadcasts ~3 deliveries, each delivery arms one link timeout,
//!   and the node sleeps once — Table 3 scenario (iii) scales). Queue
//!   comparisons on this group measure the real workload shape; the run
//!   header reports the engine's stale-event share
//!   (`SimScratch::stale_events`), the fraction of that churn which is
//!   epoch-rejected on pop.
//!
//! The bulk-drain pattern is additionally measured against **reused**
//! queues (`clear` between iterations, the `SimScratch` batch idiom) to
//! expose the allocation share of the fresh-queue cost.
//!
//! `scripts/bench_snapshot.sh` records these rows in `BENCH_pq.json`. A
//! 4-ary heap lost to both queues on every row here and was deleted; the
//! README keeps its committed numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hex_core::{HexGrid, Timing, D_MINUS, D_PLUS};
use hex_des::{CalendarQueue, Duration, EventQueue, SimRng, Time};
use hex_sim::{simulate_into, InitState, RunSpec, SimScratch};
use std::hint::black_box;

fn delays(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            rng.duration_in(Duration::from_ps(1), Duration::from_ps(10_000))
                .ps()
        })
        .collect()
}

/// Increments with the engine's distribution: deliveries, link timeouts
/// and sleeps in a 3:3:1 mix at Table 3 scenario (iii) scales.
fn engine_shaped_increments(n: usize, seed: u64) -> Vec<i64> {
    let timing = Timing::paper_scenario_iii();
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|i| match i % 7 {
            0..=2 => rng.duration_in(D_MINUS, D_PLUS).ps(),
            3..=5 => rng.duration_in(timing.link.lo, timing.link.hi).ps(),
            _ => rng.duration_in(timing.sleep.lo, timing.sleep.hi).ps(),
        })
        .collect()
}

/// The engine's maximum scheduling increment under Table 3 (iii): the
/// calendar ring horizon the engine itself would pick.
fn engine_max_increment() -> Duration {
    Timing::paper_scenario_iii().sleep.hi
}

fn bulk_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("pq_bulk_drain");
    for &n in &[1_000usize, 10_000, 100_000] {
        let ts = delays(n, 1);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("binary_heap", n), &ts, |b, ts| {
            b.iter(|| {
                let mut q = EventQueue::with_capacity(ts.len());
                for (i, &t) in ts.iter().enumerate() {
                    q.push(Time::from_ps(t), i);
                }
                let mut acc = 0usize;
                while let Some(e) = q.pop() {
                    acc ^= e.payload;
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("calendar", n), &ts, |b, ts| {
            b.iter(|| {
                let mut q = CalendarQueue::for_profile(Duration::from_ps(10_000), ts.len());
                for (i, &t) in ts.iter().enumerate() {
                    q.push(Time::from_ps(t), i);
                }
                let mut acc = 0usize;
                while let Some(e) = q.pop() {
                    acc ^= e.payload;
                }
                black_box(acc)
            })
        });
        // One queue cleared between iterations: the scratch-reuse path of
        // the simulation engine (allocation amortized away).
        g.bench_with_input(BenchmarkId::new("binary_heap_reused", n), &ts, |b, ts| {
            let mut q = EventQueue::with_capacity(ts.len());
            b.iter(|| {
                q.clear();
                for (i, &t) in ts.iter().enumerate() {
                    q.push(Time::from_ps(t), i);
                }
                let mut acc = 0usize;
                while let Some(e) = q.pop() {
                    acc ^= e.payload;
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("calendar_reused", n), &ts, |b, ts| {
            let mut q = CalendarQueue::for_profile(Duration::from_ps(10_000), ts.len());
            b.iter(|| {
                q.clear();
                for (i, &t) in ts.iter().enumerate() {
                    q.push(Time::from_ps(t), i);
                }
                let mut acc = 0usize;
                while let Some(e) = q.pop() {
                    acc ^= e.payload;
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

/// The classic hold model on uniform increments in `[1, 10_000]` ps.
fn hold_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("pq_hold_model");
    const OPS: usize = 100_000;
    for &resident in &[64usize, 1_024, 16_384] {
        let ds = delays(OPS, 2);
        g.throughput(Throughput::Elements(OPS as u64));
        g.bench_with_input(BenchmarkId::new("binary_heap", resident), &ds, |b, ds| {
            b.iter(|| {
                let mut q = EventQueue::with_capacity(resident);
                for i in 0..resident {
                    q.push(Time::from_ps(i as i64), i);
                }
                for &d in ds {
                    let e = q.pop().expect("resident set never empties");
                    q.push(e.at + Duration::from_ps(d), e.payload);
                }
                black_box(q.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("calendar", resident), &ds, |b, ds| {
            b.iter(|| {
                let mut q = CalendarQueue::for_profile(Duration::from_ps(10_000), resident);
                for i in 0..resident {
                    q.push(Time::from_ps(i as i64), i);
                }
                for &d in ds {
                    let e = q.pop().expect("resident set never empties");
                    q.push(e.at + Duration::from_ps(d), e.payload);
                }
                black_box(q.len())
            })
        });
    }
    g.finish();
}

/// The hold model with the engine's increment distribution (see the
/// module docs): the workload the engine's queue actually experiences.
/// Both queues run the scratch idiom — one persistent queue, `clear`
/// between iterations — matching how `SimScratch` holds its queue.
fn hold_engine_shaped(c: &mut Criterion) {
    report_stale_share();
    let mut g = c.benchmark_group("pq_hold_engine");
    const OPS: usize = 100_000;
    for &resident in &[64usize, 1_024, 16_384] {
        let ds = engine_shaped_increments(OPS, 3);
        g.throughput(Throughput::Elements(OPS as u64));
        g.bench_with_input(BenchmarkId::new("binary_heap", resident), &ds, |b, ds| {
            let mut q = EventQueue::with_capacity(resident);
            b.iter(|| {
                q.clear();
                for i in 0..resident {
                    q.push(Time::from_ps(i as i64), i);
                }
                for &d in ds {
                    let e = q.pop().expect("resident set never empties");
                    q.push(e.at + Duration::from_ps(d), e.payload);
                }
                black_box(q.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("calendar", resident), &ds, |b, ds| {
            // Sized exactly how the engine sizes it: ring covers the
            // slowest timeout, bucket count tracks the resident set.
            let mut q = CalendarQueue::for_profile(engine_max_increment(), resident);
            b.iter(|| {
                q.clear();
                for i in 0..resident {
                    q.push(Time::from_ps(i as i64), i);
                }
                for &d in ds {
                    let e = q.pop().expect("resident set never empties");
                    q.push(e.at + Duration::from_ps(d), e.payload);
                }
                black_box(q.len())
            })
        });
    }
    g.finish();
}

/// Measure the stale-event share of a representative engine workload (the
/// stabilization regime: Table 3 timing, arbitrary init, a 6-pulse train)
/// so the hold-model mix above can be judged against reality: stale pops
/// are pure queue churn, so the higher this share, the more the queue
/// choice matters relative to the state machines.
fn report_stale_share() {
    let spec = RunSpec::grid(12, 8)
        .runs(1)
        .pulses(6)
        .init(InitState::Arbitrary);
    let grid = HexGrid::new(spec.length, spec.width);
    let mut scratch = SimScratch::new();
    let inputs = spec.materialize(0);
    simulate_into(
        &mut scratch,
        grid.graph(),
        &inputs.schedule,
        &inputs.config,
        inputs.seed,
    );
    let (popped, stale) = (scratch.popped_events(), scratch.stale_events());
    println!(
        "pq_hold_engine: engine stale-event share {stale}/{popped} pops \
         ({:.1}%) on 12x8, 6 pulses, arbitrary init",
        100.0 * stale as f64 / popped.max(1) as f64
    );
}

criterion_group!(benches, bulk_drain, hold_model, hold_engine_shaped);
criterion_main!(benches);
