//! `hexd` service latency: cold compute vs warm cache hit, end to end
//! through a real daemon on a Unix socket.
//!
//! The workload is a representative Table-1 sweep (the paper's 50×20
//! grid, scenario (iii), `HEX_RUNS` runs per query). `cold_compute`
//! queries a fresh seed every iteration — each is a cache miss, so the
//! number is round-trip + batch reduction. `warm_cache_hit` replays one
//! pre-warmed spec — round-trip + disk verify only. The committed
//! `BENCH_serve.json` snapshot quotes both; their ratio is the value of
//! the memoized cache on repeat sweeps (ROADMAP "hexd" item).
//! `decode_spec` times the spec decode alone, which every query pays
//! before the cache is consulted.

use criterion::{criterion_group, criterion_main, Criterion};
use hex_bench::RunSpec;
use hex_serve::{serve, Client, QueryKind, ServeConfig};
use hex_sim::canon::decode_spec;
use hex_sim::{knobs, QueuePolicy};

fn sweep_spec(seed: u64) -> RunSpec {
    let runs = knobs::parsed("HEX_RUNS", "a run count").unwrap_or(16);
    RunSpec::grid(50, 20)
        .runs(runs)
        .seed(seed)
        .queue(QueuePolicy::Calendar)
}

fn bench_serve(c: &mut Criterion) {
    let base = std::env::temp_dir().join(format!("hex-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("bench scratch dir");
    let cfg = ServeConfig {
        addr: format!("unix:{}", base.join("hexd.sock").display()),
        cache_dir: base.join("cache"),
        cache_max_mb: 0,
        workers: 0,
        queue_depth: 64,
        max_cells: 1 << 20,
        max_runs: 1 << 16,
        timeout_ms: 0, // benches must never trip the socket budget
    };
    let handle = serve(cfg).expect("start hexd");
    let addr = handle.addr();

    let mut g = c.benchmark_group("serve");
    g.sample_size(10);

    // Every iteration queries a never-seen seed: always a miss, so the
    // measured latency is protocol round-trip + the full batch reduction.
    // The counter lives outside the bench closure because the harness
    // re-invokes it per sample; a closure-local counter would reset and
    // replay already-cached seeds.
    let next_seed = std::sync::atomic::AtomicU64::new(1);
    g.bench_function("cold_compute", |b| {
        let mut client = Client::connect(&addr).expect("connect");
        b.iter(|| {
            let seed = next_seed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let reply = client
                .query(QueryKind::Skew, 0, &sweep_spec(seed))
                .expect("cold query");
            assert!(!reply.cached, "cold query unexpectedly cached");
            reply.payload.len()
        })
    });

    // One pre-warmed spec replayed every iteration: round-trip + cache
    // load/verify, no simulation.
    g.bench_function("warm_cache_hit", |b| {
        let mut client = Client::connect(&addr).expect("connect");
        let spec = sweep_spec(u64::MAX);
        client.query(QueryKind::Skew, 0, &spec).expect("warm-up");
        b.iter(|| {
            let reply = client.query(QueryKind::Skew, 0, &spec).expect("warm query");
            assert!(reply.cached, "warm query missed the cache");
            reply.payload.len()
        })
    });

    // The daemon's per-query parse of the canonical spec bytes, hit or
    // miss alike.
    g.bench_function("decode_spec", |b| {
        let bytes = sweep_spec(1).canonical_bytes();
        b.iter(|| decode_spec(&bytes).expect("canonical bytes decode"))
    });

    g.finish();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
