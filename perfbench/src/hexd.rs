//! The `hexd_sweep` workload: two closed-loop clients against an
//! in-process daemon over a Unix socket.
//!
//! Each client walks a seeded stream over its own pool of small skew and
//! stabilize specs. A spec's first visit in a round is a miss (the daemon
//! computes and stores it); every later visit is a hit (cache load +
//! codec). Each round starts a fresh daemon on an empty cache, so every
//! round does the same work and the hit/miss pattern is fixed by the seed.

use std::path::{Path, PathBuf};

use hex_des::SimRng;
use hex_serve::cache::{Cache, Lookup};
use hex_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Query, QueryKind, Request,
    Response,
};
use hex_serve::{serve, Client, ServeConfig, ServerHandle, StatsSnapshot};
use hex_sim::canon::{decode_spec, encode_spec, engine_version, fnv1a_64, spec_hash};

use crate::batches::{check_one_thread, check_serial};
use crate::clock::{more_setups, ratio, traced_pass, Stopwatch, Tracer};
use crate::digests::{Digests, Pin};
use crate::jobs::{hexd_pool, serial, Job, Reduce, POOL};
use crate::report::{fastest, median, percentile, Outcome, Report};
use crate::Args;

/// Visits per pool spec in one round, so 39 of every 40 queries hit.
///
/// The repository holds no record of real `hexd` traffic, so the mix is
/// chosen to make both paths count: on a 2-core host a miss on these small
/// specs costs about as much as 35 hits (~1.8 ms against ~54 µs), so at
/// this ratio hits and misses each take about half of the summed query
/// time, and a change to either path moves `sweep_s` by up to about half
/// its own size. Every run reports the measured share (`server.hit_share`).
const VISITS: usize = 40;
/// Closed-loop clients (one connection each).
const CLIENTS: usize = 2;
/// Fewest timed rounds, however long one takes.
const MIN_ROUNDS: usize = 3;
/// Rounds whose every query latency is kept for the percentiles in the
/// notes. A fixed count keeps the benchmark's own sample storage, which
/// would otherwise grow with throughput, out of `peak_rss_mb`.
const SAMPLED_ROUNDS: usize = 40;
/// Repetitions of the serial canon/protocol/cache probes.
const PROBE_PASSES: usize = 20;

/// One answered (or failed) query of a round.
struct Answer {
    ms: f64,
    miss: bool,
    slot: usize,
    reply: Result<hex_serve::QueryReply, String>,
}

pub fn run(args: &Args, digests: &Digests) -> Outcome {
    let mut report = Report::default();
    let pools: Vec<Vec<Job>> = (0..CLIENTS).map(|c| hexd_pool(args.variant, c)).collect();
    let pins: Vec<Vec<Pin>> = pools
        .iter()
        .map(|pool| {
            pool.iter()
                .map(|job| {
                    digests.get(args.variant, &job.label).ok_or_else(|| {
                        format!("no committed digest for v{} {}", args.variant, job.label)
                    })
                })
                .collect()
        })
        .collect::<Result<_, _>>()?;
    let streams: Vec<Vec<usize>> = (0..CLIENTS).map(|c| stream(args.variant, c)).collect();
    let events: u64 = pins.iter().flatten().map(|p| p.popped).sum();
    let dirs = Dirs::new(&args.run_dir);

    // Set-up: daemon bind + Cache::open + first ping + one warm-up query
    // (a miss). The warm-up puts a computation into set-up, as the batch
    // workloads' warm-up batch does; bind and ping alone take ~0.1 ms,
    // which this host's scheduling noise swamps.
    let mut setups = Vec::new();
    let warm = &pools[0][0];
    let setup = Stopwatch::start();
    while more_setups(setups.len(), &setup) {
        let (addr, cache_dir) = dirs.next();
        let sw = Stopwatch::start();
        let handle = start(&addr, &cache_dir)?;
        let reply = Client::connect(&handle.addr()).and_then(|mut c| {
            c.ping()?;
            c.query(kind_of(warm), warm.h, &warm.spec)
        });
        setups.push(sw.s());
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&cache_dir);
        let reply = reply.map_err(|e| format!("hexd set-up: {e}"))?;
        report.check(fnv1a_64(&reply.payload) == pins[0][0].table, || {
            format!("warm-up {}: payload digest differs", warm.label)
        });
    }

    // Timed rounds.
    let (mut rounds, mut all, mut miss, mut hit) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut server = Vec::new();
    let mut payloads: Vec<Vec<Vec<u8>>> = vec![Vec::new(); CLIENTS];
    let window = Stopwatch::start();
    while rounds.len() < MIN_ROUNDS || window.s() < args.seconds {
        let (addr, cache_dir) = dirs.next();
        let handle = start(&addr, &cache_dir)?;
        let addr = handle.addr();
        let sw = Stopwatch::start();
        let answers: Vec<Vec<Answer>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (pool, stream, addr) = (&pools[c], &streams[c], &addr);
                    scope.spawn(move || client_loop(addr, pool, stream))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        rounds.push(sw.s());
        server.push(handle.shutdown());
        let _ = std::fs::remove_dir_all(&cache_dir);
        let sampled = rounds.len() <= SAMPLED_ROUNDS;
        for (c, answers) in answers.into_iter().enumerate() {
            let mut first: Vec<Option<Vec<u8>>> = vec![None; POOL];
            for a in answers {
                if sampled {
                    all.push(a.ms);
                    (if a.miss { &mut miss } else { &mut hit }).push(a.ms);
                }
                let label = &pools[c][a.slot].label;
                let reply = match a.reply {
                    Ok(reply) => reply,
                    Err(e) => {
                        report.check(false, || format!("{label}: {e}"));
                        continue;
                    }
                };
                report.check(fnv1a_64(&reply.payload) == pins[c][a.slot].table, || {
                    format!("{label}: payload digest differs")
                });
                report.check(reply.cached != a.miss, || {
                    format!(
                        "{label}: cached={} on a {}",
                        reply.cached,
                        if a.miss { "miss" } else { "hit" }
                    )
                });
                match &first[a.slot] {
                    None => first[a.slot] = Some(reply.payload),
                    Some(bytes) => report.check(*bytes == reply.payload, || {
                        format!("{label}: revisit bytes differ from the miss")
                    }),
                }
            }
            payloads[c] = first.into_iter().map(Option::unwrap_or_default).collect();
        }
    }
    let peak_rss_mb = crate::report::peak_rss_mb();

    check_one_thread(
        pools.iter().flatten().zip(pins.iter().flatten()),
        &mut report,
    );
    let sw = Stopwatch::start();
    serial_pass(&pools, &pins, &mut Tracer::new(false), &mut report);
    let untraced_s = sw.s();

    // The fastest round, as the batch workloads take each batch's fastest
    // time: interference on a shared host only ever adds time.
    let round_s = fastest(&rounds);
    let queries = (CLIENTS * POOL * VISITS) as f64;
    let hit_share = ratio(hit.iter().sum(), all.iter().sum());
    report.metric("sweep_s", round_s, "s");
    report.metric("events_per_s", events as f64 / round_s, "1/s");
    report.metric("queries_per_s", queries / round_s, "1/s");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.note(&format!(
        "samples: {} rounds of {queries} queries; {events} popped events per round; \
         the latencies below are over the first {} rounds ({} misses, {} hits)",
        rounds.len(),
        rounds.len().min(SAMPLED_ROUNDS),
        miss.len(),
        hit.len()
    ));
    report.note(&format!(
        "latency ms: query p50 {:.4}, p99 {:.4}; miss p50 {:.4}, p99 {:.4}; \
         hit p50 {:.4}, p99 {:.4}; hits take {hit_share:.2} of the summed query time",
        median(&all),
        percentile(&all, 0.99),
        percentile(&miss, 0.50),
        percentile(&miss, 0.99),
        percentile(&hit, 0.50),
        percentile(&hit, 0.99),
    ));

    if args.trace {
        let (mut tr, overhead_s) = traced_pass(untraced_s, |tr| {
            serial_pass(&pools, &pins, tr, &mut report);
        });
        crate::layers::batch_layers(&mut report, &tr);
        probes(&pools, &payloads, &dirs, &mut tr, &mut report)?;
        let per_round = |f: fn(&StatsSnapshot) -> u64| {
            server.iter().map(f).sum::<u64>() as f64 / server.len() as f64
        };
        report.layer("server.computations", per_round(|s| s.computations));
        report.layer("server.coalesced", per_round(|s| s.coalesced));
        report.layer("server.rejected", per_round(|s| s.rejected));
        report.layer("server.failures", per_round(|s| s.failures));
        report.layer("cache.hit_ratio", ratio(hit.len() as f64, all.len() as f64));
        let overhead = percentile(&hit, 0.5) * 1e3
            - tr.mean_us("cache.load")
            - tr.mean_us("canon.decode")
            - codec_us(&tr);
        report.layer("server.overhead_us", overhead);
        report.layer("server.hit_share", hit_share);
        report.layer("trace.overhead_s", overhead_s);
        report.layer("trace.spans", tr.spans.len() as f64);
        crate::report::write_spans(args, &tr);
    }
    Ok(report)
}

/// The seeded visit order of one client: indices into its pool, every
/// spec visited first in pool order and `VISITS` times on average.
pub fn stream(variant: u32, client: usize) -> Vec<usize> {
    let mut rng = SimRng::seed_from_u64(0x4E5D_0000 ^ (u64::from(variant) << 8) ^ client as u64);
    let len = POOL * VISITS;
    let mut out = Vec::with_capacity(len);
    let mut seen = 0;
    for step in 0..len {
        let fresh = seen < POOL && (seen == 0 || rng.index(len - step) < POOL - seen);
        if fresh {
            out.push(seen);
            seen += 1;
        } else {
            out.push(rng.index(seen));
        }
    }
    out
}

fn kind_of(job: &Job) -> QueryKind {
    match job.reduce {
        Reduce::Skew => QueryKind::Skew,
        _ => QueryKind::Stabilize,
    }
}

/// One client's closed loop: send the next query only after the previous
/// answer. A `busy` answer is not retried: it counts as a failure.
fn client_loop(addr: &str, pool: &[Job], stream: &[usize]) -> Vec<Answer> {
    let mut client = match Client::connect(addr) {
        Ok(c) => c.with_retries(0),
        Err(e) => {
            return stream
                .iter()
                .map(|&slot| Answer {
                    ms: 0.0,
                    miss: false,
                    slot,
                    reply: Err(format!("connect: {e}")),
                })
                .collect()
        }
    };
    let mut visited = vec![false; pool.len()];
    stream
        .iter()
        .map(|&slot| {
            let job = &pool[slot];
            let sw = Stopwatch::start();
            let reply = client
                .query(kind_of(job), job.h, &job.spec)
                .map_err(|e| e.to_string());
            let ms = sw.s() * 1e3;
            let miss = !std::mem::replace(&mut visited[slot], true);
            Answer {
                ms,
                miss,
                slot,
                reply,
            }
        })
        .collect()
}

/// Start a daemon with one compute worker: a decoded spec runs its batch
/// on every core, so one worker keeps workers × threads at the core count.
fn start(addr: &Path, cache_dir: &Path) -> Result<ServerHandle, String> {
    serve(ServeConfig {
        addr: format!("unix:{}", addr.display()),
        cache_dir: cache_dir.to_path_buf(),
        cache_max_mb: 0,
        workers: 1,
        queue_depth: 64,
        max_cells: 1 << 20,
        max_runs: 1 << 16,
        timeout_ms: 10_000,
    })
    .map_err(|e| format!("cannot start hexd at {}: {e}", addr.display()))
}

/// Per-process socket and cache paths under the run directory.
struct Dirs {
    base: PathBuf,
    next: std::cell::Cell<usize>,
}

impl Dirs {
    fn new(run_dir: &Path) -> Dirs {
        Dirs {
            base: run_dir.join(format!("hexd-{}", std::process::id())),
            next: std::cell::Cell::new(0),
        }
    }

    /// A fresh (socket, cache directory) pair.
    fn next(&self) -> (PathBuf, PathBuf) {
        let k = self.next.get();
        self.next.set(k + 1);
        let stem = self.base.display();
        (
            PathBuf::from(format!("{stem}-{k}.sock")),
            PathBuf::from(format!("{stem}-{k}.cache")),
        )
    }
}

fn serial_pass(pools: &[Vec<Job>], pins: &[Vec<Pin>], tr: &mut Tracer, report: &mut Report) {
    let threads = hex_sim::batch::default_threads();
    for (c, pool) in pools.iter().enumerate() {
        for (i, job) in pool.iter().enumerate() {
            let out = serial(job, tr, threads, (c * POOL + i) as u64);
            check_serial(job, &pins[c][i], &out, report);
        }
    }
}

/// Mean protocol cost of one query: request and response, each encoded
/// and decoded once.
fn codec_us(tr: &Tracer) -> f64 {
    [
        "protocol.encode_request",
        "protocol.decode_request",
        "protocol.encode_response",
        "protocol.decode_response",
    ]
    .iter()
    .map(|name| tr.mean_us(name))
    .sum()
}

/// Serial spans around the canon, protocol and cache calls a query makes,
/// on the workload's own specs and payloads.
fn probes(
    pools: &[Vec<Job>],
    payloads: &[Vec<Vec<u8>>],
    dirs: &Dirs,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (_, cache_dir) = dirs.next();
    let mut cache = Cache::open(&cache_dir, 0).map_err(|e| format!("probe cache: {e}"))?;
    let jobs: Vec<(&Job, &Vec<u8>)> = pools
        .iter()
        .zip(payloads)
        .flat_map(|(pool, bytes)| pool.iter().zip(bytes))
        .collect();
    let root = tr.begin("probe", None, u64::MAX);
    for pass in 0..PROBE_PASSES {
        for (q, (job, payload)) in jobs.iter().enumerate() {
            let run = (pass * jobs.len() + q) as u64;
            let s = tr.begin("canon.encode", Some(root), run);
            let bytes = encode_spec(&job.spec);
            tr.end(s);
            let s = tr.begin("canon.decode", Some(root), run);
            let decoded = decode_spec(&bytes);
            tr.end(s);
            let s = tr.begin("canon.hash", Some(root), run);
            std::hint::black_box(spec_hash(&job.spec));
            tr.end(s);
            report.check(
                decoded.map(|d| encode_spec(&d)) == Ok(bytes.clone()),
                || format!("{}: canonical bytes do not round-trip", job.label),
            );

            let query = Query {
                kind: kind_of(job),
                h: job.h,
                spec_bytes: bytes,
            };
            let hash = query.hash();
            let request = Request::Query(query);
            let s = tr.begin("protocol.encode_request", Some(root), run);
            let frame = encode_request(&request);
            tr.end(s);
            let s = tr.begin("protocol.decode_request", Some(root), run);
            let back = decode_request(&frame);
            tr.end(s);
            let response = Response::Ok {
                cached: true,
                engine: engine_version(),
                query_hash: hash,
                payload: payload.to_vec(),
            };
            let s = tr.begin("protocol.encode_response", Some(root), run);
            let frame = encode_response(&response);
            tr.end(s);
            let s = tr.begin("protocol.decode_response", Some(root), run);
            let answer = decode_response(&frame);
            tr.end(s);
            report.check(back == Ok(request) && answer == Ok(response), || {
                format!("{}: protocol frames do not round-trip", job.label)
            });

            if pass == 0 {
                let s = tr.begin("cache.store", Some(root), run);
                let stored = cache.store(hash, payload);
                tr.end(s);
                report.check(stored.is_ok(), || {
                    format!("{}: cache store failed", job.label)
                });
            }
            let s = tr.begin("cache.load", Some(root), run);
            let loaded = cache.load(hash);
            tr.end(s);
            report.check(loaded == Lookup::Hit(payload.to_vec()), || {
                format!("{}: cache load differs from the stored payload", job.label)
            });
        }
    }
    tr.end(root);
    drop(cache);
    let _ = std::fs::remove_dir_all(&cache_dir);
    for (metric, span) in [
        ("canon.encode_us", "canon.encode"),
        ("canon.decode_us", "canon.decode"),
        ("canon.hash_us", "canon.hash"),
        ("cache.load_us", "cache.load"),
        ("cache.store_us", "cache.store"),
    ] {
        report.layer(metric, tr.mean_us(span));
    }
    report.layer("protocol.codec_us", codec_us(tr));
    Ok(())
}
