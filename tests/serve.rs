//! The hexd service wall: canonical-encoding round-trips, spec-hash
//! stability, warm-cache byte identity across daemon restarts, and the
//! concurrency dedup guarantee.
//!
//! The service's contract (README "hexd service"): identical queries
//! yield identical, byte-stable result bytes — computed, replayed from
//! the on-disk cache, or coalesced onto another request's in-flight
//! computation — and a query's identity is the canonical encoding of its
//! spec, so that identity must survive encode/decode round-trips and
//! process restarts. Each test here pins one face of that contract.

use std::sync::atomic::{AtomicU64, Ordering};

use hexclock::prelude::*;
use hexclock::serve::{serve, Client, QueryKind, ServeConfig};
use hexclock::sim::canon::{decode_spec, encode_spec, spec_hash};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Canonical encoding: randomized round-trips and hash stability.

/// Build a `RunSpec` from sampled coordinates covering every enum
/// variant of every canonical field.
#[allow(clippy::too_many_arguments)]
fn spec_from(
    length: u32,
    width: u32,
    runs: usize,
    seed: u64,
    scenario_ix: usize,
    fault_ix: usize,
    init_ix: usize,
    pulses: usize,
    timing_ix: usize,
    delay_ix: usize,
) -> RunSpec {
    let faults = match fault_ix % 7 {
        0 => FaultRegime::None,
        1 => FaultRegime::Byzantine(1 + fault_ix % 3),
        2 => FaultRegime::FailSilent(1 + fault_ix % 2),
        3 => FaultRegime::FixedByzantine((fault_ix % 4) as u32, (fault_ix % 5) as u32),
        4 => FaultRegime::Mixed {
            byzantine: fault_ix % 3,
            fail_silent: 1 + fault_ix % 2,
        },
        5 => FaultRegime::Script(
            FaultScript::none()
                .with(
                    Time::from_ps(10_000 + fault_ix as i64),
                    FaultEvent::Fail((fault_ix % 7) as u32, NodeFault::Byzantine),
                )
                .with(
                    Time::from_ps(40_000 + fault_ix as i64),
                    FaultEvent::Heal(
                        (fault_ix % 7) as u32,
                        if fault_ix % 2 == 0 {
                            RejoinState::Clean
                        } else {
                            RejoinState::Arbitrary
                        },
                    ),
                )
                .with(
                    Time::from_ps(40_000 + fault_ix as i64),
                    FaultEvent::LinkDown((fault_ix % 11) as u32, LinkBehavior::StuckOne),
                )
                .with(
                    Time::from_ps(60_000),
                    FaultEvent::LinkUp((fault_ix % 11) as u32),
                ),
        ),
        _ => FaultRegime::Plan(
            FaultPlan::none()
                .with_node((fault_ix % 7) as u32, NodeFault::Byzantine)
                .with_link(
                    (fault_ix % 11) as u32,
                    hexclock::core::LinkBehavior::StuckZero,
                ),
        ),
    };
    let init = [
        InitState::Clean,
        InitState::Arbitrary,
        InitState::AllFlagsSet,
        InitState::AllAsleep,
    ][init_ix % 4];
    let timing = match timing_ix % 3 {
        0 => TimingPolicy::Table3,
        1 => TimingPolicy::Generous,
        _ => TimingPolicy::Fixed(Timing::paper_scenario_iii()),
    };
    let delays = match delay_ix % 5 {
        0 => DelayModel::paper(),
        1 => DelayModel::UniformPerLink(DelayRange::paper()),
        2 => DelayModel::Fixed(Duration::from_ps(7000 + delay_ix as i64)),
        3 => DelayModel::PerLinkFixed(vec![
            Duration::from_ps(7161),
            Duration::from_ps(8197),
            Duration::from_ps(7500 + delay_ix as i64),
        ]),
        _ => DelayModel::Spatial(hexclock::core::SpatialVariation {
            range: DelayRange::paper(),
            layer_gradient: 0.125 * delay_ix as f64,
            column_wave: -0.0625,
            jitter: 0.1 + 0.2,
        }),
    };
    RunSpec::grid(length, width)
        .runs(runs)
        .seed(seed)
        .scenario(Scenario::ALL[scenario_ix % 4])
        .faults(faults)
        .init(init)
        .pulses(pulses)
        .timing(timing)
        .delays(delays)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Encode → decode → re-encode is the identity on canonical bytes,
    /// and the content hash follows the bytes.
    #[test]
    fn canonical_encoding_round_trips(
        (length, width, runs, seed) in (2u32..40, 3u32..16, 1usize..8, any::<u64>()),
        (scenario_ix, fault_ix, init_ix) in (0usize..4, 0usize..12, 0usize..4),
        (pulses, timing_ix, delay_ix) in (1usize..4, 0usize..3, 0usize..10),
    ) {
        let spec = spec_from(
            length, width, runs, seed, scenario_ix, fault_ix, init_ix, pulses,
            timing_ix, delay_ix,
        );
        let bytes = encode_spec(&spec);
        let back = decode_spec(&bytes).expect("canonical bytes decode");
        prop_assert_eq!(encode_spec(&back), bytes, "re-encode diverged");
        prop_assert_eq!(spec_hash(&back), spec_hash(&spec));
        // The hash tracks content: any seed perturbation moves it.
        let perturbed = spec.clone().seed(seed.wrapping_add(1));
        prop_assert_ne!(spec_hash(&perturbed), spec_hash(&spec));
    }
}

/// The spec hash is a wire/cache contract: it must be identical across
/// processes, platforms, and sessions for a given engine version. A
/// golden value pins it — if this test fails, the canonical encoding
/// changed, and `CANON_VERSION` MUST be bumped (which retires on-disk
/// caches) rather than silently re-keying them.
#[test]
fn spec_hash_is_stable_across_processes() {
    let spec = RunSpec::grid(8, 6).runs(4).seed(7).scenario(Scenario::Zero);
    assert_eq!(
        spec_hash(&spec),
        0x01a7_35c5_e688_0e18,
        "canonical encoding changed — bump hex_sim::canon::CANON_VERSION \
         and update this golden value"
    );
}

// ---------------------------------------------------------------------------
// The daemon: cold/warm byte identity, restart persistence, dedup.

static NEXT_TEST_ID: AtomicU64 = AtomicU64::new(0);

/// A fresh socket path + cache dir per test, no wall-clock or RNG reads.
fn test_config(tag: &str) -> ServeConfig {
    let id = NEXT_TEST_ID.fetch_add(1, Ordering::Relaxed);
    let base = std::env::temp_dir().join(format!("hex-serve-{}-{id}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    ServeConfig {
        addr: format!("unix:{}", base.join("hexd.sock").display()),
        cache_dir: base.join("cache"),
        cache_max_mb: 0,
        workers: 2,
        queue_depth: 16,
        max_cells: 1 << 20,
        max_runs: 1 << 16,
        // No socket budget by default: only the stalled-client test opts
        // in, so slow CI machines can't flake the rest of the wall.
        timeout_ms: 0,
    }
}

fn cleanup(cfg: &ServeConfig) {
    if let Some(base) = cfg.cache_dir.parent() {
        let _ = std::fs::remove_dir_all(base);
    }
}

fn small_spec() -> RunSpec {
    RunSpec::grid(8, 6)
        .runs(4)
        .seed(11)
        .scenario(Scenario::RandomDPlus)
}

/// Cold compute, daemon restart on the same cache dir, warm replay:
/// byte-identical payloads, same query hash, zero recomputation.
#[test]
fn warm_cache_replays_cold_bytes_across_restart() {
    let cfg = test_config("restart");
    let spec = small_spec();

    let handle = serve(cfg.clone()).expect("start hexd");
    let mut client = Client::connect(&handle.addr()).expect("connect");
    let cold = client.query(QueryKind::Skew, 0, &spec).expect("cold query");
    assert!(!cold.cached, "first query must compute");
    assert!(!cold.payload.is_empty());
    drop(client);
    let stats = handle.shutdown();
    assert_eq!(stats.computations, 1);
    assert_eq!(stats.cache_entries, 1);

    // A new daemon process-equivalent: fresh state, same cache dir.
    let handle = serve(cfg.clone()).expect("restart hexd");
    let mut client = Client::connect(&handle.addr()).expect("reconnect");
    let warm = client.query(QueryKind::Skew, 0, &spec).expect("warm query");
    assert!(warm.cached, "restarted daemon must replay from disk");
    assert_eq!(warm.payload, cold.payload, "warm bytes != cold bytes");
    assert_eq!(warm.query_hash, cold.query_hash);
    assert_eq!(warm.engine, cold.engine);
    drop(client);
    let stats = handle.shutdown();
    assert_eq!(stats.computations, 0, "warm replay recomputed");
    assert_eq!(stats.cache_hits, 1);
    cleanup(&cfg);
}

/// N identical concurrent queries: exactly one computation (the dedup
/// counter), exactly one `cached=0` reply, and byte-identical payloads
/// for every waiter — coalesced or disk-replayed alike.
#[test]
fn concurrent_identical_queries_dedupe_to_one_computation() {
    let cfg = test_config("dedupe");
    // Large enough that the computation outlives client connect latency
    // on any machine — coalescing is then the common path; the counter
    // assertion holds even if some clients land after completion.
    let spec = RunSpec::grid(16, 8).runs(24).seed(3);
    let handle = serve(cfg.clone()).expect("start hexd");
    let addr = handle.addr();

    let replies: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                let spec = spec.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    client.query(QueryKind::Skew, 0, &spec).expect("query")
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let first = &replies[0];
    for r in &replies {
        assert_eq!(r.payload, first.payload, "divergent payload bytes");
        assert_eq!(r.query_hash, first.query_hash);
    }
    let fresh = replies.iter().filter(|r| !r.cached).count();
    assert_eq!(fresh, 1, "exactly one reply may be the computing one");

    let stats = handle.shutdown();
    assert_eq!(stats.computations, 1, "identical queries double-computed");
    assert_eq!(
        stats.cache_hits + stats.coalesced,
        replies.len() as u64 - 1,
        "every other reply replayed (coalesced or disk)"
    );
    cleanup(&cfg);
}

/// Stabilization queries flow end to end, and a repeat within one daemon
/// lifetime is a disk hit with identical bytes.
#[test]
fn stabilize_queries_cache_within_one_daemon() {
    let cfg = test_config("stabilize");
    let spec = RunSpec::grid(6, 6)
        .runs(3)
        .seed(5)
        .pulses(3)
        .init(InitState::Arbitrary);
    let handle = serve(cfg.clone()).expect("start hexd");
    let mut client = Client::connect(&handle.addr()).expect("connect");
    let cold = client.query(QueryKind::Stabilize, 0, &spec).expect("cold");
    let warm = client.query(QueryKind::Stabilize, 0, &spec).expect("warm");
    assert!(!cold.cached);
    assert!(warm.cached);
    assert_eq!(warm.payload, cold.payload);
    let text = String::from_utf8(cold.payload).unwrap();
    assert!(
        text.contains("stabilization_summary"),
        "unexpected payload {text}"
    );
    drop(client);
    let stats = handle.shutdown();
    assert_eq!(stats.computations, 1);
    assert_eq!(stats.cache_hits, 1);
    cleanup(&cfg);
}

/// The admission layer rejects what would panic or overload: malformed
/// spec bytes, over-limit grids, multi-pulse skew queries. The daemon
/// answers each with a structured error and keeps serving.
#[test]
fn bad_queries_get_errors_and_the_daemon_survives() {
    let cfg = test_config("badquery");
    let handle = serve(cfg.clone()).expect("start hexd");
    let mut client = Client::connect(&handle.addr()).expect("connect");

    let garbage = client.query_raw(QueryKind::Skew, 0, b"not a spec".to_vec());
    assert!(garbage.unwrap_err().to_string().contains("bad_request"));

    let multi_pulse = client.query(QueryKind::Skew, 0, &small_spec().pulses(3));
    let msg = multi_pulse.unwrap_err().to_string();
    assert!(
        msg.contains("bad_request") && msg.contains("pulses"),
        "{msg}"
    );

    let oversize = client.query(QueryKind::Skew, 0, &RunSpec::grid(4096, 1024).runs(1));
    assert!(oversize.unwrap_err().to_string().contains("bad_request"));

    // A grid HexGrid::new refuses to build must not reach a worker.
    let narrow = client.query(QueryKind::Skew, 0, &RunSpec::grid(8, 2).runs(1));
    let msg = narrow.unwrap_err().to_string();
    assert!(
        msg.contains("bad_request") && msg.contains("width"),
        "{msg}"
    );

    // Counts a decoder or a run would allocate for before the first event:
    // a huge schedule source count, and a huge pulse train.
    let text = String::from_utf8(encode_spec(&small_spec())).unwrap();
    let hostile_schedule = text.replace("schedule none", "schedule 1000000000000");
    let reply = client.query_raw(QueryKind::Skew, 0, hostile_schedule.into_bytes());
    assert!(reply.unwrap_err().to_string().contains("bad_request"));

    // One spec, one accepted spelling: a padded number would otherwise
    // get a cache entry of its own, and a queue other than the one the
    // engine has is not a spec at all.
    for (canonical, other) in [
        ("runs 4", "runs 04"),
        ("queue calendar", "queue binary_heap"),
    ] {
        let respelled = text.replace(canonical, other);
        assert_ne!(respelled, text);
        let reply = client.query_raw(QueryKind::Skew, 0, respelled.into_bytes());
        let msg = reply.unwrap_err().to_string();
        assert!(msg.contains("bad_request"), "{other:?}: {msg}");
    }
    let huge_train = client.query(
        QueryKind::Stabilize,
        0,
        &small_spec().pulses(1_000_000_000_000),
    );
    let msg = huge_train.unwrap_err().to_string();
    assert!(
        msg.contains("bad_request") && msg.contains("pulses"),
        "{msg}"
    );

    // Same connection still serves good queries afterwards.
    client.ping().expect("ping after errors");
    let ok = client
        .query(QueryKind::Skew, 0, &small_spec())
        .expect("good query");
    assert!(!ok.payload.is_empty());

    let stats_json = String::from_utf8(client.stats_json().expect("stats")).unwrap();
    assert!(stats_json.contains("\"computations\":1"), "{stats_json}");

    drop(client);
    let stats = handle.shutdown();
    assert_eq!(stats.computations, 1);
    assert_eq!(
        stats.failures, 0,
        "bad queries must be rejected, not computed"
    );
    cleanup(&cfg);
}

/// A query that passes admission but panics in the worker (more Byzantine
/// nodes than the 8×6 grid's 48 forwarders, so the fault placement
/// panics) answers `compute_failed`, is never cached, and leaves the
/// daemon serving.
#[test]
fn panicking_computations_answer_compute_failed() {
    let cfg = test_config("panic");
    let handle = serve(cfg.clone()).expect("start hexd");
    let mut client = Client::connect(&handle.addr()).expect("connect");

    let poisoned = small_spec().faults(FaultRegime::Byzantine(100));
    for attempt in ["first", "repeat"] {
        let reply = client.query(QueryKind::Skew, 0, &poisoned);
        let msg = reply.unwrap_err().to_string();
        assert!(msg.contains("compute_failed"), "{attempt}: {msg}");
    }

    client.ping().expect("ping after a panic");
    let ok = client
        .query(QueryKind::Skew, 0, &small_spec())
        .expect("good query");
    assert!(!ok.cached && !ok.payload.is_empty());

    drop(client);
    let stats = handle.shutdown();
    assert_eq!(stats.computations, 3, "the repeat must recompute");
    assert_eq!(stats.failures, 2);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_entries, 1, "failures must not be cached");
    cleanup(&cfg);
}

/// Crash recovery: a daemon that died between `fs::write` and
/// `fs::rename` leaves an orphaned `.tmp` sibling, and a torn entry can
/// be left by a truncated write. A cold start over that directory must
/// sweep the orphans, recompute the torn entry, and serve byte-identical
/// results — never serve torn bytes, never leak the tmp files.
#[test]
fn cold_start_recovers_from_orphaned_tmp_and_torn_entries() {
    let cfg = test_config("crash");
    let spec = small_spec();

    // A healthy first life: compute and cache one result.
    let handle = serve(cfg.clone()).expect("start hexd");
    let mut client = Client::connect(&handle.addr()).expect("connect");
    let cold = client.query(QueryKind::Skew, 0, &spec).expect("cold query");
    assert!(!cold.cached);
    drop(client);
    handle.shutdown();

    // Simulate the crash aftermath. Orphaned in-flight writes in both
    // shapes (fixed legacy name, process-qualified name) ...
    std::fs::write(cfg.cache_dir.join("00000000deadbeef.tmp"), b"orphan").unwrap();
    std::fs::write(
        cfg.cache_dir
            .join(format!("{:016x}.9999.3.tmp", cold.query_hash)),
        b"in-flight",
    )
    .unwrap();
    // ... and the cached entry torn mid-payload.
    let entry = cfg
        .cache_dir
        .join(format!("{:016x}.hexres", cold.query_hash));
    let full = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &full[..full.len() - full.len() / 3]).unwrap();

    // Second life over the damaged directory.
    let handle = serve(cfg.clone()).expect("restart hexd");
    let mut client = Client::connect(&handle.addr()).expect("reconnect");
    let recovered = client.query(QueryKind::Skew, 0, &spec).expect("recovery");
    assert!(
        !recovered.cached,
        "torn entry must be recomputed, not replayed"
    );
    assert_eq!(
        recovered.payload, cold.payload,
        "recomputed bytes diverged from the original computation"
    );
    let warm = client.query(QueryKind::Skew, 0, &spec).expect("warm query");
    assert!(warm.cached, "recomputed entry must be cached again");
    assert_eq!(warm.payload, cold.payload);
    drop(client);
    let stats = handle.shutdown();
    assert_eq!(stats.computations, 1);
    assert_eq!(stats.cache_hits, 1);

    // The sweep removed every tmp orphan; only the fresh entry remains.
    let leftovers: Vec<_> = std::fs::read_dir(&cfg.cache_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| !p.extension().is_some_and(|x| x == "hexres"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "orphans survived the sweep: {leftovers:?}"
    );
    cleanup(&cfg);
}

/// A client that connects and then goes silent must not pin its
/// connection thread forever: other clients are served meanwhile, and
/// once the HEX_SERVE_TIMEOUT_MS budget expires the stalled connection
/// is dropped cleanly and shows up in the `timeouts` /
/// `dropped_connections` counters.
#[test]
fn stalled_clients_time_out_without_blocking_service() {
    let mut cfg = test_config("stall");
    cfg.timeout_ms = 150;
    let handle = serve(cfg.clone()).expect("start hexd");
    let addr = handle.addr();

    // Connects, never sends a frame.
    let stalled = Client::connect(&addr).expect("connect stalled");

    // A second client is answered while the first holds its silent
    // connection open.
    let mut live = Client::connect(&addr).expect("connect live");
    live.ping().expect("ping with a stalled peer");
    let reply = live
        .query(QueryKind::Skew, 0, &small_spec())
        .expect("query with a stalled peer");
    assert!(!reply.payload.is_empty());

    // The stalled connection is reaped once its budget expires.
    // hexlint: allow(wall-clock, reason = "socket timeouts are wall-clock by nature; this bounds the poll")
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let s = handle.stats();
        if s.timeouts >= 1 && s.dropped_connections >= 1 {
            break;
        }
        assert!(
            // hexlint: allow(wall-clock, reason = "poll-loop deadline check for the socket-timeout feature")
            std::time::Instant::now() < deadline,
            "stalled connection never timed out: {s:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    drop(stalled);
    drop(live);
    let stats = handle.shutdown();
    assert!(stats.timeouts >= 1);
    assert!(stats.dropped_connections >= stats.timeouts);
    let json = stats.to_json();
    assert!(
        json.contains("\"timeouts\":") && json.contains("\"dropped_connections\":"),
        "{json}"
    );
    cleanup(&cfg);
}

/// Bumping the canon epoch retires every cached result: an entry a
/// `hexcanon/1`-era daemon stored for this spec sits under the old
/// engine tag's hash, so the same query under `hexcanon/2` misses it and
/// cold-recomputes instead of replaying stale bytes.
#[test]
fn canon_epoch_bump_retires_stale_cache_entries() {
    use hexclock::sim::canon::{engine_version, fnv1a_64};

    let spec = small_spec();
    let bytes = hexclock::sim::canon::encode_spec(&spec);
    let new_tag = engine_version();
    assert!(new_tag.contains("canon2"), "engine tag: {new_tag}");
    let old_tag = new_tag.replace("canon2", "canon1");
    // Replicates `Query::hash` (engine tag, kind, h, spec bytes — NUL
    // separated); the `query_hash` assertion below keeps it honest.
    let hash_with = |tag: &str| {
        let mut keyed = Vec::new();
        keyed.extend_from_slice(tag.as_bytes());
        keyed.push(0);
        keyed.extend_from_slice(b"skew");
        keyed.push(0);
        keyed.extend_from_slice(b"0");
        keyed.push(0);
        keyed.extend_from_slice(&bytes);
        fnv1a_64(&keyed)
    };
    let old_hash = hash_with(&old_tag);
    let new_hash = hash_with(&new_tag);
    assert_ne!(old_hash, new_hash, "epoch bump did not re-key the cache");

    let cfg = test_config("epoch");
    // Plant a poisoned entry exactly where the canon1-era daemon would
    // have stored this query's result.
    std::fs::create_dir_all(&cfg.cache_dir).unwrap();
    std::fs::write(
        cfg.cache_dir.join(format!("{old_hash:016x}.hexres")),
        b"stale canon1-era bytes",
    )
    .unwrap();

    let handle = serve(cfg.clone()).expect("start hexd");
    let mut client = Client::connect(&handle.addr()).expect("connect");
    let reply = client.query(QueryKind::Skew, 0, &spec).expect("query");
    assert!(!reply.cached, "stale-epoch entry must cold-recompute");
    assert_eq!(reply.query_hash, new_hash, "hash replication drifted");
    drop(client);
    let stats = handle.shutdown();
    assert_eq!(stats.computations, 1);
    assert_eq!(stats.cache_hits, 0, "the canon1 entry must never hit");
    cleanup(&cfg);
}

/// Busy backpressure is transient, not fatal: with one worker and a
/// one-slot admission queue, a third concurrent query is answered
/// `busy`. A zero-retry client must surface that as `WouldBlock` (hexctl
/// exit 3); a retrying client must wait the queue out and succeed.
#[test]
fn busy_answers_are_retried_until_the_queue_drains() {
    let mut cfg = test_config("busy");
    cfg.workers = 1;
    cfg.queue_depth = 1;
    // Slow enough (hundreds of ms even in release builds) to hold the
    // single worker while the rest of the test runs; distinct seeds keep
    // the queries from coalescing.
    let slow = RunSpec::grid(96, 48).runs(128).seed(900);
    let queued = small_spec().seed(901);
    let crowded = small_spec().seed(902);

    let handle = serve(cfg.clone()).expect("start hexd");
    let addr = handle.addr();
    let stats = std::thread::scope(|scope| {
        // Occupies the worker.
        let a = scope.spawn(|| {
            let mut c = Client::connect(&addr).expect("connect A");
            c.query(QueryKind::Skew, 0, &slow).expect("slow query")
        });
        std::thread::sleep(std::time::Duration::from_millis(60));
        // Occupies the one queue slot (retries cover the window where
        // the slow query is still queued rather than being computed).
        let b = scope.spawn(|| {
            let mut c = Client::connect(&addr).expect("connect B").with_retries(12);
            c.query(QueryKind::Skew, 0, &queued).expect("queued query")
        });
        std::thread::sleep(std::time::Duration::from_millis(60));

        // Fail-fast client: the full queue must come back as WouldBlock.
        let mut c = Client::connect(&addr).expect("connect C").with_retries(0);
        let refused = c
            .query(QueryKind::Skew, 0, &crowded)
            .expect_err("queue full, zero retries: the query must be refused");
        assert_eq!(
            refused.kind(),
            std::io::ErrorKind::WouldBlock,
            "busy exhaustion must map to WouldBlock, got: {refused}"
        );

        // The same query with a retry budget waits the backlog out.
        let mut c = Client::connect(&addr)
            .expect("reconnect C")
            .with_retries(12);
        let served = c
            .query(QueryKind::Skew, 0, &crowded)
            .expect("retrying client must eventually be served");
        assert!(!served.payload.is_empty());

        a.join().unwrap();
        b.join().unwrap();
        handle.shutdown()
    });
    assert_eq!(stats.computations, 3, "all three distinct queries computed");
    assert!(
        stats.rejected >= 1,
        "the crowded query must have been turned away at least once"
    );
    cleanup(&cfg);
}
