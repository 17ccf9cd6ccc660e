//! The daemon: accept loop, sharded compute workers, admission control,
//! in-flight request coalescing, and the memoized cache glued together.
//!
//! ## Request life cycle
//!
//! A query's spec bytes are decoded and validated once, on admission; a
//! queued job hands the decoded spec to its worker. The query's hash is
//! then checked against, in order: the on-disk cache (hit → replay,
//! `cached=1`), the in-flight map (another connection is already
//! computing the same hash → wait on its [`Flight`] and replay the same
//! bytes, `cached=1`), and finally the bounded admission queue (full →
//! `busy` backpressure; otherwise a new flight is registered and exactly
//! one worker computes it, `cached=0` for the submitting connection).
//! The cache store and the in-flight removal happen under one lock, and
//! admission re-checks the cache under that same lock, so a hash is never
//! computed twice — the dedup invariant the serve tests pin via
//! [`StatsSnapshot::computations`].
//!
//! ## Determinism posture
//!
//! Workers run reductions through the existing deterministic batch
//! machinery, so the daemon adds no nondeterminism to *results*; it also
//! never reads the host clock (eviction is generation-based, see
//! [`crate::cache`]) and reads configuration only through
//! [`hex_sim::knobs`]. Compute panics (e.g. an infeasible fault
//! placement) are caught per job and turned into `compute_failed`
//! responses — a poisoned query cannot take the daemon down.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use hex_analysis::reduce::{batch_skews, skew_summary_table, ObservedStabilizationReducer};
use hex_analysis::stabilization::{stabilization_summary_table, summarize, Criterion};
use hex_core::D_PLUS;
use hex_sim::batch::default_threads;
use hex_sim::canon::{decode_spec, engine_version};
use hex_sim::{knobs, RunSpec};

use crate::cache::{Cache, Lookup};
use crate::net::{connect, Addr, Listener, Stream};
use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, ErrorCode, Query, QueryKind, Request,
    Response,
};

/// Everything the daemon needs to start, with knob-backed defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address ([`Addr::parse`] grammar).
    pub addr: String,
    /// Result-cache directory.
    pub cache_dir: PathBuf,
    /// Cache size ceiling in MiB (0 = unbounded).
    pub cache_max_mb: u64,
    /// Compute workers (0 = available parallelism).
    pub workers: usize,
    /// Admission-queue depth; requests beyond it get `busy`.
    pub queue_depth: usize,
    /// Largest grid (length × width) a query may ask for, and also the
    /// largest `cells × pulses` product: per-run setup allocates in
    /// proportion to the pulse count.
    pub max_cells: u64,
    /// Largest run count a query may ask for.
    pub max_runs: usize,
    /// Per-connection socket read/write timeout in milliseconds
    /// (0 = never time out). A connection that stays silent this long —
    /// mid-frame or idle between requests — is dropped cleanly, so a
    /// stalled client can never pin its connection thread forever.
    pub timeout_ms: u64,
}

impl ServeConfig {
    /// Defaults, overlaid with the `HEX_SERVE_*`/`HEX_CACHE_*` knobs
    /// (all reads go through [`hex_sim::knobs`] — the `env-knob` lint
    /// holds for this crate with no suppressions).
    ///
    /// Engine execution knobs are inherited from the daemon's own
    /// environment rather than from clients: decoding a query spec goes
    /// through `RunSpec::grid`, so `HEX_QUEUE`/`HEX_BATCH` apply as they
    /// would to any local run. Both are excluded from the canonical
    /// cache key — outputs are pinned identical across them.
    pub fn from_knobs() -> ServeConfig {
        ServeConfig {
            addr: knobs::raw("HEX_SERVE_ADDR").unwrap_or_else(|| "hexd.sock".to_string()),
            cache_dir: knobs::raw("HEX_CACHE_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("hexd-cache")),
            cache_max_mb: knobs::parsed("HEX_CACHE_MAX_MB", "a number of MiB").unwrap_or(0),
            workers: knobs::parsed("HEX_SERVE_WORKERS", "a worker count").unwrap_or(0),
            queue_depth: 64,
            max_cells: 1 << 20,
            max_runs: 1 << 16,
            timeout_ms: knobs::parsed("HEX_SERVE_TIMEOUT_MS", "a number of milliseconds")
                .unwrap_or(10_000),
        }
    }

    /// The socket timeout as a [`std::time::Duration`] (`None` = block
    /// forever).
    fn timeout(&self) -> Option<std::time::Duration> {
        (self.timeout_ms > 0).then(|| std::time::Duration::from_millis(self.timeout_ms))
    }
}

/// Monotonic daemon counters (all relaxed — they count, they don't
/// synchronize).
#[derive(Debug, Default)]
struct Counters {
    computations: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    failures: AtomicU64,
    timeouts: AtomicU64,
    dropped_connections: AtomicU64,
}

/// A point-in-time copy of the daemon's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Reductions actually executed (the dedup test's witness).
    pub computations: u64,
    /// Queries answered from the on-disk cache.
    pub cache_hits: u64,
    /// Queries that waited on another request's in-flight computation.
    pub coalesced: u64,
    /// Queries bounced with `busy` by the admission queue.
    pub rejected: u64,
    /// Computations that failed or panicked.
    pub failures: u64,
    /// Socket reads/writes that exhausted the HEX_SERVE_TIMEOUT_MS
    /// budget (each also drops its connection).
    pub timeouts: u64,
    /// Connections dropped on a transport error (timeouts included)
    /// rather than a clean end-of-stream.
    pub dropped_connections: u64,
    /// Cache entries on disk at snapshot time.
    pub cache_entries: u64,
}

impl StatsSnapshot {
    /// Deterministic JSON rendering (fixed key order) — the `stats`
    /// response body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"computations\":{},\"cache_hits\":{},\"coalesced\":{},\"rejected\":{},\
             \"failures\":{},\"timeouts\":{},\"dropped_connections\":{},\"cache_entries\":{}}}",
            self.computations,
            self.cache_hits,
            self.coalesced,
            self.rejected,
            self.failures,
            self.timeouts,
            self.dropped_connections,
            self.cache_entries
        )
    }
}

/// The single-assignment result slot a computation publishes into; every
/// coalesced waiter blocks on it and receives the same bytes.
#[derive(Debug, Default)]
struct Flight {
    slot: Mutex<Option<Result<Vec<u8>, String>>>,
    ready: Condvar,
}

impl Flight {
    fn publish(&self, result: Result<Vec<u8>, String>) {
        let mut slot = self.slot.lock().unwrap();
        debug_assert!(slot.is_none(), "flight published twice");
        *slot = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Vec<u8>, String> {
        let mut slot = self.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.ready.wait(slot).unwrap();
        }
        slot.clone().unwrap()
    }
}

/// A queued computation: the query as admission decoded it, so the
/// worker never parses the spec bytes a second time.
struct Job {
    hash: u64,
    kind: QueryKind,
    h: usize,
    spec: RunSpec,
    flight: Arc<Flight>,
}

struct Shared {
    cfg: ServeConfig,
    addr: Addr,
    /// Guards the cache AND the in-flight map as one atom: admission
    /// re-checks the cache and registers its flight under this lock,
    /// workers store-and-deregister under it — the gap in which a result
    /// is neither in flight nor on disk is unobservable, so identical
    /// concurrent queries can never double-compute.
    memo: Mutex<Memo>,
    queue: Mutex<VecDeque<Job>>,
    queue_ready: Condvar,
    stop: AtomicBool,
    counters: Counters,
}

struct Memo {
    cache: Cache,
    inflight: BTreeMap<u64, Arc<Flight>>,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        let entries = self.memo.lock().unwrap().cache.entry_count() as u64;
        StatsSnapshot {
            computations: self.counters.computations.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            failures: self.counters.failures.load(Ordering::Relaxed),
            timeouts: self.counters.timeouts.load(Ordering::Relaxed),
            dropped_connections: self.counters.dropped_connections.load(Ordering::Relaxed),
            cache_entries: entries,
        }
    }

    fn trigger_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue_ready.notify_all();
        // Unblock the accept loop; the no-op connection is answered (or
        // refused) and discarded.
        let _ = connect(&self.addr);
    }
}

/// A running daemon: its resolved address, its counters, and the handles
/// to stop it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (TCP port 0 resolved) in [`Addr`] grammar.
    pub fn addr(&self) -> String {
        self.shared.addr.display()
    }

    /// Snapshot the daemon counters (in-process view, same numbers as
    /// the `stats` verb).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Ask the daemon to stop and wait for drain: queued jobs finish and
    /// answer their waiters, then workers and the accept loop exit.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.trigger_shutdown();
        self.join_threads();
        self.shared.snapshot()
    }

    /// Block until the daemon stops (via the `shutdown` protocol verb or
    /// a signal-initiated [`ServerHandle::shutdown`] elsewhere).
    pub fn join(mut self) -> StatsSnapshot {
        self.join_threads();
        self.shared.snapshot()
    }

    fn join_threads(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

/// Bind, spawn the worker pool and the accept loop, and return.
pub fn serve(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = Listener::bind(&Addr::parse(&cfg.addr))?;
    let addr = listener.local_addr();
    let cache = Cache::open(&cfg.cache_dir, cfg.cache_max_mb)?;
    let workers = if cfg.workers == 0 {
        default_threads()
    } else {
        cfg.workers
    };
    let shared = Arc::new(Shared {
        cfg,
        addr,
        memo: Mutex::new(Memo {
            cache,
            inflight: BTreeMap::new(),
        }),
        queue: Mutex::new(VecDeque::new()),
        queue_ready: Condvar::new(),
        stop: AtomicBool::new(false),
        counters: Counters::default(),
    });

    let worker_handles = (0..workers)
        .map(|_| {
            let shared = shared.clone();
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    let accept_shared = shared.clone();
    let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));

    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers: worker_handles,
    })
}

fn accept_loop(listener: Listener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let shared = shared.clone();
                std::thread::spawn(move || handle_connection(stream, &shared));
            }
            Err(_) => break,
        }
    }
    // Drain: publish shutdown errors to anything still queued so no
    // waiter hangs. Jobs are taken out under the queue lock alone (the
    // memo lock is only taken afterwards — admission holds memo → queue,
    // so holding them in the opposite order here would deadlock).
    let drained: Vec<Job> = shared.queue.lock().unwrap().drain(..).collect();
    for job in drained {
        shared.memo.lock().unwrap().inflight.remove(&job.hash);
        job.flight
            .publish(Err("daemon shut down before computing".to_string()));
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.queue_ready.wait(q).unwrap();
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| compute(job.kind, job.h, &job.spec)))
            .map_err(|p| panic_message(p.as_ref()));
        shared.counters.computations.fetch_add(1, Ordering::Relaxed);
        {
            // Store and deregister as one atom (see `Shared::memo`).
            let mut memo = shared.memo.lock().unwrap();
            if let Ok(payload) = &result {
                let _ = memo.cache.store(job.hash, payload);
            } else {
                shared.counters.failures.fetch_add(1, Ordering::Relaxed);
            }
            memo.inflight.remove(&job.hash);
        }
        job.flight.publish(result);
    }
}

fn handle_connection(mut stream: Stream, shared: &Arc<Shared>) {
    // Arm the HEX_SERVE_TIMEOUT_MS budget before touching the stream: a
    // client that stalls mid-frame (or holds an idle connection open past
    // the budget) times out instead of pinning this thread forever.
    if stream.set_timeout(shared.cfg.timeout()).is_err() {
        drop_connection(shared, None);
        return;
    }
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) => return, // clean EOF at a frame boundary
            Err(e) => {
                drop_connection(shared, Some(&e));
                return;
            }
        };
        let response = match decode_request(&frame) {
            Err(msg) => Response::Err {
                code: ErrorCode::BadRequest,
                message: msg,
            },
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Stats) => Response::Stats(shared.snapshot().to_json().into_bytes()),
            Ok(Request::Shutdown) => {
                let _ = write_frame(&mut stream, &encode_response(&Response::Bye));
                shared.trigger_shutdown();
                return;
            }
            Ok(Request::Query(q)) => handle_query(shared, &q),
        };
        if let Err(e) = write_frame(&mut stream, &encode_response(&response)) {
            drop_connection(shared, Some(&e));
            return;
        }
    }
}

/// Count an abnormal connection drop; timeouts (the socket budget ran
/// out) are counted separately on top.
fn drop_connection(shared: &Arc<Shared>, cause: Option<&io::Error>) {
    if cause.is_some_and(|e| {
        matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }) {
        shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
    }
    shared
        .counters
        .dropped_connections
        .fetch_add(1, Ordering::Relaxed);
}

fn handle_query(shared: &Arc<Shared>, query: &Query) -> Response {
    if shared.stop.load(Ordering::SeqCst) {
        return err(ErrorCode::ShuttingDown, "daemon is draining");
    }
    // Validate before hashing work into the system: a malformed or
    // over-limit spec never occupies a queue slot.
    let spec = match decode_spec(&query.spec_bytes) {
        Ok(s) => s,
        Err(msg) => return err(ErrorCode::BadRequest, &format!("bad spec: {msg}")),
    };
    if let Err(msg) = admissible(&shared.cfg, query, &spec) {
        return err(ErrorCode::BadRequest, &msg);
    }

    let hash = query.hash();
    let (flight, submitted) = {
        let mut memo = shared.memo.lock().unwrap();
        match memo.cache.load(hash) {
            Lookup::Hit(payload) => {
                shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                return ok(true, hash, payload);
            }
            Lookup::Miss | Lookup::Corrupt => {}
        }
        if let Some(flight) = memo.inflight.get(&hash) {
            (flight.clone(), false)
        } else {
            let mut q = shared.queue.lock().unwrap();
            if q.len() >= shared.cfg.queue_depth {
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return err(ErrorCode::Busy, "admission queue full, retry later");
            }
            let flight = Arc::new(Flight::default());
            memo.inflight.insert(hash, flight.clone());
            q.push_back(Job {
                hash,
                kind: query.kind,
                h: query.h,
                spec,
                flight: flight.clone(),
            });
            shared.queue_ready.notify_one();
            (flight, true)
        }
    };
    if !submitted {
        shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
    }
    match flight.wait() {
        // Coalesced waiters replay another request's bytes: cached from
        // this connection's point of view.
        Ok(payload) => ok(!submitted, hash, payload),
        Err(msg) => err(ErrorCode::ComputeFailed, &msg),
    }
}

/// Pre-admission guards: resource limits, the grid shape `HexGrid::new`
/// accepts, and the single-pulse requirement of skew reductions (the last
/// two would otherwise panic in the worker).
fn admissible(cfg: &ServeConfig, query: &Query, spec: &RunSpec) -> Result<(), String> {
    let cells = u64::from(spec.length) * u64::from(spec.width);
    if cells == 0 || cells > cfg.max_cells {
        return Err(format!(
            "grid of {cells} cells outside (0, {}]",
            cfg.max_cells
        ));
    }
    // With fewer than 3 columns a node's left and right neighbours coincide.
    if spec.width < 3 {
        return Err(format!("grid width {} below 3", spec.width));
    }
    if spec.runs == 0 || spec.runs > cfg.max_runs {
        return Err(format!(
            "run count {} outside (0, {}]",
            spec.runs, cfg.max_runs
        ));
    }
    let pulses = spec
        .schedule
        .as_ref()
        .map_or(spec.pulses, |s| s.pulses().max(spec.pulses));
    // Runs allocate per pulse before the first event (the layer-0 pulse
    // train alone is width × pulses), and an allocation failure aborts
    // the daemon rather than unwinding into `compute_failed`.
    let cell_pulses = u64::try_from(pulses).map_or(u64::MAX, |p| cells.saturating_mul(p));
    if cell_pulses > cfg.max_cells {
        return Err(format!(
            "{pulses} pulses on {cells} cells exceed {} cell-pulses",
            cfg.max_cells
        ));
    }
    if query.kind == QueryKind::Skew && pulses > 1 {
        return Err(format!(
            "skew queries reduce single-pulse batches; this spec generates {pulses} pulses"
        ));
    }
    Ok(())
}

/// Run the reduction a query describes. Deterministic: the payload is a
/// pure function of the query (the serve tests pin cold == warm bytes).
/// The only failure is a panic (e.g. an infeasible fault placement),
/// which the worker turns into `compute_failed`.
fn compute(kind: QueryKind, h: usize, spec: &RunSpec) -> Vec<u8> {
    let table = match kind {
        QueryKind::Skew => skew_summary_table(&batch_skews(spec, h)),
        QueryKind::Stabilize => {
            let grid = spec.hex_grid();
            // Same criterion as `hexctl stabilize`: pulse period within
            // 3·d+ of uniform, d+ tolerance, over the full grid length.
            let criteria = [Criterion::uniform(D_PLUS * 3, D_PLUS, grid.length())];
            let estimates =
                spec.fold_observed(&ObservedStabilizationReducer::new(&grid, &criteria, h));
            stabilization_summary_table(&summarize(&estimates[0]))
        }
    };
    table.to_json().into_bytes()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("computation panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("computation panicked: {s}")
    } else {
        "computation panicked".to_string()
    }
}

fn ok(cached: bool, query_hash: u64, payload: Vec<u8>) -> Response {
    Response::Ok {
        cached,
        engine: engine_version(),
        query_hash,
        payload,
    }
}

fn err(code: ErrorCode, message: &str) -> Response {
    Response::Err {
        code,
        message: message.to_string(),
    }
}
