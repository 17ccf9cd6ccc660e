//! Parallel batch execution of independent simulation runs.
//!
//! The paper's statistics aggregate 250 independent simulation runs per
//! configuration. Runs are pure functions of `(config, seed)`, so the batch
//! is embarrassingly parallel. One scheduler, [`run_batch_fold_with`],
//! runs every batch: scoped worker threads (`std::thread::scope`) steal
//! contiguous chunks of run indices from an atomic counter, fold each
//! chunk into its own accumulator on the worker that produced it, and the
//! chunk accumulators merge in run-index order — the output is
//! **independent of the number of worker threads**, preserving end-to-end
//! determinism.
//!
//! Two conveniences sit on it:
//!
//! * [`run_batch_fold`] streams each result into a [`Reducer`], so a
//!   250-run sweep never holds 250 traces (or views) in memory and the
//!   reduction itself runs in parallel;
//! * [`run_batch`] materializes every result (`Vec<T>`, run-index order):
//!   the fold pushes and the merge appends — right when downstream
//!   analysis needs all runs side by side.
//!
//! ```
//! use hex_sim::batch::{run_batch, run_batch_fold, Reducer};
//!
//! /// Sums `f(run)` and remembers how many runs contributed.
//! struct Sum;
//! impl Reducer<u64> for Sum {
//!     type Acc = (u64, usize);
//!     fn empty(&self) -> Self::Acc {
//!         (0, 0)
//!     }
//!     fn fold_ref(&self, acc: &mut Self::Acc, _run: usize, item: &u64) {
//!         acc.0 += item;
//!         acc.1 += 1;
//!     }
//!     fn merge(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc {
//!         (left.0 + right.0, left.1 + right.1)
//!     }
//! }
//!
//! let job = |run: usize| (run as u64) * 3;
//! let streamed = run_batch_fold(100, 4, job, &Sum);
//! let materialized: u64 = run_batch(100, 4, job).into_iter().sum();
//! assert_eq!(streamed, (materialized, 100));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Execute `runs` independent jobs, `job(run_index) -> T`, on `threads`
/// worker threads (pass [`default_threads`]`()` — or `0` — for the
/// machine's available parallelism). Results are returned in run-index
/// order regardless of scheduling: this is [`run_batch_fold_with`] folding
/// into a `Vec`, where the fold pushes and the merge appends, so the
/// concatenation law keeps run order.
pub fn run_batch<T, F>(runs: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_batch_fold_with(
        runs,
        threads,
        || (),
        Vec::new,
        |(), out, run| out.push(job(run)),
        append,
    )
}

/// The merge of a batch folded into a `Vec`: `left` covers the lower run
/// indices, so appending `right` keeps run order.
pub(crate) fn append<T>(mut left: Vec<T>, mut right: Vec<T>) -> Vec<T> {
    left.append(&mut right);
    left
}

/// A parallel map-reduce contract for [`run_batch_fold`].
///
/// Implementations describe how per-run results are folded into an
/// accumulator and how two accumulators covering disjoint, *consecutive*
/// run ranges are merged. For the batch output to be independent of the
/// thread count, `merge` must agree with concatenation:
///
/// ```text
/// merge(fold_all(empty, runs a..b), fold_all(empty, runs b..c))
///     == fold_all(empty, runs a..c)
/// ```
///
/// which every "append to vectors / add to tallies" reduction satisfies.
/// `merge` is always called with `left` covering the lower run indices.
///
/// The item type is whatever the batch produces per run: the borrowed
/// [`PulseBinner`](crate::PulseBinner) observer state of
/// [`RunSpec::fold_observed`](crate::RunSpec::fold_observed), or the job
/// output of [`run_batch_fold`].
pub trait Reducer<T> {
    /// The accumulator type.
    type Acc: Send;

    /// A fresh (identity) accumulator.
    fn empty(&self) -> Self::Acc;

    /// Fold one run's result into the accumulator **by reference**,
    /// leaving `item` intact so the caller can reuse its buffers for the
    /// next run (the scratch-backed batch paths depend on this). Called
    /// exactly once per run, in ascending run order *within* each
    /// accumulator.
    fn fold_ref(&self, acc: &mut Self::Acc, run: usize, item: &T);

    /// Merge two accumulators; `left` covers strictly lower run indices
    /// than `right`.
    fn merge(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc;
}

/// Execute `runs` independent jobs and reduce their results on the worker
/// threads, returning the merged accumulator.
///
/// Workers steal *contiguous chunks* of run indices and fold each chunk
/// into its own accumulator as results are produced — no `Vec<T>` of all
/// results ever exists. Chunk accumulators are merged in ascending
/// run-range order after the scope joins, so for any [`Reducer`] honoring
/// the concatenation law the result equals a sequential fold over
/// `(0..runs).map(job)` — **at any thread count** (see `spec_equivalence`
/// tests at the workspace root).
pub fn run_batch_fold<T, F, R>(runs: usize, threads: usize, job: F, reducer: &R) -> R::Acc
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    R: Reducer<T> + Sync,
{
    run_batch_fold_with(
        runs,
        threads,
        || (),
        || reducer.empty(),
        |(), acc, run| reducer.fold_ref(acc, run, &job(run)),
        |left, right| reducer.merge(left, right),
    )
}

/// The batch scheduler behind [`run_batch`], [`run_batch_fold`] and the
/// [`RunSpec`](crate::RunSpec) batch paths, expressed in accumulator
/// operations so the per-run closure can both *produce* (into its worker's
/// scratch) and *reduce* (into the chunk accumulator) without the result
/// ever being moved: `fold_run(&mut scratch, &mut acc, run)`.
///
/// `make_scratch` runs once per worker (once total on the serial path), so
/// a batch performs O(threads) scratch allocations. For any
/// concatenation-lawful `(empty, fold_run, merge)` triple the result is
/// independent of the thread count.
pub fn run_batch_fold_with<S, A, FS, FE, F, FM>(
    runs: usize,
    threads: usize,
    make_scratch: FS,
    empty: FE,
    fold_run: F,
    merge: FM,
) -> A
where
    A: Send,
    FS: Fn() -> S + Sync,
    FE: Fn() -> A + Sync,
    F: Fn(&mut S, &mut A, usize) + Sync,
    FM: Fn(A, A) -> A,
{
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    let threads = threads.min(runs.max(1));
    if threads <= 1 || runs <= 1 {
        let mut scratch = make_scratch();
        let mut acc = empty();
        for run in 0..runs {
            fold_run(&mut scratch, &mut acc, run);
        }
        return acc;
    }

    // Chunked work stealing: big enough chunks to amortize the atomic and
    // keep per-chunk accumulators few, small enough to balance load.
    let chunk = (runs / (threads * 8)).max(1);
    let next = AtomicUsize::new(0);

    let mut parts: Vec<(usize, A)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = make_scratch();
                    let mut local: Vec<(usize, A)> = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= runs {
                            break;
                        }
                        let end = (start + chunk).min(runs);
                        let mut acc = empty();
                        for run in start..end {
                            fold_run(&mut scratch, &mut acc, run);
                        }
                        local.push((start, acc));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });

    // Restore run order: chunks are disjoint, so sorting by start index
    // yields consecutive ranges; merge left to right.
    parts.sort_by_key(|&(start, _)| start);
    parts.into_iter().map(|(_, acc)| acc).fold(empty(), merge)
}

/// The machine's available parallelism (≥ 1), resolved once per process
/// and cached. On Linux
/// each `available_parallelism` call re-reads the process's cgroup CPU
/// quota files, which costs more than the rest of a spec decode, and
/// `RunSpec::grid` (so every `hexd` query) asks for this value. A quota
/// changed while the process runs is not picked up. hex-lint's `env-knob`
/// rule keeps this the only call site of the probe.
pub fn default_threads() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(probe_cores)
}

/// The one-time probe behind [`default_threads`], kept cold and out of
/// line so that callers inline only the cached load.
#[cold]
#[inline(never)]
fn probe_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = run_batch(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_equals_parallel() {
        let seq = run_batch(64, 1, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let par = run_batch(64, 8, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_runs() {
        let out: Vec<u32> = run_batch(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let out = run_batch(32, 0, |i| i + 7);
        assert_eq!(out, (0..32).map(|i| i + 7).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_runs() {
        let out = run_batch(3, 64, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
        run_batch(200, 6, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        // ThreadId implements neither Ord nor any stable total order, so
        // a BTreeSet cannot replace this census; the set is only ever
        // queried for its size, never iterated.
        // hexlint: allow(nondet-collection, reason = "test-only thread census, counted not iterated")
        use std::collections::HashSet;
        use std::sync::Mutex;
        // hexlint: allow(wall-clock, reason = "watchdog deadline for a liveness assertion; never feeds simulated time")
        use std::time::{Duration, Instant};
        // hexlint: allow(nondet-collection, reason = "test-only thread census, counted not iterated")
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        run_batch(64, 4, |ix| {
            seen.lock().unwrap().insert(std::thread::current().id());
            if ix == 0 {
                // Rendezvous: hold the first run until a second worker has
                // registered, so the assertion cannot race thread spawn on a
                // loaded machine. The deadline only trips if the pool truly
                // failed to engage a second thread.
                // hexlint: allow(wall-clock, reason = "watchdog deadline for a liveness assertion; never feeds simulated time")
                let deadline = Instant::now() + Duration::from_secs(5);
                // hexlint: allow(wall-clock, reason = "watchdog deadline for a liveness assertion; never feeds simulated time")
                while seen.lock().unwrap().len() < 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
        });
        assert!(seen.lock().unwrap().len() >= 2, "batch ran serially");
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    /// Order-sensitive reducer: concatenates `(run, item)` pairs. Any
    /// scheduling bug that breaks run order or drops/duplicates a run
    /// changes the output.
    struct Collect;
    impl Reducer<u64> for Collect {
        type Acc = Vec<(usize, u64)>;
        fn empty(&self) -> Self::Acc {
            Vec::new()
        }
        fn fold_ref(&self, acc: &mut Self::Acc, run: usize, item: &u64) {
            acc.push((run, *item));
        }
        fn merge(&self, mut left: Self::Acc, right: Self::Acc) -> Self::Acc {
            left.extend(right);
            left
        }
    }

    #[test]
    fn fold_equals_sequential_fold_at_any_thread_count() {
        let job = |run: usize| (run as u64).wrapping_mul(0x9E3779B97F4A7C15);
        let expected: Vec<(usize, u64)> = (0..137).map(|r| (r, job(r))).collect();
        for threads in [0, 1, 2, 3, 7, 16, 200] {
            assert_eq!(
                run_batch_fold(137, threads, job, &Collect),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn fold_zero_runs_is_empty() {
        let acc = run_batch_fold(0, 4, |_| unreachable!(), &Collect);
        assert!(acc.is_empty());
    }

    #[test]
    fn fold_folds_each_run_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
        run_batch_fold(
            200,
            6,
            |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
                i as u64
            },
            &Collect,
        );
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn parallel_simulation_batch_is_deterministic() {
        use crate::engine::{simulate, SimConfig};
        use hex_core::HexGrid;
        use hex_des::{Schedule, Time};

        let grid = HexGrid::new(5, 5);
        let sched = Schedule::single_pulse(vec![Time::ZERO; 5]);
        let job = |threads: usize| {
            run_batch(16, threads, |run| {
                let trace = simulate(grid.graph(), &sched, &SimConfig::fault_free(), run as u64);
                trace.total_fires()
            })
        };
        assert_eq!(job(1), job(4));
    }
}
