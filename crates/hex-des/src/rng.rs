//! Seedable random sampling helpers.
//!
//! All stochastic choices of a run (link delays, timeout durations, fault
//! placement, Byzantine per-link behaviour, arbitrary initial states) are
//! drawn from one [`SimRng`] seeded per run, so every experiment is exactly
//! reproducible from `(config, seed)`.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::Duration;

/// Deterministic random source for a single simulation run.
///
/// Thin wrapper over `rand::StdRng` with [`Duration`]-typed convenience
/// samplers for the closed intervals used throughout the paper (delays in
/// `[d-, d+]`, timeouts in `[T-, T+]`, layer-0 skews in `[0, d-]` /
/// `[0, d+]`). `rand` is the workspace's own `compat/rand` (xoshiro256**),
/// whose stream every committed output depends on; this module's tests pin
/// it (README § "Offline dependency shims").
#[derive(Debug, Clone)]
pub struct SimRng {
    rng: StdRng,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Sample a duration uniformly from the closed interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn duration_in(&mut self, lo: Duration, hi: Duration) -> Duration {
        assert!(lo <= hi, "empty interval [{:?}, {:?}]", lo, hi);
        if lo == hi {
            return lo;
        }
        Duration(Uniform::new_inclusive(lo.0, hi.0).sample(&mut self.rng))
    }

    /// Sample an index uniformly from `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.rng.gen_range(0..n)
    }

    /// A fair coin flip.
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.rng.gen()
    }

    /// A uniform draw from `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.rng.gen()
    }

    /// A Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(
                a.duration_in(Duration::from_ps(7161), Duration::from_ps(8197)),
                b.duration_in(Duration::from_ps(7161), Duration::from_ps(8197))
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let da: Vec<i64> = (0..32)
            .map(|_| {
                a.duration_in(Duration::ZERO, Duration::from_ps(1 << 30))
                    .ps()
            })
            .collect();
        let db: Vec<i64> = (0..32)
            .map(|_| {
                b.duration_in(Duration::ZERO, Duration::from_ps(1 << 30))
                    .ps()
            })
            .collect();
        assert_ne!(da, db);
    }

    #[test]
    fn degenerate_interval() {
        let mut r = SimRng::seed_from_u64(0);
        assert_eq!(
            r.duration_in(Duration::from_ps(5), Duration::from_ps(5)),
            Duration::from_ps(5)
        );
    }

    /// The first draws of each sampler from seed 42. Every committed
    /// output of the workspace depends on this stream, so a generator swap
    /// behind `rand` (crates.io rand 0.8's `StdRng` is ChaCha12, not
    /// `compat/rand`'s xoshiro256**) fails here, by name, before the golden
    /// pins and benchmark digests fail without pointing at the RNG.
    #[test]
    fn seed_42_stream_is_pinned() {
        let mut r = SimRng::seed_from_u64(42);
        let (lo, hi) = (Duration::from_ps(7161), Duration::from_ps(8197));
        let durations: Vec<i64> = (0..4).map(|_| r.duration_in(lo, hi).ps()).collect();
        let coins: Vec<bool> = (0..6).map(|_| r.coin()).collect();
        let units: Vec<f64> = (0..3).map(|_| r.unit()).collect();
        let indices: Vec<usize> = (0..4).map(|_| r.index(1000)).collect();
        let chances: Vec<bool> = (0..6).map(|_| r.chance(0.3)).collect();
        let mut shuffled: Vec<u32> = (0..8).collect();
        r.shuffle(&mut shuffled);
        assert_eq!(
            (durations, coins, units, indices, chances, shuffled),
            (
                vec![7247, 7554, 7866, 8119],
                vec![false, false, false, true, false, true],
                vec![0.6824528696125193, 0.29067776176424165, 0.8010242975288078],
                vec![321, 711, 877, 616],
                vec![false, false, false, true, true, false],
                vec![5, 0, 7, 3, 1, 6, 2, 4],
            ),
            "the SimRng stream changed: every golden pin, CAMPAIGN.md, each perfbench \
             digest and the Table 1/2 numbers depend on it. `rand` must stay the \
             workspace's compat/rand generator (README § \"Offline dependency shims\")"
        );
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from_u64(11);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_hits_endpoints() {
        // Closed interval: both endpoints must be reachable.
        let mut r = SimRng::seed_from_u64(5);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..10_000 {
            let d = r.duration_in(Duration::from_ps(0), Duration::from_ps(3));
            if d.ps() == 0 {
                lo_seen = true;
            }
            if d.ps() == 3 {
                hi_seen = true;
            }
        }
        assert!(lo_seen && hi_seen);
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Samples always fall inside the requested closed interval.
        #[test]
        fn prop_in_range(seed in any::<u64>(), lo in -10_000i64..10_000, span in 0i64..10_000) {
            let mut r = SimRng::seed_from_u64(seed);
            for _ in 0..32 {
                let d = r.duration_in(Duration::from_ps(lo), Duration::from_ps(lo + span));
                prop_assert!(d.ps() >= lo && d.ps() <= lo + span);
            }
        }

        /// index() stays in bounds.
        #[test]
        fn prop_index_in_bounds(seed in any::<u64>(), n in 1usize..500) {
            let mut r = SimRng::seed_from_u64(seed);
            for _ in 0..16 {
                prop_assert!(r.index(n) < n);
            }
        }

        /// Uniform mean sanity: the sample mean of [0, 1000] lands near 500.
        #[test]
        fn prop_uniform_mean(seed in any::<u64>()) {
            let mut r = SimRng::seed_from_u64(seed);
            let n = 4_000;
            let sum: i64 = (0..n)
                .map(|_| r.duration_in(Duration::ZERO, Duration::from_ps(1000)).ps())
                .sum();
            let mean = sum as f64 / n as f64;
            prop_assert!((mean - 500.0).abs() < 40.0, "mean {}", mean);
        }
    }
}
