//! The workspace's random generator, behind the subset of the
//! [`rand`](https://crates.io/crates/rand) 0.8 API that this workspace uses.
//!
//! The simulation only needs a deterministic, seedable, decent-quality
//! generator — not the full `rand` ecosystem. The core is xoshiro256**
//! (Blackman & Vigna), seeded through SplitMix64 exactly like
//! `rand`'s `SeedableRng::seed_from_u64` recipe, so streams are stable,
//! portable, and pass the uniformity sanity checks in `hex-des::rng`.
//!
//! **This is not the real `rand` crate, and it is not interchangeable with
//! it.** The crates.io release compiles in its place, but its `StdRng` is
//! ChaCha12, so every stream changes, and with them every committed output
//! of the workspace: the golden pins, `CAMPAIGN.md`, the benchmark digests
//! and the Table 1/2 numbers. `hex-des::rng` pins the first draws of seed
//! 42 (see the README's "Offline dependency shims" section).

#![forbid(unsafe_code)]

/// Low-level source of randomness: a stream of `u64`s.
pub trait RngCore {
    /// Next raw 64-bit draw.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32-bit draw (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of generators from seeds.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (SplitMix64 key expansion).
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that can be sampled from the "standard" distribution
/// (the equivalent of `rand::distributions::Standard` coverage we need).
pub trait StandardSample: Sized {
    /// Draw one value from `rng`.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for usize {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 significant bits, uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Sample a value from this range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform draw from the closed interval `[lo, hi]` over the `u64` lattice.
///
/// `span == 0` encodes the full 64-bit range. Uses Lemire-style widening
/// multiplication with rejection, so the draw is exactly uniform.
fn uniform_u64_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= hi);
    let span = hi.wrapping_sub(lo).wrapping_add(1); // 0 == 2^64
    if span == 0 {
        return rng.next_u64();
    }
    // Widening multiply; reject the biased low region.
    let zone = span.wrapping_neg() % span; // 2^64 mod span
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        if (m as u64) >= zone {
            return lo.wrapping_add((m >> 64) as u64);
        }
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty => $u:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                // Map through the unsigned lattice so signed intervals that
                // straddle zero stay ordered.
                let off = <$t>::MIN as $u as u64;
                let lo = (self.start as $u as u64).wrapping_sub(off);
                let hi = ((self.end - 1) as $u as u64).wrapping_sub(off);
                (uniform_u64_inclusive(rng, lo, hi).wrapping_add(off)) as $u as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "cannot sample empty range");
                // Map through the unsigned lattice so signed intervals that
                // straddle zero stay ordered.
                let off = <$t>::MIN as $u as u64;
                let lo = (s as $u as u64).wrapping_sub(off);
                let hi = (e as $u as u64).wrapping_sub(off);
                (uniform_u64_inclusive(rng, lo, hi).wrapping_add(off)) as $u as $t
            }
        }
    )*};
}

impl_sample_range_int!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize,
);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::standard_sample(rng) * (self.end - self.start)
    }
}

/// The user-facing sampling interface (the slice of `rand::Rng` we use).
pub trait Rng: RngCore {
    /// Draw from the standard distribution of `T`.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::standard_sample(self)
    }

    /// Draw uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::standard_sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators (mirrors `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256**.
    ///
    /// (The real `rand::rngs::StdRng` is a ChaCha variant. The workspace
    /// relies on this exact stream, not only on determinism per seed: every
    /// committed output was produced by it.)
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 key expansion, as recommended by the xoshiro authors
            // and used by rand's seed_from_u64.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

/// Distribution objects (mirrors `rand::distributions`).
pub mod distributions {
    use super::{uniform_u64_inclusive, RngCore};

    /// A distribution over values of `T`.
    pub trait Distribution<T> {
        /// Draw one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Types over which [`Uniform`] can be constructed.
    pub trait SampleUniform: Sized + Copy + PartialOrd {
        /// Uniform draw from the closed interval `[lo, hi]`.
        fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
        /// The predecessor of `x` (for half-open interval construction).
        fn prev(x: Self) -> Self;
    }

    macro_rules! impl_sample_uniform {
        ($($t:ty => $u:ty),* $(,)?) => {$(
            impl SampleUniform for $t {
                fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                    let off = <$t>::MIN as $u as u64;
                    let l = (lo as $u as u64).wrapping_sub(off);
                    let h = (hi as $u as u64).wrapping_sub(off);
                    (uniform_u64_inclusive(rng, l, h).wrapping_add(off)) as $u as $t
                }
                fn prev(x: $t) -> $t {
                    x - 1
                }
            }
        )*};
    }

    impl_sample_uniform!(
        u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
        i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize,
    );

    /// Uniform distribution over a closed interval.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Uniform<T> {
        lo: T,
        hi: T,
    }

    impl<T: SampleUniform> Uniform<T> {
        /// Uniform over `[lo, hi]`. Panics if `lo > hi`.
        pub fn new_inclusive(lo: T, hi: T) -> Self {
            assert!(lo <= hi, "Uniform::new_inclusive: empty interval");
            Uniform { lo, hi }
        }

        /// Uniform over `[lo, hi)`. Panics if `lo >= hi`.
        pub fn new(lo: T, hi: T) -> Self {
            assert!(lo < hi, "Uniform::new: empty interval");
            Uniform {
                lo,
                hi: T::prev(hi),
            }
        }
    }

    impl<T: SampleUniform> Distribution<T> for Uniform<T> {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
            T::sample_inclusive(self.lo, self.hi, rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::distributions::{Distribution, Uniform};
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn uniform_inclusive_covers_endpoints() {
        let mut r = StdRng::seed_from_u64(1);
        let u = Uniform::new_inclusive(-3i64, 3);
        let (mut lo, mut hi) = (false, false);
        for _ in 0..4096 {
            let x = u.sample(&mut r);
            assert!((-3..=3).contains(&x));
            lo |= x == -3;
            hi |= x == 3;
        }
        assert!(lo && hi);
    }

    #[test]
    fn gen_range_signed_straddling_zero() {
        let mut r = StdRng::seed_from_u64(2);
        for _ in 0..4096 {
            let x: i64 = r.gen_range(-10..10);
            assert!((-10..10).contains(&x));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(3);
        assert!(!(0..64).any(|_| r.gen_bool(0.0)));
        assert!((0..64).all(|_| r.gen_bool(1.0)));
    }

    /// A generator that counts its raw draws.
    struct Counted(StdRng, u64);

    impl RngCore for Counted {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    /// Spans just past a power of two reject a large share of their raw
    /// draws, which the paper's ~1 ns spans almost never do: `2^63 + 1`
    /// rejects `(2^63 - 1) / 2^64`, about 1/2, and `3 * 2^62` rejects
    /// exactly 1/4. Values stay in range, the rejections run at those
    /// rates, and the start of one such stream is pinned, so a change to
    /// the rejection rule must keep every value and every raw draw.
    #[test]
    fn wide_spans_take_the_rejection_path() {
        let half = 1u64 << 63;
        for (lo, hi, share) in [
            (0, half, 0.5),
            (7, half + 7, 0.5),
            (0, (3 << 62) - 1, 0.25),
            (u64::MAX - (3 << 62) + 1, u64::MAX, 0.25),
        ] {
            let mut r = Counted(StdRng::seed_from_u64(lo ^ hi), 0);
            let calls = 4_000u64;
            for _ in 0..calls {
                let x = super::uniform_u64_inclusive(&mut r, lo, hi);
                assert!((lo..=hi).contains(&x), "{x} outside [{lo}, {hi}]");
            }
            let rejected = (r.1 - calls) as f64 / r.1 as f64;
            assert!(
                (rejected - share).abs() < 0.03,
                "[{lo}, {hi}] rejected {rejected:.3} of its draws, want ~{share}"
            );
        }
        let mut r = Counted(StdRng::seed_from_u64(42), 0);
        let head: Vec<u64> = (0..6)
            .map(|_| super::uniform_u64_inclusive(&mut r, 0, half))
            .collect();
        let want = vec![
            9147776489032658738,
            7099593415032875292,
            6633989454467100377,
            7022439175346172479,
            2681029139591840946,
            7388145106668446555,
        ];
        // Six values took 13 raw draws: 7 rejections.
        assert_eq!((head, r.1), (want, 13));
    }

    #[test]
    fn mean_of_unit_draws_is_centered() {
        let mut r = StdRng::seed_from_u64(4);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
