//! Order statistics over skew samples.
//!
//! The paper reports `min`, the 5% quantile, the average, the 95% quantile
//! and `max` of skew populations (Section 4.1, experiments (A)). Quantiles
//! use the standard linear-interpolation estimator (R type 7), which is
//! well-defined for every population size ≥ 1.
//!
//! Both constructors run one arithmetic (mean, population variance, R-7
//! quantiles) over the sample in ascending order; they differ only in how
//! they order it. [`Summary::from_ns`] stable-sorts `f64` nanoseconds with
//! [`total_f64`] and is the reference. [`Summary::from_durations`] orders
//! the integer picoseconds instead:
//!
//! * when the range `max − min + 1` holds at most four picoseconds per
//!   sample, it counts the samples into one bucket per picosecond and reads
//!   the buckets back in order (a counting sort). Every cumulated set of
//!   the Tables 1/2 batches takes this branch: ≥ 249,500 samples within
//!   ≤ 42,163 ps;
//! * otherwise it `sort_unstable`s an `i64` copy (small per-run sets, or
//!   samples spread thin over a wide range).
//!
//! It converts each value to nanoseconds only as the arithmetic reads it.
//! `ps → ns` (`ps as f64 / 1e3`) is monotone and yields neither NaN nor
//! `-0.0`, so the converted ascending sequence is exactly the one
//! [`Summary::from_ns`] sorts into. The two summaries therefore agree bit
//! for bit in every field, which a property test pins.

use hex_des::Duration;
use std::cmp::Ordering;

/// The workspace's documented total order on `f64` (the `float-ord`
/// lint rule's sanctioned comparator).
///
/// `partial_cmp`-based sorts either panic on NaN or — worse, with
/// `unwrap_or` fallbacks — produce an input-order-dependent permutation,
/// which silently breaks run-order-independent reduction. This wrapper
/// is IEEE 754 `totalOrder`: every value, including NaN and signed
/// zeros, has one fixed rank, so a sort is a pure function of the
/// sample multiset. Skew samples are finite by construction; NaN
/// ordering is belt-and-braces, not a semantic choice.
#[inline]
pub fn total_f64(a: &f64, b: &f64) -> Ordering {
    a.total_cmp(b)
}

/// Linear-interpolation quantile (R type 7) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice or `q ∉ [0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    quantile_by(sorted.len(), q, |i| sorted[i])
}

/// [`quantile_sorted`] of an ascending sample of `n ≥ 1` values, where
/// `at(i)` reads the `i`-th smallest.
fn quantile_by(n: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    if n == 1 {
        return at(0);
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        at(lo) + (h - lo as f64) * (at(hi) - at(lo))
    }
}

/// A counting sort pays while a sample's range holds at most this many
/// picoseconds per sample.
const COUNTING_PS_PER_SAMPLE: u64 = 4;

/// Whether `n` samples spread over `spread + 1` picoseconds are ordered by
/// counting rather than by comparison.
fn counting_pays(spread: u64, n: usize) -> bool {
    spread < (n as u64).saturating_mul(COUNTING_PS_PER_SAMPLE)
}

/// The picoseconds of `values` in ascending order (see the module docs
/// for the two branches).
fn ascending_ps(values: &[Duration]) -> Vec<i64> {
    let Some(first) = values.first() else {
        return Vec::new();
    };
    let (min, max) = values.iter().fold((first.ps(), first.ps()), |(lo, hi), d| {
        (lo.min(d.ps()), hi.max(d.ps()))
    });
    // `abs_diff` spans the whole i64 range without overflowing.
    let spread = max.abs_diff(min);
    if !counting_pays(spread, values.len()) {
        let mut sorted: Vec<i64> = values.iter().map(|d| d.ps()).collect();
        sorted.sort_unstable();
        return sorted;
    }
    // `spread < 4n`, so the buckets fit in memory and every offset fits
    // in both `usize` and `i64`.
    let mut counts = vec![0usize; spread as usize + 1];
    for d in values {
        counts[d.ps().abs_diff(min) as usize] += 1;
    }
    let mut sorted = Vec::with_capacity(values.len());
    for (offset, &count) in counts.iter().enumerate() {
        sorted.resize(sorted.len() + count, min + offset as i64);
    }
    sorted
}

/// Five-point summary (+ mean, std, count) of a sample, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Minimum.
    pub min: f64,
    /// 5% quantile.
    pub q05: f64,
    /// Arithmetic mean.
    pub avg: f64,
    /// 95% quantile.
    pub q95: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Sample size.
    pub n: usize,
}

impl Summary {
    /// Summarize a sample of nanosecond values. Returns `None` on empty
    /// input.
    pub fn from_ns(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(total_f64);
        Summary::from_ascending(&sorted, |v| v)
    }

    /// Summarize a sample of [`Duration`]s (in nanoseconds). Orders the
    /// integer picoseconds, without a comparison sort where the range is
    /// dense, and equals [`Summary::from_ns`] of the converted values bit
    /// for bit (see the module docs).
    pub fn from_durations(values: &[Duration]) -> Option<Summary> {
        Summary::from_ascending(&ascending_ps(values), |ps| Duration::from_ps(ps).ns())
    }

    /// The summary of an ascending sample whose values read as
    /// nanoseconds through `ns`. `None` on an empty sample.
    fn from_ascending<T: Copy>(sorted: &[T], ns: impl Fn(T) -> f64) -> Option<Summary> {
        let (&first, &last) = (sorted.first()?, sorted.last()?);
        let n = sorted.len();
        let values = || sorted.iter().map(|&v| ns(v));
        let avg = values().sum::<f64>() / n as f64;
        let var = values().map(|v| (v - avg) * (v - avg)).sum::<f64>() / n as f64;
        let at = |i: usize| ns(sorted[i]);
        Some(Summary {
            min: ns(first),
            q05: quantile_by(n, 0.05, at),
            avg,
            q95: quantile_by(n, 0.95, at),
            max: ns(last),
            std: var.sqrt(),
            n,
        })
    }

    /// The paper's intra-layer row: `avg | q95 | max`.
    pub fn intra_row(&self) -> String {
        format!("{:7.3} {:7.3} {:7.3}", self.avg, self.q95, self.max)
    }

    /// The paper's inter-layer row: `min | q5 | avg | q95 | max`.
    pub fn inter_row(&self) -> String {
        format!(
            "{:7.3} {:7.3} {:7.3} {:7.3} {:7.3}",
            self.min, self.q05, self.avg, self.q95, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantile_endpoints() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile_sorted(&[7.5], 0.3), 7.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quantile_empty_panics() {
        quantile_sorted(&[], 0.5);
    }

    #[test]
    fn summary_basics() {
        let s = Summary::from_ns(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.avg, 3.0);
        assert_eq!(s.n, 5);
        assert!((s.std - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_from_durations() {
        let ds = [
            Duration::from_ps(1000),
            Duration::from_ps(2000),
            Duration::from_ps(3000),
        ];
        let s = Summary::from_durations(&ds).unwrap();
        assert_eq!(s.avg, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::from_ns(&[]).is_none());
        assert!(Summary::from_durations(&[]).is_none());
    }

    #[test]
    fn rows_format() {
        let s = Summary::from_ns(&[0.395, 1.0, 3.098]).unwrap();
        assert!(s.intra_row().contains("3.098"));
        assert!(s.inter_row().contains("0.395"));
    }

    /// Whether `ps` takes the counting branch of [`ascending_ps`].
    fn counted(ps: &[i64]) -> bool {
        let (min, max) = (ps.iter().min().unwrap(), ps.iter().max().unwrap());
        counting_pays(max.abs_diff(*min), ps.len())
    }

    /// The integer summary of `ps` equals the `f64` reference of the same
    /// values bit for bit, in every field and `n`, and the integer order is
    /// the sorted sample.
    fn assert_matches_reference(ps: &[i64]) {
        let durations: Vec<Duration> = ps.iter().map(|&p| Duration::from_ps(p)).collect();
        let ns: Vec<f64> = durations.iter().map(|d| d.ns()).collect();
        let bits = |s: Summary| {
            let fields = [s.min, s.q05, s.avg, s.q95, s.max, s.std];
            (fields.map(f64::to_bits), s.n)
        };
        assert_eq!(
            Summary::from_durations(&durations).map(bits),
            Summary::from_ns(&ns).map(bits),
            "{ps:?}"
        );
        let mut sorted = ps.to_vec();
        sorted.sort_unstable();
        assert_eq!(ascending_ps(&durations), sorted, "{ps:?}");
    }

    #[test]
    fn integer_summary_matches_reference_at_the_extremes() {
        // `max − min` overflows i64 here: the spread must not.
        let overflowing = [i64::MIN, i64::MAX, 0, i64::MIN];
        assert!(!counted(&overflowing));
        assert_matches_reference(&overflowing);
        // Dense ranges touching either end of i64 take the counting branch.
        for ps in [
            [i64::MIN + 1, i64::MIN, i64::MIN + 1],
            [i64::MAX, i64::MAX - 2, i64::MAX],
        ] {
            assert!(counted(&ps));
            assert_matches_reference(&ps);
        }
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// min ≤ q05 ≤ avg-compatible ordering ≤ q95 ≤ max and quantiles are
        /// monotone in q.
        #[test]
        fn prop_summary_order(values in prop::collection::vec(-1e6f64..1e6, 1..300)) {
            let s = Summary::from_ns(&values).unwrap();
            prop_assert!(s.min <= s.q05 + 1e-9);
            prop_assert!(s.q05 <= s.q95 + 1e-9);
            prop_assert!(s.q95 <= s.max + 1e-9);
            prop_assert!(s.min <= s.avg && s.avg <= s.max);
            prop_assert!(s.std >= 0.0);
        }

        /// Quantile is monotone in q for any sample.
        #[test]
        fn prop_quantile_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..100),
                                  q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
            let mut sorted = values;
            sorted.sort_by(total_f64);
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(quantile_sorted(&sorted, lo) <= quantile_sorted(&sorted, hi) + 1e-9);
        }

        /// Quantiles of a constant sample equal the constant.
        #[test]
        fn prop_constant_sample(c in -1e3f64..1e3, n in 1usize..50, q in 0.0f64..1.0) {
            let s = vec![c; n];
            prop_assert!((quantile_sorted(&s, q) - c).abs() < 1e-12);
        }

        /// Dense samples (≤ 4 ps of range per sample, duplicates, either
        /// sign) take the counting branch and match the `f64` reference
        /// bit for bit.
        #[test]
        fn prop_counting_summary_matches_reference(
            base in -1_000_000i64..1_000_000,
            offsets in prop::collection::vec(0i64..40, 10..400),
        ) {
            let ps: Vec<i64> = offsets.iter().map(|o| base + o).collect();
            prop_assert!(counted(&ps));
            assert_matches_reference(&ps);
        }

        /// Sparse samples (a few values spread over a wide range,
        /// duplicates, either sign) take the sorting branch and match the
        /// `f64` reference bit for bit.
        #[test]
        fn prop_sorting_summary_matches_reference(
            picks in prop::collection::vec(0i64..12, 1..200),
            step in 1_000i64..1_000_000_000,
            origin in -1_000_000_000_000i64..1_000_000_000_000,
        ) {
            let mut ps: Vec<i64> = picks.iter().map(|p| origin + p * step).collect();
            ps.push(origin + 12 * step);
            prop_assert!(!counted(&ps));
            assert_matches_reference(&ps);
        }

        /// A single sample anywhere in i64 matches the reference.
        #[test]
        fn prop_single_sample_matches_reference(ps in any::<i64>()) {
            assert_matches_reference(&[ps]);
        }
    }
}
