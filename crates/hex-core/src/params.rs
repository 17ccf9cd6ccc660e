//! System-model parameters.
//!
//! The paper's model (Section 2): every fault-free link delivers a trigger
//! message within `[d-, d+]` with uncertainty `ε = d+ − d-` and the
//! additional constraint `ε ≤ d+/2`; nodes have inaccurate local timers with
//! drift bound `ϑ ≥ 1` (`T+ = ϑ·T-` in Condition 2). The simulation section
//! (4.2) instantiates `[d-, d+] = [7.161, 8.197] ns` (wire/routing delay
//! `[7, 8] ns` + synthesized switching delay `[0.161, 0.197] ns`) and
//! `ϑ = 1.05`; those are the defaults here.

use hex_des::Duration;

/// Paper default minimum end-to-end delay `d- = 7.161 ns`.
pub const D_MINUS: Duration = Duration::from_ps(7_161);
/// Paper default maximum end-to-end delay `d+ = 8.197 ns`.
pub const D_PLUS: Duration = Duration::from_ps(8_197);
/// Paper default delay uncertainty `ε = d+ − d- = 1.036 ns`.
pub const EPSILON: Duration = Duration::from_ps(1_036);
/// Paper default clock drift bound `ϑ = 1.05` (Section 4.4).
pub const THETA: f64 = 1.05;

/// A closed duration interval `[lo, hi]`, e.g. a delay range `[d-, d+]` or a
/// timeout range `[T-, T+]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayRange {
    /// Lower bound (inclusive).
    pub lo: Duration,
    /// Upper bound (inclusive).
    pub hi: Duration,
}

impl DelayRange {
    /// Construct a range; panics if `lo > hi` or `lo` is negative.
    pub fn new(lo: Duration, hi: Duration) -> Self {
        assert!(lo <= hi, "invalid range [{:?}, {:?}]", lo, hi);
        assert!(lo.ps() >= 0, "negative delays are not physical: {:?}", lo);
        DelayRange { lo, hi }
    }

    /// A degenerate (deterministic) range `[d, d]`.
    pub fn fixed(d: Duration) -> Self {
        DelayRange::new(d, d)
    }

    /// The paper's default delay interval `[7.161, 8.197] ns`.
    pub fn paper() -> Self {
        DelayRange::new(D_MINUS, D_PLUS)
    }

    /// The width `hi − lo` of the range (for the paper defaults this is `ε`).
    pub fn uncertainty(&self) -> Duration {
        self.hi - self.lo
    }

    /// The midpoint of the range.
    pub fn mid(&self) -> Duration {
        Duration::from_ps((self.lo.ps() + self.hi.ps()) / 2)
    }

    /// True iff the stronger Theorem 1 premise `ε ≤ d+/7` holds.
    pub fn satisfies_theorem1_constraint(&self) -> bool {
        self.uncertainty().ps() * 7 <= self.hi.ps()
    }

    /// True iff `d` lies inside the closed interval.
    pub fn contains(&self, d: Duration) -> bool {
        self.lo <= d && d <= self.hi
    }
}

/// Timeout parameters of Algorithm 1: the per-link memory timeout range
/// `[T-_link, T+_link]` and the sleep range `[T-_sleep, T+_sleep]`.
///
/// The slack between the bounds models the inaccurate local timers
/// (`T+ = ϑ·T-`). Concrete values satisfying Condition 2 are derived in
/// `hex-theory::condition2`; the [`Timing::paper_scenario_iii`] constructor
/// bakes in the paper's Table 3 row (iii) which is a safe default for 50×20
/// grids with up to 5 faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Memory-flag retention range `[T-_link, T+_link]`.
    pub link: DelayRange,
    /// Sleep duration range `[T-_sleep, T+_sleep]`.
    pub sleep: DelayRange,
}

impl Timing {
    /// Paper Table 3, scenario (iii) row: `T-_link = 35.25 ns`,
    /// `T+_link = 37.01 ns`, `T-_sleep = 90.42 ns`, `T+_sleep = 94.94 ns`.
    pub fn paper_scenario_iii() -> Self {
        Timing {
            link: DelayRange::new(Duration::from_ps(35_250), Duration::from_ps(37_010)),
            sleep: DelayRange::new(Duration::from_ps(90_420), Duration::from_ps(94_940)),
        }
    }

    /// Effectively-infinite timeouts: flags are never forgotten and sleep is
    /// long enough that a node fires at most once. Useful for single-pulse
    /// experiments where the timeout machinery is irrelevant (the paper's
    /// Section 3.1 analysis assumes exactly this regime via (C1)/(C2)).
    pub fn generous() -> Self {
        Timing {
            link: DelayRange::fixed(Duration::from_ps(10_000_000)),
            sleep: DelayRange::fixed(Duration::from_ps(10_000_000)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_consistent() {
        assert_eq!(D_PLUS - D_MINUS, EPSILON);
        let r = DelayRange::paper();
        assert_eq!(r.uncertainty(), EPSILON);
        assert!(r.satisfies_theorem1_constraint()); // 7·1036 = 7252 ≤ 8197
    }

    #[test]
    fn theorem1_constraint_boundary() {
        // ε exactly d+/7.
        let r = DelayRange::new(Duration::from_ps(6_000), Duration::from_ps(7_000));
        assert!(r.satisfies_theorem1_constraint());
        // ε just above d+/7.
        let r2 = DelayRange::new(Duration::from_ps(5_990), Duration::from_ps(7_000));
        assert!(!r2.satisfies_theorem1_constraint());
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn rejects_inverted_range() {
        DelayRange::new(Duration::from_ps(2), Duration::from_ps(1));
    }

    #[test]
    #[should_panic(expected = "not physical")]
    fn rejects_negative_delay() {
        DelayRange::new(Duration::from_ps(-1), Duration::from_ps(1));
    }

    #[test]
    fn contains_and_mid() {
        let r = DelayRange::paper();
        assert!(r.contains(Duration::from_ps(8_000)));
        assert!(!r.contains(Duration::from_ps(9_000)));
        assert_eq!(r.mid().ps(), (7_161 + 8_197) / 2);
    }

    #[test]
    fn paper_table3_iii_drift_ratio() {
        let t = Timing::paper_scenario_iii();
        let ratio = t.link.hi.ps() as f64 / t.link.lo.ps() as f64;
        assert!((ratio - THETA).abs() < 1e-3, "ratio {ratio}");
    }
}
