//! Multi-pulse layer-0 schedules.
//!
//! Condition 2 requires a **pulse separation time** `S`: for all `k`,
//! `t_min^(k+1) ≥ t_max^(k) + S`. A [`PulseTrain`] realizes this by spacing
//! pulse base times `S + max_offset(scenario)` apart, so the bound holds for
//! *any* draw of the scenario offsets. This is what the stabilization
//! experiments (Section 4.4) feed into layer 0.

use hex_des::{Duration, Schedule, SimRng, Time};

use crate::scenario::Scenario;

/// A train of `pulses` layer-0 pulses with separation `S` under a given
/// skew scenario.
#[derive(Debug, Clone)]
pub struct PulseTrain {
    /// Skew scenario applied to each pulse.
    pub scenario: Scenario,
    /// Number of pulses to generate.
    pub pulses: usize,
    /// Pulse separation time `S` (Condition 2).
    pub separation: Duration,
    /// Base time of the first pulse.
    pub start: Time,
    /// Minimum link delay `d-` (scenario parameter).
    pub d_minus: Duration,
    /// Maximum link delay `d+` (scenario parameter).
    pub d_plus: Duration,
}

impl PulseTrain {
    /// A train with paper delay defaults, fixed offsets, starting at 0.
    pub fn new(scenario: Scenario, pulses: usize, separation: Duration) -> Self {
        PulseTrain {
            scenario,
            pulses,
            separation,
            start: Time::ZERO,
            d_minus: hex_core::D_MINUS,
            d_plus: hex_core::D_PLUS,
        }
    }

    /// The period between pulse base times: `S + max_offset`, which
    /// guarantees `t_min^(k+1) − t_max^(k) ≥ S` for any offset draw.
    pub fn period(&self, w: u32) -> Duration {
        self.separation + self.scenario.max_offset(w, self.d_minus, self.d_plus)
    }

    /// Generate the schedule for `w` layer-0 sources. The offsets are
    /// drawn once and reused for every pulse (a fixed source skew pattern,
    /// which is what a real layer-0 clock generation scheme with a static
    /// topology produces).
    ///
    /// # Panics
    ///
    /// Panics if `pulses == 0` or the separation is not positive.
    pub fn generate(&self, w: u32, rng: &mut SimRng) -> Schedule {
        assert!(self.pulses > 0, "need at least one pulse");
        assert!(
            self.separation.is_positive(),
            "separation must be positive, got {:?}",
            self.separation
        );
        let period = self.period(w);
        let mut per_source: Vec<Vec<Time>> = vec![Vec::with_capacity(self.pulses); w as usize];
        let offsets = self.scenario.offsets(w, self.d_minus, self.d_plus, rng);
        for k in 0..self.pulses {
            let base = self.start + period.times(k as i64);
            for (i, &off) in offsets.iter().enumerate() {
                per_source[i].push(base + off);
            }
        }
        Schedule::new(per_source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sep() -> Duration {
        Duration::from_ns(278.14) // paper Table 3 row (iii)
    }

    #[test]
    fn respects_separation() {
        let mut rng = SimRng::seed_from_u64(1);
        for sc in Scenario::ALL {
            let train = PulseTrain::new(sc, 10, sep());
            let s = train.generate(20, &mut rng);
            assert_eq!(s.sources(), 20);
            assert_eq!(s.pulses(), 10);
            let min_sep = s.min_separation().unwrap();
            assert!(
                min_sep >= sep(),
                "{}: separation {:?} < S {:?}",
                sc.label(),
                min_sep,
                sep()
            );
        }
    }

    #[test]
    fn fixed_offsets_repeat_exactly() {
        let mut rng = SimRng::seed_from_u64(2);
        let train = PulseTrain::new(Scenario::RandomDPlus, 3, sep());
        let s = train.generate(20, &mut rng);
        let period = train.period(20);
        for i in 0..20 {
            let ts = s.source(i);
            assert_eq!(ts[1] - ts[0], period);
            assert_eq!(ts[2] - ts[1], period);
        }
    }

    #[test]
    #[should_panic(expected = "at least one pulse")]
    fn rejects_zero_pulses() {
        let mut rng = SimRng::seed_from_u64(4);
        PulseTrain::new(Scenario::Zero, 0, sep()).generate(4, &mut rng);
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// For any scenario/seed/width, the realized min separation honors S.
        #[test]
        fn prop_separation_honored(seed in any::<u64>(), w in 3u32..24, pulses in 2usize..8) {
            let mut rng = SimRng::seed_from_u64(seed);
            for sc in Scenario::ALL {
                let train = PulseTrain::new(sc, pulses, sep());
                let s = train.generate(w, &mut rng);
                prop_assert!(s.min_separation().unwrap() >= sep());
            }
        }

        /// Every source gets exactly `pulses` strictly increasing instants.
        #[test]
        fn prop_schedule_shape(seed in any::<u64>(), w in 3u32..16, pulses in 1usize..6) {
            let mut rng = SimRng::seed_from_u64(seed);
            let train = PulseTrain::new(Scenario::Ramp, pulses, sep());
            let s = train.generate(w, &mut rng);
            for i in 0..w as usize {
                prop_assert_eq!(s.source(i).len(), pulses);
            }
        }
    }
}
