//! A fault-tolerant threshold pulser for layer 0.
//!
//! HEX assumes layer-0 nodes "execute a pulse generation algorithm like the
//! one of [30, 31]" (DARTS / FATAL⁺) producing synchronized, well-separated
//! pulses on a fully connected clique despite Byzantine members. FATAL⁺ is a
//! paper-sized system of its own; this module substitutes a classic
//! **Srikanth–Toueg-style threshold pulser**, which provides the same
//! interface guarantee (synchronized pulses with skew ≤ 2·d⁺, separation ≈
//! the round period) under the same resilience bound `n ≥ 3f + 1`:
//!
//! * every node runs a round timer in `[P, ϑ·P]`; on expiry it broadcasts
//!   `PROPOSE`;
//! * a node that has seen `PROPOSE` from `f + 1` distinct nodes joins in
//!   (relay) — at least one of those is correct, so Byzantine nodes alone
//!   can never start a round;
//! * a node that has seen `n − f` distinct `PROPOSE`s **fires a pulse**, then
//!   ignores messages for a cooldown of `3·d⁺` (flushing in-flight round
//!   traffic), clears its round state and restarts its timer.
//!
//! Skew argument: when the first correct node fires at time `t` it has seen
//! `n − f` proposals, at least `n − 2f ≥ f + 1` of them from correct nodes.
//! Those proposals reach every correct node by `t + d⁺`, so every correct
//! node proposes by `t + d⁺` and has seen all `n − f` correct proposals by
//! `t + 2·d⁺` — all correct nodes fire within `[t, t + 2·d⁺]`.
//!
//! The output [`PulserTrace`] converts directly into a layer-0
//! [`Schedule`] for the HEX grid, closing the loop from fault-tolerant
//! pulse *generation* to fault-tolerant pulse *distribution*.

use hex_des::{Duration, EventQueue, Schedule, SimRng, Time};

/// Behaviour of a Byzantine clique member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzBehavior {
    /// Sends nothing, ever (crash).
    Silent,
    /// Broadcasts spurious `PROPOSE`s at random intervals in `[d⁺, P/4]`.
    Spam,
}

/// Configuration of the threshold pulser clique.
#[derive(Debug, Clone)]
pub struct ThresholdPulserConfig {
    /// Clique size `n` (must satisfy `n ≥ 3f + 1`).
    pub n: usize,
    /// Byzantine members and their behaviour.
    pub byzantine: Vec<(usize, ByzBehavior)>,
    /// Minimum message delay `d-` within the clique.
    pub d_minus: Duration,
    /// Maximum message delay `d+` within the clique.
    pub d_plus: Duration,
    /// Minimum round period `P` (the timer lower bound).
    pub period: Duration,
    /// Clock drift bound `ϑ ≥ 1` (timers expire within `[P, ϑ·P]`).
    pub theta: f64,
    /// Stop once every correct node fired this many pulses.
    pub pulses: usize,
}

impl ThresholdPulserConfig {
    /// A fault-free clique of `n` nodes with paper delay defaults, a 100 ns
    /// round period and `ϑ = 1.05`.
    pub fn new(n: usize, pulses: usize) -> Self {
        ThresholdPulserConfig {
            n,
            byzantine: Vec::new(),
            d_minus: hex_core::D_MINUS,
            d_plus: hex_core::D_PLUS,
            period: Duration::from_ns(100.0),
            theta: hex_core::THETA,
            pulses,
        }
    }

    /// Number of declared Byzantine members.
    pub fn f(&self) -> usize {
        self.byzantine.len()
    }

    /// Check the resilience bound `n ≥ 3f + 1`.
    // Kept in the paper's `3f + 1` form rather than clippy's `> 3f`.
    #[allow(clippy::int_plus_one)]
    pub fn resilient(&self) -> bool {
        self.n >= 3 * self.f() + 1
    }
}

/// Pulse times recorded for each clique member (empty for Byzantine ones).
#[derive(Debug, Clone)]
pub struct PulserTrace {
    /// Per-node firing instants.
    pub fires: Vec<Vec<Time>>,
    /// Which nodes were Byzantine.
    pub byzantine: Vec<usize>,
}

impl PulserTrace {
    /// Ids of correct members.
    pub fn correct(&self) -> Vec<usize> {
        (0..self.fires.len())
            .filter(|i| !self.byzantine.contains(i))
            .collect()
    }

    /// Number of complete pulses (fired by *every* correct node).
    pub fn complete_pulses(&self) -> usize {
        self.correct()
            .iter()
            .map(|&i| self.fires[i].len())
            .min()
            .unwrap_or(0)
    }

    /// Skew of pulse `k`: max − min firing time over correct nodes.
    pub fn pulse_skew(&self, k: usize) -> Option<Duration> {
        let times: Vec<Time> = self
            .correct()
            .iter()
            .filter_map(|&i| self.fires[i].get(k))
            .copied()
            .collect();
        if times.len() != self.correct().len() {
            return None;
        }
        Some(*times.iter().max()? - *times.iter().min()?)
    }

    /// Convert into a layer-0 [`Schedule`] for a width-`w` HEX grid by
    /// assigning clique members round-robin to columns (Byzantine members'
    /// columns get no schedule entries — they appear as mute sources, which
    /// HEX tolerates).
    ///
    /// # Panics
    ///
    /// Panics if `w` exceeds the clique size.
    pub fn to_layer0_schedule(&self, w: u32, pulses: usize) -> Schedule {
        assert!(
            (w as usize) <= self.fires.len(),
            "grid width {w} exceeds clique size {}",
            self.fires.len()
        );
        let per_source: Vec<Vec<Time>> = (0..w as usize)
            .map(|i| {
                if self.byzantine.contains(&i) {
                    Vec::new()
                } else {
                    self.fires[i].iter().take(pulses).copied().collect()
                }
            })
            .collect();
        Schedule::new(per_source)
    }
}

#[derive(Debug, Clone)]
enum Ev {
    /// Round timer of `node` (epoch-tagged) expired.
    Timer { node: usize, epoch: u32 },
    /// `PROPOSE` from `from` arrives at `to`.
    Deliver { from: usize, to: usize },
    /// Cooldown of `node` (epoch-tagged) ended.
    CooldownEnd { node: usize, epoch: u32 },
    /// A spamming Byzantine node emits another spurious proposal.
    Spam { node: usize },
}

struct MemberState {
    proposed: bool,
    seen: Vec<bool>,
    cooldown: bool,
    timer_epoch: u32,
    cooldown_epoch: u32,
    fires: Vec<Time>,
}

/// The threshold pulser simulator.
#[derive(Debug)]
pub struct ThresholdPulser {
    cfg: ThresholdPulserConfig,
}

impl ThresholdPulser {
    /// Create a pulser from a config.
    ///
    /// # Panics
    ///
    /// Panics if the resilience bound `n ≥ 3f + 1` is violated or a
    /// Byzantine id is out of range.
    pub fn new(cfg: ThresholdPulserConfig) -> Self {
        assert!(
            cfg.resilient(),
            "need n ≥ 3f+1, got n = {}, f = {}",
            cfg.n,
            cfg.f()
        );
        for &(b, _) in &cfg.byzantine {
            assert!(b < cfg.n, "byzantine id {b} out of range");
        }
        assert!(cfg.theta >= 1.0);
        ThresholdPulser { cfg }
    }

    /// Run the clique until every correct node fired `pulses` times (or the
    /// event queue runs dry, which cannot happen for a resilient config).
    pub fn run(&self, rng: &mut SimRng) -> PulserTrace {
        let cfg = &self.cfg;
        let n = cfg.n;
        let f = cfg.f();
        let byz_ids: Vec<usize> = cfg.byzantine.iter().map(|&(b, _)| b).collect();
        let is_byz = |i: usize| byz_ids.contains(&i);

        let mut q: EventQueue<Ev> = EventQueue::new();
        let mut st: Vec<MemberState> = (0..n)
            .map(|_| MemberState {
                proposed: false,
                seen: vec![false; n],
                cooldown: false,
                timer_epoch: 0,
                cooldown_epoch: 0,
                fires: Vec::new(),
            })
            .collect();

        // Correct nodes arm their first round timer with a small start
        // jitter; spamming Byzantine nodes schedule their first spam.
        for i in 0..n {
            if is_byz(i) {
                if let Some(&(_, ByzBehavior::Spam)) = cfg.byzantine.iter().find(|&&(b, _)| b == i)
                {
                    let at = Time::ZERO + rng.duration_in(cfg.d_plus, cfg.period / 4);
                    q.push(at, Ev::Spam { node: i });
                }
            } else {
                let dur = rng.duration_in(cfg.period, cfg.period.scale(cfg.theta));
                let jitter = rng.duration_in(Duration::ZERO, cfg.d_plus);
                q.push(Time::ZERO + jitter + dur, Ev::Timer { node: i, epoch: 0 });
            }
        }

        let relay_threshold = f + 1;
        let fire_threshold = n - f;

        // Broadcast helper is inlined at call sites to appease the borrow
        // checker: pushing onto `q` while holding `st` borrows is fine since
        // they are disjoint.
        let mut done = false;
        while !done {
            let ev = match q.pop() {
                Some(e) => e,
                None => break,
            };
            let now = ev.at;
            match ev.payload {
                Ev::Timer { node, epoch } => {
                    let s = &mut st[node];
                    if s.timer_epoch != epoch || s.cooldown || s.proposed {
                        continue;
                    }
                    propose(node, now, &mut st, &mut q, cfg, rng, fire_threshold);
                }
                Ev::Deliver { from, to } => {
                    if is_byz(to) {
                        continue;
                    }
                    if st[to].cooldown {
                        continue;
                    }
                    st[to].seen[from] = true;
                    let count = st[to].seen.iter().filter(|&&b| b).count();
                    if count >= relay_threshold && !st[to].proposed {
                        propose(to, now, &mut st, &mut q, cfg, rng, fire_threshold);
                    } else if count >= fire_threshold {
                        fire(to, now, &mut st, &mut q, cfg);
                    }
                }
                Ev::CooldownEnd { node, epoch } => {
                    let s = &mut st[node];
                    if s.cooldown_epoch != epoch || !s.cooldown {
                        continue;
                    }
                    s.cooldown = false;
                    s.proposed = false;
                    s.seen.iter_mut().for_each(|b| *b = false);
                    s.timer_epoch += 1;
                    let dur = rng.duration_in(cfg.period, cfg.period.scale(cfg.theta));
                    q.push(
                        now + dur,
                        Ev::Timer {
                            node,
                            epoch: s.timer_epoch,
                        },
                    );
                }
                Ev::Spam { node } => {
                    for to in 0..n {
                        if to != node {
                            let d = rng.duration_in(cfg.d_minus, cfg.d_plus);
                            q.push(now + d, Ev::Deliver { from: node, to });
                        }
                    }
                    let gap = rng.duration_in(cfg.d_plus, cfg.period / 4);
                    q.push(now + gap, Ev::Spam { node });
                }
            }
            done = (0..n)
                .filter(|&i| !is_byz(i))
                .all(|i| st[i].fires.len() >= cfg.pulses);
        }

        PulserTrace {
            fires: st.into_iter().map(|s| s.fires).collect(),
            byzantine: byz_ids,
        }
    }
}

/// Broadcast `PROPOSE` from `node` and handle the self-proposal (which may
/// immediately reach the fire threshold in tiny cliques).
fn propose(
    node: usize,
    now: Time,
    st: &mut [MemberState],
    q: &mut EventQueue<Ev>,
    cfg: &ThresholdPulserConfig,
    rng: &mut SimRng,
    fire_threshold: usize,
) {
    st[node].proposed = true;
    st[node].seen[node] = true;
    for to in 0..cfg.n {
        if to != node {
            let d = rng.duration_in(cfg.d_minus, cfg.d_plus);
            q.push(now + d, Ev::Deliver { from: node, to });
        }
    }
    let count = st[node].seen.iter().filter(|&&b| b).count();
    if count >= fire_threshold {
        fire(node, now, st, q, cfg);
    }
}

/// Record a pulse at `node` and enter cooldown.
fn fire(
    node: usize,
    now: Time,
    st: &mut [MemberState],
    q: &mut EventQueue<Ev>,
    cfg: &ThresholdPulserConfig,
) {
    let s = &mut st[node];
    s.fires.push(now);
    s.cooldown = true;
    s.cooldown_epoch += 1;
    q.push(
        now + cfg.d_plus * 3,
        Ev::CooldownEnd {
            node,
            epoch: s.cooldown_epoch,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skew_bound(cfg: &ThresholdPulserConfig) -> Duration {
        cfg.d_plus * 2
    }

    #[test]
    fn fault_free_clique_synchronizes() {
        let cfg = ThresholdPulserConfig::new(7, 5);
        let pulser = ThresholdPulser::new(cfg.clone());
        let mut rng = SimRng::seed_from_u64(1);
        let trace = pulser.run(&mut rng);
        assert!(trace.complete_pulses() >= 5);
        for k in 0..5 {
            let skew = trace.pulse_skew(k).expect("complete pulse");
            assert!(skew <= skew_bound(&cfg), "pulse {k} skew {skew:?} > 2d+");
        }
    }

    #[test]
    fn pulses_are_separated() {
        let cfg = ThresholdPulserConfig::new(4, 6);
        let pulser = ThresholdPulser::new(cfg.clone());
        let mut rng = SimRng::seed_from_u64(2);
        let trace = pulser.run(&mut rng);
        for &i in &trace.correct() {
            for w in trace.fires[i].windows(2) {
                // Separation at a node is at least the cooldown; in practice
                // ≈ period. Require at least half the period as a sanity
                // floor (threshold cascades can fire before the slowest
                // timer).
                assert!(
                    w[1] - w[0] >= cfg.period / 2,
                    "node {i} pulses too close: {:?}",
                    w[1] - w[0]
                );
            }
        }
    }

    #[test]
    fn tolerates_silent_byzantine() {
        let mut cfg = ThresholdPulserConfig::new(7, 4);
        cfg.byzantine = vec![(2, ByzBehavior::Silent), (5, ByzBehavior::Silent)];
        let pulser = ThresholdPulser::new(cfg.clone());
        let mut rng = SimRng::seed_from_u64(3);
        let trace = pulser.run(&mut rng);
        assert!(trace.complete_pulses() >= 4);
        for k in 0..4 {
            assert!(trace.pulse_skew(k).unwrap() <= skew_bound(&cfg));
        }
    }

    #[test]
    fn tolerates_spamming_byzantine() {
        let mut cfg = ThresholdPulserConfig::new(7, 4);
        cfg.byzantine = vec![(0, ByzBehavior::Spam), (3, ByzBehavior::Spam)];
        let pulser = ThresholdPulser::new(cfg.clone());
        let mut rng = SimRng::seed_from_u64(4);
        let trace = pulser.run(&mut rng);
        assert!(trace.complete_pulses() >= 4);
        for k in 0..4 {
            let skew = trace.pulse_skew(k).unwrap();
            assert!(skew <= skew_bound(&cfg), "pulse {k} skew {skew:?}");
        }
    }

    #[test]
    #[should_panic(expected = "need n ≥ 3f+1")]
    fn rejects_insufficient_resilience() {
        let mut cfg = ThresholdPulserConfig::new(6, 1);
        cfg.byzantine = vec![(0, ByzBehavior::Silent), (1, ByzBehavior::Silent)];
        ThresholdPulser::new(cfg);
    }

    #[test]
    fn schedule_conversion() {
        let cfg = ThresholdPulserConfig::new(8, 3);
        let pulser = ThresholdPulser::new(cfg);
        let mut rng = SimRng::seed_from_u64(5);
        let trace = pulser.run(&mut rng);
        let sched = trace.to_layer0_schedule(8, 3);
        assert_eq!(sched.sources(), 8);
        assert_eq!(sched.pulses(), 3);
    }

    #[test]
    fn schedule_conversion_with_mute_byzantine_column() {
        let mut cfg = ThresholdPulserConfig::new(8, 3);
        cfg.byzantine = vec![(1, ByzBehavior::Silent)];
        let pulser = ThresholdPulser::new(cfg);
        let mut rng = SimRng::seed_from_u64(6);
        let trace = pulser.run(&mut rng);
        let sched = trace.to_layer0_schedule(8, 3);
        assert!(sched.source(1).is_empty()); // mute source column
        assert_eq!(sched.source(0).len(), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ThresholdPulserConfig::new(5, 3);
        let run = |seed| {
            let pulser = ThresholdPulser::new(cfg.clone());
            let mut rng = SimRng::seed_from_u64(seed);
            pulser.run(&mut rng).fires
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
