//! # hex-theory — the worst-case analysis of HEX, executable
//!
//! Closed forms for every bound in Section 3 of the paper, plus the
//! adversarial delay/fault constructions the paper uses to show the bounds
//! are (nearly) tight:
//!
//! * [`bounds`] — `λ₀`, Lemma 3 (skew-potential decay), Lemma 4 (intra-layer
//!   skew recursion), Corollary 1 (width-aware refinement), Theorem 1
//!   (the headline skew bounds), Lemma 5 (coarse faulty-case bound);
//! * [`condition2`] — the timeout/separation parameter derivation
//!   (`T±_link`, `T±_sleep`, `S`) reproducing Table 3 (it lives in
//!   `hex-core::condition2` so the simulator's `RunSpec` can derive
//!   timings without a dependency cycle, and is re-exported here);
//! * [`adversary`] — deterministic worst-case executions: the fault-free
//!   construction of Fig. 5 (dead-node barrier, fast left / slow right) and
//!   the single-Byzantine construction of Fig. 17 (ramp scenario, ≈ 5·d+
//!   neighbor skew);
//! * [`appendix_a`] — the Appendix-A degradation bounds: how much a single
//!   (or `f` separated) Byzantine fault(s) can add to the Theorem-1 skew
//!   bounds, with the `O(d+)` constants made explicit;
//! * [`condition1`] — the Section-3.2 lower bound on the probability that
//!   `f` random faults satisfy Condition 1, and the fault density it
//!   implies;
//! * [`limits`] — the global- and gradient-skew lower bounds the
//!   introduction measures HEX against;
//! * [`search`] — a hill climber over per-link delay tables (and one
//!   Byzantine node's link behaviors) that searches for worst-case
//!   executions by running the simulator.
//!
//! Everything except [`search`] is pure arithmetic on the paper's
//! parameters; the benches and [`search`] cross-check these numbers
//! against simulated executions.
//!
//! ```
//! use hex_core::{DelayRange, D_PLUS};
//! use hex_des::Duration;
//! use hex_theory::{theorem1_intra_bound, Condition2};
//!
//! // Theorem 1, zero layer-0 skew: neighbors on any layer of a W = 20
//! // grid stay within d+ + ⌈W·ε/d+⌉·ε — a little above d+ and
//! // independent of the grid length.
//! let bound = theorem1_intra_bound(20, DelayRange::paper());
//! assert!(bound >= D_PLUS);
//! assert!(bound <= D_PLUS + Duration::from_ns(4.0));
//!
//! // Condition 2 turns a stable skew σ into timeouts and the minimum
//! // pulse separation S (Table 3's derivation).
//! let derived = Condition2::paper(Duration::from_ns(8.0)).derive();
//! assert!(derived.separation > Duration::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod appendix_a;
pub mod bounds;
pub mod condition1;
pub mod limits;
pub mod search;

pub use bounds::{
    inter_layer_envelope, lambda0, lemma3_skew_potential, lemma4_intra_bound, lemma5_pulse_skew,
    theorem1_intra_bound, Theorem1,
};
pub use hex_core::condition2;
pub use hex_core::condition2::Condition2;
