//! # hex-clock — layer-0 clock sources for HEX
//!
//! The HEX grid needs "synchronized and well-separated" pulses at layer 0
//! (Section 2). The paper's evaluation drives layer 0 with four scripted
//! skew scenarios (Section 4.2) and only cites DARTS / FATAL⁺ [30, 31] for
//! fault-tolerant pulse *generation*. This crate provides the scenarios,
//! the pulse trains built from them, and one small generator:
//!
//! * [`scenario`] — the scripted scenarios (i)–(iv): layer-0 triggering
//!   times all-zero, uniform in `[0, d-]`, uniform in `[0, d+]`, and the
//!   ramp-by-`d+` worst case;
//! * [`multipulse`] — pulse trains with a guaranteed separation time `S`
//!   (Condition 2) for the self-stabilization experiments;
//! * [`pulser`] — a self-contained **f-resilient threshold pulser**
//!   (Srikanth–Toueg-style init/echo thresholds on a fully connected clique,
//!   `n ≥ 3f+1`): a simplified stand-in for FATAL⁺ demonstrating an actual
//!   synchronized multi-source layer 0, end to end.
//!
//! ```
//! use hex_clock::{PulseTrain, Scenario};
//! use hex_des::{Duration, SimRng, Time};
//! use hex_core::{D_MINUS, D_PLUS};
//!
//! // Scenario (iv): layer-0 offsets ramp by d+ per column up to W/2,
//! // then back down (the worst case for the skew potential).
//! let mut rng = SimRng::seed_from_u64(1);
//! let offsets = Scenario::Ramp.single_pulse_times(4, D_MINUS, D_PLUS, &mut rng);
//! assert_eq!(offsets.len(), 4);
//! assert_eq!(offsets[2] - offsets[0], D_PLUS.times(2));
//! assert_eq!(offsets[3], offsets[1]);
//!
//! // A 3-pulse train at 300 ns separation: sorted per column, and
//! // consecutive pulses are at least the separation apart.
//! let train = PulseTrain::new(Scenario::Zero, 3, Duration::from_ns(300.0));
//! let sched = train.generate(4, &mut rng);
//! assert_eq!(sched.pulses(), 3);
//! for col in 0..4 {
//!     let ts = sched.source(col);
//!     assert!(ts.windows(2).all(|w| w[1] - w[0] >= Duration::from_ns(300.0)));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod multipulse;
pub mod pulser;
pub mod scenario;

pub use multipulse::PulseTrain;
pub use pulser::{ThresholdPulser, ThresholdPulserConfig};
pub use scenario::Scenario;
