//! # hex-core — the HEX grid and its pulse-forwarding algorithm
//!
//! This crate implements the paper's primary contribution (Dolev, Függer,
//! Lenzen, Perner, Schmid: *HEX — scaling honeycombs is easier than scaling
//! clock trees*, SPAA'13 / JCSS'16):
//!
//! * the **cylindric hexagonal grid topology** of Section 2 / Fig. 1
//!   ([`grid::HexGrid`], built on the generic [`graph::PulseGraph`] so that
//!   the Section-5 topology variants reuse the same machinery);
//! * the **HEX pulse forwarding algorithm** (Algorithm 1) as the two
//!   asynchronous state machines of Fig. 7 — the three-state firing machine
//!   and the per-link memory-flag machine with timeout ([`node`]);
//! * the **system model parameters** — link delays in `[d-, d+]`, timeouts
//!   in `[T-, ϑ·T-]` ([`params`], [`delay`]);
//! * the **fault model** of Section 3.2 — Byzantine (per-link stuck-at-0/1)
//!   and fail-silent nodes, plus Condition 1 (fault separation) checking and
//!   uniformly-random constrained placement ([`fault`]);
//! * the **Condition-2 timeout derivation** reproducing the paper's Table 3
//!   ([`condition2`]; re-exported by `hex-theory` next to the other bounds).
//!
//! The actual event-driven execution lives in `hex-sim`; this crate is pure
//! data + transition logic and is fully unit-testable without a simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod condition2;
pub mod coord;
pub mod delay;
pub mod embedding;
pub mod fault;
pub mod graph;
pub mod grid;
pub mod node;
pub mod params;

pub use condition2::{Condition2, DerivedTiming};
pub use coord::{cyclic_distance, Coord};
pub use delay::{DelayModel, SpatialVariation};
pub use fault::{
    FaultEvent, FaultPlan, FaultScript, FaultTransition, LinkBehavior, NodeFault, RejoinState,
};
pub use graph::{LinkId, NodeId, PulseGraph, Role};
pub use grid::HexGrid;
pub use node::{FiringState, NodeState, TriggerCause};
pub use params::{DelayRange, Timing, D_MINUS, D_PLUS, EPSILON, THETA};
