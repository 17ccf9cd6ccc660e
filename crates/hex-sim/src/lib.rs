//! # hex-sim — event-driven execution of HEX pulse propagation
//!
//! This crate replaces the paper's ModelSim/VHDL testbench (Section 4.1): it
//! binds the pure state machines of `hex-core` to the discrete-event engine
//! of `hex-des` and provides everything the evaluation needs:
//!
//! * [`engine::simulate`] — run one configuration: delay control (random or
//!   deterministic per link), fault injection (Byzantine / fail-silent nodes
//!   and stuck-at links), arbitrary initial states for self-stabilization
//!   experiments, and multi-pulse layer-0 schedules;
//! * [`engine::SimScratch`] / [`engine::simulate_into`] — the reusable
//!   per-worker arena behind the batch paths: event queue, node states,
//!   trace and view buffers are recycled across runs, byte-identically to
//!   fresh allocations;
//! * [`trace::Trace`] — the recorded triggering times `t^(k)_{ℓ,i}` with
//!   their trigger causes (left / central / right, Definition 1);
//! * [`trace::PulseView`] / [`trace::assign_pulses`] — the per-pulse
//!   triggering-time matrices the paper's statistics are computed from
//!   (the materialized reference path);
//! * [`observe::RunObserver`] / [`observe::PulseBinner`] — the streaming
//!   extraction path: the engine's fire-recording hook as a sealed
//!   abstraction, with an observer that bins firings to pulses online so
//!   batch statistics never materialize traces or view matrices
//!   ([`engine::simulate_observed_into`], `RunSpec::fold_observed`);
//! * [`spec::RunSpec`] — the declarative experiment vocabulary: grid
//!   shape, layer-0 scenario, fault regime, Table-3 timing, init states,
//!   pulse count and per-run seed policy in one buildable description;
//! * [`batch`] — an embarrassingly-parallel batch runner (`std::thread::
//!   scope` workers, work stealing, deterministic per-run seeding) for the
//!   250-run experiment suites, with a streaming [`batch::run_batch_fold`]
//!   map+reduce path that never materializes a whole batch;
//! * [`vcd`] — waveform export: render any trace as an IEEE-1364 VCD
//!   document for GTKWave-style inspection (the ModelSim-waveform
//!   equivalent of this reproduction).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod canon;
pub mod engine;
pub mod invariants;
pub mod knobs;
pub mod observe;
pub mod soa;
pub mod spec;
pub mod trace;
pub mod vcd;

pub use batch::{run_batch, run_batch_fold, run_batch_fold_with, run_batch_with, Reducer};
pub use engine::{
    simulate, simulate_into, simulate_observed_into, InitState, QueuePolicy, SimConfig, SimScratch,
};
pub use observe::{PulseBinner, RunObserver};
pub use spec::{FaultRegime, RunSpec, RunView, TimingPolicy};
pub use trace::{assign_pulses, assign_pulses_into, PulseView, Trace};
pub use vcd::{vcd_document, VcdOptions};
