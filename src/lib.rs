//! # hexclock — Byzantine fault-tolerant, self-stabilizing clock
//! distribution on a hexagonal grid
//!
//! A faithful, production-quality Rust reproduction of
//!
//! > D. Dolev, M. Függer, C. Lenzen, M. Perner, U. Schmid:
//! > *HEX: Scaling honeycombs is easier than scaling clock trees*,
//! > SPAA 2013 / Journal of Computer and System Sciences 82 (2016).
//!
//! HEX distributes clock pulses from a row of synchronized sources through
//! a cylindric hexagonal grid of tiny forwarding nodes. Each node fires as
//! soon as two *adjacent* in-neighbors have delivered the pulse, then
//! sleeps and forgets; memory flags expire on their own, which makes the
//! whole fabric self-stabilizing even under persistent Byzantine faults.
//!
//! This crate is the facade over the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`des`] (`hex-des`) | deterministic discrete-event engine, ps time |
//! | [`core`] (`hex-core`) | grid topology, node state machines, faults |
//! | [`clock`] (`hex-clock`) | layer-0 scenarios, pulse trains, FT pulser |
//! | [`sim`] (`hex-sim`) | simulator, traces, `RunSpec` experiment builder, parallel batch runner |
//! | [`analysis`] (`hex-analysis`) | skews, histograms, stabilization, causal paths |
//! | [`theory`] (`hex-theory`) | Theorem 1 / Lemmas 2–5 / Condition 2, adversarial constructions |
//! | [`tree`] (`hex-tree`) | buffered H-tree baseline |
//! | [`topo`] (`hex-topo`) | doubling layers, augmented grid, frequency multiplication |
//! | [`serve`] (`hex-serve`) | `hexd` sweep daemon: canonical spec hashing, memoized result cache |
//!
//! ## Quickstart
//!
//! Experiments are described by the [`sim::RunSpec`] builder — grid shape,
//! layer-0 scenario, fault regime, Table-3 timing, initial states, pulse
//! count and the per-run seed policy in one value:
//!
//! ```
//! use hexclock::prelude::*;
//!
//! // One zero-skew pulse through the paper's 50×20 grid, paper delays.
//! let spec = RunSpec::grid(50, 20).scenario(Scenario::Zero).seed(42);
//! let rv = spec.run_single();
//!
//! // Every node forwards the pulse exactly once...
//! let grid = spec.hex_grid();
//! assert!(rv.view().complete_except(&grid, &[]));
//!
//! // ...and neighbor skews stay below the Theorem-1 worst case.
//! let mask = exclusion_mask(&grid, &[], 0);
//! let skews = collect_skews(&grid, rv.view(), &mask);
//! let bound = theorem1_intra_bound(grid.width(), DelayRange::paper());
//! assert!(skews.intra.iter().all(|&s| s <= bound));
//! ```
//!
//! Whole batches stream their reduction on the worker threads — the 250-run
//! Table-1 row for scenario (iii) with one Byzantine node per run is:
//!
//! ```no_run
//! use hexclock::prelude::*;
//!
//! let spec = RunSpec::paper()
//!     .scenario(Scenario::RandomDPlus)
//!     .faults(FaultRegime::Byzantine(1));
//! let skews = batch_skews(&spec, 0); // streaming observers: no traces, no views
//! let intra = Summary::from_durations(&skews.cumulated.intra).unwrap();
//! println!("intra avg/q95/max: {}", intra.intra_row());
//! ```
//!
//! `batch_skews` rides the **streaming observer path**: the engine bins
//! every firing to its pulse online ([`sim::PulseBinner`]) and the skew
//! reduction folds straight off the binner slots
//! ([`sim::RunSpec::fold_observed`]). The result equals the paper's
//! definition applied to each run's materialized `PulseView`, which
//! [`sim::RunSpec::run_batch`] still returns:
//!
//! ```
//! use hexclock::prelude::*;
//!
//! let spec = RunSpec::grid(8, 6).runs(3).seed(1);
//! let grid = spec.hex_grid();
//! let streamed = spec.fold_observed(&ObservedSkewReducer::new(&grid, 0));
//! let mut reference = SkewSamples::default();
//! for rv in spec.run_batch() {
//!     let mask = exclusion_mask(&grid, &rv.faulty, 0);
//!     reference.extend(&collect_skews(&grid, rv.view(), &mask));
//! }
//! assert_eq!(streamed.cumulated.intra, reference.intra);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hex_analysis as analysis;
pub use hex_clock as clock;
pub use hex_core as core;
pub use hex_des as des;
pub use hex_serve as serve;
pub use hex_sim as sim;
pub use hex_theory as theory;
pub use hex_topo as topo;
pub use hex_tree as tree;

/// One-stop imports for the common simulation workflow.
pub mod prelude {
    pub use hex_analysis::emit::{Emitter, Table, Value};
    pub use hex_analysis::reduce::{
        batch_skews, campaign_restabilization, BatchSkews, ObservedRestabilizationReducer,
        ObservedSkewReducer, ObservedStabilizationReducer,
    };
    pub use hex_analysis::skew::{collect_skews, exclusion_mask, SkewSamples};
    pub use hex_analysis::stabilization::{
        campaign_summary_table, summarize_campaign, CampaignStats, DisturbanceStats,
        Restabilization,
    };
    pub use hex_analysis::stats::Summary;
    pub use hex_clock::{PulseTrain, Scenario};
    pub use hex_core::{
        DelayModel, DelayRange, FaultEvent, FaultPlan, FaultScript, FaultTransition, HexGrid,
        LinkBehavior, NodeFault, RejoinState, Timing, D_MINUS, D_PLUS, EPSILON,
    };
    pub use hex_des::{CalendarQueue, Duration, EventQueue, Schedule, SimRng, Time};
    pub use hex_sim::{
        assign_pulses, run_batch, run_batch_fold, run_batch_fold_with, simulate, simulate_into,
        simulate_observed_into, FaultRegime, InitState, PulseBinner, PulseView, Reducer,
        RunObserver, RunSpec, RunView, SimConfig, SimScratch, TimingPolicy,
    };
    pub use hex_theory::{theorem1_intra_bound, Condition2};
}
