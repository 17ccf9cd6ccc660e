//! # hex-analysis — the evaluation pipeline of the HEX paper
//!
//! Replaces the authors' Haskell post-processing infrastructure
//! (Section 4.1): everything between raw simulation traces and the numbers
//! printed in the paper's tables and figures.
//!
//! * [`stats`] — order statistics (`min`, `q5`, `avg`, `q95`, `max`, std)
//!   over skew samples;
//! * [`skew`] — Definition-3 intra-/inter-layer skew extraction from
//!   per-pulse triggering-time matrices, with fault/h-hop exclusion
//!   (Figs. 15/16's `h` parameter);
//! * [`histogram`] — cumulated skew histograms (Figs. 10/11);
//! * [`layers`] — per-layer inter-layer skew series (Fig. 12);
//! * [`boxplot`] — per-run distribution summaries (Figs. 15/16);
//! * [`stabilization`] — the stabilization-time estimator of Section 4.4
//!   (minimal pulse from which all layer skews persistently satisfy a
//!   layer-dependent bound);
//! * [`causal`] — Definition 1/2 machinery: trigger-cause classification,
//!   left zig-zag path construction, and executable checks of Lemma 1 and
//!   Lemma 2 against simulated executions;
//! * [`causal_faulty`] — the Appendix-A fault-avoiding variant of the same
//!   machinery: evasion steps around Byzantine nodes, target-column shifts,
//!   and the relaxed (`O(d+)`-slack) Lemma 2 check;
//! * [`crash`] — crash-cluster geometry (Section 3.2): exact starvation
//!   shadows of dead sets, measured starved sets, hop-distance classes for
//!   blast-radius plots;
//! * [`wave`] — rendering of pulse waves (Figs. 8/9/13/14) as ASCII relief
//!   and per-layer wave fronts;
//! * [`reduce`] — streaming batch reductions: [`hex_sim::batch::Reducer`]
//!   implementations ([`reduce::ObservedSkewReducer`],
//!   [`reduce::ObservedStabilizationReducer`],
//!   [`reduce::ObservedRestabilizationReducer`]) that turn a
//!   [`hex_sim::RunSpec`] batch into [`reduce::BatchSkews`] or
//!   stabilization estimates on the worker threads via
//!   [`hex_sim::RunSpec::fold_observed`]: statistics accumulate online as
//!   fires happen, with no per-run trace or [`hex_sim::PulseView`]
//!   matrices at all. The per-view functions of [`skew`] and
//!   [`stabilization`] stay as their reference;
//! * [`emit`] — shared machine-readable output (CSV/JSON tables gated by
//!   `HEX_EMIT`) for all experiment drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boxplot;
pub mod causal;
pub mod causal_faulty;
pub mod checker;
pub mod crash;
pub mod emit;
pub mod histogram;
pub mod layers;
pub mod reduce;
pub mod skew;
pub mod stabilization;
pub mod stats;
pub mod wave;

pub use emit::{Emitter, Table, Value};
pub use reduce::{
    batch_skews, campaign_restabilization, BatchSkews, ObservedRestabilizationReducer,
    ObservedSkewReducer, ObservedStabilizationReducer,
};
pub use skew::{collect_skews, exclusion_mask, SkewSamples};
pub use stabilization::{
    campaign_summary_table, restabilization_observed, summarize_campaign, CampaignStats,
    DisturbanceStats, Restabilization,
};
pub use stats::{total_f64, Summary};
