//! Link-delay models.
//!
//! The paper's simulation framework supports "both random delays (uniform
//! within `[d-, d+]`) and deterministic delays" (Section 4.1, item 3). The
//! deterministic mode is what the worst-case constructions of Fig. 5 and
//! Fig. 17 use. We additionally support per-link fixed-but-random delays
//! (delay variation from routing, stable within a run), useful for
//! sensitivity studies.

use hex_des::{Duration, SimRng};

use crate::graph::{LinkId, PulseGraph};
use crate::params::DelayRange;

/// How link delays are drawn.
#[derive(Debug, Clone)]
pub enum DelayModel {
    /// Every message on every link independently uniform in the range
    /// (the paper's default random mode).
    UniformPerMessage(DelayRange),
    /// Each link gets one uniform draw at simulation start; all messages on
    /// that link share it (static process variation).
    UniformPerLink(DelayRange),
    /// Explicit per-link delays (adversarial / worst-case constructions).
    /// Indexed by [`LinkId`]; must cover every link of the graph.
    PerLinkFixed(Vec<Duration>),
    /// A single constant delay for everything.
    Fixed(Duration),
    /// Spatially correlated static variation (process gradients across the
    /// die): per-link delays are drawn once, positioned inside the range by
    /// a smooth function of the link's location plus bounded local jitter.
    /// All delays stay within the range, so every `[d−, d+]` theorem still
    /// applies; what changes is the *correlation structure*, which iid
    /// sampling cannot express. See [`SpatialVariation`].
    Spatial(SpatialVariation),
}

/// Parameters of the spatially correlated delay model.
///
/// The fraction of the delay range a link sits at is
///
/// ```text
/// frac = 0.5 + layer_gradient · (layer/L − 0.5)
///            + column_wave    · cos(2π·col/W) / 2
///            + jitter         · U(−0.5, 0.5)
/// ```
///
/// clamped to `[0, 1]` (positions are the link midpoint; the column term is
/// periodic, matching the cylinder). `layer_gradient = column_wave =
/// jitter = 0` degenerates to the range midpoint everywhere;
/// `jitter = 1` with zero gradients approximates `UniformPerLink`.
#[derive(Debug, Clone, Copy)]
pub struct SpatialVariation {
    /// Delay interval every link stays inside.
    pub range: DelayRange,
    /// Strength of the bottom-to-top (layer) gradient, in range fractions.
    pub layer_gradient: f64,
    /// Strength of the periodic around-the-cylinder variation.
    pub column_wave: f64,
    /// Per-link iid jitter amplitude on top of the smooth field.
    pub jitter: f64,
}

impl SpatialVariation {
    /// The delay of a link whose midpoint sits at normalized position
    /// `(layer_frac, col_frac) ∈ [0, 1]²`, with `u ∈ [−0.5, 0.5]` the
    /// link's jitter draw.
    pub fn delay_at(&self, layer_frac: f64, col_frac: f64, u: f64) -> Duration {
        let frac = 0.5
            + self.layer_gradient * (layer_frac - 0.5)
            + self.column_wave * 0.5 * (std::f64::consts::TAU * col_frac).cos()
            + self.jitter * u;
        let frac = frac.clamp(0.0, 1.0);
        let span = (self.range.hi - self.range.lo).ps() as f64;
        self.range.lo + Duration::from_ps((frac * span).round() as i64)
    }
}

impl DelayModel {
    /// The paper's default: per-message uniform in `[7.161, 8.197] ns`.
    pub fn paper() -> Self {
        DelayModel::UniformPerMessage(DelayRange::paper())
    }

    /// The delay interval `[lo, hi]` this model guarantees (smallest
    /// enclosing interval for `PerLinkFixed`). Used to cross-check theory
    /// bounds against the configured model.
    pub fn envelope(&self) -> DelayRange {
        match self {
            DelayModel::UniformPerMessage(r) | DelayModel::UniformPerLink(r) => *r,
            DelayModel::Spatial(v) => v.range,
            DelayModel::Fixed(d) => DelayRange::fixed(*d),
            DelayModel::PerLinkFixed(ds) => {
                assert!(!ds.is_empty(), "empty per-link delay table");
                let lo = ds.iter().copied().min().unwrap();
                let hi = ds.iter().copied().max().unwrap();
                DelayRange::new(lo, hi)
            }
        }
    }

    /// Resolve the model against a graph into a sampler usable by the
    /// simulator. Per-link draws happen here (once per run).
    pub fn resolve(&self, graph: &PulseGraph, rng: &mut SimRng) -> ResolvedDelays {
        match self {
            DelayModel::UniformPerMessage(r) => ResolvedDelays::PerMessage(*r),
            DelayModel::Fixed(d) => ResolvedDelays::Table(vec![*d; graph.link_count()]),
            DelayModel::UniformPerLink(r) => {
                let table = (0..graph.link_count())
                    .map(|_| rng.duration_in(r.lo, r.hi))
                    .collect();
                ResolvedDelays::Table(table)
            }
            DelayModel::PerLinkFixed(ds) => {
                assert_eq!(
                    ds.len(),
                    graph.link_count(),
                    "per-link delay table covers {} links, graph has {}",
                    ds.len(),
                    graph.link_count()
                );
                ResolvedDelays::Table(ds.clone())
            }
            DelayModel::Spatial(v) => {
                let max_layer = graph
                    .node_ids()
                    .filter_map(|n| graph.coord(n))
                    .map(|c| c.layer)
                    .max()
                    .unwrap_or(1)
                    .max(1) as f64;
                let width = graph
                    .node_ids()
                    .filter_map(|n| graph.coord(n))
                    .map(|c| c.col + 1)
                    .max()
                    .unwrap_or(1)
                    .max(1) as f64;
                let table = (0..graph.link_count() as LinkId)
                    .map(|l| {
                        let link = graph.link(l);
                        let (lf, cf) = match (graph.coord(link.src), graph.coord(link.dst)) {
                            (Some(a), Some(b)) => (
                                (a.layer + b.layer) as f64 / (2.0 * max_layer),
                                // Midpoint on the cyclic column axis: use
                                // the source's column (adjacent columns
                                // differ by at most one slot, well below
                                // the wave's scale).
                                a.col.min(b.col) as f64 / width,
                            ),
                            _ => (0.5, 0.5),
                        };
                        v.delay_at(lf, cf, rng.unit() - 0.5)
                    })
                    .collect();
                ResolvedDelays::Table(table)
            }
        }
    }
}

/// A run-ready delay sampler.
#[derive(Debug, Clone)]
pub enum ResolvedDelays {
    /// Sample fresh per message.
    PerMessage(DelayRange),
    /// Fixed per-link table.
    Table(Vec<Duration>),
}

impl ResolvedDelays {
    /// The delay of the next message on `link`.
    #[inline]
    pub fn sample(&self, link: LinkId, rng: &mut SimRng) -> Duration {
        match self {
            ResolvedDelays::PerMessage(r) => rng.duration_in(r.lo, r.hi),
            ResolvedDelays::Table(t) => t[link as usize],
        }
    }
}

/// Convenience builder for adversarial constructions: start from a constant
/// delay and override individual links.
#[derive(Debug, Clone)]
pub struct DelayTableBuilder {
    table: Vec<Duration>,
}

impl DelayTableBuilder {
    /// All links start at `default` (typically `d+` or `d-`).
    pub fn new(graph: &PulseGraph, default: Duration) -> Self {
        DelayTableBuilder {
            table: vec![default; graph.link_count()],
        }
    }

    /// Override one link's delay.
    pub fn set(&mut self, link: LinkId, delay: Duration) -> &mut Self {
        self.table[link as usize] = delay;
        self
    }

    /// Finish into a [`DelayModel::PerLinkFixed`].
    pub fn build(self) -> DelayModel {
        DelayModel::PerLinkFixed(self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::HexGrid;
    use crate::params::{D_MINUS, D_PLUS};

    #[test]
    fn envelope_of_models() {
        assert_eq!(DelayModel::paper().envelope(), DelayRange::paper());
        assert_eq!(
            DelayModel::Fixed(D_PLUS).envelope(),
            DelayRange::fixed(D_PLUS)
        );
        let m = DelayModel::PerLinkFixed(vec![D_MINUS, D_PLUS, D_MINUS]);
        assert_eq!(m.envelope(), DelayRange::paper());
    }

    #[test]
    fn per_message_sampling_in_range() {
        let g = HexGrid::new(2, 4);
        let mut rng = SimRng::seed_from_u64(1);
        let resolved = DelayModel::paper().resolve(g.graph(), &mut rng);
        for l in 0..g.graph().link_count() as u32 {
            for _ in 0..4 {
                let d = resolved.sample(l, &mut rng);
                assert!(DelayRange::paper().contains(d), "{d:?}");
            }
        }
    }

    #[test]
    fn per_link_sampling_is_stable_within_run() {
        let g = HexGrid::new(2, 4);
        let mut rng = SimRng::seed_from_u64(2);
        let resolved = DelayModel::UniformPerLink(DelayRange::paper()).resolve(g.graph(), &mut rng);
        for l in 0..g.graph().link_count() as u32 {
            let d1 = resolved.sample(l, &mut rng);
            let d2 = resolved.sample(l, &mut rng);
            assert_eq!(d1, d2);
        }
    }

    #[test]
    #[should_panic(expected = "per-link delay table covers")]
    fn rejects_wrong_table_size() {
        let g = HexGrid::new(2, 4);
        let mut rng = SimRng::seed_from_u64(3);
        DelayModel::PerLinkFixed(vec![D_PLUS; 3]).resolve(g.graph(), &mut rng);
    }

    #[test]
    fn spatial_delays_stay_within_range() {
        let g = HexGrid::new(10, 12);
        let v = SpatialVariation {
            range: DelayRange::paper(),
            layer_gradient: 0.8,
            column_wave: 0.6,
            jitter: 0.4,
        };
        let mut rng = SimRng::seed_from_u64(5);
        let resolved = DelayModel::Spatial(v).resolve(g.graph(), &mut rng);
        for l in 0..g.graph().link_count() as u32 {
            let d = resolved.sample(l, &mut rng);
            assert!(DelayRange::paper().contains(d), "{d:?}");
        }
    }

    #[test]
    fn spatial_gradient_orders_layers() {
        // With a pure layer gradient, links higher up are strictly slower.
        let g = HexGrid::new(10, 8);
        let v = SpatialVariation {
            range: DelayRange::paper(),
            layer_gradient: 1.0,
            column_wave: 0.0,
            jitter: 0.0,
        };
        let mut rng = SimRng::seed_from_u64(6);
        let resolved = DelayModel::Spatial(v).resolve(g.graph(), &mut rng);
        // Compare the lower-left in-link of (2, 3) and (9, 3).
        let low = g.graph().in_links(g.node(2, 3))[1];
        let high = g.graph().in_links(g.node(9, 3))[1];
        let d_low = resolved.sample(low, &mut rng);
        let d_high = resolved.sample(high, &mut rng);
        assert!(d_high > d_low, "{d_high:?} vs {d_low:?}");
    }

    #[test]
    fn spatial_column_wave_is_periodic() {
        // With a pure column wave, same-column links at the same layer have
        // the same delay, and columns half a period apart differ.
        let g = HexGrid::new(4, 16);
        let v = SpatialVariation {
            range: DelayRange::paper(),
            layer_gradient: 0.0,
            column_wave: 1.0,
            jitter: 0.0,
        };
        let mut rng = SimRng::seed_from_u64(7);
        let resolved = DelayModel::Spatial(v).resolve(g.graph(), &mut rng);
        let mut at = |col: u32| {
            let l = g.graph().in_links(g.node(2, col as i64))[1];
            resolved.sample(l, &mut rng)
        };
        assert_eq!(at(0), at(0));
        // cos(0) = 1 vs cos(π) = −1: slowest vs fastest columns.
        let (a0, a8) = (at(0), at(8));
        assert!(a0 > a8, "{a0:?} vs {a8:?}");
    }

    #[test]
    fn spatial_degenerates_to_midpoint() {
        let v = SpatialVariation {
            range: DelayRange::paper(),
            layer_gradient: 0.0,
            column_wave: 0.0,
            jitter: 0.0,
        };
        let mid = v.delay_at(0.3, 0.9, 0.0);
        assert_eq!(mid, DelayRange::paper().mid());
    }

    #[test]
    fn table_builder_overrides() {
        let g = HexGrid::new(2, 4);
        let src = g.node(0, 0);
        let dst = g.node(1, 0); // (0,0) is lower-left of (1,0)
        let link = *g
            .graph()
            .out_links(src)
            .iter()
            .find(|&&l| g.graph().link(l).dst == dst)
            .expect("(0,0) feeds (1,0)");
        let mut b = DelayTableBuilder::new(g.graph(), D_PLUS);
        b.set(link, D_MINUS);
        let model = b.build();
        let mut rng = SimRng::seed_from_u64(4);
        let resolved = model.resolve(g.graph(), &mut rng);
        // The overridden link reads d-, everything else d+.
        let mut found_override = false;
        for &l in g.graph().out_links(src) {
            let link = g.graph().link(l);
            let d = resolved.sample(l, &mut rng);
            if link.dst == dst {
                assert_eq!(d, D_MINUS);
                found_override = true;
            } else {
                assert_eq!(d, D_PLUS);
            }
        }
        assert!(found_override);
    }
}
