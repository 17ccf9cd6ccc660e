//! Guard ablation: why the HEX guard demands two *adjacent* in-neighbors.

use hexclock::core::graph::Role;
use hexclock::core::PulseGraph;
use hexclock::prelude::*;

/// A HEX-shaped cylinder with a custom guard.
fn guarded_grid(l: u32, w: u32, guard: &[(u8, u8)]) -> PulseGraph {
    let mut b = PulseGraph::builder();
    for layer in 0..=l {
        for col in 0..w {
            let role = if layer == 0 {
                Role::Source
            } else {
                Role::Forwarder
            };
            let g = if layer == 0 { vec![] } else { guard.to_vec() };
            b.add_node(role, Some(hexclock::core::Coord::new(layer, col)), g);
        }
    }
    let id = |layer: u32, col: i64| -> u32 { layer * w + col.rem_euclid(w as i64) as u32 };
    for layer in 1..=l {
        for col in 0..w as i64 {
            let dst = id(layer, col);
            b.add_link(id(layer, col - 1), dst, 0);
            b.add_link(id(layer - 1, col), dst, 1);
            b.add_link(id(layer - 1, col + 1), dst, 2);
            b.add_link(id(layer, col + 1), dst, 3);
        }
    }
    b.build()
}

const HEX: [(u8, u8); 3] = [(0, 1), (1, 2), (2, 3)];
const CENTRAL_ONLY: [(u8, u8); 1] = [(1, 2)];
const ANY_TWO: [(u8, u8); 6] = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)];

fn id(w: u32, layer: u32, col: i64) -> u32 {
    layer * w + col.rem_euclid(w as i64) as u32
}

#[test]
fn central_only_guard_loses_fault_tolerance() {
    // One crashed node starves its entire upward light cone under the
    // central-only guard, while the HEX guard routes around it.
    let (l, w) = (10u32, 8u32);
    let sched = Schedule::single_pulse(vec![Time::ZERO; w as usize]);
    let victim_cfg = |_graph: &PulseGraph| SimConfig {
        faults: FaultPlan::none().with_node(id(w, 3, 4), NodeFault::FailSilent),
        ..SimConfig::fault_free()
    };

    let central = guarded_grid(l, w, &CENTRAL_ONLY);
    let trace = simulate(&central, &sched, &victim_cfg(&central), 1);
    let starved = central
        .node_ids()
        .filter(|&n| trace.fires[n as usize].is_empty() && n != id(w, 3, 4))
        .count();
    assert!(
        starved >= 2,
        "central-only: the fault's upward cone should starve, got {starved}"
    );

    let hex = guarded_grid(l, w, &HEX);
    let trace = simulate(&hex, &sched, &victim_cfg(&hex), 1);
    let starved = hex
        .node_ids()
        .filter(|&n| trace.fires[n as usize].is_empty() && n != id(w, 3, 4))
        .count();
    assert_eq!(starved, 0, "HEX guard must tolerate a single crash");
}

#[test]
fn any_two_guard_is_byzantine_forgeable() {
    // Under the any-two guard, a node's left and right in-neighbors form a
    // triggering pair. Two Byzantine nodes that are NOT adjacent to each
    // other (they even satisfy Condition 1 spacing... they share the victim
    // as out-neighbor, which Condition 1 forbids — exactly the paper's
    // point: with the HEX guard, Condition-1-respecting faults cannot
    // forge; with any-two, even a single stuck-1 pair through one victim
    // suffices). Demonstrate: victim (2,4) with stuck-1 left+right
    // neighbors fires with NO pulse in the system under any-two, never
    // under HEX.
    let (l, w) = (6u32, 8u32);
    let empty = Schedule::new(vec![Vec::new(); w as usize]);
    let faults = FaultPlan::none()
        .with_node(id(w, 2, 3), NodeFault::Byzantine)
        .with_node(id(w, 2, 5), NodeFault::Byzantine);
    // Force stuck-1 on every out-link of both nodes via link overrides.
    let build_cfg = |graph: &PulseGraph| {
        let mut f = faults.clone();
        for byz in [id(w, 2, 3), id(w, 2, 5)] {
            for &lk in graph.out_links(byz) {
                f = f.with_link(lk, hexclock::core::LinkBehavior::StuckOne);
            }
        }
        SimConfig {
            faults: f,
            timing: Timing::paper_scenario_iii(),
            horizon: Some(Time::from_ns(400.0)),
            ..SimConfig::fault_free()
        }
    };

    let any_two = guarded_grid(l, w, &ANY_TWO);
    let trace = simulate(&any_two, &empty, &build_cfg(&any_two), 2);
    // The stuck-1 side neighbors forge (2,4) into firing, and since they
    // never let go it re-fires the moment each sleep ends: at least 4
    // firings in 400 ns, each one sleep after the last. A wake that does
    // not re-check the guard waits for a link timeout on top and stretches
    // every gap past T+_sleep.
    let victim = &trace.fires[id(w, 2, 4) as usize];
    assert!(
        victim.len() >= 4,
        "any-two guard: (2,4) should be forged into firing at every wake, fired {} times",
        victim.len()
    );
    let sleep = Timing::paper_scenario_iii().sleep;
    for pair in victim.windows(2) {
        let gap = pair[1].0 - pair[0].0;
        assert!(
            sleep.contains(gap),
            "any-two guard: re-firing gap {gap:?} outside the sleep range {sleep:?}"
        );
    }

    let hex = guarded_grid(l, w, &HEX);
    let trace = simulate(&hex, &empty, &build_cfg(&hex), 2);
    assert!(
        trace.fires[id(w, 2, 4) as usize].is_empty(),
        "HEX guard: left+right are not adjacent, no forgery"
    );
}

#[test]
fn hex_and_any_two_agree_fault_free() {
    // Fault-free, the extra pairs of any-two rarely matter for zero-skew
    // sources: both complete the pulse; HEX is never slower than
    // central-only.
    let (l, w) = (8u32, 8u32);
    let sched = Schedule::single_pulse(vec![Time::ZERO; w as usize]);
    for guard in [&HEX[..], &ANY_TWO[..], &CENTRAL_ONLY[..]] {
        let g = guarded_grid(l, w, guard);
        let trace = simulate(&g, &sched, &SimConfig::fault_free(), 3);
        assert_eq!(trace.total_fires(), g.node_count());
    }
}
