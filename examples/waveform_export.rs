//! Waveform export: dump a faulty multi-pulse HEX run as a VCD file and
//! verify the dump round-trips, then use the Appendix-A fault-avoiding
//! causal machinery to explain *why* the nodes around the fault fired when
//! they did.
//!
//! ```text
//! cargo run --example waveform_export
//! gtkwave hex_run.vcd     # inspect the pulse wave layer by layer
//! ```

use hexclock::analysis::causal::{left_zigzag_with_shift, FaultSet};
use hexclock::prelude::*;
use hexclock::sim::vcd::VcdDocument;
use hexclock::sim::{vcd_document, VcdOptions};

fn main() {
    // A 12×10 grid, three pulses, one Byzantine node at (2, 4).
    let (l, w) = (12u32, 10u32);
    let grid = HexGrid::new(l, w);
    let byz = grid.node(2, 4);
    let mut rng = SimRng::seed_from_u64(7);
    let sep = Duration::from_ns(300.0);
    let schedule = PulseTrain::new(Scenario::RandomDPlus, 3, sep).generate(w, &mut rng);
    let cfg = SimConfig {
        faults: FaultPlan::none().with_node(byz, NodeFault::Byzantine),
        timing: Timing::paper_scenario_iii(),
        ..SimConfig::fault_free()
    };
    let trace = simulate(grid.graph(), &schedule, &cfg, 7);

    // 1. Export the waveform.
    let doc = vcd_document(&grid, &trace, &VcdOptions::default());
    std::fs::write("hex_run.vcd", &doc).expect("write hex_run.vcd");
    println!(
        "wrote hex_run.vcd: {} nodes, {} firings, horizon {:.1} ns",
        grid.node_count(),
        trace.total_fires(),
        trace.horizon.ns()
    );

    // 2. Round-trip: the dump contains exactly the simulated firings.
    let parsed = VcdDocument::parse(&doc).expect("own dump parses");
    let recovered: usize = parsed
        .vars
        .iter()
        .map(|(_, _, code)| parsed.rising_edges(code).len())
        .sum();
    assert_eq!(recovered, trace.total_fires());
    println!("round-trip OK: {recovered} rising edges match the trace");

    // 3. Explain the top layer of the first pulse: every node has a causal
    //    chain back towards layer 0 that avoids the Byzantine node.
    let views = assign_pulses(&grid, &trace, &schedule, DelayRange::paper().mid());
    let fs = FaultSet::new(&grid, &trace.faulty);
    println!("\ncausal provenance of the first pulse at the top layer:");
    for col in 0..w as i64 {
        let (path, shift) = left_zigzag_with_shift(&grid, &views[0], &fs, l, col)
            .expect("fault-avoiding path exists under Condition 1");
        let (ol, oc) = path.nodes[0];
        println!(
            "  ({l:>2},{col:>2}) <- {:>2} links, {} detours, target shift {shift}, origin ({ol},{oc})",
            path.links.len(),
            path.detours()
        );
    }
}
