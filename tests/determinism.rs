//! Reproducibility guarantees: everything is a pure function of
//! `(config, seed)`, independent of thread count.

use hexclock::prelude::*;

#[test]
fn simulation_bitwise_reproducible() {
    let grid = HexGrid::new(20, 12);
    let sched = Schedule::single_pulse(vec![Time::ZERO; 12]);
    let cfg = SimConfig::fault_free();
    let a = simulate(grid.graph(), &sched, &cfg, 123);
    let b = simulate(grid.graph(), &sched, &cfg, 123);
    assert_eq!(a.fires, b.fires);
}

#[test]
fn different_seeds_different_executions() {
    let grid = HexGrid::new(10, 8);
    let sched = Schedule::single_pulse(vec![Time::ZERO; 8]);
    let cfg = SimConfig::fault_free();
    let a = simulate(grid.graph(), &sched, &cfg, 1);
    let b = simulate(grid.graph(), &sched, &cfg, 2);
    assert_ne!(a.fires, b.fires);
}

#[test]
fn batch_output_independent_of_thread_count() {
    let grid = HexGrid::new(15, 10);
    let sched = Schedule::single_pulse(vec![Time::ZERO; 10]);
    let cfg = SimConfig::fault_free();
    let job = |threads: usize| {
        run_batch(24, threads, |run| {
            let trace = simulate(grid.graph(), &sched, &cfg, run as u64);
            trace
                .fires
                .iter()
                .flat_map(|fs| fs.iter().map(|&(t, _)| t.ps()))
                .sum::<i64>()
        })
    };
    let t1 = job(1);
    let t4 = job(4);
    let t8 = job(8);
    assert_eq!(t1, t4);
    assert_eq!(t4, t8);
}

#[test]
fn faulty_runs_reproducible_including_byzantine_choices() {
    let grid = HexGrid::new(12, 10);
    let sched = Schedule::single_pulse(vec![Time::ZERO; 10]);
    let cfg = SimConfig {
        faults: FaultPlan::none().with_node(grid.node(3, 3), NodeFault::Byzantine),
        timing: Timing::paper_scenario_iii(),
        ..SimConfig::fault_free()
    };
    let a = simulate(grid.graph(), &sched, &cfg, 55);
    let b = simulate(grid.graph(), &sched, &cfg, 55);
    assert_eq!(a.fires, b.fires);
}

#[test]
fn arbitrary_init_reproducible() {
    let grid = HexGrid::new(10, 8);
    let mut rng = SimRng::seed_from_u64(9);
    let sched = PulseTrain::new(Scenario::Zero, 4, Duration::from_ns(300.0)).generate(8, &mut rng);
    let cfg = SimConfig {
        timing: Timing::paper_scenario_iii(),
        init: InitState::Arbitrary,
        ..SimConfig::fault_free()
    };
    let a = simulate(grid.graph(), &sched, &cfg, 66);
    let b = simulate(grid.graph(), &sched, &cfg, 66);
    assert_eq!(a.fires, b.fires);
}

/// Workspace smoke test: two runs of `simulate` with the same seed must be
/// **byte-identical**, not merely equal on the fields a struct comparison
/// happens to cover. The full trace is serialized through the VCD exporter
/// (which visits every arrival, cause, and timestamp) and compared as raw
/// bytes.
#[test]
fn same_seed_traces_serialize_byte_identical() {
    use hexclock::sim::{vcd_document, VcdOptions};

    let grid = HexGrid::new(20, 12);
    let sched = Schedule::single_pulse(vec![Time::ZERO; 12]);
    let cfg = SimConfig {
        timing: Timing::paper_scenario_iii(),
        ..SimConfig::fault_free()
    };
    let a = simulate(grid.graph(), &sched, &cfg, 2024);
    let b = simulate(grid.graph(), &sched, &cfg, 2024);
    let doc_a = vcd_document(&grid, &a, &VcdOptions::default());
    let doc_b = vcd_document(&grid, &b, &VcdOptions::default());
    assert!(!doc_a.is_empty());
    assert_eq!(doc_a.as_bytes(), doc_b.as_bytes(), "traces diverged");

    // A different seed must not reproduce the same execution byte-for-byte
    // (guards against the exporter ignoring the trace contents).
    let c = simulate(grid.graph(), &sched, &cfg, 2025);
    let doc_c = vcd_document(&grid, &c, &VcdOptions::default());
    assert_ne!(doc_a.as_bytes(), doc_c.as_bytes());
}

/// Dynamic-regime wall: a run under a live [`FaultScript`] — Byzantine
/// burst, crash-rejoin and a link flap overlapping a multi-pulse train —
/// serializes byte-identically through a dirty reused scratch as through
/// fresh allocations. Scripted fault windows are simulation *content*;
/// the recycled event list, masks and behaviour tables must carry
/// nothing over from the runs before.
#[test]
fn scripted_runs_serialize_byte_identical_through_a_dirty_scratch() {
    use hexclock::sim::{vcd_document, VcdOptions};

    let grid = HexGrid::new(10, 8);
    let mut rng = SimRng::seed_from_u64(31);
    let sched = PulseTrain::new(Scenario::Zero, 5, Duration::from_ns(300.0)).generate(8, &mut rng);
    let flapped = grid.graph().out_links(grid.node(1, 1))[0];
    let script = FaultScript::burst(
        grid.node(3, 2),
        NodeFault::Byzantine,
        Time::from_ns(120.0),
        Time::from_ns(520.0),
        RejoinState::Arbitrary,
    )
    .merged(FaultScript::crash_rejoin(
        grid.node(6, 5),
        Time::from_ns(400.0),
        Time::from_ns(900.0),
        RejoinState::Clean,
    ))
    .merged(FaultScript::link_flap(
        flapped,
        LinkBehavior::StuckOne,
        Time::from_ns(700.0),
        Time::from_ns(1_100.0),
    ));
    let base = SimConfig {
        script: Some(script),
        timing: Timing::paper_scenario_iii(),
        init: InitState::Arbitrary,
        ..SimConfig::fault_free()
    };

    let fresh = simulate(grid.graph(), &sched, &base, 606);
    let doc_fresh = vcd_document(&grid, &fresh, &VcdOptions::default());
    assert!(!doc_fresh.is_empty());

    // Dirty scratch: polluted by a different shape/fault plan/seed first.
    let mut scratch = SimScratch::new();
    let decoy_grid = HexGrid::new(5, 6);
    let decoy_sched = Schedule::single_pulse(vec![Time::ZERO; 6]);
    simulate_into(
        &mut scratch,
        decoy_grid.graph(),
        &decoy_sched,
        &SimConfig {
            faults: FaultPlan::none().with_node(decoy_grid.node(2, 1), NodeFault::FailSilent),
            timing: Timing::paper_scenario_iii(),
            ..SimConfig::fault_free()
        },
        999,
    );

    // Twice: the second pass reuses a scratch the scripted run itself
    // left dirty.
    for pass in 0..2 {
        let reused = simulate_into(&mut scratch, grid.graph(), &sched, &base, 606);
        assert_eq!(&fresh, reused, "pass {pass}: scripted trace diverged");
        let doc_reused = vcd_document(&grid, reused, &VcdOptions::default());
        assert_eq!(
            doc_fresh.as_bytes(),
            doc_reused.as_bytes(),
            "pass {pass}: scripted serialization diverged"
        );
    }
}

/// Metamorphic check at the experiment level: a script whose only window
/// opens *and heals* before the pulse wave can reach its victim must be
/// invisible — [`FaultRegime::Script`] output matches [`FaultRegime::None`]
/// exactly, run for run. Script-internal randomness draws from a salted
/// side stream, so merely carrying a script must not perturb the run.
#[test]
fn script_healed_before_the_wave_matches_fault_free_exactly() {
    let base = RunSpec::grid(10, 6).runs(3).seed(17).pulses(3);
    let grid = base.hex_grid();
    // Victim on layer 8: the wave needs at least 8 minimum link delays
    // to get there, and the whole fault window is over well before that.
    let victim = grid.node(8, 3);
    let heal = Time::from_ps(20_000);
    assert!(
        heal < Time::ZERO + D_MINUS.times(8),
        "window not early enough"
    );
    let script = FaultScript::crash_rejoin(victim, Time::from_ps(1_000), heal, RejoinState::Clean);
    let scripted = base.clone().faults(FaultRegime::Script(script));
    for run in 0..3 {
        let (plain, _) = base.trace(run);
        let (with_script, _) = scripted.trace(run);
        assert_eq!(
            plain, with_script,
            "run {run}: a healed-before-arrival script left a trace"
        );
    }
}

/// Schedule and configuration of one golden-pin regime on `grid`.
fn golden_regime(name: &str, grid: &HexGrid) -> (Schedule, SimConfig) {
    let width = grid.width();
    let single = Schedule::single_pulse(vec![Time::ZERO; width as usize]);
    let mut rng = SimRng::seed_from_u64(41);
    let train =
        PulseTrain::new(Scenario::Zero, 3, Duration::from_ns(300.0)).generate(width, &mut rng);
    let base = SimConfig {
        timing: Timing::paper_scenario_iii(),
        ..SimConfig::fault_free()
    };
    match name {
        "fault-free" => (single, base),
        "byzantine" => (
            single,
            SimConfig {
                faults: FaultPlan::none().with_node(grid.node(4, 2), NodeFault::Byzantine),
                ..base
            },
        ),
        "mixed-arbitrary" => {
            let mut place_rng = SimRng::seed_from_u64(5);
            let faults = FaultRegime::Mixed {
                byzantine: 1,
                fail_silent: 1,
            }
            .plan(grid, &mut place_rng);
            let cfg = SimConfig {
                faults,
                init: InitState::Arbitrary,
                ..base
            };
            (train, cfg)
        }
        "all-flags-set" => (
            train,
            SimConfig {
                init: InitState::AllFlagsSet,
                ..base
            },
        ),
        "script" => {
            let flapped = grid.graph().out_links(grid.node(1, 1))[0];
            let script = FaultScript::burst(
                grid.node(3, 2),
                NodeFault::Byzantine,
                Time::from_ns(120.0),
                Time::from_ns(520.0),
                RejoinState::Arbitrary,
            )
            .merged(FaultScript::crash_rejoin(
                grid.node(6, 5),
                Time::from_ns(400.0),
                Time::from_ns(900.0),
                RejoinState::Clean,
            ))
            .merged(FaultScript::link_flap(
                flapped,
                LinkBehavior::StuckOne,
                Time::from_ns(700.0),
                Time::from_ns(1_100.0),
            ));
            let cfg = SimConfig {
                script: Some(script),
                init: InitState::Arbitrary,
                ..base
            };
            (train, cfg)
        }
        // The Tables 1/2 engine config: generous timing, no recorded
        // arrivals. Its 10 µs sleeps lie beyond the calendar's ring lap.
        "generous-fail-silent" => (
            single,
            SimConfig {
                faults: FaultPlan::none().with_node(grid.node(4, 2), NodeFault::FailSilent),
                ..SimConfig::fault_free()
            },
        ),
        "all-asleep" => (
            train,
            SimConfig {
                init: InitState::AllAsleep,
                ..base
            },
        ),
        // Two transitions at one instant (400 ns): a heal and a fail.
        "same-instant-script" => {
            let script = FaultScript::none()
                .with(
                    Time::from_ns(40.0),
                    FaultEvent::Fail(grid.node(3, 2), NodeFault::Byzantine),
                )
                .with(
                    Time::from_ns(400.0),
                    FaultEvent::Heal(grid.node(3, 2), RejoinState::Arbitrary),
                )
                .with(
                    Time::from_ns(400.0),
                    FaultEvent::Fail(grid.node(1, 4), NodeFault::FailSilent),
                )
                .with(
                    Time::from_ns(700.0),
                    FaultEvent::Heal(grid.node(1, 4), RejoinState::Clean),
                );
            (
                train,
                SimConfig {
                    script: Some(script),
                    ..base
                },
            )
        }
        other => panic!("unknown golden regime {other:?}"),
    }
}

/// Golden pins: the default engine path is compared with committed
/// values, not with another implementation, so a drift of the path every
/// workload runs fails here even when all implementations drift together.
/// Each row pins `(fnv1a_64(VCD bytes), popped events, stale events)`.
/// A deliberate change of engine output is re-pinned by hand from the
/// observed triples the failure message prints.
#[test]
fn default_path_matches_golden_pins() {
    use hexclock::sim::canon::fnv1a_64;
    use hexclock::sim::{vcd_document, VcdOptions};

    #[rustfmt::skip]
    const PINS: &[(&str, u32, u32, u64, u64, u64)] = &[
        // (regime, length, width, VCD hash, popped, stale)
        ("fault-free",      20, 20, 0x3d33e9f56270ae86,  3620,   0),
        ("fault-free",      50, 20, 0x7889e6b53eb1df32,  9020,   0),
        ("byzantine",       20, 20, 0xc0e899cf4f1a8443,  3656,   3),
        ("byzantine",       50, 20, 0x9d074984a8abc4ba,  9095,   3),
        ("mixed-arbitrary", 20, 20, 0xaefc29af2a12d255,  9787, 155),
        ("mixed-arbitrary", 50, 20, 0x27cba7e463102fea, 24045, 375),
        ("all-flags-set",   20, 20, 0x78d60a666cd4a592, 10860,   0),
        ("all-flags-set",   50, 20, 0x8145c4cf989df85e, 27060,   0),
        ("script",          20, 20, 0x483342cb92fd6a65,  9783, 150),
        ("script",          50, 20, 0x568f598b448edfea, 24022, 373),
        ("generous-fail-silent", 20, 20, 0x0a9fe73bb9c631b3, 3607, 794),
        ("generous-fail-silent", 50, 20, 0x388047b000d626a8, 9007, 1994),
        ("all-asleep",      20, 20, 0xc61c980d34e9d5c0,  7740,   0),
        ("all-asleep",      50, 20, 0x42fcb9add5a2b0e9, 19140,   0),
        ("same-instant-script", 20, 20, 0xbe6144e89ecb6221, 10878, 11),
        ("same-instant-script", 50, 20, 0x5fdb0b36bcc4b384, 27078, 10),
    ];

    let mut scratch = SimScratch::new();
    let mut drifted = Vec::new();
    for &(name, length, width, hash, popped, stale) in PINS {
        let grid = HexGrid::new(length, width);
        let (sched, cfg) = golden_regime(name, &grid);
        let trace = simulate_into(&mut scratch, grid.graph(), &sched, &cfg, 0x601D);
        let vcd = vcd_document(&grid, trace, &VcdOptions::default());
        let observed = (
            fnv1a_64(vcd.as_bytes()),
            scratch.popped_events(),
            scratch.stale_events(),
        );
        if observed != (hash, popped, stale) {
            drifted.push(format!(
                "(\"{name}\", {length}, {width}, {:#018x}, {}, {}),",
                observed.0, observed.1, observed.2
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "engine output drifted from the golden pins; observed rows:\n{}",
        drifted.join("\n")
    );
}

/// Golden pins of the analysis layer: the Tables 1/2 summary table and the
/// Figs. 15/16 box-plot CSV of 16-run batches, compared with committed
/// values, so a drift of the skew fold or the order statistics fails here
/// even when the observed fold and the per-view reference drift together.
/// Each row pins `fnv1a_64` of `skew_summary_table(..).to_json()` and of
/// the `sweep_csv` renderings of the per-run intra and inter summaries.
/// A deliberate change of analysis output is re-pinned by hand from the
/// observed rows the failure message prints.
#[test]
fn analysis_outputs_match_golden_pins() {
    use hexclock::analysis::boxplot::{op_boxes, sweep_csv};
    use hexclock::analysis::reduce::skew_summary_table;
    use hexclock::sim::canon::fnv1a_64;

    #[rustfmt::skip]
    const PINS: &[(&str, u32, u32, u64, u64, u64)] = &[
        // (regime, length, width, table hash, intra boxes hash, inter boxes hash)
        ("zero",              20, 20, 0x641aad3c8ac2e609, 0x45e0596c1a0e1e79, 0x8907fda34ba4a7b4),
        ("zero",              50, 20, 0xdba9d52bc9ff32ff, 0xf9e6186d4e8a0a2c, 0xcd4baf69216d7589),
        ("ramp-byzantine",    20, 20, 0x5fc46afc76b16818, 0x5cabf954baf6cdae, 0x8865af9d5f4d076c),
        ("ramp-byzantine",    50, 20, 0x4953bc082d524b13, 0xf36cf0a00a877f54, 0x7d565a05fde5a78e),
        ("dplus-fail-silent", 20, 20, 0x6109513289c89244, 0xdf895d8361c00030, 0xf9917b7d46cb158a),
        ("dplus-fail-silent", 50, 20, 0x2379ebd09c6e69c7, 0xf30bd554b51eee9c, 0xc1e26b3dcc7b4e20),
    ];

    let mut drifted = Vec::new();
    for &(name, length, width, table, intra, inter) in PINS {
        let base = RunSpec::grid(length, width).runs(16).seed(0x601D);
        let (spec, h) = match name {
            "zero" => (base.scenario(Scenario::Zero), 0),
            "ramp-byzantine" => (
                base.scenario(Scenario::Ramp)
                    .faults(FaultRegime::Byzantine(1)),
                0,
            ),
            "dplus-fail-silent" => (
                base.scenario(Scenario::RandomDPlus)
                    .faults(FaultRegime::FailSilent(1)),
                1,
            ),
            other => panic!("unknown golden regime {other:?}"),
        };
        let f = spec.faults.f();
        let skews = batch_skews(&spec, h);
        let observed = (
            fnv1a_64(skew_summary_table(&skews).to_json().as_bytes()),
            fnv1a_64(sweep_csv(&[(f, op_boxes(&skews.per_run_intra()))]).as_bytes()),
            fnv1a_64(sweep_csv(&[(f, op_boxes(&skews.per_run_inter()))]).as_bytes()),
        );
        if observed != (table, intra, inter) {
            drifted.push(format!(
                "(\"{name}\", {length}, {width}, {:#018x}, {:#018x}, {:#018x}),",
                observed.0, observed.1, observed.2
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "analysis output drifted from the golden pins; observed rows:\n{}",
        drifted.join("\n")
    );
}

/// Golden pins of the multi-pulse analysis outputs: 5-pulse batches from
/// arbitrary initial states (scenario (iii), 16 runs) with one Byzantine
/// or one fail-silent node per run. Each row pins `fnv1a_64` of the
/// `skew_summary_table(..).to_json()` of the last pulse and of the
/// `stabilization_summary_table(..).to_json()` of each threshold class
/// `C = 0..3`, with the criteria built as the Figs. 18/19 sweep builds
/// them (`C = 0` from the Lemma-5 layer bound). A deliberate change of
/// analysis output is re-pinned by hand from the observed rows the
/// failure message prints.
#[test]
fn multi_pulse_analysis_outputs_match_golden_pins() {
    use hexclock::analysis::reduce::skew_summary_table;
    use hexclock::analysis::stabilization::{stabilization_summary_table, summarize, Criterion};
    use hexclock::sim::canon::fnv1a_64;
    use hexclock::theory::bounds::lemma5_layer_bound;

    const PULSES: usize = 5;
    #[rustfmt::skip]
    const PINS: &[(&str, u32, u32, u64, [u64; 4])] = &[
        // (regime, length, width, last-pulse skew table hash,
        //  stabilization table hashes of C = 0, 1, 2, 3)
        ("byzantine",   20, 20, 0xb03595db53b8ee38,
         [0x50bee12178405e0b, 0x50bee12178405e0b, 0x50bee12178405e0b, 0x904d5cd284af3dac]),
        ("byzantine",   50, 20, 0x7efcfc05ba270046,
         [0x50bee12178405e0b, 0x50bee12178405e0b, 0x50bee12178405e0b, 0xee4801693d2f46ac]),
        ("fail-silent", 20, 20, 0xec63bfa11569799d,
         [0x50bee12178405e0b, 0x50bee12178405e0b, 0x50bee12178405e0b, 0xda064b46b96daacb]),
        ("fail-silent", 50, 20, 0xaacecbde8823787a,
         [0x50bee12178405e0b, 0x50bee12178405e0b, 0x50bee12178405e0b, 0xd83e77e80356fe0d]),
    ];

    let mut drifted = Vec::new();
    for &(name, length, width, skew, stab) in PINS {
        let faults = match name {
            "byzantine" => FaultRegime::Byzantine(1),
            "fail-silent" => FaultRegime::FailSilent(1),
            other => panic!("unknown golden regime {other:?}"),
        };
        let spec = RunSpec::grid(length, width)
            .runs(16)
            .seed(0x601D)
            .scenario(Scenario::RandomDPlus)
            .faults(faults)
            .init(InitState::Arbitrary)
            .pulses(PULSES);
        let grid = spec.hex_grid();
        let f = spec.faults.f();
        // Scenario (iii) spreads the sources by up to d+.
        let criteria: Vec<Criterion> = (0..=3u8)
            .map(|c| {
                Criterion::class(c, D_PLUS, length, |layer| {
                    lemma5_layer_bound(D_PLUS, layer, f.min(layer as usize), DelayRange::paper())
                })
            })
            .collect();
        let skews = spec.fold_observed(&ObservedSkewReducer::new(&grid, 0).at_pulse(PULSES - 1));
        let estimates = spec.fold_observed(&ObservedStabilizationReducer::new(&grid, &criteria, 0));
        let observed_skew = fnv1a_64(skew_summary_table(&skews).to_json().as_bytes());
        let mut observed_stab = [0u64; 4];
        for (hash, per_run) in observed_stab.iter_mut().zip(&estimates) {
            let table = stabilization_summary_table(&summarize(per_run));
            *hash = fnv1a_64(table.to_json().as_bytes());
        }
        if (observed_skew, observed_stab) != (skew, stab) {
            let stab: Vec<String> = observed_stab.iter().map(|h| format!("{h:#018x}")).collect();
            drifted.push(format!(
                "(\"{name}\", {length}, {width}, {observed_skew:#018x}, [{}]),",
                stab.join(", ")
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "multi-pulse analysis output drifted from the golden pins; observed rows:\n{}",
        drifted.join("\n")
    );
}

/// Scratch-reuse wall: `simulate_into` on a **dirty, reused** `SimScratch`
/// must be byte-identical (VCD serialization) to fresh `simulate`, across
/// the fault-free, Byzantine, and Mixed regimes and across init states.
/// The scratch is deliberately polluted by a run of a *different* grid
/// shape, fault plan and seed before every comparison, and carried from
/// one regime to the next.
#[test]
fn dirty_scratch_runs_serialize_byte_identical_to_fresh() {
    use hexclock::sim::{vcd_document, VcdOptions};

    let grid = HexGrid::new(12, 8);
    let sched = Schedule::single_pulse(vec![Time::ZERO; 8]);
    let mut rng = SimRng::seed_from_u64(77);
    let multi = PulseTrain::new(Scenario::Zero, 3, Duration::from_ns(300.0)).generate(8, &mut rng);

    // Mixed regime: one Byzantine plus one fail-silent node, placed like
    // the RunSpec mixed regime does (Condition 1 over the union).
    let mut place_rng = SimRng::seed_from_u64(5);
    let mixed = FaultRegime::Mixed {
        byzantine: 1,
        fail_silent: 1,
    }
    .plan(&grid, &mut place_rng);
    assert_eq!(mixed.fault_count(), 2);

    let regimes: Vec<(&str, SimConfig, &Schedule)> = vec![
        (
            "fault-free",
            SimConfig {
                timing: Timing::paper_scenario_iii(),
                ..SimConfig::fault_free()
            },
            &sched,
        ),
        (
            "byzantine",
            SimConfig {
                faults: FaultPlan::none().with_node(grid.node(4, 2), NodeFault::Byzantine),
                timing: Timing::paper_scenario_iii(),
                ..SimConfig::fault_free()
            },
            &sched,
        ),
        (
            "mixed",
            SimConfig {
                faults: mixed,
                timing: Timing::paper_scenario_iii(),
                init: InitState::Arbitrary,
                ..SimConfig::fault_free()
            },
            &multi,
        ),
    ];

    let mut scratch = SimScratch::new();
    // Pollute: different shape, different fault plan, different seed.
    let decoy_grid = HexGrid::new(5, 6);
    let decoy_sched = Schedule::single_pulse(vec![Time::ZERO; 6]);
    let decoy_cfg = SimConfig {
        faults: FaultPlan::none().with_node(decoy_grid.node(2, 1), NodeFault::FailSilent),
        init: InitState::AllFlagsSet,
        timing: Timing::paper_scenario_iii(),
        ..SimConfig::fault_free()
    };
    simulate_into(
        &mut scratch,
        decoy_grid.graph(),
        &decoy_sched,
        &decoy_cfg,
        999,
    );

    for (name, cfg, schedule) in &regimes {
        for seed in [7u64, 8] {
            // The reference execution: fresh allocations.
            let fresh = simulate(grid.graph(), schedule, cfg, seed);
            let doc_fresh = vcd_document(&grid, &fresh, &VcdOptions::default());
            assert!(!doc_fresh.is_empty());
            // The same run through the carried-over dirty scratch must
            // serialize byte-identically to that reference.
            let reused = simulate_into(&mut scratch, grid.graph(), schedule, cfg, seed);
            assert_eq!(
                &fresh, reused,
                "{name}/seed {seed}: trace structs diverged under scratch reuse"
            );
            let doc_reused = vcd_document(&grid, reused, &VcdOptions::default());
            assert_eq!(
                doc_fresh.as_bytes(),
                doc_reused.as_bytes(),
                "{name}/seed {seed}: serialized traces diverged under scratch reuse"
            );
        }
    }
}
