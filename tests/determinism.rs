//! Cross-harness determinism regression: a fixed seed must produce
//! bit-identical ground-truth logs, run after run and release after
//! release.
//!
//! The golden digests below were recorded from the unified
//! scheduler/event-bus harness (`ctms_sim::Harness`), which reproduces
//! the original per-testbed advance-and-route loops exactly: nodes are
//! serviced in registration order on deadline ties, so the event order —
//! and therefore every recorded edge — is unchanged. If a change to the
//! scheduler, the ring model, or the kernel model shifts even one edge
//! by one nanosecond, these digests move and the diff is caught here
//! rather than as a silent drift in the reproduced figures.

use ctms_core::{Scenario, Testbed};
use ctms_sim::{SchedMode, SimTime};
use ctms_unixkern::MeasurePoint;

fn digests(sc: &Scenario) -> [u64; 4] {
    digests_with_mode(sc, SchedMode::Indexed)
}

fn digests_with_mode(sc: &Scenario, mode: SchedMode) -> [u64; 4] {
    let mut bed = Testbed::ctms_with_mode(sc, mode);
    bed.run_until(SimTime::from_secs(10));
    let get = |host: usize, point: MeasurePoint| {
        bed.truth_log(host, point)
            .map(|log| log.digest())
            .unwrap_or(0)
    };
    [
        get(0, MeasurePoint::VcaIrq),
        get(0, MeasurePoint::VcaHandlerEntry),
        get(0, MeasurePoint::PreTransmit),
        get(1, MeasurePoint::CtmspIdentified),
    ]
}

#[test]
fn case_a_truth_digests_are_golden() {
    let got = digests(&Scenario::test_case_a(42));
    assert_eq!(
        got,
        [
            0x940268B83F8CF91A,
            0xF827E2062981EE34,
            0xD1E3D58CA7C69E09,
            0x612EFD91E2863AC5,
        ],
        "case A ground truth drifted: {got:#018X?}"
    );
}

#[test]
fn case_b_truth_digests_are_golden() {
    let got = digests(&Scenario::test_case_b(42));
    assert_eq!(
        got,
        [
            0x940268B83F8CF91A,
            0xF827E2062981EE34,
            0x83B4DADF58457160,
            0x866F7B1998BFE1CF,
        ],
        "case B ground truth drifted: {got:#018X?}"
    );
}

#[test]
fn scheduler_modes_share_the_golden_truth() {
    // The indexed deadline heap (default) and the lazy-invalidation
    // baseline it replaced must be observationally indistinguishable:
    // every edge the testbed records is bit-identical. This is what
    // licenses comparing their wall clocks in `perf`/BENCH_PR4.json as
    // a pure scheduler measurement.
    for sc in [Scenario::test_case_a(42), Scenario::test_case_b(42)] {
        assert_eq!(
            digests_with_mode(&sc, SchedMode::Indexed),
            digests_with_mode(&sc, SchedMode::LazyBaseline),
            "scheduler modes disagree on ground truth"
        );
    }
}

#[test]
fn sharded_harness_shares_the_golden_truth() {
    // The conservative-parallel scheduler's contract: parallelism may
    // never change the answer, only the wall clock. Three layers pin it:
    //
    // * Cases A and B are single-ring topologies, so `build_sharded`
    //   transparently falls back — and must still reproduce the exact
    //   golden digests and telemetry tree pinned above.
    // * A 16-ring chain genuinely partitions across 2 and 4 shards; its
    //   edge logs and canonical telemetry JSON must be byte-identical
    //   to the single-threaded chain, window protocol and all.
    use ctms_core::RingChainTestbed;
    use ctms_router::BridgeKind;

    for (sc, golden) in [
        (
            Scenario::test_case_a(42),
            [
                0x940268B83F8CF91A,
                0xF827E2062981EE34,
                0xD1E3D58CA7C69E09,
                0x612EFD91E2863AC5,
            ],
        ),
        (
            Scenario::test_case_b(42),
            [
                0x940268B83F8CF91A,
                0xF827E2062981EE34,
                0x83B4DADF58457160,
                0x866F7B1998BFE1CF,
            ],
        ),
    ] {
        let single_json = ctms_bench::telemetry_case(&sc);
        for shards in [1usize, 2, 4] {
            let (mut bus, _roles) = Testbed::ctms_sharded(&sc, shards);
            assert!(bus.is_single(), "single ring must fall back");
            bus.run_until(SimTime::from_secs(10));
            let get = |host: usize, point: MeasurePoint| {
                bus.truth_log(host, point)
                    .map(|log| log.digest())
                    .unwrap_or(0)
            };
            let got = [
                get(0, MeasurePoint::VcaIrq),
                get(0, MeasurePoint::VcaHandlerEntry),
                get(0, MeasurePoint::PreTransmit),
                get(1, MeasurePoint::CtmspIdentified),
            ];
            assert_eq!(got, golden, "sharded fallback drifted: {got:#018X?}");
            assert_eq!(
                bus.telemetry_json(),
                single_json,
                "fallback telemetry drifted (shards={shards})"
            );
        }
    }

    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let horizon = SimTime::from_secs(2);
    let chain_digests = |bed_truth: &dyn Fn(usize, MeasurePoint) -> u64| {
        [
            bed_truth(0, MeasurePoint::VcaIrq),
            bed_truth(0, MeasurePoint::VcaHandlerEntry),
            bed_truth(0, MeasurePoint::PreTransmit),
            bed_truth(1, MeasurePoint::CtmspIdentified),
        ]
    };
    let mut single = RingChainTestbed::chain(&sc, kind, 16);
    single.run_until(horizon);
    let single_json = single.telemetry_json();
    let single_digests = chain_digests(&|host, point| {
        single
            .bus()
            .measurements()
            .truth_log(host, point)
            .map(|log| log.digest())
            .unwrap_or(0)
    });
    for shards in [1usize, 2, 4] {
        let mut bed = RingChainTestbed::chain_sharded(&sc, kind, 16, shards);
        assert_eq!(bed.shard_count(), shards, "16 rings split into {shards}");
        bed.run_until(horizon);
        let got = chain_digests(&|host, point| {
            bed.bus()
                .truth_log(host, point)
                .map(|log| log.digest())
                .unwrap_or(0)
        });
        assert_eq!(
            got, single_digests,
            "sharded chain truth drifted (shards={shards}): {got:#018X?}"
        );
        assert_eq!(
            bed.telemetry_json(),
            single_json,
            "sharded chain telemetry drifted (shards={shards})"
        );
    }
}

#[test]
fn topology_variants_share_the_golden_truth() {
    // The graph generalization of the chain parity test: a tree, a mesh
    // with a redundant parallel bridge, and an FDDI-style dual-backbone
    // each run single-threaded and at 1, 2, and 4 graph-partitioned
    // shards. For every shape, every shard count must reproduce the
    // single-threaded run byte for byte — truth-log digests, counters,
    // event counts, and the whole canonical telemetry tree. This is the
    // license for `perf --topology` to compare wall clocks across
    // shapes: the per-cut-edge lookahead windows are pure scheduling.
    // The FDDI backbone's dense coupling fails the profitability gate,
    // so at 2 and 4 shards it runs sharded only for the calibration
    // prefix and then on the single-threaded bus;
    // `profitability_gate_demotes_dense_shapes_in_place` covers the
    // sharded engine on it to the horizon.
    use ctms_core::{RingChainTestbed, RingGraph};
    use ctms_router::BridgeKind;

    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let horizon = SimTime::from_secs(2);
    for (name, graph) in [
        ("tree", RingGraph::tree(13, 3)),
        ("mesh", RingGraph::mesh(12, 42)),
        ("fddi", RingGraph::fddi(12)),
    ] {
        let mut single = RingChainTestbed::graph(&sc, kind, &graph);
        single.run_until(horizon);
        let single_json = single.telemetry_json();
        let single_counters = single.counters();
        let single_events = single.bus().events();
        let single_digests = [
            single.measurement_set().vca_irq.digest(),
            single.measurement_set().handler.digest(),
            single.measurement_set().pre_tx.digest(),
            single.measurement_set().ctmsp_rx.digest(),
        ];
        let (sent, received, _) = single_counters;
        assert!(sent > 100, "{name}: stream must actually flow ({sent})");
        assert!(
            received >= sent.saturating_sub(2),
            "{name}: stream must arrive ({received}/{sent})"
        );
        for shards in [1usize, 2, 4] {
            let mut bed = RingChainTestbed::graph_sharded(&sc, kind, &graph, shards);
            assert_eq!(
                bed.shard_count(),
                shards,
                "{name}: graph must fill {shards} shards"
            );
            bed.run_until(horizon);
            let effective = if name == "fddi" { 1 } else { shards };
            assert_eq!(
                bed.shard_count(),
                effective,
                "{name}: effective shards after the run (shards={shards})"
            );
            let got = [
                bed.measurement_set().vca_irq.digest(),
                bed.measurement_set().handler.digest(),
                bed.measurement_set().pre_tx.digest(),
                bed.measurement_set().ctmsp_rx.digest(),
            ];
            assert_eq!(
                got, single_digests,
                "{name} truth drifted (shards={shards}): {got:#018X?}"
            );
            assert_eq!(
                bed.counters(),
                single_counters,
                "{name} counters drifted (shards={shards})"
            );
            assert_eq!(
                bed.events(),
                single_events,
                "{name} event count drifted (shards={shards})"
            );
            assert_eq!(
                bed.telemetry_json(),
                single_json,
                "{name} telemetry drifted (shards={shards})"
            );
        }
    }
}

#[test]
fn window_modes_share_the_golden_truth() {
    // Adaptive windows (the default) versus the fixed-lookahead
    // baseline: the protocols may only differ in how many barriers the
    // coordinator erects, never in the answer. Every workload below is
    // run under both modes at 1, 2 and 4 shards and held to byte
    // identity — truth-log digests, event counts, and the canonical
    // telemetry tree. This is the license for `perf --adaptive` to
    // report the mode delta as pure synchronization overhead. Adaptive
    // windows on the FDDI backbone fail the profitability gate, so at 2
    // and 4 shards that side is sharded only for the calibration prefix
    // and the single-threaded bus after it (fixed lookahead, an
    // ablation, is never demoted);
    // `profitability_gate_demotes_dense_shapes_in_place` covers adaptive
    // sharded fddi to the horizon.
    use ctms_core::{RingChainTestbed, RingGraph};
    use ctms_router::BridgeKind;
    use ctms_sim::WindowMode;

    // Cases A and B are single-ring topologies: every shard count falls
    // back to the single-threaded bus, where the mode setter must be
    // accepted (as a no-op) and the golden digests must hold either way.
    for sc in [Scenario::test_case_a(42), Scenario::test_case_b(42)] {
        let mut got = Vec::new();
        for mode in [WindowMode::Adaptive, WindowMode::FixedLookahead] {
            let (mut bus, _roles) = Testbed::ctms_sharded(&sc, 4);
            bus.set_window_mode(mode);
            bus.run_until(SimTime::from_secs(10));
            got.push(
                bus.truth_log(1, MeasurePoint::CtmspIdentified)
                    .map(|log| log.digest())
                    .unwrap_or(0),
            );
        }
        assert_eq!(got[0], got[1], "fallback bus must ignore the mode");
    }

    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let horizon = SimTime::from_secs(2);
    let shapes: [(&str, Option<RingGraph>); 4] = [
        ("chain", None),
        ("tree", Some(RingGraph::tree(13, 3))),
        ("mesh", Some(RingGraph::mesh(12, 42))),
        ("fddi", Some(RingGraph::fddi(12))),
    ];
    for (name, graph) in shapes {
        for shards in [1usize, 2, 4] {
            let run = |mode: WindowMode| {
                let mut bed = match &graph {
                    None => RingChainTestbed::chain_sharded(&sc, kind, 16, shards),
                    Some(g) => RingChainTestbed::graph_sharded(&sc, kind, g, shards),
                };
                bed.bus_mut().set_window_mode(mode);
                bed.run_until(horizon);
                let digests = [
                    bed.measurement_set().vca_irq.digest(),
                    bed.measurement_set().handler.digest(),
                    bed.measurement_set().pre_tx.digest(),
                    bed.measurement_set().ctmsp_rx.digest(),
                ];
                (
                    digests,
                    bed.events(),
                    bed.telemetry_json(),
                    bed.shard_count(),
                )
            };
            let adaptive = run(WindowMode::Adaptive);
            let fixed = run(WindowMode::FixedLookahead);
            let demoted = name == "fddi" && shards > 1;
            assert_eq!(
                (adaptive.3, fixed.3),
                (if demoted { 1 } else { shards }, shards),
                "{name}: effective shards (adaptive, fixed) after the run (shards={shards})"
            );
            assert_eq!(
                adaptive.0, fixed.0,
                "{name} truth diverged between window modes (shards={shards})"
            );
            assert_eq!(
                adaptive.1, fixed.1,
                "{name} event count diverged between window modes (shards={shards})"
            );
            assert_eq!(
                adaptive.2, fixed.2,
                "{name} telemetry diverged between window modes (shards={shards})"
            );
        }
    }
}

#[test]
fn optimistic_mode_shares_the_golden_truth() {
    // The Time-Warp-style optimistic engine versus the conservative
    // one: speculation and rollback may only change the wall clock and
    // the `sched.*` exec counters, never the answer. Cases A and B pin
    // the single-ring fallback (the setter must be accepted as a
    // no-op); chain/tree/mesh/fddi at 1, 2 and 4 shards are held to
    // byte identity against the single-threaded run — truth digests,
    // event counts, and the whole canonical telemetry tree — and the
    // multi-shard configurations must report actual rollbacks, so the
    // parity claim is not vacuously about runs that never speculated
    // past a straggler.
    use ctms_core::{RingChainTestbed, RingGraph};
    use ctms_router::BridgeKind;
    use ctms_sim::{ExecMode, WindowMode};

    for sc in [Scenario::test_case_a(42), Scenario::test_case_b(42)] {
        let mut got = Vec::new();
        for exec in [ExecMode::Conservative, ExecMode::Optimistic] {
            let (mut bus, _roles) = Testbed::ctms_sharded(&sc, 4);
            bus.set_exec_mode(exec);
            bus.run_until(SimTime::from_secs(10));
            got.push(
                bus.truth_log(1, MeasurePoint::CtmspIdentified)
                    .map(|log| log.digest())
                    .unwrap_or(0),
            );
        }
        assert_eq!(got[0], got[1], "fallback bus must ignore the exec mode");
    }

    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let horizon = SimTime::from_secs(2);
    let shapes: [(&str, Option<RingGraph>); 4] = [
        ("chain", None),
        ("tree", Some(RingGraph::tree(13, 3))),
        ("mesh", Some(RingGraph::mesh(12, 42))),
        ("fddi", Some(RingGraph::fddi(12))),
    ];
    for (name, graph) in shapes {
        let mut single = match &graph {
            None => RingChainTestbed::chain(&sc, kind, 16),
            Some(g) => RingChainTestbed::graph(&sc, kind, g),
        };
        single.run_until(horizon);
        let single_json = single.telemetry_json();
        let single_events = single.bus().events();
        let single_digests = [
            single.measurement_set().vca_irq.digest(),
            single.measurement_set().handler.digest(),
            single.measurement_set().pre_tx.digest(),
            single.measurement_set().ctmsp_rx.digest(),
        ];
        let mut rollbacks_seen = 0;
        for shards in [1usize, 2, 4] {
            // Speculation commits against whichever conservative
            // protocol is selected; both must reproduce the reference.
            // Adaptive bounds are often already tight enough that
            // nothing stragglers — the fixed-lookahead baseline is
            // where deep speculation (and therefore rollback) happens.
            for mode in [WindowMode::Adaptive, WindowMode::FixedLookahead] {
                let mut bed = match &graph {
                    None => RingChainTestbed::chain_sharded(&sc, kind, 16, shards),
                    Some(g) => RingChainTestbed::graph_sharded(&sc, kind, g, shards),
                };
                bed.bus_mut().set_window_mode(mode);
                bed.bus_mut().set_exec_mode(ExecMode::Optimistic);
                bed.run_until(horizon);
                let got = [
                    bed.measurement_set().vca_irq.digest(),
                    bed.measurement_set().handler.digest(),
                    bed.measurement_set().pre_tx.digest(),
                    bed.measurement_set().ctmsp_rx.digest(),
                ];
                assert_eq!(
                    got, single_digests,
                    "{name} optimistic truth drifted (shards={shards}, {mode:?}): {got:#018X?}"
                );
                assert_eq!(
                    bed.events(),
                    single_events,
                    "{name} optimistic event count drifted (shards={shards}, {mode:?})"
                );
                assert_eq!(
                    bed.telemetry_json(),
                    single_json,
                    "{name} optimistic telemetry drifted (shards={shards}, {mode:?})"
                );
                if let Some(reg) = bed.bus().exec_telemetry() {
                    rollbacks_seen += reg.counter_value("sched.rollbacks").unwrap_or(0);
                    assert!(
                        reg.counter_value("sched.gvt_rounds") > Some(0),
                        "{name} shards={shards} {mode:?}: optimistic engine must have run"
                    );
                }
            }
        }
        assert!(
            rollbacks_seen > 0,
            "{name}: no configuration rolled back — optimistic parity is vacuous"
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Same seed, same process, two independently built testbeds: every
    // digest must agree (no hidden global state, no allocator or
    // HashMap-iteration dependence in the event order).
    let sc = Scenario::test_case_b(7);
    assert_eq!(digests(&sc), digests(&sc));
}

#[test]
fn telemetry_json_is_byte_identical_across_runs() {
    // The whole metric tree — every counter, gauge, histogram and text
    // in every crate's namespace — serialized twice from independently
    // built testbeds. Byte equality, not just digest equality: any
    // non-deterministic iteration order or float formatting anywhere in
    // the registry shows up as a readable diff here.
    for sc in [Scenario::test_case_a(42), Scenario::test_case_b(42)] {
        let first = ctms_bench::telemetry_case(&sc);
        let second = ctms_bench::telemetry_case(&sc);
        assert_eq!(first, second, "telemetry JSON drifted between runs");
    }
}

#[test]
fn telemetry_digests_are_golden() {
    // FNV-1a over the canonical JSON bytes, pinned like the edge-log
    // digests above: a change to any registered metric path or value —
    // or to the serializer itself — moves these and is caught as a
    // reviewable diff instead of silent telemetry drift.
    let digest =
        |sc: &Scenario| ctms_sim::telemetry::fnv1a(ctms_bench::telemetry_case(sc).as_bytes());
    let a = digest(&Scenario::test_case_a(42));
    let b = digest(&Scenario::test_case_b(42));
    assert_eq!(
        a, 0x4EFA_4772_20F4_EE0B,
        "case A telemetry drifted: {a:#018X}"
    );
    assert_eq!(
        b, 0xF9C7_8BD2_FDF4_71C1,
        "case B telemetry drifted: {b:#018X}"
    );
}

#[test]
fn profitability_gate_demotes_dense_shapes_in_place() {
    // The profitability gate: a sharded bus whose first
    // CALIBRATION_WINDOWS windows carry too few events each moves onto
    // the single-threaded bus mid-run. Dense-coupling shapes (the FDDI
    // backbone, a 16-ring mesh: ~5-15 events per window) demote at 2
    // and 4 shards and report one effective shard; the run stays byte
    // for byte the single-threaded run — truth digests, counters,
    // events, the whole telemetry tree — and checkpoints on either side
    // of the demotion are the single-threaded run's bytes and restore
    // at any shard count. Sparse shapes (a handful of long windows)
    // never complete the prefix and stay sharded.
    use ctms_core::{RingChainTestbed, RingGraph, CALIBRATION_WINDOWS, MIN_EVENTS_PER_WINDOW};
    use ctms_router::BridgeKind;

    let sc = Scenario::scaled_chain(42);
    let kind = BridgeKind::cut_through_bridge();
    let horizon = SimTime::from_secs(2);
    let step = SimTime::from_ms(1).as_ns();
    let digests = |set: ctms_measure::MeasurementSet| {
        [
            set.vca_irq.digest(),
            set.handler.digest(),
            set.pre_tx.digest(),
            set.ctmsp_rx.digest(),
        ]
    };

    for (name, graph) in [
        ("fddi", RingGraph::fddi(12)),
        ("mesh", RingGraph::mesh(16, 42)),
    ] {
        let mut single = RingChainTestbed::graph(&sc, kind, &graph);
        single.run_until(horizon);
        let single_json = single.telemetry_json();
        let single_digests = digests(single.measurement_set());
        let single_counters = single.counters();
        let single_events = single.bus().events();

        for shards in [2usize, 4] {
            // One uninterrupted run.
            let mut bed = RingChainTestbed::graph_sharded(&sc, kind, &graph, shards);
            assert_eq!(bed.shard_count(), shards, "{name}: built sharded");
            bed.run_until(horizon);
            assert_eq!(bed.shard_count(), 1, "{name} shards={shards}: not demoted");
            let verdict = bed.bus().profitability().expect("prefix completed");
            assert!(verdict.demotes(), "{name} shards={shards}: {verdict:?}");
            assert_eq!(verdict.shards, shards);
            assert!(verdict.windows >= CALIBRATION_WINDOWS);
            assert!(verdict.events < MIN_EVENTS_PER_WINDOW * verdict.windows);
            assert_eq!(
                digests(bed.measurement_set()),
                single_digests,
                "{name} truth drifted (shards={shards})"
            );
            assert_eq!(bed.counters(), single_counters, "{name} counters drifted");
            assert_eq!(bed.events(), single_events, "{name} events drifted");
            assert_eq!(
                bed.telemetry_json(),
                single_json,
                "{name} telemetry drifted (shards={shards})"
            );

            // Stepped in 1 ms calls: the last checkpoint while sharded
            // and the first after the demotion.
            let mut bed = RingChainTestbed::graph_sharded(&sc, kind, &graph, shards);
            let mut before = None;
            let mut at = 0;
            while bed.shard_count() > 1 {
                assert!(at < horizon.as_ns(), "{name}: no demotion by the horizon");
                before = Some((bed.now(), bed.bus().checkpoint()));
                at += step;
                bed.run_until(SimTime::from_ns(at));
            }
            let after = (bed.now(), bed.bus().checkpoint());
            let before = before.expect("sharded for at least one step");
            for (label, (t, snapshot)) in [("before", before), ("after", after)] {
                let mut reference = RingChainTestbed::graph(&sc, kind, &graph);
                reference.run_until(t);
                assert!(
                    reference.bus().checkpoint() == snapshot,
                    "{name} shards={shards}: checkpoint {label} the demotion differs from the single-threaded run's"
                );
                for restore_at in [1usize, 2, 4] {
                    let mut resumed =
                        RingChainTestbed::graph_sharded(&sc, kind, &graph, restore_at);
                    resumed
                        .bus_mut()
                        .restore_checkpoint(&snapshot)
                        .unwrap_or_else(|e| panic!("{name}: restore {label} at {restore_at}: {e}"));
                    resumed.run_until(horizon);
                    assert_eq!(
                        resumed.telemetry_json(),
                        single_json,
                        "{name} shards={shards}: resumed {label} the demotion at {restore_at} shards drifted"
                    );
                }
            }

            // The adaptive sharded engine itself to the horizon: a
            // restore restarts the calibration prefix, so restoring
            // before each prefix completes — as a session that steers
            // often does — keeps the bus sharded, and the answer is
            // still the single-threaded run's.
            let mut bed = RingChainTestbed::graph_sharded(&sc, kind, &graph, shards);
            let mut at = 0;
            while at < horizon.as_ns() {
                at += 5 * step;
                bed.run_until(SimTime::from_ns(at));
                assert_eq!(
                    bed.shard_count(),
                    shards,
                    "{name} shards={shards}: demoted by {at} ns despite restores"
                );
                let snapshot = bed.bus().checkpoint();
                bed.bus_mut()
                    .restore_checkpoint(&snapshot)
                    .expect("a bus restores its own checkpoint");
            }
            assert_eq!(
                digests(bed.measurement_set()),
                single_digests,
                "{name} truth drifted while kept sharded (shards={shards})"
            );
            assert_eq!(bed.events(), single_events, "{name} events drifted");
            assert_eq!(
                bed.telemetry_json(),
                single_json,
                "{name} telemetry drifted while kept sharded (shards={shards})"
            );
        }
    }

    // Sparse shapes run their whole horizon in a few windows: the
    // prefix never completes, so they keep every shard.
    for (name, graph) in [
        (
            "chain",
            RingGraph::named("chain", 16, 42).expect("chain shape"),
        ),
        ("tree", RingGraph::tree(13, 3)),
        ("mesh", RingGraph::mesh(12, 42)),
    ] {
        for shards in [2usize, 4] {
            let mut bed = RingChainTestbed::graph_sharded(&sc, kind, &graph, shards);
            bed.run_until(horizon);
            assert_eq!(
                bed.shard_count(),
                shards,
                "{name} at {shards} shards must stay sharded"
            );
            assert_eq!(bed.bus().profitability(), None, "{name}: prefix completed");
        }
    }
}
