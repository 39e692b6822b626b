//! The in-process workloads: `paper_cases`, `city_tree` and
//! `fddi_backbone`.
//!
//! One repetition builds and runs every case twice, interleaved: once
//! on the 1-thread bus and once at 2 requested shards. Both runs must
//! reproduce the reference world (event count plus the four
//! measurement-point digests of the first 1-thread run) before their
//! timings are kept. Each run is one uninterrupted `run_until` call,
//! except in traced repetitions, which cut it into slices. The run at
//! the workload's requested shard count gives `events_per_s`, `setup_s`
//! and one reply per case; the pair gives `parallel_speedup`.

use crate::json;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::Tracer;
use crate::{E2e, Opts, Outcome, RepFigures};
use ctms_core::{graph_topology, partition_rings, RingGraph, Scenario, ShardedBus, Testbed};
use ctms_measure::{HistId, MeasurementSet};
use ctms_router::BridgeKind;
use ctms_sim::telemetry::fnv1a;
use ctms_sim::{ChunkSink, PersistError, SimTime};
use ctms_unixkern::MeasurePoint;
use std::time::{Duration, Instant};

/// Threads requested for every multi-shard run.
const THREADS: usize = 2;

enum Case {
    /// A §5 test case on the single-ring testbed.
    Paper(Scenario),
    /// A named ring graph on the scaled-chain host scenario.
    Graph {
        sc: Scenario,
        shape: &'static str,
        rings: usize,
    },
}

struct Plan {
    cases: Vec<Case>,
    /// Shard count whose run the end-to-end metrics describe.
    requested: usize,
    horizon: SimTime,
    /// Horizon of the untimed 1-thread run that gives the `sim_*`
    /// delivery figures: far past the stream's path latency, so that
    /// they describe delivery and latency rather than the packets still
    /// in flight at the horizon.
    delivery_horizon: SimTime,
    /// Traced repetitions call `run_until` once per slice of the
    /// horizon.
    slices: u64,
    min_reps: usize,
}

fn plan(o: &Opts) -> Plan {
    let q = o.quick;
    let graph = |shape, rings| Case::Graph {
        sc: Scenario::scaled_chain(o.seed),
        shape,
        rings,
    };
    match o.workload.as_str() {
        "paper_cases" => Plan {
            cases: vec![
                Case::Paper(Scenario::test_case_a(o.seed)),
                Case::Paper(Scenario::test_case_b(o.seed)),
            ],
            requested: 1,
            horizon: SimTime::from_secs(if q { 2 } else { 20 }),
            delivery_horizon: SimTime::from_secs(if q { 2 } else { 60 }),
            slices: 20,
            min_reps: 3,
        },
        "city_tree" => Plan {
            cases: vec![graph("tree", if q { 1_000 } else { 10_000 })],
            requested: 2,
            horizon: SimTime::from_ms(if q { 50 } else { 200 }),
            delivery_horizon: SimTime::from_ms(if q { 200 } else { 1_000 }),
            slices: 10,
            min_reps: 3,
        },
        "fddi_backbone" => Plan {
            cases: vec![graph("fddi", 32)],
            requested: 2,
            horizon: SimTime::from_secs(if q { 5 } else { 10 }),
            delivery_horizon: SimTime::from_secs(if q { 5 } else { 60 }),
            slices: 40,
            min_reps: 3,
        },
        other => unreachable!("not an in-process workload: {other}"),
    }
}

/// A built bus plus the hosts whose truth logs hold the measurement
/// points.
struct Built {
    bus: ShardedBus,
    tx: usize,
    rx: usize,
}

fn build(case: &Case, shards: usize, t: &mut Tracer, tag: u64) -> Built {
    match case {
        Case::Paper(sc) if shards == 1 => {
            // Turning the testbed into its bus is part of the build.
            let (bus, tx, rx) = t.span("core.topology.build", tag, |_| {
                let bed = Testbed::ctms(sc);
                let (tx, rx) = (bed.roles.tx_host, bed.roles.rx_host);
                (ShardedBus::Single(bed.into_bus()), tx, rx)
            });
            Built { bus, tx, rx }
        }
        Case::Paper(sc) => {
            let (bus, roles) = t.span("core.topology.build", tag, |_| {
                Testbed::ctms_sharded(sc, shards)
            });
            Built {
                bus,
                tx: roles.tx_host,
                rx: roles.rx_host,
            }
        }
        Case::Graph { sc, shape, rings } => {
            let graph = t.span("core.graph.gen", tag, |_| {
                RingGraph::named(shape, *rings, sc.seed).expect("known graph shape")
            });
            let (topo, _, _) = t.span("core.topology.wire", tag, |_| {
                graph_topology(sc, BridgeKind::cut_through_bridge(), &graph)
            });
            let bus = t.span("core.topology.build", tag, |_| {
                let mut bus = topo.build_sharded(shards);
                bus.set_threads(THREADS);
                bus
            });
            t.span("teardown", tag, |_| drop(graph));
            Built { bus, tx: 0, rx: 1 }
        }
    }
}

impl Built {
    fn log(&self, host: usize, point: MeasurePoint) -> ctms_sim::EdgeLog {
        self.bus
            .truth_log(host, point)
            .cloned()
            .unwrap_or_else(|| ctms_sim::EdgeLog::new(format!("h{host}-{point:?}")))
    }

    fn measurement_set(&self) -> MeasurementSet {
        MeasurementSet {
            vca_irq: self.log(self.tx, MeasurePoint::VcaIrq),
            handler: self.log(self.tx, MeasurePoint::VcaHandlerEntry),
            pre_tx: self.log(self.tx, MeasurePoint::PreTransmit),
            ctmsp_rx: self.log(self.rx, MeasurePoint::CtmspIdentified),
        }
    }

    /// Event count plus the four measurement-point digests.
    fn fingerprint(&self) -> [u64; 5] {
        let set = self.measurement_set();
        [
            self.bus.events(),
            set.vca_irq.digest(),
            set.handler.digest(),
            set.pre_tx.digest(),
            set.ctmsp_rx.digest(),
        ]
    }

    fn nodes(&self) -> usize {
        self.bus.ring_count() + self.bus.bridge_count() + self.bus.host_count()
    }
}

/// Runs to `horizon` and returns the wall time: in one `run_until`
/// call, or, while tracing, in `slices` equal calls each in its own
/// span, so that warm-up and steady state separate.
fn run_to(b: &mut Built, horizon: SimTime, slices: u64, t: &mut Tracer, tag: u64) -> Duration {
    let t0 = Instant::now();
    if !t.on() {
        b.bus.run_until(horizon);
        return t0.elapsed();
    }
    t.span("sim.run_until", tag, |t| {
        for i in 1..=slices {
            let at = SimTime::from_ns(horizon.as_ns() / slices * i);
            t.span("sim.run_until.slice", i, |_| b.bus.run_until(at));
        }
    });
    t0.elapsed()
}

/// Peak resident memory (MB) of this process after it built and ran
/// every case once at the requested shard count.
pub fn memory_pass(o: &Opts) -> f64 {
    let p = plan(o);
    let mut t = Tracer::new(false);
    for case in &p.cases {
        let mut b = build(case, p.requested, &mut t, 0);
        run_to(&mut b, p.horizon, p.slices, &mut t, 0);
    }
    peak_rss_mb(None).unwrap_or(f64::NAN)
}

/// Fresh processes that make the memory pass.
const MEMORY_PASSES: usize = 5;

/// The smallest peak resident memory (MB) of `MEMORY_PASSES` fresh
/// processes making the memory pass, so the figure depends neither on
/// the repetitions that follow nor on how their allocations fragmented
/// the heap. The 2-shard runs' threads make a single process's peak
/// vary by up to 2 MB (when threads get their own allocator arenas);
/// the smallest repeats. NaN when a pass fails.
fn peak_rss_of_fresh_processes(o: &Opts) -> f64 {
    let Ok(exe) = std::env::current_exe() else {
        return f64::NAN;
    };
    let mut args = vec![
        "--workload".to_string(),
        o.workload.clone(),
        "--seed".to_string(),
        o.seed.to_string(),
        "--memory-pass".to_string(),
    ];
    if o.quick {
        args.push("--quick".to_string());
    }
    (0..MEMORY_PASSES)
        .map(|_| {
            std::process::Command::new(&exe)
                .args(&args)
                .stderr(std::process::Stdio::inherit())
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok()?.trim().parse().ok())
                .unwrap_or(f64::NAN)
        })
        .fold(
            f64::INFINITY,
            |a: f64, b: f64| if b.is_nan() { f64::NAN } else { a.min(b) },
        )
}

/// The stream's delivery in every case run on 1 thread to the delivery
/// horizon: packets presented at the sink, packets the VCA source sent,
/// and the H7 samples (µs).
fn delivery(p: &Plan) -> (f64, f64, Vec<f64>) {
    let (mut presented, mut sent, mut h7_us) = (0.0, 0.0, Vec::new());
    for case in &p.cases {
        let mut b = build(case, 1, &mut Tracer::new(false), 0);
        b.bus.run_until(p.delivery_horizon);
        let tree = json::parse(&b.bus.telemetry_json()).expect("telemetry is valid JSON");
        let (pr, se) = crate::stream_counts(&tree);
        presented += pr;
        sent += se;
        h7_us.extend(b.measurement_set().samples_us(HistId::H7));
    }
    (presented, sent, h7_us)
}

pub fn run(o: &Opts, out: &mut Outcome) -> Tracer {
    let p = plan(o);
    let mut t = Tracer::new(o.trace);
    let budget = Duration::from_secs_f64(o.seconds);
    let start = Instant::now();
    // Per case: the first 1-thread run's fingerprint and telemetry digest.
    let mut reference: Vec<Option<([u64; 5], u64)>> = vec![None; p.cases.len()];
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut sim = SimFigures::default();
    // Traced run only: the last case's final 1-thread and 2-shard
    // buses of an untraced repetition, kept for the layer probes.
    let mut last: [Option<Built>; 2] = [None, None];
    let mut effective = [0usize; 2];
    let mut rep_no = 0u64;
    while (rep_no as usize) < p.min_reps || start.elapsed() < budget {
        // The traced run alternates traced and untraced repetitions, so
        // the tracing overhead is measured inside one invocation.
        t.set_on(o.trace && rep_no.is_multiple_of(2));
        let mut rep = RepFigures::default();
        let mut ok = true;
        for (ci, case) in p.cases.iter().enumerate() {
            // Rep 0 runs the 1-thread reference first; later reps
            // alternate the order.
            let order = if rep_no.is_multiple_of(2) {
                [1, 2]
            } else {
                [2, 1]
            };
            for shards in order {
                if shards == p.requested {
                    // Build once and drop it first, so `setup_s` times a
                    // build with warm caches and allocator. A build right
                    // after a run is dominated by cache misses and page
                    // faults whose cost drifts with the host by 30% and
                    // more between passes; a warm build repeats.
                    drop(build(case, shards, &mut Tracer::new(false), rep_no));
                }
                let setup0 = Instant::now();
                let mut b = t.span("setup", rep_no, |t| build(case, shards, t, rep_no));
                let setup = setup0.elapsed().as_secs_f64();
                effective[shards - 1] = b.bus.shard_count();
                let wall = run_to(&mut b, p.horizon, p.slices, &mut t, rep_no).as_secs_f64();
                let fp = t.span("check", rep_no, |_| b.fingerprint());
                let (want, want_tree) = *reference[ci].get_or_insert_with(|| {
                    // The first 1-thread run defines the world every
                    // later run must reproduce.
                    let tree = b.bus.telemetry_json();
                    sim.add(&b, &tree);
                    (fp, fnv1a(tree.as_bytes()))
                });
                let mut good = fp == want;
                out.op(good, || {
                    format!(
                        "{} shards={shards} rep {rep_no}: events and digests {fp:x?} differ from the 1-thread reference {want:x?}",
                        o.workload
                    )
                });
                if rep_no == 0 && shards == 2 {
                    let same = fnv1a(b.bus.telemetry_json().as_bytes()) == want_tree;
                    out.op(same, || {
                        format!(
                            "{}: 2-shard telemetry differs from the 1-thread run",
                            o.workload
                        )
                    });
                    good &= same;
                }
                ok &= good;
                if shards == 1 {
                    rep.one_thread_s += wall;
                } else {
                    rep.two_shard_s += wall;
                }
                if shards == p.requested {
                    rep.events += fp[0];
                    rep.setup_s += setup;
                    rep.runs_ms.push(wall * 1e3);
                    rep.replies_ms.push(wall * 1e3);
                }
                if o.trace && !t.on() && ci + 1 == p.cases.len() {
                    last[shards - 1] = Some(b);
                }
            }
        }
        // A repetition whose outputs are wrong keeps no timing.
        if ok {
            if t.on() { &mut traced } else { &mut untraced }.push(rep);
        }
        rep_no += 1;
    }
    t.set_on(o.trace);

    let eff = effective[p.requested - 1];
    out.stamp("shards_requested", p.requested);
    out.stamp("effective_shards", eff);
    out.stamp(
        "speedup_base_vs_shards",
        format!("1 vs {} effective", effective[1]),
    );
    out.stamp(
        "threads_requested",
        if p.requested > 1 { THREADS } else { 1 },
    );
    out.stamp("threads_used", THREADS.min(eff));
    out.stamp(
        "reps",
        format!("{} untraced, {} traced", untraced.len(), traced.len()),
    );

    if !o.trace {
        E2e::of(&untraced).set(out);
        out.set("peak_rss_mb", peak_rss_of_fresh_processes(o));
        let (presented, sent, h7_us) = delivery(&p);
        out.set("sim_delivered_frac", presented / sent);
        out.set("sim_h7_p99_us", quantile(&h7_us, 0.99));
        return t;
    }

    E2e::set_overhead(&E2e::of(&traced), &E2e::of(&untraced), out);
    let per_rep =
        |f: &dyn Fn(&RepFigures) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let bus_ns = per_rep(&|r| r.one_thread_s * 1e9 / r.events as f64);
    out.set("sim.bus.ns_per_event", bus_ns);
    out.set("sim.bus.events", sim.events as f64);
    for (name, v) in &sim.counts {
        out.set(name, *v);
    }

    let two = last[1].as_ref().expect("an untraced 2-shard run happened");
    let windows = shard_figures(&two.bus, out);
    out.set(
        "sim.shard.us_per_window",
        per_window_us(per_rep(&|r| r.two_shard_s), windows),
    );
    let case = p.cases.last().expect("a case");
    let req = last[p.requested - 1]
        .as_mut()
        .expect("a requested run happened");
    layer_probes(case, p.requested, req, bus_ns, o.quick, &mut t, out);
    t
}

fn per_window_us(wall_s: f64, windows: u64) -> f64 {
    if windows > 0 {
        wall_s * 1e6 / windows as f64
    } else {
        0.0
    }
}

/// The probes every traced run makes on its final state `req` (built
/// at `shards`): graph partition, synthetic scheduler cost, persist and
/// telemetry calls, and the build spans recorded so far.
fn layer_probes(
    case: &Case,
    shards: usize,
    req: &mut Built,
    bus_ns: f64,
    quick: bool,
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let nodes = req.nodes();
    out.set("core.topology.nodes", nodes as f64);
    let reps = if quick { 2 } else { 5 };
    out.set("core.graph.partition_ms", partition_probe(case, reps, t));
    let (bus_synth, shard_synth) = synth_probe(nodes, quick, t);
    out.set("sim.bus.synth_ns_per_event", bus_synth);
    out.set("models.ns_per_event", bus_ns - bus_synth);
    out.set("sim.shard.synth_ns_per_event", shard_synth);
    persist_probe(case, shards, req, reps, t, out);
    telemetry_probe(&mut req.bus, reps, t, out);
    let ms = |name: &str| {
        let d = t.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) / 1e6
        }
    };
    for (metric, span) in [
        ("core.graph.gen_ms", "core.graph.gen"),
        ("core.topology.wire_ms", "core.topology.wire"),
        ("core.topology.build_ms", "core.topology.build"),
    ] {
        out.set(metric, ms(span));
    }
}

fn chain_case(seed: u64, rings: usize) -> Case {
    Case::Graph {
        sc: Scenario::scaled_chain(seed),
        shape: "chain",
        rings,
    }
}

/// p99 of H7 (µs) in the world a `serve` chain session checkpointed.
pub fn restored_h7_p99(seed: u64, rings: usize, snapshot: &[u8]) -> Result<f64, String> {
    let mut b = build(&chain_case(seed, rings), 1, &mut Tracer::new(false), 0);
    b.bus
        .restore_checkpoint(snapshot)
        .map_err(|e| e.to_string())?;
    Ok(quantile(&b.measurement_set().samples_us(HistId::H7), 0.99))
}

/// The layer figures of a `serve` chain session, measured in-process:
/// the same scenario and seed run to the session's horizon at 1 thread
/// and at 2 shards, then the persist and telemetry probes on the
/// session's own final checkpoint.
pub fn serve_state_layers(
    o: &Opts,
    rings: usize,
    horizon_ms: u64,
    slices: u64,
    snapshot: &[u8],
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let case = chain_case(o.seed, rings);
    let horizon = SimTime::from_ms(horizon_ms);
    let mut runs = Vec::new();
    for shards in [1, 2] {
        let mut b = t.span("setup", 0, |t| build(&case, shards, t, 0));
        let wall = run_to(&mut b, horizon, slices, t, 0).as_secs_f64();
        let fp = t.span("check", 0, |_| b.fingerprint());
        runs.push((b, wall, fp));
    }
    out.op(runs[0].2 == runs[1].2, || {
        "chain: 2-shard run differs from the 1-thread run".to_string()
    });
    let bus_ns = runs[0].1 * 1e9 / runs[0].2[0] as f64;
    out.set("sim.bus.ns_per_event", bus_ns);
    let windows = shard_figures(&runs[1].0.bus, out);
    out.set("sim.shard.us_per_window", per_window_us(runs[1].1, windows));
    drop(runs);
    let mut restored = t.span("setup", 1, |t| build(&case, 1, t, 1));
    let ok = t.span("core.checkpoint.restore", 0, |_| {
        restored.bus.restore_checkpoint(snapshot)
    });
    out.op(ok.is_ok(), || {
        format!("restoring the session checkpoint in-process: {ok:?}")
    });
    layer_probes(&case, 1, &mut restored, bus_ns, o.quick, t, out);
}

/// Sets the `sim.shard.*` counters of a finished run; returns its
/// window count.
fn shard_figures(bus: &ShardedBus, out: &mut Outcome) -> u64 {
    let k = bus.shard_count();
    let count = |key: &str| {
        bus.exec_telemetry()
            .and_then(|r| r.counter_value(key))
            .unwrap_or(0)
    };
    let stats: Vec<_> = (0..k).map(|s| bus.shard_stats(s)).collect();
    let idle: u64 = stats.iter().map(|s| s.idle_windows).sum();
    let grants = idle + stats.iter().map(|s| s.window_advances).sum::<u64>();
    let events: Vec<f64> = stats.iter().map(|s| s.events as f64).collect();
    let mean = events.iter().sum::<f64>() / k as f64;
    let max = events.iter().copied().fold(0.0, f64::max);
    let windows = count("sched.windows");
    out.set("sim.shard.effective_shards", k as f64);
    out.set("sim.shard.windows", windows as f64);
    out.set(
        "sim.shard.sync_instants",
        count("sched.sync_instants") as f64,
    );
    out.set("sim.shard.mail_rounds", count("sched.mail_rounds") as f64);
    out.set(
        "sim.shard.mail_msgs",
        stats.iter().map(|s| s.mailbox_sent).sum::<u64>() as f64,
    );
    out.set(
        "sim.shard.idle_window_frac",
        if grants > 0 {
            idle as f64 / grants as f64
        } else {
            0.0
        },
    );
    out.set(
        "sim.shard.load_imbalance",
        if mean > 0.0 { max / mean } else { 1.0 },
    );
    windows
}

/// Median wall time (ms) of `partition_rings` into 2 parts on the
/// case's graph; 0 for the single-ring testbed, which has no graph.
fn partition_probe(case: &Case, reps: usize, t: &mut Tracer) -> f64 {
    let Case::Graph { sc, shape, rings } = case else {
        return 0.0;
    };
    t.span("probe.partition", 0, |t| {
        let graph = t.span("core.graph.gen", 0, |_| {
            RingGraph::named(shape, *rings, sc.seed).expect("known graph shape")
        });
        let edges = t.span("core.graph.edges", 0, |_| graph.pair_edges());
        let ms: Vec<f64> = (0..reps)
            .map(|k| {
                let t0 = Instant::now();
                let parts = t.span("core.graph.partition", k as u64, |_| {
                    partition_rings(graph.ring_count(), &edges, 2)
                });
                std::hint::black_box(parts);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        t.span("teardown", 0, |_| drop((graph, edges)));
        median(&ms)
    })
}

/// The scheduler's own cost per event on the synthetic command ring at
/// `nodes` nodes, 1-thread and 2-shard: `(ns/event, ns/event)`.
fn synth_probe(nodes: usize, quick: bool, t: &mut Tracer) -> (f64, f64) {
    let target: u64 = if quick { 200_000 } else { 2_000_000 };
    // Each node fires about once per 1 µs with up to 4 forwarded hops;
    // step so that one `run_until` services ~50k events.
    let step_ns = (50_000_000 / (nodes as u64 * 5)).max(1_000);
    t.span("probe.synth", 0, |t| {
        let mut h = t.span("sim.synth.build", 0, |_| {
            ctms_sim::synth::build_ring(nodes, 1_000, 4)
        });
        let bus = t.span("sim.bus.synth", 0, |_| {
            let t0 = Instant::now();
            let mut at = 0;
            while h.events() < target {
                at += step_ns;
                h.run_until(SimTime::from_ns(at));
            }
            t0.elapsed().as_secs_f64() * 1e9 / h.events() as f64
        });
        let per_shard = (nodes / 2).max(1);
        let mut s = t.span("sim.synth.build", 1, |_| {
            ctms_sim::synth::build_sharded_ring(per_shard, 1_000, 4, 2_500, 2_500)
        });
        s.set_threads(THREADS);
        let sharded = t.span("sim.shard.synth", 0, |_| {
            let t0 = Instant::now();
            let mut at = 0;
            while s.events() < target {
                at += step_ns;
                s.run_until(SimTime::from_ns(at));
            }
            t0.elapsed().as_secs_f64() * 1e9 / s.events() as f64
        });
        (bus, sharded)
    })
}

/// Counts a streamed checkpoint's payload bytes and chunks.
#[derive(Default)]
struct CountSink {
    bytes: u64,
    chunks: u64,
}

impl ChunkSink for CountSink {
    fn chunk(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.bytes += bytes.len() as u64;
        self.chunks += 1;
        Ok(())
    }
}

/// Times the persist calls on the final state `b`: streamed and framed
/// writes, a framed read and a monolithic restore into fresh builds.
/// Every restored bus must snapshot back to the same bytes.
fn persist_probe(
    case: &Case,
    shards: usize,
    b: &Built,
    reps: usize,
    t: &mut Tracer,
    out: &mut Outcome,
) {
    t.span("probe.persist", 0, |t| {
        let mono = t.span("sim.persist.checkpoint", 0, |_| b.bus.checkpoint());
        let mut sink = CountSink::default();
        let streamed = t.span("sim.persist.stream", 0, |_| {
            b.bus.checkpoint_stream(&mut sink)
        });
        out.op(streamed.is_ok() && sink.bytes == mono.len() as u64, || {
            "streamed checkpoint length differs from the snapshot".to_string()
        });
        let mb = mono.len() as f64 / 1e6;
        out.set("sim.persist.ckpt_mb", mb);
        out.set("sim.persist.ckpt_chunks", sink.chunks as f64);
        let mut framed = Vec::with_capacity(mono.len() + mono.len() / 8);
        let (mut write, mut read, mut restore) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..reps as u64 {
            framed.clear();
            let t0 = Instant::now();
            let w = t.span("sim.persist.write", k, |_| {
                b.bus.write_checkpoint(&mut framed)
            });
            write.push(t0.elapsed().as_secs_f64());
            out.op(w.is_ok(), || "write_checkpoint failed".to_string());

            let mut fresh = t.span("setup", k, |t| build(case, shards, t, k));
            let t0 = Instant::now();
            let r = t.span("sim.persist.read", k, |_| {
                fresh.bus.read_checkpoint(&mut framed.as_slice())
            });
            read.push(t0.elapsed().as_secs_f64());
            let same = t.span("check", k, |_| fresh.bus.checkpoint() == mono);
            t.span("teardown", k, |_| drop(fresh));
            out.op(r.is_ok() && same, || {
                "read_checkpoint did not reproduce the snapshot".to_string()
            });

            let mut fresh = t.span("setup", k, |t| build(case, shards, t, k));
            let t0 = Instant::now();
            let r = t.span("core.checkpoint.restore", k, |_| {
                fresh.bus.restore_checkpoint(&mono)
            });
            restore.push(t0.elapsed().as_secs_f64());
            let same = t.span("check", k, |_| fresh.bus.checkpoint() == mono);
            t.span("teardown", k, |_| drop(fresh));
            out.op(r.is_ok() && same, || {
                "restore_checkpoint did not reproduce the snapshot".to_string()
            });
        }
        t.span("teardown", 0, |_| drop((mono, framed)));
        out.set("sim.persist.write_mb_per_s", mb / median(&write));
        out.set("sim.persist.read_mb_per_s", mb / median(&read));
        out.set("core.checkpoint.restore_ms", median(&restore) * 1e3);
    });
}

fn telemetry_probe(bus: &mut ShardedBus, reps: usize, t: &mut Tracer, out: &mut Outcome) {
    t.span("probe.telemetry", 0, |t| {
        let mut len = 0;
        let ms: Vec<f64> = (0..reps as u64)
            .map(|k| {
                let t0 = Instant::now();
                len = t
                    .span("sim.telemetry.json", k, |_| bus.telemetry_json())
                    .len();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set("sim.telemetry.json_ms", median(&ms));
        out.set("sim.telemetry.json_kb", len as f64 / 1e3);
    });
}

/// Model work counts of the reference world, summed over cases.
#[derive(Default)]
struct SimFigures {
    counts: Vec<(&'static str, f64)>,
    events: u64,
}

impl SimFigures {
    fn add(&mut self, b: &Built, tree: &str) {
        let tree = json::parse(tree).expect("telemetry is valid JSON");
        self.events += b.bus.events();
        for (name, v) in crate::model_counts(&tree) {
            match self.counts.iter_mut().find(|(n, _)| *n == name) {
                Some(c) => c.1 += v,
                None => self.counts.push((name, v)),
            }
        }
    }
}
