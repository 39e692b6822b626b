//! Topologies as data: rings, hosts, bridges, and background traffic
//! registered as nodes on the generic `ctms-sim` scheduler/event-bus.
//!
//! Every testbed in this crate used to hand-roll the same
//! advance-and-route loop (§5.2.1's "centralized control point"). Now a
//! testbed is only a *description*: a [`Topology`] lists which
//! components sit where, [`Topology::build`] registers them with a
//! [`ctms_sim::Harness`], and [`CtmsRouter`] — the one implementation of
//! [`ctms_sim::Router`] — carries the complete inter-component wiring:
//!
//! * ring deliveries and strips go to the host or bridge attached at
//!   the destination station,
//! * host submissions go to the host's ring; bridge forwards go to the
//!   bridge's other ring; phantom traffic goes to its ring,
//! * measurement traffic (TAP observations, trace points, drops,
//!   presentations) is absorbed into [`Measurements`], the ground truth
//!   the experiment suite reads.
//!
//! Node registration order is fixed — rings, then bridges, then hosts,
//! then phantom — which is also the deadline-tie service order, so runs
//! are bit-identical to the old fixed advance orders.

use crate::parallel::{Profitability, ShardedBus, CALIBRATION_WINDOWS};
use crate::testbed::DropRec;
use ctms_measure::{Tap, TapCfg};
use ctms_router::{Bridge, BridgeCmd, BridgeOut};
use ctms_sim::{
    CascadeError, CmdSink, Component, Dur, EdgeLog, Harness, NodeId, Router, ShardStats, SimTime,
};
use ctms_tokenring::{RingCmd, RingOut, StationId, TokenRing};
use ctms_unixkern::{
    DriverCall, DriverId, DropSite, Host, HostCmd, HostOut, KernCmd, MeasurePoint, Port,
};
use ctms_workloads::{PhantomOut, PhantomTraffic};
use std::collections::HashMap;
use std::sync::Arc;

/// A registered component: the one node type the CTMS bus schedules.
///
/// Variants differ a lot in size (a `Host` carries a whole kernel), but
/// nodes are constructed once and live in the harness registry for the
/// whole run — boxing the large variants would only add an indirection
/// on the per-event advance path.
///
/// Each variant carries a retained scratch `Vec` of its substrate's own
/// output type: `advance`/`handle` drain the substrate into the scratch
/// and map into [`Event`] from there, so the translation allocates
/// nothing once the scratch has reached its peak burst size.
#[allow(clippy::large_enum_variant)]
pub enum Node {
    /// A Token Ring medium.
    Ring(TokenRing, Vec<RingOut>),
    /// A full host (machine + kernel).
    Host(Host, Vec<HostOut>),
    /// A two-port ring-to-ring forwarder.
    Bridge(Bridge, Vec<BridgeOut>),
    /// Background campus traffic bound to one ring.
    Phantom(PhantomTraffic, Vec<PhantomOut>),
}

/// Events emitted by any [`Node`].
pub enum Event {
    /// From a ring.
    Ring(RingOut),
    /// From a host.
    Host(HostOut),
    /// From a bridge.
    Bridge(BridgeOut),
    /// From phantom traffic.
    Phantom(PhantomOut),
}

/// Commands routable to any [`Node`].
#[derive(Clone)]
pub enum Cmd {
    /// To a ring.
    Ring(RingCmd),
    /// To a host.
    Host(HostCmd),
    /// To a bridge.
    Bridge(BridgeCmd),
}

impl Component for Node {
    type Cmd = Cmd;
    type Out = Event;

    fn next_deadline(&self) -> Option<SimTime> {
        match self {
            Node::Ring(r, _) => r.next_deadline(),
            Node::Host(h, _) => h.next_deadline(),
            Node::Bridge(b, _) => b.next_deadline(),
            Node::Phantom(p, _) => p.next_deadline(),
        }
    }

    fn advance(&mut self, now: SimTime, sink: &mut Vec<Event>) {
        match self {
            Node::Ring(r, buf) => {
                r.advance(now, buf);
                sink.extend(buf.drain(..).map(Event::Ring));
            }
            Node::Host(h, buf) => {
                h.advance(now, buf);
                sink.extend(buf.drain(..).map(Event::Host));
            }
            Node::Bridge(b, buf) => {
                b.advance(now, buf);
                sink.extend(buf.drain(..).map(Event::Bridge));
            }
            Node::Phantom(p, buf) => {
                p.advance(now, buf);
                sink.extend(buf.drain(..).map(Event::Phantom));
            }
        }
    }

    fn handle(&mut self, now: SimTime, cmd: Cmd, sink: &mut Vec<Event>) {
        match (self, cmd) {
            (Node::Ring(r, buf), Cmd::Ring(c)) => {
                r.handle(now, c, buf);
                sink.extend(buf.drain(..).map(Event::Ring));
            }
            (Node::Host(h, buf), Cmd::Host(c)) => {
                h.handle(now, c, buf);
                sink.extend(buf.drain(..).map(Event::Host));
            }
            (Node::Bridge(b, buf), Cmd::Bridge(c)) => {
                b.handle(now, c, buf);
                sink.extend(buf.drain(..).map(Event::Bridge));
            }
            _ => panic!("misrouted command: node/command kinds disagree"),
        }
    }

    fn publish_telemetry(&self, scope: &mut ctms_sim::telemetry::Scope<'_>) {
        match self {
            Node::Ring(r, _) => r.publish_telemetry(scope),
            Node::Host(h, _) => h.publish_telemetry(scope),
            Node::Bridge(b, _) => b.publish_telemetry(scope),
            Node::Phantom(p, _) => p.publish_telemetry(scope),
        }
    }
}

/// What sits at a ring station, from the router's point of view.
#[derive(Clone, Copy, Debug)]
enum Endpoint {
    /// A host.
    Host { node: NodeId },
    /// One port of a bridge.
    Bridge { node: NodeId, port: u8 },
}

/// Per-node routing metadata, indexed by [`NodeId`]. The complete table
/// is built once and shared read-only (behind one `Arc`) by every shard
/// router — routing is immutable metadata; only taps and measurements
/// are per-shard. At 10^4 rings the table is tens of megabytes, so
/// cloning it per shard would dominate build memory.
enum Slot {
    Ring {
        /// Attached endpoint per station, indexed densely by
        /// [`StationId`] (`None` stations are idle or phantom; their
        /// traffic is not delivered anywhere). Dense so the hot
        /// per-frame delivery lookup is one bounds check and a load,
        /// not a hash.
        endpoints: Vec<Option<Endpoint>>,
    },
    Host {
        index: usize,
        ring: NodeId,
    },
    Bridge {
        /// Ring node per bridge port, in port order.
        rings: Vec<NodeId>,
    },
    Phantom {
        ring: NodeId,
    },
}

/// Ground truth recorded while routing: every measurement stream the
/// experiment suite consumes, absorbed by the router so measurement
/// infrastructure needs no scheduling of its own.
#[derive(Default)]
pub struct Measurements {
    /// Per-host trace points (the paper's measurement points 1–4).
    truth: Vec<HashMap<MeasurePoint, EdgeLog>>,
    /// Every recorded loss, across hosts and ring queues.
    drops: Vec<DropRec>,
    /// CTMS payload presentations at sinks: `(time, tag, bytes)`.
    presented: Vec<(SimTime, u64, u32)>,
    /// Socket deliveries (stock path): `(time, port, bytes)`.
    sock_delivered: Vec<(SimTime, Port, u32)>,
    /// Purge-sequence start instants.
    purge_starts: Vec<SimTime>,
    /// Frames destroyed by purges: `(time, tag)`.
    lost_to_purge: Vec<(SimTime, u64)>,
    /// Frames dropped inside bridges (queue overflow).
    bridge_drops: u64,
}

impl Measurements {
    /// Per-host trace log for one measurement point, if recorded.
    pub fn truth_log(&self, host: usize, point: MeasurePoint) -> Option<&EdgeLog> {
        self.truth.get(host).and_then(|m| m.get(&point))
    }

    /// Per-host trace log for one measurement point, cloned, or an empty
    /// log named after the pair.
    pub fn truth_log_or_empty(&self, host: usize, point: MeasurePoint) -> EdgeLog {
        self.truth_log(host, point)
            .cloned()
            .unwrap_or_else(|| EdgeLog::new(format!("h{host}-{point:?}")))
    }

    /// All recorded drops.
    pub fn drops(&self) -> &[DropRec] {
        &self.drops
    }

    /// CTMS payload presentations at sinks.
    pub fn presented(&self) -> &[(SimTime, u64, u32)] {
        &self.presented
    }

    /// Socket deliveries (stock path).
    pub fn sock_delivered(&self) -> &[(SimTime, Port, u32)] {
        &self.sock_delivered
    }

    /// Purge-sequence start instants.
    pub fn purge_starts(&self) -> &[SimTime] {
        &self.purge_starts
    }

    /// Frames destroyed by purges.
    pub fn lost_to_purge(&self) -> &[(SimTime, u64)] {
        &self.lost_to_purge
    }

    /// Count of frames dropped inside bridges.
    pub fn bridge_drops(&self) -> u64 {
        self.bridge_drops
    }
}

/// The one [`Router`] of the CTMS world: owns the wiring tables, the
/// per-ring TAP monitors, and the [`Measurements`] ground truth.
pub struct CtmsRouter {
    /// The wiring table, shared (not cloned) across shard routers.
    slots: Arc<[Slot]>,
    /// TAP monitor per ring node (same index space as `slots`).
    taps: Vec<Option<Tap>>,
    /// Hosts notified (as a driver call) when a ring purge starts.
    purge_subscribers: Vec<(NodeId, DriverId)>,
    m: Measurements,
}

impl CtmsRouter {
    /// A router over the wiring table `slots` with a fresh TAP on every
    /// ring slot `owns` accepts, no recorded measurements, and one truth
    /// map per host.
    fn new(
        slots: Arc<[Slot]>,
        owns: impl Fn(usize) -> bool,
        purge_subscribers: Vec<(NodeId, DriverId)>,
        n_hosts: usize,
    ) -> Self {
        let taps = slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (matches!(s, Slot::Ring { .. }) && owns(i)).then(|| Tap::new(TapCfg::default()))
            })
            .collect();
        CtmsRouter {
            slots,
            taps,
            purge_subscribers,
            m: Measurements {
                truth: (0..n_hosts).map(|_| HashMap::new()).collect(),
                ..Measurements::default()
            },
        }
    }

    /// Folds the per-shard routers of a collapsing sharded bus (in
    /// shard order) into one: each TAP and truth log moves over from its
    /// owner part, and the flat event lists are concatenated and stably
    /// sorted by time — the router state a checkpoint restore of the
    /// same simulation produces, so the bytes of every later checkpoint
    /// match the single-threaded run's.
    fn merge(parts: Vec<CtmsRouter>) -> CtmsRouter {
        let mut parts = parts.into_iter();
        let mut one = parts.next().expect("at least one router part");
        for p in parts {
            for (slot, tap) in p.taps.into_iter().enumerate() {
                if tap.is_some() {
                    one.taps[slot] = tap;
                }
            }
            for (mine, theirs) in one.m.truth.iter_mut().zip(p.m.truth) {
                mine.extend(theirs);
            }
            one.m.drops.extend(p.m.drops);
            one.m.presented.extend(p.m.presented);
            one.m.sock_delivered.extend(p.m.sock_delivered);
            one.m.purge_starts.extend(p.m.purge_starts);
            one.m.lost_to_purge.extend(p.m.lost_to_purge);
            one.m.bridge_drops += p.m.bridge_drops;
        }
        one.m.drops.sort_by_key(|d| d.at);
        one.m.presented.sort_by_key(|e| e.0);
        one.m.sock_delivered.sort_by_key(|e| e.0);
        one.m.purge_starts.sort();
        one.m.lost_to_purge.sort_by_key(|e| e.0);
        one
    }

    /// The recorded ground truth.
    pub fn measurements(&self) -> &Measurements {
        &self.m
    }

    /// The TAP attached to a ring node.
    fn tap(&self, ring: NodeId) -> &Tap {
        self.taps[ring.0]
            .as_ref()
            .expect("node is a ring with a tap")
    }
}

impl Router<Node> for CtmsRouter {
    fn route(&mut self, now: SimTime, src: NodeId, event: Event, sink: &mut CmdSink<Cmd>) {
        match event {
            Event::Ring(out) => self.route_ring(now, src, out, sink),
            Event::Host(out) => self.route_host(now, src, out, sink),
            Event::Bridge(out) => self.route_bridge(src, out, sink),
            Event::Phantom(out) => self.route_phantom(src, out, sink),
        }
    }

    /// Mounts the measurement ground truth under `measure.*`: aggregate
    /// counters, the per-ring TAP monitors (`measure.tap.ring{k}`), the
    /// per-host truth logs (`measure.truth.h{i}.*`, points in `Debug`
    /// name order), and the inter-presentation histogram the paper's
    /// glitch analysis reads (1 ms bins up to 64 ms).
    fn publish_telemetry(&self, reg: &mut ctms_sim::Registry) {
        Self::publish_merged(&[self], reg);
    }

    /// Merges the per-shard routers of a sharded run back into the exact
    /// `measure.*` tree one router produces — byte-identical, which the
    /// shard-parity tests pin. Aggregate counters are sums;
    /// presentations are re-merged by time (each sink's stream is
    /// already chronological, and tie order cannot change the gap
    /// histogram); each TAP and each truth log is owned by exactly one
    /// shard (the ring's or host's owner), so merging is selection, not
    /// summation.
    fn publish_merged(parts: &[&Self], reg: &mut ctms_sim::Registry) {
        use ctms_sim::Instrument as _;
        let mut m = reg.scope("measure");
        m.counter("drops", parts.iter().map(|p| p.m.drops.len() as u64).sum());
        m.counter(
            "presented",
            parts.iter().map(|p| p.m.presented.len() as u64).sum(),
        );
        m.counter(
            "sock_delivered",
            parts.iter().map(|p| p.m.sock_delivered.len() as u64).sum(),
        );
        m.counter(
            "purge_starts",
            parts.iter().map(|p| p.m.purge_starts.len() as u64).sum(),
        );
        m.counter(
            "lost_to_purge",
            parts.iter().map(|p| p.m.lost_to_purge.len() as u64).sum(),
        );
        m.counter("bridge_drops", parts.iter().map(|p| p.m.bridge_drops).sum());
        let mut presented: Vec<SimTime> = parts
            .iter()
            .flat_map(|p| p.m.presented.iter().map(|e| e.0))
            .collect();
        presented.sort();
        if presented.len() >= 2 {
            let mut gaps = ctms_sim::telemetry::Hist::new(1, 64);
            for w in presented.windows(2) {
                gaps.record(w[1].since(w[0]).as_ns() / 1_000_000);
            }
            m.hist("presented_gap_ms", gaps);
        }
        // Every ring slot has its TAP in exactly one part; numbering
        // follows slot order.
        let n_slots = parts.first().map_or(0, |p| p.slots.len());
        let mut k = 0;
        for i in 0..n_slots {
            if let Some(tap) = parts.iter().find_map(|p| p.taps[i].as_ref()) {
                tap.publish(&mut m.scope(&format!("tap.ring{k}")));
                k += 1;
            }
        }
        let n_hosts = parts.first().map_or(0, |p| p.m.truth.len());
        for i in 0..n_hosts {
            let mut logs: Vec<(String, &EdgeLog)> = parts
                .iter()
                .flat_map(|p| p.m.truth[i].iter().map(|(pt, l)| (format!("{pt:?}"), l)))
                .collect();
            logs.sort_by(|a, b| a.0.cmp(&b.0));
            for (name, log) in logs {
                log.publish(&mut m.scope(&format!("truth.h{i}.{name}")));
            }
        }
    }
}

impl CtmsRouter {
    fn ring_endpoint(&self, ring: NodeId, station: StationId) -> Option<Endpoint> {
        match &self.slots[ring.0] {
            Slot::Ring { endpoints } => endpoints.get(station.0 as usize).copied().flatten(),
            _ => unreachable!("ring events come from ring nodes"),
        }
    }

    fn route_ring(&mut self, now: SimTime, src: NodeId, out: RingOut, sink: &mut CmdSink<Cmd>) {
        match out {
            RingOut::Delivered { to, frame } => match self.ring_endpoint(src, to) {
                Some(Endpoint::Host { node }) => {
                    sink.push(node, Cmd::Host(HostCmd::RingDelivered(frame)));
                }
                Some(Endpoint::Bridge { node, port }) => {
                    sink.push(node, Cmd::Bridge(BridgeCmd::Delivered { port, frame }));
                }
                None => {}
            },
            RingOut::Stripped {
                from,
                tag,
                delivered,
                ..
            } => {
                // Bridge submissions complete silently; host submissions
                // go back to the host's driver.
                if let Some(Endpoint::Host { node }) = self.ring_endpoint(src, from) {
                    sink.push(node, Cmd::Host(HostCmd::RingStripped { tag, delivered }));
                }
            }
            RingOut::Observed(view) => {
                if let Some(tap) = self.taps[src.0].as_mut() {
                    tap.observe(now, &view);
                }
            }
            RingOut::LostToPurge { tag, .. } => {
                self.m.lost_to_purge.push((now, tag));
            }
            RingOut::PurgeStarted { .. } => {
                self.m.purge_starts.push(now);
                for &(host, driver) in &self.purge_subscribers {
                    sink.push(
                        host,
                        Cmd::Host(HostCmd::Kern(KernCmd::Call {
                            driver,
                            call: DriverCall::Custom {
                                code: ctms_ctmsp::CALL_PURGE_SEEN,
                                arg: 0,
                            },
                        })),
                    );
                }
            }
            RingOut::PurgeEnded => {}
            RingOut::QueueDrop { station, .. } => {
                self.m.drops.push(DropRec {
                    at: now,
                    host: station.0 as usize,
                    site: DropSite::RingQueue,
                    tag: 0,
                    bytes: 0,
                });
            }
        }
    }

    fn route_host(&mut self, now: SimTime, src: NodeId, out: HostOut, sink: &mut CmdSink<Cmd>) {
        let (index, ring) = match self.slots[src.0] {
            Slot::Host { index, ring } => (index, ring),
            _ => unreachable!("host events come from host nodes"),
        };
        match out {
            HostOut::RingSubmit(frame) => sink.push(ring, Cmd::Ring(RingCmd::Submit(frame))),
            HostOut::Trace { point, tag } => {
                self.m.truth[index]
                    .entry(point)
                    .or_insert_with(|| EdgeLog::new(format!("h{index}-{point:?}")))
                    .record(now, tag);
            }
            HostOut::Drop { site, tag, bytes } => {
                self.m.drops.push(DropRec {
                    at: now,
                    host: index,
                    site,
                    tag,
                    bytes,
                });
            }
            HostOut::Presented { tag, bytes } => {
                self.m.presented.push((now, tag, bytes));
            }
            HostOut::SockDelivered { port, bytes } => {
                self.m.sock_delivered.push((now, port, bytes));
            }
            HostOut::ProcExited { .. } => {}
        }
    }

    fn route_bridge(&mut self, src: NodeId, out: BridgeOut, sink: &mut CmdSink<Cmd>) {
        match out {
            BridgeOut::Submit { port, frame } => {
                let ring = match &self.slots[src.0] {
                    Slot::Bridge { rings } => rings[port as usize],
                    _ => unreachable!("bridge events come from bridge nodes"),
                };
                sink.push(ring, Cmd::Ring(RingCmd::Submit(frame)));
            }
            BridgeOut::Dropped { .. } => {
                self.m.bridge_drops += 1;
            }
        }
    }

    fn route_phantom(&mut self, src: NodeId, out: PhantomOut, sink: &mut CmdSink<Cmd>) {
        let ring = match self.slots[src.0] {
            Slot::Phantom { ring } => ring,
            _ => unreachable!("phantom events come from the phantom node"),
        };
        match out {
            PhantomOut::Submit(frame) => sink.push(ring, Cmd::Ring(RingCmd::Submit(frame))),
            PhantomOut::Disturb(d) => sink.push(ring, Cmd::Ring(RingCmd::Disturb(d))),
        }
    }
}

/// One bridge attachment record: the rings of its ports (in port
/// order) and which port's ring owns the bridge under sharding.
struct BridgeSpec {
    rings: Vec<usize>,
    owner: usize,
    bridge: Bridge,
}

/// A topology under construction: components plus where they attach.
/// Build order within each kind is preserved; kinds are registered
/// rings → bridges → hosts → phantom, fixing NodeId (and therefore
/// deadline-tie) order.
#[derive(Default)]
pub struct Topology {
    rings: Vec<TokenRing>,
    bridges: Vec<BridgeSpec>,
    hosts: Vec<(usize, StationId, Host)>,
    phantom: Option<(usize, PhantomTraffic)>,
    purge_subscribers: Vec<(usize, DriverId)>,
    cascade_limit: u32,
}

impl Topology {
    /// Starts an empty topology with the given same-instant cascade
    /// step limit.
    pub fn new(cascade_limit: u32) -> Self {
        Topology {
            cascade_limit,
            ..Topology::default()
        }
    }

    /// Adds a ring; returns its ring index.
    pub fn ring(&mut self, ring: TokenRing) -> usize {
        self.rings.push(ring);
        self.rings.len() - 1
    }

    /// Attaches a host at `station` of ring `ring`; returns its dense
    /// host index (the index used by `Measurements` and accessors).
    pub fn host(&mut self, ring: usize, station: StationId, host: Host) -> usize {
        assert!(ring < self.rings.len(), "host on unknown ring {ring}");
        self.hosts.push((ring, station, host));
        self.hosts.len() - 1
    }

    /// Attaches a two-port bridge between `ring_a` and `ring_b` (port
    /// stations come from the bridge's own config); returns its bridge
    /// index. The bridge is owned by `ring_a`'s shard when sharded.
    pub fn bridge(&mut self, ring_a: usize, ring_b: usize, bridge: Bridge) -> usize {
        self.bridge_multi(vec![ring_a, ring_b], 0, bridge)
    }

    /// Attaches a multi-port bridge: `rings[p]` is the ring of port `p`
    /// (must match the bridge's port count). `owner` picks which of
    /// those rings the bridge co-shards with — it must be the ring that
    /// *delivers* CTMSP traffic into the bridge, because ring→bridge
    /// delivery is an ordinary same-shard command, not a sync-mailbox
    /// hop. Returns the bridge index.
    pub fn bridge_multi(&mut self, rings: Vec<usize>, owner: usize, bridge: Bridge) -> usize {
        assert!(
            rings.iter().all(|&r| r < self.rings.len()),
            "bridge on unknown ring"
        );
        assert_eq!(rings.len(), bridge.port_count(), "one ring per bridge port");
        assert!(owner < rings.len(), "owner is a port index");
        self.bridges.push(BridgeSpec {
            rings,
            owner,
            bridge,
        });
        self.bridges.len() - 1
    }

    /// Attaches background campus traffic to ring `ring`.
    pub fn phantom(&mut self, ring: usize, phantom: PhantomTraffic) {
        assert!(ring < self.rings.len(), "phantom on unknown ring {ring}");
        assert!(self.phantom.is_none(), "one phantom generator per topology");
        self.phantom = Some((ring, phantom));
    }

    /// Subscribes a host driver to purge-start notifications (the §5
    /// hypothetical purge-interrupt adapter).
    pub fn subscribe_purge(&mut self, host: usize, driver: DriverId) {
        assert!(host < self.hosts.len(), "unknown host {host}");
        self.purge_subscribers.push((host, driver));
    }

    /// The complete routing-metadata table, in NodeId order (rings,
    /// bridges, hosts, phantom) — shared by every shard's router.
    fn make_slots(&self) -> Vec<Slot> {
        let n_rings = self.rings.len();
        let n_bridges = self.bridges.len();
        // NodeIds are assigned in push order: rings, bridges, hosts, phantom.
        let ring_node = |k: usize| NodeId(k);
        let bridge_node = |k: usize| NodeId(n_rings + k);
        let host_node = |k: usize| NodeId(n_rings + n_bridges + k);

        let mut slots: Vec<Slot> = Vec::new();
        let mut endpoints: Vec<Vec<Option<Endpoint>>> = (0..n_rings).map(|_| Vec::new()).collect();
        let mut attach = |ring: usize, station: StationId, ep: Endpoint| {
            let table: &mut Vec<Option<Endpoint>> = &mut endpoints[ring];
            let i = station.0 as usize;
            if table.len() <= i {
                table.resize(i + 1, None);
            }
            assert!(table[i].is_none(), "two endpoints at station {station:?}");
            table[i] = Some(ep);
        };
        for (k, spec) in self.bridges.iter().enumerate() {
            let node = bridge_node(k);
            for (p, &ring) in spec.rings.iter().enumerate() {
                attach(
                    ring,
                    spec.bridge.port_station(p),
                    Endpoint::Bridge {
                        node,
                        port: p as u8,
                    },
                );
            }
        }
        for (k, (ring, station, _)) in self.hosts.iter().enumerate() {
            attach(*ring, *station, Endpoint::Host { node: host_node(k) });
        }

        for ep in endpoints.drain(..) {
            slots.push(Slot::Ring { endpoints: ep });
        }
        for spec in &self.bridges {
            slots.push(Slot::Bridge {
                rings: spec.rings.iter().map(|&r| ring_node(r)).collect(),
            });
        }
        for (k, (ring, _, _)) in self.hosts.iter().enumerate() {
            slots.push(Slot::Host {
                index: k,
                ring: ring_node(*ring),
            });
        }
        if let Some((ring, _)) = &self.phantom {
            slots.push(Slot::Phantom {
                ring: ring_node(*ring),
            });
        }
        slots
    }

    /// Registers everything with a one-shard harness and returns the
    /// live bus.
    pub fn build(self) -> Bus {
        self.build_partitioned(1)
    }

    /// [`Topology::build_partitioned`] behind the [`ShardedBus`] wrapper.
    pub fn build_sharded(self, shards: usize) -> ShardedBus {
        ShardedBus::Single(self.build_partitioned(shards))
    }

    /// Registers everything with a harness of up to `shards` shards,
    /// partitioned by ring, and returns the live bus. Results are
    /// bit-identical at every shard count — parallelism may never change
    /// the answer, only the wall clock.
    ///
    /// Partition rule: the ring graph (rings as nodes, bridges as
    /// edges — a multi-port bridge couples every pair of its rings) is
    /// cut into `min(shards, n_rings)` balanced parts by the greedy
    /// edge-cut-minimizing [`crate::graph::partition_rings`]; every
    /// bridge and host lives with its owner ring. Bridges whose port
    /// rings span shards are sync-class: they are the only legal
    /// cross-shard emitters, and their forwarding latencies
    /// ([`ctms_router::BridgeKind::lookahead`]) bound the conservative
    /// windows **per edge**: shard `o` can influence shard `k` no sooner
    /// than the tightest cut bridge from `o` into `k` allows, so
    /// well-separated partitions run wider windows than the global
    /// minimum would allow.
    ///
    /// The bus runs on one shard (same results, one thread) whenever
    /// sharding cannot help or cannot be proven sound:
    ///
    /// * fewer than two shards would result (`shards <= 1` or one ring),
    /// * purge subscriptions exist (purge fan-out may cross shards from
    ///   a non-sync ring node),
    /// * a phantom generator is attached (its broadcast LLC frames are
    ///   delivered to every station, including remote bridge ports).
    ///
    /// A bus built with several shards also passes the profitability
    /// gate on its first run (see [`Bus::try_run_until`]).
    pub fn build_partitioned(self, shards: usize) -> Bus {
        let n_rings = self.rings.len();
        let n_bridges = self.bridges.len();
        let n_hosts = self.hosts.len();
        let s = if self.purge_subscribers.is_empty() && self.phantom.is_none() {
            shards.min(n_rings).max(1)
        } else {
            1
        };
        let part = if s > 1 {
            // Graph partition: bridges are the edges (a multi-port
            // bridge couples every pair of its rings).
            let edges: Vec<(usize, usize)> = self
                .bridges
                .iter()
                .flat_map(|spec| {
                    let r = &spec.rings;
                    (0..r.len()).flat_map(move |i| (i + 1..r.len()).map(move |j| (r[i], r[j])))
                })
                .collect();
            crate::graph::partition_rings(n_rings, &edges, s)
        } else {
            Vec::new()
        };
        let ring_shard = |r: usize| if s > 1 { part[r] } else { 0 };
        let bridge_shard: Vec<usize> = self
            .bridges
            .iter()
            .map(|spec| ring_shard(spec.rings[spec.owner]))
            .collect();
        let bridge_sync: Vec<bool> = self
            .bridges
            .iter()
            .map(|spec| {
                let first = ring_shard(spec.rings[0]);
                spec.rings.iter().any(|&r| ring_shard(r) != first)
            })
            .collect();
        // Global floor (seal-time sanity bound).
        let lookahead = self
            .bridges
            .iter()
            .zip(&bridge_sync)
            .filter(|(_, sync)| **sync)
            .map(|(spec, _)| spec.bridge.kind().lookahead())
            .min()
            .unwrap_or(Dur::ZERO);
        // Directed per-edge influence for the window protocol.
        // Cross-shard mail flows only out of sync bridges (the owner
        // ring — the one that delivers traffic *into* the bridge — is
        // co-sharded with it, so delivery into the bridge is always
        // local), and only toward the shards of the bridge's port
        // rings, delayed by at least that bridge's forwarding latency.
        let mut influence: Vec<Vec<Option<Dur>>> = match s {
            1 => Vec::new(),
            _ => vec![vec![None; s]; s],
        };
        for ((spec, sync), &o) in self.bridges.iter().zip(&bridge_sync).zip(&bridge_shard) {
            if !*sync {
                continue;
            }
            let la = spec.bridge.kind().lookahead();
            // A zero lookahead on a cut edge would collapse the window
            // to nothing and stall the run — catch it at build time, not
            // as a runtime hang.
            debug_assert!(
                la > Dur::ZERO,
                "cut bridge {:?} has zero lookahead: its kind cannot sit on a shard boundary",
                spec.bridge.kind()
            );
            for &r in &spec.rings {
                let k = ring_shard(r);
                if k != o {
                    influence[o][k] = Some(influence[o][k].map_or(la, |cur| cur.min(la)));
                }
            }
        }

        // NodeIds are assigned in push order: rings, bridges, hosts, phantom.
        let host_node = |k: usize| NodeId(n_rings + n_bridges + k);
        let purge_subscribers: Vec<(NodeId, DriverId)> = self
            .purge_subscribers
            .iter()
            .map(|&(host, driver)| (host_node(host), driver))
            .collect();
        let slots: Arc<[Slot]> = self.make_slots().into();
        // One shared wiring table for all shards (the Arc clone is a
        // refcount bump); each ring's TAP lives with the ring's owner
        // shard, and the merged telemetry re-numbers them globally.
        let routers = (0..s).map(|shard| {
            CtmsRouter::new(
                Arc::clone(&slots),
                |i| ring_shard(i) == shard,
                purge_subscribers.clone(),
                n_hosts,
            )
        });
        let mut h = Harness::sharded(routers, self.cascade_limit, lookahead);
        if s > 1 {
            h.set_influence_lookaheads(influence);
        }
        let mut ring_nodes = Vec::new();
        for (k, ring) in self.rings.into_iter().enumerate() {
            ring_nodes.push(h.add_node_on(
                Node::Ring(ring, Vec::new()),
                format!("tokenring.ring{k}"),
                ring_shard(k),
                false,
            ));
        }
        let mut bridge_nodes = Vec::new();
        for (k, spec) in self.bridges.into_iter().enumerate() {
            bridge_nodes.push(h.add_node_on(
                Node::Bridge(spec.bridge, Vec::new()),
                format!("router.bridge{k}"),
                bridge_shard[k],
                bridge_sync[k],
            ));
        }
        let mut host_nodes = Vec::new();
        for (k, (ring, _, host)) in self.hosts.into_iter().enumerate() {
            host_nodes.push(h.add_node_on(
                Node::Host(host, Vec::new()),
                format!("unixkern.h{k}"),
                ring_shard(ring),
                false,
            ));
        }
        // Only a one-shard build carries a phantom generator.
        let phantom_node = self
            .phantom
            .map(|(_, p)| h.add_node_labeled(Node::Phantom(p, Vec::new()), "workloads.phantom"));

        Bus {
            h,
            ring_nodes,
            bridge_nodes,
            host_nodes,
            phantom_node,
            prefix_start: None,
            profitability: None,
        }
    }
}

/// A built topology: the harness plus typed access to its nodes, at any
/// shard count. The concrete testbeds ([`crate::Testbed`],
/// [`crate::RingChainTestbed`]) wrap this with scenario-specific
/// construction and accessors.
pub struct Bus {
    h: Harness<Node, CtmsRouter>,
    ring_nodes: Vec<NodeId>,
    bridge_nodes: Vec<NodeId>,
    host_nodes: Vec<NodeId>,
    phantom_node: Option<NodeId>,
    /// `(events, windows)` when the profitability gate's calibration
    /// prefix began; `None` until the first run after a build or
    /// restore.
    prefix_start: Option<(u64, u64)>,
    /// The gate's measurement, once the prefix completed.
    profitability: Option<Profitability>,
}

impl Bus {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.h.now()
    }

    /// Number of shards actually running — the *effective* shard count:
    /// 1 for a one-shard build and for a bus the profitability gate
    /// demoted.
    pub fn shard_count(&self) -> usize {
        self.h.shard_count()
    }

    /// Caps how many pool workers a window dispatch invites (no effect
    /// on one shard).
    pub fn set_threads(&mut self, threads: usize) {
        self.h.set_threads(threads);
    }

    /// The profitability gate's measurement: `Some` once a bus built
    /// with several shards completed its calibration prefix, whether it
    /// stayed sharded or demoted itself ([`Profitability::demotes`]);
    /// `None` before that and for buses built with one shard.
    pub fn profitability(&self) -> Option<Profitability> {
        self.profitability
    }

    /// Runs until `horizon`; panics on cascade overflow.
    pub fn run_until(&mut self, horizon: SimTime) {
        if let Err(e) = self.try_run_until(horizon) {
            panic!("{e}");
        }
    }

    /// Runs until `horizon`, reporting cascade overflow as an error.
    ///
    /// A bus running several shards first passes the profitability
    /// gate: the run stops at the first clean cut after
    /// [`CALIBRATION_WINDOWS`] windows, and if those carried fewer than
    /// [`crate::MIN_EVENTS_PER_WINDOW`] events each, the shards collapse
    /// into one in place before the run goes on to `horizon`. The rule
    /// reads only the simulation's own schedule, so it decides the same
    /// at every thread count, and the result stays bit-identical either
    /// way.
    pub fn try_run_until(&mut self, horizon: SimTime) -> Result<(), CascadeError> {
        if self.h.shard_count() > 1 && self.calibrate(horizon)?.is_some_and(|v| v.demotes()) {
            self.h.collapse(CtmsRouter::merge);
        }
        self.h.try_run_until(horizon)
    }

    /// Runs the calibration prefix while it is open: up to `horizon`,
    /// or to the first clean cut after [`CALIBRATION_WINDOWS`] windows.
    /// Returns the gate's measurement when the prefix completed in this
    /// call.
    fn calibrate(&mut self, horizon: SimTime) -> Result<Option<Profitability>, CascadeError> {
        if self.profitability.is_some() {
            return Ok(None);
        }
        let (events0, windows0) = *self
            .prefix_start
            .get_or_insert((self.h.events(), self.h.windows()));
        self.h
            .try_run_until_windows(horizon, windows0 + CALIBRATION_WINDOWS)?;
        let windows = self.h.windows() - windows0;
        if windows < CALIBRATION_WINDOWS {
            return Ok(None);
        }
        let verdict = Profitability {
            shards: self.h.shard_count(),
            windows,
            events: self.h.events() - events0,
        };
        self.profitability = Some(verdict);
        Ok(Some(verdict))
    }

    /// Number of rings.
    pub fn ring_count(&self) -> usize {
        self.ring_nodes.len()
    }

    /// Component activations serviced so far (scheduler throughput
    /// numerator for the perf harness; not part of telemetry) — the
    /// same count at every shard count, by construction.
    pub fn events(&self) -> u64 {
        self.h.events()
    }

    /// Ring `k`.
    pub fn ring(&self, k: usize) -> &TokenRing {
        match self.h.node(self.ring_nodes[k]) {
            Node::Ring(r, _) => r,
            _ => unreachable!("ring node"),
        }
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.host_nodes.len()
    }

    /// Host `k` (dense index from [`Topology::host`]).
    pub fn host(&self, k: usize) -> &Host {
        match self.h.node(self.host_nodes[k]) {
            Node::Host(host, _) => host,
            _ => unreachable!("host node"),
        }
    }

    /// Mutable host `k`; its deadline is rescheduled before the next step.
    pub fn host_mut(&mut self, k: usize) -> &mut Host {
        match self.h.node_mut(self.host_nodes[k]) {
            Node::Host(host, _) => host,
            _ => unreachable!("host node"),
        }
    }

    /// Number of bridges.
    pub fn bridge_count(&self) -> usize {
        self.bridge_nodes.len()
    }

    /// Bridge `k`.
    pub fn bridge(&self, k: usize) -> &Bridge {
        match self.h.node(self.bridge_nodes[k]) {
            Node::Bridge(b, _) => b,
            _ => unreachable!("bridge node"),
        }
    }

    /// The phantom traffic generator, if attached.
    pub fn phantom(&self) -> Option<&PhantomTraffic> {
        self.phantom_node.map(|id| match self.h.node(id) {
            Node::Phantom(p, _) => p,
            _ => unreachable!("phantom node"),
        })
    }

    /// The router part owning node `id`'s TAP or truth logs.
    fn owner_part(&self, id: NodeId) -> &CtmsRouter {
        self.h.shard_router(self.h.shard_of(id))
    }

    /// Every router part, in shard order.
    fn parts(&self) -> Vec<&CtmsRouter> {
        (0..self.h.shard_count())
            .map(|k| self.h.shard_router(k))
            .collect()
    }

    /// The TAP monitor on ring `k` (it lives with the ring's shard).
    pub fn tap(&self, k: usize) -> &Tap {
        self.owner_part(self.ring_nodes[k]).tap(self.ring_nodes[k])
    }

    /// The recorded ground truth of a one-shard bus. Panics on a bus
    /// running several shards, whose ground truth is split across
    /// [`Bus::measure_parts`].
    pub fn measurements(&self) -> &Measurements {
        assert_eq!(
            self.h.shard_count(),
            1,
            "a sharded bus records one measurement part per shard; use measure_parts"
        );
        self.h.shard_router(0).measurements()
    }

    /// The recorded ground truth, one part per running shard. Aggregate
    /// counters are sums over the parts; truth logs and presentations
    /// live in exactly one part each.
    pub fn measure_parts(&self) -> Vec<&Measurements> {
        self.parts()
            .into_iter()
            .map(CtmsRouter::measurements)
            .collect()
    }

    /// Per-host trace log for one measurement point, if recorded (from
    /// the host's owner shard).
    pub fn truth_log(&self, host: usize, point: MeasurePoint) -> Option<&EdgeLog> {
        self.owner_part(self.host_nodes[host])
            .measurements()
            .truth_log(host, point)
    }

    /// The cascade failure that poisoned this bus, if any.
    pub fn failure(&self) -> Option<CascadeError> {
        self.h.failure()
    }

    /// Delivers a ring command (e.g. a disturbance) to ring `k` at the
    /// current instant, routing its fallout like any other event. Only
    /// a one-shard bus injects; this panics on a sharded one (see
    /// [`ctms_sim::Harness::inject`]).
    pub fn inject_ring(&mut self, k: usize, cmd: RingCmd) -> Result<(), CascadeError> {
        self.h.inject(self.ring_nodes[k], Cmd::Ring(cmd))
    }

    /// The telemetry registry as last collected (see
    /// [`collect_telemetry`](Self::collect_telemetry)).
    pub fn telemetry(&self) -> &ctms_sim::Registry {
        self.h.telemetry()
    }

    /// Re-collects every node's and the routers' metrics into the
    /// registry and returns it.
    pub fn collect_telemetry(&mut self) -> &mut ctms_sim::Registry {
        self.h.collect_telemetry()
    }

    /// Collects and freezes the current metric tree as a named phase.
    pub fn snapshot_phase(&mut self, name: impl Into<String>) {
        self.h.snapshot_phase(name);
    }

    /// Collects and serializes the registry as canonical JSON —
    /// byte-identical across runs of the same seed, at any shard count.
    pub fn telemetry_json(&mut self) -> String {
        self.h.telemetry_json()
    }

    /// Execution-layer counters (windows, sync instants, per-shard
    /// mailbox traffic) — kept out of the main registry so telemetry
    /// stays byte-identical at every shard count.
    pub fn exec_telemetry(&self) -> ctms_sim::Registry {
        self.h.exec_telemetry()
    }

    /// Execution counters for running shard `k`.
    pub fn shard_stats(&self, k: usize) -> ShardStats {
        self.h.shard_stats(k)
    }

    /// Appends every piece of dynamic state — harness (clock, nodes,
    /// telemetry history) then the routers' canonical merged
    /// measurement state — to `enc`. Must be called at a quiescent
    /// instant (after `try_run_until` returned). The bytes do not
    /// depend on the shard count, so snapshots restore at any other.
    pub(crate) fn persist_state(&self, enc: &mut ctms_sim::Enc) {
        self.h.persist_state(enc);
        persist_router_parts(&self.parts(), enc);
    }

    /// The canonical graph-shape signature checkpoints embed (format
    /// v2) — see [`CtmsRouter::topology_signature`]. Every shard's
    /// router holds the complete slot table, so shard 0 signs for the
    /// whole topology.
    pub(crate) fn topology_signature(&self) -> Vec<u8> {
        self.h.shard_router(0).topology_signature()
    }

    /// Applies state persisted by [`Bus::persist_state`] onto this
    /// freshly rebuilt bus.
    pub(crate) fn restore_state(
        &mut self,
        dec: &mut ctms_sim::Dec<'_>,
    ) -> Result<(), ctms_sim::PersistError> {
        self.h.restore_state(dec)?;
        let ckpt = decode_router_state(dec)?;
        self.apply_router_ckpt(ckpt)
    }

    /// Streaming counterpart of [`Bus::persist_state`]: the chunk
    /// payloads concatenate to exactly the monolithic byte stream, but
    /// at no point is more than one chunk buffered.
    pub(crate) fn persist_state_chunked(
        &self,
        w: &mut ctms_sim::ChunkedWriter<'_>,
    ) -> Result<(), ctms_sim::PersistError> {
        self.h.persist_state_chunked(w)?;
        persist_router_parts(&self.parts(), w.enc());
        w.flush_chunk()
    }

    /// Streaming counterpart of [`Bus::restore_state`]. `prefix` is the
    /// tail of the first chunk (positioned right after the node-count
    /// field); the remaining chunks are pulled from `r` through `buf`.
    pub(crate) fn restore_state_chunked(
        &mut self,
        prefix: &mut ctms_sim::Dec<'_>,
        r: &mut ctms_sim::ChunkedReader<'_>,
        buf: &mut Vec<u8>,
    ) -> Result<(), ctms_sim::PersistError> {
        self.h.restore_state_chunked(prefix, r, buf)?;
        if !r.next_chunk_into(buf)? {
            // Stream ended before the router chunk.
            return Err(ctms_sim::PersistError::UnexpectedEof);
        }
        let mut dec = ctms_sim::Dec::new(buf);
        let ckpt = decode_router_state(&mut dec)?;
        dec.finish()?;
        self.apply_router_ckpt(ckpt)
    }

    /// Distributes a decoded router snapshot across the router parts —
    /// shared by the monolithic and streamed restore paths: each TAP to
    /// its ring's owner part, each host's truth logs to the host's owner
    /// part, flat event lists and the bridge-drop count to shard 0
    /// (merged telemetry reads only counts and sorted times, so the
    /// placement of historical entries is unobservable).
    fn apply_router_ckpt(&mut self, ckpt: RouterCkpt) -> Result<(), ctms_sim::PersistError> {
        // A prefix still open restarts from the restored state.
        self.prefix_start = None;
        for k in 0..self.h.shard_count() {
            self.h.shard_router_mut(k).clear_measurements();
        }
        let ring_slots = self.h.shard_router(0).ring_slot_indices();
        if ring_slots.len() != ckpt.taps.len() {
            return Err(ctms_sim::PersistError::mismatch(format!(
                "checkpoint has {} taps, topology has {} rings",
                ckpt.taps.len(),
                ring_slots.len()
            )));
        }
        for (slot, tap) in ring_slots.into_iter().zip(ckpt.taps) {
            let owner = self.h.shard_of(NodeId(slot));
            self.h.shard_router_mut(owner).taps[slot] = Some(tap);
        }
        if self.host_nodes.len() != ckpt.truth.len() {
            return Err(ctms_sim::PersistError::mismatch(format!(
                "checkpoint has {} truth maps, topology has {} hosts",
                ckpt.truth.len(),
                self.host_nodes.len()
            )));
        }
        for (host, entries) in ckpt.truth.into_iter().enumerate() {
            let owner = self.h.shard_of(self.host_nodes[host]);
            self.h.shard_router_mut(owner).m.truth[host].extend(entries);
        }
        let m = &mut self.h.shard_router_mut(0).m;
        m.drops = ckpt.drops;
        m.presented = ckpt.presented;
        m.sock_delivered = ckpt.sock_delivered;
        m.purge_starts = ckpt.purge_starts;
        m.lost_to_purge = ckpt.lost_to_purge;
        m.bridge_drops = ckpt.bridge_drops;
        Ok(())
    }
}

// --- Checkpoint plumbing -------------------------------------------------
//
// A checkpoint must be *shard-agnostic*: bytes written by a 4-shard run
// restore into a one-shard bus or a 2-shard one. The harness side
// already walks nodes in global registration order at any shard count;
// the router side is handled here by merging the per-shard parts into one
// canonical stream at persist time and re-distributing at restore time
// (taps to the ring's owner, truth logs to the host's owner, flat lists
// to shard 0 — merged telemetry is order-insensitive by construction).

impl ctms_sim::Persist for Node {
    /// One kind tag (checked against the rebuilt topology on restore)
    /// then the component's own state. The scratch buffer is drained at
    /// every quiescent instant, so it carries no state.
    fn persist(&self, enc: &mut ctms_sim::Enc) {
        match self {
            Node::Ring(r, buf) => {
                debug_assert!(buf.is_empty(), "checkpoint off a quiescent instant");
                enc.u8(0);
                r.persist(enc);
            }
            Node::Host(h, buf) => {
                debug_assert!(buf.is_empty(), "checkpoint off a quiescent instant");
                enc.u8(1);
                h.persist(enc);
            }
            Node::Bridge(b, buf) => {
                debug_assert!(buf.is_empty(), "checkpoint off a quiescent instant");
                enc.u8(2);
                b.persist(enc);
            }
            Node::Phantom(p, buf) => {
                debug_assert!(buf.is_empty(), "checkpoint off a quiescent instant");
                enc.u8(3);
                p.persist(enc);
            }
        }
    }

    fn restore(&mut self, dec: &mut ctms_sim::Dec<'_>) -> Result<(), ctms_sim::PersistError> {
        let tag = dec.u8()?;
        match (self, tag) {
            (Node::Ring(r, buf), 0) => {
                buf.clear();
                r.restore(dec)
            }
            (Node::Host(h, buf), 1) => {
                buf.clear();
                h.restore(dec)
            }
            (Node::Bridge(b, buf), 2) => {
                buf.clear();
                b.restore(dec)
            }
            (Node::Phantom(p, buf), 3) => {
                buf.clear();
                p.restore(dec)
            }
            _ => Err(ctms_sim::PersistError::mismatch(format!(
                "checkpoint node kind {tag} does not match the rebuilt topology"
            ))),
        }
    }
}

/// Stable sort key for canonical [`MeasurePoint`] ordering in checkpoints.
fn measure_point_key(p: MeasurePoint) -> (u8, u8) {
    match p {
        MeasurePoint::VcaIrq => (0, 0),
        MeasurePoint::VcaHandlerEntry => (1, 0),
        MeasurePoint::PreTransmit => (2, 0),
        MeasurePoint::CtmspIdentified => (3, 0),
        MeasurePoint::Presented => (4, 0),
        MeasurePoint::Custom(x) => (5, x),
    }
}

fn persist_measure_point(enc: &mut ctms_sim::Enc, p: MeasurePoint) {
    let (tag, custom) = measure_point_key(p);
    enc.u8(tag);
    if tag == 5 {
        enc.u8(custom);
    }
}

fn restore_measure_point(
    dec: &mut ctms_sim::Dec<'_>,
) -> Result<MeasurePoint, ctms_sim::PersistError> {
    Ok(match dec.u8()? {
        0 => MeasurePoint::VcaIrq,
        1 => MeasurePoint::VcaHandlerEntry,
        2 => MeasurePoint::PreTransmit,
        3 => MeasurePoint::CtmspIdentified,
        4 => MeasurePoint::Presented,
        5 => MeasurePoint::Custom(dec.u8()?),
        tag => {
            return Err(ctms_sim::PersistError::BadTag {
                what: "measure point",
                tag,
            })
        }
    })
}

fn persist_drop_site(enc: &mut ctms_sim::Enc, site: DropSite) {
    enc.u8(match site {
        DropSite::VcaOverrun => 0,
        DropSite::MbufExhausted => 1,
        DropSite::IfqFull => 2,
        DropSite::SockbufFull => 3,
        DropSite::RingQueue => 4,
        DropSite::Purge => 5,
        DropSite::Duplicate => 6,
        DropSite::Underrun => 7,
        DropSite::AdapterOverrun => 8,
        DropSite::UnknownProto => 9,
    });
}

fn restore_drop_site(dec: &mut ctms_sim::Dec<'_>) -> Result<DropSite, ctms_sim::PersistError> {
    Ok(match dec.u8()? {
        0 => DropSite::VcaOverrun,
        1 => DropSite::MbufExhausted,
        2 => DropSite::IfqFull,
        3 => DropSite::SockbufFull,
        4 => DropSite::RingQueue,
        5 => DropSite::Purge,
        6 => DropSite::Duplicate,
        7 => DropSite::Underrun,
        8 => DropSite::AdapterOverrun,
        9 => DropSite::UnknownProto,
        tag => {
            return Err(ctms_sim::PersistError::BadTag {
                what: "drop site",
                tag,
            })
        }
    })
}

/// Decoded router-side checkpoint state, ready to distribute onto one
/// router (one shard) or across shard routers (the caller knows
/// the ownership map; this struct is execution-mode-agnostic).
struct RouterCkpt {
    /// One TAP per ring slot, in slot order.
    taps: Vec<Tap>,
    /// Per-host truth logs, points in canonical tag order.
    truth: Vec<Vec<(MeasurePoint, EdgeLog)>>,
    drops: Vec<DropRec>,
    presented: Vec<(SimTime, u64, u32)>,
    sock_delivered: Vec<(SimTime, Port, u32)>,
    purge_starts: Vec<SimTime>,
    lost_to_purge: Vec<(SimTime, u64)>,
    bridge_drops: u64,
}

/// Appends the canonical merged router state of `parts` (one part per
/// shard; a single part for a one-shard run) to `enc`. Each TAP
/// and each host's truth logs live in exactly one part; flat event
/// lists are chronological within each part and are merged by a stable
/// sort on time, so the bytes do not depend on the shard count beyond
/// same-instant tie order — which nothing downstream observes (merged
/// telemetry uses only counts and the sorted time multiset).
fn persist_router_parts(parts: &[&CtmsRouter], enc: &mut ctms_sim::Enc) {
    use ctms_sim::Persist as _;
    let first = parts.first().expect("at least one router part");

    let ring_slots: Vec<usize> = first.ring_slot_indices();
    enc.seq_len(ring_slots.len());
    for slot in ring_slots {
        let tap = parts
            .iter()
            .find_map(|p| p.taps[slot].as_ref())
            .expect("every ring slot has its tap in exactly one part");
        tap.persist(enc);
    }

    let n_hosts = first.m.truth.len();
    enc.seq_len(n_hosts);
    for host in 0..n_hosts {
        let mut entries: Vec<(MeasurePoint, &EdgeLog)> = parts
            .iter()
            .flat_map(|p| p.m.truth[host].iter().map(|(pt, l)| (*pt, l)))
            .collect();
        entries.sort_by_key(|(pt, _)| measure_point_key(*pt));
        enc.seq_len(entries.len());
        for (point, log) in entries {
            persist_measure_point(enc, point);
            log.persist(enc);
        }
    }

    let mut drops: Vec<&DropRec> = parts.iter().flat_map(|p| p.m.drops.iter()).collect();
    drops.sort_by_key(|d| d.at);
    enc.seq_len(drops.len());
    for d in drops {
        enc.time(d.at);
        enc.u32(d.host as u32);
        persist_drop_site(enc, d.site);
        enc.u64(d.tag);
        enc.u32(d.bytes);
    }

    let mut presented: Vec<(SimTime, u64, u32)> = parts
        .iter()
        .flat_map(|p| p.m.presented.iter().copied())
        .collect();
    presented.sort_by_key(|e| e.0);
    enc.seq_len(presented.len());
    for (at, tag, bytes) in presented {
        enc.time(at);
        enc.u64(tag);
        enc.u32(bytes);
    }

    let mut sock: Vec<(SimTime, Port, u32)> = parts
        .iter()
        .flat_map(|p| p.m.sock_delivered.iter().copied())
        .collect();
    sock.sort_by_key(|e| e.0);
    enc.seq_len(sock.len());
    for (at, port, bytes) in sock {
        enc.time(at);
        enc.u16(port.0);
        enc.u32(bytes);
    }

    let mut purges: Vec<SimTime> = parts
        .iter()
        .flat_map(|p| p.m.purge_starts.iter().copied())
        .collect();
    purges.sort();
    enc.seq_len(purges.len());
    for at in purges {
        enc.time(at);
    }

    let mut lost: Vec<(SimTime, u64)> = parts
        .iter()
        .flat_map(|p| p.m.lost_to_purge.iter().copied())
        .collect();
    lost.sort_by_key(|e| e.0);
    enc.seq_len(lost.len());
    for (at, tag) in lost {
        enc.time(at);
        enc.u64(tag);
    }

    enc.u64(parts.iter().map(|p| p.m.bridge_drops).sum());
}

/// Decodes router state written by [`persist_router_parts`].
fn decode_router_state(dec: &mut ctms_sim::Dec<'_>) -> Result<RouterCkpt, ctms_sim::PersistError> {
    use ctms_sim::Persist as _;
    let taps = dec.seq(|d| {
        let mut tap = Tap::new(TapCfg::default());
        tap.restore(d)?;
        Ok(tap)
    })?;
    let truth = dec.seq(|d| {
        d.seq(|d| {
            let point = restore_measure_point(d)?;
            let mut log = EdgeLog::new("");
            log.restore(d)?;
            Ok((point, log))
        })
    })?;
    let drops = dec.seq(|d| {
        Ok(DropRec {
            at: d.time()?,
            host: d.u32()? as usize,
            site: restore_drop_site(d)?,
            tag: d.u64()?,
            bytes: d.u32()?,
        })
    })?;
    let presented = dec.seq(|d| Ok((d.time()?, d.u64()?, d.u32()?)))?;
    let sock_delivered = dec.seq(|d| Ok((d.time()?, Port(d.u16()?), d.u32()?)))?;
    let purge_starts = dec.seq(|d| d.time())?;
    let lost_to_purge = dec.seq(|d| Ok((d.time()?, d.u64()?)))?;
    let bridge_drops = dec.u64()?;
    Ok(RouterCkpt {
        taps,
        truth,
        drops,
        presented,
        sock_delivered,
        purge_starts,
        lost_to_purge,
        bridge_drops,
    })
}

impl CtmsRouter {
    /// Indices of the ring slots, in slot (= NodeId) order.
    fn ring_slot_indices(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Slot::Ring { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Clears all recorded measurements ahead of a checkpoint apply.
    /// TAPs are not touched: owned slots are overwritten by the apply.
    fn clear_measurements(&mut self) {
        for map in &mut self.m.truth {
            map.clear();
        }
        self.m.drops.clear();
        self.m.presented.clear();
        self.m.sock_delivered.clear();
        self.m.purge_starts.clear();
        self.m.lost_to_purge.clear();
        self.m.bridge_drops = 0;
    }

    /// A canonical byte description of the wiring graph — slot kinds,
    /// endpoint stations, bridge port rings — independent of shard
    /// count (every shard router holds the complete slot table);
    /// endpoints are encoded in station order. Embedded in
    /// checkpoints since format v2 so a snapshot refuses to restore
    /// onto a differently-shaped topology instead of corrupting state.
    fn topology_signature(&self) -> Vec<u8> {
        let mut enc = ctms_sim::Enc::new();
        enc.seq_len(self.slots.len());
        for slot in self.slots.iter() {
            match slot {
                Slot::Ring { endpoints } => {
                    enc.u8(0);
                    // The dense table is already in station order, which
                    // is exactly the sorted order the v2 signature
                    // encoded — bytes stay identical across the layout
                    // change, so old checkpoints still match.
                    let eps: Vec<(u32, u8, u64, u8)> = endpoints
                        .iter()
                        .enumerate()
                        .filter_map(|(st, ep)| {
                            ep.map(|ep| match ep {
                                Endpoint::Host { node } => (st as u32, 0u8, node.0 as u64, 0u8),
                                Endpoint::Bridge { node, port } => {
                                    (st as u32, 1u8, node.0 as u64, port)
                                }
                            })
                        })
                        .collect();
                    enc.seq_len(eps.len());
                    for (st, kind, node, port) in eps {
                        enc.u32(st);
                        enc.u8(kind);
                        enc.u64(node);
                        enc.u8(port);
                    }
                }
                Slot::Bridge { rings } => {
                    enc.u8(1);
                    enc.seq_len(rings.len());
                    for r in rings {
                        enc.u64(r.0 as u64);
                    }
                }
                Slot::Host { index, ring } => {
                    enc.u8(2);
                    enc.u64(*index as u64);
                    enc.u64(ring.0 as u64);
                }
                Slot::Phantom { ring } => {
                    enc.u8(3);
                    enc.u64(ring.0 as u64);
                }
            }
        }
        enc.into_bytes()
    }
}
