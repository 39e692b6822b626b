//! Sharded (conservative-parallel) execution of a built [`Topology`]:
//! the [`ShardedBus`] returned by [`crate::Topology::build_sharded`].
//!
//! A sharded bus runs the same simulation as [`Bus`] — same nodes, same
//! wiring, same seeds — but partitions the node set by ring across a
//! [`ctms_sim::ShardedHarness`], which steps the shards in parallel on
//! the persistent sweep pool inside conservative time windows bounded
//! by bridge forwarding latency. By construction the results (event
//! counts, measurements, telemetry JSON) are bit-identical to the
//! single-threaded bus; only the wall clock changes.
//!
//! Topologies that cannot be sharded soundly (single ring, purge
//! subscriptions, phantom broadcast traffic) transparently fall back to the [`ShardedBus::Single`] variant,
//! which wraps a plain [`Bus`] — callers see one type either way.
//!
//! Topologies that can be sharded but where sharding does not pay fall
//! back too, during the run: the **profitability gate** measures the
//! first [`CALIBRATION_WINDOWS`] conservative windows and, when they
//! carry fewer than [`MIN_EVENTS_PER_WINDOW`] events each, moves the
//! simulation onto the single-threaded bus in place (see
//! [`ShardedBus::try_run_until`] and DESIGN.md §13, "Profitability").

use crate::topology::{
    decode_router_state, persist_router_parts, Bus, CtmsRouter, Measurements, Node, RouterCkpt,
};
use ctms_router::Bridge;
use ctms_sim::{CascadeError, Harness, NodeId, Registry, ShardStats, ShardedHarness, SimTime};
use ctms_tokenring::TokenRing;
use ctms_unixkern::{Host, MeasurePoint};

/// Length of the profitability gate's calibration prefix, in
/// conservative windows counted across `run_until` calls from the first
/// run after a build or restore. A run that never completes it (a few
/// long windows) is never demoted.
pub const CALIBRATION_WINDOWS: u64 = 128;

/// Events per window below which sharding cannot pay. On 2 threads a
/// window of `E` events costs about `s + E·c/2` against `E·c`
/// single-threaded, where `s` is the fixed per-window dispatch and
/// barrier cost and `c` the cost of one event: break-even sits at
/// `E = 2s/c`. With `s` up to ~6 µs and `c` ≈ 190 ns measured on a
/// 2-vCPU host, that is ~63 events; the gate asks for 4× that, so a
/// shape it lets through is predicted to gain ≥1.3x even at a 1.3
/// max/mean load imbalance. Dense-coupling shapes carry 5–15 events
/// per window, sparse ones thousands (DESIGN.md §13, "Profitability").
pub const MIN_EVENTS_PER_WINDOW: u64 = 256;

/// What the profitability gate measured over one sharded bus's
/// calibration prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Profitability {
    /// Shards the bus was built with.
    pub shards: usize,
    /// Conservative windows in the prefix (at least
    /// [`CALIBRATION_WINDOWS`]).
    pub windows: u64,
    /// Events serviced in the prefix.
    pub events: u64,
}

impl Profitability {
    /// Mean events per window over the prefix.
    pub fn events_per_window(&self) -> f64 {
        self.events as f64 / self.windows as f64
    }

    /// True when the prefix was too dense for sharding to pay, so the
    /// bus moves to the single-threaded harness.
    pub fn demotes(&self) -> bool {
        self.events < MIN_EVENTS_PER_WINDOW * self.windows
    }
}

/// A built topology running on the conservative-parallel harness, or —
/// when the partition would be unsound or pointless — on the plain
/// single-threaded bus. See [`crate::Topology::build_sharded`].
// One of these exists per testbed (never in collections), so the size
// spread between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum ShardedBus {
    /// Fallback: the ordinary single-threaded bus.
    Single(Bus),
    /// The ring-partitioned parallel bus.
    Parallel(ParallelBus),
}

/// The parallel variant of [`Bus`]: a [`ShardedHarness`] plus typed
/// access to its nodes, mirroring the [`Bus`] accessors.
pub struct ParallelBus {
    pub(crate) h: ShardedHarness<Node, CtmsRouter>,
    pub(crate) ring_nodes: Vec<NodeId>,
    pub(crate) bridge_nodes: Vec<NodeId>,
    pub(crate) host_nodes: Vec<NodeId>,
    /// `(events, windows)` when the calibration prefix began; `None`
    /// until the first run after a build or restore.
    pub(crate) prefix_start: Option<(u64, u64)>,
    /// The gate's measurement, once the prefix completed.
    pub(crate) profitability: Option<Profitability>,
}

impl ShardedBus {
    /// Number of shards actually running: 1 for the fallback, including
    /// a bus the profitability gate demoted — the *effective* shard
    /// count.
    pub fn shard_count(&self) -> usize {
        match self {
            ShardedBus::Single(_) => 1,
            ShardedBus::Parallel(p) => p.h.shard_count(),
        }
    }

    /// True when this bus fell back to the single-threaded harness.
    pub fn is_single(&self) -> bool {
        matches!(self, ShardedBus::Single(_))
    }

    /// The profitability gate's measurement: `Some` once a gated
    /// sharded bus completed its calibration prefix, whether it stayed
    /// sharded or demoted itself ([`Profitability::demotes`]); `None`
    /// before that and for buses that were never sharded.
    pub fn profitability(&self) -> Option<Profitability> {
        match self {
            ShardedBus::Single(b) => b.profitability(),
            ShardedBus::Parallel(p) => p.profitability,
        }
    }

    /// Mutable access to the single-threaded fallback bus, if this is
    /// one — the shape steering mutations require.
    pub fn as_single_mut(&mut self) -> Option<&mut Bus> {
        match self {
            ShardedBus::Single(b) => Some(b),
            ShardedBus::Parallel(_) => None,
        }
    }

    /// Caps how many pool workers a window dispatch invites. No-op on
    /// the single-threaded fallback.
    pub fn set_threads(&mut self, threads: usize) {
        if let ShardedBus::Parallel(p) = self {
            p.h.set_threads(threads);
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        match self {
            ShardedBus::Single(b) => b.now(),
            ShardedBus::Parallel(p) => p.h.now(),
        }
    }

    /// Runs until `horizon`; panics on cascade overflow.
    pub fn run_until(&mut self, horizon: SimTime) {
        if let Err(e) = self.try_run_until(horizon) {
            panic!("{e}");
        }
    }

    /// Runs until `horizon`, reporting cascade overflow as an error.
    ///
    /// A sharded bus first passes the profitability gate:
    /// the run stops at the first clean cut after
    /// [`CALIBRATION_WINDOWS`] windows, and if those carried fewer than
    /// [`MIN_EVENTS_PER_WINDOW`] events each, the bus becomes
    /// [`ShardedBus::Single`] before running on to `horizon`. The rule
    /// reads only the simulation's own schedule, so it decides the same
    /// at every thread count, and the result stays bit-identical either
    /// way.
    pub fn try_run_until(&mut self, horizon: SimTime) -> Result<(), CascadeError> {
        if let ShardedBus::Parallel(p) = self {
            if p.calibrate(horizon)?
                .is_some_and(|verdict| verdict.demotes())
            {
                self.demote();
            }
        }
        match self {
            ShardedBus::Single(b) => b.try_run_until(horizon),
            ShardedBus::Parallel(p) => p.h.try_run_until(horizon),
        }
    }

    /// Moves a parallel bus onto the single-threaded harness in place.
    fn demote(&mut self) {
        let ShardedBus::Parallel(p) = self else {
            unreachable!("only a parallel bus demotes");
        };
        *self = ShardedBus::Single(p.take_single());
    }

    /// Component activations serviced so far (equal to the
    /// single-threaded count for the same simulation, by construction).
    pub fn events(&self) -> u64 {
        match self {
            ShardedBus::Single(b) => b.events(),
            ShardedBus::Parallel(p) => p.h.events(),
        }
    }

    /// The cascade failure that poisoned this bus, if any.
    pub fn failure(&self) -> Option<CascadeError> {
        match self {
            ShardedBus::Single(b) => b.failure(),
            ShardedBus::Parallel(p) => p.h.failure(),
        }
    }

    /// Number of rings.
    pub fn ring_count(&self) -> usize {
        match self {
            ShardedBus::Single(b) => b.ring_count(),
            ShardedBus::Parallel(p) => p.ring_nodes.len(),
        }
    }

    /// Ring `k`.
    pub fn ring(&self, k: usize) -> &TokenRing {
        match self {
            ShardedBus::Single(b) => b.ring(k),
            ShardedBus::Parallel(p) => match p.h.node(p.ring_nodes[k]) {
                Node::Ring(r, _) => r,
                _ => unreachable!("ring node"),
            },
        }
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        match self {
            ShardedBus::Single(b) => b.host_count(),
            ShardedBus::Parallel(p) => p.host_nodes.len(),
        }
    }

    /// Host `k` (dense index from [`crate::Topology::host`]).
    pub fn host(&self, k: usize) -> &Host {
        match self {
            ShardedBus::Single(b) => b.host(k),
            ShardedBus::Parallel(p) => match p.h.node(p.host_nodes[k]) {
                Node::Host(host, _) => host,
                _ => unreachable!("host node"),
            },
        }
    }

    /// Mutable host `k`; its deadline is rescheduled before the next step.
    pub fn host_mut(&mut self, k: usize) -> &mut Host {
        match self {
            ShardedBus::Single(b) => b.host_mut(k),
            ShardedBus::Parallel(p) => match p.h.node_mut(p.host_nodes[k]) {
                Node::Host(host, _) => host,
                _ => unreachable!("host node"),
            },
        }
    }

    /// Number of bridges.
    pub fn bridge_count(&self) -> usize {
        match self {
            ShardedBus::Single(b) => b.bridge_count(),
            ShardedBus::Parallel(p) => p.bridge_nodes.len(),
        }
    }

    /// Bridge `k`.
    pub fn bridge(&self, k: usize) -> &Bridge {
        match self {
            ShardedBus::Single(b) => b.bridge(k),
            ShardedBus::Parallel(p) => match p.h.node(p.bridge_nodes[k]) {
                Node::Bridge(b, _) => b,
                _ => unreachable!("bridge node"),
            },
        }
    }

    /// Delivers a ring command to ring `k` at the current instant.
    /// Injection is a coordinator-side (sequential) operation on both
    /// variants, so its fallout routes exactly as single-threaded.
    pub fn inject_ring(
        &mut self,
        k: usize,
        cmd: ctms_tokenring::RingCmd,
    ) -> Result<(), CascadeError> {
        match self {
            ShardedBus::Single(b) => b.inject_ring(k, cmd),
            ShardedBus::Parallel(_) => {
                panic!("inject_ring is not supported on a parallel bus; build with build()")
            }
        }
    }

    /// The recorded ground truth, one part per shard (a single part for
    /// the fallback). Aggregate counters are sums over the parts; truth
    /// logs and presentations live in exactly one part each.
    pub fn measure_parts(&self) -> Vec<&Measurements> {
        match self {
            ShardedBus::Single(b) => vec![b.measurements()],
            ShardedBus::Parallel(p) => (0..p.h.shard_count())
                .map(|k| p.h.shard_router(k).measurements())
                .collect(),
        }
    }

    /// Per-host trace log for one measurement point, if recorded. On the
    /// parallel bus the log lives in the host's owner shard.
    pub fn truth_log(&self, host: usize, point: MeasurePoint) -> Option<&ctms_sim::EdgeLog> {
        match self {
            ShardedBus::Single(b) => b.measurements().truth_log(host, point),
            ShardedBus::Parallel(p) => {
                let shard = p.h.shard_of(p.host_nodes[host]);
                p.h.shard_router(shard)
                    .measurements()
                    .truth_log(host, point)
            }
        }
    }

    /// Collects and serializes the metric tree as canonical JSON —
    /// byte-identical to the single-threaded bus for the same topology,
    /// seeds, and horizon.
    pub fn telemetry_json(&mut self) -> String {
        match self {
            ShardedBus::Single(b) => b.telemetry_json(),
            ShardedBus::Parallel(p) => p.h.telemetry_json(),
        }
    }

    /// Execution-layer counters (windows, sync instants, per-shard
    /// mailbox traffic) — kept out of the main registry so telemetry
    /// stays byte-identical to single-threaded runs. `None` for the
    /// fallback, which has no sharded execution layer.
    pub fn exec_telemetry(&self) -> Option<Registry> {
        match self {
            ShardedBus::Single(_) => None,
            ShardedBus::Parallel(p) => Some(p.h.exec_telemetry()),
        }
    }

    /// Execution counters for shard `k` (zeros for the fallback's only
    /// shard).
    pub fn shard_stats(&self, k: usize) -> ShardStats {
        match self {
            ShardedBus::Single(_) => ShardStats::default(),
            ShardedBus::Parallel(p) => p.h.shard_stats(k),
        }
    }

    /// Appends all dynamic state to `enc` in the shard-agnostic
    /// checkpoint format shared with [`Bus`]. Must be called at a
    /// sync-instant boundary (after `try_run_until` returned).
    pub(crate) fn persist_state(&self, enc: &mut ctms_sim::Enc) {
        match self {
            ShardedBus::Single(b) => b.persist_state(enc),
            ShardedBus::Parallel(p) => p.persist_state(enc),
        }
    }

    /// Applies state persisted by any bus flavor — the snapshot's shard
    /// count and this bus's need not match.
    pub(crate) fn restore_state(
        &mut self,
        dec: &mut ctms_sim::Dec<'_>,
    ) -> Result<(), ctms_sim::PersistError> {
        match self {
            ShardedBus::Single(b) => b.restore_state(dec),
            ShardedBus::Parallel(p) => p.restore_state(dec),
        }
    }

    /// Streaming counterpart of [`ShardedBus::persist_state`]: the
    /// chunk payloads concatenate to exactly the monolithic bytes.
    pub(crate) fn persist_state_chunked(
        &self,
        w: &mut ctms_sim::ChunkedWriter<'_>,
    ) -> Result<(), ctms_sim::PersistError> {
        match self {
            ShardedBus::Single(b) => b.persist_state_chunked(w),
            ShardedBus::Parallel(p) => p.persist_state_chunked(w),
        }
    }

    /// Streaming counterpart of [`ShardedBus::restore_state`].
    pub(crate) fn restore_state_chunked(
        &mut self,
        prefix: &mut ctms_sim::Dec<'_>,
        r: &mut ctms_sim::ChunkedReader<'_>,
        buf: &mut Vec<u8>,
    ) -> Result<(), ctms_sim::PersistError> {
        match self {
            ShardedBus::Single(b) => b.restore_state_chunked(prefix, r, buf),
            ShardedBus::Parallel(p) => p.restore_state_chunked(prefix, r, buf),
        }
    }

    /// The canonical graph-shape signature checkpoints embed. Every
    /// shard's router holds the complete slot table, so shard 0 signs
    /// for the whole topology and the bytes match the single-threaded
    /// build of the same graph.
    pub(crate) fn topology_signature(&self) -> Vec<u8> {
        match self {
            ShardedBus::Single(b) => b.topology_signature(),
            ShardedBus::Parallel(p) => p.h.shard_router(0).topology_signature(),
        }
    }
}

impl ParallelBus {
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

    /// Hands the simulation over to a single-threaded [`Bus`] through
    /// the shard-agnostic checkpoint stream: the state is persisted,
    /// the nodes move (in global [`NodeId`] order, so ids and tie order
    /// are unchanged) into a fresh [`Harness`] with one router over the
    /// same wiring, and the stream restores clock, event count,
    /// telemetry history and the merged measurements onto it. Only the
    /// stream is held beside the nodes — never two harnesses. Leaves
    /// this bus empty; the caller drops it.
    fn take_single(&mut self) -> Bus {
        let mut image = ctms_sim::Enc::new();
        self.persist_state(&mut image);
        let image = image.into_bytes();
        let router = self.h.shard_router(0).fresh_single();
        let mut h = Harness::new(router, self.h.cascade_limit());
        for (node, label) in self.h.take_nodes() {
            h.add_node_labeled(node, label);
        }
        let mut bus = Bus::from_sharded_parts(
            h,
            std::mem::take(&mut self.ring_nodes),
            std::mem::take(&mut self.bridge_nodes),
            std::mem::take(&mut self.host_nodes),
            self.profitability.expect("the gate ran before demoting"),
        );
        let mut dec = ctms_sim::Dec::new(&image);
        bus.restore_state(&mut dec)
            .and_then(|()| dec.finish())
            .expect("a sharded bus's own state restores onto its nodes");
        bus
    }

    /// See [`ShardedBus::persist_state`]: same byte stream as the
    /// single-threaded bus — the harness walks nodes in global
    /// registration order, and the per-shard router parts are merged
    /// into one canonical stream.
    pub(crate) fn persist_state(&self, enc: &mut ctms_sim::Enc) {
        self.h.persist_state(enc);
        let parts: Vec<&CtmsRouter> = (0..self.h.shard_count())
            .map(|k| self.h.shard_router(k))
            .collect();
        persist_router_parts(&parts, enc);
    }

    /// See [`ShardedBus::restore_state`]: harness state lands on each
    /// node's owner shard; router state is re-distributed — each TAP to
    /// its ring's owner part, each host's truth logs to the host's owner
    /// part, flat event lists and the bridge-drop count to shard 0
    /// (merged telemetry reads only counts and sorted times, so the
    /// placement of historical entries is unobservable).
    pub(crate) fn restore_state(
        &mut self,
        dec: &mut ctms_sim::Dec<'_>,
    ) -> Result<(), ctms_sim::PersistError> {
        self.h.restore_state(dec)?;
        let ckpt = decode_router_state(dec)?;
        self.apply_router_ckpt(ckpt)
    }

    /// Streaming counterpart of [`ParallelBus::persist_state`]: same
    /// concatenated bytes, bounded buffering.
    pub(crate) fn persist_state_chunked(
        &self,
        w: &mut ctms_sim::ChunkedWriter<'_>,
    ) -> Result<(), ctms_sim::PersistError> {
        self.h.persist_state_chunked(w)?;
        let parts: Vec<&CtmsRouter> = (0..self.h.shard_count())
            .map(|k| self.h.shard_router(k))
            .collect();
        persist_router_parts(&parts, w.enc());
        w.flush_chunk()
    }

    /// Streaming counterpart of [`ParallelBus::restore_state`].
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

    /// Re-distributes a decoded router snapshot across the shard parts
    /// — shared by the monolithic and streamed restore paths.
    fn apply_router_ckpt(&mut self, ckpt: RouterCkpt) -> Result<(), ctms_sim::PersistError> {
        // A prefix still open restarts from the restored state.
        self.prefix_start = None;
        let shards = self.h.shard_count();
        for k in 0..shards {
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
            let owner = (0..shards)
                .find(|&k| self.h.shard_router(k).owns_tap(slot))
                .expect("every ring slot has an owner shard");
            self.h.shard_router_mut(owner).set_tap(slot, tap);
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
            let r = self.h.shard_router_mut(owner);
            for (point, log) in entries {
                r.insert_truth(host, point, log);
            }
        }

        self.h.shard_router_mut(0).apply_flat(
            ckpt.drops,
            ckpt.presented,
            ckpt.sock_delivered,
            ckpt.purge_starts,
            ckpt.lost_to_purge,
            ckpt.bridge_drops,
        );
        Ok(())
    }
}
