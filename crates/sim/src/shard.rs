//! Conservative parallel execution: the sharded scheduler.
//!
//! [`crate::bus::Harness`] services one global deadline heap on one
//! thread. [`ShardedHarness`] partitions the node set into **shards**
//! (the caller supplies the partition — `ctms-core` derives one shard
//! per contiguous block of rings) and runs each shard's indexed heap on
//! a worker of the persistent [`crate::sweep`] pool, synchronizing with
//! a classic bounded-time-window (conservative, YAWNS-style) protocol:
//!
//! * A small set of nodes is declared **sync-class** at registration —
//!   in `ctms-core` these are the bridges whose two rings landed in
//!   different shards. Only sync nodes are ever allowed to emit
//!   commands that cross a shard boundary, and only at instants the
//!   harness has made globally consistent.
//! * Let `T` be the earliest deadline anywhere and `B` the earliest
//!   deadline of any sync node. If `B > T`, every shard may run
//!   **independently** over the window `[T, min(B, T + L))` where `L`
//!   is the caller-supplied **lookahead**: a lower bound on the time
//!   between a command entering a sync node and any consequence
//!   emerging from it (for a bridge, its fixed forwarding latency).
//!   Nothing a shard does inside the window can affect another shard
//!   before the window closes, so the shards' interleaving is
//!   irrelevant — the result is the one a single thread would compute.
//! * If `B == T`, the harness runs a **sync instant**: every shard due
//!   at `T` advances, and cross-shard commands are exchanged through
//!   per-destination mailboxes, merged in [`MailKey`] order
//!   (`(time, src_shard, seq)` — a total order, so delivery is
//!   deterministic no matter which worker finished first), in repeated
//!   rounds until no mail is in flight.
//!
//! Determinism is the contract: parallel execution may change the wall
//! clock, never the answer. The `ctms-bench` `perf` binary asserts
//! bit-identical ground truth before it times anything, and the tier-1
//! `sharded_harness_shares_the_golden_truth` test pins byte-identical
//! telemetry JSON against the single-threaded golden digests.
//!
//! A shard that emits a cross-shard command *outside* a sync instant
//! has violated the lookahead contract (the partition put tightly
//! coupled nodes in different shards); the harness poisons itself with
//! a typed [`CascadeError::CrossShard`] rather than silently diverging
//! from single-threaded truth.

use crate::bus::{CascadeError, CmdSink, NodeId, Router, SpeculationFault, DEFAULT_CASCADE_LIMIT};
use crate::engine::Component;
use crate::heap::IndexedHeap;
use crate::persist::{ChunkedReader, ChunkedWriter, Dec, Enc, Persist, PersistError, Rollback};
use crate::sweep::parallel_map;
use crate::telemetry::Registry;
use crate::time::{Dur, SimTime};
use std::sync::Arc;

/// Merge key of one cross-shard command: commands are delivered in
/// ascending `(at, src_shard, seq)` order. `seq` is a per-source-shard
/// monotonic counter, so keys are globally unique and the order is
/// total — two runs (or two thread schedules) always deliver the same
/// mail in the same order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MailKey {
    /// The instant the command was emitted (and is delivered).
    pub at: SimTime,
    /// The emitting shard.
    pub src_shard: u32,
    /// Emission sequence number within the source shard.
    pub seq: u64,
}

/// Sorts a merged mailbox into delivery order.
///
/// The sort is **stable** on the full [`MailKey`], so entries with
/// equal keys (impossible in the engine — `seq` is unique per source —
/// but representable) keep their push order; the property test in this
/// module enumerates permutations to pin both totality and stability.
pub fn merge_mail<T>(mail: &mut [(MailKey, T)]) {
    mail.sort_by_key(|m| m.0);
}

/// Per-shard execution counters, published under `sched.shard{k}` by
/// [`ShardedHarness::exec_telemetry`]. Kept out of the simulation's own
/// registry so the telemetry tree stays byte-identical to
/// single-threaded execution (golden digests must not depend on the
/// shard count).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Windows in which this shard advanced at least one node.
    pub window_advances: u64,
    /// Windows this shard sat out (no deadline inside the window).
    pub idle_windows: u64,
    /// Cross-shard commands this shard emitted.
    pub mailbox_sent: u64,
    /// Cross-shard commands this shard received.
    pub mailbox_recv: u64,
    /// Component activations (advances + delivered commands) serviced.
    pub events: u64,
}

/// One cross-shard command in flight: key, then `(dst, cmd)` payload —
/// shaped so the engine merges through the same [`merge_mail`] the
/// property tests pin.
type Mail<Cmd> = (MailKey, (NodeId, Cmd));

/// Which synchronization protocol the coordinator runs.
///
/// Both modes are bit-identical to the single-threaded harness (and to
/// each other) — the tier-1 parity tests pin it. They differ only in
/// how many barriers the coordinator erects:
///
/// * [`WindowMode::Adaptive`] (the default) derives each shard's window
///   end from a per-edge influence fixpoint over every shard's
///   published deadlines, lets sync-class nodes emit cross-shard mail
///   *inside* windows (delivered when the receiving shard reaches the
///   emission instant), and only falls back to a global sync instant
///   when no shard can make progress. Globally quiet stretches are
///   skipped in one hop, so `sched.windows` / `sched.sync_instants`
///   collapse on sparse workloads.
/// * [`WindowMode::FixedLookahead`] is the classic bounded-window
///   protocol this module started with — every window ends at
///   `base + L` and every cross-shard command waits for a sync instant.
///   Kept as the ablation baseline the adaptive mode is measured (and
///   parity-tested) against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WindowMode {
    /// Influence-fixpoint windows with in-window sync emission.
    #[default]
    Adaptive,
    /// Classic `base + L` windows; cross mail only at sync instants.
    FixedLookahead,
}

/// Which execution discipline the coordinator runs the shards under.
///
/// Both are bit-identical to the single-threaded harness — the golden
/// parity tests hold optimistic execution to the same digests as the
/// conservative modes at every shard and thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Shards never execute an instant another shard could still
    /// affect ([`WindowMode`] selects the conservative protocol).
    #[default]
    Conservative,
    /// Time-Warp-style speculation: shards run past their conservative
    /// bound, snapshotting local state at a configurable event cadence
    /// and rolling back when a cross-shard command arrives behind the
    /// local clock. Outbound mail from speculative instants is staged
    /// and only released once the emitting instant commits, so no
    /// anti-messages are ever needed; a per-round GVT reduction
    /// fossil-collects dead snapshots.
    Optimistic,
}

/// Cross-shard emission policy for one cascade, by protocol phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cross {
    /// Conservative fixed window: any cross-shard command is a
    /// protocol violation.
    Forbid,
    /// Adaptive window: sync-class sources may emit to the outbox
    /// (their lookahead contract bounds when the mail can matter);
    /// anything else is the same protocol violation.
    SyncOnly,
    /// Sync instant: every cross-shard command goes to the outbox.
    Allow,
    /// Optimistic window: sync-class sources stage cross-shard mail in
    /// the speculative outbox, released by the coordinator only once
    /// the emitting instant commits. Re-emissions below the released
    /// floor during rollback replay are dropped as duplicates.
    Stage,
}

/// One pre-image snapshot taken by an optimistically executing shard:
/// everything needed to rewind the shard to the state it had just
/// before executing instant `time`.
#[derive(Clone, Copy)]
struct Segment {
    /// First speculative instant covered by this segment.
    time: SimTime,
    /// Shard clock before `time` executed.
    now_before: SimTime,
    seq_before: u64,
    events_before: u64,
    /// Delivered-mail cursor into `pending` at segment open.
    pcur_before: usize,
    /// Mailbox counters at segment open (window/idle counters are
    /// coordinator-side bookkeeping and never rewind).
    sent_before: u64,
    recv_before: u64,
    /// This segment's slice of `seg_entries` starts here.
    entries_start: u32,
    /// Router pre-image location in the arena; `router_start` doubles
    /// as the arena watermark for the whole segment (the router image
    /// is the first thing appended after the segment opens).
    router_start: u32,
    router_end: u32,
    /// Events executed while this was the open segment.
    events_in: u64,
    /// `seg_stamp` epoch for per-node pre-image dedup.
    epoch: u64,
}

/// One shard: a slice of the node set with its own heap, router, and
/// the same reusable scratch buffers as [`crate::bus::Harness`]. Moves
/// wholesale between the coordinating thread and pool workers.
struct ShardState<C: Component, R> {
    idx: u32,
    /// Nodes local to this shard, in global registration order.
    nodes: Vec<C>,
    /// Local index → global [`NodeId`] (routers speak global ids).
    global_ids: Vec<NodeId>,
    /// Local index → is this a sync-class node?
    sync_local: Vec<bool>,
    router: R,
    /// All local nodes, keyed by local index.
    heap: IndexedHeap,
    /// Sync-class nodes only, keyed by local index; `B` comes from here.
    sync_heap: IndexedHeap,
    /// Global node id → (shard, local index), shared by every shard.
    owner: Arc<Vec<(u32, u32)>>,
    now: SimTime,
    limit: u32,
    failed: Option<CascadeError>,
    dirty: Vec<usize>,
    events: u64,
    stats: ShardStats,
    /// Outgoing mail per destination shard, drained by the coordinator.
    outbox: Vec<Vec<Mail<C::Cmd>>>,
    /// Incoming mail, filled (pre-sorted) by the coordinator.
    inbox: Vec<Mail<C::Cmd>>,
    /// Adaptive-mode incoming mail not yet due: kept sorted in
    /// [`MailKey`] order, delivered when the shard's clock reaches each
    /// entry's emission instant. Always empty in fixed mode.
    pending: Vec<Mail<C::Cmd>>,
    seq: u64,
    /// This shard's end for the current conservative window, set by the
    /// coordinator right before dispatch (a field rather than a closure
    /// capture so per-shard windows stay allocation-free).
    w_end: SimTime,
    // Reusable hot-path buffers, exactly as in `Harness`.
    due: Vec<usize>,
    touched: Vec<usize>,
    wave: Vec<(NodeId, C::Out)>,
    next_wave: Vec<(NodeId, C::Out)>,
    out_buf: Vec<C::Out>,
    cmds: CmdSink<C::Cmd>,
    batch: Vec<C::Out>,
    /// Per-node visit stamps for O(1) dedup in `reschedule_touched`.
    stamp: Vec<u64>,
    epoch: u64,
    // --- Optimistic (Time-Warp) state; empty/zero under conservative
    // execution and between speculative episodes. ---
    /// Instants strictly below this are committed everywhere: staged
    /// mail below it was already released, so re-emissions during
    /// rollback replay are dropped as duplicates.
    released_floor: SimTime,
    /// Start of the speculative region of the current window (the
    /// shard's conservative bound); instants at or past it are logged.
    spec_begin: SimTime,
    /// True while executing an instant with segment logging active
    /// (checked by `cascade` before mutating a local node).
    log_active: bool,
    /// Open snapshot segments, oldest first, `time`-sorted.
    segs: Vec<Segment>,
    /// `(local node, arena start, arena end)` pre-image entries, in
    /// save order, partitioned by the segments' `entries_start`.
    seg_entries: Vec<(u32, u32, u32)>,
    /// Pre-image byte arena shared by all open segments; reused across
    /// episodes so the speculative steady state stays allocation-free.
    arena: Vec<u8>,
    /// Scratch encoder for one pre-image at a time.
    scratch: Enc,
    /// Per-node dedup stamps: one pre-image per node per segment.
    seg_stamp: Vec<u64>,
    seg_epoch: u64,
    /// Crossing log: one `(instant, sync-peek before the instant)`
    /// entry per executed speculative instant. `xlog[0]` defines the
    /// shard's committed view; empty means the shard is live.
    xlog: Vec<(SimTime, Option<SimTime>)>,
    /// Cursor into `pending`: entries before it were delivered but are
    /// kept (and re-delivered by cloning) for rollback replay.
    pcur: usize,
    /// Staged speculative mail per destination shard, released by the
    /// coordinator once the emitting instant commits.
    spec_outbox: Vec<Vec<Mail<C::Cmd>>>,
    /// Events between snapshots (distributed by the coordinator).
    cadence: u64,
    rollbacks: u64,
    rolled_back_events: u64,
    snapshot_bytes: u64,
}

impl<C, R> ShardState<C, R>
where
    C: Component + Persist,
    C::Cmd: Clone,
    R: Router<C> + Rollback,
{
    fn new(idx: u32, router: R, limit: u32, n_shards: usize) -> Self {
        ShardState {
            idx,
            nodes: Vec::new(),
            global_ids: Vec::new(),
            sync_local: Vec::new(),
            router,
            heap: IndexedHeap::new(),
            sync_heap: IndexedHeap::new(),
            owner: Arc::new(Vec::new()),
            now: SimTime::ZERO,
            limit,
            failed: None,
            dirty: Vec::new(),
            events: 0,
            stats: ShardStats::default(),
            outbox: (0..n_shards).map(|_| Vec::new()).collect(),
            inbox: Vec::new(),
            pending: Vec::new(),
            seq: 0,
            w_end: SimTime::ZERO,
            due: Vec::new(),
            touched: Vec::new(),
            wave: Vec::new(),
            next_wave: Vec::new(),
            out_buf: Vec::new(),
            cmds: CmdSink::new(),
            batch: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            released_floor: SimTime::ZERO,
            spec_begin: SimTime::ZERO,
            log_active: false,
            segs: Vec::new(),
            seg_entries: Vec::new(),
            arena: Vec::new(),
            scratch: Enc::new(),
            seg_stamp: Vec::new(),
            seg_epoch: 0,
            xlog: Vec::new(),
            pcur: 0,
            spec_outbox: (0..n_shards).map(|_| Vec::new()).collect(),
            cadence: 256,
            rollbacks: 0,
            rolled_back_events: 0,
            snapshot_bytes: 0,
        }
    }

    fn add_node(&mut self, node: C, global: NodeId, sync: bool) -> u32 {
        let local = self.nodes.len();
        self.nodes.push(node);
        self.global_ids.push(global);
        self.sync_local.push(sync);
        self.stamp.push(0);
        self.seg_stamp.push(0);
        self.reschedule(local);
        local as u32
    }

    /// True when any registered node is sync-class.
    fn has_sync_nodes(&self) -> bool {
        self.sync_local.iter().any(|&b| b)
    }

    /// Syncs both heaps with the node's current deadline.
    fn reschedule(&mut self, local: usize) {
        let at = self.nodes[local].next_deadline();
        self.heap.set(local, at);
        if self.sync_local[local] {
            self.sync_heap.set(local, at);
        }
    }

    /// Re-syncs the heaps for every node in `touched`, deduplicated by
    /// epoch stamp in O(len) — same scheme (and same order-independence
    /// argument) as `Harness::reschedule_touched`.
    fn reschedule_touched(&mut self) {
        self.epoch += 1;
        let epoch = self.epoch;
        for i in 0..self.touched.len() {
            let l = self.touched[i];
            if self.stamp[l] != epoch {
                self.stamp[l] = epoch;
                self.reschedule(l);
            }
        }
        self.touched.clear();
    }

    fn flush_dirty(&mut self) {
        while let Some(l) = self.dirty.pop() {
            self.reschedule(l);
        }
    }

    /// Earliest local deadline.
    fn peek(&self) -> Option<SimTime> {
        self.heap.peek().map(|(at, _)| at)
    }

    /// Earliest local sync-node deadline.
    fn peek_sync(&self) -> Option<SimTime> {
        self.sync_heap.peek().map(|(at, _)| at)
    }

    /// Emission instant of the earliest undelivered pending mail
    /// (adaptive mode; the pending queue is kept sorted).
    fn peek_pending(&self) -> Option<SimTime> {
        self.pending.first().map(|m| m.0.at)
    }

    /// Fills `due` with every local node scheduled at or before `t`, in
    /// local (= global registration) order, keeping the sync heap
    /// coherent.
    fn pop_due(&mut self, t: SimTime) {
        self.due.clear();
        while let Some((at, l)) = self.heap.peek() {
            if at > t {
                break;
            }
            self.heap.pop();
            if self.sync_local[l] {
                self.sync_heap.set(l, None);
            }
            self.due.push(l);
        }
    }

    /// Routes `wave` breadth-first at `now` until it drains, entering
    /// the router in runs of consecutive same-source events (the same
    /// batching — and the same bit-identity argument — as
    /// `Harness::cascade`). Local commands are delivered immediately;
    /// cross-shard commands follow the [`Cross`] policy: outbox at sync
    /// instants, outbox for sync-class sources inside adaptive windows,
    /// protocol violation otherwise.
    fn cascade(&mut self, now: SimTime, cross: Cross) -> Result<(), CascadeError> {
        let mut steps = 0u32;
        while !self.wave.is_empty() {
            steps += 1;
            if steps > self.limit {
                let err = CascadeError::overflow(now, self.wave[0].0, steps);
                self.failed = Some(err);
                self.wave.clear();
                self.next_wave.clear();
                self.cmds.clear();
                return Err(err);
            }
            let mut wave = std::mem::take(&mut self.wave);
            let mut iter = wave.drain(..).peekable();
            while let Some((src, event)) = iter.next() {
                debug_assert!(self.cmds.is_empty());
                match iter.peek() {
                    Some((s, _)) if *s == src => {
                        debug_assert!(self.batch.is_empty());
                        self.batch.push(event);
                        while let Some((s, _)) = iter.peek() {
                            if *s != src {
                                break;
                            }
                            let (_, e) = iter.next().expect("peeked entry");
                            self.batch.push(e);
                        }
                        self.router
                            .route_all(now, src, &mut self.batch, &mut self.cmds);
                        self.batch.clear();
                    }
                    // Singleton run — the common case on sparse
                    // workloads — skips the batch buffer entirely.
                    _ => self.router.route(now, src, event, &mut self.cmds),
                }
                // Move the sink out for the drain so pre-image saves
                // (which take `&mut self`) can interleave; capacity is
                // restored afterwards.
                let mut cmds = std::mem::take(&mut self.cmds);
                for (dst, cmd) in cmds.drain() {
                    let (os, ol) = self.owner[dst.0];
                    if os == self.idx {
                        let ol = ol as usize;
                        if self.log_active {
                            self.save_node_pre(ol);
                        }
                        self.events += 1;
                        self.nodes[ol].handle(now, cmd, &mut self.out_buf);
                        self.touched.push(ol);
                        for e in self.out_buf.drain(..) {
                            self.next_wave.push((dst, e));
                        }
                    } else {
                        let sync_src = match cross {
                            Cross::Allow => true,
                            Cross::SyncOnly | Cross::Stage => {
                                let (_, sl) = self.owner[src.0];
                                self.sync_local[sl as usize]
                            }
                            Cross::Forbid => false,
                        };
                        if sync_src {
                            self.seq += 1;
                            self.stats.mailbox_sent += 1;
                            let mail = (
                                MailKey {
                                    at: now,
                                    src_shard: self.idx,
                                    seq: self.seq,
                                },
                                (dst, cmd),
                            );
                            if cross == Cross::Stage {
                                // Staged for release at commit. A replay
                                // re-emission below the released floor
                                // already reached its receiver — drop it
                                // (the counter still ticks: the restore
                                // of `sent_before` un-counted it).
                                if now >= self.released_floor {
                                    self.spec_outbox[os as usize].push(mail);
                                }
                            } else {
                                self.outbox[os as usize].push(mail);
                            }
                        } else {
                            // The partition split tightly coupled nodes
                            // or the lookahead overstates the link
                            // latency: a typed error, not a process kill.
                            self.failed = Some(CascadeError::CrossShard {
                                at: now,
                                src,
                                dst,
                                src_shard: self.idx,
                                dst_shard: os,
                            });
                            break;
                        }
                    }
                }
                self.cmds = cmds; // keep the capacity
                if self.failed.is_some() {
                    break;
                }
            }
            drop(iter);
            self.wave = wave;
            if let Some(err) = self.failed {
                self.wave.clear();
                self.next_wave.clear();
                self.cmds.clear();
                self.batch.clear();
                return Err(err);
            }
            std::mem::swap(&mut self.wave, &mut self.next_wave);
        }
        Ok(())
    }

    /// Runs every local deadline strictly before `w_end`, with
    /// cross-shard emission forbidden (the conservative window body).
    fn run_window(&mut self, w_end: SimTime) {
        if self.failed.is_some() {
            return;
        }
        while let Some((t, _)) = self.heap.peek() {
            if t >= w_end {
                break;
            }
            debug_assert!(t >= self.now, "shard time went backwards");
            self.now = t;
            self.pop_due(t);
            self.touched.clear();
            self.touched.extend_from_slice(&self.due);
            debug_assert!(self.wave.is_empty() && self.out_buf.is_empty());
            for i in 0..self.due.len() {
                let l = self.due[i];
                self.events += 1;
                self.nodes[l].advance(t, &mut self.out_buf);
                for e in self.out_buf.drain(..) {
                    self.wave.push((self.global_ids[l], e));
                }
            }
            let result = self.cascade(t, Cross::Forbid);
            self.reschedule_touched();
            if result.is_err() {
                return;
            }
        }
    }

    /// Runs every local instant — heap deadlines *and* pending mail —
    /// strictly before `w_end` (the adaptive window body). At each
    /// instant, due nodes advance first and mail emitted at that
    /// instant is delivered after them, matching the sync-instant
    /// ordering (due round, then mailbox rounds); the loop re-enters
    /// the same instant if either phase schedules new work at it.
    /// Sync-class nodes may emit cross-shard mail throughout.
    fn run_adaptive_window(&mut self, w_end: SimTime) {
        if self.failed.is_some() {
            return;
        }
        loop {
            let next = crate::engine::earliest([self.peek(), self.peek_pending()]);
            let Some(t) = next else { break };
            if t >= w_end {
                break;
            }
            assert!(
                t >= self.now,
                "sharded scheduler protocol violation: cross-shard mail at {t} arrived behind \
                 shard {} clock {} — the adaptive window bound admitted a causality miss",
                self.idx,
                self.now
            );
            self.now = t;
            if self.heap.peek().is_some_and(|(at, _)| at == t) {
                self.pop_due(t);
                self.touched.clear();
                self.touched.extend_from_slice(&self.due);
                debug_assert!(self.wave.is_empty() && self.out_buf.is_empty());
                for i in 0..self.due.len() {
                    let l = self.due[i];
                    self.events += 1;
                    self.nodes[l].advance(t, &mut self.out_buf);
                    for e in self.out_buf.drain(..) {
                        self.wave.push((self.global_ids[l], e));
                    }
                }
                let result = self.cascade(t, Cross::SyncOnly);
                self.reschedule_touched();
                if result.is_err() {
                    return;
                }
            }
            if self.deliver_due_pending(t, Cross::SyncOnly).is_err() {
                return;
            }
        }
    }

    /// Advances every local node due at exactly `t` (the sync instant's
    /// opening round); cross-shard commands go to the outbox.
    fn run_sync_due(&mut self, t: SimTime) {
        if self.failed.is_some() {
            return;
        }
        debug_assert!(t >= self.now, "shard time went backwards");
        self.now = t;
        self.pop_due(t);
        self.touched.clear();
        self.touched.extend_from_slice(&self.due);
        debug_assert!(self.wave.is_empty() && self.out_buf.is_empty());
        for i in 0..self.due.len() {
            let l = self.due[i];
            self.events += 1;
            self.nodes[l].advance(t, &mut self.out_buf);
            for e in self.out_buf.drain(..) {
                self.wave.push((self.global_ids[l], e));
            }
        }
        let _ = self.cascade(t, Cross::Allow);
        self.reschedule_touched();
        // Adaptive fallback: pending mail emitted exactly at `t` joins
        // the sync instant (a no-op in fixed mode — pending stays empty).
        let _ = self.deliver_due_pending(t, Cross::Allow);
    }

    /// Delivers every pending-mail entry emitted at or before `t` (a
    /// sorted prefix), routing the fallout under `cross`. Capacity is
    /// retained; the not-yet-due tail stays queued.
    fn deliver_due_pending(&mut self, t: SimTime, cross: Cross) -> Result<(), CascadeError> {
        if self.failed.is_some() {
            return Ok(()); // failure already recorded by the cascade
        }
        let end = self.pending.iter().take_while(|m| m.0.at <= t).count();
        if end == 0 {
            return Ok(());
        }
        debug_assert!(self.wave.is_empty() && self.out_buf.is_empty());
        self.stats.mailbox_recv += end as u64;
        self.touched.clear();
        let mut pending = std::mem::take(&mut self.pending);
        for (_key, (dst, cmd)) in pending.drain(..end) {
            let (os, ol) = self.owner[dst.0];
            debug_assert_eq!(os, self.idx, "mail delivered to the wrong shard");
            let ol = ol as usize;
            self.events += 1;
            self.nodes[ol].handle(t, cmd, &mut self.out_buf);
            self.touched.push(ol);
            for e in self.out_buf.drain(..) {
                self.wave.push((dst, e));
            }
        }
        self.pending = pending; // keep the capacity (and the tail)
        let result = self.cascade(t, cross);
        self.reschedule_touched();
        result
    }

    /// Delivers the (pre-sorted) inbox at `t` and routes the fallout;
    /// further cross-shard commands go back to the outbox for the next
    /// exchange round.
    fn deliver_inbox(&mut self, t: SimTime) {
        if self.failed.is_some() {
            self.inbox.clear();
            return;
        }
        debug_assert!(self.wave.is_empty() && self.out_buf.is_empty());
        self.stats.mailbox_recv += self.inbox.len() as u64;
        self.touched.clear();
        let mut inbox = std::mem::take(&mut self.inbox);
        for (_key, (dst, cmd)) in inbox.drain(..) {
            let (os, ol) = self.owner[dst.0];
            debug_assert_eq!(os, self.idx, "mail delivered to the wrong shard");
            let ol = ol as usize;
            self.events += 1;
            self.nodes[ol].handle(t, cmd, &mut self.out_buf);
            self.touched.push(ol);
            for e in self.out_buf.drain(..) {
                self.wave.push((dst, e));
            }
        }
        self.inbox = inbox; // keep the capacity
        let _ = self.cascade(t, Cross::Allow);
        self.reschedule_touched();
    }

    // ------------------------------------------------------------------
    // Optimistic (Time-Warp) execution. Speculative instants are
    // covered by pre-image segments: before a node (or the router) is
    // first mutated under an open segment, its canonical image is
    // appended to the shared arena, so rollback cost scales with the
    // state *dirtied* since the snapshot, not the topology size.
    // ------------------------------------------------------------------

    /// Opens a new snapshot segment whose first covered instant is `t`.
    /// Captures the scalar machine state and the router pre-image; node
    /// pre-images follow lazily as nodes are first touched.
    fn open_segment(&mut self, t: SimTime) {
        let entries_start = self.seg_entries.len() as u32;
        let router_start = self.arena.len() as u32;
        self.scratch.clear();
        self.router.save(&mut self.scratch);
        self.arena.extend_from_slice(self.scratch.as_bytes());
        let router_end = self.arena.len() as u32;
        self.snapshot_bytes += u64::from(router_end - router_start);
        self.seg_epoch += 1;
        self.segs.push(Segment {
            time: t,
            now_before: self.now,
            seq_before: self.seq,
            events_before: self.events,
            pcur_before: self.pcur,
            sent_before: self.stats.mailbox_sent,
            recv_before: self.stats.mailbox_recv,
            entries_start,
            router_start,
            router_end,
            events_in: 0,
            epoch: self.seg_epoch,
        });
    }

    /// Saves `local`'s pre-image into the open segment (once per node
    /// per segment, deduplicated by epoch stamp).
    fn save_node_pre(&mut self, local: usize) {
        let epoch = self.segs.last().expect("segment open").epoch;
        if self.seg_stamp[local] == epoch {
            return;
        }
        self.seg_stamp[local] = epoch;
        let start = self.arena.len() as u32;
        self.scratch.clear();
        self.nodes[local].save(&mut self.scratch);
        self.arena.extend_from_slice(self.scratch.as_bytes());
        let end = self.arena.len() as u32;
        self.snapshot_bytes += u64::from(end - start);
        self.seg_entries.push((local as u32, start, end));
    }

    /// Rewinds the shard to the latest snapshot at or before
    /// `straggler` (the newest segment whose first instant is ≤ it;
    /// when even the oldest segment starts past the straggler, the
    /// oldest is applied — it restores state from before anything
    /// speculative executed). Deterministic replay then re-derives
    /// every rolled-back instant.
    fn rollback_to(&mut self, straggler: SimTime) {
        debug_assert!(!self.segs.is_empty(), "rollback without a snapshot");
        let i = self
            .segs
            .partition_point(|s| s.time <= straggler)
            .saturating_sub(1);
        // Node pre-images, newest segment first: each node's oldest
        // image (its state when segs[i] opened) is applied last.
        for si in (i..self.segs.len()).rev() {
            let lo = self.segs[si].entries_start as usize;
            let hi = if si + 1 < self.segs.len() {
                self.segs[si + 1].entries_start as usize
            } else {
                self.seg_entries.len()
            };
            for ei in lo..hi {
                let (local, start, end) = self.seg_entries[ei];
                let mut dec = Dec::new(&self.arena[start as usize..end as usize]);
                self.nodes[local as usize]
                    .rollback(&mut dec)
                    .expect("in-process rollback image round-trips");
                self.touched.push(local as usize);
            }
        }
        let seg = self.segs[i];
        {
            let mut dec = Dec::new(&self.arena[seg.router_start as usize..seg.router_end as usize]);
            self.router
                .rollback(&mut dec)
                .expect("in-process rollback image round-trips");
        }
        let cut = seg.time;
        self.rollbacks += 1;
        self.rolled_back_events += self.events - seg.events_before;
        self.now = seg.now_before;
        self.seq = seg.seq_before;
        self.events = seg.events_before;
        self.pcur = seg.pcur_before;
        self.stats.mailbox_sent = seg.sent_before;
        self.stats.mailbox_recv = seg.recv_before;
        // Un-released staged mail from the rolled-back region is
        // discarded; replay regenerates it.
        for out in &mut self.spec_outbox {
            out.retain(|m| m.0.at < cut);
        }
        let keep = self.xlog.partition_point(|e| e.0 < cut);
        self.xlog.truncate(keep);
        self.seg_entries.truncate(seg.entries_start as usize);
        self.arena.truncate(seg.router_start as usize);
        self.segs.truncate(i);
        self.reschedule_touched();
    }

    /// GVT promotion: instants strictly below `f` are committed
    /// everywhere. Raises the released floor (monotone — the
    /// arithmetic bound may shrink between rounds), prunes the
    /// crossing log, fossil-collects segments no rollback can target
    /// (targets are always ≥ `f`; the newest segment at or below `f`
    /// is kept as their floor), and drops back to live execution when
    /// no speculation remains.
    fn promote(&mut self, f: SimTime) {
        if self.released_floor < f {
            self.released_floor = f;
        }
        let cut = self.xlog.partition_point(|e| e.0 < f);
        self.xlog.drain(..cut);
        if self.xlog.is_empty() {
            if !self.segs.is_empty() || self.pcur > 0 {
                self.go_live();
            }
            return;
        }
        let mut drop_n = 0;
        while drop_n + 1 < self.segs.len() && self.segs[drop_n + 1].time <= f {
            drop_n += 1;
        }
        if drop_n > 0 {
            let e_cut = self.segs[drop_n].entries_start as usize;
            let a_cut = self.segs[drop_n].router_start as usize;
            self.seg_entries.drain(..e_cut);
            self.arena.drain(..a_cut);
            self.segs.drain(..drop_n);
            for s in &mut self.segs {
                s.entries_start -= e_cut as u32;
                s.router_start -= a_cut as u32;
                s.router_end -= a_cut as u32;
            }
            for e in &mut self.seg_entries {
                e.1 -= a_cut as u32;
                e.2 -= a_cut as u32;
            }
        }
        // The delivered-pending prefix below the oldest surviving
        // snapshot can never be replayed: fossil it too.
        let q = self.segs[0].pcur_before;
        if q > 0 {
            self.pending.drain(..q);
            self.pcur -= q;
            for s in &mut self.segs {
                s.pcur_before -= q;
            }
        }
    }

    /// Drops every speculative structure: all executed instants are
    /// committed and the shard continues as a conservative one would.
    fn go_live(&mut self) {
        debug_assert!(self.xlog.is_empty(), "live with uncommitted instants");
        debug_assert!(
            self.spec_outbox.iter().all(|o| o.is_empty()),
            "live with staged mail"
        );
        self.segs.clear();
        self.seg_entries.clear();
        self.arena.clear();
        self.pending.drain(..self.pcur);
        self.pcur = 0;
        self.log_active = false;
    }

    /// Merges released (committed) mail from the inbox into the sorted
    /// pending queue, rolling back first when any of it lands behind an
    /// executed speculative instant. Mail behind a **live** shard's
    /// clock is a protocol violation (the conservative bound admitted
    /// a miss) — typed, not a panic.
    fn merge_released(&mut self) -> Result<(), CascadeError> {
        if self.inbox.is_empty() {
            return Ok(());
        }
        let head = self.inbox[0].0.at;
        if self.xlog.last().is_some_and(|e| e.0 >= head) {
            if self.segs.is_empty() {
                // Defensively unreachable: a nonempty crossing log
                // always has a covering segment (the straddle rule).
                let err = CascadeError::Speculation {
                    at: head,
                    shard: self.idx,
                    kind: SpeculationFault::RollbackPastOldestSnapshot,
                };
                self.failed = Some(err);
                self.inbox.clear();
                return Err(err);
            }
            self.rollback_to(head);
        } else if self.xlog.is_empty() && head < self.now {
            let err = CascadeError::Speculation {
                at: head,
                shard: self.idx,
                kind: SpeculationFault::CausalityMiss,
            };
            self.failed = Some(err);
            self.inbox.clear();
            return Err(err);
        }
        let tail = self.pcur;
        self.pending.append(&mut self.inbox);
        self.pending[tail..].sort_unstable_by_key(|m| m.0);
        Ok(())
    }

    /// Delivers undelivered pending mail due at `t` through the replay
    /// cursor: entries are kept (commands cloned out) so a rollback
    /// can re-deliver them deterministically.
    fn deliver_due_pending_spec(&mut self, t: SimTime) -> Result<(), CascadeError> {
        if self.failed.is_some() {
            return Ok(());
        }
        let end = self.pcur
            + self.pending[self.pcur..]
                .iter()
                .take_while(|m| m.0.at <= t)
                .count();
        if end == self.pcur {
            return Ok(());
        }
        debug_assert!(self.wave.is_empty() && self.out_buf.is_empty());
        self.stats.mailbox_recv += (end - self.pcur) as u64;
        self.touched.clear();
        for i in self.pcur..end {
            let (dst, cmd) = {
                let m = &self.pending[i];
                (m.1 .0, m.1 .1.clone())
            };
            let (os, ol) = self.owner[dst.0];
            debug_assert_eq!(os, self.idx, "mail delivered to the wrong shard");
            let ol = ol as usize;
            if self.log_active {
                self.save_node_pre(ol);
            }
            self.events += 1;
            self.nodes[ol].handle(t, cmd, &mut self.out_buf);
            self.touched.push(ol);
            for e in self.out_buf.drain(..) {
                self.wave.push((dst, e));
            }
        }
        self.pcur = end;
        let result = self.cascade(t, Cross::Stage);
        self.reschedule_touched();
        result
    }

    /// The optimistic window body: merges released mail (rolling back
    /// on a straggler), then runs every local instant strictly before
    /// `w_end`. Instants at or past `spec_begin` — and, once any
    /// segment exists, *every* instant (a rollback may land inside the
    /// window's committed prefix) — execute with pre-image logging.
    fn run_opt_window(&mut self, w_end: SimTime) {
        if self.failed.is_some() {
            return;
        }
        if self.merge_released().is_err() {
            return;
        }
        loop {
            let next =
                crate::engine::earliest([self.peek(), self.pending.get(self.pcur).map(|m| m.0.at)]);
            let Some(t) = next else { break };
            if t >= w_end {
                break;
            }
            if t < self.now {
                let err = CascadeError::Speculation {
                    at: t,
                    shard: self.idx,
                    kind: SpeculationFault::CausalityMiss,
                };
                self.failed = Some(err);
                return;
            }
            let logging = !self.segs.is_empty() || t >= self.spec_begin;
            if logging {
                if self.segs.last().is_none_or(|s| s.events_in >= self.cadence) {
                    self.open_segment(t);
                }
                if self.xlog.last().is_none_or(|e| e.0 < t) {
                    self.xlog.push((t, self.peek_sync()));
                }
            }
            self.log_active = logging;
            let events_before = self.events;
            self.now = t;
            if self.heap.peek().is_some_and(|(at, _)| at == t) {
                self.pop_due(t);
                self.touched.clear();
                self.touched.extend_from_slice(&self.due);
                debug_assert!(self.wave.is_empty() && self.out_buf.is_empty());
                for i in 0..self.due.len() {
                    let l = self.due[i];
                    if logging {
                        self.save_node_pre(l);
                    }
                    self.events += 1;
                    self.nodes[l].advance(t, &mut self.out_buf);
                    for e in self.out_buf.drain(..) {
                        self.wave.push((self.global_ids[l], e));
                    }
                }
                let result = self.cascade(t, Cross::Stage);
                self.reschedule_touched();
                if result.is_err() {
                    self.log_active = false;
                    return;
                }
            }
            if self.deliver_due_pending_spec(t).is_err() {
                self.log_active = false;
                return;
            }
            self.log_active = false;
            if logging {
                let delta = self.events - events_before;
                let seg = self.segs.last_mut().expect("segment open");
                seg.events_in += delta;
            }
        }
    }

    /// Barrier preparation for a sync instant at `t`: merge released
    /// mail, roll back any speculation at or past `t`, replay the
    /// committed region below it (re-emissions are below the released
    /// floor and dropped as duplicates), then drop the speculative
    /// apparatus — the conservative sync-instant machinery runs on the
    /// resulting live state unchanged.
    fn materialize_at(&mut self, t: SimTime) {
        if self.failed.is_some() {
            return;
        }
        if self.merge_released().is_err() {
            return;
        }
        if self.xlog.last().is_some_and(|e| e.0 >= t) {
            if self.segs.is_empty() {
                let err = CascadeError::Speculation {
                    at: t,
                    shard: self.idx,
                    kind: SpeculationFault::RollbackPastOldestSnapshot,
                };
                self.failed = Some(err);
                return;
            }
            self.rollback_to(t);
        }
        // Replay unconditionally: a rollback that lands on the oldest
        // segment empties `segs`, but the committed region below `t`
        // still has to re-execute before the sync instant delivers
        // mail at `t`. For a shard already at `t` this is a no-op.
        self.run_opt_window(t);
        if self.failed.is_some() {
            return;
        }
        self.xlog.clear();
        self.go_live();
    }
}

/// The adaptive-mode window bounds, as a standalone function so the
/// property tests can drive it over enumerated inputs.
///
/// Inputs are per-shard published state at one coordinator iteration:
/// `t[k]` is shard `k`'s earliest actionable instant (heap head or
/// pending-mail head), `b[k]` its earliest sync-class deadline, and
/// `influence[o * n + k]` the lookahead of the cut edge `o → k` (`None`
/// when shard `o` cannot send mail to shard `k`).
///
/// The earliest instant shard `o` can *influence* shard `k` over an
/// edge is `M(o→k) = min(b[o], A[o] + la(o→k))`: a sync node firing on
/// its own deadline can emit at `b[o]`, and any consequence of a
/// command entering a sync node at or after `A[o]` emerges no earlier
/// than `A[o] + la` (the lookahead contract). `A[o]` — the earliest
/// instant shard `o` can act at all — must account for *transitive*
/// wake-ups (an idle middle shard can receive mail and relay it), so it
/// is the greatest fixpoint of
///
/// ```text
/// A[k] = min(t[k], min over edges o→k of M(o→k))
/// ```
///
/// computed by Bellman–Ford relaxation (at most `n` rounds; bounds only
/// ever decrease and are bounded below by `T`). The window bound is
/// then `E[k] = min(run_end, min over edges o→k of M(o→k))`: shard `k`
/// may run every instant strictly before the earliest moment any other
/// shard could possibly affect it.
///
/// Two provable orderings anchor the property tests: `E[k]` never
/// exceeds the per-edge safety bound `min(b[o], t[o] + la(o→k))` of any
/// single incoming edge (since `A[o] <= t[o]`), and `E[k]` is at least
/// the fixed-window bound `min(run_end, B_min, T + min incoming la)`
/// (since every `A[o] >= T` and `b[o] >= B_min`).
pub(crate) fn adaptive_bounds(
    t: &[Option<SimTime>],
    b: &[Option<SimTime>],
    influence: &[Option<Dur>],
    run_end: SimTime,
    a_buf: &mut Vec<Option<SimTime>>,
    e_buf: &mut Vec<SimTime>,
) {
    let n = t.len();
    debug_assert_eq!(b.len(), n);
    debug_assert_eq!(influence.len(), n * n);
    a_buf.clear();
    a_buf.extend_from_slice(t);
    for _ in 0..n {
        let mut changed = false;
        for k in 0..n {
            for o in 0..n {
                if o == k {
                    continue;
                }
                let Some(la) = influence[o * n + k] else {
                    continue;
                };
                let m = crate::engine::earliest([b[o], a_buf[o].map(|a| a.saturating_add(la))]);
                if let Some(m) = m {
                    if a_buf[k].is_none_or(|a| m < a) {
                        a_buf[k] = Some(m);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    e_buf.clear();
    for k in 0..n {
        let mut e = run_end;
        for o in 0..n {
            if o == k {
                continue;
            }
            let Some(la) = influence[o * n + k] else {
                continue;
            };
            let m = crate::engine::earliest([b[o], a_buf[o].map(|a| a.saturating_add(la))]);
            if let Some(m) = m {
                e = e.min(m);
            }
        }
        e_buf.push(e);
    }
}

/// The conservative parallel scheduler. See the module docs.
///
/// Construction mirrors [`crate::bus::Harness`], except nodes declare
/// their shard (and whether they are sync-class) at registration and
/// each shard gets its own router instance; router state is merged for
/// telemetry through [`MergeTelemetry`].
pub struct ShardedHarness<C: Component, R: Router<C>> {
    shards: Vec<Option<ShardState<C, R>>>,
    /// Global registration-order labels (telemetry namespaces).
    labels: Vec<String>,
    /// Global node id → (shard, local index).
    owner_map: Vec<(u32, u32)>,
    sealed: bool,
    has_sync: bool,
    lookahead: Dur,
    /// Optional per-shard refinement of `lookahead`: shard `k`'s window
    /// is capped by `shard_lookahead[k]` instead of the global minimum.
    /// `None` for a shard means no cut edge touches it — its window is
    /// bounded only by the sync horizon `B` and the run end.
    shard_lookahead: Option<Vec<Option<Dur>>>,
    /// Synchronization protocol (adaptive by default; fixed windows as
    /// the ablation baseline).
    mode: WindowMode,
    /// Flattened `n × n` influence matrix for adaptive mode:
    /// `influence[o * n + k]` is the tightest cut-edge lookahead over
    /// which shard `o` can mail shard `k`, `None` when it cannot.
    /// Derived generically at seal when the topology layer installs
    /// nothing explicit.
    influence: Option<Vec<Option<Dur>>>,
    /// Optional cap on adaptive window length past the global minimum
    /// `T`. An uninfluenced shard's window is otherwise bounded only by
    /// the run end, so its outbox (and the receiver's pending queue)
    /// would grow with the horizon; the cap trades a few extra barriers
    /// for bounded mailbox memory. `None` (default) leaves windows
    /// unbounded.
    max_window_span: Option<Dur>,
    threads: usize,
    /// Execution discipline (conservative by default; optimistic runs
    /// the Time-Warp-style speculate/rollback coordinator).
    exec: ExecMode,
    /// Events between speculative snapshots (optimistic mode).
    snapshot_cadence: u64,
    /// How far past its conservative bound a shard may speculate per
    /// window; defaults to 8× the lookahead when unset.
    spec_span: Option<Dur>,
    /// GVT reduction rounds run by the optimistic coordinator.
    gvt_rounds: u64,
    /// Per-shard committed frontier (monotone): instants strictly
    /// below it are globally committed; staged mail below it has been
    /// released.
    opt_frontier: Vec<SimTime>,
    now: SimTime,
    failed: Option<CascadeError>,
    telemetry: Registry,
    windows: u64,
    sync_instants: u64,
    mail_rounds: u64,
    /// Per-destination merge scratch for mailbox exchange rounds.
    merge_buf: Vec<Vec<Mail<C::Cmd>>>,
    /// Dispatch scratch: indices of shards participating in a round.
    active: Vec<usize>,
    // Adaptive-coordinator scratch (cleared and refilled per iteration,
    // capacity retained — the sharded path is also alloc-free in steady
    // state).
    t_buf: Vec<Option<SimTime>>,
    b_buf: Vec<Option<SimTime>>,
    a_buf: Vec<Option<SimTime>>,
    e_buf: Vec<SimTime>,
}

impl<C, R> ShardedHarness<C, R>
where
    C: Component + Persist + Send + 'static,
    C::Cmd: Clone + Send + 'static,
    C::Out: Send + 'static,
    R: Router<C> + Rollback + Send + 'static,
{
    /// Creates a harness with one shard per router in `routers`.
    /// `lookahead` is the conservative window bound `L` (must be
    /// positive if any sync-class node is registered); `cascade_limit`
    /// bounds same-instant cascades exactly as in the single-threaded
    /// harness (and also bounds mailbox exchange rounds per instant).
    pub fn new(routers: Vec<R>, cascade_limit: u32, lookahead: Dur) -> Self {
        assert!(!routers.is_empty(), "at least one shard required");
        assert!(cascade_limit > 0, "cascade limit must be positive");
        let n = routers.len();
        ShardedHarness {
            shards: routers
                .into_iter()
                .enumerate()
                .map(|(k, r)| Some(ShardState::new(k as u32, r, cascade_limit, n)))
                .collect(),
            labels: Vec::new(),
            owner_map: Vec::new(),
            sealed: false,
            has_sync: false,
            lookahead,
            shard_lookahead: None,
            mode: WindowMode::default(),
            influence: None,
            max_window_span: None,
            threads: crate::sweep::default_threads(n),
            exec: ExecMode::default(),
            snapshot_cadence: 256,
            spec_span: None,
            gvt_rounds: 0,
            opt_frontier: Vec::new(),
            now: SimTime::ZERO,
            failed: None,
            telemetry: Registry::new(),
            windows: 0,
            sync_instants: 0,
            mail_rounds: 0,
            merge_buf: (0..n).map(|_| Vec::new()).collect(),
            active: Vec::new(),
            t_buf: Vec::new(),
            b_buf: Vec::new(),
            a_buf: Vec::new(),
            e_buf: Vec::new(),
        }
    }

    /// Like [`ShardedHarness::new`] with [`DEFAULT_CASCADE_LIMIT`].
    pub fn with_default_limit(routers: Vec<R>, lookahead: Dur) -> Self {
        ShardedHarness::new(routers, DEFAULT_CASCADE_LIMIT, lookahead)
    }

    /// Registers `node` on `shard` under a dotted telemetry namespace.
    /// Global [`NodeId`]s are assigned densely in registration order
    /// across all shards — identical numbering to registering the same
    /// sequence into a single-threaded harness. `sync` marks the node
    /// sync-class (it may emit cross-shard commands; its deadlines
    /// bound the conservative windows).
    pub fn add_node_labeled(
        &mut self,
        node: C,
        label: impl Into<String>,
        shard: usize,
        sync: bool,
    ) -> NodeId {
        assert!(!self.sealed, "cannot add nodes after the first run");
        let id = NodeId(self.owner_map.len());
        let s = self.shards[shard].as_mut().expect("shard present");
        let local = s.add_node(node, id, sync);
        self.owner_map.push((shard as u32, local));
        self.labels.push(label.into());
        self.has_sync |= sync;
        id
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total registered nodes.
    pub fn len(&self) -> usize {
        self.owner_map.len()
    }

    /// True when no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.owner_map.is_empty()
    }

    /// Current simulation time (the run horizon after a completed run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Component activations serviced so far, summed over shards. By
    /// construction equal to the single-threaded count for the same
    /// simulation.
    pub fn events(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.as_ref().expect("shard present").events)
            .sum()
    }

    /// The error that poisoned this harness, if any shard's cascade
    /// overflowed.
    pub fn failure(&self) -> Option<CascadeError> {
        self.failed
    }

    /// Installs per-shard window bounds derived from the cut edges
    /// incident to each shard: shard `k` may run `lookahead[k]` past
    /// the window base instead of the one global minimum, so shards far
    /// from the tightest link run wider windows. `None` for a shard
    /// means no cut edge touches it (no bound beyond the sync horizon).
    ///
    /// Soundness: a frame handed to a cut bridge `i` at or after the
    /// window base `T` cannot re-emerge before `T + lookahead_i`, and
    /// every shard holding one of that bridge's port rings has
    /// `lookahead[k] <= lookahead_i`, so all of them stop before any
    /// such effect — the per-edge bound never admits a causality miss
    /// the global minimum would have caught.
    pub fn set_shard_lookaheads(&mut self, lookahead: Vec<Option<Dur>>) {
        assert!(!self.sealed, "cannot change lookahead after the first run");
        assert_eq!(
            lookahead.len(),
            self.shards.len(),
            "one lookahead entry per shard"
        );
        self.shard_lookahead = Some(lookahead);
    }

    /// Selects the synchronization protocol. Both modes are
    /// bit-identical; see [`WindowMode`].
    pub fn set_window_mode(&mut self, mode: WindowMode) {
        assert!(
            !self.sealed,
            "cannot change window mode after the first run"
        );
        self.mode = mode;
    }

    /// The synchronization protocol this harness runs.
    pub fn window_mode(&self) -> WindowMode {
        self.mode
    }

    /// Selects the execution discipline. Optimistic execution is
    /// bit-identical to both conservative modes (the parity tests pin
    /// it); it trades snapshot/rollback work for speculation past the
    /// conservative bound.
    pub fn set_exec_mode(&mut self, exec: ExecMode) {
        assert!(!self.sealed, "cannot change exec mode after the first run");
        self.exec = exec;
    }

    /// The execution discipline this harness runs.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec
    }

    /// Events a shard executes between speculative snapshots
    /// (optimistic mode). A smaller cadence makes rollbacks cheaper
    /// and snapshots dearer; `cadence` must be positive.
    pub fn set_snapshot_cadence(&mut self, cadence: u64) {
        assert!(cadence > 0, "snapshot cadence must be positive");
        self.snapshot_cadence = cadence;
    }

    /// How far past its conservative bound each shard may speculate
    /// per window. Defaults to 8× the lookahead. Results are
    /// span-invariant (parity holds regardless); the span only bounds
    /// how much state can need rolling back at once.
    pub fn set_speculation_span(&mut self, span: Dur) {
        assert!(span > Dur::ZERO, "a zero span disables speculation");
        self.spec_span = Some(span);
    }

    /// Caps every adaptive window at `span` past the global minimum
    /// instant `T`. Results are protocol-invariant (the parity tests
    /// hold both modes to bit-identity regardless), but without a cap
    /// an *uninfluenced* shard may run clear to the horizon in one
    /// window, growing its outbox — and the receiving shard's pending
    /// queue — linearly with the run length. Long-running callers that
    /// care about bounded mailbox memory (e.g. the zero-allocation
    /// steady-state test) install a span; `span` must be positive.
    pub fn set_max_window_span(&mut self, span: Dur) {
        assert!(span > Dur::ZERO, "a zero span would stall every window");
        self.max_window_span = Some(span);
    }

    /// Installs the per-edge influence matrix for adaptive mode:
    /// `lookahead[o][k]` is the tightest cut-edge lookahead over which
    /// shard `o` can mail shard `k`, `None` when no such edge exists.
    /// The topology layer derives this from the sync bridges' actual
    /// port-ring placement; when nothing is installed, seal derives a
    /// conservative fallback from the per-shard lookaheads (every shard
    /// with sync-class nodes influences every other shard).
    ///
    /// Soundness requirement on the caller: mail from shard `o` to
    /// shard `k` must only ever emerge from a sync node whose lookahead
    /// is at least `lookahead[o][k]`.
    pub fn set_influence_lookaheads(&mut self, lookahead: Vec<Vec<Option<Dur>>>) {
        assert!(!self.sealed, "cannot change influence after the first run");
        let n = self.shards.len();
        assert_eq!(lookahead.len(), n, "one influence row per shard");
        let mut flat = Vec::with_capacity(n * n);
        for (o, row) in lookahead.iter().enumerate() {
            assert_eq!(
                row.len(),
                n,
                "influence row {o} must have one entry per shard"
            );
            for (k, la) in row.iter().enumerate() {
                if let Some(d) = la {
                    assert!(
                        o != k,
                        "influence matrix diagonal must be None (a shard cannot mail itself)"
                    );
                    assert!(
                        *d > Dur::ZERO,
                        "influence edge {o}→{k}: a zero lookahead would stall the window"
                    );
                }
                flat.push(*la);
            }
        }
        self.influence = Some(flat);
    }

    /// Caps how many pool workers a dispatch invites (the coordinator
    /// always participates). Defaults to the hardware parallelism
    /// capped at the shard count; at 1 every window runs inline on the
    /// caller, which measures pure protocol overhead (the schedule —
    /// and therefore every result — is identical at any thread count).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Conservative windows run so far, across `run_until` calls (the
    /// `sched.windows` execution counter).
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// The same-instant cascade step limit.
    pub fn cascade_limit(&self) -> u32 {
        self.shards[0].as_ref().expect("shard present").limit
    }

    /// Dismantles the harness into its nodes, in global registration
    /// order, each with its telemetry label — the hand-over to a
    /// single-threaded [`crate::bus::Harness`], which registers them in
    /// this order and so assigns the same [`NodeId`]s. Routers, clocks
    /// and telemetry are dropped: persist them first (the
    /// [`ShardedHarness::persist_state`] stream restores into the new
    /// harness). Call at a sync-instant boundary. The harness is left
    /// without shards, so any later use of it panics; it only takes
    /// `&mut self` so an owner can hand over in place.
    pub fn take_nodes(&mut self) -> Vec<(C, String)> {
        let mut shards: Vec<std::vec::IntoIter<C>> = self
            .shards
            .iter_mut()
            .map(|s| s.take().expect("shard present").nodes.into_iter())
            .collect();
        // Each shard holds its nodes in global order, so walking the
        // owner map takes them back out in sequence.
        self.owner_map
            .iter()
            .zip(std::mem::take(&mut self.labels))
            .map(|(&(s, _), label)| (shards[s as usize].next().expect("node present"), label))
            .collect()
    }

    /// Execution counters for shard `k`.
    pub fn shard_stats(&self, k: usize) -> ShardStats {
        let s = self.shards[k].as_ref().expect("shard present");
        let mut stats = s.stats;
        stats.events = s.events;
        stats
    }

    /// Shared access to shard `k`'s router.
    pub fn shard_router(&self, k: usize) -> &R {
        &self.shards[k].as_ref().expect("shard present").router
    }

    /// Mutable access to shard `k`'s router (checkpoint restoration
    /// distributes decoded router state across the shard routers).
    pub fn shard_router_mut(&mut self, k: usize) -> &mut R {
        &mut self.shards[k].as_mut().expect("shard present").router
    }

    /// The shard that owns `id`.
    pub fn shard_of(&self, id: NodeId) -> usize {
        self.owner_map[id.0].0 as usize
    }

    /// Shared access to a node by its global id.
    pub fn node(&self, id: NodeId) -> &C {
        let (s, l) = self.owner_map[id.0];
        &self.shards[s as usize]
            .as_ref()
            .expect("shard present")
            .nodes[l as usize]
    }

    /// Mutable access to a node. The node is conservatively rescheduled
    /// before the next step, as in the single-threaded harness.
    pub fn node_mut(&mut self, id: NodeId) -> &mut C {
        let (s, l) = self.owner_map[id.0];
        let shard = self.shards[s as usize].as_mut().expect("shard present");
        shard.dirty.push(l as usize);
        &mut shard.nodes[l as usize]
    }

    /// Distributes the final owner map to the shards; registration is
    /// closed afterwards.
    fn seal(&mut self) {
        if self.sealed {
            return;
        }
        if self.has_sync {
            assert!(
                self.lookahead > Dur::ZERO,
                "sync-class nodes require a positive lookahead"
            );
            if let Some(per_shard) = &self.shard_lookahead {
                for (k, la) in per_shard.iter().enumerate() {
                    if let Some(d) = la {
                        assert!(
                            *d > Dur::ZERO,
                            "shard {k}: a zero per-shard lookahead would stall the window"
                        );
                    }
                }
            }
        }
        let owner = Arc::new(self.owner_map.clone());
        for s in &mut self.shards {
            s.as_mut().expect("shard present").owner = Arc::clone(&owner);
        }
        if (self.mode == WindowMode::Adaptive || self.exec == ExecMode::Optimistic)
            && self.influence.is_none()
        {
            // Generic fallback influence matrix: every shard with at
            // least one sync-class node can mail every other shard. The
            // edge lookahead is the larger of the two endpoint shards'
            // cut-edge minima (sound: a real bridge between them touches
            // both shards, so its lookahead is at least that max), the
            // global lookahead when no per-shard bounds are installed.
            let n = self.shards.len();
            let mut flat = vec![None; n * n];
            for o in 0..n {
                if !self.shards[o]
                    .as_ref()
                    .expect("shard present")
                    .has_sync_nodes()
                {
                    continue;
                }
                for k in 0..n {
                    if o == k {
                        continue;
                    }
                    flat[o * n + k] = match &self.shard_lookahead {
                        Some(v) => match (v[o], v[k]) {
                            (Some(a), Some(b)) => Some(a.max(b)),
                            // A shard no cut edge touches can neither
                            // send nor receive cross-shard mail.
                            _ => None,
                        },
                        None => Some(self.lookahead),
                    };
                }
            }
            self.influence = Some(flat);
        }
        self.sealed = true;
    }

    /// Runs the indices in `self.active` through `f`, inline when only
    /// one shard participates, on the sweep pool otherwise. Shard
    /// states move to the workers and come back in place.
    fn dispatch<F>(&mut self, f: F)
    where
        F: Fn(&mut ShardState<C, R>) + Send + Sync + 'static,
    {
        if self.active.len() == 1 || self.threads == 1 {
            // Inline sequential path: no worker handoff, no state
            // collection — a single-threaded sharded run stays
            // allocation-free in steady state.
            for i in 0..self.active.len() {
                let k = self.active[i];
                f(self.shards[k].as_mut().expect("shard present"));
            }
            return;
        }
        let states: Vec<(usize, ShardState<C, R>)> = self
            .active
            .iter()
            .map(|&k| (k, self.shards[k].take().expect("shard present")))
            .collect();
        let threads = self.threads;
        let done = parallel_map(states, threads, move |(k, mut s)| {
            f(&mut s);
            (k, s)
        });
        for (k, s) in done {
            self.shards[k] = Some(s);
        }
    }

    /// Adopts the deterministically-first shard failure (by failing
    /// instant, then node) as the harness failure, leaving the same
    /// telemetry trail as the single-threaded harness.
    fn check_failures(&mut self) -> Result<(), CascadeError>
    where
        R: MergeTelemetry,
    {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let mut first: Option<CascadeError> = None;
        for s in &self.shards {
            if let Some(e) = s.as_ref().expect("shard present").failed {
                first = Some(match first {
                    Some(f) if (f.at(), f.node()) <= (e.at(), e.node()) => f,
                    _ => e,
                });
            }
        }
        if let Some(err) = first {
            self.failed = Some(err);
            self.telemetry
                .event(err.at(), "sim.cascade.overflow", err.event_detail());
            self.snapshot_phase("cascade-failure");
            return Err(err);
        }
        Ok(())
    }

    /// Runs until no node has a deadline at or before `horizon`, then
    /// leaves the clock at `horizon`. Bit-identical to
    /// [`crate::bus::Harness::try_run_until`] over the same node set,
    /// faster in wall clock when the partition decouples the shards.
    pub fn try_run_until(&mut self, horizon: SimTime) -> Result<(), CascadeError>
    where
        R: MergeTelemetry,
    {
        self.run_to(horizon, None).map(|_| ())
    }

    /// Like [`ShardedHarness::try_run_until`], but in adaptive
    /// conservative mode the run stops early once the window counter
    /// ([`ShardedHarness::windows`]) reaches `windows`: it then finishes
    /// every instant up to the latest shard clock `c` and stops there,
    /// with the harness clock at `c` and no mail in flight — exactly the
    /// state `try_run_until(c)` leaves, so a checkpoint (or a hand-over
    /// to the single-threaded harness) may be taken. Other modes run to
    /// `horizon`. Returns the instant reached: `horizon`, or the cut.
    pub fn try_run_until_windows(
        &mut self,
        horizon: SimTime,
        windows: u64,
    ) -> Result<SimTime, CascadeError>
    where
        R: MergeTelemetry,
    {
        self.run_to(horizon, Some(windows))
    }

    /// Shared body of the two `try_run_until` flavours; returns the
    /// instant the run reached.
    fn run_to(&mut self, horizon: SimTime, stop: Option<u64>) -> Result<SimTime, CascadeError>
    where
        R: MergeTelemetry,
    {
        if let Some(e) = self.failed {
            return Err(e);
        }
        self.seal();
        // One window past the horizon is enough for every shard: the
        // window end is exclusive, so `horizon + 1 ns` makes deadlines
        // at exactly `horizon` runnable.
        let run_end = horizon.saturating_add(Dur::from_ns(1));
        let horizon = match (self.exec, self.mode) {
            (ExecMode::Optimistic, _) => self.run_optimistic(horizon, run_end).map(|()| horizon)?,
            (_, WindowMode::FixedLookahead) => {
                self.run_fixed(horizon, run_end).map(|()| horizon)?
            }
            (_, WindowMode::Adaptive) => self.run_adaptive(horizon, run_end, stop)?,
        };
        for s in &mut self.shards {
            let s = s.as_mut().expect("shard present");
            if s.now < horizon {
                s.now = horizon;
            }
        }
        if self.now < horizon {
            self.now = horizon;
        }
        Ok(horizon)
    }

    /// The fixed-lookahead coordinator loop: the classic bounded-window
    /// protocol, unchanged — the ablation baseline adaptive mode is
    /// parity-tested against.
    fn run_fixed(&mut self, horizon: SimTime, run_end: SimTime) -> Result<(), CascadeError>
    where
        R: MergeTelemetry,
    {
        loop {
            // T: earliest deadline anywhere (after flushing node_mut
            // reschedules); B: earliest sync-class deadline.
            let mut t_min: Option<SimTime> = None;
            let mut b_min: Option<SimTime> = None;
            for s in &mut self.shards {
                let s = s.as_mut().expect("shard present");
                s.flush_dirty();
                t_min = crate::engine::earliest([t_min, s.peek()]);
                b_min = crate::engine::earliest([b_min, s.peek_sync()]);
            }
            let Some(t) = t_min else { break };
            if t > horizon {
                break;
            }
            if b_min == Some(t) {
                self.sync_instants += 1;
                self.run_sync_instant(t)?;
            } else {
                // Lookahead-independent bound: run end and sync horizon
                // `B`; each shard then caps it with its own lookahead.
                let mut base = run_end;
                if let Some(b) = b_min {
                    base = base.min(b);
                }
                self.windows += 1;
                self.run_parallel_window(t, base)?;
            }
        }
        Ok(())
    }

    /// The adaptive coordinator loop. Per iteration: flush every outbox
    /// into the destination shards' sorted pending queues, publish each
    /// shard's earliest actionable instant `t[k]` and sync deadline
    /// `b[k]`, compute per-shard window bounds through the
    /// [`adaptive_bounds`] influence fixpoint, and dispatch every shard
    /// with work strictly inside its bound. When no shard can make
    /// progress (every bound collapses onto `T`), fall back to one
    /// global sync instant at `T` — the fixed protocol's exchange
    /// machinery, which always advances. A run of consecutive
    /// iterations stuck at one instant beyond the cascade limit is the
    /// cross-shard livelock (zero-lookahead mail ping-pong) and poisons
    /// the harness exactly like a cascade overflow.
    ///
    /// With `stop`, once the window counter reaches it the horizon is
    /// pulled in to the latest shard clock (see
    /// [`ShardedHarness::try_run_until_windows`]); returns the horizon
    /// the run ended at.
    fn run_adaptive(
        &mut self,
        mut horizon: SimTime,
        mut run_end: SimTime,
        mut stop: Option<u64>,
    ) -> Result<SimTime, CascadeError>
    where
        R: MergeTelemetry,
    {
        let n = self.shards.len();
        let limit = u64::from(self.shards[0].as_ref().expect("shard present").limit);
        let mut streak_at: Option<SimTime> = None;
        let mut streak = 0u64;
        loop {
            // Flush in-flight mail: gather per-destination (already
            // per-(src,dst) batched in the outboxes), then append and
            // re-sort each destination's pending queue. Keys are unique,
            // so the unstable sort is deterministic.
            let mut moved = false;
            for src in 0..n {
                let s = self.shards[src].as_mut().expect("shard present");
                for (dst, out) in s.outbox.iter_mut().enumerate() {
                    if !out.is_empty() {
                        moved = true;
                        self.merge_buf[dst].append(out);
                    }
                }
            }
            if moved {
                self.mail_rounds += 1;
                for dst in 0..n {
                    if self.merge_buf[dst].is_empty() {
                        continue;
                    }
                    let s = self.shards[dst].as_mut().expect("shard present");
                    s.pending.append(&mut self.merge_buf[dst]);
                    s.pending.sort_unstable_by_key(|m| m.0);
                }
            }
            // Publish per-shard state.
            self.t_buf.clear();
            self.b_buf.clear();
            let mut t_min: Option<SimTime> = None;
            for k in 0..n {
                let s = self.shards[k].as_mut().expect("shard present");
                s.flush_dirty();
                let tk = crate::engine::earliest([s.peek(), s.peek_pending()]);
                t_min = crate::engine::earliest([t_min, tk]);
                self.t_buf.push(tk);
                self.b_buf.push(s.peek_sync());
            }
            let Some(t) = t_min else { break };
            if t > horizon {
                break;
            }
            // Livelock guard: the global minimum not moving for `limit`
            // consecutive iterations means mail is ping-ponging at one
            // instant without the lookahead ever separating the shards.
            if streak_at == Some(t) {
                streak += 1;
            } else {
                streak_at = Some(t);
                streak = 1;
            }
            if streak > limit {
                let node = self
                    .shards
                    .iter()
                    .filter_map(|s| {
                        s.as_ref()
                            .expect("shard present")
                            .pending
                            .first()
                            .map(|m| m.1 .0)
                    })
                    .next()
                    .or_else(|| {
                        self.shards.iter().find_map(|s| {
                            let s = s.as_ref().expect("shard present");
                            s.heap.peek().map(|(_, l)| s.global_ids[l])
                        })
                    })
                    .expect("a stuck instant has work somewhere");
                let err = CascadeError::overflow(t, node, streak as u32);
                self.failed = Some(err);
                self.telemetry
                    .event(err.at(), "sim.cascade.overflow", err.event_detail());
                self.snapshot_phase("cascade-failure");
                return Err(err);
            }
            // Window bounds and the active set.
            let influence = self.influence.as_deref().expect("sealed with influence");
            adaptive_bounds(
                &self.t_buf,
                &self.b_buf,
                influence,
                run_end,
                &mut self.a_buf,
                &mut self.e_buf,
            );
            if let Some(span) = self.max_window_span {
                let cap = t.saturating_add(span);
                for e in self.e_buf.iter_mut() {
                    *e = (*e).min(cap);
                }
            }
            self.active.clear();
            for k in 0..n {
                if self.t_buf[k].is_some_and(|tk| tk < self.e_buf[k]) {
                    let s = self.shards[k].as_mut().expect("shard present");
                    s.w_end = self.e_buf[k];
                    self.active.push(k);
                }
            }
            if self.active.is_empty() {
                // Every bound collapsed onto T: the fixed protocol's
                // sync instant always advances past it.
                self.sync_instants += 1;
                self.run_sync_instant(t)?;
                continue;
            }
            self.windows += 1;
            let mut next_active = 0;
            for k in 0..n {
                let s = self.shards[k].as_mut().expect("shard present");
                if next_active < self.active.len() && self.active[next_active] == k {
                    next_active += 1;
                    s.stats.window_advances += 1;
                } else {
                    s.stats.idle_windows += 1;
                }
            }
            self.dispatch(move |s| {
                let w = s.w_end;
                s.run_adaptive_window(w);
            });
            self.check_failures()?;
            if stop.is_some_and(|w| self.windows >= w) {
                stop = None;
                // No shard has executed past the latest shard clock, so
                // finishing every instant up to it leaves a clean cut.
                let cut = self
                    .shards
                    .iter()
                    .map(|s| s.as_ref().expect("shard present").now)
                    .max()
                    .expect("at least one shard");
                if cut < horizon {
                    horizon = cut;
                    run_end = cut.saturating_add(Dur::from_ns(1));
                }
            }
        }
        debug_assert!(
            self.shards.iter().all(|s| {
                let s = s.as_ref().expect("shard present");
                s.pending.is_empty() && s.outbox.iter().all(|o| o.is_empty())
            }),
            "adaptive run ended with mail in flight"
        );
        Ok(horizon)
    }

    /// The optimistic (Time-Warp-style) coordinator loop. Per round:
    ///
    /// 1. **Release** staged mail whose emitting instant is below the
    ///    source shard's committed frontier — exactly the mail a
    ///    conservative run would be flushing this round.
    /// 2. **Promote** every shard to its frontier (one GVT reduction):
    ///    prune crossing logs, fossil-collect dead snapshots, drop
    ///    fully committed shards back to live execution.
    /// 3. **Distribute** released mail into receiver inboxes in
    ///    [`MailKey`] order.
    /// 4. **Publish** each shard's *committed* view — for a
    ///    speculating shard, the state it had at its first
    ///    un-committed instant — so the conservative window bounds
    ///    below are computed from exactly the values a conservative
    ///    coordinator would see.
    /// 5. **Bound** via the same [`adaptive_bounds`] fixpoint, then
    ///    either dispatch speculative windows (each shard runs to its
    ///    conservative bound plus the speculation span, staging
    ///    cross-shard mail and snapshotting at the cadence) or, when
    ///    no committed progress is possible, materialize the affected
    ///    shards at the barrier and run one conservative sync instant.
    /// 6. **Commit** this round's bounds into the frontiers
    ///    (monotone).
    ///
    /// Rollbacks happen inside shard dispatch: released mail landing
    /// behind a shard's speculative clock rewinds it to the newest
    /// snapshot at or before the straggler, and deterministic replay
    /// (total mailbox order, cloned re-deliveries, duplicate-dropped
    /// re-emissions) re-derives the timeline — no anti-messages.
    fn run_optimistic(&mut self, horizon: SimTime, run_end: SimTime) -> Result<(), CascadeError>
    where
        R: MergeTelemetry,
    {
        let n = self.shards.len();
        let limit = u64::from(self.shards[0].as_ref().expect("shard present").limit);
        let span = self
            .spec_span
            .unwrap_or_else(|| Dur::from_ns(self.lookahead.as_ns().saturating_mul(8).max(1)));
        self.opt_frontier.clear();
        self.opt_frontier.resize(n, SimTime::ZERO);
        let cadence = self.snapshot_cadence;
        for s in &mut self.shards {
            s.as_mut().expect("shard present").cadence = cadence;
        }
        let mut streak_at: Option<SimTime> = None;
        let mut streak = 0u64;
        loop {
            // (1) Release committed staged mail (sorted by emission
            // instant within each (src, dst) lane, so the committed
            // prefix is contiguous).
            let mut moved = false;
            for src in 0..n {
                let f = self.opt_frontier[src];
                let s = self.shards[src].as_mut().expect("shard present");
                for (dst, out) in s.spec_outbox.iter_mut().enumerate() {
                    let cut = out.partition_point(|m| m.0.at < f);
                    if cut > 0 {
                        moved = true;
                        self.merge_buf[dst].extend(out.drain(..cut));
                    }
                }
            }
            // (2) One GVT reduction: promote every shard.
            self.gvt_rounds += 1;
            for k in 0..n {
                let f = self.opt_frontier[k];
                self.shards[k].as_mut().expect("shard present").promote(f);
            }
            // (3) Distribute released mail (keys unique → unstable sort
            // is deterministic and allocation-free).
            if moved {
                self.mail_rounds += 1;
                for dst in 0..n {
                    if self.merge_buf[dst].is_empty() {
                        continue;
                    }
                    self.merge_buf[dst].sort_unstable_by_key(|m| m.0);
                    let s = self.shards[dst].as_mut().expect("shard present");
                    debug_assert!(s.inbox.is_empty());
                    std::mem::swap(&mut s.inbox, &mut self.merge_buf[dst]);
                }
            }
            // (4) Publish committed views.
            self.t_buf.clear();
            self.b_buf.clear();
            let mut t_min: Option<SimTime> = None;
            for k in 0..n {
                let s = self.shards[k].as_mut().expect("shard present");
                s.flush_dirty();
                let inbox_head = s.inbox.first().map(|m| m.0.at);
                let (tk, bk) = match s.xlog.first() {
                    // Speculating: the committed view is the state the
                    // shard had just before its first un-committed
                    // instant (undelivered pending mail is provably
                    // later than every executed instant).
                    Some(&(xt, xb)) => (crate::engine::earliest([Some(xt), inbox_head]), xb),
                    None => (
                        crate::engine::earliest([
                            s.peek(),
                            s.pending.get(s.pcur).map(|m| m.0.at),
                            inbox_head,
                        ]),
                        s.peek_sync(),
                    ),
                };
                t_min = crate::engine::earliest([t_min, tk]);
                self.t_buf.push(tk);
                self.b_buf.push(bk);
            }
            // Exit: speculative instants never pass the horizon (the
            // window end is capped at run_end), so t_min beyond it
            // implies every shard is live and drained.
            let Some(t) = t_min else { break };
            if t > horizon {
                break;
            }
            // Livelock guard, identical to the adaptive coordinator.
            if streak_at == Some(t) {
                streak += 1;
            } else {
                streak_at = Some(t);
                streak = 1;
            }
            if streak > limit {
                let node = self
                    .shards
                    .iter()
                    .filter_map(|s| {
                        let s = s.as_ref().expect("shard present");
                        s.pending
                            .get(s.pcur)
                            .or_else(|| s.inbox.first())
                            .map(|m| m.1 .0)
                    })
                    .next()
                    .or_else(|| {
                        self.shards.iter().find_map(|s| {
                            let s = s.as_ref().expect("shard present");
                            s.heap.peek().map(|(_, l)| s.global_ids[l])
                        })
                    })
                    .expect("a stuck instant has work somewhere");
                let err = CascadeError::overflow(t, node, streak as u32);
                self.failed = Some(err);
                self.telemetry
                    .event(err.at(), "sim.cascade.overflow", err.event_detail());
                self.snapshot_phase("cascade-failure");
                return Err(err);
            }
            // (5) Conservative bounds from the committed views, under
            // whichever window protocol this harness runs — the
            // committed frontier must advance exactly as the matching
            // conservative run would, so the optimistic/conservative
            // ablation compares speculation against its own baseline.
            match self.mode {
                WindowMode::Adaptive => {
                    let influence = self.influence.as_deref().expect("sealed with influence");
                    adaptive_bounds(
                        &self.t_buf,
                        &self.b_buf,
                        influence,
                        run_end,
                        &mut self.a_buf,
                        &mut self.e_buf,
                    );
                }
                WindowMode::FixedLookahead => {
                    // Mirror `run_fixed`/`run_parallel_window`: bound at
                    // the sync horizon `B`, then cap each shard with its
                    // own lookahead.
                    let mut base = run_end;
                    for bk in self.b_buf.iter().flatten() {
                        base = base.min(*bk);
                    }
                    self.e_buf.clear();
                    for k in 0..n {
                        let mut e = base;
                        if self.has_sync {
                            match self.shard_lookahead.as_ref().map(|v| v[k]) {
                                Some(Some(la)) => e = e.min(t.saturating_add(la)),
                                Some(None) => {}
                                None => e = e.min(t.saturating_add(self.lookahead)),
                            }
                        }
                        self.e_buf.push(e);
                    }
                }
            }
            if let Some(cap) = self.max_window_span {
                let cap = t.saturating_add(cap);
                for e in self.e_buf.iter_mut() {
                    *e = (*e).min(cap);
                }
            }
            let any_progress = (0..n).any(|k| self.t_buf[k].is_some_and(|tk| tk < self.e_buf[k]));
            if !any_progress {
                // Barrier: materialize every shard the instant can
                // touch (mail never arrives below a shard's committed
                // frontier, so shards whose frontier lies beyond `t`
                // keep their speculation through the sync instant).
                for k in 0..n {
                    if self.opt_frontier[k] > t {
                        continue;
                    }
                    let s = self.shards[k].as_mut().expect("shard present");
                    if !s.inbox.is_empty() || !s.segs.is_empty() {
                        s.materialize_at(t);
                    }
                }
                self.check_failures()?;
                self.sync_instants += 1;
                self.run_sync_instant(t)?;
                for k in 0..n {
                    if self.opt_frontier[k] < t {
                        self.opt_frontier[k] = t;
                    }
                }
                continue;
            }
            // Dispatch: a shard participates when it has released mail
            // to merge or any actionable instant inside its
            // speculative window.
            self.active.clear();
            for k in 0..n {
                let spec_end = run_end.min(self.e_buf[k].saturating_add(span));
                let s = self.shards[k].as_mut().expect("shard present");
                let local_next =
                    crate::engine::earliest([s.peek(), s.pending.get(s.pcur).map(|m| m.0.at)]);
                if !s.inbox.is_empty() || local_next.is_some_and(|x| x < spec_end) {
                    s.w_end = spec_end;
                    s.spec_begin = self.e_buf[k];
                    self.active.push(k);
                }
            }
            if !self.active.is_empty() {
                self.windows += 1;
                let mut next_active = 0;
                for k in 0..n {
                    let s = self.shards[k].as_mut().expect("shard present");
                    if next_active < self.active.len() && self.active[next_active] == k {
                        next_active += 1;
                        s.stats.window_advances += 1;
                    } else {
                        s.stats.idle_windows += 1;
                    }
                }
                self.dispatch(move |s| {
                    let w = s.w_end;
                    s.run_opt_window(w);
                });
                self.check_failures()?;
            }
            // (6) This round's conservative bounds are now committed.
            for k in 0..n {
                if self.opt_frontier[k] < self.e_buf[k] {
                    self.opt_frontier[k] = self.e_buf[k];
                }
            }
        }
        debug_assert!(
            self.shards.iter().all(|s| {
                let s = s.as_ref().expect("shard present");
                s.segs.is_empty()
                    && s.xlog.is_empty()
                    && s.pcur == 0
                    && s.pending.is_empty()
                    && s.inbox.is_empty()
                    && s.outbox.iter().all(|o| o.is_empty())
                    && s.spec_outbox.iter().all(|o| o.is_empty())
            }),
            "optimistic run ended with speculative state"
        );
        Ok(())
    }

    /// Like [`ShardedHarness::try_run_until`] but panics on cascade
    /// overflow.
    pub fn run_until(&mut self, horizon: SimTime)
    where
        R: MergeTelemetry,
    {
        if let Err(e) = self.try_run_until(horizon) {
            panic!("{e}");
        }
    }

    /// One conservative window opening at `t`: every shard with work
    /// before its own window end runs independently. `base` is the
    /// lookahead-independent bound (run end, sync horizon `B`); each
    /// shard's end is `base` capped by the lookahead that applies to it
    /// — the per-shard cut-edge minimum when installed, the global
    /// minimum otherwise, nothing when no cut edge touches the shard.
    fn run_parallel_window(&mut self, t: SimTime, base: SimTime) -> Result<(), CascadeError>
    where
        R: MergeTelemetry,
    {
        self.active.clear();
        for (k, s) in self.shards.iter_mut().enumerate() {
            let s = s.as_mut().expect("shard present");
            let mut w_end = base;
            if self.has_sync {
                match self.shard_lookahead.as_ref().map(|v| v[k]) {
                    Some(Some(la)) => w_end = w_end.min(t.saturating_add(la)),
                    Some(None) => {}
                    None => w_end = w_end.min(t.saturating_add(self.lookahead)),
                }
            }
            debug_assert!(w_end > t, "conservative window must make progress");
            s.w_end = w_end;
            match s.peek() {
                Some(d) if d < w_end => {
                    s.stats.window_advances += 1;
                    self.active.push(k);
                }
                _ => s.stats.idle_windows += 1,
            }
        }
        if self.active.is_empty() {
            return Ok(());
        }
        self.dispatch(move |s| {
            let w = s.w_end;
            s.run_window(w);
        });
        self.check_failures()
    }

    /// One sync instant at `t`: due shards advance with cross-shard
    /// emission diverted to mailboxes, then mail is exchanged in
    /// deterministic rounds until none is in flight.
    fn run_sync_instant(&mut self, t: SimTime) -> Result<(), CascadeError>
    where
        R: MergeTelemetry,
    {
        self.active.clear();
        for (k, s) in self.shards.iter().enumerate() {
            let s = s.as_ref().expect("shard present");
            // Pending mail emitted exactly at `t` (adaptive fallback)
            // joins the opening round alongside the due deadlines.
            if s.peek() == Some(t) || s.peek_pending() == Some(t) {
                self.active.push(k);
            }
        }
        if !self.active.is_empty() {
            self.dispatch(move |s| s.run_sync_due(t));
            self.check_failures()?;
        }
        let mut rounds = 0u64;
        loop {
            // Gather every shard's outboxes into per-destination merge
            // buffers and sort each into (time, src_shard, seq) order.
            let mut any = false;
            for s in &mut self.shards {
                let s = s.as_mut().expect("shard present");
                for (dst, out) in s.outbox.iter_mut().enumerate() {
                    if !out.is_empty() {
                        any = true;
                        self.merge_buf[dst].append(out);
                    }
                }
            }
            if !any {
                break;
            }
            rounds += 1;
            self.mail_rounds += 1;
            if rounds > u64::from(self.shards[0].as_ref().expect("shard present").limit) {
                // Mail ping-pong at one instant that never converges is
                // the cross-shard flavor of a cascade livelock.
                let err = CascadeError::overflow(
                    t,
                    self.merge_buf.iter().flatten().next().expect("mail").1 .0,
                    rounds as u32,
                );
                self.failed = Some(err);
                for b in &mut self.merge_buf {
                    b.clear();
                }
                self.telemetry
                    .event(err.at(), "sim.cascade.overflow", err.event_detail());
                self.snapshot_phase("cascade-failure");
                return Err(err);
            }
            self.active.clear();
            for (k, s) in self.shards.iter_mut().enumerate() {
                if self.merge_buf[k].is_empty() {
                    continue;
                }
                merge_mail(&mut self.merge_buf[k]);
                let s = s.as_mut().expect("shard present");
                debug_assert!(s.inbox.is_empty());
                std::mem::swap(&mut s.inbox, &mut self.merge_buf[k]);
                self.active.push(k);
            }
            self.dispatch(move |s| s.deliver_inbox(t));
            self.check_failures()?;
        }
        Ok(())
    }

    /// The run's telemetry registry as last collected.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Rebuilds the metric tree: every node publishes under its
    /// registration label in **global** registration order, the
    /// per-shard routers publish through [`MergeTelemetry`], and the
    /// harness adds the same `sim.*` metrics as the single-threaded
    /// collector — so the serialized tree is byte-identical to
    /// [`crate::bus::Harness::collect_telemetry`] over the same run.
    pub fn collect_telemetry(&mut self) -> &mut Registry
    where
        R: MergeTelemetry,
    {
        self.telemetry.clear_metrics();
        for gid in 0..self.owner_map.len() {
            let (s, l) = self.owner_map[gid];
            let shard = self.shards[s as usize].as_ref().expect("shard present");
            let mut scope = self.telemetry.scope(&self.labels[gid]);
            shard.nodes[l as usize].publish_telemetry(&mut scope);
        }
        let routers: Vec<&R> = self
            .shards
            .iter()
            .map(|s| &s.as_ref().expect("shard present").router)
            .collect();
        R::publish_merged(&routers, &mut self.telemetry);
        let mut sim = self.telemetry.scope("sim");
        sim.gauge("now_ns", self.now.as_ns() as i64);
        sim.counter("nodes", self.owner_map.len() as u64);
        sim.counter("cascade.overflows", u64::from(self.failed.is_some()));
        &mut self.telemetry
    }

    /// Collects the current metric tree and freezes it as a named phase
    /// snapshot.
    pub fn snapshot_phase(&mut self, name: impl Into<String>)
    where
        R: MergeTelemetry,
    {
        self.collect_telemetry();
        self.telemetry.snapshot_phase(name);
    }

    /// Collects and serializes the registry as canonical JSON.
    pub fn telemetry_json(&mut self) -> String
    where
        R: MergeTelemetry,
    {
        self.collect_telemetry();
        self.telemetry.to_json()
    }

    /// Appends the harness's dynamic state in the **same format** as
    /// [`crate::bus::Harness::persist_state`]: clock, total event count,
    /// every node in *global* registration order, telemetry history.
    /// Nothing in the bytes mentions a shard, which is what lets a
    /// snapshot taken here restore into a single-threaded harness or a
    /// sharded one with any shard count.
    ///
    /// Must be called at a sync-instant boundary — after `try_run_until`
    /// returned, when every shard's clock sits at the horizon and no
    /// mail is in flight. Routers are persisted separately by the
    /// topology layer (which knows their concrete type and how to merge
    /// the per-shard parts canonically).
    pub fn persist_state(&self, enc: &mut Enc)
    where
        C: Persist,
    {
        enc.time(self.now);
        enc.u64(self.events());
        enc.seq_len(self.owner_map.len());
        for gid in 0..self.owner_map.len() {
            let (s, l) = self.owner_map[gid];
            let shard = self.shards[s as usize].as_ref().expect("shard present");
            debug_assert!(
                shard.wave.is_empty()
                    && shard.out_buf.is_empty()
                    && shard.inbox.is_empty()
                    && shard.pending.is_empty()
                    && shard.outbox.iter().all(|o| o.is_empty())
                    && shard.segs.is_empty()
                    && shard.xlog.is_empty()
                    && shard.spec_outbox.iter().all(|o| o.is_empty()),
                "checkpoint taken off a sync-instant boundary"
            );
            shard.nodes[l as usize].persist(enc);
        }
        self.telemetry.persist(enc);
    }

    /// Applies state persisted by [`ShardedHarness::persist_state`] (or
    /// by the single-threaded harness — the formats are identical) onto
    /// this freshly rebuilt harness. The node count must match; the
    /// shard count need not. Every node is marked dirty so its shard's
    /// heaps re-key it from the restored deadline, every shard's clock
    /// is set to the checkpoint instant, and the total event count is
    /// assigned to shard 0 (only the sum is observable).
    pub fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError>
    where
        C: Persist,
    {
        if let Some(e) = self.failed {
            return Err(PersistError::mismatch(format!(
                "cannot restore into a poisoned harness: {e}"
            )));
        }
        let now = dec.time()?;
        let events = dec.u64()?;
        let n = dec.seq_len()?;
        if n != self.owner_map.len() {
            return Err(PersistError::mismatch(format!(
                "checkpoint has {n} nodes, rebuilt harness has {}",
                self.owner_map.len()
            )));
        }
        for gid in 0..self.owner_map.len() {
            let (s, l) = self.owner_map[gid];
            let shard = self.shards[s as usize].as_mut().expect("shard present");
            shard.nodes[l as usize].restore(dec)?;
            shard.dirty.push(l as usize);
        }
        self.telemetry.restore(dec)?;
        for (k, s) in self.shards.iter_mut().enumerate() {
            let s = s.as_mut().expect("shard present");
            s.now = now;
            s.events = if k == 0 { events } else { 0 };
        }
        self.now = now;
        Ok(())
    }

    /// [`ShardedHarness::persist_state`] through a bounded chunk
    /// buffer — same bytes, same framing contract as
    /// [`crate::bus::Harness::persist_state_chunked`], so the two
    /// engines' streams are interchangeable.
    pub fn persist_state_chunked(&self, w: &mut ChunkedWriter<'_>) -> Result<(), PersistError>
    where
        C: Persist,
    {
        let enc = w.enc();
        enc.time(self.now);
        enc.u64(self.events());
        enc.seq_len(self.owner_map.len());
        w.flush_chunk()?;
        for gid in 0..self.owner_map.len() {
            let (s, l) = self.owner_map[gid];
            let shard = self.shards[s as usize].as_ref().expect("shard present");
            debug_assert!(
                shard.wave.is_empty()
                    && shard.out_buf.is_empty()
                    && shard.inbox.is_empty()
                    && shard.pending.is_empty()
                    && shard.outbox.iter().all(|o| o.is_empty())
                    && shard.segs.is_empty()
                    && shard.xlog.is_empty()
                    && shard.spec_outbox.iter().all(|o| o.is_empty()),
                "checkpoint taken off a sync-instant boundary"
            );
            shard.nodes[l as usize].persist(w.enc());
            w.unit()?;
        }
        w.flush_chunk()?;
        self.telemetry.persist(w.enc());
        w.flush_chunk()?;
        Ok(())
    }

    /// Applies a stream written by either engine's
    /// `persist_state_chunked` onto this freshly rebuilt harness; see
    /// [`crate::bus::Harness::restore_state_chunked`] for the argument
    /// contract.
    pub fn restore_state_chunked(
        &mut self,
        prefix: &mut Dec<'_>,
        r: &mut ChunkedReader<'_>,
        buf: &mut Vec<u8>,
    ) -> Result<(), PersistError>
    where
        C: Persist,
    {
        if let Some(e) = self.failed {
            return Err(PersistError::mismatch(format!(
                "cannot restore into a poisoned harness: {e}"
            )));
        }
        let now = prefix.time()?;
        let events = prefix.u64()?;
        // Bare u32: the node payloads live in later chunks, so the
        // remaining-bytes bound of `seq_len` would misfire.
        let n = prefix.u32()? as usize;
        if n != self.owner_map.len() {
            return Err(PersistError::mismatch(format!(
                "checkpoint has {n} nodes, rebuilt harness has {}",
                self.owner_map.len()
            )));
        }
        if prefix.remaining() != 0 {
            return Err(PersistError::mismatch(
                "streamed checkpoint prefix chunk does not end at the node-count field",
            ));
        }
        let mut gid = 0;
        while gid < n {
            if !r.next_chunk_into(buf)? {
                return Err(PersistError::UnexpectedEof);
            }
            let mut dec = Dec::new(buf);
            while gid < n && dec.remaining() > 0 {
                let (s, l) = self.owner_map[gid];
                let shard = self.shards[s as usize].as_mut().expect("shard present");
                shard.nodes[l as usize].restore(&mut dec)?;
                shard.dirty.push(l as usize);
                gid += 1;
            }
            dec.finish()?;
        }
        if !r.next_chunk_into(buf)? {
            return Err(PersistError::UnexpectedEof);
        }
        let mut dec = Dec::new(buf);
        self.telemetry.restore(&mut dec)?;
        dec.finish()?;
        for (k, s) in self.shards.iter_mut().enumerate() {
            let s = s.as_mut().expect("shard present");
            s.now = now;
            s.events = if k == 0 { events } else { 0 };
        }
        self.now = now;
        Ok(())
    }

    /// Scheduler-execution counters (windows, sync instants, mailbox
    /// traffic, idle stalls) in a registry of their own, under a
    /// `sched` namespace with per-shard `sched.shard{k}` scopes.
    ///
    /// Deliberately **not** part of [`ShardedHarness::telemetry`]: the
    /// simulation's metric tree is pinned by golden digests and must
    /// not vary with the shard count; these counters exist precisely to
    /// vary with it.
    pub fn exec_telemetry(&self) -> Registry {
        let mut reg = Registry::new();
        let mut sched = reg.scope("sched");
        sched.counter("windows", self.windows);
        sched.counter("sync_instants", self.sync_instants);
        sched.counter("mail_rounds", self.mail_rounds);
        let (mut rollbacks, mut rb_events, mut snap_bytes) = (0u64, 0u64, 0u64);
        for s in &self.shards {
            let s = s.as_ref().expect("shard present");
            rollbacks += s.rollbacks;
            rb_events += s.rolled_back_events;
            snap_bytes += s.snapshot_bytes;
        }
        sched.counter("gvt_rounds", self.gvt_rounds);
        sched.counter("rollbacks", rollbacks);
        sched.counter("events_rolled_back", rb_events);
        sched.counter("snapshot_bytes", snap_bytes);
        for k in 0..self.shards.len() {
            let stats = {
                let s = self.shards[k].as_ref().expect("shard present");
                let mut st = s.stats;
                st.events = s.events;
                st
            };
            let mut shard = sched.scope(&format!("shard{k}"));
            shard.counter("events", stats.events);
            shard.counter("idle_windows", stats.idle_windows);
            shard.counter("mailbox_recv", stats.mailbox_recv);
            shard.counter("mailbox_sent", stats.mailbox_sent);
            shard.counter("window_advances", stats.window_advances);
        }
        reg
    }
}

/// Merging per-shard router state into one telemetry tree.
///
/// The sharded harness gives every shard its own router instance;
/// absorbed state (measurement taps, counters, logs) lands in the
/// router of whichever shard routed it. To publish the same tree a
/// single shared router would have produced, the router type merges
/// its parts — `parts[k]` is shard `k`'s router, in shard order.
///
/// Implementations must reproduce the byte-exact output of
/// [`Router::publish_telemetry`] on an equivalent single-threaded run:
/// the golden-digest tests hold them to it.
pub trait MergeTelemetry {
    /// Publishes the merged view of `parts` into `reg`.
    fn publish_merged(parts: &[&Self], reg: &mut Registry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Harness;
    use crate::telemetry::Value;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    /// Walks every permutation of `0..n` (Heap's algorithm, no RNG) and
    /// hands each to `f` — same enumeration as the heap property tests.
    fn for_each_permutation(n: usize, mut f: impl FnMut(&[usize])) {
        let mut a: Vec<usize> = (0..n).collect();
        let mut c = vec![0usize; n];
        f(&a);
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    a.swap(0, i);
                } else {
                    a.swap(c[i], i);
                }
                f(&a);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn mail_merge_order_is_total_for_all_arrival_orders() {
        // Keys with deliberate collisions on every prefix: equal times
        // across shards, equal (time, shard) pairs with distinct seqs.
        // Whatever order the workers delivered their outboxes in, the
        // merged mailbox must come out in one canonical order.
        let keys = [
            MailKey {
                at: t(50),
                src_shard: 1,
                seq: 2,
            },
            MailKey {
                at: t(20),
                src_shard: 0,
                seq: 7,
            },
            MailKey {
                at: t(20),
                src_shard: 2,
                seq: 1,
            },
            MailKey {
                at: t(20),
                src_shard: 0,
                seq: 3,
            },
            MailKey {
                at: t(50),
                src_shard: 0,
                seq: 9,
            },
            MailKey {
                at: t(10),
                src_shard: 3,
                seq: 4,
            },
        ];
        let mut expected: Vec<(MailKey, usize)> =
            keys.iter().enumerate().map(|(p, &k)| (k, p)).collect();
        expected.sort_by_key(|m| m.0);
        let mut checked = 0u32;
        for_each_permutation(keys.len(), |perm| {
            let mut mail: Vec<(MailKey, usize)> = perm.iter().map(|&p| (keys[p], p)).collect();
            merge_mail(&mut mail);
            assert_eq!(mail, expected, "arrival order {perm:?}");
            checked += 1;
        });
        assert_eq!(checked, 720, "all 6! arrival orders enumerated");
    }

    #[test]
    fn mail_merge_is_stable_for_tied_keys() {
        // Duplicate full keys cannot occur in the engine (seq is unique
        // per source shard) but the merge contract is still pinned:
        // ties keep push order, so the order is well-defined for any
        // input.
        let dup = MailKey {
            at: t(5),
            src_shard: 1,
            seq: 1,
        };
        let early = MailKey {
            at: t(1),
            src_shard: 9,
            seq: 9,
        };
        let mut mail = vec![(dup, "first"), (early, "zero"), (dup, "second")];
        merge_mail(&mut mail);
        assert_eq!(mail, vec![(early, "zero"), (dup, "first"), (dup, "second")]);
    }

    #[test]
    fn adaptive_bounds_stay_inside_the_conservative_envelope() {
        // Enumerates every assignment (permutation of a fixed deadline
        // pool, Heap's algorithm, no RNG) of per-shard earliest-work and
        // sync-deadline instants over two influence shapes, and pins the
        // two orderings the protocol's correctness argument rests on:
        //
        // * safety — the adaptive bound never exceeds the conservative
        //   per-edge bound `min(b[o], t[o] + la)` of ANY direct
        //   influencer `o` (shard `o` could act at `t[o]`, so nothing
        //   it sends can be ruled out past that),
        // * progress — the adaptive bound is never narrower than the
        //   fixed-window bound `min(run_end, B_min, T + la_in)`, so
        //   adaptive mode never erects a barrier fixed mode would not.
        let pool: [Option<SimTime>; 6] = [
            None,
            Some(t(10)),
            Some(t(12)),
            Some(t(25)),
            Some(t(40)),
            Some(t(100)),
        ];
        let run_end = t(1_000);
        // A 3-shard chain (asymmetric lookaheads) and a full mesh with
        // per-edge lookaheads all distinct.
        let chain: Vec<Option<Dur>> = vec![
            None,
            Some(Dur::from_ns(5)),
            None,
            Some(Dur::from_ns(5)),
            None,
            Some(Dur::from_ns(17)),
            None,
            Some(Dur::from_ns(17)),
            None,
        ];
        let mesh: Vec<Option<Dur>> = (0..9)
            .map(|i| {
                let (o, k) = (i / 3, i % 3);
                (o != k).then(|| Dur::from_ns(3 + 2 * o as u64 + k as u64))
            })
            .collect();
        let mut a_buf = Vec::new();
        let mut e_buf = Vec::new();
        let mut checked = 0u32;
        for influence in [&chain, &mesh] {
            for_each_permutation(pool.len(), |perm| {
                let mut tv = [None; 3];
                let mut bv = [None; 3];
                for k in 0..3 {
                    tv[k] = pool[perm[k]];
                    // The sync heap is a subset of the shard's heap, so
                    // a sync deadline can never precede the earliest
                    // local work (and an empty shard has none).
                    bv[k] = match (tv[k], pool[perm[k + 3]]) {
                        (Some(tk), Some(raw)) => Some(raw.max(tk)),
                        _ => None,
                    };
                }
                checked += 1;
                let Some(t_min) = tv.iter().flatten().copied().min() else {
                    return;
                };
                adaptive_bounds(&tv, &bv, influence, run_end, &mut a_buf, &mut e_buf);
                let b_min = bv.iter().flatten().copied().min();
                for k in 0..3 {
                    for o in 0..3 {
                        if o == k {
                            continue;
                        }
                        let Some(la) = influence[o * 3 + k] else {
                            continue;
                        };
                        let direct =
                            crate::engine::earliest([bv[o], tv[o].map(|x| x.saturating_add(la))]);
                        if let Some(direct) = direct {
                            assert!(
                                e_buf[k] <= direct,
                                "safety: E[{k}]={} exceeds direct bound {} of edge {o}→{k} \
                                 (t={tv:?} b={bv:?})",
                                e_buf[k],
                                direct
                            );
                        }
                    }
                    let la_in = (0..3)
                        .filter(|&o| o != k)
                        .filter_map(|o| influence[o * 3 + k])
                        .min();
                    let mut fixed = run_end;
                    if let Some(b) = b_min {
                        fixed = fixed.min(b);
                    }
                    if let Some(la) = la_in {
                        fixed = fixed.min(t_min.saturating_add(la));
                    }
                    assert!(
                        e_buf[k] >= fixed,
                        "progress: E[{k}]={} narrower than fixed bound {} \
                         (t={tv:?} b={bv:?})",
                        e_buf[k],
                        fixed
                    );
                }
            });
        }
        assert_eq!(
            checked,
            2 * 720,
            "all arrangements × both shapes enumerated"
        );
    }

    // ------------------------------------------------------------------
    // A toy two-shard topology exercising windows, sync instants and
    // mailboxes, checked for bit-identical results against the
    // single-threaded harness running the same node set.
    //
    // Node graph: a `Source` on shard 0 fires every `period`, routed as
    // a command into a `Relay` (sync-class, shard 0) that holds each
    // item for `latency` and then emits it; the relay's emissions are
    // routed to a `Counter` on shard 1.
    // ------------------------------------------------------------------

    #[derive(Debug, PartialEq)]
    enum Toy {
        Source {
            next: Option<SimTime>,
            period: Dur,
            remaining: u32,
            fired: u64,
        },
        Relay {
            ready: std::collections::VecDeque<SimTime>,
            latency: Dur,
            forwarded: u64,
        },
        Counter {
            received: u64,
            last: Option<SimTime>,
        },
    }

    impl Component for Toy {
        type Cmd = u32;
        type Out = u32;

        fn next_deadline(&self) -> Option<SimTime> {
            match self {
                Toy::Source { next, .. } => *next,
                Toy::Relay { ready, .. } => ready.front().copied(),
                Toy::Counter { .. } => None,
            }
        }

        fn advance(&mut self, now: SimTime, sink: &mut Vec<u32>) {
            match self {
                Toy::Source {
                    next,
                    period,
                    remaining,
                    fired,
                } => {
                    if *next == Some(now) {
                        *fired += 1;
                        *remaining -= 1;
                        sink.push(0);
                        *next = (*remaining > 0).then(|| now + *period);
                    }
                }
                Toy::Relay {
                    ready, forwarded, ..
                } => {
                    while ready.front().is_some_and(|&r| r <= now) {
                        ready.pop_front();
                        *forwarded += 1;
                        sink.push(1);
                    }
                }
                Toy::Counter { .. } => {}
            }
        }

        fn handle(&mut self, now: SimTime, _cmd: u32, _sink: &mut Vec<u32>) {
            match self {
                Toy::Source { .. } => {}
                Toy::Relay { ready, latency, .. } => ready.push_back(now + *latency),
                Toy::Counter { received, last } => {
                    *received += 1;
                    *last = Some(now);
                }
            }
        }

        fn publish_telemetry(&self, scope: &mut crate::telemetry::Scope<'_>) {
            match self {
                Toy::Source { fired, .. } => scope.counter("fired", *fired),
                Toy::Relay { forwarded, .. } => scope.counter("forwarded", *forwarded),
                Toy::Counter { received, last } => {
                    scope.counter("received", *received);
                    scope.gauge("last_ns", last.map(|t| t.as_ns() as i64).unwrap_or(-1));
                }
            }
        }
    }

    impl Persist for Toy {
        fn persist(&self, enc: &mut Enc) {
            match self {
                Toy::Source {
                    next,
                    period,
                    remaining,
                    fired,
                } => {
                    enc.u8(0);
                    enc.opt(next.as_ref(), |e, t| e.time(*t));
                    enc.dur(*period);
                    enc.u32(*remaining);
                    enc.u64(*fired);
                }
                Toy::Relay {
                    ready,
                    latency,
                    forwarded,
                } => {
                    enc.u8(1);
                    enc.seq_len(ready.len());
                    for &r in ready {
                        enc.time(r);
                    }
                    enc.dur(*latency);
                    enc.u64(*forwarded);
                }
                Toy::Counter { received, last } => {
                    enc.u8(2);
                    enc.u64(*received);
                    enc.opt(last.as_ref(), |e, t| e.time(*t));
                }
            }
        }

        fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
            *self = match dec.u8()? {
                0 => Toy::Source {
                    next: dec.opt(|d| d.time())?,
                    period: dec.dur()?,
                    remaining: dec.u32()?,
                    fired: dec.u64()?,
                },
                1 => {
                    let n = dec.seq_len()?;
                    let mut ready = std::collections::VecDeque::with_capacity(n);
                    for _ in 0..n {
                        ready.push_back(dec.time()?);
                    }
                    Toy::Relay {
                        ready,
                        latency: dec.dur()?,
                        forwarded: dec.u64()?,
                    }
                }
                2 => Toy::Counter {
                    received: dec.u64()?,
                    last: dec.opt(|d| d.time())?,
                },
                tag => return Err(PersistError::BadTag { what: "Toy", tag }),
            };
            Ok(())
        }
    }

    /// Static toy wiring: source(0) → relay(1) → counter(2); absorbed
    /// routing is counted so router-state merging is exercised too.
    struct ToyRouter {
        routed: u64,
    }

    impl Persist for ToyRouter {
        fn persist(&self, enc: &mut Enc) {
            enc.u64(self.routed);
        }
        fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
            self.routed = dec.u64()?;
            Ok(())
        }
    }

    impl Router<Toy> for ToyRouter {
        fn route(&mut self, _now: SimTime, src: NodeId, _event: u32, sink: &mut CmdSink<u32>) {
            self.routed += 1;
            match src.0 {
                0 => sink.push(NodeId(1), 0),
                1 => sink.push(NodeId(2), 0),
                _ => {}
            }
        }

        fn publish_telemetry(&self, reg: &mut Registry) {
            reg.counter("toy.routed", self.routed);
        }
    }

    impl MergeTelemetry for ToyRouter {
        fn publish_merged(parts: &[&Self], reg: &mut Registry) {
            reg.counter("toy.routed", parts.iter().map(|r| r.routed).sum());
        }
    }

    fn toy_nodes() -> [Toy; 3] {
        [
            Toy::Source {
                next: Some(t(1_000)),
                period: Dur::from_ns(700),
                remaining: 40,
                fired: 0,
            },
            Toy::Relay {
                ready: std::collections::VecDeque::new(),
                latency: Dur::from_ns(350),
                forwarded: 0,
            },
            Toy::Counter {
                received: 0,
                last: None,
            },
        ]
    }

    #[test]
    fn sharded_toy_matches_single_threaded_harness() {
        let horizon = t(40_000);
        // Ground truth: one harness, one thread.
        let mut single = Harness::new(ToyRouter { routed: 0 }, 64);
        for (node, label) in toy_nodes().into_iter().zip(["src", "relay", "dst"]) {
            single.add_node_labeled(node, label);
        }
        single.run_until(horizon);
        let single_json = single.telemetry_json();

        for mode in [WindowMode::FixedLookahead, WindowMode::Adaptive] {
            // Sharded: relay is the sync node; its 350 ns latency is the
            // lookahead. Counter lives alone on shard 1.
            let mut sharded = ShardedHarness::new(
                vec![ToyRouter { routed: 0 }, ToyRouter { routed: 0 }],
                64,
                Dur::from_ns(350),
            );
            let [src, relay, dst] = toy_nodes();
            sharded.add_node_labeled(src, "src", 0, false);
            sharded.add_node_labeled(relay, "relay", 0, true);
            sharded.add_node_labeled(dst, "dst", 1, false);
            sharded.set_window_mode(mode);
            // Force pool dispatch even on single-core machines (the
            // default caps threads at hardware parallelism): the
            // parallel code path must produce the same bytes as the
            // inline one.
            sharded.set_threads(2);
            sharded.run_until(horizon);

            assert_eq!(sharded.telemetry_json(), single_json, "{mode:?}");
            assert_eq!(sharded.events(), single.events(), "{mode:?}");
            assert_eq!(sharded.now(), single.now(), "{mode:?}");
            // The cross-shard path really was exercised through
            // mailboxes in both modes.
            let sent: u64 = (0..2).map(|k| sharded.shard_stats(k).mailbox_sent).sum();
            assert_eq!(sent, 40, "every relayed item crossed the boundary");
            let sync_instants = sharded
                .exec_telemetry()
                .counter_value("sched.sync_instants");
            match mode {
                // Fixed windows pay a barrier for every relay hand-off…
                WindowMode::FixedLookahead => assert!(sync_instants > Some(0)),
                // …adaptive mode pipelines the whole chain: shard 0 runs
                // to the horizon in one window (nothing influences it),
                // then shard 1 drains the 40 mailed items in a second.
                WindowMode::Adaptive => {
                    assert_eq!(sync_instants, Some(0), "no barrier needed");
                    let reg = sharded.exec_telemetry();
                    assert_eq!(reg.counter_value("sched.windows"), Some(2));
                }
            }
        }

        // Optimistic: speculate past the conservative bounds, same bytes.
        for threads in [1, 2] {
            let mut opt = ShardedHarness::new(
                vec![ToyRouter { routed: 0 }, ToyRouter { routed: 0 }],
                64,
                Dur::from_ns(350),
            );
            let [src, relay, dst] = toy_nodes();
            opt.add_node_labeled(src, "src", 0, false);
            opt.add_node_labeled(relay, "relay", 0, true);
            opt.add_node_labeled(dst, "dst", 1, false);
            opt.set_exec_mode(ExecMode::Optimistic);
            opt.set_snapshot_cadence(4);
            opt.set_threads(threads);
            opt.run_until(horizon);
            assert_eq!(opt.telemetry_json(), single_json, "optimistic/{threads}");
            assert_eq!(opt.events(), single.events(), "optimistic/{threads}");
            assert_eq!(opt.now(), single.now(), "optimistic/{threads}");
            let reg = opt.exec_telemetry();
            assert!(reg.counter_value("sched.gvt_rounds") > Some(0));
        }
    }

    #[test]
    fn independent_shards_run_without_sync_nodes() {
        // No sync nodes at all: each shard gets one self-contained
        // source; the run must cover the horizon in one window per
        // shard with zero mailbox traffic.
        struct Absorb;
        impl Router<Toy> for Absorb {
            fn route(&mut self, _now: SimTime, _src: NodeId, _e: u32, _sink: &mut CmdSink<u32>) {}
        }
        impl Persist for Absorb {
            fn persist(&self, _enc: &mut Enc) {}
            fn restore(&mut self, _dec: &mut Dec<'_>) -> Result<(), PersistError> {
                Ok(())
            }
        }
        impl MergeTelemetry for Absorb {
            fn publish_merged(_parts: &[&Self], _reg: &mut Registry) {}
        }
        let mut sharded = ShardedHarness::new(vec![Absorb, Absorb], 64, Dur::ZERO);
        for k in 0..2 {
            sharded.add_node_labeled(
                Toy::Source {
                    next: Some(t(10 + k as u64)),
                    period: Dur::from_ns(100),
                    remaining: 25,
                    fired: 0,
                },
                format!("s{k}"),
                k,
                false,
            );
        }
        sharded.run_until(t(1_000_000));
        let reg = sharded.exec_telemetry();
        assert_eq!(reg.counter_value("sched.sync_instants"), Some(0));
        assert_eq!(reg.counter_value("sched.mail_rounds"), Some(0));
        let collected = sharded.collect_telemetry();
        assert_eq!(collected.counter_value("s0.fired"), Some(25));
        assert_eq!(collected.counter_value("s1.fired"), Some(25));
        assert_eq!(sharded.events(), 50);
    }

    #[test]
    fn cross_shard_emission_from_a_window_is_a_typed_error() {
        // The source routes straight to a node on the other shard with
        // no sync-class relay in between: the first window must fail
        // with a typed CrossShard error rather than deliver mail late
        // (or kill the process, as it did before the error existed).
        struct BadRouter;
        impl Router<Toy> for BadRouter {
            fn route(&mut self, _now: SimTime, src: NodeId, _e: u32, sink: &mut CmdSink<u32>) {
                if src.0 == 0 {
                    sink.push(NodeId(1), 0);
                }
            }
        }
        impl Persist for BadRouter {
            fn persist(&self, _enc: &mut Enc) {}
            fn restore(&mut self, _dec: &mut Dec<'_>) -> Result<(), PersistError> {
                Ok(())
            }
        }
        impl MergeTelemetry for BadRouter {
            fn publish_merged(_parts: &[&Self], _reg: &mut Registry) {}
        }
        let mut sharded = ShardedHarness::new(vec![BadRouter, BadRouter], 64, Dur::from_ns(1));
        sharded.add_node_labeled(
            Toy::Source {
                next: Some(t(5)),
                period: Dur::from_ns(5),
                remaining: 1,
                fired: 0,
            },
            "src",
            0,
            false,
        );
        sharded.add_node_labeled(
            Toy::Counter {
                received: 0,
                last: None,
            },
            "dst",
            1,
            true, // sync-class but idle: windows still open, then src trips the guard
        );
        let err = sharded.try_run_until(t(1_000)).unwrap_err();
        match err {
            CascadeError::CrossShard {
                at,
                src,
                dst,
                src_shard,
                dst_shard,
            } => {
                assert_eq!(at, t(5));
                assert_eq!(src, NodeId(0));
                assert_eq!(dst, NodeId(1));
                assert_eq!((src_shard, dst_shard), (0, 1));
            }
            other => panic!("expected CrossShard, got {other:?}"),
        }
        assert!(err.to_string().contains("protocol violation"), "{err}");
        // Poisoned like any other cascade failure, with the trail.
        assert_eq!(sharded.failure(), Some(err));
        assert_eq!(sharded.try_run_until(t(2_000)), Err(err));
        let reg = sharded.telemetry();
        assert_eq!(reg.events().len(), 1);
        assert!(reg.events()[0].detail.contains("cross-shard emission"));
    }

    #[test]
    fn sync_instant_failure_poisons_with_a_telemetry_trail() {
        // Two echoes wired to each other across the boundary: every
        // delivered command re-emits immediately, so each mailbox
        // exchange round at the first instant produces the next — the
        // round guard must trip like a same-instant cascade overflow.
        struct Echo {
            armed: bool,
        }
        impl Component for Echo {
            type Cmd = u32;
            type Out = u32;
            fn next_deadline(&self) -> Option<SimTime> {
                self.armed.then(|| SimTime::from_ns(10))
            }
            fn advance(&mut self, _now: SimTime, sink: &mut Vec<u32>) {
                if self.armed {
                    self.armed = false;
                    sink.push(0);
                }
            }
            fn handle(&mut self, _now: SimTime, v: u32, sink: &mut Vec<u32>) {
                sink.push(v + 1);
            }
        }
        impl Persist for Echo {
            fn persist(&self, enc: &mut Enc) {
                enc.bool(self.armed);
            }
            fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), PersistError> {
                self.armed = dec.bool()?;
                Ok(())
            }
        }
        struct PingPong;
        impl Persist for PingPong {
            fn persist(&self, _enc: &mut Enc) {}
            fn restore(&mut self, _dec: &mut Dec<'_>) -> Result<(), PersistError> {
                Ok(())
            }
        }
        impl Router<Echo> for PingPong {
            fn route(&mut self, _now: SimTime, src: NodeId, event: u32, sink: &mut CmdSink<u32>) {
                // echo 0 (shard 0) ↔ echo 1 (shard 1)
                sink.push(NodeId(1 - src.0), event);
            }
        }
        impl MergeTelemetry for PingPong {
            fn publish_merged(_parts: &[&Self], _reg: &mut Registry) {}
        }
        let mut sharded = ShardedHarness::new(vec![PingPong, PingPong], 8, Dur::from_ns(1));
        sharded.add_node_labeled(Echo { armed: true }, "a", 0, true);
        sharded.add_node_labeled(Echo { armed: false }, "b", 1, true);
        let err = sharded.try_run_until(t(100)).unwrap_err();
        assert_eq!(err.at(), t(10));
        assert!(err.steps() > 8);
        assert_eq!(sharded.failure(), Some(err));
        assert_eq!(sharded.try_run_until(t(200)), Err(err));
        let reg = sharded.telemetry();
        assert_eq!(reg.events().len(), 1);
        assert_eq!(reg.events()[0].path, "sim.cascade.overflow");
        let snap = reg.phase("cascade-failure").expect("final snapshot");
        assert!(matches!(
            snap.get("sim.cascade.overflows"),
            Some(Value::Counter(1))
        ));
    }
}
