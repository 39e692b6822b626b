//! Sharded execution of a built [`crate::Topology`]: the profitability
//! gate's constants and verdict, and the [`ShardedBus`] name.
//!
//! A bus built with several shards ([`crate::Topology::build_partitioned`])
//! runs the same simulation as a one-shard bus — same nodes, same
//! wiring, same seeds — with the node set partitioned by ring across
//! the shards of one [`ctms_sim::Harness`], which steps them in parallel
//! on the persistent sweep pool inside conservative time windows bounded
//! by bridge forwarding latency. By construction the results (event
//! counts, measurements, telemetry JSON) are bit-identical at every
//! shard count; only the wall clock changes.
//!
//! Where sharding can be done but does not pay, the **profitability
//! gate** falls back during the run: it measures the first
//! [`CALIBRATION_WINDOWS`] conservative windows and, when they carry
//! fewer than [`MIN_EVENTS_PER_WINDOW`] events each, collapses the
//! shards into one in place (see [`Bus::try_run_until`] and DESIGN.md
//! §13, "Profitability").

use crate::topology::Bus;
use ctms_sim::Registry;

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
    /// bus collapses into one shard.
    pub fn demotes(&self) -> bool {
        self.events < MIN_EVENTS_PER_WINDOW * self.windows
    }
}

/// A built topology at any shard count, as returned by
/// [`crate::Topology::build_sharded`]: a thin wrapper over one [`Bus`],
/// to which every method forwards ([`std::ops::Deref`]). New code can
/// use [`Bus`] directly.
pub enum ShardedBus {
    /// The bus, at whatever shard count it runs.
    Single(Bus),
}

impl std::ops::Deref for ShardedBus {
    type Target = Bus;

    fn deref(&self) -> &Bus {
        let ShardedBus::Single(bus) = self;
        bus
    }
}

impl std::ops::DerefMut for ShardedBus {
    fn deref_mut(&mut self) -> &mut Bus {
        let ShardedBus::Single(bus) = self;
        bus
    }
}

impl ShardedBus {
    /// True when the bus runs one shard: built that way, or demoted by
    /// the profitability gate (the *effective* shard count is 1).
    pub fn is_single(&self) -> bool {
        self.shard_count() == 1
    }

    /// [`Bus::exec_telemetry`] while the bus runs several shards;
    /// `None` once it runs one (built so, or demoted), when no sharded
    /// execution layer is left to describe.
    pub fn exec_telemetry(&self) -> Option<Registry> {
        (!self.is_single()).then(|| Bus::exec_telemetry(self))
    }

    /// The wrapped bus.
    pub fn into_bus(self) -> Bus {
        let ShardedBus::Single(bus) = self;
        bus
    }
}

#[cfg(test)]
mod tests {
    use crate::{Mutation, RingChainTestbed, RingGraph, Scenario, Testbed};
    use ctms_router::BridgeKind;
    use ctms_sim::SimTime;

    #[test]
    fn one_shard_case_a_records_no_window_machinery() {
        // The degenerate case takes the plain deadline loop: the paper's
        // case A opens no window, sync instant or mail round.
        let mut bed = Testbed::ctms(&Scenario::test_case_a(42));
        bed.run_until(SimTime::from_secs(2));
        let bus = bed.bus();
        assert_eq!(bus.shard_count(), 1);
        let reg = bus.exec_telemetry();
        for key in ["sched.windows", "sched.sync_instants", "sched.mail_rounds"] {
            assert_eq!(reg.counter_value(key), Some(0), "{key}");
        }
        assert_eq!(reg.counter_value("sched.shard0.events"), Some(bus.events()));
    }

    #[test]
    fn mutations_on_a_sharded_bus_are_a_typed_error() {
        // Injection needs one shard; a sharded bus refuses the batch
        // up front instead of panicking inside the harness.
        let sc = Scenario::scaled_chain(42);
        let graph = RingGraph::tree(13, 3);
        let mut bed =
            RingChainTestbed::graph_sharded(&sc, BridgeKind::cut_through_bridge(), &graph, 2);
        bed.run_until(SimTime::from_ms(50));
        assert_eq!(bed.shard_count(), 2);
        let before = bed.bus().checkpoint();
        let err = crate::apply_mutations(
            bed.bus_mut(),
            &[
                Mutation::DmaStall {
                    host: 0,
                    extra: ctms_sim::Dur::from_us(5),
                },
                Mutation::StationChurn { ring: 0 },
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("one-shard"), "{err}");
        assert!(bed.bus().checkpoint() == before, "nothing was applied");
    }
}
