//! Tier-1 proof of the *sharded* scheduler's zero-allocation steady
//! state, under both window modes and under optimistic execution.
//!
//! Runs only under `--features alloc-count`, which swaps in the counting
//! global allocator. Like `zero_alloc.rs`, this test lives alone in its
//! own integration-test binary: the allocation counter is process-wide,
//! so a concurrently running test would pollute the measured window
//! (the two tests here take turns through a lock).
//!
//! The workload is `ctms_sim::synth::build_sharded_ring` — two disjoint
//! ticker rings (one per shard) plus a sync-class relay whose fires
//! cross the shard cut — so the measured window exercises window
//! negotiation, outbox flushing and pending-mail delivery, not just the
//! per-shard stepping loop.
#![cfg(feature = "alloc-count")]

use ctms_sim::alloc_count::CountingAlloc;
use ctms_sim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The counter is process-wide and `cargo test` runs the tests below on
/// parallel threads: each holds this lock so neither counts the other's
/// allocations.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock only means the other test failed; the counter is
    // still ours alone.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn steady_state_sharded_hot_path_allocates_nothing() {
    let _serial = serial();
    // Two shards on one thread (the inline dispatch path — worker
    // threads have their own stacks and queues, which would charge
    // pool machinery, not the scheduler, to the counter), with live
    // cross-shard mail every relay period, under both window modes.
    for mode in [
        ctms_sim::WindowMode::FixedLookahead,
        ctms_sim::WindowMode::Adaptive,
    ] {
        let mut h = ctms_sim::synth::build_sharded_ring(16, 1_000, 4, 2_500, 2_500);
        h.set_window_mode(mode);
        h.set_threads(1);
        // Nothing influences shard 0 (the cut is one-way), so without a
        // span cap its adaptive window would run clear to the horizon
        // and its outbox would grow with the run length — the cap keeps
        // mailbox memory (and hence steady-state capacity) bounded.
        h.set_max_window_span(ctms_sim::Dur::from_ns(250_000));

        // Warm-up: grow every reusable buffer — per-shard heaps, waves,
        // sinks, outboxes, pending-mail queues, the coordinator's bound
        // scratch — to steady-state capacity.
        h.run_until(SimTime::from_ns(2_000_000));
        let events_before = h.events();
        assert!(events_before > 0, "warm-up must service events");

        // Measured window: many more events and windows, zero allocations.
        let allocs_before = ALLOC.allocations();
        h.run_until(SimTime::from_ns(10_000_000));
        let allocs = ALLOC.allocations() - allocs_before;
        let events = h.events() - events_before;

        assert!(
            events > 10_000,
            "window too small to be meaningful: {events} ({mode:?})"
        );
        assert_eq!(
            allocs, 0,
            "steady-state sharded scheduler ({mode:?}) allocated {allocs} times \
             over {events} events"
        );
    }
}

#[test]
fn steady_state_optimistic_hot_path_allocates_nothing() {
    let _serial = serial();
    // The optimistic engine adds three reusable buffers to the hot
    // path on top of the conservative scheduler: the pre-image
    // snapshot arena, the executed-event log, and the staged
    // speculative outbox. All three are trimmed back with
    // capacity-preserving truncation (`go_live` / fossil collection
    // clear lengths, never capacity), so once the warm-up has grown
    // them to the high-water mark of one speculation round, the steady
    // state allocates nothing — including at snapshot-cadence
    // boundaries, where opening a segment only appends into the
    // already-sized arena. Only a run whose speculation depth exceeds
    // anything seen during warm-up may allocate, and that is a
    // capacity growth event, not a steady-state cost.
    let mut h = ctms_sim::synth::build_sharded_ring(16, 1_000, 4, 2_500, 2_500);
    h.set_window_mode(ctms_sim::WindowMode::Adaptive);
    h.set_exec_mode(ctms_sim::ExecMode::Optimistic);
    h.set_snapshot_cadence(64);
    h.set_threads(1);
    h.set_max_window_span(ctms_sim::Dur::from_ns(250_000));

    h.run_until(SimTime::from_ns(2_000_000));
    let events_before = h.events();
    assert!(events_before > 0, "warm-up must service events");

    let allocs_before = ALLOC.allocations();
    h.run_until(SimTime::from_ns(10_000_000));
    let allocs = ALLOC.allocations() - allocs_before;
    let events = h.events() - events_before;

    assert!(
        events > 10_000,
        "window too small to be meaningful: {events}"
    );
    assert_eq!(
        allocs, 0,
        "steady-state optimistic scheduler allocated {allocs} times over \
         {events} events"
    );
}
