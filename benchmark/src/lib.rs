//! The CTMS simulator's end-to-end benchmark.
//!
//! Four workloads drive the simulator through its public entry points
//! only: three in-process (`paper_cases`, `city_tree`, `fddi_backbone`)
//! and one through the `serve` binary over stdin/stdout
//! (`serve_steer`). Every host-time figure is a median over
//! repetitions inside one invocation; simulated-time figures are
//! deterministic for a seed. See `README.md` in this directory for the
//! metric → layer → workload map.

pub mod inproc;
pub mod json;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

pub const WORKLOADS: [&str; 4] = ["paper_cases", "city_tree", "fddi_backbone", "serve_steer"];

/// End-to-end metrics, printed by every untraced run.
pub const E2E: [(&str, &str); 9] = [
    ("events_per_s", "events/s"),
    ("parallel_speedup", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("reply_p50_ms", "ms"),
    ("reply_p95_ms", "ms"),
    ("commands_per_s", "1/s"),
    ("sim_delivered_frac", "ratio"),
    ("sim_h7_p99_us", "us"),
];

/// Per-layer metrics, printed by every traced run. A layer that a
/// workload never calls reads 0 there.
pub const LAYERS: [(&str, &str); 45] = [
    ("core.graph.gen_ms", "ms"),
    ("core.graph.partition_ms", "ms"),
    ("core.topology.wire_ms", "ms"),
    ("core.topology.build_ms", "ms"),
    ("core.topology.nodes", "count"),
    ("sim.bus.ns_per_event", "ns"),
    ("sim.bus.synth_ns_per_event", "ns"),
    ("models.ns_per_event", "ns"),
    ("sim.shard.effective_shards", "count"),
    ("sim.shard.windows", "count"),
    ("sim.shard.sync_instants", "count"),
    ("sim.shard.mail_rounds", "count"),
    ("sim.shard.mail_msgs", "count"),
    ("sim.shard.idle_window_frac", "ratio"),
    ("sim.shard.load_imbalance", "ratio"),
    ("sim.shard.us_per_window", "us"),
    ("sim.shard.synth_ns_per_event", "ns"),
    ("sim.persist.ckpt_mb", "MB"),
    ("sim.persist.ckpt_chunks", "count"),
    ("sim.persist.write_mb_per_s", "MB/s"),
    ("sim.persist.read_mb_per_s", "MB/s"),
    ("core.checkpoint.restore_ms", "ms"),
    ("sim.telemetry.json_ms", "ms"),
    ("sim.telemetry.json_kb", "kB"),
    ("serve.run_ms", "ms"),
    ("serve.telemetry_ms", "ms"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.checkpoint_stream_ms", "ms"),
    ("serve.restore_ms", "ms"),
    ("serve.steer_ms", "ms"),
    ("serve.fork_ms", "ms"),
    ("serve.wire_mb", "MB"),
    ("serve.restore_hex_mb_per_s", "MB/s"),
    ("sim.bus.events", "count"),
    ("tokenring.frames_sent", "count"),
    ("tokenring.busy_frac", "ratio"),
    ("unixkern.cpu.irqs_dispatched", "count"),
    ("unixkern.cpu.jobs_done", "count"),
    ("unixkern.mbuf.allocs", "count"),
    ("ctmsp.ctmsp_tx", "count"),
    ("router.bridge.forwarded", "count"),
    ("workloads.phantom.frames", "count"),
    ("failed_frac", "ratio"),
    ("trace.overhead.events_per_s", "events/s"),
    ("trace.overhead.reply_p50_ms", "ms"),
];

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A size of every workload that finishes in seconds, for the
    /// benchmark's own tests.
    pub quick: bool,
    pub serve_bin: Option<PathBuf>,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    /// Facts about the run printed beside the metrics.
    pub stamp: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn stamp(&mut self, key: &'static str, value: impl ToString) {
        self.stamp.push((key, value.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// One repetition's host-time figures: one pass over every case of an
/// in-process workload, or one `serve_steer` session. Every repetition
/// of a run makes the same calls on the same inputs, in the same order.
#[derive(Clone, Default)]
pub struct RepFigures {
    /// Simulated events serviced by the timed `run` calls.
    pub events: u64,
    pub setup_s: f64,
    /// Wall time (ms) of each timed `run` call at the requested shard
    /// count: one per case in process, one per round over `serve`.
    pub runs_ms: Vec<f64>,
    /// Round trip (ms) of every reply: a whole `run_until` call in
    /// process, a command line over `serve`.
    pub replies_ms: Vec<f64>,
    /// Wall time (s) of the same work on 1 thread and at 2 shards.
    pub one_thread_s: f64,
    pub two_shard_s: f64,
}

/// The end-to-end host-time figures of a set of repetitions.
///
/// The host the benchmark was written on alternates between two speeds
/// about 1.8x apart, in phases of seconds to minutes that vary from run
/// to run (see `README.md`). Contention only ever slows a call down, so
/// each call's best time over the repetitions estimates its uncontended
/// cost, which repeats where a median jumps between the two phases.
/// Every figure except `parallel_speedup` is computed from those best
/// times, as if one repetition had made each call at its best.
/// `parallel_speedup` is a ratio of two runs inside one repetition,
/// which cancels the host's speed, and is the median over repetitions.
pub struct E2e {
    pub events_per_s: f64,
    pub speedup: f64,
    pub setup_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub commands_per_s: f64,
    pub reps: usize,
    /// Replies per repetition.
    pub replies: usize,
}

/// Element-wise minimum of equally long series.
fn best_each<'a>(series: impl Iterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for s in series {
        if best.is_empty() {
            best = s.clone();
        }
        for (b, x) in best.iter_mut().zip(s) {
            *b = b.min(*x);
        }
    }
    best
}

impl E2e {
    pub fn of<'a>(reps: impl IntoIterator<Item = &'a RepFigures>) -> E2e {
        use stats::{median, quantile};
        let reps: Vec<&RepFigures> = reps.into_iter().collect();
        let runs = best_each(reps.iter().map(|r| &r.runs_ms));
        let replies = best_each(reps.iter().map(|r| &r.replies_ms));
        let ratios: Vec<f64> = reps
            .iter()
            .map(|r| r.one_thread_s / r.two_shard_s)
            .collect();
        E2e {
            events_per_s: reps.first().map_or(f64::NAN, |r| r.events as f64)
                / runs.iter().sum::<f64>()
                * 1e3,
            speedup: median(&ratios),
            setup_s: reps.iter().map(|r| r.setup_s).fold(f64::NAN, f64::min),
            p50_ms: quantile(&replies, 0.5),
            p95_ms: quantile(&replies, 0.95),
            commands_per_s: replies.len() as f64 * 1e3 / replies.iter().sum::<f64>(),
            reps: reps.len(),
            replies: replies.len(),
        }
    }

    /// Sets the host-time end-to-end metrics.
    pub fn set(&self, out: &mut Outcome) {
        out.set("events_per_s", self.events_per_s);
        out.set("parallel_speedup", self.speedup);
        out.set("setup_s", self.setup_s);
        out.set("reply_p50_ms", self.p50_ms);
        out.set("reply_p95_ms", self.p95_ms);
        out.set("commands_per_s", self.commands_per_s);
        out.stamp("best_of_reps", self.reps);
        out.stamp("replies_per_rep", self.replies);
    }

    /// Traced minus untraced figures, for the tracing overhead.
    pub fn set_overhead(traced: &E2e, untraced: &E2e, out: &mut Outcome) {
        out.set(
            "trace.overhead.events_per_s",
            traced.events_per_s - untraced.events_per_s,
        );
        out.set(
            "trace.overhead.reply_p50_ms",
            traced.p50_ms - untraced.p50_ms,
        );
    }
}

/// Model work counts read from a telemetry tree: `(metric, sum)`.
/// Every pattern is summed over rings, hosts, drivers or bridges.
pub fn model_counts(tree: &json::Json) -> Vec<(&'static str, f64)> {
    let m = |p: &str| tree.metric_sum(p);
    let ring_ns = tree.metric_values("tokenring.*.busy_ns").len() as f64 * m("sim.now_ns");
    vec![
        ("tokenring.frames_sent", m("tokenring.*.frames_sent")),
        (
            "tokenring.busy_frac",
            if ring_ns > 0.0 {
                m("tokenring.*.busy_ns") / ring_ns
            } else {
                0.0
            },
        ),
        (
            "unixkern.cpu.irqs_dispatched",
            m("unixkern.*.cpu.irqs_dispatched"),
        ),
        ("unixkern.cpu.jobs_done", m("unixkern.*.cpu.jobs_done")),
        ("unixkern.mbuf.allocs", m("unixkern.*.mbuf.allocs")),
        ("ctmsp.ctmsp_tx", m("unixkern.*.*.tokenring.ctmsp_tx")),
        ("router.bridge.forwarded", m("router.*.forwarded_*")),
        (
            "workloads.phantom.frames",
            m("workloads.phantom.small")
                + m("workloads.phantom.ft_frames")
                + m("workloads.phantom.arp"),
        ),
    ]
}

/// `(presented at the sink, sent by the VCA source)` from a telemetry
/// tree.
pub fn stream_counts(tree: &json::Json) -> (f64, f64) {
    (
        tree.metric_sum("measure.presented"),
        tree.metric_sum("unixkern.*.*.vca-ctms-src.pkts_sent"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(runs_ms: &[f64], one: f64, two: f64) -> RepFigures {
        RepFigures {
            events: 1_000,
            setup_s: runs_ms[0] / 1e3,
            runs_ms: runs_ms.to_vec(),
            replies_ms: runs_ms.to_vec(),
            one_thread_s: one,
            two_shard_s: two,
        }
    }

    #[test]
    fn figures_use_each_calls_best_time() {
        // Each repetition is slow on a different call.
        let reps = [
            rep(&[2.0, 1.0], 1.0, 1.0),
            rep(&[1.0, 3.0], 3.0, 2.0),
            rep(&[1.5, 1.5], 4.0, 2.0),
        ];
        let e = E2e::of(&reps);
        assert_eq!(e.events_per_s, 1_000.0 / 2e-3);
        assert_eq!(e.commands_per_s, 1_000.0);
        assert_eq!(e.p50_ms, 1.0);
        assert_eq!(e.setup_s, 1e-3);
        // The speedup is the median of the per-repetition ratios.
        assert_eq!(e.speedup, 1.5);
        assert_eq!((e.reps, e.replies), (3, 2));
    }
}
