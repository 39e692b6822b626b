//! `ctms-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--quick] [--serve-bin <path>] [--commit <id>] [--out-dir <dir>]`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when an output check failed and 2 on bad usage.
//! `run.py` in this directory builds the simulator and calls this.

use ctms_benchmark::{inproc, serve, Opts, Outcome, E2E, LAYERS, WORKLOADS};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("ctms-benchmark: {msg}");
    eprintln!(
        "usage: ctms-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--quick] [--serve-bin <path>] [--commit <id>] [--out-dir <dir>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut quick = false;
    let mut serve_bin = None;
    let mut commit = "unknown".to_string();
    let mut out_dir = PathBuf::from(".bench_out");
    let mut memory_pass = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = val().parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => trace = val() == "1",
            "--quick" => quick = true,
            "--serve-bin" => serve_bin = Some(PathBuf::from(val())),
            "--commit" => commit = val(),
            "--out-dir" => out_dir = PathBuf::from(val()),
            "--memory-pass" => memory_pass = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let o = Opts {
        workload,
        seed,
        seconds,
        trace,
        quick,
        serve_bin,
        out_dir,
    };

    if memory_pass {
        // One untimed pass in this fresh process; see `inproc::peak_rss_mb`.
        println!("{}", inproc::memory_pass(&o));
        return;
    }

    let mut out = Outcome::default();
    out.stamp("workload", &o.workload);
    out.stamp("seed", o.seed);
    out.stamp("commit", &commit);
    out.stamp("trace", if o.trace { "on" } else { "off" });
    out.stamp("quick", o.quick);
    out.stamp(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let tracer = if o.workload == "serve_steer" {
        serve::run(&o, &mut out)
    } else {
        let mut tracer = inproc::run(&o, &mut out);
        if o.trace {
            // The serve layer is measured in every traced run.
            serve::command_layers(&o, &mut tracer, &mut out);
        }
        tracer
    };

    let expected: &[(&str, &str)] = if o.trace {
        // The named layers must account for at least 95% of the root
        // spans that have children, summed per root name.
        let unattributed = tracer.unattributed_roots(0.05, 20_000);
        out.op(unattributed.is_empty(), || {
            format!("root spans with time outside every layer span: {unattributed:?}")
        });
        let path = o
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", o.workload, o.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => out.stamp(
                "spans",
                format!("{} in {}", tracer.spans().len(), path.display()),
            ),
            Err(e) => eprintln!("# could not write spans to {}: {e}", path.display()),
        }
        for (name, (n, total, own)) in tracer.by_name() {
            eprintln!(
                "# span {name:<28} n={n:<6} total {:>10.3} ms  self {:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        out.set(
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        &LAYERS
    } else {
        &E2E
    };

    let mut metrics = Vec::new();
    for (name, unit) in expected {
        let value = out.get(name).unwrap_or(f64::NAN);
        // A metric that could not be measured (no repetition passed its
        // checks) is reported as 0, and the run as incorrect.
        if !value.is_finite() && out.failed == 0 {
            out.op(false, || format!("metric {name} could not be measured"));
        }
        metrics.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }
    let stamp: Vec<String> = out
        .stamp
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace('"', "'")))
        .collect();
    println!("# stamp {{{}}}", stamp.join(","));
    for f in &out.failures {
        println!("# FAILED: {f}");
    }
    for (name, value, unit) in &metrics {
        println!("# {name:<30} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
