//! The `serve_steer` workload: a closed loop with one client (this
//! process) and one outstanding command, driving a `serve` child.
//!
//! Each session spawns the requested 2-shard session and a 1-shard
//! reference session on the same scenario, then plays a fixed script of
//! rounds. The reference receives only the commands that change state
//! (`run`, `steer`) plus `telemetry`, so it is the uninterrupted,
//! unsharded continuation every reply of the requested session is
//! checked against. Replies are timed on the requested session only.

use crate::inproc;
use crate::json::{self, Json};
use crate::stats::{median, SplitMix};
use crate::trace::Tracer;
use crate::{E2e, Opts, Outcome, RepFigures};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const RINGS: usize = 64;
/// 32 rounds of 125 ms: 4 s simulated, with 183 replies per session so
/// that 10 lie beyond p95, and a steer every 250 ms.
const STEP_MS: u64 = 125;
const STEER_EVERY: u64 = 2;
const FORK_EVERY: u64 = 4;
/// A reply slower than this counts as a hang: the session is killed.
const HANG: Duration = Duration::from_secs(60);

/// One `serve` child on piped stdin/stdout.
struct Session {
    child: Child,
    stdin: ChildStdin,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    /// Bytes written to and read from the child.
    wire: u64,
}

impl Session {
    /// Spawns `bin`, sends the session line and waits for `ready`.
    fn spawn(bin: &std::path::Path, session: &str) -> Result<(Session, Json, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            loop {
                let mut line = String::new();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        if tx.send(line).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        let mut s = Session {
            child,
            stdin,
            lines,
            reader: Some(reader),
            wire: 0,
        };
        let (reply, _) = s.call(session)?;
        let ready = reply_json(&reply)?;
        Ok((s, ready, t0.elapsed()))
    }

    fn recv(&mut self) -> Result<String, String> {
        match self.lines.recv_timeout(HANG) {
            Ok(line) => {
                self.wire += line.len() as u64;
                Ok(line)
            }
            Err(RecvTimeoutError::Timeout) => Err(format!("no reply within {HANG:?}")),
            Err(RecvTimeoutError::Disconnected) => Err("serve exited".to_string()),
        }
    }

    /// Sends one command line and returns its reply line and the round
    /// trip.
    fn call(&mut self, line: &str) -> Result<(String, Duration), String> {
        let t0 = Instant::now();
        self.send(line)?;
        let reply = self.recv()?;
        Ok((reply, t0.elapsed()))
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.wire += line.len() as u64 + 1;
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("write to serve: {e}"))
    }

    /// Peak resident memory of the child, in MB.
    fn peak_rss_mb(&self) -> Option<f64> {
        crate::stats::peak_rss_mb(Some(self.child.id()))
    }

    /// Asks the child to quit and waits for it; kills it if it does not
    /// answer.
    fn close(mut self) {
        if self.call("{\"cmd\":\"quit\"}").is_err() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.reader.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(r) = self.reader.take() {
                let _ = r.join();
            }
        }
    }
}

fn reply_json(line: &str) -> Result<Json, String> {
    let v = json::parse(line.trim_end()).map_err(|e| format!("bad reply: {e}"))?;
    match v.get("ok") {
        Some(Json::Bool(true)) => Ok(v),
        _ => Err(format!("failed reply: {}", truncate(line))),
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(200)]
}

/// The simulation status a reply reports.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Status {
    now_ms: u64,
    events: u64,
    presented: u64,
    purge_starts: u64,
}

fn status(v: &Json) -> Result<Status, String> {
    let f = |k: &str| v.u64_at(k).ok_or_else(|| format!("reply lacks \"{k}\""));
    Ok(Status {
        now_ms: f("now_ms")?,
        events: f("events")?,
        presented: f("presented")?,
        purge_starts: f("purge_starts")?,
    })
}

/// The hex string value of `key` in a reply line, without parsing the
/// whole (multi-megabyte) line into a tree.
fn hex_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
        .collect()
}

/// The mutations of the `n`th steer or fork: the kinds take turns and
/// the seed picks where they strike. Fixed kinds and sizes keep the
/// session's simulated latency tail comparable across seeds.
fn mutations(n: u64, g: &mut SplitMix) -> String {
    let ring = g.range(0, RINGS as u64);
    match n % 3 {
        0 => format!("[{{\"kind\":\"station_churn\",\"ring\":{ring}}}]"),
        1 => format!("[{{\"kind\":\"purge_storm\",\"ring\":{ring},\"count\":2}}]"),
        _ => format!(
            "[{{\"kind\":\"dma_stall\",\"host\":{},\"extra_us\":500}}]",
            ring % 2
        ),
    }
}

/// Round-trip samples of one session, on the requested session.
#[derive(Default)]
struct SessionFigures {
    /// `events` and `runs_ms` count the `run` commands; the 1-thread
    /// time is the 1-shard reference session's.
    rep: RepFigures,
    peak_rss_mb: f64,
    /// The command of every reply in `rep.replies_ms`.
    commands_of: Vec<&'static str>,
    wire_mb: f64,
    restore_hex_mb_per_s: Vec<f64>,
    last_telemetry: String,
    /// Commands sent so far; each command's span is tagged with it.
    commands: u64,
    last_checkpoint: Vec<u8>,
    final_status: Option<Status>,
}

impl SessionFigures {
    fn record(&mut self, command: &'static str, d: Duration) {
        self.commands_of.push(command);
        self.rep.replies_ms.push(d.as_secs_f64() * 1e3);
    }

    /// Round trips (ms) of every reply to `command`.
    fn replies_to<'a>(&'a self, command: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.commands_of
            .iter()
            .zip(&self.rep.replies_ms)
            .filter(move |(c, _)| **c == command)
            .map(|(_, ms)| *ms)
    }
}

/// Times one command on the requested session, in its own span.
fn timed(
    s: &mut Session,
    t: &mut Tracer,
    f: &mut SessionFigures,
    name: &'static str,
    line: &str,
) -> Result<(String, Duration), String> {
    f.commands += 1;
    let id = t.begin(name, f.commands);
    let reply = s.call(line);
    t.end(id);
    let (reply, d) = reply?;
    f.record(name, d);
    Ok((reply, d))
}

/// Plays one session. Every failed check is counted in `out`; an error
/// return means the session could not continue.
fn session(
    bin: &std::path::Path,
    seed: u64,
    rounds: u64,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<SessionFigures, String> {
    let mut f = SessionFigures::default();
    let line = |shards| {
        format!("{{\"scenario\":\"chain\",\"rings\":{RINGS},\"shards\":{shards},\"seed\":{seed}}}")
    };
    let spawn_span = t.begin("serve.spawn", 0);
    let spawned = Session::spawn(bin, &line(2));
    t.end(spawn_span);
    let (mut s, ready, setup) = spawned?;
    f.rep.setup_s = setup.as_secs_f64();
    let (mut r, _, _) = Session::spawn(bin, &line(1))?;
    out.op(ready.u64_at("shards") == Some(2), || {
        format!(
            "requested session runs on {:?} shards",
            ready.u64_at("shards")
        )
    });

    let mut g = SplitMix::new(seed);
    let mut fork_branch: Option<Status> = None;
    for round in 1..=rounds {
        let until = round * STEP_MS;
        let before = f.final_status.map_or(0, |st| st.events);
        let cmd = format!("{{\"cmd\":\"run\",\"until_ms\":{until}}}");
        let (reply, d) = timed(&mut s, t, &mut f, "serve.run", &cmd)?;
        let (rref, dref) = r.call(&cmd)?;
        let st = status(&reply_json(&reply)?)?;
        let st_ref = status(&reply_json(&rref)?)?;
        out.op(st == st_ref && st.now_ms == until, || {
            format!("round {round}: run reached {st:?}, the 1-shard session {st_ref:?}")
        });
        if let Some(branch) = fork_branch.take() {
            out.op(branch == st, || {
                format!("round {round}: fork branch {branch:?} differs from the run {st:?}")
            });
        }
        f.rep.events += st.events - before;
        f.rep.runs_ms.push(d.as_secs_f64() * 1e3);
        f.rep.two_shard_s += d.as_secs_f64();
        f.rep.one_thread_s += dref.as_secs_f64();
        f.final_status = Some(st);

        let tel = "{\"cmd\":\"telemetry\"}";
        let (reply, _) = timed(&mut s, t, &mut f, "serve.telemetry", tel)?;
        let (rref, _) = r.call(tel)?;
        reply_json(&reply)?;
        out.op(reply == rref, || {
            format!("round {round}: telemetry differs from the uninterrupted 1-shard session")
        });
        f.last_telemetry = reply;

        let (reply, _) = timed(
            &mut s,
            t,
            &mut f,
            "serve.checkpoint",
            "{\"cmd\":\"checkpoint\"}",
        )?;
        let hex = hex_field(&reply, "checkpoint")
            .ok_or("checkpoint reply lacks hex")?
            .to_string();
        out.op(
            reply.contains(&format!("\"bytes\":{}}}", hex.len() / 2)),
            || format!("round {round}: checkpoint byte count does not match its hex"),
        );

        f.commands += 1;
        let id = t.begin("serve.checkpoint_stream", f.commands);
        let t0 = Instant::now();
        let streamed = (|| -> Result<String, String> {
            s.send("{\"cmd\":\"checkpoint_stream\"}")?;
            let mut data = String::with_capacity(hex.len());
            loop {
                let line = s.recv()?;
                let v = reply_json(&line)?;
                if v.str_at("event") == Some("checkpoint_done") {
                    return Ok(data);
                }
                data.push_str(hex_field(&line, "data").ok_or("chunk lacks data")?);
            }
        })();
        let d = t0.elapsed();
        t.end(id);
        f.record("serve.checkpoint_stream", d);
        out.op(streamed? == hex, || {
            format!("round {round}: streamed chunks do not concatenate to the checkpoint hex")
        });

        let cmd = format!("{{\"cmd\":\"restore\",\"checkpoint\":\"{hex}\"}}");
        let (reply, d) = timed(&mut s, t, &mut f, "serve.restore", &cmd)?;
        let restored = status(&reply_json(&reply)?)?;
        out.op(restored == st, || {
            format!("round {round}: restore landed at {restored:?}, checkpoint was {st:?}")
        });
        f.restore_hex_mb_per_s
            .push(hex.len() as f64 / 1e6 / d.as_secs_f64());
        f.last_checkpoint = from_hex(&hex).ok_or("checkpoint is not hex")?;

        if round % STEER_EVERY == 0 {
            let cmd = format!(
                "{{\"cmd\":\"steer\",\"mutations\":{}}}",
                mutations(round / STEER_EVERY, &mut g)
            );
            let (reply, _) = timed(&mut s, t, &mut f, "serve.steer", &cmd)?;
            let (rref, _) = r.call(&cmd)?;
            let (st, st_ref) = (status(&reply_json(&reply)?)?, status(&reply_json(&rref)?)?);
            out.op(st == st_ref, || {
                format!("round {round}: steer gave {st:?}, the 1-shard session {st_ref:?}")
            });
        }

        if round % FORK_EVERY == 0 && round < rounds {
            let next = until + STEP_MS;
            let cmd = format!(
                "{{\"cmd\":\"fork\",\"until_ms\":{next},\"branches\":[[],{}]}}",
                mutations(round + 1, &mut g)
            );
            let (reply, _) = timed(&mut s, t, &mut f, "serve.fork", &cmd)?;
            let v = reply_json(&reply)?;
            match v.get("branches") {
                Some(Json::Arr(b)) if b.len() == 2 => {
                    // The unmutated branch must match the next round's run.
                    fork_branch = Some(status(&b[0])?);
                }
                _ => out.op(false, || {
                    format!("round {round}: fork did not report 2 branches")
                }),
            }
        }
    }
    f.peak_rss_mb = s.peak_rss_mb().unwrap_or(f64::NAN);
    f.wire_mb = s.wire as f64 / 1e6;
    s.close();
    r.close();
    Ok(f)
}

pub fn run(o: &Opts, out: &mut Outcome) -> Tracer {
    let mut t = Tracer::new(o.trace);
    let Some(bin) = o.serve_bin.clone() else {
        out.op(false, || "serve_steer needs --serve-bin".to_string());
        return t;
    };
    let rounds = if o.quick { 5 } else { 32 };
    let min_sessions = if o.quick { 2 } else { 4 };
    let budget = Duration::from_secs_f64(o.seconds);
    let start = Instant::now();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut n = 0u64;
    while (n as usize) < min_sessions || start.elapsed() < budget {
        t.set_on(o.trace && n.is_multiple_of(2));
        let failed_before = out.failed;
        match session(&bin, o.seed, rounds, &mut t, out) {
            // A session with a failed check keeps no timing.
            Ok(f) if out.failed == failed_before => {
                if t.on() { &mut traced } else { &mut untraced }.push(f);
            }
            Ok(_) => {}
            Err(e) => out.op(false, || format!("session {n}: {e}")),
        }
        n += 1;
        if out.failed > 0 && n >= 2 {
            break;
        }
    }
    t.set_on(o.trace);
    out.stamp("shards_requested", 2);
    out.stamp("effective_shards", 2);
    out.stamp("speedup_base_vs_shards", "1 vs 2 effective");
    out.stamp("threads_requested", 2);
    out.stamp("threads_used", 2);
    out.stamp(
        "sessions",
        format!("{} untraced, {} traced", untraced.len(), traced.len()),
    );
    out.stamp("rounds_per_session", rounds);

    let Some(first) = untraced.first().or(traced.first()) else {
        return t;
    };
    let tree = match json::parse(first.last_telemetry.trim_end()) {
        Ok(v) => v.get("telemetry").cloned().unwrap_or(Json::Null),
        Err(e) => {
            out.op(false, || format!("telemetry reply: {e}"));
            Json::Null
        }
    };
    let horizon_ms = rounds * STEP_MS;
    let reps = |sessions: &[SessionFigures]| E2e::of(sessions.iter().map(|f| &f.rep));
    if !o.trace {
        reps(&untraced).set(out);
        let rss: Vec<f64> = untraced.iter().map(|f| f.peak_rss_mb).collect();
        out.set("peak_rss_mb", median(&rss));
        let (presented, sent) = crate::stream_counts(&tree);
        out.set("sim_delivered_frac", presented / sent);
        let h7 = inproc::restored_h7_p99(o.seed, RINGS, &first.last_checkpoint);
        out.op(h7.is_ok(), || {
            format!("restoring the session checkpoint in-process: {h7:?}")
        });
        out.set("sim_h7_p99_us", h7.unwrap_or(f64::NAN));
        return t;
    }

    E2e::set_overhead(&reps(&traced), &reps(&untraced), out);
    set_command_layers(&traced, out);
    for (name, v) in crate::model_counts(&tree) {
        out.set(name, v);
    }
    out.set(
        "sim.bus.events",
        first.final_status.map_or(0, |s| s.events) as f64,
    );
    inproc::serve_state_layers(
        o,
        RINGS,
        horizon_ms,
        rounds,
        &first.last_checkpoint,
        &mut t,
        out,
    );
    t
}

/// Sets the `serve.*` layer figures from traced sessions: each
/// command's median round trip, the wire volume and the restore rate.
fn set_command_layers(traced: &[SessionFigures], out: &mut Outcome) {
    for cmd in [
        "run",
        "telemetry",
        "checkpoint",
        "checkpoint_stream",
        "restore",
        "steer",
        "fork",
    ] {
        let name = format!("serve.{cmd}");
        let ms: Vec<f64> = traced.iter().flat_map(|f| f.replies_to(&name)).collect();
        out.set(&format!("{name}_ms"), median(&ms));
    }
    out.set(
        "serve.wire_mb",
        median(&traced.iter().map(|f| f.wire_mb).collect::<Vec<_>>()),
    );
    let hex_rates: Vec<f64> = traced
        .iter()
        .flat_map(|f| f.restore_hex_mb_per_s.iter().copied())
        .collect();
    out.set("serve.restore_hex_mb_per_s", median(&hex_rates));
}

/// Sessions of the `serve_steer` script that an in-process workload's
/// traced run plays for the `serve.*` layer figures.
const LAYER_SESSIONS: u64 = 2;

/// The `serve.*` layer figures for an in-process workload's traced run,
/// from `LAYER_SESSIONS` traced sessions of the `serve_steer` script
/// with every check of that workload.
pub fn command_layers(o: &Opts, t: &mut Tracer, out: &mut Outcome) {
    let Some(bin) = o.serve_bin.as_deref() else {
        out.op(false, || "the serve layer needs --serve-bin".to_string());
        return;
    };
    let rounds = if o.quick { 5 } else { 32 };
    let mut traced = Vec::new();
    for n in 0..LAYER_SESSIONS {
        let failed_before = out.failed;
        match session(bin, o.seed, rounds, t, out) {
            Ok(f) if out.failed == failed_before => traced.push(f),
            Ok(_) => {}
            Err(e) => out.op(false, || format!("serve session {n}: {e}")),
        }
    }
    if !traced.is_empty() {
        set_command_layers(&traced, out);
    }
}
