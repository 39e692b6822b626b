//! `ctms-serve` — a steerable simulation runtime on stdin/stdout (the
//! `serve` binary is [`run`] over the process's standard streams).
//!
//! The checkpoint layer (`ctms_core::checkpoint`) turns a run into a
//! value; this binary turns the simulator into a *service* over that
//! value: a driving process (a notebook, a sweep orchestrator, a CI
//! step) feeds line-oriented JSON commands on stdin and reads JSON
//! replies on stdout, one line each. Everything stderr is human-facing
//! commentary; stdout is protocol only.
//!
//! ## Session
//!
//! The first line selects the scenario:
//!
//! ```text
//! {"scenario": "case_a" | "case_b" | "chain", "seed": 42,
//!  "rings": 16, "shards": 4, "cascade_limit": 64}
//! ```
//!
//! `seed` defaults to 42; `rings` (chain only) to 16, at most
//! [`MAX_RINGS`]; `shards` to 1 (single-threaded). Single-ring
//! scenarios always run one shard regardless of `shards`, mirroring
//! `Topology::build_partitioned`; replies are byte-identical at any
//! shard count. `cascade_limit` overrides the
//! same-instant cascade bound — mostly useful for deliberately tripping
//! the typed error path.
//!
//! ## Commands
//!
//! ```text
//! {"cmd":"run","until_ms":N,"step_ms":M}   run to N ms (at most
//!                                          MAX_UNTIL_MS); with step_ms,
//!                                          emit a progress event per
//!                                          bounded step (streaming)
//! {"cmd":"telemetry"}                      full canonical metric tree
//! {"cmd":"checkpoint"}                     serialize state as hex
//! {"cmd":"checkpoint_stream"}              the same bytes as a stream
//!                                          of chunk events (bounded
//!                                          peak memory): one
//!                                          checkpoint_chunk line per
//!                                          chunk, then checkpoint_done;
//!                                          concatenating the "data"
//!                                          fields reproduces the
//!                                          "checkpoint" hex exactly
//! {"cmd":"restore","checkpoint":"<hex>"}   rebuild + restore; the hex
//!                                          may come from any session
//!                                          with the same scenario —
//!                                          any shard count
//! {"cmd":"steer","mutations":[...]}        apply mutations now
//! {"cmd":"fork","branches":[[...],...],"until_ms":N}
//!                                          checkpoint, fork one branch
//!                                          per mutation list on the
//!                                          sweep pool, report each
//!                                          branch's outcome
//! {"cmd":"quit"}                           exit
//! ```
//!
//! Mutations: `{"kind":"station_churn","ring":0}`,
//! `{"kind":"purge_storm","ring":0,"count":3}`,
//! `{"kind":"dma_stall","host":0,"extra_us":500}`. Only a one-shard
//! bus can inject (like `Bus::inject_ring`), so a sharded session
//! steers through the shard-agnostic snapshot round trip: checkpoint →
//! apply the mutations on a one-shard rebuild → restore the mutated
//! state into a fresh sharded build. The continuation is bit-identical
//! to steering the same state on one shard.
//!
//! Every reply carries `"ok"`; failures are reported as
//! `{"ok":false,"error":"..."}` and the session keeps serving.
//! Scheduling failures carry a machine-readable tag alongside the
//! prose: `{"ok":false,"kind":"overflow"|"cross_shard","at_ns":N,
//! "error":"..."}` — one kind per `CascadeError` variant. Input past
//! the session's limits is refused the same way, before it is parsed
//! or buffered whole: `{"ok":false,"kind":"line_too_long",
//! "error":"..."}` for a line longer than [`MAX_LINE_BYTES`] and
//! `{"ok":false,"kind":"too_deep","error":"..."}` for arrays and objects
//! nested deeper than [`MAX_DEPTH`]; a chain of more than [`MAX_RINGS`]
//! rings is refused with `"kind":"too_many_rings"` before it is built.
//! A number too large for the field it sets (a `cascade_limit` past
//! `u32`, a `step_ms` or `extra_us` whose nanoseconds overflow the
//! simulated clock) or past a session limit (an `until_ms` past
//! [`MAX_UNTIL_MS`], a purge `count` past [`MAX_PURGE_COUNT`]) is
//! refused with `"kind":"out_of_range"` instead of being truncated,
//! wrapped or run.
//! The
//! simulation is deterministic throughout: the same command script
//! against the same session line produces byte-identical stdout.

use ctms_core::{
    apply_mutations, fork, Bus, ForkSpec, Mutation, RingChainTestbed, Scenario, Testbed,
};
use ctms_router::BridgeKind;
use ctms_sim::telemetry::{fnv1a, json_string};
use ctms_sim::{ChunkSink, Dur, PersistError, SimTime};
use std::io::{BufRead, Write};

// --- Minimal JSON ---------------------------------------------------------
//
// The workspace deliberately has no serde dependency (PERSIST is a
// hand-rolled canonical format for the same reason); the command
// protocol is small enough for a ~100-line recursive-descent parser.

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Set when the nesting limit stopped the parse.
    too_deep: bool,
}

/// Why a line is not a command.
#[derive(Debug)]
enum ParseError {
    /// Not JSON.
    Syntax(String),
    /// JSON nested deeper than the session allows.
    TooDeep(String),
}

fn parse_json(s: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
        too_deep: false,
    };
    let parsed = p.value().and_then(|v| {
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    });
    parsed.map_err(|e| {
        if p.too_deep {
            ParseError::TooDeep(e)
        } else {
            ParseError::Syntax(e)
        }
    })
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' | b'[' if self.depth == MAX_DEPTH => {
                // Recursion stops here, before the stack does.
                self.too_deep = true;
                Err(format!(
                    "nesting deeper than {MAX_DEPTH} at offset {}",
                    self.pos
                ))
            }
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            b'n' => self.keyword("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected '{}' at offset {}",
                other as char, self.pos
            )),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or("unsupported \\u codepoint".to_string())?,
                            );
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 passes through untouched; the
                    // input line was already validated as UTF-8.
                    out.push(b as char);
                    if b >= 0x80 {
                        // Re-take the full scalar from the source.
                        out.pop();
                        let start = self.pos - 1;
                        let s = std::str::from_utf8(&self.bytes[start..])
                            .map_err(|_| "bad utf-8".to_string())?;
                        let c = s.chars().next().ok_or("bad utf-8".to_string())?;
                        out.push(c);
                        self.pos = start + c.len_utf8();
                    }
                }
            }
        }
    }

    /// Parses one array or object one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got '{}'", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            entries.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                other => return Err(format!("expected ',' or '}}', got '{}'", other as char)),
            }
        }
    }
}

// --- Hex checkpoints ------------------------------------------------------

fn push_hex(dst: &mut String, bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    dst.reserve(bytes.len() * 2);
    for &b in bytes {
        dst.push(DIGITS[(b >> 4) as usize] as char);
        dst.push(DIGITS[(b & 0xF) as usize] as char);
    }
}

/// Streams a checkpoint's hex onto an open reply line, one chunk at a
/// time: peak memory is one chunk's hex, not snapshot-plus-full-hex
/// (the monolithic `to_hex` reply doubled the peak). The caller writes
/// the JSON prefix and suffix around it.
struct HexLineSink<'a, W: Write> {
    out: &'a mut W,
    hex: String,
}

impl<W: Write> ChunkSink for HexLineSink<'_, W> {
    fn chunk(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.hex.clear();
        push_hex(&mut self.hex, bytes);
        write_or_exit(self.out, self.hex.as_bytes());
        Ok(())
    }
}

/// Emits each chunk as its own `checkpoint_chunk` reply line; the
/// caller follows up with the `checkpoint_done` summary. Concatenating
/// every `data` field reproduces the monolithic checkpoint hex.
struct ChunkEventSink<'a, W: Write> {
    out: &'a mut W,
    hex: String,
    seq: u64,
}

impl<W: Write> ChunkSink for ChunkEventSink<'_, W> {
    fn chunk(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.hex.clear();
        push_hex(&mut self.hex, bytes);
        let line = format!(
            "{{\"ok\":true,\"event\":\"checkpoint_chunk\",\"seq\":{},\"data\":\"{}\"}}\n",
            self.seq, self.hex
        );
        write_or_exit(self.out, line.as_bytes());
        self.seq += 1;
        Ok(())
    }
}

/// Writes raw bytes onto the reply stream with the same broken-pipe
/// policy as [`emit`]: if the client went away, exit quietly.
fn write_or_exit(out: &mut impl Write, bytes: &[u8]) {
    if out.write_all(bytes).is_err() {
        std::process::exit(0);
    }
}

fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("hex checkpoint has odd length".to_string());
    }
    (0..s.len() / 2)
        .map(|i| {
            u8::from_str_radix(&s[2 * i..2 * i + 2], 16)
                .map_err(|_| format!("bad hex at offset {}", 2 * i))
        })
        .collect()
}

// --- Session --------------------------------------------------------------

#[derive(Clone, Debug)]
enum ScenarioKind {
    CaseA,
    CaseB,
    Chain,
}

/// Most rings a `chain` session may ask for; a larger chain is refused
/// with a `too_many_rings` error before it is built. 10^4 rings is the
/// largest graph the `perf --scale` capacity section exercises.
pub const MAX_RINGS: u64 = 10_000;

/// A refused session line or command: the prose, plus a
/// machine-readable kind when the input crossed one of the session's
/// limits.
#[derive(Debug)]
struct Refusal {
    kind: Option<&'static str>,
    msg: String,
}

impl From<String> for Refusal {
    fn from(msg: String) -> Self {
        Refusal { kind: None, msg }
    }
}

impl From<&str> for Refusal {
    fn from(msg: &str) -> Self {
        Refusal::from(msg.to_string())
    }
}

/// The refusal for a number too large for the field `key` it sets.
fn out_of_range(key: &str, n: u64) -> Refusal {
    Refusal {
        kind: Some("out_of_range"),
        msg: format!("\"{key}\" {n} is out of range"),
    }
}

/// `ms` milliseconds as simulated nanoseconds, refused when they
/// overflow the clock.
fn ms_to_ns(key: &str, ms: u64) -> Result<u64, Refusal> {
    ms.checked_mul(1_000_000)
        .ok_or_else(|| out_of_range(key, ms))
}

/// Latest absolute horizon a `run` or `fork` may ask for, in simulated
/// milliseconds: one simulated hour. A larger `until_ms` is refused with
/// an `out_of_range` error, so one line cannot keep a session busy for
/// months (case A simulates 10 minutes in about half a second of wall
/// clock).
pub const MAX_UNTIL_MS: u64 = 3_600_000;

/// Most purge sequences one `purge_storm` mutation may inject; a larger
/// `count` is refused with an `out_of_range` error. Each purge is
/// injected and recorded one by one, so the bound caps the work (and
/// the measurement records) of one steer.
pub const MAX_PURGE_COUNT: u64 = 10_000;

/// The refusal for a number past the session's limit `max` for `key`.
fn over_limit(key: &str, n: u64, max: u64) -> Refusal {
    Refusal {
        kind: Some("out_of_range"),
        msg: format!("\"{key}\" {n} exceeds the limit of {max}"),
    }
}

/// A `run`/`fork` horizon of `ms` milliseconds as a simulated instant,
/// refused past [`MAX_UNTIL_MS`].
fn parse_until(ms: u64) -> Result<SimTime, Refusal> {
    if ms > MAX_UNTIL_MS {
        return Err(over_limit("until_ms", ms, MAX_UNTIL_MS));
    }
    Ok(SimTime::from_ms(ms))
}

#[derive(Clone, Debug)]
struct Spec {
    kind: ScenarioKind,
    seed: u64,
    rings: usize,
    shards: usize,
    cascade_limit: Option<u32>,
}

impl Spec {
    fn parse(v: &Json) -> Result<Spec, Refusal> {
        let kind = match v
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("session needs \"scenario\"")?
        {
            "case_a" => ScenarioKind::CaseA,
            "case_b" => ScenarioKind::CaseB,
            "chain" => ScenarioKind::Chain,
            other => return Err(format!("unknown scenario \"{other}\"").into()),
        };
        let rings = v.get("rings").and_then(Json::as_u64).unwrap_or(16);
        if matches!(kind, ScenarioKind::Chain) {
            if rings < 2 {
                return Err("chain needs rings >= 2".into());
            }
            if rings > MAX_RINGS {
                return Err(Refusal {
                    kind: Some("too_many_rings"),
                    msg: format!("chain of {rings} rings exceeds the {MAX_RINGS}-ring limit"),
                });
            }
        }
        let cascade_limit = match v.get("cascade_limit").and_then(Json::as_u64) {
            Some(n) => Some(u32::try_from(n.max(1)).map_err(|_| out_of_range("cascade_limit", n))?),
            None => None,
        };
        Ok(Spec {
            kind,
            seed: v.get("seed").and_then(Json::as_u64).unwrap_or(42),
            rings: rings as usize,
            shards: v.get("shards").and_then(Json::as_u64).unwrap_or(1) as usize,
            cascade_limit,
        })
    }

    fn scenario(&self) -> Scenario {
        let mut sc = match self.kind {
            ScenarioKind::CaseA => Scenario::test_case_a(self.seed),
            ScenarioKind::CaseB => Scenario::test_case_b(self.seed),
            ScenarioKind::Chain => Scenario::scaled_chain(self.seed),
        };
        if let Some(limit) = self.cascade_limit {
            sc.cascade_limit = limit;
        }
        sc
    }

    /// The session's bus at its shard count (single-ring scenarios run
    /// one shard at any count).
    fn build(&self) -> Bus {
        self.build_on(self.shards)
    }

    /// The session's bus on `shards` shards; checkpoints are
    /// shard-agnostic, so any build restores snapshots from any other.
    fn build_on(&self, shards: usize) -> Bus {
        let sc = self.scenario();
        match self.kind {
            ScenarioKind::CaseA | ScenarioKind::CaseB => Testbed::ctms(&sc).into_bus(),
            ScenarioKind::Chain => RingChainTestbed::chain_sharded(
                &sc,
                BridgeKind::cut_through_bridge(),
                self.rings,
                shards,
            )
            .into_bus(),
        }
    }
}

fn parse_mutation(v: &Json) -> Result<Mutation, Refusal> {
    let need = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("mutation needs numeric \"{key}\""))
    };
    match v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("mutation needs \"kind\"")?
    {
        "station_churn" => Ok(Mutation::StationChurn {
            ring: need("ring")? as usize,
        }),
        "purge_storm" => {
            let count = need("count")?;
            if count > MAX_PURGE_COUNT {
                return Err(over_limit("count", count, MAX_PURGE_COUNT));
            }
            Ok(Mutation::PurgeStorm {
                ring: need("ring")? as usize,
                count: count as u32,
            })
        }
        "dma_stall" => {
            let us = need("extra_us")?;
            Ok(Mutation::DmaStall {
                host: need("host")? as usize,
                extra: us
                    .checked_mul(1_000)
                    .map(Dur::from_ns)
                    .ok_or_else(|| out_of_range("extra_us", us))?,
            })
        }
        other => Err(format!("unknown mutation kind \"{other}\"").into()),
    }
}

fn parse_mutations(v: &Json) -> Result<Vec<Mutation>, Refusal> {
    v.as_arr()
        .ok_or("\"mutations\" must be an array")?
        .iter()
        .map(parse_mutation)
        .collect()
}

// --- Replies --------------------------------------------------------------

fn emit(out: &mut impl Write, line: &str) {
    // A broken pipe means the client went away; exit quietly.
    if writeln!(out, "{line}").is_err() {
        std::process::exit(0);
    }
    let _ = out.flush();
}

fn emit_err(out: &mut impl Write, msg: &str) {
    emit(
        out,
        &format!("{{\"ok\":false,\"error\":{}}}", json_string(msg)),
    );
}

/// A refusal as an error line, kind-tagged when it has a kind.
fn emit_refusal(out: &mut impl Write, r: &Refusal) {
    match r.kind {
        Some(kind) => emit_kind_err(out, kind, &r.msg),
        None => emit_err(out, &r.msg),
    }
}

/// An input refusal as a machine-readable error line, tagged like the
/// scheduling failures below.
fn emit_kind_err(out: &mut impl Write, kind: &str, msg: &str) {
    emit(
        out,
        &format!(
            "{{\"ok\":false,\"kind\":{},\"error\":{}}}",
            json_string(kind),
            json_string(msg)
        ),
    );
}

/// A scheduling failure as a machine-readable error line: `kind` names
/// the typed [`CascadeError`] variant (a same-instant cascade overflow
/// or a cross-shard lookahead violation) so clients can branch without
/// parsing prose, and the session keeps serving — the failure poisons
/// the simulation, not the process.
fn emit_cascade_err(out: &mut impl Write, e: &ctms_sim::CascadeError) {
    let kind = match e {
        ctms_sim::CascadeError::Overflow { .. } => "overflow",
        ctms_sim::CascadeError::CrossShard { .. } => "cross_shard",
    };
    emit(
        out,
        &format!(
            "{{\"ok\":false,\"kind\":{},\"at_ns\":{},\"error\":{}}}",
            json_string(kind),
            e.at().as_ns(),
            json_string(&e.to_string())
        ),
    );
}

fn status_line(bus: &Bus) -> String {
    let presented: usize = bus
        .measure_parts()
        .iter()
        .map(|m| m.presented().len())
        .sum();
    let purges: usize = bus
        .measure_parts()
        .iter()
        .map(|m| m.purge_starts().len())
        .sum();
    format!(
        "\"now_ms\":{},\"events\":{},\"presented\":{presented},\"purge_starts\":{purges}",
        bus.now().as_ns() / 1_000_000,
        bus.events()
    )
}

// --- Input ----------------------------------------------------------------

/// Longest input line a session reads, in bytes; a longer line is
/// refused with a `line_too_long` error before it is buffered whole. A
/// `restore` line carries a checkpoint as hex, two characters per
/// snapshot byte, so this bounds a restorable snapshot at half of it.
pub const MAX_LINE_BYTES: usize = 256 << 20;

/// Deepest array/object nesting a line may use; deeper input is refused
/// with a `too_deep` error before the parser's recursion exhausts the
/// stack. The deepest valid command (`fork`) nests four levels.
pub const MAX_DEPTH: usize = 64;

/// One line of input.
enum Line {
    /// A non-empty line, trimmed.
    Text(String),
    /// A line of this many bytes, longer than the limit; its bytes past
    /// the limit were skipped, never buffered.
    TooLong(usize),
}

/// The session's input lines: blank lines and lines that are not UTF-8
/// are skipped, lines longer than `max` are reported by length.
struct Lines<R> {
    input: R,
    max: usize,
    buf: Vec<u8>,
}

impl<R: BufRead> Iterator for Lines<R> {
    type Item = Line;

    fn next(&mut self) -> Option<Line> {
        loop {
            self.buf.clear();
            let mut len = 0usize;
            let mut ended = false;
            while !ended {
                let chunk = match self.input.fill_buf() {
                    Ok(c) => c,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return None,
                };
                if chunk.is_empty() {
                    if len == 0 {
                        return None; // end of input
                    }
                    break;
                }
                let (take, used) = match chunk.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        ended = true;
                        (i, i + 1)
                    }
                    None => (chunk.len(), chunk.len()),
                };
                len += take;
                if len <= self.max {
                    self.buf.extend_from_slice(&chunk[..take]);
                } else if !self.buf.is_empty() {
                    self.buf = Vec::new(); // drop what an over-long line had buffered
                }
                self.input.consume(used);
            }
            if len > self.max {
                return Some(Line::TooLong(len));
            }
            if let Ok(text) = std::str::from_utf8(&self.buf) {
                let t = text.trim();
                if !t.is_empty() {
                    return Some(Line::Text(t.to_string()));
                }
            }
        }
    }
}

/// Parses one line as JSON, or reports why it is not a command: a
/// kind-tagged line for input past the limits, `bad {what} line: ...`
/// otherwise.
fn parse_line(out: &mut impl Write, line: Line, max_line_bytes: usize, what: &str) -> Option<Json> {
    let text = match line {
        Line::Text(text) => text,
        Line::TooLong(len) => {
            emit_kind_err(
                out,
                "line_too_long",
                &format!("{what} line of {len} bytes exceeds the {max_line_bytes}-byte limit"),
            );
            return None;
        }
    };
    match parse_json(&text) {
        Ok(v) => Some(v),
        Err(ParseError::TooDeep(e)) => {
            emit_kind_err(out, "too_deep", &format!("bad {what} line: {e}"));
            None
        }
        Err(ParseError::Syntax(e)) => {
            emit_err(out, &format!("bad {what} line: {e}"));
            None
        }
    }
}

// --- Main loop ------------------------------------------------------------

/// Serves one session: reads the session line and then commands from
/// `input`, one per line, and writes one reply line each to `out`.
/// Returns at end of input or on `quit`.
pub fn run(input: impl BufRead, out: &mut impl Write) {
    run_with_line_cap(input, out, MAX_LINE_BYTES)
}

/// [`run`] with the line-length cap lowered to `max_line_bytes`. Only
/// for tests of the `line_too_long` path: the real cap can be told
/// apart from a line one byte longer only after 256 MiB are buffered.
#[doc(hidden)]
pub fn run_with_line_cap(input: impl BufRead, out: &mut impl Write, max_line_bytes: usize) {
    let mut lines = Lines {
        input,
        max: max_line_bytes,
        buf: Vec::new(),
    };

    let spec = loop {
        let Some(line) = lines.next() else {
            return; // EOF before a session line: nothing to do.
        };
        let Some(v) = parse_line(out, line, max_line_bytes, "session") else {
            continue;
        };
        match Spec::parse(&v) {
            Ok(spec) => break spec,
            Err(mut r) => {
                r.msg = format!("bad session line: {}", r.msg);
                emit_refusal(out, &r);
            }
        }
    };
    let mut bus = spec.build();
    emit(
        out,
        &format!(
            "{{\"ok\":true,\"event\":\"ready\",\"shards\":{},{}}}",
            bus.shard_count(),
            status_line(&bus)
        ),
    );

    for line in lines {
        let Some(cmd) = parse_line(out, line, max_line_bytes, "command") else {
            continue;
        };
        match cmd.get("cmd").and_then(Json::as_str) {
            Some("run") => {
                let Some(until_ms) = cmd.get("until_ms").and_then(Json::as_u64) else {
                    emit_err(out, "run needs numeric \"until_ms\"");
                    continue;
                };
                let step = cmd.get("step_ms").and_then(Json::as_u64).filter(|&s| s > 0);
                let times = parse_until(until_ms).and_then(|until| {
                    let step = step.map(|ms| ms_to_ns("step_ms", ms)).transpose()?;
                    Ok((until, step))
                });
                let (until, step_ns) = match times {
                    Ok(t) => t,
                    Err(r) => {
                        emit_refusal(out, &r);
                        continue;
                    }
                };
                if until < bus.now() {
                    emit_err(out, "\"until_ms\" is in the simulated past");
                    continue;
                }
                let mut failed = false;
                while bus.now() < until {
                    let next = match step_ns {
                        Some(ns) => {
                            SimTime::from_ns(bus.now().as_ns().saturating_add(ns)).min(until)
                        }
                        None => until,
                    };
                    if let Err(e) = bus.try_run_until(next) {
                        emit_cascade_err(out, &e);
                        failed = true;
                        break;
                    }
                    if step_ns.is_some() && bus.now() < until {
                        emit(
                            out,
                            &format!(
                                "{{\"ok\":true,\"event\":\"progress\",{}}}",
                                status_line(&bus)
                            ),
                        );
                    }
                }
                if !failed {
                    emit(
                        out,
                        &format!("{{\"ok\":true,\"event\":\"ran\",{}}}", status_line(&bus)),
                    );
                }
            }
            Some("telemetry") => {
                // The canonical tree is pretty-printed; collapse it to
                // one line so the reply stays a single stdout record.
                // Safe because the emitter escapes every control
                // character inside strings — no literal newlines exist.
                let tree: String = bus.telemetry_json().lines().map(str::trim_start).collect();
                emit(out, &format!("{{\"ok\":true,\"telemetry\":{tree}}}"));
            }
            Some("checkpoint") => {
                // The hex streams straight onto the reply line chunk by
                // chunk; `bytes` (known only at the end) follows the hex.
                write_or_exit(out, b"{\"ok\":true,\"checkpoint\":\"");
                let mut sink = HexLineSink {
                    out: &mut *out,
                    hex: String::new(),
                };
                let (payload, _) = bus
                    .checkpoint_stream(&mut sink)
                    .expect("in-memory persist cannot fail");
                write_or_exit(out, format!("\",\"bytes\":{payload}}}\n").as_bytes());
                let _ = out.flush();
            }
            Some("checkpoint_stream") => {
                let mut sink = ChunkEventSink {
                    out: &mut *out,
                    hex: String::new(),
                    seq: 0,
                };
                let (payload, chunks) = bus
                    .checkpoint_stream(&mut sink)
                    .expect("in-memory persist cannot fail");
                emit(
                    out,
                    &format!(
                        "{{\"ok\":true,\"event\":\"checkpoint_done\",\"chunks\":{chunks},\"bytes\":{payload}}}"
                    ),
                );
            }
            Some("restore") => {
                let Some(hex) = cmd.get("checkpoint").and_then(Json::as_str) else {
                    emit_err(out, "restore needs \"checkpoint\" hex");
                    continue;
                };
                let snapshot = match from_hex(hex) {
                    Ok(b) => b,
                    Err(e) => {
                        emit_err(out, &e);
                        continue;
                    }
                };
                // Restore lands on a fresh rebuild; the old bus is only
                // replaced once the snapshot is verified applicable.
                let mut fresh = spec.build();
                match fresh.restore_checkpoint(&snapshot) {
                    Ok(()) => {
                        bus = fresh;
                        emit(
                            out,
                            &format!(
                                "{{\"ok\":true,\"event\":\"restored\",{}}}",
                                status_line(&bus)
                            ),
                        );
                    }
                    Err(e) => emit_err(out, &format!("restore failed: {e}")),
                }
            }
            Some("steer") => {
                let Some(muts) = cmd.get("mutations") else {
                    emit_err(out, "steer needs \"mutations\"");
                    continue;
                };
                let muts = match parse_mutations(muts) {
                    Ok(m) => m,
                    Err(r) => {
                        emit_refusal(out, &r);
                        continue;
                    }
                };
                let steered = if bus.shard_count() == 1 {
                    apply_mutations(&mut bus, &muts)
                } else {
                    // Sharded session: only a one-shard bus can inject,
                    // so steer through the shard-agnostic snapshot round
                    // trip — checkpoint here, mutate on a one-shard
                    // rebuild, restore the mutated state into a fresh
                    // sharded build.
                    let snapshot = bus.checkpoint();
                    let mut single = spec.build_on(1);
                    single
                        .restore_checkpoint(&snapshot)
                        .and_then(|()| apply_mutations(&mut single, &muts))
                        .and_then(|()| {
                            let mutated = single.checkpoint();
                            let mut fresh = spec.build();
                            fresh.restore_checkpoint(&mutated).map(|()| {
                                bus = fresh;
                            })
                        })
                };
                match steered {
                    Ok(()) => emit(
                        out,
                        &format!(
                            "{{\"ok\":true,\"event\":\"steered\",\"applied\":{},{}}}",
                            muts.len(),
                            status_line(&bus)
                        ),
                    ),
                    Err(e) => emit_err(out, &format!("steer failed: {e}")),
                }
            }
            Some("fork") => {
                let Some(until_ms) = cmd.get("until_ms").and_then(Json::as_u64) else {
                    emit_err(out, "fork needs numeric \"until_ms\"");
                    continue;
                };
                let run_to = match parse_until(until_ms) {
                    Ok(t) => t,
                    Err(r) => {
                        emit_refusal(out, &r);
                        continue;
                    }
                };
                if run_to < bus.now() {
                    emit_err(out, "\"until_ms\" is in the simulated past");
                    continue;
                }
                let branches: Result<Vec<ForkSpec>, Refusal> = match cmd
                    .get("branches")
                    .and_then(Json::as_arr)
                {
                    Some(lists) if !lists.is_empty() => lists
                        .iter()
                        .map(|l| {
                            Ok(ForkSpec {
                                mutations: parse_mutations(l)?,
                                run_to,
                            })
                        })
                        .collect(),
                    _ => Err("fork needs a non-empty \"branches\" array of mutation lists".into()),
                };
                let branches = match branches {
                    Ok(b) => b,
                    Err(r) => {
                        emit_refusal(out, &r);
                        continue;
                    }
                };
                let n = branches.len();
                let snapshot = bus.checkpoint();
                let build_spec = spec.clone();
                let result = fork(
                    snapshot,
                    branches,
                    ctms_sim::default_threads(n),
                    move || build_spec.build_on(1),
                    |_idx, mut branch: Bus| {
                        let tree = branch.telemetry_json();
                        let m = branch.measurements();
                        format!(
                            "{{\"telemetry_digest\":\"{:#018X}\",\"now_ms\":{},\"events\":{},\
                             \"presented\":{},\"purge_starts\":{},\"drops\":{}}}",
                            fnv1a(tree.as_bytes()),
                            branch.now().as_ns() / 1_000_000,
                            branch.events(),
                            m.presented().len(),
                            m.purge_starts().len(),
                            m.drops().len()
                        )
                    },
                );
                match result {
                    Ok(summaries) => emit(
                        out,
                        &format!(
                            "{{\"ok\":true,\"event\":\"forked\",\"branches\":[{}]}}",
                            summaries.join(",")
                        ),
                    ),
                    Err(e) => emit_err(out, &format!("fork failed: {e}")),
                }
            }
            Some("quit") => {
                emit(out, "{\"ok\":true,\"event\":\"bye\"}");
                return;
            }
            Some(other) => emit_err(out, &format!("unknown command \"{other}\"")),
            None => emit_err(out, "command needs a \"cmd\" string"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctms_sim::{CascadeError, NodeId};

    fn line(e: &CascadeError) -> String {
        let mut buf = Vec::new();
        emit_cascade_err(&mut buf, e);
        String::from_utf8(buf).unwrap()
    }

    /// One machine-readable `kind` per `CascadeError` variant, with the
    /// failure instant stamped so clients can place the error on the
    /// simulation timeline without parsing the prose.
    #[test]
    fn cascade_errors_emit_kind_tagged_json() {
        let overflow = CascadeError::overflow(SimTime::from_ns(1_500), NodeId(7), 65);
        let got = line(&overflow);
        assert!(
            got.starts_with("{\"ok\":false,\"kind\":\"overflow\",\"at_ns\":1500,"),
            "{got}"
        );
        assert!(got.contains("\"error\":\"cascade guard tripped"), "{got}");

        let cross = CascadeError::CrossShard {
            at: SimTime::from_ns(2_000),
            src: NodeId(1),
            dst: NodeId(9),
            src_shard: 0,
            dst_shard: 1,
        };
        let got = line(&cross);
        assert!(
            got.starts_with("{\"ok\":false,\"kind\":\"cross_shard\",\"at_ns\":2000,"),
            "{got}"
        );
        assert!(got.contains("protocol violation"), "{got}");
    }

    /// The session line accepts `cascade_limit`, and refuses one that
    /// `u32` cannot hold instead of truncating it.
    #[test]
    fn spec_parses_cascade_limit() {
        let v = parse_json("{\"scenario\":\"chain\",\"cascade_limit\":3}").unwrap();
        let spec = Spec::parse(&v).unwrap();
        assert_eq!(spec.cascade_limit, Some(3));
        assert_eq!(spec.scenario().cascade_limit, 3);

        let v = parse_json("{\"scenario\":\"chain\"}").unwrap();
        assert_eq!(Spec::parse(&v).unwrap().cascade_limit, None);

        let v = parse_json("{\"scenario\":\"chain\",\"cascade_limit\":4294967296}").unwrap();
        assert_eq!(Spec::parse(&v).unwrap_err().kind, Some("out_of_range"));
    }

    /// The horizon cap itself is a valid horizon; one millisecond more
    /// is refused.
    #[test]
    fn horizons_are_capped_at_max_until_ms() {
        assert_eq!(
            parse_until(MAX_UNTIL_MS).unwrap(),
            SimTime::from_secs(3_600)
        );
        let r = parse_until(MAX_UNTIL_MS + 1).unwrap_err();
        assert_eq!(r.kind, Some("out_of_range"));
        assert_eq!(r.msg, "\"until_ms\" 3600001 exceeds the limit of 3600000");
    }
}
