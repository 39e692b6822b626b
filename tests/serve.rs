//! Hostile input to the `serve` session: a line nested deeper than the
//! session's limit, a line longer than it, a chain with more rings than
//! it, and a number too large for the field it sets each get one
//! kind-tagged error reply, and the session goes on serving valid
//! commands — no stack overflow, no unbounded buffering, no truncated
//! or wrapped values.

use ctms_bench::serve::{
    run, run_with_line_cap, MAX_DEPTH, MAX_PURGE_COUNT, MAX_RINGS, MAX_UNTIL_MS,
};

/// Collects a session's reply lines from its output bytes.
fn lines(out: Vec<u8>) -> Vec<String> {
    String::from_utf8(out)
        .expect("replies are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Runs one session over `input` and returns its reply lines.
fn replies(input: impl std::io::BufRead) -> Vec<String> {
    let mut out = Vec::new();
    run(input, &mut out);
    lines(out)
}

const SESSION: &str = "{\"scenario\":\"case_a\",\"seed\":42}\n";
const RUN: &str = "{\"cmd\":\"run\",\"until_ms\":10}\n";
const QUIT: &str = "{\"cmd\":\"quit\"}\n";

/// A `cmd` value nested `depth` arrays deep: `[[...[1]...]]`.
fn nested_cmd(depth: usize) -> String {
    format!(
        "{{\"cmd\":{}1{}}}\n",
        "[".repeat(depth - 1),
        "]".repeat(depth - 1)
    )
}

#[test]
fn deep_and_long_lines_get_one_error_each_and_the_session_survives() {
    let deep = "[".repeat(200_000) + "\n";

    // Deep nesting before the session line and as a command.
    let input = format!("{deep}{SESSION}{deep}{RUN}{QUIT}");
    let got = replies(input.as_bytes());
    assert_eq!(got.len(), 5, "{got:#?}");
    for k in [0, 2] {
        assert!(
            got[k].starts_with("{\"ok\":false,\"kind\":\"too_deep\",\"error\":"),
            "{}",
            got[k]
        );
    }
    assert!(got[1].contains("\"event\":\"ready\""), "{}", got[1]);
    assert!(
        got[3].starts_with("{\"ok\":true,\"event\":\"ran\",\"now_ms\":10,"),
        "{}",
        got[3]
    );
    assert_eq!(got[4], "{\"ok\":true,\"event\":\"bye\"}");

    // A line one byte over the cap, streamed rather than built. The
    // session buffers a line up to the cap before it can tell, so this
    // leg runs at a 64 KiB cap instead of the real 256 MiB.
    let cap = 64 << 10;
    let long = std::io::Read::take(std::io::repeat(b'x'), cap as u64 + 1);
    let tail = format!("\n{RUN}{QUIT}");
    let input = std::io::Read::chain(
        std::io::Read::chain(SESSION.as_bytes(), long),
        tail.as_bytes(),
    );
    let mut out = Vec::new();
    run_with_line_cap(std::io::BufReader::new(input), &mut out, cap);
    let got = lines(out);
    assert_eq!(got.len(), 4, "{got:#?}");
    assert_eq!(
        got[1],
        format!(
            "{{\"ok\":false,\"kind\":\"line_too_long\",\"error\":\"command line of {} bytes exceeds the {cap}-byte limit\"}}",
            cap + 1
        )
    );
    assert!(
        got[2].contains("\"event\":\"ran\",\"now_ms\":10,"),
        "{}",
        got[2]
    );
}

#[test]
fn input_at_the_limits_is_still_served() {
    // Nesting exactly at the limit parses (and is rejected only as an
    // unknown command); one level more is `too_deep`.
    let input = format!(
        "{SESSION}{}{}{QUIT}",
        nested_cmd(MAX_DEPTH),
        nested_cmd(MAX_DEPTH + 1)
    );
    let got = replies(input.as_bytes());
    assert_eq!(got.len(), 4, "{got:#?}");
    assert_eq!(
        got[1],
        "{\"ok\":false,\"error\":\"command needs a \\\"cmd\\\" string\"}"
    );
    assert!(
        got[2].starts_with("{\"ok\":false,\"kind\":\"too_deep\",\"error\":"),
        "{}",
        got[2]
    );
    assert_eq!(got[3], "{\"ok\":true,\"event\":\"bye\"}");

    // A line exactly at the length cap is read.
    let padded = format!("{{\"cmd\":\"quit\"}}{}\n", " ".repeat(64 - 14));
    let mut out = Vec::new();
    run_with_line_cap(format!("{SESSION}{padded}").as_bytes(), &mut out, 64);
    let got = lines(out);
    assert_eq!(got.len(), 2, "{got:#?}");
    assert_eq!(got[1], "{\"ok\":true,\"event\":\"bye\"}");
}

/// A session line and then `commands`, one per line, ending in `quit`.
fn session_replies(session: &str, commands: &[&str]) -> Vec<String> {
    let mut input = format!("{session}\n");
    for c in commands {
        input.push_str(c);
        input.push('\n');
    }
    input.push_str(QUIT);
    replies(input.as_bytes())
}

fn assert_out_of_range(reply: &str, key: &str) {
    assert!(
        reply.starts_with("{\"ok\":false,\"kind\":\"out_of_range\",\"error\":")
            && reply.contains(&format!("\\\"{key}\\\"")),
        "{reply}"
    );
}

#[test]
fn cascade_limit_past_u32_is_refused() {
    // 2^32 would truncate to a zero limit; the session line is refused
    // and the next one is served.
    let input =
        format!("{{\"scenario\":\"case_a\",\"cascade_limit\":4294967296}}\n{SESSION}{RUN}{QUIT}");
    let got = replies(input.as_bytes());
    assert_eq!(got.len(), 4, "{got:#?}");
    assert_out_of_range(&got[0], "cascade_limit");
    assert!(got[1].contains("\"event\":\"ready\""), "{}", got[1]);
    assert!(
        got[2].contains("\"event\":\"ran\",\"now_ms\":10,"),
        "{}",
        got[2]
    );
}

#[test]
fn times_past_the_simulated_clock_are_refused() {
    // Each of these overflows u64 nanoseconds; none may wrap into a
    // short run, and the session keeps serving.
    let got = session_replies(
        SESSION,
        &[
            "{\"cmd\":\"run\",\"until_ms\":18446744073710}",
            "{\"cmd\":\"run\",\"until_ms\":10,\"step_ms\":18446744073710}",
            "{\"cmd\":\"fork\",\"until_ms\":18446744073710,\"branches\":[[]]}",
            RUN.trim_end(),
        ],
    );
    assert_eq!(got.len(), 6, "{got:#?}");
    assert_out_of_range(&got[1], "until_ms");
    assert_out_of_range(&got[2], "step_ms");
    assert_out_of_range(&got[3], "until_ms");
    assert!(
        got[4].contains("\"event\":\"ran\",\"now_ms\":10,"),
        "{}",
        got[4]
    );
}

#[test]
fn dma_stall_past_the_simulated_clock_is_refused() {
    let got = session_replies(
        SESSION,
        &[
            "{\"cmd\":\"steer\",\"mutations\":[{\"kind\":\"dma_stall\",\"host\":0,\"extra_us\":18446744073709552}]}",
            "{\"cmd\":\"steer\",\"mutations\":[{\"kind\":\"dma_stall\",\"host\":0,\"extra_us\":500}]}",
        ],
    );
    assert_eq!(got.len(), 4, "{got:#?}");
    assert_out_of_range(&got[1], "extra_us");
    assert!(got[2].contains("\"event\":\"steered\""), "{}", got[2]);
}

#[test]
fn purge_storm_count_past_u32_is_refused() {
    // 2^32 + 3 would truncate to a three-purge storm.
    let got = session_replies(
        SESSION,
        &[
            "{\"cmd\":\"steer\",\"mutations\":[{\"kind\":\"purge_storm\",\"ring\":0,\"count\":4294967299}]}",
            RUN.trim_end(),
        ],
    );
    assert_eq!(got.len(), 4, "{got:#?}");
    assert_out_of_range(&got[1], "count");
    assert!(
        got[2].contains("\"event\":\"ran\",\"now_ms\":10,")
            && got[2].contains("\"purge_starts\":0"),
        "{}",
        got[2]
    );
}

#[test]
fn chains_are_capped_at_max_rings() {
    // One ring over the cap is refused before anything is built; the
    // cap itself is served.
    let over = format!("{{\"scenario\":\"chain\",\"rings\":{}}}", MAX_RINGS + 1);
    let at = format!("{{\"scenario\":\"chain\",\"rings\":{MAX_RINGS}}}");
    let got = replies(format!("{over}\n{at}\n{QUIT}").as_bytes());
    assert_eq!(got.len(), 3, "{got:#?}");
    assert_eq!(
        got[0],
        format!(
            "{{\"ok\":false,\"kind\":\"too_many_rings\",\"error\":\"bad session line: chain of {} rings exceeds the {MAX_RINGS}-ring limit\"}}",
            MAX_RINGS + 1
        )
    );
    assert!(got[1].contains("\"event\":\"ready\""), "{}", got[1]);
    assert_eq!(got[2], "{\"ok\":true,\"event\":\"bye\"}");
}

#[test]
fn horizons_past_max_until_ms_are_refused() {
    // One millisecond past the one-hour cap, as a run and as a fork
    // horizon: refused without running, and the session keeps serving.
    // (The cap itself is pinned on the parser; running a simulated hour
    // here would take minutes.)
    let over = MAX_UNTIL_MS + 1;
    let run_over = format!("{{\"cmd\":\"run\",\"until_ms\":{over}}}");
    let fork_over = format!("{{\"cmd\":\"fork\",\"until_ms\":{over},\"branches\":[[]]}}");
    let got = session_replies(SESSION, &[&run_over, &fork_over, RUN.trim_end()]);
    assert_eq!(got.len(), 5, "{got:#?}");
    let refusal = format!(
        "{{\"ok\":false,\"kind\":\"out_of_range\",\"error\":\"\\\"until_ms\\\" {over} exceeds the limit of {MAX_UNTIL_MS}\"}}"
    );
    assert_eq!(got[1], refusal);
    assert_eq!(got[2], refusal);
    assert!(
        got[3].contains("\"event\":\"ran\",\"now_ms\":10,"),
        "{}",
        got[3]
    );
}

#[test]
fn purge_storms_are_capped_at_max_purge_count() {
    // One purge over the cap is refused before any is injected; the
    // cap itself is served.
    let storm = |count: u64| {
        format!("{{\"cmd\":\"steer\",\"mutations\":[{{\"kind\":\"purge_storm\",\"ring\":0,\"count\":{count}}}]}}")
    };
    let got = session_replies(
        SESSION,
        &[&storm(MAX_PURGE_COUNT + 1), &storm(MAX_PURGE_COUNT)],
    );
    assert_eq!(got.len(), 4, "{got:#?}");
    assert_out_of_range(&got[1], "count");
    assert!(got[1].contains("exceeds the limit of 10000"), "{}", got[1]);
    assert!(
        got[2].contains("\"event\":\"steered\"")
            && got[2].contains(&format!("\"purge_starts\":{MAX_PURGE_COUNT}")),
        "{}",
        got[2]
    );
}
