//! Hostile input to the `serve` session: a line nested deeper than the
//! session's limit and a line longer than it each get one kind-tagged
//! error reply, and the session goes on serving valid commands — no
//! stack overflow, no unbounded buffering.

use ctms_bench::serve::{run, run_with_line_cap, MAX_DEPTH};

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
