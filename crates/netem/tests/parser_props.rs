//! The netem rule grammar and the trace parser are external inputs: they
//! must answer every input with an `Err` or with configs the link can
//! actually run, never with a panic.
//!
//! Inputs mix arbitrary printable ASCII with inputs assembled from each
//! grammar's own vocabulary and extreme numbers (`1e300`, `-0`, `NaN`,
//! `inf`, 20-digit integers, timestamps at the end of the µs clock), so a
//! good share of them parse. Every config a parse accepts must survive one
//! `Link::send` and `receive` at t = 0. Traces also carry JSONL lines
//! nested tens of thousands of levels deep, far past what the JSON parser
//! could recurse through on a test thread's stack; each must be rejected
//! with an error naming its line. The vendored proptest runs a fixed 64
//! cases, so each case checks a batch of inputs.

use proptest::prelude::*;
use rdsim_netem::{Link, NetemConfig, Packet, PacketKind, TraceSchedule};
use rdsim_units::SimTime;

/// Inputs checked per case.
const BATCH: usize = 32;

/// Numbers on or past every range check of both grammars.
const NUMBERS: [&str; 13] = [
    "0",
    "-0",
    "0.5",
    "5",
    "100",
    "101",
    "1e-300",
    "1e13",
    "1e300",
    "4294967296",
    "99999999999999999999",
    "NaN",
    "inf",
];

/// Trace timestamps in increasing order, so consecutive picks pass the
/// strictly-increasing check; the tail sits at and past the end of the
/// µs clock.
const TIMESTAMPS: [&str; 8] = [
    "-0",
    "0.5",
    "1",
    "60",
    "1e13",
    "1.8e13",
    "18446744073709551616",
    "1e300",
];

/// Nesting depths of the deep JSONL lines.
const DEPTHS: std::ops::Range<usize> = 50_000..200_000;

fn num(i: usize) -> &'static str {
    NUMBERS[i % NUMBERS.len()]
}

/// Printable ASCII, including every character the grammars give meaning.
fn ascii_line() -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..48)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

/// A rule of up to seven clauses in grammar order, each present about
/// half the time, with its optional arguments present some of the time.
fn rule() -> impl Strategy<Value = String> {
    let clause = (
        proptest::bool::ANY,
        0usize..64,
        0usize..64,
        0usize..64,
        0u8..8,
    );
    proptest::collection::vec(clause, 7usize).prop_map(|clauses| {
        let mut words: Vec<String> = Vec::new();
        for (kind, &(on, a, b, c, extra)) in clauses.iter().enumerate() {
            if !on {
                continue;
            }
            let percent = |i| format!("{}%", num(i));
            match kind {
                0 => {
                    words.push(format!("delay {}ms", num(a)));
                    if extra & 1 == 1 {
                        words.push(format!("{}ms", num(b)));
                        if extra & 2 == 2 {
                            words.push(percent(c));
                        }
                    }
                }
                1 if extra & 4 == 4 => {
                    words.push(format!("loss gemodel {}", percent(a)));
                    for i in [b, c].into_iter().take(usize::from(extra & 3)) {
                        words.push(percent(i));
                    }
                }
                1 => {
                    words.push(format!("loss {}", percent(a)));
                    if extra & 1 == 1 {
                        words.push(percent(b));
                    }
                }
                2 => words.push(format!("duplicate {}", percent(a))),
                3 => words.push(format!("corrupt {}", percent(a))),
                4 => {
                    words.push(format!("reorder {}", percent(a)));
                    if extra & 1 == 1 {
                        words.push(percent(b));
                    }
                    if extra & 2 == 2 {
                        words.push(format!("gap {}", num(c)));
                    }
                }
                5 => {
                    let unit = ["bit", "kbit", "mbit", "gbit"][b % 4];
                    words.push(format!("rate {}{unit}", num(a)));
                }
                _ => words.push(format!("limit {}", num(a))),
            }
        }
        words.join(" ")
    })
}

/// A JSONL line `depth` arrays or objects deep: unterminated, or
/// balanced and so well-formed but for its depth.
fn nested_line(shape: u8, depth: usize) -> String {
    match shape {
        0 => format!("{{\"t\": {}", "[".repeat(depth)),
        1 => format!(
            "{{\"t\": 1, \"x\": {}{}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        ),
        _ => format!(
            "{{\"x\": {}0{}}}",
            "{\"a\": ".repeat(depth),
            "}".repeat(depth)
        ),
    }
}

/// A trace of one to four lines: JSONL samples, CSV rows (under a header
/// half the time), deeply nested JSONL or arbitrary ASCII. A line's
/// timestamp usually steps forward through [`TIMESTAMPS`], and each
/// optional field appears about a quarter of the time. Alongside the text
/// comes the first nested line's number and the length of the text before
/// it.
fn trace() -> impl Strategy<Value = (String, Option<(usize, usize)>)> {
    let line = (
        0u8..9,
        1usize..3,
        0u8..16,
        proptest::collection::vec((0u8..4, 0usize..64), 4usize),
        ascii_line(),
        (0u8..3, DEPTHS),
    );
    (
        proptest::bool::ANY,
        0usize..TIMESTAMPS.len(),
        proptest::collection::vec(line, 1..5),
    )
        .prop_map(|(csv, start, lines)| {
            const FIELDS: [&str; 4] = ["delay_ms", "jitter_ms", "loss_pct", "rate_kbit"];
            let mut text = String::new();
            if csv {
                text.push_str("t,delay_ms,jitter_ms,loss_pct,rate_kbit\n");
            }
            let mut nested = None;
            let mut ti = start;
            for (kind, step, unordered, fields, ascii, (shape, depth)) in lines {
                let t = if unordered == 0 {
                    num(ti)
                } else {
                    TIMESTAMPS[ti.min(TIMESTAMPS.len() - 1)]
                };
                ti += step;
                let values = fields.iter().map(|&(on, i)| (on == 0).then(|| num(i)));
                match kind {
                    0..=2 => {
                        text.push_str(&format!("{{\"t\": {t}"));
                        for (name, value) in FIELDS.iter().zip(values) {
                            if let Some(v) = value {
                                text.push_str(&format!(", \"{name}\": {v}"));
                            }
                        }
                        text.push('}');
                    }
                    3..=6 => {
                        let cells: Vec<&str> = values.map(|v| v.unwrap_or("")).collect();
                        text.push_str(&format!("{t},{}", cells.join(",")));
                    }
                    7 => text.push_str(&ascii),
                    _ => {
                        let line_no = text.lines().count() + 1;
                        nested.get_or_insert((line_no, text.len()));
                        text.push_str(&nested_line(shape, depth));
                    }
                }
                text.push('\n');
            }
            (text, nested)
        })
}

/// Runs one packet through a link carrying `config` at t = 0.
fn survives_one_packet(config: NetemConfig) {
    let mut link = Link::with_config(config, 7);
    link.send(
        Packet::new(0, PacketKind::Video, vec![0u8; 1_200]),
        SimTime::ZERO,
    );
    let _ = link.receive(SimTime::ZERO);
}

proptest! {
    #[test]
    fn netem_rules_never_panic(
        rules in proptest::collection::vec(rule(), BATCH),
        ascii in proptest::collection::vec(ascii_line(), BATCH),
    ) {
        for rule in rules.iter().chain(&ascii) {
            if let Ok(config) = rule.parse::<NetemConfig>() {
                survives_one_packet(config);
            }
        }
    }

    #[test]
    fn traces_never_panic(
        traces in proptest::collection::vec(trace(), BATCH),
        ascii in proptest::collection::vec(ascii_line(), BATCH),
    ) {
        let plain = ascii.iter().map(|text| (text.as_str(), None));
        let generated = traces.iter().map(|(text, nested)| (text.as_str(), *nested));
        for (text, nested) in generated.chain(plain) {
            let parsed = TraceSchedule::parse("prop", text);
            if let Some((line, prefix)) = nested {
                // The nested line is rejected with its own number, unless
                // a line before it already fails on its own.
                let err = parsed.expect_err("a nested line was accepted");
                let before = TraceSchedule::parse("prop", &text[..prefix]);
                assert!(
                    err.line == line || before.is_err_and(|e| e.line == err.line),
                    "nested line {line} reported as {err}"
                );
            } else if let Ok(trace) = parsed {
                for window in trace.windows() {
                    // A wrapped end (release builds do not trap the
                    // overflow) would land before the last window's start.
                    assert!(window.start <= trace.end(), "window past the end: {text}");
                    survives_one_packet(window.config);
                }
            }
        }
    }
}
