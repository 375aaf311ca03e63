//! Chrome trace-event JSON writer (the `chrome://tracing` / Perfetto
//! format), built by hand — no serde in the dependency tree.
//!
//! Only the event kinds the exporter needs are implemented: complete
//! ("X") slices, instant ("i") markers, and process/thread name
//! metadata ("M"). Timestamps are microseconds, per the format.
//!
//! A long run renders hundreds of thousands of events, so each one is
//! written straight into the document without a heap allocation or a
//! float formatter. Times arrive as integer nanoseconds and print as
//! `{ns / 1000}.{ns % 1000:03}`; event arguments are a borrowed, typed
//! slice ([`Arg`]); text repeated across events is escaped once
//! ([`JsonText`]), and so are the fields a viewer row repeats ([`Row`]).
//! The bytes are the ones the float formatting of the same values gives
//! (`{:.3}` of `ns as f64 / 1e3`, [`SimDuration`]'s `Display`, `{:.2}`);
//! where the two could disagree — past 2^49 ns (about 6.5 simulated
//! days), on a half-microsecond duration, or near a two-decimal tie —
//! the writer uses the float formatting itself.

use std::fmt::Write as _;

use amp_types::{SimDuration, SimTime};

/// Head and tail of the JSON object Perfetto loads.
const HEAD: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
const TAIL: &str = "\n]}\n";

/// Bound (2^49 ns, about 6.5 simulated days) below which the integer
/// formatters are byte-identical to the float ones they replace.
///
/// Below it a time in microseconds is under 2^40, where adjacent `f64`s
/// are at most 2^-12 µs apart. The float path's rounding error — even
/// for the difference of two such times — therefore stays under
/// 0.0005 µs, half the last printed digit, so printing the float with
/// three decimals recovers the exact integer quotient.
const EXACT_NS: u64 = 1 << 49;

/// Text escaped for a JSON string once, then written any number of
/// times — e.g. a thread name that labels thousands of slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonText(String);

impl JsonText {
    /// Escapes `text` for use inside a JSON string.
    pub fn new(text: &str) -> JsonText {
        let mut escaped = String::with_capacity(text.len());
        escape_into(&mut escaped, text);
        JsonText(escaped)
    }

    /// The escaped text, without quotes.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// One event argument. Every kind is written as a JSON string value,
/// which is how the viewer shows it.
#[derive(Debug, Clone, Copy)]
pub enum Arg<'a> {
    /// Text, escaped as it is written.
    Str(&'a str),
    /// Text escaped up front.
    Text(&'a JsonText),
    /// An unsigned integer.
    U64(u64),
    /// A simulated duration in its `Display` form (`"4.000ms"`).
    Duration(SimDuration),
    /// A float with two decimals (`{:.2}`).
    Fixed2(f64),
}

/// Appends `text` with JSON string escaping, copying unescaped runs
/// whole.
fn escape_into(out: &mut String, text: &str) {
    if !text.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(text);
        return;
    }
    let mut run = 0;
    for (i, byte) in text.bytes().enumerate() {
        let escaped = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&text[run..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&text[run..]);
}

/// Writes the decimal digits of `n` into `buf` ending at `end`, returning
/// the index of the first digit.
fn digits_before(buf: &mut [u8], mut end: usize, mut n: u64) -> usize {
    loop {
        end -= 1;
        buf[end] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return end;
        }
    }
}

fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("formatter writes ASCII digits"));
}

/// Appends `n` in decimal.
fn push_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    let start = digits_before(&mut buf, 20, n);
    push_ascii(out, &buf[start..]);
}

/// Appends `n / 10^PLACES` with exactly `PLACES` decimals: `12.345`
/// for 12345 at three places, `0.07` for 7 at two.
fn push_decimal<const PLACES: usize>(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 24];
    let mut end = buf.len();
    for _ in 0..PLACES {
        end -= 1;
        buf[end] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    end -= 1;
    buf[end] = b'.';
    let start = digits_before(&mut buf, end, n);
    push_ascii(out, &buf[start..]);
}

/// Appends `ns` nanoseconds as microseconds with three decimals: the
/// bytes of `{:.3}` applied to `ns as f64 / 1e3`.
fn push_micros(out: &mut String, ns: u64) {
    if ns < EXACT_NS {
        push_decimal::<3>(out, ns);
    } else {
        let _ = write!(out, "{:.3}", ns as f64 / 1e3);
    }
}

/// Appends the length of the span `start..end` in microseconds: the
/// bytes of `{:.3}` applied to the difference of the two times'
/// microsecond floats, which is how the span was first written.
fn push_span_micros(out: &mut String, start: SimTime, end: SimTime) {
    let (from, to) = (start.as_nanos(), end.as_nanos());
    if from <= to && to < EXACT_NS {
        push_decimal::<3>(out, to - from);
    } else {
        let _ = write!(out, "{:.3}", to as f64 / 1e3 - from as f64 / 1e3);
    }
}

/// Appends `d` in its `Display` form (`{:.3}ms` of the float
/// milliseconds). Off a tie, that rounds to the nearest whole
/// microsecond; on an exact half-microsecond the float's own rounding
/// decides, so the tie takes the `Display` path.
fn push_duration(out: &mut String, d: SimDuration) {
    let ns = d.as_nanos();
    if ns < EXACT_NS && ns % 1000 != 500 {
        push_decimal::<3>(out, (ns + 500) / 1000);
        out.push_str("ms");
    } else {
        let _ = write!(out, "{d}");
    }
}

/// Appends `x` with two decimals: the bytes of `{:.2}`.
///
/// Below 10^7 a non-negative `x` scaled by 100 carries an error under
/// 10^-6, so off a near-tie it rounds to the same hundredth as `x`'s
/// exact value; near a tie, and for negative or huge values, the float
/// formatting decides.
fn push_fixed2(out: &mut String, x: f64) {
    let scaled = x * 100.0;
    if x.is_sign_positive() && scaled < 1e9 {
        let whole = scaled as u64;
        let frac = scaled - whole as f64;
        if (frac - 0.5).abs() > 1e-6 {
            push_decimal::<2>(out, whole + u64::from(frac > 0.5));
            return;
        }
    }
    let _ = write!(out, "{x:.2}");
}

/// Appends `args` and closes the event: `,"args":{"k":"v",…}}`, or
/// just `}` without arguments.
fn push_args_and_close(out: &mut String, args: &[(&str, Arg<'_>)]) {
    if args.is_empty() {
        out.push('}');
        return;
    }
    for (i, &(key, value)) in args.iter().enumerate() {
        // Each opener also closes the previous value's string.
        out.push_str(if i == 0 { ",\"args\":{\"" } else { "\",\"" });
        escape_into(out, key);
        out.push_str("\":\"");
        match value {
            Arg::Str(text) => escape_into(out, text),
            Arg::Text(text) => out.push_str(text.as_str()),
            Arg::U64(n) => push_u64(out, n),
            Arg::Duration(d) => push_duration(out, d),
            Arg::Fixed2(x) => push_fixed2(out, x),
        }
    }
    out.push_str("\"}}");
}

/// A viewer row and event category, rendered once: the fields every
/// event on that row repeats (`"cat"`, `"pid"`, `"tid"`), ending where
/// the event's timestamp begins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row(String);

impl Row {
    /// Events of `category` on thread `tid` of process `pid`.
    pub fn new(category: &str, pid: u64, tid: u64) -> Row {
        let mut fields = String::from("\",\"cat\":\"");
        escape_into(&mut fields, category);
        fields.push_str("\",\"pid\":");
        push_u64(&mut fields, pid);
        fields.push_str(",\"tid\":");
        push_u64(&mut fields, tid);
        fields.push_str(",\"ts\":");
        Row(fields)
    }
}

/// Accumulates trace events and renders the JSON object Perfetto loads.
///
/// Events are written straight into the document, so a trace holds its
/// JSON once: not once per event and again as the joined whole.
#[derive(Debug)]
pub struct ChromeTrace {
    /// The document so far: the head, then each event after its `,\n`
    /// (`\n` for the first).
    json: String,
    len: usize,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        ChromeTrace {
            json: HEAD.to_string(),
            len: 0,
        }
    }
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Number of events accumulated so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events have been added.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Starts the next event with `head`, which begins with the `,`
    /// separating it from the previous one, and returns the document to
    /// write the rest into.
    fn event(&mut self, head: &str) -> &mut String {
        let head = if self.len == 0 { &head[1..] } else { head };
        self.json.push_str(head);
        self.len += 1;
        &mut self.json
    }

    /// Names process `pid` (shown as a top-level group in the viewer).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        let e = self.event(",\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
        push_u64(e, pid);
        e.push_str(",\"tid\":0");
        push_args_and_close(e, &[("name", Arg::Str(name))]);
    }

    /// Names thread `tid` of process `pid` (a row in the viewer).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let e = self.event(",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":");
        push_u64(e, pid);
        e.push_str(",\"tid\":");
        push_u64(e, tid);
        push_args_and_close(e, &[("name", Arg::Str(name))]);
    }

    /// Adds a complete slice: `name` ran on `row` from `start` to `end`.
    pub fn complete(
        &mut self,
        row: &Row,
        name: &JsonText,
        start: SimTime,
        end: SimTime,
        args: &[(&str, Arg<'_>)],
    ) {
        let e = self.event(",\n{\"ph\":\"X\",\"name\":\"");
        e.push_str(name.as_str());
        e.push_str(&row.0);
        push_micros(e, start.as_nanos());
        e.push_str(",\"dur\":");
        push_span_micros(e, start, end);
        push_args_and_close(e, args);
    }

    /// Adds an instant marker named `name` at `at` on `row`.
    pub fn instant(&mut self, row: &Row, name: &str, at: SimTime, args: &[(&str, Arg<'_>)]) {
        let e = self.event(",\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"");
        escape_into(e, name);
        e.push_str(&row.0);
        push_micros(e, at.as_nanos());
        push_args_and_close(e, args);
    }

    /// Closes and returns the complete trace document.
    pub fn into_json(mut self) -> String {
        self.json.push_str(TAIL);
        self.json
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A tiny structural validator: enough JSON parsing to prove the
    /// output is well-formed (balanced, correctly quoted, comma-separated)
    /// without pulling in a parser dependency.
    fn check_json_object(text: &str) {
        let mut depth = 0i32;
        let mut in_string = false;
        let mut escaped = false;
        for ch in text.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if ch == '\\' {
                    escaped = true;
                } else if ch == '"' {
                    in_string = false;
                }
                continue;
            }
            match ch {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced brackets");
                }
                _ => {}
            }
        }
        assert!(!in_string, "unterminated string");
        assert_eq!(depth, 0, "unbalanced document");
    }

    #[test]
    fn renders_wellformed_json() {
        let mut trace = ChromeTrace::new();
        trace.process_name(1, "cores");
        trace.thread_name(1, 0, "big0");
        trace.complete(
            &Row::new("exec", 1, 0),
            &JsonText::new("app0/t1"),
            SimTime::ZERO,
            SimTime::from_nanos(1_500_000),
            &[("thread", Arg::U64(1))],
        );
        trace.instant(
            &Row::new("sched", 1, 0),
            "migrate \"x\"\n",
            SimTime::from_nanos(750_000),
            &[("dir", Arg::Str("little->big"))],
        );
        assert_eq!(trace.len(), 4);
        let json = trace.into_json();
        check_json_object(&json);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":0.000,\"dur\":1500.000"));
        assert!(json.contains("\\\"x\\\"\\n"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = ChromeTrace::new();
        assert!(trace.is_empty());
        check_json_object(&trace.into_json());
    }

    #[test]
    fn args_render_as_their_formatted_strings() {
        let name = JsonText::new("a\"b");
        let mut trace = ChromeTrace::new();
        trace.instant(
            &Row::new("sched", 1, 2),
            "mark",
            SimTime::from_nanos(1_234),
            &[
                ("s", Arg::Str("x\ty")),
                ("t", Arg::Text(&name)),
                ("n", Arg::U64(u64::MAX)),
                ("d", Arg::Duration(SimDuration::from_nanos(4_000_499))),
                ("f", Arg::Fixed2(1.005)),
            ],
        );
        let json = trace.into_json();
        let expected = format!(
            concat!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"mark\",\"cat\":\"sched\",",
                "\"pid\":1,\"tid\":2,\"ts\":1.234,\"args\":{{\"s\":\"x\\ty\",",
                "\"t\":\"a\\\"b\",\"n\":\"{}\",\"d\":\"4.000ms\",\"f\":\"{:.2}\"}}}}"
            ),
            u64::MAX,
            1.005
        );
        assert!(json.contains(&expected), "{json}");
    }

    /// The escaping the writer replaced: one `char` at a time.
    fn escape_by_char(text: &str) -> String {
        let mut out = String::new();
        for ch in text.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn escaping_matches_per_char_escaping() {
        for text in [
            "",
            "plain",
            "\"",
            "a\\b\nc\rd\te",
            "\u{1}\u{1f} \u{7f}",
            "ünï\"cødé\u{0}✓",
            "ferret-seg-0",
        ] {
            assert_eq!(
                JsonText::new(text).as_str(),
                escape_by_char(text),
                "{text:?}"
            );
        }
    }

    /// Nanosecond counts every formatter is checked at: the edges of the
    /// three-decimal grid, half-microsecond ties, the default 120 s
    /// horizon, the exact-integer bound, and random values at every
    /// magnitude.
    fn sample_nanos() -> Vec<u64> {
        let horizon = 120_000_000_000u64;
        let mut values = vec![
            0,
            1,
            499,
            500,
            501,
            999,
            1_000,
            1_001,
            1_500,
            2_500,
            999_999,
            1_000_000,
            4_000_500,
            horizon,
            u64::MAX,
        ];
        for base in [horizon, EXACT_NS, 1 << 53] {
            values.extend((0..2_000).map(|k| base - 1_000 + k));
        }
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..20_000 {
            let bits = rng.gen_range(1u32..=64);
            let value = rng.gen::<u64>() >> (64 - bits);
            values.push(value);
            // The tie of the same magnitude.
            values.push(value / 1000 * 1000 + 500);
        }
        values
    }

    #[test]
    fn micros_match_float_formatting() {
        for ns in sample_nanos() {
            let mut out = String::new();
            push_micros(&mut out, ns);
            assert_eq!(out, format!("{:.3}", ns as f64 / 1e3), "ns = {ns}");
        }
    }

    #[test]
    fn spans_match_float_difference_formatting() {
        let values = sample_nanos();
        let mut rng = StdRng::seed_from_u64(7);
        for &end in &values {
            let gap = match rng.gen_range(0u32..3) {
                0 => rng.gen_range(0u64..10_000),
                1 => rng.gen_range(0..end.max(1)),
                _ => end,
            };
            let start = end.saturating_sub(gap);
            let mut out = String::new();
            push_span_micros(
                &mut out,
                SimTime::from_nanos(start),
                SimTime::from_nanos(end),
            );
            let float = end as f64 / 1e3 - start as f64 / 1e3;
            assert_eq!(out, format!("{float:.3}"), "{start}..{end}");
        }
    }

    #[test]
    fn durations_match_display() {
        for ns in sample_nanos() {
            let d = SimDuration::from_nanos(ns);
            let mut out = String::new();
            push_duration(&mut out, d);
            assert_eq!(out, d.to_string(), "ns = {ns}");
        }
    }

    #[test]
    fn two_decimals_match_float_formatting() {
        let mut values = vec![
            0.0,
            -0.0,
            0.004,
            0.005,
            0.015,
            0.125,
            0.375,
            1.005,
            2.675,
            -1.5,
            9_999_999.995,
            1e7,
            1e300,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50_000 {
            let magnitude = 10f64.powi(rng.gen_range(-3..9));
            values.push(rng.gen::<f64>() * magnitude);
            // A value on (or next to) a half-hundredth.
            values.push((rng.gen_range(0u64..2_000_000) as f64 + 0.5) / 100.0);
        }
        for x in values {
            let mut out = String::new();
            push_fixed2(&mut out, x);
            assert_eq!(out, format!("{x:.2}"), "x = {x:e}");
        }
    }

    #[test]
    fn integers_match_display() {
        for n in sample_nanos() {
            let mut out = String::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }
}
