//! Chrome trace-event JSON writer (the `chrome://tracing` / Perfetto
//! format), built by hand — no serde in the dependency tree.
//!
//! Only the event kinds the exporter needs are implemented: complete
//! ("X") slices, instant ("i") markers, and process/thread name
//! metadata ("M"). Timestamps are microseconds, per the format.

use std::fmt::Write as _;

/// Head and tail of the JSON object Perfetto loads.
const HEAD: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
const TAIL: &str = "\n]}\n";

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

fn escape_into(out: &mut String, text: &str) {
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
}

fn write_args(out: &mut String, args: &[(&str, String)]) {
    out.push_str(",\"args\":{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, key);
        out.push_str("\":\"");
        escape_into(out, value);
        out.push('"');
    }
    out.push('}');
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

    /// Starts the next event and returns the document to write it into.
    fn event(&mut self) -> &mut String {
        if self.len > 0 {
            self.json.push(',');
        }
        self.json.push('\n');
        self.len += 1;
        &mut self.json
    }

    /// Names process `pid` (shown as a top-level group in the viewer).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        let e = self.event();
        let _ = write!(
            e,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0"
        );
        write_args(e, &[("name", name.to_string())]);
        e.push('}');
    }

    /// Names thread `tid` of process `pid` (a row in the viewer).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let e = self.event();
        let _ = write!(
            e,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid}"
        );
        write_args(e, &[("name", name.to_string())]);
        e.push('}');
    }

    /// Adds a complete slice: `name` ran on row `(pid, tid)` from `ts_us`
    /// for `dur_us` microseconds.
    #[allow(clippy::too_many_arguments)] // mirrors the trace-event fields
    pub fn complete(
        &mut self,
        name: &str,
        category: &str,
        pid: u64,
        tid: u64,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, String)],
    ) {
        let e = self.event();
        e.push_str("{\"ph\":\"X\",\"name\":\"");
        escape_into(e, name);
        e.push_str("\",\"cat\":\"");
        escape_into(e, category);
        let _ = write!(
            e,
            "\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3}"
        );
        if !args.is_empty() {
            write_args(e, args);
        }
        e.push('}');
    }

    /// Adds an instant marker at `ts_us` on row `(pid, tid)`.
    pub fn instant(
        &mut self,
        name: &str,
        category: &str,
        pid: u64,
        tid: u64,
        ts_us: f64,
        args: &[(&str, String)],
    ) {
        let e = self.event();
        e.push_str("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"");
        escape_into(e, name);
        e.push_str("\",\"cat\":\"");
        escape_into(e, category);
        let _ = write!(e, "\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us:.3}");
        if !args.is_empty() {
            write_args(e, args);
        }
        e.push('}');
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
        trace.complete("app0/t1", "exec", 1, 0, 0.0, 1500.0, &[("thread", "1".into())]);
        trace.instant("migrate \"x\"\n", "sched", 1, 0, 750.0, &[("dir", "little->big".into())]);
        assert_eq!(trace.len(), 4);
        let json = trace.into_json();
        check_json_object(&json);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\\\"x\\\"\\n"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = ChromeTrace::new();
        assert!(trace.is_empty());
        check_json_object(&trace.into_json());
    }
}
