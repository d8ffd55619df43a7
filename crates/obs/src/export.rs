//! Chrome trace-event export, and the JSON string escape and flat-body
//! field readers every hand-rolled JSON writer and reader in the
//! workspace shares.
//!
//! Renders recorders as a Chrome trace-event JSON document loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Spans
//! become `"X"` (complete) events and point events become `"i"`
//! (instant) events; one simulated cycle maps to one microsecond of
//! trace time. Each recorder renders on its own thread track (`tid`),
//! so a campaign's trials appear as parallel lanes.

use std::fmt::Write as _;

use crate::recorder::Recorder;

/// Process id used for all tracks.
const PID: u32 = 1;

/// JSON-string-escapes `data`: quotes, backslashes and control
/// characters. The one escape behind every hand-rolled JSON writer in the
/// workspace: trace labels here, checkpoint records, and the serve wire
/// protocol and journal.
pub fn escape(data: &str) -> String {
    let mut out = String::with_capacity(data.len());
    for ch in data.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on malformed escapes.
pub fn unescape(escaped: &str) -> Option<String> {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let code: String = (&mut chars).take(4).collect();
                if code.len() != 4 {
                    return None;
                }
                let value = u32::from_str_radix(&code, 16).ok()?;
                out.push(char::from_u32(value)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// The text after `"key": ` in a flat object body (its first occurrence;
/// string values are [`escape`]d, so field content cannot spoof a key).
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    Some(&body[body.find(&needle)? + needle.len()..])
}

/// Reads the decimal `u64` value of `"key"` in a flat object body.
pub fn field_u64(body: &str, key: &str) -> Option<u64> {
    let rest = field(body, key)?;
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

/// Reads and [`unescape`]s the string value of `"key"` in a flat object
/// body.
pub fn field_str(body: &str, key: &str) -> Option<String> {
    let rest = field(body, key)?.strip_prefix('"')?;
    // The closing quote is the first one no backslash escapes.
    let mut escaped = false;
    let end = rest.find(|c| {
        let close = c == '"' && !escaped;
        escaped = c == '\\' && !escaped;
        close
    })?;
    unescape(&rest[..end])
}

/// Reads the boolean value of `"key"` in a flat object body.
pub fn field_bool(body: &str, key: &str) -> Option<bool> {
    match field(body, key)? {
        rest if rest.starts_with("true") => Some(true),
        rest if rest.starts_with("false") => Some(false),
        _ => None,
    }
}

fn push_track(out: &mut Vec<String>, tid: u32, label: &str, recorder: &Recorder) {
    out.push(format!(
        "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {PID}, \"tid\": {tid}, \
         \"args\": {{\"name\": \"{}\"}}}}",
        escape(label)
    ));
    for span in recorder.spans() {
        out.push(format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": {PID}, \"tid\": {tid}, \
             \"ts\": {}, \"dur\": {}, \"cat\": \"phase\"}}",
            escape(span.phase.name()),
            span.start,
            span.cycles()
        ));
    }
    for timed in recorder.events() {
        out.push(format!(
            "{{\"name\": \"{}\", \"ph\": \"i\", \"pid\": {PID}, \"tid\": {tid}, \
             \"ts\": {}, \"s\": \"t\", \"cat\": \"event\", \"args\": {}}}",
            timed.event.kind().name(),
            timed.cycle,
            timed.event.args_json()
        ));
    }
}

/// Renders labelled recorders as one Chrome trace-event JSON document.
///
/// Each `(tid, label, recorder)` triple becomes its own named thread
/// track. Timestamps are the recorders' cycle counters interpreted as
/// microseconds.
pub fn chrome_trace(tracks: &[(u32, &str, &Recorder)]) -> String {
    let mut events = Vec::new();
    for (tid, label, recorder) in tracks {
        push_track(&mut events, *tid, label, recorder);
    }
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, event) in events.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {event}{}",
            if i + 1 < events.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

/// Convenience wrapper for a single recorder on track 0.
pub fn chrome_trace_single(label: &str, recorder: &Recorder) -> String {
    chrome_trace(&[(0, label, recorder)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Phase;
    use crate::ObsEvent;

    fn sample() -> Recorder {
        let mut r = Recorder::new(16);
        r.enter(Phase::Trial, 0);
        r.enter(Phase::Probe, 10);
        r.event(
            12,
            ObsEvent::LbrRecord {
                from: 0x40,
                to: 0x80,
                elapsed: 9,
                mispredicted: false,
            },
        );
        r.exit(Phase::Probe, 30);
        r.exit(Phase::Trial, 35);
        r
    }

    #[test]
    fn trace_contains_spans_instants_and_track_name() {
        let trace = chrome_trace_single("trial 0", &sample());
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"ph\": \"i\""));
        assert!(trace.contains("\"name\": \"probe\""));
        assert!(trace.contains("\"name\": \"lbr_record\""));
        assert!(trace.contains("trial 0"));
    }

    #[test]
    fn multi_track_uses_distinct_tids() {
        let a = sample();
        let b = sample();
        let trace = chrome_trace(&[(0, "trial 0", &a), (1, "trial 1", &b)]);
        assert!(trace.contains("\"tid\": 0"));
        assert!(trace.contains("\"tid\": 1"));
    }

    #[test]
    fn control_characters_in_labels_are_escaped() {
        let trace = chrome_trace_single("lane \"a\"\nb\u{1}", &sample());
        assert!(
            !trace.contains("lane \"a\"\nb"),
            "raw label leaked into the trace"
        );
        assert!(
            trace.contains(r#"{"name": "lane \"a\"\nb\u0001"}"#),
            "{trace}"
        );
    }

    #[test]
    fn escape_roundtrip_covers_control_chars() {
        let nasty = "a\"b\\c\nd\re\tf\u{1}g";
        assert_eq!(unescape(&escape(nasty)).as_deref(), Some(nasty));
        assert!(unescape("broken \\q escape").is_none());
        assert!(unescape("truncated \\u00").is_none());
    }

    #[test]
    fn trace_is_deterministic() {
        let r = sample();
        assert_eq!(chrome_trace_single("t", &r), chrome_trace_single("t", &r));
    }
}
