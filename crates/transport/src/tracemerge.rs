//! The one Chrome `trace_event` renderer: a client's local spans and the
//! server's lifecycle trace on one timeline.
//!
//! The two processes run on different monotonic clocks: the client's spans are
//! stamped on its connection epoch ([`crate::Client::now_micros`]), the
//! server's [`TraceEvent`]s on the service telemetry epoch. The `Hello` /
//! `Accepted` handshake gives the client a one-round-trip midpoint estimate of
//! the offset between the two ([`crate::Client::clock_offset_micros`]);
//! [`merged_chrome_trace`] subtracts it from every server timestamp so both
//! processes land on the client's timeline, renders the client as `pid` 1 and
//! the server as `pid` 2, and sorts the combined stream by adjusted time.
//! Server events keep their submission as `tid`, their client id in `args`,
//! and a `cat` of `lifecycle` (stage instants) or `phase` (the armed
//! profiler's compile-phase spans). With no client spans and a zero offset,
//! `merged_chrome_trace(&[], &events, 0)` renders the server ring alone, which
//! is what `vqc-top --dump-trace` writes.

use vqc_runtime::json::escape;
use vqc_runtime::{phase_row_name, TraceEvent, TraceStage};

/// One client-side span or instant, stamped on the client's connection epoch.
#[derive(Debug, Clone)]
pub struct ClientSpan {
    /// Chrome trace event name (e.g. `"submit"`, `"report-received"`).
    pub name: String,
    /// Start time in microseconds on the client's epoch.
    pub micros: u64,
    /// Duration in microseconds; `0` renders an instant event instead of a
    /// complete span.
    pub span_micros: u64,
}

/// `pid` the client's spans render under in the merged trace.
pub const CLIENT_PID: u32 = 1;
/// `pid` the server's (clock-adjusted) events render under.
pub const SERVER_PID: u32 = 2;

/// Maps a server-side timestamp onto the client's timeline using the
/// handshake's clock-offset estimate, clamping at zero (a server event can
/// appear to predate the client epoch when the offset estimate overshoots by
/// more than the event's age).
pub fn adjust_server_micros(micros: u64, clock_offset_micros: i64) -> u64 {
    (micros as i64 - clock_offset_micros).max(0) as u64
}

/// One Chrome trace event as a JSON object: a complete span (`"ph":"X"`)
/// when `dur > 0`, a thread-scoped instant otherwise. `args` is the rendered
/// `args` object.
fn render_event(
    pid: u32,
    cat: &str,
    name: &str,
    ts: u64,
    dur: u64,
    tid: u64,
    args: &str,
) -> String {
    let name = escape(name);
    if dur > 0 {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{args}}}"
        )
    } else {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"args\":{args}}}"
        )
    }
}

/// Renders one merged Chrome `trace_event` JSON document from the client's own
/// spans and the server's trace ring, with server timestamps mapped onto the
/// client's timeline via `clock_offset_micros` (see
/// [`crate::Client::clock_offset_micros`]). Events are sorted by adjusted
/// timestamp, so the document reads as one causal timeline across both
/// processes. Pass `server_events` already filtered to the submissions of
/// interest if the ring carries unrelated traffic.
pub fn merged_chrome_trace(
    client_spans: &[ClientSpan],
    server_events: &[TraceEvent],
    clock_offset_micros: i64,
) -> String {
    let mut merged: Vec<(u64, String)> =
        Vec::with_capacity(client_spans.len() + server_events.len());
    for span in client_spans {
        let body = render_event(
            CLIENT_PID,
            "causal",
            &span.name,
            span.micros,
            span.span_micros,
            1,
            "{\"detail\":0}",
        );
        merged.push((span.micros, body));
    }
    for event in server_events {
        let (cat, name) = if event.stage == TraceStage::Phase {
            ("phase", phase_row_name(event.detail as usize))
        } else {
            ("lifecycle", event.stage.name())
        };
        let client = event
            .client
            .map_or_else(|| "null".to_string(), |c| c.to_string());
        let ts = adjust_server_micros(event.micros, clock_offset_micros);
        let body = render_event(
            SERVER_PID,
            cat,
            name,
            ts,
            event.span_micros,
            event.submission,
            &format!("{{\"detail\":{},\"client\":{client}}}", event.detail),
        );
        merged.push((ts, body));
    }
    // Stable sort: same-timestamp events keep client-before-server order.
    merged.sort_by_key(|(ts, _)| *ts);
    let mut json = String::with_capacity(merged.len() * 96 + 64);
    json.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (index, (_, body)) in merged.iter().enumerate() {
        if index > 0 {
            json.push(',');
        }
        json.push_str(body);
    }
    json.push_str("]}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_event(stage: TraceStage, micros: u64) -> TraceEvent {
        TraceEvent {
            submission: 7,
            client: Some(1 << 63),
            stage,
            micros,
            detail: 0,
            span_micros: 0,
        }
    }

    #[test]
    fn adjustment_maps_server_time_onto_the_client_timeline() {
        // Server clock is 1000µs ahead of the client midpoint.
        assert_eq!(adjust_server_micros(5000, 1000), 4000);
        // A negative offset (server behind) shifts forward.
        assert_eq!(adjust_server_micros(5000, -1000), 6000);
        // Overshooting estimates clamp rather than wrap.
        assert_eq!(adjust_server_micros(500, 1000), 0);
    }

    #[test]
    fn merged_trace_interleaves_both_processes_sorted_by_adjusted_time() {
        let client_spans = [
            ClientSpan {
                name: "submit".into(),
                micros: 100,
                span_micros: 0,
            },
            ClientSpan {
                name: "await-report".into(),
                micros: 100,
                span_micros: 900,
            },
        ];
        let server_events = [
            server_event(TraceStage::Submitted, 1200),
            server_event(TraceStage::Report, 1900),
        ];
        // Offset 1000: server events land at 200 and 900 on the client line.
        let json = merged_chrome_trace(&client_spans, &server_events, 1000);
        assert!(json.contains("\"pid\":1"), "client spans present");
        assert!(json.contains("\"pid\":2"), "server events present");
        assert!(json.contains("\"ph\":\"X\""), "client span has a duration");
        let submitted = json.find("\"name\":\"submitted\"").unwrap();
        let report = json.find("\"name\":\"report\"").unwrap();
        let submit = json.find("\"name\":\"submit\"").unwrap();
        assert!(submit < submitted, "client submit precedes server intake");
        assert!(submitted < report, "server chain stays ordered");
        assert!(json.contains("\"ts\":200"));
        assert!(json.contains("\"ts\":900"));
    }
    #[test]
    fn a_server_ring_alone_renders_every_event_with_its_client() {
        let events = [
            server_event(TraceStage::Submitted, 10),
            TraceEvent {
                client: None,
                ..server_event(TraceStage::Report, 450)
            },
        ];
        let json = merged_chrome_trace(&[], &events, 0);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains(&format!(
            "\"name\":\"submitted\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",\
             \"pid\":2,\"tid\":7,\"ts\":10,\"args\":{{\"detail\":0,\"client\":{}}}",
            1u64 << 63
        )));
        assert!(json.contains("\"name\":\"report\""));
        assert!(json.contains("\"ts\":450,\"args\":{\"detail\":0,\"client\":null}"));
    }

    #[test]
    fn phase_spans_render_as_complete_events() {
        let events = [TraceEvent {
            detail: 1, // eigendecomposition
            span_micros: 250,
            ..server_event(TraceStage::Phase, 100)
        }];
        let json = merged_chrome_trace(&[], &events, 0);
        assert!(json.contains(
            "\"name\":\"eigendecomposition\",\"cat\":\"phase\",\"ph\":\"X\",\
             \"pid\":2,\"tid\":7,\"ts\":100,\"dur\":250"
        ));
    }

    #[test]
    fn span_names_are_escaped() {
        let spans = [ClientSpan {
            name: "say \"hi\" \\ bye\n".into(),
            micros: 5,
            span_micros: 0,
        }];
        let json = merged_chrome_trace(&spans, &[], 0);
        assert!(
            json.contains(r#""name":"say \"hi\" \\ bye\u000a","#),
            "{json}"
        );
    }
}
