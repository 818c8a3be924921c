//! In-memory spans recorded by the benchmark around calls into each layer.
//!
//! Spans are kept in a `Vec` while the traced pass runs and written out once,
//! as Chrome `trace_event` JSON, when it ends. A span names the layer it was
//! measured at, the op it belongs to and the span that caused it; a layer's
//! *self time* is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layers (crates) a span can be attributed to, top of the stack first.
pub const LAYERS: [&str; 7] = [
    "transport",
    "runtime",
    "core",
    "circuit",
    "sim",
    "pulse",
    "linalg",
];

/// Index of a span inside its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The op (one compile request) this span belongs to.
    pub op: u64,
    /// The span that caused this one; `None` for an op's root span.
    pub parent: Option<SpanId>,
    pub layer: &'static str,
    pub name: &'static str,
    /// Microseconds since the recorder's epoch.
    pub start_us: f64,
    pub duration_us: f64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Per span, the microseconds of its interval already given to children
    /// laid inside it by [`Recorder::record_inside`].
    packed_us: Vec<f64>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            packed_us: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// An empty recorder on the same clock, for a second thread; fold it back
    /// with [`Recorder::absorb`].
    pub fn sibling(&self) -> Recorder {
        Recorder {
            epoch: self.epoch,
            spans: Vec::new(),
            packed_us: Vec::new(),
        }
    }

    /// Appends a sibling's spans, keeping their parent links.
    pub fn absorb(&mut self, sibling: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(sibling.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|parent| parent + offset);
            span
        }));
        self.packed_us.extend(sibling.packed_us);
    }

    fn micros(&self, instant: Instant) -> f64 {
        instant.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span measured between two instants.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let start_us = self.micros(start);
        let duration_us = (self.micros(end) - start_us).max(0.0);
        self.push(Span {
            op,
            parent,
            layer,
            name,
            start_us,
            duration_us,
        })
    }

    /// Moves a span recorded with a provisional interval (so that it precedes
    /// its children) to the interval it really covered.
    pub fn close(&mut self, span: SpanId, start: Instant, end: Instant) {
        let start_us = self.micros(start);
        self.spans[span].duration_us = (self.micros(end) - start_us).max(0.0);
        self.spans[span].start_us = start_us;
    }

    /// Records a child whose duration was measured elsewhere — on the same
    /// input immediately before the parent ran, or reported by the callee —
    /// because it cannot be wrapped from outside. Such children are laid back
    /// to back from the start of their parent's interval and clipped to it,
    /// so the parent's self time is its duration minus theirs.
    pub fn record_inside(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        seconds: f64,
    ) -> SpanId {
        let (op, parent_start, parent_duration) = {
            let p = &self.spans[parent];
            (p.op, p.start_us, p.duration_us)
        };
        let offset = self.packed_us[parent];
        let duration_us = (seconds * 1e6).clamp(0.0, (parent_duration - offset).max(0.0));
        self.packed_us[parent] = offset + duration_us;
        self.push(Span {
            op,
            parent: Some(parent),
            layer,
            name,
            start_us: parent_start + offset,
            duration_us,
        })
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.packed_us.push(0.0);
        self.spans.len() - 1
    }
}

/// Self time (µs) of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent. Children may overlap
/// (blocks compiled on two workers), so the union is taken, not the sum.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_us.max(p.start_us);
            let end = (span.start_us + span.duration_us).min(p.start_us + p.duration_us);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut frontier = f64::NEG_INFINITY;
            for (start, end) in intervals {
                if end > frontier {
                    covered += end - start.max(frontier);
                    frontier = end;
                }
            }
            (span.duration_us - covered).max(0.0)
        })
        .collect()
}

/// One layer's row of the traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerRow {
    pub calls: u64,
    /// Sum of the layer's span durations (µs).
    pub busy_us: f64,
    /// Sum of the layer's self times (µs).
    pub self_us: f64,
    /// `self_us` over the summed duration of all root spans.
    pub self_share: f64,
}

/// Per-layer calls, busy time and self-time share of the op time (the summed
/// duration of the root spans).
pub fn layer_rows(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let self_us = self_times_us(spans);
    let op_time: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_us)
        .sum();
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for layer in LAYERS {
        rows.insert(layer, LayerRow::default());
    }
    for (span, own) in spans.iter().zip(self_us) {
        let row = rows.entry(span.layer).or_default();
        row.calls += 1;
        row.busy_us += span.duration_us;
        row.self_us += own;
    }
    if op_time > 0.0 {
        for row in rows.values_mut() {
            row.self_share = row.self_us / op_time;
        }
    }
    rows
}

/// Chrome `trace_event` JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, one row (`tid`) per layer, `args` carrying the op id, the
/// span's own id and its parent's.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (id, span) in spans.iter().enumerate() {
        let tid = LAYERS
            .iter()
            .position(|l| *l == span.layer)
            .unwrap_or(LAYERS.len());
        let parent = span.parent.map_or(String::from("null"), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{id},\"parent\":{parent}}}}}{}\n",
            span.layer,
            span.name,
            span.layer,
            span.start_us,
            span.duration_us,
            span.op,
            if id + 1 == spans.len() { "" } else { "," },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, layer: &'static str, start: f64, duration: f64) -> Span {
        Span {
            op: 1,
            parent,
            layer,
            name: "t",
            start_us: start,
            duration_us: duration,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, "runtime", 0.0, 100.0),
            // Two overlapping children cover [10, 50]; one disjoint child covers [60, 70].
            span(Some(0), "core", 10.0, 30.0),
            span(Some(0), "core", 20.0, 30.0),
            span(Some(0), "core", 60.0, 10.0),
            // A grandchild only reduces its own parent's self time.
            span(Some(1), "pulse", 15.0, 20.0),
            // A child sticking out of its parent is clipped to it.
            span(Some(3), "pulse", 65.0, 50.0),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[0], 50.0);
        assert_eq!(own[1], 10.0);
        assert_eq!(own[2], 30.0);
        assert_eq!(own[3], 5.0);
        assert_eq!(own[4], 20.0);
        assert_eq!(own[5], 50.0);
    }

    #[test]
    fn layer_rows_share_the_root_duration() {
        let spans = vec![
            span(None, "runtime", 0.0, 100.0),
            span(Some(0), "core", 0.0, 80.0),
            span(Some(1), "pulse", 10.0, 60.0),
        ];
        let rows = layer_rows(&spans);
        assert_eq!(rows["runtime"].calls, 1);
        assert!((rows["runtime"].self_share - 0.2).abs() < 1e-12);
        assert!((rows["core"].self_share - 0.2).abs() < 1e-12);
        assert!((rows["pulse"].self_share - 0.6).abs() < 1e-12);
        assert_eq!(rows["pulse"].busy_us, 60.0);
        assert_eq!(rows["transport"], LayerRow::default());
        let total: f64 = rows.values().map(|r| r.self_share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn children_measured_elsewhere_are_laid_inside_their_parent() {
        let mut recorder = Recorder::new();
        let start = Instant::now();
        let end = start + std::time::Duration::from_micros(100);
        let parent = recorder.record(7, None, "core", "plan", start, end);
        recorder.record_inside(parent, "circuit", "prepare", 40e-6);
        // Longer than the parent: clipped, so self time never goes negative.
        let other = recorder.record(8, None, "core", "plan", start, end);
        recorder.record_inside(other, "circuit", "prepare", 1.0);
        // Two children of one parent are packed back to back, not stacked.
        let third = recorder.record(9, None, "core", "compile_block", start, end);
        let pulse = recorder.record_inside(third, "pulse", "grape", 50e-6);
        recorder.record_inside(third, "sim", "circuit_unitary", 30e-6);
        recorder.record_inside(pulse, "linalg", "eigh", 20e-6);
        let own = self_times_us(recorder.spans());
        assert!((own[0] - 60.0).abs() < 1e-6);
        assert!((own[1] - 40.0).abs() < 1e-6);
        assert_eq!(own[2], 0.0);
        assert!(
            (own[4] - 20.0).abs() < 1e-6,
            "parent of two packed children"
        );
        assert!((own[5] - 30.0).abs() < 1e-6, "pulse minus its linalg child");
        assert_eq!(recorder.spans()[1].op, 7);
        let json = chrome_trace_json(recorder.spans());
        assert!(json.contains("\"name\":\"circuit.prepare\""));
        assert!(json.contains("\"parent\":0"));
    }
}
