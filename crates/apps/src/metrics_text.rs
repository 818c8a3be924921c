//! Plain-text renderings of a [`MetricsSnapshot`] that `vqc-top` and
//! `vqc-report` share: one duration format, one latency table and one
//! compile-phase table.

use vqc_runtime::{MetricsSnapshot, PRIORITY_CLASS_NAMES};

/// Renders a duration in the most readable unit for its magnitude (`-` for
/// zero, which is what an empty summary reads).
pub fn fmt_duration(seconds: f64) -> String {
    if seconds <= 0.0 {
        String::from("-")
    } else if seconds < 1e-3 {
        format!("{:.0}µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{seconds:.2}s")
    }
}

/// A `width`-character bar, `#` for the filled `ratio` of it, `.` for the rest.
pub fn utilization_bar(ratio: f64, width: usize) -> String {
    let filled = (ratio.clamp(0.0, 1.0) * width as f64).round() as usize;
    (0..width)
        .map(|i| if i < filled { '#' } else { '.' })
        .collect()
}

/// The compile-phase table of the armed profiler, each line prefixed by
/// `indent`: each phase's share of profiled compile time, its per-block
/// sample count and median, and the eigensolver iterations. Empty while the
/// snapshot has no phase rows.
pub fn phase_table(snapshot: &MetricsSnapshot, indent: &str) -> String {
    if snapshot.phases.is_empty() {
        return String::new();
    }
    let mut out = format!("{indent}phases                          share    count      p50\n");
    for phase in &snapshot.phases {
        out.push_str(&format!(
            "{indent}  {:<22} [{}] {:>5.1}% {:>8} {:>8}\n",
            phase.name,
            utilization_bar(phase.share, 10),
            phase.share * 100.0,
            phase.durations.count,
            fmt_duration(phase.durations.p50()),
        ));
    }
    if snapshot.jacobi_sweeps > 0 {
        out.push_str(&format!(
            "{indent}  {} eigensolver iterations across all eigendecompositions\n",
            snapshot.jacobi_sweeps
        ));
    }
    out.push('\n');
    out
}

/// The per-class latency table: one row for each priority class's queue wait
/// and submit-to-report latency that has samples, each line prefixed by
/// `indent`.
pub fn latency_table(snapshot: &MetricsSnapshot, indent: &str) -> String {
    let mut out = format!("{indent}latency              count      p50      p95      p99\n");
    let mut rows = 0;
    for class in &snapshot.classes {
        let name = PRIORITY_CLASS_NAMES
            .get(class.class as usize)
            .copied()
            .unwrap_or("?");
        for (label, latency) in [
            ("queue", &class.queue_wait),
            ("e2e", &class.submit_to_report),
        ] {
            if latency.count > 0 {
                rows += 1;
                out.push_str(&format!(
                    "{indent}  {name:<7} {label:<9} {:>6} {:>8} {:>8} {:>8}\n",
                    latency.count,
                    fmt_duration(latency.p50()),
                    fmt_duration(latency.p95()),
                    fmt_duration(latency.p99()),
                ));
            }
        }
    }
    if rows == 0 {
        out.push_str(&format!("{indent}  (no completed submissions yet)\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqc_runtime::{ClassLatency, LatencySummary};

    #[test]
    fn durations_pick_their_unit() {
        assert_eq!(fmt_duration(0.0), "-");
        assert_eq!(fmt_duration(42e-6), "42µs");
        assert_eq!(fmt_duration(0.0125), "12.50ms");
        assert_eq!(fmt_duration(3.0), "3.00s");
    }

    #[test]
    fn the_table_lists_only_latencies_with_samples() {
        let mut snapshot = MetricsSnapshot::default();
        assert!(latency_table(&snapshot, "").contains("(no completed submissions yet)"));
        snapshot.classes.push(ClassLatency {
            class: 2,
            queue_wait: LatencySummary::default(),
            submit_to_report: LatencySummary {
                count: 4,
                mean_seconds: 0.002,
                p50_seconds: 0.0015,
                p95_seconds: 0.003,
                p99_seconds: 0.004,
            },
        });
        let table = latency_table(&snapshot, "  ");
        assert_eq!(
            table,
            "  latency              count      p50      p95      p99\n    \
             high    e2e            4   1.50ms   3.00ms   4.00ms\n"
        );
    }
}
