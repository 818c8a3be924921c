//! `vqc-report` — replay metrics journals into a latency / phase-share report,
//! optionally comparing two runs as a regression gate.
//!
//! ```text
//! vqc-report BASELINE.jsonl [CANDIDATE.jsonl]
//!            [--max-p99-regression=PCT] [--max-share-drift=POINTS]
//!            [--min-samples=N]
//! ```
//!
//! A journal is a JSON-lines file of metrics snapshots as `vqc-top --json`
//! prints them: `vqc-top --json > run.jsonl` records a run at one snapshot a
//! second, `vqc-top --once --json >> run.jsonl` appends one. Each line is read
//! back into the `MetricsSnapshot` that wrote it
//! (`MetricsSnapshot::from_json_line`); a line that does not read — not JSON,
//! or a key missing or mistyped — stops the report with its line number and
//! exit code 2. Counters in the journal are cumulative, so the *last* line is
//! the latest state it saw; `vqc-report` summarizes it: per-class queue-wait
//! and submit-to-report p50/p95/p99, the compile-phase share breakdown from
//! the armed profiler, and warm-start effectiveness (seeded-iteration
//! fraction and table hit rate).
//!
//! With a second journal the report becomes a comparison — per-class quantile
//! deltas, phase-share drift in percentage points, warm-start deltas — and a
//! CI gate: the process exits nonzero when, for any class with at least
//! `--min-samples` completions in both runs, the candidate's submit-to-report
//! p99 exceeds the baseline's by more than `--max-p99-regression` percent
//! (default 50), or when any phase's share drifts by more than
//! `--max-share-drift` percentage points (default 15).

use std::process::ExitCode;
use vqc_apps::metrics_text::{fmt_duration, latency_table, phase_table};
use vqc_runtime::{MetricsSnapshot, PRIORITY_CLASS_NAMES};

/// One journal: where it came from, how many snapshots it holds, and the
/// last of them.
struct Journal {
    path: String,
    snapshots: usize,
    last: MetricsSnapshot,
}

fn load_journal(path: &str) -> Result<Journal, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read journal {path}: {e}"))?;
    let mut last = None;
    let mut snapshots = 0usize;
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let snapshot = MetricsSnapshot::from_json_line(line)
            .map_err(|e| format!("{path}:{}: {e}", number + 1))?;
        snapshots += 1;
        last = Some(snapshot);
    }
    let last = last.ok_or_else(|| format!("journal {path} holds no snapshots"))?;
    Ok(Journal {
        path: path.to_string(),
        snapshots,
        last,
    })
}

/// `hits / (hits + misses)`, `0.0` before either.
fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn seeded_fraction(run: &MetricsSnapshot) -> f64 {
    rate(
        run.warm_start.seeded_iterations,
        run.warm_start.cold_iterations,
    )
}

fn table_rate(run: &MetricsSnapshot) -> f64 {
    rate(run.warm_start.table_hits, run.warm_start.table_misses)
}

fn print_summary(journal: &Journal) {
    let run = &journal.last;
    println!(
        "{}: {} snapshots, {:.1}s uptime, {}/{} submissions completed, {:.1}% cache hits",
        journal.path,
        journal.snapshots,
        run.uptime_seconds,
        run.runtime.completed_submissions,
        run.runtime.submissions,
        run.cache_hit_ratio() * 100.0,
    );
    print!("{}", latency_table(run, "  "));
    print!("{}", phase_table(run, "  "));
    println!(
        "  warm-start: {:.1}% seeded iterations, {:.1}% table hits",
        seeded_fraction(run) * 100.0,
        table_rate(run) * 100.0,
    );
}

struct Gate {
    max_p99_regression_pct: f64,
    max_share_drift_points: f64,
    min_samples: u64,
}

fn compare(baseline: &MetricsSnapshot, candidate: &MetricsSnapshot, gate: &Gate) -> Vec<String> {
    let mut violations = Vec::new();
    println!("\ncomparison (baseline → candidate):");
    for base_class in &baseline.classes {
        let Some(cand_class) = candidate
            .classes
            .iter()
            .find(|c| c.class == base_class.class)
        else {
            continue;
        };
        let name = PRIORITY_CLASS_NAMES
            .get(base_class.class as usize)
            .copied()
            .unwrap_or("?");
        let base = &base_class.submit_to_report;
        let cand = &cand_class.submit_to_report;
        if base.count == 0 && cand.count == 0 {
            continue;
        }
        let delta_pct = |b: f64, c: f64| {
            if b <= 0.0 {
                0.0
            } else {
                (c - b) / b * 100.0
            }
        };
        println!(
            "  {:<7} e2e  p50 {} → {} ({:+.1}%)  p95 {} → {} ({:+.1}%)  p99 {} → {} ({:+.1}%)",
            name,
            fmt_duration(base.p50()),
            fmt_duration(cand.p50()),
            delta_pct(base.p50(), cand.p50()),
            fmt_duration(base.p95()),
            fmt_duration(cand.p95()),
            delta_pct(base.p95(), cand.p95()),
            fmt_duration(base.p99()),
            fmt_duration(cand.p99()),
            delta_pct(base.p99(), cand.p99()),
        );
        if base.count >= gate.min_samples
            && cand.count >= gate.min_samples
            && base.p99() > 0.0
            && delta_pct(base.p99(), cand.p99()) > gate.max_p99_regression_pct
        {
            violations.push(format!(
                "class {name} submit-to-report p99 regressed {:.1}% (limit {:.1}%)",
                delta_pct(base.p99(), cand.p99()),
                gate.max_p99_regression_pct,
            ));
        }
    }
    if !baseline.phases.is_empty() || !candidate.phases.is_empty() {
        println!("  phase shares:");
        let names: Vec<&str> = baseline
            .phases
            .iter()
            .map(|p| p.name.as_str())
            .chain(
                candidate
                    .phases
                    .iter()
                    .map(|p| p.name.as_str())
                    .filter(|n| baseline.phases.iter().all(|p| p.name != *n)),
            )
            .collect();
        for name in names {
            let share = |run: &MetricsSnapshot| {
                run.phases
                    .iter()
                    .find(|p| p.name == name)
                    .map(|p| p.share)
                    .unwrap_or(0.0)
            };
            let base_share = share(baseline);
            let cand_share = share(candidate);
            let drift_points = (cand_share - base_share) * 100.0;
            println!(
                "    {:<24} {:>6.1}% → {:>6.1}% ({:+.1} points)",
                name,
                base_share * 100.0,
                cand_share * 100.0,
                drift_points,
            );
            if drift_points.abs() > gate.max_share_drift_points {
                violations.push(format!(
                    "phase {name} share drifted {drift_points:+.1} points (limit ±{:.1})",
                    gate.max_share_drift_points,
                ));
            }
        }
    }
    let warm_delta = seeded_fraction(candidate) - seeded_fraction(baseline);
    println!(
        "  warm-start: seeded {:.1}% → {:.1}% ({:+.1} points), table {:.1}% → {:.1}%",
        seeded_fraction(baseline) * 100.0,
        seeded_fraction(candidate) * 100.0,
        warm_delta * 100.0,
        table_rate(baseline) * 100.0,
        table_rate(candidate) * 100.0,
    );
    violations
}

struct Args {
    baseline: String,
    candidate: Option<String>,
    gate: Gate,
}

fn parse_args() -> Result<Args, String> {
    let mut paths = Vec::new();
    let mut gate = Gate {
        max_p99_regression_pct: 50.0,
        max_share_drift_points: 15.0,
        min_samples: 5,
    };
    for arg in std::env::args().skip(1) {
        if let Some(value) = arg.strip_prefix("--max-p99-regression=") {
            gate.max_p99_regression_pct = value
                .parse()
                .map_err(|_| format!("bad --max-p99-regression value `{value}`"))?;
        } else if let Some(value) = arg.strip_prefix("--max-share-drift=") {
            gate.max_share_drift_points = value
                .parse()
                .map_err(|_| format!("bad --max-share-drift value `{value}`"))?;
        } else if let Some(value) = arg.strip_prefix("--min-samples=") {
            gate.min_samples = value
                .parse()
                .map_err(|_| format!("bad --min-samples value `{value}`"))?;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            paths.push(arg);
        }
    }
    match paths.len() {
        1 => Ok(Args {
            baseline: paths.remove(0),
            candidate: None,
            gate,
        }),
        2 => {
            let candidate = paths.pop();
            Ok(Args {
                baseline: paths.remove(0),
                candidate,
                gate,
            })
        }
        _ => Err(String::from("expected one or two journal paths")),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let baseline = load_journal(&args.baseline)?;
    print_summary(&baseline);
    let Some(candidate_path) = &args.candidate else {
        return Ok(true);
    };
    let candidate = load_journal(candidate_path)?;
    println!();
    print_summary(&candidate);
    let violations = compare(&baseline.last, &candidate.last, &args.gate);
    if violations.is_empty() {
        println!("\nno regressions past thresholds");
        Ok(true)
    } else {
        for violation in &violations {
            eprintln!("vqc-report: REGRESSION: {violation}");
        }
        Ok(false)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("vqc-report: {message}");
            eprintln!(
                "usage: vqc-report BASELINE.jsonl [CANDIDATE.jsonl] [--max-p99-regression=PCT] [--max-share-drift=POINTS] [--min-samples=N]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("vqc-report: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqc_runtime::{ClassLatency, LatencySummary, PhaseMetrics};

    fn gate() -> Gate {
        Gate {
            max_p99_regression_pct: 50.0,
            max_share_drift_points: 15.0,
            min_samples: 5,
        }
    }

    #[test]
    fn gate_flags_a_p99_regression_and_share_drift() {
        let run = |p99: f64, share: f64| MetricsSnapshot {
            classes: vec![ClassLatency {
                class: 1,
                queue_wait: LatencySummary::default(),
                submit_to_report: LatencySummary {
                    count: 10,
                    mean_seconds: p99 / 2.0,
                    p50_seconds: p99 / 2.0,
                    p95_seconds: p99 * 0.9,
                    p99_seconds: p99,
                },
            }],
            phases: vec![PhaseMetrics {
                name: String::from("propagation"),
                durations: LatencySummary {
                    count: 5,
                    p50_seconds: 0.01,
                    ..LatencySummary::default()
                },
                share,
            }],
            ..MetricsSnapshot::default()
        };
        // Within thresholds: +40% p99, +10 points share.
        assert!(compare(&run(0.10, 0.50), &run(0.14, 0.60), &gate()).is_empty());
        // p99 doubles: violation.
        let violations = compare(&run(0.10, 0.50), &run(0.20, 0.50), &gate());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("class normal submit-to-report p99 regressed"));
        // Share collapses by 20 points: violation.
        let violations = compare(&run(0.10, 0.50), &run(0.10, 0.30), &gate());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("share drifted"));
    }

    #[test]
    fn self_comparison_is_clean() {
        let mut snapshot = MetricsSnapshot {
            seq: 1,
            ..MetricsSnapshot::default()
        };
        snapshot.runtime.submissions = 2;
        let first = snapshot.to_json_line();
        snapshot.seq = 2;
        snapshot.runtime.completed_submissions = 2;
        let dir = std::env::temp_dir().join(format!("vqc-report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::write(&path, format!("{first}\n{}\n", snapshot.to_json_line())).unwrap();
        let journal = load_journal(path.to_str().unwrap()).expect("journal loads");
        assert_eq!(journal.snapshots, 2);
        assert_eq!(journal.last, snapshot);
        assert!(compare(&journal.last, &journal.last, &gate()).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
