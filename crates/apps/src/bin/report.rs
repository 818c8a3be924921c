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
//! second, `vqc-top --once --json >> run.jsonl` appends one. Counters in the
//! journal are cumulative, so the *last* line is the latest state it saw;
//! `vqc-report` summarizes it: per-class queue-wait and submit-to-report
//! p50/p95/p99, the compile-phase share breakdown from the armed profiler, and
//! warm-start effectiveness (seeded-iteration fraction and table hit rate).
//!
//! With a second journal the report becomes a comparison — per-class quantile
//! deltas, phase-share drift in percentage points, warm-start deltas — and a
//! CI gate: the process exits nonzero when, for any class with at least
//! `--min-samples` completions in both runs, the candidate's submit-to-report
//! p99 exceeds the baseline's by more than `--max-p99-regression` percent
//! (default 50), or when any phase's share drifts by more than
//! `--max-share-drift` percentage points (default 15).

use std::process::ExitCode;

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser. The workspace's vendored
// serde shim has no serde_json, and the journal schema is small and stable
// (hand-built by `MetricsSnapshot::to_json_line`), so a local parser keeps the
// reporter dependency-free.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Json::Num(value)) => *value,
            _ => 0.0,
        }
    }

    fn str_field(&self, key: &str) -> &str {
        match self.get(key) {
            Some(Json::Str(value)) => value,
            _ => "",
        }
    }

    fn arr(&self, key: &str) -> &[Json] {
        match self.get(key) {
            Some(Json::Arr(items)) => items,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("{message} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(_) => self.parse_number(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("malformed number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        // The journal schema never emits \b, \f, or \u escapes.
                        _ => return Err(self.error("unsupported escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.error("invalid utf-8"))?,
                    );
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing garbage"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Journal model: the terminal snapshot of one run.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct Quantiles {
    count: u64,
    p50: f64,
    p95: f64,
    p99: f64,
}

impl Quantiles {
    fn from_json(value: &Json) -> Quantiles {
        Quantiles {
            count: value.num("count") as u64,
            p50: value.num("p50_seconds"),
            p95: value.num("p95_seconds"),
            p99: value.num("p99_seconds"),
        }
    }
}

#[derive(Debug, Clone)]
struct ClassRow {
    name: String,
    queue_wait: Quantiles,
    submit_to_report: Quantiles,
}

#[derive(Debug, Clone)]
struct PhaseRow {
    name: String,
    share: f64,
    count: u64,
    p50: f64,
}

#[derive(Debug, Clone, Default)]
struct WarmStart {
    table_hits: f64,
    table_misses: f64,
    seeded_iterations: f64,
    cold_iterations: f64,
}

impl WarmStart {
    fn table_rate(&self) -> f64 {
        rate(self.table_hits, self.table_misses)
    }
    fn seeded_fraction(&self) -> f64 {
        rate(self.seeded_iterations, self.cold_iterations)
    }
}

fn rate(hits: f64, misses: f64) -> f64 {
    if hits + misses <= 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

#[derive(Debug, Clone)]
struct RunSummary {
    path: String,
    snapshots: usize,
    uptime_seconds: f64,
    submissions: u64,
    completed: u64,
    cache_hit_ratio: f64,
    jacobi_sweeps: u64,
    classes: Vec<ClassRow>,
    phases: Vec<PhaseRow>,
    warm_start: WarmStart,
}

fn load_journal(path: &str) -> Result<RunSummary, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read journal {path}: {e}"))?;
    let mut last = None;
    let mut snapshots = 0usize;
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value =
            parse_json(line).map_err(|e| format!("{path}:{}: bad JSON line: {e}", number + 1))?;
        snapshots += 1;
        last = Some(value);
    }
    let last = last.ok_or_else(|| format!("journal {path} holds no snapshots"))?;
    let classes = last
        .arr("classes")
        .iter()
        .map(|class| ClassRow {
            name: class.str_field("class").to_string(),
            queue_wait: class
                .get("queue_wait")
                .map(Quantiles::from_json)
                .unwrap_or_default(),
            submit_to_report: class
                .get("submit_to_report")
                .map(Quantiles::from_json)
                .unwrap_or_default(),
        })
        .collect();
    let phases = last
        .arr("phases")
        .iter()
        .map(|phase| {
            let durations = phase
                .get("durations")
                .map(Quantiles::from_json)
                .unwrap_or_default();
            PhaseRow {
                name: phase.str_field("name").to_string(),
                share: phase.num("share"),
                count: durations.count,
                p50: durations.p50,
            }
        })
        .collect();
    let warm = last.get("warm_start");
    let warm_start = warm
        .map(|w| WarmStart {
            table_hits: w.num("table_hits"),
            table_misses: w.num("table_misses"),
            seeded_iterations: w.num("seeded_iterations"),
            cold_iterations: w.num("cold_iterations"),
        })
        .unwrap_or_default();
    Ok(RunSummary {
        path: path.to_string(),
        snapshots,
        uptime_seconds: last.num("uptime_seconds"),
        submissions: last.num("submissions") as u64,
        completed: last.num("completed") as u64,
        cache_hit_ratio: last.get("cache").map(|c| c.num("hit_ratio")).unwrap_or(0.0),
        jacobi_sweeps: last.num("jacobi_sweeps") as u64,
        classes,
        phases,
        warm_start,
    })
}

// ---------------------------------------------------------------------------
// Rendering and the regression gate.
// ---------------------------------------------------------------------------

fn fmt_duration(seconds: f64) -> String {
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

fn print_summary(run: &RunSummary) {
    println!(
        "{}: {} snapshots, {:.1}s uptime, {}/{} submissions completed, {:.1}% cache hits",
        run.path,
        run.snapshots,
        run.uptime_seconds,
        run.completed,
        run.submissions,
        run.cache_hit_ratio * 100.0,
    );
    println!("  latency              count      p50      p95      p99");
    for class in &run.classes {
        for (label, q) in [
            ("queue", &class.queue_wait),
            ("e2e", &class.submit_to_report),
        ] {
            if q.count > 0 {
                println!(
                    "    {:<7} {:<9} {:>6} {:>8} {:>8} {:>8}",
                    class.name,
                    label,
                    q.count,
                    fmt_duration(q.p50),
                    fmt_duration(q.p95),
                    fmt_duration(q.p99),
                );
            }
        }
    }
    if !run.phases.is_empty() {
        println!("  phases                         share    count      p50");
        for phase in &run.phases {
            println!(
                "    {:<24} {:>6.1}% {:>8} {:>8}",
                phase.name,
                phase.share * 100.0,
                phase.count,
                fmt_duration(phase.p50),
            );
        }
        println!("    {} eigensolver iterations", run.jacobi_sweeps);
    }
    let warm = &run.warm_start;
    println!(
        "  warm-start: {:.1}% seeded iterations, {:.1}% table hits",
        warm.seeded_fraction() * 100.0,
        warm.table_rate() * 100.0,
    );
}

struct Gate {
    max_p99_regression_pct: f64,
    max_share_drift_points: f64,
    min_samples: u64,
}

fn compare(baseline: &RunSummary, candidate: &RunSummary, gate: &Gate) -> Vec<String> {
    let mut violations = Vec::new();
    println!("\ncomparison (baseline → candidate):");
    for base_class in &baseline.classes {
        let Some(cand_class) = candidate.classes.iter().find(|c| c.name == base_class.name) else {
            continue;
        };
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
            base_class.name,
            fmt_duration(base.p50),
            fmt_duration(cand.p50),
            delta_pct(base.p50, cand.p50),
            fmt_duration(base.p95),
            fmt_duration(cand.p95),
            delta_pct(base.p95, cand.p95),
            fmt_duration(base.p99),
            fmt_duration(cand.p99),
            delta_pct(base.p99, cand.p99),
        );
        if base.count >= gate.min_samples
            && cand.count >= gate.min_samples
            && base.p99 > 0.0
            && delta_pct(base.p99, cand.p99) > gate.max_p99_regression_pct
        {
            violations.push(format!(
                "class {} submit-to-report p99 regressed {:.1}% (limit {:.1}%)",
                base_class.name,
                delta_pct(base.p99, cand.p99),
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
            let share = |run: &RunSummary| {
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
    let warm_delta = candidate.warm_start.seeded_fraction() - baseline.warm_start.seeded_fraction();
    println!(
        "  warm-start: seeded {:.1}% → {:.1}% ({:+.1} points), table {:.1}% → {:.1}%",
        baseline.warm_start.seeded_fraction() * 100.0,
        candidate.warm_start.seeded_fraction() * 100.0,
        warm_delta * 100.0,
        baseline.warm_start.table_rate() * 100.0,
        candidate.warm_start.table_rate() * 100.0,
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
    let violations = compare(&baseline, &candidate, &args.gate);
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

    #[test]
    fn parses_a_journal_line_shape() {
        let line = "{\"seq\":3,\"uptime_seconds\":1.25,\"submissions\":4,\"completed\":4,\
                    \"cache\":{\"hits\":6,\"misses\":2,\"hit_ratio\":0.75},\
                    \"warm_start\":{\"table_hits\":3,\"table_misses\":1,\
                    \"seeded_iterations\":80,\"cold_iterations\":20},\
                    \"phases\":[{\"name\":\"propagation\",\"share\":0.6,\
                    \"durations\":{\"count\":7,\"mean_seconds\":0.01,\"p50_seconds\":0.009,\
                    \"p95_seconds\":0.02,\"p99_seconds\":0.02}}],\"jacobi_sweeps\":42,\
                    \"classes\":[{\"class\":\"normal\",\
                    \"queue_wait\":{\"count\":4,\"mean_seconds\":0.001,\"p50_seconds\":0.001,\
                    \"p95_seconds\":0.002,\"p99_seconds\":0.002},\
                    \"submit_to_report\":{\"count\":4,\"mean_seconds\":0.1,\"p50_seconds\":0.09,\
                    \"p95_seconds\":0.2,\"p99_seconds\":0.25}}]}";
        let value = parse_json(line).expect("journal line parses");
        assert_eq!(value.num("seq"), 3.0);
        assert_eq!(value.arr("phases").len(), 1);
        assert_eq!(value.arr("phases")[0].str_field("name"), "propagation");
        assert_eq!(value.num("jacobi_sweeps"), 42.0);
        let class = &value.arr("classes")[0];
        assert_eq!(class.str_field("class"), "normal");
        let quantiles = Quantiles::from_json(class.get("submit_to_report").unwrap());
        assert_eq!(quantiles.count, 4);
        assert!((quantiles.p99 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gate_flags_a_p99_regression_and_share_drift() {
        let quantiles = |p99: f64| Quantiles {
            count: 10,
            p50: p99 / 2.0,
            p95: p99 * 0.9,
            p99,
        };
        let run = |p99: f64, share: f64| RunSummary {
            path: String::from("x"),
            snapshots: 1,
            uptime_seconds: 1.0,
            submissions: 10,
            completed: 10,
            cache_hit_ratio: 0.5,
            jacobi_sweeps: 1,
            classes: vec![ClassRow {
                name: String::from("normal"),
                queue_wait: Quantiles::default(),
                submit_to_report: quantiles(p99),
            }],
            phases: vec![PhaseRow {
                name: String::from("propagation"),
                share,
                count: 5,
                p50: 0.01,
            }],
            warm_start: WarmStart::default(),
        };
        let gate = Gate {
            max_p99_regression_pct: 50.0,
            max_share_drift_points: 15.0,
            min_samples: 5,
        };
        // Within thresholds: +40% p99, +10 points share.
        assert!(compare(&run(0.10, 0.50), &run(0.14, 0.60), &gate).is_empty());
        // p99 doubles: violation.
        let violations = compare(&run(0.10, 0.50), &run(0.20, 0.50), &gate);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("p99 regressed"));
        // Share collapses by 20 points: violation.
        let violations = compare(&run(0.10, 0.50), &run(0.10, 0.30), &gate);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("share drifted"));
    }

    #[test]
    fn self_comparison_is_clean() {
        let text = "{\"seq\":1,\"uptime_seconds\":1.0,\"submissions\":2,\"completed\":2,\
                    \"cache\":{\"hit_ratio\":0.5},\"warm_start\":{},\"phases\":[],\
                    \"jacobi_sweeps\":0,\"classes\":[]}";
        let dir = std::env::temp_dir().join(format!("vqc-report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::write(&path, format!("{text}\n{text}\n")).unwrap();
        let summary = load_journal(path.to_str().unwrap()).expect("journal loads");
        assert_eq!(summary.snapshots, 2);
        let gate = Gate {
            max_p99_regression_pct: 50.0,
            max_share_drift_points: 15.0,
            min_samples: 5,
        };
        assert!(compare(&summary, &summary, &gate).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
