//! `wire-mixed`: writes beside reads on one cache, scheduler and server.
//!
//! A `Server` on loopback fronts a runtime. Two closed-loop connections run
//! side by side: the `reader` (`Priority::HIGH`) submits warm strict LiH and
//! QAOA ops at fresh θ; the `writer` (`Priority::LOW`) submits H2, already
//! bound at a fresh θ, under full GRAPE — real GRAPE, cache and table inserts.
//! It is the only workload where frame encoding and priority scheduling
//! behind GRAPE blocks that cannot be pre-empted matter: a change that speeds
//! reads at the cost of inserts, or compiles at the cost of read latency,
//! shows here.
//!
//! Two choices keep the region stationary, so that a run measures the system
//! and not the path it happened to take. The writer's circuit carries no
//! parameter: every op has structural keys of its own, so each search is cold
//! and none is locked to the window an early op left in the warm-start table
//! (a parameterised writer's median latency differed 2x between seeds for a
//! whole 30 s run). And the cache is unbounded, the default: with 16 blocks
//! per shard under the default cost-aware eviction, a reader block that is
//! the cheapest of a full shard is evicted by every insert and compiled again
//! by every read, in episodes of 4 to 8 s that put the reader's median
//! anywhere between 1.6 and 11 ms.

use super::tracing::{wire_compile, wire_submit, ServiceClock};
use super::{
    agrees_with_reference, compiler_options, runtime_options, sequential_reference, warm_loop,
    PassClock, Plan, Tally, Workload,
};
use crate::inputs::{self, Op, Rng};
use crate::span::Recorder;
use crate::stats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqc_circuit::Circuit;
use vqc_core::{CompilationReport, Strategy};
use vqc_runtime::{CompilationRuntime, Priority};
use vqc_transport::{Client, ClientOptions, Server, ServerOptions};

/// Between two ops the writer thinks for this share of its last op's latency,
/// as an optimizer evaluating the compiled circuit would. Writing back to
/// back keeps both workers in GRAPE about half of the time, which puts the
/// reader's median on the boundary between reads that found a free worker
/// and reads that waited, where it jumps by 2x from run to run; at this duty
/// cycle about a third of the reads wait, so the reader's median measures the
/// fast path and its p90 the wait behind a GRAPE block.
const WRITER_THINK_SHARE: f64 = 1.0 / 3.0;
/// Ops of each connection kept for the output check.
const SAMPLES: usize = 3;
/// Reader ops that make one window of the run: 20 of each op type, about
/// 90 ms.
const READER_WINDOW_OPS: u64 = 60;
/// Writer compiles that make one window; the window's median is one
/// `compile_wall_s` sample.
const WRITER_WINDOW_OPS: usize = 10;

#[derive(Debug)]
pub struct WireMixed {
    // Declared before the server so the connections close first.
    reader: Client,
    writer: Client,
    server: Server,
    runtime: Arc<CompilationRuntime>,
    reader_ops: Vec<Op>,
    /// The parameterised circuit the writer binds afresh for every op.
    writer_ansatz: Circuit,
    reader_rng: Rng,
    writer_rng: Rng,
    issued: u64,
    samples: Vec<(Op, CompilationReport)>,
}

/// One op over a connection, timed from call to report, and traced when the
/// caller records spans.
fn timed_op(
    client: &Client,
    runtime: &CompilationRuntime,
    clock: ServiceClock,
    op: &Op,
    id: u64,
    spans: Option<&mut Recorder>,
) -> (f64, Option<CompilationReport>) {
    let started = Instant::now();
    let report = match spans {
        Some(spans) => wire_compile(client, runtime, clock, op, id, spans),
        None => wire_submit(client, op, None),
    };
    (started.elapsed().as_secs_f64(), report)
}

/// The writer's next op: the ansatz bound at a fresh θ, submitted as a
/// circuit without parameters.
fn next_write(ansatz: &Circuit, rng: &mut Rng) -> Op {
    let theta = inputs::fresh_parameters(ansatz.num_parameters(), rng);
    Op::new(
        "h2.full",
        &ansatz.bind(&theta),
        Strategy::FullGrape,
        Vec::new(),
    )
}

/// What the writer's loop hands back to the measuring thread.
struct Written {
    latencies: Vec<f64>,
    results: Vec<(Op, Option<CompilationReport>)>,
    spans: Option<Recorder>,
}

impl WireMixed {
    /// Runs both connections for `seconds`. With a recorder, every op of both
    /// connections is traced (reader ops get even ids, writer ops odd ones).
    fn run(&mut self, seconds: f64, tally: &mut Tally, mut recorder: Option<&mut Recorder>) {
        // Split borrows: the writer thread takes its connection, op and
        // stream; the measuring thread keeps the reader's.
        let WireMixed {
            reader,
            writer,
            runtime,
            reader_ops,
            writer_ansatz,
            reader_rng,
            writer_rng,
            issued,
            samples,
            ..
        } = self;
        let (writer, runtime) = (&*writer, &**runtime);
        let stop = AtomicBool::new(false);
        let clock = ServiceClock::of(runtime);
        let writer_spans = recorder.as_deref().map(Recorder::sibling);
        let started = Instant::now();
        let written = std::thread::scope(|scope| {
            let stop = &stop;
            let writing = scope.spawn(move || {
                let mut written = Written {
                    latencies: Vec::new(),
                    results: Vec::new(),
                    spans: writer_spans,
                };
                let mut id = 1;
                while !stop.load(Ordering::SeqCst) {
                    let writer_op = next_write(writer_ansatz, writer_rng);
                    let spans = written.spans.as_mut();
                    let (latency, report) = timed_op(writer, runtime, clock, &writer_op, id, spans);
                    id += 2;
                    std::thread::sleep(Duration::from_secs_f64(latency * WRITER_THINK_SHARE));
                    written.latencies.push(latency);
                    written.results.push((writer_op, report));
                }
                written
            });
            let mut windows = PassClock::new(READER_WINDOW_OPS);
            tally.latency_window = READER_WINDOW_OPS as usize / reader_ops.len();
            while started.elapsed().as_secs_f64() < seconds {
                let template = &reader_ops[(*issued % reader_ops.len() as u64) as usize];
                let op = template.at(inputs::fresh_parameters(template.theta.len(), reader_rng));
                *issued += 1;
                let spans = recorder.as_deref_mut();
                let (latency, report) = timed_op(reader, runtime, clock, &op, 2 * *issued, spans);
                tally.book_op(op.label, latency, report.as_ref());
                if let Some(wall) = windows.tick() {
                    tally.rate_per_s.push(READER_WINDOW_OPS as f64 / wall);
                }
                if let (Some(report), true) = (report, samples.len() < SAMPLES) {
                    // The first ops of the region, at θ the seed drew.
                    samples.push((op, report));
                }
            }
            if let Some(wall) = windows.finish() {
                tally.rate_per_s.push(READER_WINDOW_OPS as f64 / wall);
            }
            tally.wall_s += started.elapsed().as_secs_f64();
            stop.store(true, Ordering::SeqCst);
            // A panicking writer is a bug in the benchmark, not a measurement.
            writing.join().expect("the writer loop does not panic")
        });
        tally.background_ops += written.latencies.len() as u64;
        tally
            .pass_wall_s
            .extend(stats::windows(&written.latencies, WRITER_WINDOW_OPS).map(stats::median));
        let mut kept = 0;
        for (op, report) in written.results {
            tally.book(report.as_ref());
            if let (Some(report), true) = (report, kept < SAMPLES) {
                samples.push((op, report));
                kept += 1;
            }
        }
        if let (Some(recorder), Some(spans)) = (recorder, written.spans) {
            recorder.absorb(spans);
        }
    }
}

impl Workload for WireMixed {
    const NAME: &'static str = "wire-mixed";

    fn setup(plan: &Plan) -> Self {
        let mut rng = Rng::stream(plan.seed, 4);
        // The warm mix's strict ops that are worth reading over a wire.
        let reader_ops: Vec<Op> = warm_loop::op_list(plan, &mut rng)
            .into_iter()
            .filter(|op| op.strategy == Strategy::StrictPartial)
            .filter(|op| plan.smoke || op.label != "h2.strict")
            .collect();
        let runtime = Arc::new(CompilationRuntime::new(
            compiler_options(),
            runtime_options(),
        ));
        for op in &reader_ops {
            let warmed = runtime.compile(&op.circuit, &op.theta, op.strategy);
            assert!(
                warmed.is_ok(),
                "pre-compute of {} compiles: {warmed:?}",
                op.label
            );
        }
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&runtime),
            ServerOptions::default(),
        )
        .expect("an ephemeral loopback port binds");
        let connect = |name: &str, priority| {
            let options = ClientOptions::default()
                .with_name(name)
                .with_priority(priority);
            Client::connect(server.local_addr(), options).expect("the loopback server accepts")
        };
        let reader = connect("reader", Priority::HIGH);
        let writer = connect("writer", Priority::LOW);
        WireMixed {
            reader,
            writer,
            server,
            runtime,
            reader_ops,
            writer_ansatz: inputs::h2(),
            reader_rng: Rng::stream(plan.seed, 5),
            writer_rng: Rng::stream(plan.seed, 6),
            issued: 0,
            samples: Vec::new(),
        }
    }

    fn measure(&mut self, seconds: f64, tally: &mut Tally) {
        self.run(seconds, tally, None);
    }

    fn check(&mut self, tally: &mut Tally) {
        // Reads are strict, and a write's structural keys are its own: neither
        // is seeded by another op, so both must match the sequential compiler.
        for (op, report) in std::mem::take(&mut self.samples) {
            let agrees = sequential_reference(&op)
                .is_ok_and(|reference| agrees_with_reference(&report, &reference, true));
            tally.check(agrees, "wire report differs from the sequential compiler's");
        }
        tally.check(
            !self.server.is_shutting_down(),
            "the server shut down during the run",
        );
    }

    fn traced_pass(&mut self, seconds: f64, recorder: &mut Recorder, tally: &mut Tally) {
        self.run(seconds, tally, Some(recorder));
    }

    fn runtime(&self) -> Option<&CompilationRuntime> {
        Some(&self.runtime)
    }
}
