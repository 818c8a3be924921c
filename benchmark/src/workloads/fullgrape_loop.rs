//! `fullgrape-loop`: the paper's pain point — full GRAPE at every iteration.
//!
//! LiH UCCSD under `Strategy::FullGrape` through `CompilationRuntime::compile`
//! along a seeded θ random walk. Set-up is a fresh runtime and one cold
//! iteration at the walk's start; every timed iteration then misses the
//! bound-key cache on its θ-blocks, hits it on the Fixed ones, and is seeded
//! by the transposition table and `EigenMemo` — the warm-start layers, LPT
//! scheduling and the worker pool do the work here and nothing in
//! `cold-precompute`.
//!
//! A pass is the walk's eight iterations; every pass starts from a fresh
//! set-up and walks the same θ, so the passes of a run repeat each other. What
//! an iteration costs depends on what the iterations before it left in the
//! table: on one long walk a block that happens to converge once seeds its
//! successors, and the loop drops from 0.6 s to 4 ms per iteration until a
//! later θ loses the seed again — for two seeds in fourteen within 20 s. A
//! run made of short passes from the same start measures the same thing
//! every time.

use super::tracing::{service_compile, ServiceClock};
use super::{
    agrees_with_reference, compiler_options, runtime_options, sequential_reference, Plan, Tally,
    Workload,
};
use crate::inputs::{self, Op, Rng};
use crate::span::Recorder;
use std::time::{Duration, Instant};
use vqc_core::{CompilationReport, Strategy};
use vqc_runtime::CompilationRuntime;

/// Largest move of one parameter between two iterations of the walk.
const WALK_STEP: f64 = 0.1;
/// Iterations of one pass, by the label their latencies are grouped under:
/// each is a window of its own, as the ops of `cold-precompute` are.
const ITERATIONS: [&str; 8] = [
    "full.1", "full.2", "full.3", "full.4", "full.5", "full.6", "full.7", "full.8",
];

#[derive(Debug)]
pub struct FullGrapeLoop {
    plan: Plan,
    runtime: CompilationRuntime,
    /// The op at every θ of the walk, in order.
    walk: Vec<Op>,
    /// Which iteration of the first pass is kept for the output check.
    sample_at: usize,
    sample: Option<(Op, CompilationReport)>,
}

impl FullGrapeLoop {
    /// Everything a pass starts from, built anew.
    fn restart(&mut self) {
        let sample = self.sample.take();
        *self = Self::setup(&self.plan);
        self.sample = sample;
    }

    /// One pass over the walk, cut short once `deadline` has passed; `compile`
    /// runs one iteration and hands back its report.
    fn pass(
        &mut self,
        tally: &mut Tally,
        deadline: Option<Instant>,
        mut compile: impl FnMut(&CompilationRuntime, &Op, usize) -> Option<CompilationReport>,
    ) {
        for (index, (label, op)) in ITERATIONS.into_iter().zip(&self.walk).enumerate() {
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                break;
            }
            let started = Instant::now();
            let report = compile(&self.runtime, op, index);
            let seconds = started.elapsed().as_secs_f64();
            tally.book_op(label, seconds, report.as_ref());
            tally.wall_s += seconds;
            if let (Some(report), true) = (report, self.sample.is_none() && index == self.sample_at)
            {
                self.sample = Some((op.clone(), report));
            }
        }
    }
}

impl Workload for FullGrapeLoop {
    const NAME: &'static str = "fullgrape-loop";

    fn setup(plan: &Plan) -> Self {
        let mut rng = Rng::stream(plan.seed, 2);
        let circuit = if plan.smoke {
            inputs::h2()
        } else {
            inputs::lih()
        };
        let mut theta = inputs::seeded_parameters(circuit.num_parameters(), WALK_STEP, &mut rng);
        let runtime = CompilationRuntime::new(compiler_options(), runtime_options());
        // The cold first iteration: cache, table and memo start empty.
        let cold = runtime.compile(&circuit, &theta, Strategy::FullGrape);
        assert!(cold.is_ok(), "the cold iteration compiles: {cold:?}");
        let walk = ITERATIONS
            .into_iter()
            .map(|label| {
                inputs::walk(&mut theta, WALK_STEP, &mut rng);
                Op::new(label, &circuit, Strategy::FullGrape, theta.clone())
            })
            .collect();
        FullGrapeLoop {
            plan: *plan,
            runtime,
            walk,
            sample_at: rng.below(ITERATIONS.len()),
            sample: None,
        }
    }

    fn measure(&mut self, seconds: f64, tally: &mut Tally) {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        // The first pass runs on what set-up built and to its end; every
        // later one sets up again — one more `setup_s` sample — and stops
        // with the region.
        self.pass(tally, None, |runtime, op, _| {
            runtime.compile(&op.circuit, &op.theta, op.strategy).ok()
        });
        while Instant::now() < deadline {
            let started = Instant::now();
            self.restart();
            tally.setup_s.push(started.elapsed().as_secs_f64());
            self.pass(tally, Some(deadline), |runtime, op, _| {
                runtime.compile(&op.circuit, &op.theta, op.strategy).ok()
            });
        }
        tally.book_repeated_pass();
    }

    fn check(&mut self, tally: &mut Tally) {
        let Some((op, report)) = self.sample.take() else {
            return;
        };
        let agrees = sequential_reference(&op)
            .is_ok_and(|reference| agrees_with_reference(&report, &reference, false));
        tally.check(
            agrees,
            "service report differs from the sequential compiler's",
        );
    }

    fn traced_pass(&mut self, _seconds: f64, recorder: &mut Recorder, tally: &mut Tally) {
        // The untraced stretch left this runtime's cache holding the walk.
        self.restart();
        let clock = ServiceClock::of(&self.runtime);
        self.pass(tally, None, |runtime, op, index| {
            service_compile(runtime, clock, op, index as u64, recorder)
        });
    }

    fn runtime(&self) -> Option<&CompilationRuntime> {
        Some(&self.runtime)
    }
}
