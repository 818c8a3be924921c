//! `warm-loop`: the steady state strict and flexible partial compilation
//! promise — a fresh θ every op and zero GRAPE.
//!
//! One closed-loop caller runs `runtime.submit(Submission::single(..)).wait()`
//! rotating over H2 and LiH under strict and flexible compilation and two
//! QAOA instances under strict; all pre-compute happens in set-up. The
//! circuit passes, `core`'s plan / `BlockKey` / probe / assemble and the
//! runtime's admission and thread hops are all of the time, `pulse` and
//! `linalg` none of it. Strict ops probe the cache by bound key, flexible ops
//! by structural key.

use super::tracing::{service_compile, service_submit, ServiceClock};
use super::{
    agrees_with_reference, compiler_options, runtime_options, sequential_reference, PassClock,
    Plan, Tally, Workload,
};
use crate::inputs::{self, Op, Rng};
use crate::span::Recorder;
use std::time::Instant;
use vqc_core::{CompilationReport, Strategy};
use vqc_runtime::CompilationRuntime;

/// Ops whose summed wall time is one `compile_wall_s` sample, and one window
/// of the run: 20 rounds over the six ops, about 50 ms.
const PASS_OPS: u64 = 120;
/// Ops kept for the output check, drawn from the first `SAMPLED_OPS` of the
/// timed region.
const SAMPLES: usize = 2;
const SAMPLED_OPS: usize = 600;

#[derive(Debug)]
pub struct WarmLoop {
    runtime: CompilationRuntime,
    ops: Vec<Op>,
    rng: Rng,
    issued: u64,
    /// Seeded positions in the op stream whose reports are kept for checking.
    sample_at: Vec<u64>,
    samples: Vec<(Op, CompilationReport)>,
}

/// The warm op mix at the reference binding.
pub fn op_list(plan: &Plan, rng: &mut Rng) -> Vec<Op> {
    let at_reference = |label, circuit: &vqc_circuit::Circuit, strategy| {
        let theta = inputs::reference_parameters(circuit.num_parameters());
        Op::new(label, circuit, strategy, theta)
    };
    let h2 = inputs::h2();
    let mut ops = vec![
        at_reference("h2.strict", &h2, Strategy::StrictPartial),
        at_reference("h2.flexible", &h2, Strategy::FlexiblePartial),
    ];
    if !plan.smoke {
        let lih = inputs::lih();
        ops.push(at_reference("lih.strict", &lih, Strategy::StrictPartial));
        ops.push(at_reference(
            "lih.flexible",
            &lih,
            Strategy::FlexiblePartial,
        ));
        let regular = inputs::qaoa_regular(rng);
        ops.push(at_reference(
            "qaoa3.strict",
            &regular,
            Strategy::StrictPartial,
        ));
        let gnm = inputs::qaoa_gnm(rng);
        ops.push(at_reference(
            "qaoa-gnm.strict",
            &gnm,
            Strategy::StrictPartial,
        ));
    }
    ops
}

impl WarmLoop {
    /// The next op of the rotation at a fresh binding.
    fn next_op(&mut self) -> Op {
        let template = &self.ops[(self.issued % self.ops.len() as u64) as usize];
        let theta = inputs::fresh_parameters(template.theta.len(), &mut self.rng);
        self.issued += 1;
        template.at(theta)
    }
}

impl Workload for WarmLoop {
    const NAME: &'static str = "warm-loop";

    fn setup(plan: &Plan) -> Self {
        let mut rng = Rng::stream(plan.seed, 3);
        let ops = op_list(plan, &mut rng);
        let runtime = CompilationRuntime::new(compiler_options(), runtime_options());
        for op in &ops {
            let warmed = runtime.compile(&op.circuit, &op.theta, op.strategy);
            assert!(
                warmed.is_ok(),
                "pre-compute of {} compiles: {warmed:?}",
                op.label
            );
        }
        let sample_at = (0..SAMPLES)
            .map(|_| rng.below(SAMPLED_OPS) as u64)
            .collect();
        WarmLoop {
            runtime,
            ops,
            rng,
            issued: 0,
            sample_at,
            samples: Vec::new(),
        }
    }

    fn measure(&mut self, seconds: f64, tally: &mut Tally) {
        let started = Instant::now();
        let mut passes = PassClock::new(PASS_OPS);
        tally.latency_window = PASS_OPS as usize / self.ops.len();
        while started.elapsed().as_secs_f64() < seconds {
            let op = self.next_op();
            let op_started = Instant::now();
            let report = service_submit(&self.runtime, &op, None);
            tally.book_op(
                op.label,
                op_started.elapsed().as_secs_f64(),
                report.as_ref(),
            );
            if let Some(wall) = passes.tick() {
                tally.book_pass(PASS_OPS, wall);
            }
            if let (Some(report), true) = (report, self.sample_at.contains(&(self.issued - 1))) {
                self.samples.push((op, report));
            }
        }
        if let Some(wall) = passes.finish() {
            tally.book_pass(PASS_OPS, wall);
        }
        tally.wall_s += started.elapsed().as_secs_f64();
    }

    fn check(&mut self, tally: &mut Tally) {
        // No op of the timed region may have run GRAPE: that is the promise.
        tally.check(
            tally.counts.grape_blocks == 0,
            "a warm op ran GRAPE in the timed region",
        );
        for (op, report) in std::mem::take(&mut self.samples) {
            let exact = op.strategy == Strategy::StrictPartial;
            let agrees = sequential_reference(&op)
                .is_ok_and(|reference| agrees_with_reference(&report, &reference, exact));
            tally.check(
                agrees,
                "service report differs from the sequential compiler's",
            );
        }
    }

    fn traced_pass(&mut self, seconds: f64, recorder: &mut Recorder, tally: &mut Tally) {
        let clock = ServiceClock::of(&self.runtime);
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            let op = self.next_op();
            let op_started = Instant::now();
            let report = service_compile(&self.runtime, clock, &op, self.issued, recorder);
            tally.book_op(
                op.label,
                op_started.elapsed().as_secs_f64(),
                report.as_ref(),
            );
        }
        tally.wall_s += started.elapsed().as_secs_f64();
    }

    fn runtime(&self) -> Option<&CompilationRuntime> {
        Some(&self.runtime)
    }
}
