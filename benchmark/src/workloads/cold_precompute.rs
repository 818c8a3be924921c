//! `cold-precompute`: the paper's pre-compute / first-iteration cost.
//!
//! Sequential `PartialCompiler::compile`, a fresh compiler per op (cold
//! cache, cold warm-start table), over UCCSD H2 and LiH under strict,
//! flexible and full-GRAPE compilation plus one QAOA instance under strict.
//! Nearly all of the time is duration search, hyperparameter grid, GRAPE and
//! eigensolves (`pulse` + `linalg`); `runtime` and `transport` do nothing, and
//! on one thread the solver's counts repeat exactly.

use super::tracing::seam_compile;
use super::{compiler_options, Plan, Tally, Workload};
use crate::inputs::{self, Op, Rng};
use crate::span::Recorder;
use std::time::{Duration, Instant};
use vqc_circuit::passes;
use vqc_circuit::timing::critical_path_ns;
use vqc_core::{CompilationReport, PartialCompiler, Strategy, WarmStartStats};
use vqc_runtime::CompilationRuntime;

#[derive(Debug)]
pub struct ColdPrecompute {
    ops: Vec<Op>,
    /// Each op's gate-based schedule (ns), computed in set-up from the circuit
    /// layer alone: what the reports' baselines are checked against.
    baselines_ns: Vec<f64>,
    /// Reports of the first measured pass: later passes must repeat them.
    first_pass: Vec<CompilationReport>,
    warm_start: WarmStartStats,
}

fn op_list(plan: &Plan) -> Vec<Op> {
    let mut rng = Rng::stream(plan.seed, 1);
    let mut ops = Vec::new();
    let mut molecule = |labels: [&'static str; 3], circuit: vqc_circuit::Circuit| {
        let strategies = [
            Strategy::StrictPartial,
            Strategy::FlexiblePartial,
            Strategy::FullGrape,
        ];
        for (label, strategy) in labels.into_iter().zip(strategies) {
            let theta = inputs::reference_parameters(circuit.num_parameters());
            ops.push(Op::new(label, &circuit, strategy, theta));
        }
    };
    molecule(["h2.strict", "h2.flexible", "h2.full"], inputs::h2());
    if !plan.smoke {
        molecule(["lih.strict", "lih.flexible", "lih.full"], inputs::lih());
        let qaoa = inputs::qaoa_regular(&mut rng);
        let theta = inputs::reference_parameters(qaoa.num_parameters());
        ops.push(Op::new(
            "qaoa3.strict",
            &qaoa,
            Strategy::StrictPartial,
            theta,
        ));
    }
    ops
}

impl ColdPrecompute {
    /// One pass over the op list, cut short once `deadline` has passed.
    fn pass(
        &mut self,
        tally: &mut Tally,
        deadline: Option<Instant>,
        mut compile: impl FnMut(&PartialCompiler, &Op, usize) -> Option<CompilationReport>,
    ) -> Vec<Option<CompilationReport>> {
        let mut reports = Vec::with_capacity(self.ops.len());
        for (index, op) in self.ops.iter().enumerate() {
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                break;
            }
            let op_started = Instant::now();
            let compiler = PartialCompiler::new(compiler_options());
            let report = compile(&compiler, op, index);
            tally.book_op(
                op.label,
                op_started.elapsed().as_secs_f64(),
                report.as_ref(),
            );
            let stats = compiler.library().warm_start_stats();
            self.warm_start.table_hits += stats.table_hits;
            self.warm_start.table_misses += stats.table_misses;
            self.warm_start.memo_hits += stats.memo_hits;
            self.warm_start.memo_misses += stats.memo_misses;
            self.warm_start.seeded_iterations += stats.seeded_iterations;
            self.warm_start.cold_iterations += stats.cold_iterations;
            reports.push(report);
        }
        reports
    }
}

impl Workload for ColdPrecompute {
    const NAME: &'static str = "cold-precompute";

    fn setup(plan: &Plan) -> Self {
        let ops = op_list(plan);
        let gate_times = compiler_options().gate_times;
        let baselines_ns = ops
            .iter()
            .map(|op| critical_path_ns(&passes::optimize(&op.circuit), &gate_times))
            .collect();
        ColdPrecompute {
            ops,
            baselines_ns,
            first_pass: Vec::new(),
            warm_start: WarmStartStats::default(),
        }
    }

    fn measure(&mut self, seconds: f64, tally: &mut Tally) {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        while self.first_pass.is_empty() || Instant::now() < deadline {
            // The first pass always runs to its end; a later one stops with
            // the region.
            let deadline = (!self.first_pass.is_empty()).then_some(deadline);
            let reports = self.pass(tally, deadline, |compiler, op, _| {
                compiler.compile(&op.circuit, &op.theta, op.strategy).ok()
            });
            if self.first_pass.is_empty() {
                self.first_pass = reports.into_iter().flatten().collect();
            } else {
                // One thread, fresh compiler per op: every pass must repeat
                // the first one's durations and flags bit for bit.
                let repeats = reports
                    .iter()
                    .zip(&self.first_pass)
                    .all(|(now, first)| now.as_ref().is_some_and(|now| same_outcome(now, first)));
                tally.check(repeats, "a cold pass did not repeat the first pass");
            }
        }
        tally.wall_s += started.elapsed().as_secs_f64();
        tally.book_repeated_pass();
    }

    fn check(&mut self, tally: &mut Tally) {
        for (baseline, report) in self.baselines_ns.iter().zip(&self.first_pass) {
            tally.check(
                (report.gate_based_duration_ns - baseline).abs() < 1e-9
                    && report.pulse_duration_ns <= baseline + 1e-9,
                "pulse longer than the recomputed gate-based schedule",
            );
        }
    }

    fn traced_pass(&mut self, _seconds: f64, recorder: &mut Recorder, tally: &mut Tally) {
        let started = Instant::now();
        self.pass(tally, None, |compiler, op, index| {
            seam_compile(compiler, op, index as u64, recorder).ok()
        });
        tally.wall_s += started.elapsed().as_secs_f64();
    }

    fn runtime(&self) -> Option<&CompilationRuntime> {
        None
    }

    fn warm_start(&self) -> WarmStartStats {
        self.warm_start
    }
}

/// Whether two reports of the same op carry the same durations, iteration
/// counts and flags (timings aside).
fn same_outcome(a: &CompilationReport, b: &CompilationReport) -> bool {
    a.pulse_duration_ns == b.pulse_duration_ns
        && a.num_blocks == b.num_blocks
        && a.blocks.len() == b.blocks.len()
        && a.blocks.iter().zip(&b.blocks).all(|(x, y)| {
            x.duration_ns == y.duration_ns
                && x.converged == y.converged
                && x.grape_iterations == y.grape_iterations
        })
}
