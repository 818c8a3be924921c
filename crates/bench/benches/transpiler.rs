//! Benchmarks of the circuit-level transpiler: optimization passes, a cold plan,
//! routing, and ASAP scheduling on the paper's benchmark circuits.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vqc_apps::molecules::Molecule;
use vqc_apps::qaoa::table3_benchmarks;
use vqc_apps::uccsd::uccsd_circuit;
use vqc_circuit::mapping::map_to_topology;
use vqc_circuit::timing::{critical_path_ns, GateTimes};
use vqc_circuit::{passes, Topology};
use vqc_core::{CompilerOptions, PartialCompiler, Strategy};

fn bench_transpiler(c: &mut Criterion) {
    let mut group = c.benchmark_group("transpiler");
    group.sample_size(10);

    let lih = uccsd_circuit(Molecule::LiH);
    group.bench_function("optimize_uccsd_lih", |b| {
        b.iter(|| passes::optimize(black_box(&lih)))
    });

    // The largest benchmark: 8 395 ops in, 5 993 prepared.
    let h2o = uccsd_circuit(Molecule::H2O);
    group.bench_function("optimize_uccsd_h2o", |b| {
        b.iter(|| passes::optimize(black_box(&h2o)))
    });

    // A cold plan: transpile, blocking and one record per block, on a compiler whose
    // plan cache has never seen the circuit.
    let h2o_params = vec![0.4; Molecule::H2O.num_parameters()];
    group.bench_function("plan_miss_uccsd_h2o", |b| {
        b.iter(|| {
            PartialCompiler::new(CompilerOptions::fast())
                .plan(black_box(&h2o), &h2o_params, Strategy::StrictPartial)
                .unwrap()
        })
    });

    let qaoa = table3_benchmarks()[7].circuit(); // 3-Regular N=6 p=8
    group.bench_function("optimize_qaoa_n6_p8", |b| {
        b.iter(|| passes::optimize(black_box(&qaoa)))
    });

    let optimized = passes::optimize(&qaoa);
    let topology = Topology::grid(2, 3);
    group.bench_function("route_qaoa_n6_p8_to_grid", |b| {
        b.iter(|| map_to_topology(black_box(&optimized), black_box(&topology)).unwrap())
    });

    let times = GateTimes::default();
    group.bench_function("critical_path_qaoa_n6_p8", |b| {
        b.iter(|| critical_path_ns(black_box(&optimized), black_box(&times)))
    });

    group.finish();
}

criterion_group!(benches, bench_transpiler);
criterion_main!(benches);
