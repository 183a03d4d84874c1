//! Criterion benches for the fault-simulation substrate: parallel-pattern
//! block throughput, PODEM test generation, and fault collapsing, on the
//! paper's multiplier cell (the dominant kernel of every Table 2 circuit).

use bibs_faultsim::atpg::Atpg;
use bibs_faultsim::fault::FaultUniverse;
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::Netlist;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn multiplier(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("mul");
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let p = b.array_multiplier(&a, &c, 2 * width);
    // Observe only the low half, like the paper's datapaths.
    b.output_word("p", &p[..width]);
    b.finish().expect("multiplier is well-formed")
}

fn bench_fault_sim_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sim_block64");
    for width in [4usize, 8] {
        let nl = multiplier(width);
        let universe = FaultUniverse::collapsed(&nl);
        let program = bibs_netlist::EvalProgram::compile(&nl).unwrap();
        let (observable, _) = universe.split_by_observability(&program);
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter_batched(
                || ParFaultSimulator::with_threads(&nl, observable.clone(), 1),
                |mut sim| {
                    let words: Vec<u64> = (0..nl.input_width()).map(|_| rng.gen()).collect();
                    black_box(sim.apply_block(&words, 64))
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The engine at one thread (`serial`) and at several (`parallel/N`) on
/// the same 256-pattern random stream over the 8-bit array multiplier
/// (the c4a4m-scale workload): identical reports by construction, so the
/// only thing measured is wall clock.
fn bench_engines(c: &mut Criterion) {
    let nl = multiplier(8);
    let universe = FaultUniverse::collapsed(&nl);
    let program = bibs_netlist::EvalProgram::compile(&nl).unwrap();
    let (observable, _) = universe.split_by_observability(&program);
    let mut group = c.benchmark_group("fault_sim_engine_mul8_256pat");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter_batched(
            || {
                (
                    ParFaultSimulator::with_threads(&nl, observable.clone(), 1),
                    StdRng::seed_from_u64(3),
                )
            },
            |(mut sim, mut rng)| black_box(sim.run_random(&mut rng, 256).detected_count()),
            criterion::BatchSize::SmallInput,
        )
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", threads),
            &threads,
            |b, &threads| {
                b.iter_batched(
                    || {
                        (
                            ParFaultSimulator::with_threads(&nl, observable.clone(), threads),
                            StdRng::seed_from_u64(3),
                        )
                    },
                    |(mut sim, mut rng)| black_box(sim.run_random(&mut rng, 256).detected_count()),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_podem(c: &mut Criterion) {
    let nl = multiplier(8);
    let universe = FaultUniverse::collapsed(&nl);
    let faults: Vec<_> = universe.faults().iter().copied().take(32).collect();
    c.bench_function("podem_32_faults_mul8", |b| {
        b.iter(|| {
            let mut atpg = Atpg::new(&nl);
            black_box(atpg.classify(&faults, 10_000).detectable_count())
        })
    });
}

fn bench_collapse(c: &mut Criterion) {
    let nl = multiplier(8);
    c.bench_function("fault_collapse_mul8", |b| {
        b.iter(|| black_box(FaultUniverse::collapsed(&nl).len()))
    });
}

criterion_group!(
    benches,
    bench_fault_sim_block,
    bench_engines,
    bench_podem,
    bench_collapse
);
criterion_main!(benches);
