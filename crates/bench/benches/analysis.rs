//! Criterion benches for the semantic analysis layer: what the static
//! sweeps cost (ternary abstract interpretation, SCOAP, the untestability
//! prover, dominance collapsing) and what they buy (fault-simulating only
//! dominance-class representatives and expanding the detection map vs
//! simulating the whole equivalence-collapsed universe). EXPERIMENTS.md
//! records the resulting shrink and wall-clock ratios.

use bibs_faultsim::fault::{DominanceCollapse, FaultUniverse, StaticFaultAnalysis};
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_netlist::analysis::{ternary_analyze, PiAssumption, Scoap};
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::{EvalProgram, Netlist};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// The individual static sweeps on the mul8 cell: each runs once per
/// kernel per table2 column, so single-sweep cost bounds the analysis
/// overhead reported in `SimStats::analysis_wall`.
fn bench_sweeps(c: &mut Criterion) {
    let nl = multiplier(8);
    let program = EvalProgram::compile(&nl).expect("acyclic");
    let mut group = c.benchmark_group("analysis_sweeps_mul8");
    group.bench_function("ternary_all_x", |b| {
        b.iter(|| {
            black_box(
                ternary_analyze(&program, &PiAssumption::AllX)
                    .constants()
                    .count(),
            )
        })
    });
    let abs = ternary_analyze(&program, &PiAssumption::AllX);
    group.bench_function("scoap_seeded", |b| {
        b.iter(|| black_box(Scoap::compute_with(&program, Some(&abs)).unobservable(0)))
    });
    group.bench_function("static_fault_analysis", |b| {
        b.iter(|| {
            let sfa = StaticFaultAnalysis::new(&program);
            black_box(sfa.scoap().unobservable(0))
        })
    });
    group.finish();
}

/// Partitioning and collapsing the full observable fault list: the two
/// per-kernel front-end passes the table2 pipeline runs before simulating.
fn bench_collapse(c: &mut Criterion) {
    let nl = multiplier(8);
    let program = EvalProgram::compile(&nl).expect("acyclic");
    let universe = FaultUniverse::collapsed(&nl);
    let (observable, _) = universe.split_by_observability(&program);
    let sfa = StaticFaultAnalysis::new(&program);
    let mut group = c.benchmark_group("analysis_collapse_mul8");
    group.bench_function("partition_untestable", |b| {
        b.iter(|| black_box(sfa.partition(&program, &observable).0.len()))
    });
    let (to_sim, _) = sfa.partition(&program, &observable);
    group.bench_function("dominance_build", |b| {
        b.iter(|| black_box(DominanceCollapse::build(&to_sim, &program).rep_count()))
    });
    group.finish();
}

/// The payoff: random-pattern fault simulation of every observable fault
/// vs only the dominance-class representatives plus exact expansion. Both
/// produce identical detection maps; the representative run simulates
/// strictly fewer faulty machines.
fn bench_payoff(c: &mut Criterion) {
    let nl = multiplier(8);
    let program = EvalProgram::compile(&nl).expect("acyclic");
    let universe = FaultUniverse::collapsed(&nl);
    let (observable, _) = universe.split_by_observability(&program);
    let sfa = StaticFaultAnalysis::new(&program);
    let (to_sim, _) = sfa.partition(&program, &observable);
    let dc = DominanceCollapse::build(&to_sim, &program);
    let mut group = c.benchmark_group("fault_sim_mul8_256pat_collapse");
    group.sample_size(10);
    group.bench_function("equiv_all_faults", |b| {
        b.iter_batched(
            || {
                (
                    ParFaultSimulator::with_threads(&nl, to_sim.clone(), 1),
                    StdRng::seed_from_u64(3),
                )
            },
            |(mut sim, mut rng)| black_box(sim.run_random(&mut rng, 256).detected_count()),
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("dominance_reps_expanded", |b| {
        b.iter_batched(
            || {
                (
                    ParFaultSimulator::with_threads(&nl, dc.representative_faults(), 1),
                    StdRng::seed_from_u64(3),
                )
            },
            |(mut sim, mut rng)| {
                let report = sim.run_random(&mut rng, 256);
                let expanded = dc.expand_detection(report.detection());
                black_box(expanded.iter().filter(|d| d.is_some()).count())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_sweeps, bench_collapse, bench_payoff);
criterion_main!(benches);
