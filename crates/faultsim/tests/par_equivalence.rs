//! Thread-count equivalence: the engine at 2, 4 and 8 threads must
//! produce reports **bit-identical** to its one-thread (serial) run —
//! same `detection()` vector
//! (every first-detection pattern index), same `patterns_applied()` —
//! for every circuit, seed and thread count. This is the contract that
//! makes `BIBS_JOBS` a pure wall-clock knob.
//!
//! Covered here: ripple-carry adders, array multipliers, the kernels
//! BIBS extracts from `circuits/fig4.ckt` (the paper's running example),
//! and a proptest over random gate DAGs.

use bibs_faultsim::fault::{Fault, FaultUniverse};
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::Netlist;
use bibs_rtl::VertexKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

const THREADS: [usize; 3] = [2, 4, 8];
const SEEDS: [u64; 3] = [1, 0xB1B5, 0x51B5_1994];

/// Runs the engine at one thread and at every `THREADS` count over the
/// same streams and asserts bit-identical reports: exhaustively (when feasible) and over every `SEEDS` random
/// stream, for every `THREADS` count.
fn assert_engines_equivalent(netlist: &Netlist, faults: &[Fault], max_patterns: u64) {
    let exhaustive_ok = netlist.input_width() <= 16;
    let serial_ex = exhaustive_ok
        .then(|| ParFaultSimulator::with_threads(netlist, faults.to_vec(), 1).run_exhaustive());
    for &threads in &THREADS {
        if let Some(serial) = &serial_ex {
            let par =
                ParFaultSimulator::with_threads(netlist, faults.to_vec(), threads).run_exhaustive();
            assert_eq!(
                serial.detection(),
                par.detection(),
                "exhaustive detection mismatch at {threads} thread(s)"
            );
            assert_eq!(serial.patterns_applied(), par.patterns_applied());
        }
        for &seed in &SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let serial = ParFaultSimulator::with_threads(netlist, faults.to_vec(), 1)
                .run_random(&mut rng, max_patterns);
            let mut rng = StdRng::seed_from_u64(seed);
            let par = ParFaultSimulator::with_threads(netlist, faults.to_vec(), threads)
                .run_random(&mut rng, max_patterns);
            assert_eq!(
                serial.detection(),
                par.detection(),
                "random-stream detection mismatch at {threads} thread(s), seed {seed:#x}"
            );
            assert_eq!(serial.patterns_applied(), par.patterns_applied());
            assert_eq!(par.stats().threads, threads);
            assert_eq!(
                par.stats().per_shard_fault_evals.iter().sum::<u64>(),
                par.stats().fault_evals,
                "shard accounting must add up"
            );
        }
    }
}

fn adder(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("add");
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let (s, co) = b.ripple_carry_adder(&a, &c, None);
    b.output_word("s", &s);
    b.output("co", co);
    b.finish().unwrap()
}

fn multiplier(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("mul");
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let p = b.array_multiplier(&a, &c, 2 * width);
    b.output_word("p", &p[..width]);
    b.finish().unwrap()
}

#[test]
fn adders_are_equivalent_across_threads_and_seeds() {
    for width in [4usize, 8] {
        let nl = adder(width);
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        assert_engines_equivalent(&nl, &faults, 20_000);
    }
}

#[test]
fn array_multipliers_are_equivalent_across_threads_and_seeds() {
    for width in [3usize, 4] {
        let nl = multiplier(width);
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        assert_engines_equivalent(&nl, &faults, 20_000);
    }
}

#[test]
fn redundant_faults_stay_equivalently_undetected() {
    // y = a AND (NOT a) is constant 0 — its output sa0 is undetectable,
    // so neither engine may ever drop it.
    let mut b = NetlistBuilder::new("red");
    let a = b.input("a");
    let na = b.not(a);
    let y = b.and2(a, na);
    b.output("y", y);
    let nl = b.finish().unwrap();
    let faults = vec![Fault::net_sa0(nl.outputs()[0])];
    assert_engines_equivalent(&nl, &faults, 5_000);
}

#[test]
fn run_random_until_is_equivalent() {
    let nl = multiplier(4);
    let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
    for &threads in &THREADS {
        let mut rng = StdRng::seed_from_u64(77);
        let serial = ParFaultSimulator::with_threads(&nl, faults.clone(), 1)
            .run_random_until(&mut rng, 0.9, 50_000);
        let mut rng = StdRng::seed_from_u64(77);
        let par = ParFaultSimulator::with_threads(&nl, faults.clone(), threads)
            .run_random_until(&mut rng, 0.9, 50_000);
        assert_eq!(serial.detection(), par.detection());
        assert_eq!(serial.patterns_applied(), par.patterns_applied());
    }
}

/// The kernels the BIBS TDM extracts from the paper's Fig. 4 circuit,
/// elaborated to gates and converted to their combinational equivalents —
/// the realistic workload the engine exists for.
fn fig4_kernels() -> Vec<Netlist> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../circuits/fig4.ckt");
    let text = std::fs::read_to_string(path).expect("circuits/fig4.ckt is part of the repo");
    let circuit = bibs_rtl::fmt::from_text(&text).expect("fig4.ckt parses");
    let r = bibs_core::bibs::select(&circuit, &bibs_core::bibs::BibsOptions::default())
        .expect("fig4 is IO-registered");
    let cut: HashSet<_> = r
        .design
        .bilbo
        .iter()
        .chain(&r.design.cbilbo)
        .copied()
        .collect();
    bibs_core::design::kernels(&r.circuit, &r.design)
        .into_iter()
        .filter(|k| {
            k.vertices
                .iter()
                .any(|&v| r.circuit.vertex(v).kind == VertexKind::Logic)
        })
        .map(|k| {
            let kset: HashSet<_> = k.vertices.iter().copied().collect();
            bibs_datapath::elab::elaborate_kernel(&r.circuit, &kset, &cut)
                .expect("fig4 kernel elaborates")
                .netlist
                .combinational_equivalent()
        })
        .collect()
}

#[test]
fn fig4_kernels_are_equivalent_across_threads_and_seeds() {
    let kernels = fig4_kernels();
    assert!(!kernels.is_empty(), "fig4 must yield logic-bearing kernels");
    for nl in &kernels {
        let faults = FaultUniverse::collapsed(nl).faults().to_vec();
        assert_engines_equivalent(nl, &faults, 5_000);
    }
}

// --- proptest over random netlists --------------------------------------

fn netlist_strategy() -> impl Strategy<Value = Netlist> {
    bibs_netlist::testgen::netlist_strategy_sized(8, 30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random netlist, any seed, any thread count: bit-identical
    /// reports at one thread and at `threads`, exhaustively and on random
    /// streams.
    #[test]
    fn random_netlists_have_equivalent_engines(
        nl in netlist_strategy(),
        seed: u64,
        threads in 1usize..6,
    ) {
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();

        let serial = ParFaultSimulator::with_threads(&nl, faults.clone(), 1).run_exhaustive();
        let par = ParFaultSimulator::with_threads(&nl, faults.clone(), threads)
            .run_exhaustive();
        prop_assert_eq!(serial.detection(), par.detection());
        prop_assert_eq!(serial.patterns_applied(), par.patterns_applied());

        let mut rng = StdRng::seed_from_u64(seed);
        let serial = ParFaultSimulator::with_threads(&nl, faults.clone(), 1).run_random(&mut rng, 2_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let par = ParFaultSimulator::with_threads(&nl, faults.clone(), threads)
            .run_random(&mut rng, 2_000);
        prop_assert_eq!(serial.detection(), par.detection());
        prop_assert_eq!(serial.patterns_applied(), par.patterns_applied());
    }
}
