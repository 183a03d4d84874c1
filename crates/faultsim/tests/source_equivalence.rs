//! Cross-source equivalence: every [`PatternSource`] kind must drive the
//! engine to **bit-identical** reports at one thread and at several — same
//! `detection()` vector, same `patterns_applied()` — for every thread
//! count, and the sources themselves must end each run with the same
//! stream digest (the engines pulled identical streams, not merely
//! equivalent verdicts). This extends the thread-count contract of
//! `par_equivalence.rs` from the legacy random stream to the whole
//! source family, and pins the satellite guarantees: [`RandomWords`]
//! reproduces the legacy `run_random*` entry points exactly (and
//! documents its xoshiro256** generator in the descriptor), and
//! [`WeightedRandomSource`]'s bias math behaves at the extremes and at
//! the unbiased midpoint.

use bibs_faultsim::fault::FaultUniverse;
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_faultsim::source::{
    LfsrSource, PatternSource, RandomWords, StoredSeedReplay, WeightedRandomSource,
};
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::Netlist;
use bibs_rtl::VertexKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const MAX_PATTERNS: u64 = 4_096;

/// Builds one fresh source of every kind that fits `width` — a new
/// instance per call so each engine run starts from the same state.
fn make_sources(width: usize, seed: u64) -> Vec<(&'static str, Box<dyn PatternSource>)> {
    let mut out: Vec<(&'static str, Box<dyn PatternSource>)> = vec![
        ("random", Box::new(RandomWords::seeded(seed))),
        (
            "weighted",
            Box::new(WeightedRandomSource::new(seed, vec![0.75; width]).unwrap()),
        ),
        (
            "replay",
            Box::new(
                StoredSeedReplay::parse(
                    "inline",
                    "# two stored seeds, chained\n0x51B5 200\n42 100\n",
                )
                .unwrap(),
            ),
        ),
    ];
    if width <= 64 {
        out.push(("lfsr", Box::new(LfsrSource::new(width, seed | 1).unwrap())));
    }
    out
}

/// For every source kind: serial vs parallel at each thread count, with
/// bit-identical reports and matching end-of-run stream digests.
fn assert_sources_equivalent(netlist: &Netlist, seed: u64) {
    let faults = FaultUniverse::collapsed(netlist).faults().to_vec();
    let width = netlist.input_width();
    let kinds: Vec<&'static str> = make_sources(width, seed)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    for kind in kinds {
        let mut serial_source = make_sources(width, seed)
            .into_iter()
            .find(|(k, _)| *k == kind)
            .unwrap()
            .1;
        let serial = ParFaultSimulator::with_threads(netlist, faults.clone(), 1)
            .run_source(&mut *serial_source, MAX_PATTERNS);
        for &threads in &THREADS {
            let mut par_source = make_sources(width, seed)
                .into_iter()
                .find(|(k, _)| *k == kind)
                .unwrap()
                .1;
            let par = ParFaultSimulator::with_threads(netlist, faults.clone(), threads)
                .run_source(&mut *par_source, MAX_PATTERNS);
            assert_eq!(
                serial.detection(),
                par.detection(),
                "{kind}: detection mismatch at {threads} thread(s)"
            );
            assert_eq!(
                serial.patterns_applied(),
                par.patterns_applied(),
                "{kind}: patterns_applied mismatch at {threads} thread(s)"
            );
            assert_eq!(
                serial_source.state_digest(),
                par_source.state_digest(),
                "{kind}: stream digest mismatch at {threads} thread(s)"
            );
            assert_eq!(
                serial_source.clocks_consumed(),
                par_source.clocks_consumed()
            );
            assert_eq!(
                serial_source.patterns_emitted(),
                par_source.patterns_emitted()
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

#[test]
fn adders_agree_on_every_source_across_threads() {
    for width in [4usize, 8] {
        assert_sources_equivalent(&adder(width), 0xB1B5);
    }
}

/// The kernels the BIBS TDM extracts from the paper's Fig. 4 circuit —
/// the realistic workload — checked over the whole source family.
#[test]
fn fig4_kernels_agree_on_every_source_across_threads() {
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
    let kernels: Vec<Netlist> = bibs_core::design::kernels(&r.circuit, &r.design)
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
        .collect();
    assert!(!kernels.is_empty(), "fig4 must yield logic-bearing kernels");
    for nl in &kernels {
        assert_sources_equivalent(nl, 0x51B5_1994);
    }
}

/// Satellite: the legacy `run_random*` entry points are now thin wrappers
/// over [`RandomWords`] — a seeded source must reproduce their reports
/// exactly (the words drawn per block are bit-identical).
#[test]
fn random_words_source_reproduces_legacy_run_random() {
    for seed in [1u64, 0xB1B5, 0x51B5_1994] {
        let nl = adder(6);
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        let legacy = ParFaultSimulator::with_threads(&nl, faults.clone(), 1)
            .run_random(&mut rng, MAX_PATTERNS);
        let mut source = RandomWords::seeded(seed);
        let sourced = ParFaultSimulator::with_threads(&nl, faults.clone(), 1)
            .run_source(&mut source, MAX_PATTERNS);
        assert_eq!(legacy.detection(), sourced.detection());
        assert_eq!(legacy.patterns_applied(), sourced.patterns_applied());
    }
}

/// Satellite: the RNG behind [`RandomWords`] is reachable (and named) via
/// the serializable descriptor — the compat `StdRng` is xoshiro256**, and
/// experiments citing the stream can point at this field.
#[test]
fn random_descriptor_names_the_xoshiro_generator() {
    let source = RandomWords::seeded(0x2A);
    let d = source.descriptor();
    assert_eq!(d.kind(), "random");
    assert_eq!(d.get("rng"), Some("xoshiro256**"));
    assert!(d.to_json().contains("\"rng\":\"xoshiro256**\""));
}

// --- proptests: weighted bias math and random netlists -------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bias 0.0 pins an input to constant 0 and bias 1.0 to constant 1,
    /// for any seed and any width.
    #[test]
    fn weighted_extreme_biases_are_constant(seed: u64, width in 1usize..12) {
        let biases: Vec<f64> = (0..width).map(|i| if i % 2 == 0 { 0.0 } else { 1.0 }).collect();
        let mut source = WeightedRandomSource::new(seed, biases.clone()).unwrap();
        for _ in 0..4 {
            let block = source.next_block(width).unwrap();
            for (i, &word) in block.words.iter().enumerate() {
                if biases[i] == 0.0 {
                    prop_assert_eq!(word, 0, "bias-0 input {} must stay 0", i);
                } else {
                    prop_assert_eq!(word, u64::MAX, "bias-1 input {} must stay 1", i);
                }
            }
        }
    }

    /// Bias 0.5 is statistically indistinguishable from the uniform
    /// stream: over 6400 lanes per input the set-bit fraction lands well
    /// inside 0.45..0.55 (±8σ of Binomial(6400, ½)) for every seed.
    #[test]
    fn weighted_half_bias_matches_uniform_moments(seed: u64) {
        let width = 4usize;
        let mut source = WeightedRandomSource::new(seed, vec![0.5; width]).unwrap();
        let mut ones = vec![0u64; width];
        let blocks = 100u32;
        for _ in 0..blocks {
            let block = source.next_block(width).unwrap();
            for (i, &word) in block.words.iter().enumerate() {
                ones[i] += u64::from(word.count_ones());
            }
        }
        let lanes = f64::from(blocks) * 64.0;
        for (i, &n) in ones.iter().enumerate() {
            let frac = n as f64 / lanes;
            prop_assert!(
                (0.45..=0.55).contains(&frac),
                "input {} set-bit fraction {} outside 0.45..0.55", i, frac
            );
        }
    }

    /// Any random netlist, any seed: the whole source family is serial/
    /// parallel bit-identical with matching stream digests.
    #[test]
    fn random_netlists_agree_on_every_source(
        nl in bibs_netlist::testgen::netlist_strategy_sized(8, 30),
        seed: u64,
    ) {
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        let width = nl.input_width();
        for (kind, mut serial_source) in make_sources(width, seed) {
            let serial = ParFaultSimulator::with_threads(&nl, faults.clone(), 1)
                .run_source(&mut *serial_source, 1_024);
            for threads in [2usize, 4] {
                let mut par_source = make_sources(width, seed)
                    .into_iter()
                    .find(|(k, _)| *k == kind)
                    .unwrap()
                    .1;
                let par = ParFaultSimulator::with_threads(&nl, faults.clone(), threads)
                    .run_source(&mut *par_source, 1_024);
                prop_assert_eq!(serial.detection(), par.detection());
                prop_assert_eq!(serial.patterns_applied(), par.patterns_applied());
                prop_assert_eq!(serial_source.state_digest(), par_source.state_digest());
            }
        }
    }
}
