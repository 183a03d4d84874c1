//! Acceptance for the optimizing pass pipeline (`bibs_netlist::opt`):
//! the CEC-validated rewrite must be **behaviorally invisible** to the
//! fault simulators.
//!
//! Every test drives the same invariant from a different circuit
//! population: optimize the compiled program, prove it (the pipeline's
//! built-in translation validator must accept every pass), then
//! fault-simulate the original and optimized programs on the same seeded
//! stream and require bit-identical `FaultSimReport`s — first-detection
//! indices and pattern counts, at one thread and at several. This is the ground truth behind `table2 --opt` producing
//! byte-identical JSON while executing fewer instructions.

use bibs_datapath::elab::elaborate_whole;
use bibs_datapath::filters::scaled;
use bibs_faultsim::fault::FaultUniverse;
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::opt::optimize;
use bibs_netlist::{EvalProgram, GateKind, NetId, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PATTERNS: u64 = 512;

/// Optimizes `nl`'s combinational equivalent (the pipeline must
/// validate), then checks that the engine on the optimized program at 1
/// and 3 threads reproduces the plain one-thread report bit for bit. Returns the instruction savings so
/// callers can assert the optimizer actually did something.
fn assert_opt_invisible(nl: &Netlist, seed: u64) -> usize {
    let comb = nl.combinational_equivalent();
    let program = EvalProgram::compile(&comb).expect("corpus circuits compile");
    let opt = optimize(&comb, &program)
        .unwrap_or_else(|e| panic!("{}: translation validation failed: {e}", comb.name()));
    assert!(
        opt.stats().instrs_after <= opt.stats().instrs_before,
        "{}: optimization grew the program: {:?}",
        comb.name(),
        opt.stats()
    );
    let faults = FaultUniverse::collapsed(&comb).faults().to_vec();
    if faults.is_empty() {
        return opt.stats().instrs_saved();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let base =
        ParFaultSimulator::with_threads(&comb, faults.clone(), 1).run_random(&mut rng, PATTERNS);
    for threads in [1usize, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let par = ParFaultSimulator::with_optimized(&comb, &opt, faults.clone(), threads)
            .run_random(&mut rng, PATTERNS);
        assert_eq!(
            base.detection(),
            par.detection(),
            "{}: optimized detection diverged at {threads} thread(s)",
            comb.name()
        );
        assert_eq!(base.patterns_applied(), par.patterns_applied());
    }
    opt.stats().instrs_saved()
}

#[test]
fn paper_datapaths_simulate_identically_under_opt() {
    for name in ["c5a2m", "c3a2m", "c4a4m"] {
        let elab = elaborate_whole(&scaled(name, 1)).expect("paper filters elaborate");
        assert_opt_invisible(&elab.netlist, 0xB1B5_0001);
    }
}

#[test]
fn redundant_circuit_saves_instructions_and_stays_invisible() {
    // A circuit with every redundancy the passes target: a 3-deep buffer
    // chain (copy-forward), a duplicated AND cone (CSE), a tied
    // `a AND NOT a` subtree (const-fold) and the dead logic those leave
    // behind (DCE).
    let mut b = NetlistBuilder::new("redundant");
    let a = b.input("a");
    let c = b.input("b");
    let d = b.input("c");
    let mut chain = a;
    for _ in 0..3 {
        chain = b.gate(GateKind::Buf, &[chain]);
    }
    let na = b.not(a);
    let tied = b.and2(a, na); // constant 0
    let dup1 = b.and2(c, d);
    let dup2 = b.and2(d, c); // same cone, pins swapped
    let y1 = b.or2(chain, dup1);
    let y2 = b.xor2(dup2, tied);
    b.output("y1", y1);
    b.output("y2", y2);
    let nl = b.finish().unwrap();
    let saved = assert_opt_invisible(&nl, 0xB1B5_0002);
    assert!(saved > 0, "expected instruction savings, got {saved}");
}

#[test]
fn corpus_style_datapath_blocks_stay_invisible() {
    // Builder-level datapath blocks of the kind the synthetic corpus
    // generates: a ripple-carry adder and an array multiplier.
    let mut b = NetlistBuilder::new("adder4");
    let x = b.input_word("x", 4);
    let y = b.input_word("y", 4);
    let (s, co) = b.ripple_carry_adder(&x, &y, None);
    b.output_word("s", &s);
    b.output("co", co);
    assert_opt_invisible(&b.finish().unwrap(), 0xB1B5_0003);

    let mut b = NetlistBuilder::new("mul3");
    let x = b.input_word("x", 3);
    let y = b.input_word("y", 3);
    let p = b.array_multiplier(&x, &y, 6);
    b.output_word("p", &p);
    assert_opt_invisible(&b.finish().unwrap(), 0xB1B5_0004);
}

/// A seeded random DAG over the full gate alphabet. Operands are drawn
/// from all earlier nets, so the population naturally contains repeated
/// `(kind, operands)` cones, buffer/inverter chains and dead logic — the
/// optimizer's whole diet.
fn random_dag(seed: u64, inputs: usize, ops: usize) -> Netlist {
    const KINDS: [GateKind; 8] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(format!("dag_{seed:016x}"));
    let mut nets: Vec<NetId> = (0..inputs).map(|i| b.input(format!("i{i}"))).collect();
    for _ in 0..ops {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            _ => 2 + rng.gen_range(0..2usize),
        };
        let operands: Vec<NetId> = (0..arity)
            .map(|_| nets[rng.gen_range(0..nets.len())])
            .collect();
        nets.push(b.gate(kind, &operands));
    }
    for (i, &n) in nets.iter().rev().take(4).enumerate() {
        b.output(format!("o{i}"), n);
    }
    b.finish().unwrap()
}

#[test]
fn fuzzed_dags_simulate_identically_under_opt() {
    for case in 0u64..16 {
        let seed = 0xDA6_0000 + case;
        let nl = random_dag(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            3 + (case as usize % 5),
            8 + (case as usize * 3) % 32,
        );
        assert_opt_invisible(&nl, seed);
    }
}

#[test]
fn fallback_faults_simulate_identically_under_opt() {
    // A tied `a AND NOT a` subtree: const-fold hard-wires the AND's
    // output to 0, and because the constancy proof *read* the NOT's
    // value, faults on the folded cone have no faithful image on the
    // optimized program — `remap_patch` returns `None` and the engines
    // must dispatch them through the retained original program
    // (`FaultPatch::Fallback`). The OR keeps the cone observable so the
    // fallback faults are actually simulated, not dropped as a dead cone.
    let mut b = NetlistBuilder::new("fallback");
    let a = b.input("a");
    let c = b.input("b");
    let na = b.not(a);
    let tied = b.and2(a, na);
    let y = b.or2(tied, c);
    let y2 = b.xor2(a, c);
    b.output("y", y);
    b.output("y2", y2);
    let nl = b.finish().unwrap();

    let comb = nl.combinational_equivalent();
    let program = EvalProgram::compile(&comb).unwrap();
    let opt = optimize(&comb, &program).expect("validates");
    let faults = FaultUniverse::collapsed(&comb).faults().to_vec();

    // The test is vacuous unless the rewrite actually strands faults:
    // recount them through the public remap API.
    use bibs_faultsim::fault::FaultSite;
    let unmapped = faults
        .iter()
        .filter(|f| {
            let patch = match f.site {
                FaultSite::Net(n) => program.patch_net(n, f.stuck_at),
                FaultSite::GatePin { gate, pin } => program.patch_pin(gate, pin, f.stuck_at),
            };
            opt.remap_patch(patch).is_none()
        })
        .count();
    assert!(
        unmapped > 0,
        "rewrite mapped every fault; no Fallback dispatch exercised"
    );

    // The fallible constructors must accept this: the optimized engines
    // retain the original program precisely for these faults.
    let seed = 0xB1B5_0005u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let base =
        ParFaultSimulator::with_threads(&comb, faults.clone(), 1).run_random(&mut rng, PATTERNS);
    let mut rng = StdRng::seed_from_u64(seed);
    let serial = ParFaultSimulator::try_with_optimized(&comb, &opt, faults.clone(), 1)
        .expect("with_optimized retains the original program as fallback")
        .run_random(&mut rng, PATTERNS);
    assert_eq!(base.detection(), serial.detection());
    assert_eq!(base.patterns_applied(), serial.patterns_applied());
    // The detection-deterministic telemetry must match exactly; only
    // gate_evals may differ (the optimized program is smaller).
    assert_eq!(base.stats().blocks, serial.stats().blocks);
    assert_eq!(base.stats().good_evals, serial.stats().good_evals);
    assert_eq!(base.stats().fault_evals, serial.stats().fault_evals);
    assert_eq!(base.stats().faults_dropped, serial.stats().faults_dropped);
    assert_eq!(base.stats().patches_applied, serial.stats().patches_applied);
    let mut rng = StdRng::seed_from_u64(seed);
    let par = ParFaultSimulator::try_with_optimized(&comb, &opt, faults.clone(), 3)
        .expect("with_optimized retains the original program as fallback")
        .run_random(&mut rng, PATTERNS);
    assert_eq!(base.detection(), par.detection());
    assert_eq!(base.patterns_applied(), par.patterns_applied());
    assert_eq!(base.stats().fault_evals, par.stats().fault_evals);
    assert_eq!(base.stats().patches_applied, par.stats().patches_applied);
}

#[test]
fn exhaustive_detection_matches_under_opt() {
    // Exhaustive simulation (every input pattern, first-detection
    // semantics) through the optimized program on a small circuit —
    // the strongest per-fault check, no sampling involved.
    let elab = elaborate_whole(&scaled("c5a2m", 1)).expect("elaborates");
    let comb = elab.netlist.combinational_equivalent();
    let program = EvalProgram::compile(&comb).unwrap();
    let opt = optimize(&comb, &program).expect("validates");
    let faults = FaultUniverse::collapsed(&comb).faults().to_vec();
    let base = ParFaultSimulator::with_threads(&comb, faults.clone(), 1).run_exhaustive();
    let optimized = ParFaultSimulator::with_optimized(&comb, &opt, faults, 1).run_exhaustive();
    assert_eq!(base.detection(), optimized.detection());
    assert_eq!(base.patterns_applied(), optimized.patterns_applied());
}
