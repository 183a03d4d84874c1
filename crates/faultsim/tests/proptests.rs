//! Property-based tests for the fault machinery: PODEM soundness against
//! the fault simulator, collapsing soundness, observability filtering.

use bibs_faultsim::atpg::{Atpg, AtpgResult};
use bibs_faultsim::fault::FaultUniverse;
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_netlist::Netlist;
use proptest::prelude::*;

/// Random combinational netlists from the shared generator; small DAGs so
/// exhaustive simulation stays cheap.
fn netlist_strategy() -> impl Strategy<Value = Netlist> {
    bibs_netlist::testgen::netlist_strategy_sized(8, 25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PODEM agrees with exhaustive fault simulation on detectability,
    /// and every generated test actually detects its fault.
    #[test]
    fn podem_matches_exhaustive_ground_truth(nl in netlist_strategy()) {
        let universe = FaultUniverse::collapsed(&nl);
        let mut atpg = Atpg::new(&nl);
        for &fault in universe.faults().iter().take(40) {
            let verdict = atpg.generate(fault, 50_000);
            let mut sim = ParFaultSimulator::with_threads(&nl, vec![fault], 1);
            let truth = sim.run_exhaustive().detected_count() == 1;
            match verdict {
                AtpgResult::Test(t) => {
                    prop_assert!(truth, "PODEM found a test for undetectable {fault}");
                    let pattern: Vec<bool> = t.iter().map(|v| v.unwrap_or(false)).collect();
                    let mut replay = ParFaultSimulator::with_threads(&nl, vec![fault], 1);
                    let rep = replay.run_patterns(&[pattern]);
                    prop_assert_eq!(rep.detected_count(), 1, "test must detect {}", fault);
                }
                AtpgResult::Redundant => {
                    prop_assert!(!truth, "PODEM called detectable {fault} redundant");
                }
                AtpgResult::Aborted => {} // inconclusive is allowed
            }
        }
    }

    /// Fault collapsing never changes overall detectability counts:
    /// exhaustive coverage of the collapsed set detects everything the
    /// full set detects, per equivalence classes (checked via totals of
    /// undetected = redundant faults).
    #[test]
    fn collapsing_preserves_redundancy_structure(nl in netlist_strategy()) {
        let full = FaultUniverse::full(&nl);
        let collapsed = FaultUniverse::collapsed(&nl);
        prop_assert!(collapsed.len() <= full.len());
        // Every collapsed fault appears in the full set.
        for f in collapsed.faults() {
            prop_assert!(full.faults().contains(f));
        }
        // Exhaustive detectability fractions: a collapsed representative is
        // detectable iff its class members are; spot-check that collapsed
        // coverage is 100% whenever full coverage is.
        let mut sim_full = ParFaultSimulator::with_threads(&nl, full.faults().to_vec(), 1);
        let full_cov = sim_full.run_exhaustive();
        let mut sim_col = ParFaultSimulator::with_threads(&nl, collapsed.faults().to_vec(), 1);
        let col_cov = sim_col.run_exhaustive();
        if full_cov.undetected().is_empty() {
            prop_assert!(col_cov.undetected().is_empty());
        }
    }

    /// The observability split is sound: structurally unobservable faults
    /// are never detected, even exhaustively.
    #[test]
    fn unobservable_faults_are_undetectable(nl in netlist_strategy()) {
        let universe = FaultUniverse::collapsed(&nl);
        let program = bibs_netlist::EvalProgram::compile(&nl).unwrap();
        let (_, unobservable) = universe.split_by_observability(&program);
        if !unobservable.is_empty() {
            let mut sim = ParFaultSimulator::with_threads(&nl, unobservable, 1);
            let report = sim.run_exhaustive();
            prop_assert_eq!(report.detected_count(), 0);
        }
    }

    /// Detection indices reported by the simulator are faithful: replaying
    /// exactly that many exhaustive patterns detects the fault, and one
    /// fewer does not... (monotonicity of the first-detection index).
    #[test]
    fn detection_indices_are_first_detections(nl in netlist_strategy()) {
        let universe = FaultUniverse::collapsed(&nl);
        let faults: Vec<_> = universe.faults().iter().copied().take(10).collect();
        let mut sim = ParFaultSimulator::with_threads(&nl, faults.clone(), 1);
        let report = sim.run_exhaustive();
        let width = nl.input_width();
        for (i, det) in report.detection().iter().enumerate() {
            if let Some(idx) = det {
                // Replay patterns 0..=idx in order; the fault must fall at
                // exactly pattern idx.
                let patterns: Vec<Vec<bool>> = (0..=*idx)
                    .map(|p| (0..width).map(|b| (p >> b) & 1 == 1).collect())
                    .collect();
                let mut replay = ParFaultSimulator::with_threads(&nl, vec![faults[i]], 1);
                let rep = replay.run_patterns(&patterns);
                prop_assert_eq!(rep.detection()[0], Some(*idx));
            }
        }
    }
}
