//! Regression tests pinning the edge-case behavior of
//! [`FaultSimReport::patterns_for_detectable_coverage`] (referenced from
//! its doc comment): fraction 0.0, fractions above 1.0, the empty fault
//! list, and all-undetectable fault lists — at one thread and at several.

use bibs_faultsim::fault::{Fault, FaultUniverse};
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::Netlist;

fn adder4() -> Netlist {
    let mut b = NetlistBuilder::new("add4");
    let a = b.input_word("a", 4);
    let c = b.input_word("b", 4);
    let (s, co) = b.ripple_carry_adder(&a, &c, None);
    b.output_word("s", &s);
    b.output("co", co);
    b.finish().unwrap()
}

/// y = a AND (NOT a) is constant 0, so its output's sa0 is undetectable.
fn redundant_netlist() -> Netlist {
    let mut b = NetlistBuilder::new("red");
    let a = b.input("a");
    let na = b.not(a);
    let y = b.and2(a, na);
    b.output("y", y);
    b.finish().unwrap()
}

#[test]
fn fraction_zero_still_demands_one_detection() {
    let nl = adder4();
    let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
    let report = ParFaultSimulator::with_threads(&nl, faults, 1).run_exhaustive();
    // fraction 0.0 clamps to "at least one detection": the answer is the
    // earliest first-detection index + 1, and never 0.
    let p0 = report.patterns_for_detectable_coverage(0.0).unwrap();
    let earliest = report.detection().iter().flatten().min().copied().unwrap();
    assert_eq!(p0, earliest + 1);
    assert!(p0 >= 1);
    // Negative fractions behave identically.
    assert_eq!(report.patterns_for_detectable_coverage(-3.5), Some(p0));
}

#[test]
fn fraction_above_one_acts_like_full_coverage() {
    let nl = adder4();
    let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
    let report = ParFaultSimulator::with_threads(&nl, faults, 1).run_exhaustive();
    let p100 = report.patterns_for_detectable_coverage(1.0);
    assert_eq!(report.patterns_for_detectable_coverage(1.5), p100);
    assert_eq!(report.patterns_for_detectable_coverage(f64::INFINITY), p100);
}

#[test]
fn empty_fault_list_has_full_coverage_and_no_pattern_count() {
    let nl = adder4();
    for threads in [1usize, 4] {
        let report = ParFaultSimulator::with_threads(&nl, Vec::new(), threads).run_exhaustive();
        assert_eq!(report.faults().len(), 0);
        assert_eq!(report.detected_count(), 0);
        // Vacuous coverage is complete…
        assert!((report.coverage() - 1.0).abs() < f64::EPSILON);
        // …but there is no pattern count that "achieves" it.
        assert_eq!(report.patterns_for_detectable_coverage(0.0), None);
        assert_eq!(report.patterns_for_detectable_coverage(0.995), None);
        assert_eq!(report.patterns_for_detectable_coverage(1.0), None);
    }
}

#[test]
fn all_undetectable_list_reports_none_for_every_fraction() {
    let nl = redundant_netlist();
    let faults = vec![Fault::net_sa0(nl.outputs()[0])];
    for threads in [1usize, 3] {
        let report = ParFaultSimulator::with_threads(&nl, faults.clone(), threads).run_exhaustive();
        assert_eq!(report.detected_count(), 0);
        assert_eq!(report.undetected().len(), 1);
        assert_eq!(report.coverage(), 0.0);
        for fraction in [0.0, 0.5, 0.995, 1.0, 2.0] {
            assert_eq!(report.patterns_for_detectable_coverage(fraction), None);
        }
    }
}

#[test]
fn fraction_interpolates_between_detections() {
    // Hand-built detection timeline via an explicit pattern run: an AND
    // gate's output sa0 falls only at (1,1); its sa1 falls at any other
    // pattern. Detections land at distinct indices, so fractions pick
    // distinct prefixes.
    let mut b = NetlistBuilder::new("and");
    let a = b.input("a");
    let c = b.input("b");
    let y = b.and2(a, c);
    b.output("y", y);
    let nl = b.finish().unwrap();
    let faults = vec![
        Fault::net_sa1(nl.outputs()[0]),
        Fault::net_sa0(nl.outputs()[0]),
    ];
    let mut sim = ParFaultSimulator::with_threads(&nl, faults, 1);
    // Pattern 0 = (0,0) detects sa1; pattern 2 = (1,1) detects sa0.
    let report = sim.run_patterns(&[vec![false, false], vec![true, false], vec![true, true]]);
    assert_eq!(report.detection(), &[Some(0), Some(2)]);
    assert_eq!(report.patterns_for_detectable_coverage(0.5), Some(1));
    assert_eq!(report.patterns_for_detectable_coverage(1.0), Some(3));
}
