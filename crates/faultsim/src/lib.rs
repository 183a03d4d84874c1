//! Single-stuck-at fault machinery for the BIBS reproduction.
//!
//! The paper's Table 2 reports the number of random patterns needed to reach
//! 99.5 % and 100 % coverage of **detectable** faults for each circuit under
//! both TDMs. Reproducing that needs three pieces, all built here:
//!
//! * a single-stuck-at **fault model** with structural equivalence
//!   collapsing ([`fault`]);
//! * a 64-way parallel-pattern **fault simulator** with fault dropping
//!   ([`par`]), driven through the [`sim::BlockSim`] interface: one
//!   engine on the compiled [`bibs_netlist::EvalProgram`] IR whose reports
//!   are bit-identical for any thread count (`BIBS_JOBS` or
//!   [`par::default_jobs`]; one thread is the serial case), with the
//!   original gate-walking interpreter preserved as a reference oracle
//!   ([`mod@reference`]);
//! * pluggable **pattern sources** ([`source`]): the stream an engine
//!   consumes — pseudorandom words, hardware-faithful LFSRs, weighted
//!   random, exhaustive counters, stored-seed replays — behind one
//!   [`source::PatternSource`] trait with clock accounting, driven by the
//!   shared [`sim::BlockSim::run_source`] driver;
//! * **PODEM** combinational ATPG ([`atpg`]) to prove faults undetectable —
//!   which defines the "detectable" universe that the 100 % rows measure.
//!   (The paper: "only an ATPG system for combinational logic is required",
//!   thanks to balanced kernels being 1-step functionally testable.)
//! * a sequential (time-frame) fault simulator ([`seq`]) that measures
//!   **k-pattern detectability** directly, confirming Section 2's
//!   motivation on gate-level circuits.
//!
//! All three operate on the *combinational equivalent* of a balanced
//! circuit ([`bibs_netlist::Netlist::combinational_equivalent`]); the
//! BALLAST result (ref \[8\] of the paper) guarantees this preserves fault
//! detectability.
//!
//! # Example
//!
//! ```
//! use bibs_netlist::builder::NetlistBuilder;
//! use bibs_faultsim::fault::FaultUniverse;
//! use bibs_faultsim::par::ParFaultSimulator;
//! use bibs_faultsim::sim::BlockSim;
//!
//! # fn main() -> Result<(), bibs_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("add2");
//! let a = b.input_word("a", 2);
//! let c = b.input_word("b", 2);
//! let (s, co) = b.ripple_carry_adder(&a, &c, None);
//! b.output_word("s", &s);
//! b.output("co", co);
//! let nl = b.finish()?;
//!
//! let faults = FaultUniverse::collapsed(&nl);
//! let mut sim = ParFaultSimulator::with_threads(&nl, faults.faults().to_vec(), 1);
//! let report = sim.run_exhaustive();
//! assert_eq!(report.undetected().len(), 0, "an adder has no redundancy");
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

pub mod atpg;
mod eval;
pub mod fault;
pub mod par;
pub mod reference;
pub mod seq;
pub mod sim;
pub mod source;
pub mod stats;

pub use fault::{DominanceCollapse, Fault, FaultSite, FaultUniverse, StaticFaultAnalysis};
pub use par::{default_jobs, ParFaultSimulator};
pub use reference::ReferenceSimulator;
pub use sim::{BlockSim, FaultSimReport, SimError};
pub use source::{
    ExhaustiveSource, LfsrSource, PatternBlock, PatternSource, RandomWords, SourceDescriptor,
    StoredSeedReplay, WeightedRandomSource,
};
pub use stats::SimStats;
