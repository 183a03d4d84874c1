//! LFSR substrate for the BIBS reproduction: feedback shift registers,
//! primitive polynomials, signature analyzers and BILBO register models.
//!
//! The paper's novel TPG (Section 4) is a **type-1 (external-XOR) LFSR**
//! whose stage string is interleaved with plain shift-register flip-flops.
//! Everything that design needs is provided here:
//!
//! * [`poly::Polynomial`] — characteristic polynomials over GF(2), with a
//!   *verified* primitive polynomial table ([`poly::primitive_polynomial`])
//!   and a from-scratch primitivity checker ([`gf2`], [`factor`]) so no tap
//!   table is trusted on faith;
//! * [`fsr::Lfsr`] — type-1 (external/Fibonacci) and type-2
//!   (internal/Galois) LFSRs of arbitrary width;
//! * [`fsr::CompleteLfsr`] — the Wang–McCluskey complete feedback shift
//!   register that also visits the all-0 state (ref \[15\] of the paper);
//! * [`fsr::ShiftRegister`] — the plain shift-register segments SC_TPG and
//!   MC_TPG splice between LFSR stages;
//! * [`fsr::DelayedWindows`] — the word-parallel kernel that emits 64
//!   clocks of any set of stages (or extension flip-flops) of a type-1
//!   LFSR string at once, as delayed windows of its stage-1 stream;
//! * [`misr::Misr`] — multiple-input signature registers for the BILBO
//!   signature-analysis mode;
//! * [`bilbo::BilboRegister`] — BILBO/CBILBO register models with the
//!   area/delay accounting used in the paper's Table 2 comparison.
//!
//! # Example
//!
//! ```
//! use bibs_lfsr::poly::primitive_polynomial;
//! use bibs_lfsr::fsr::{Lfsr, LfsrKind};
//!
//! let poly = primitive_polynomial(4).expect("table covers degree 4");
//! let mut lfsr = Lfsr::with_seed_u64(&poly, LfsrKind::Type1, 1);
//! let mut seen = std::collections::HashSet::new();
//! for _ in 0..15 {
//!     seen.insert(lfsr.state_u64());
//!     lfsr.step();
//! }
//! assert_eq!(seen.len(), 15); // maximal: all 2^4 - 1 nonzero states
//! ```
#![warn(missing_docs)]

pub mod bilbo;
pub mod bilbo_netlist;
pub mod bitvec;
pub mod factor;
pub mod fsr;
pub mod gf2;
pub mod misr;
pub mod poly;
