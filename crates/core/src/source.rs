//! The paper's novel TPG as a pluggable pattern source.
//!
//! [`MinTpgSource`] puts the hardware-faithful generator the paper builds
//! (Procedures SC_TPG/MC_TPG, optionally degree-minimized by
//! [`crate::mintpg::minimize_degree`]) behind
//! [`bibs_faultsim::source::PatternSource`], so it can drive the
//! fault-simulation engines directly — the coverage-vs-clocks axis the
//! BIBS methodology is about, measured with the same drivers as every
//! other source.
//!
//! The emitted stream is exactly the session stream of
//! [`crate::session::session_patterns`] (which is a thin collector over
//! this source): warm-up shifts that fill the TPG's extension flip-flops
//! (charged to the clock budget, emitting nothing), the `2^M − 1`
//! aligned cone views of the maximal sequence, and the appended all-zero
//! pattern — the complete-LFSR remedy (ref \[15\]).
//!
//! The TPG is a type-1 LFSR, so the signal on label `ℓ` at time `t` is
//! the stage-1 stream delayed `ℓ − first_lfsr_label` clocks, past the
//! LFSR end too. Each cone input is one such delay, and the blocks come
//! word-parallel from [`LfsrSource::with_delays`]; the cycle-accurate
//! [`crate::tpg::TpgSimulator`] stays the independent reference.

use crate::structure::GeneralizedStructure;
use crate::tpg::TpgDesign;
use bibs_faultsim::source::{LfsrSource, PatternBlock, PatternSource, SourceDescriptor};
use bibs_lfsr::fsr::{Lfsr, LfsrKind};

/// A [`PatternSource`] emitting one full functionally-exhaustive session
/// of the paper's TPG for a single-cone kernel.
#[derive(Debug)]
pub struct MinTpgSource {
    stream: LfsrSource,
    structure_name: String,
    width: usize,
    warmup: u64,
}

impl MinTpgSource {
    /// Builds the source for a designed TPG: seeds its LFSR with
    /// `00…01` and its extension flip-flops with zero, as
    /// [`TpgSimulator::new`](crate::tpg::TpgSimulator::new) does, then
    /// performs the warm-up shifts (`flip_flop_count + sequential_depth`
    /// cycles, charged to [`clocks_consumed`] before the first pattern).
    ///
    /// [`clocks_consumed`]: PatternSource::clocks_consumed
    ///
    /// # Errors
    ///
    /// Fails for multi-cone structures (the emitted pattern is the single
    /// cone's aligned view; a multi-cone kernel has no one stream), for
    /// degrees above 63 (the period counter is a `u64`), and for designs
    /// without a characteristic polynomial.
    pub fn new(design: &TpgDesign, structure: &GeneralizedStructure) -> Result<Self, String> {
        if !structure.is_single_cone() {
            return Err(format!(
                "TPG source needs a single-cone kernel; {} has {} cones",
                structure.name,
                structure.cones.len()
            ));
        }
        if design.lfsr_degree() > 63 {
            return Err(format!(
                "TPG source capped at degree 63, got {}",
                design.lfsr_degree()
            ));
        }
        let poly = design
            .polynomial()
            .ok_or_else(|| format!("no polynomial for degree {}", design.lfsr_degree()))?;
        let delays = design
            .cone_offsets(0)
            .into_iter()
            .map(|o| {
                usize::try_from(o - design.first_lfsr_label())
                    .expect("cone offsets start at or after the first LFSR label")
            })
            .collect();
        let seed = Lfsr::new(poly, LfsrKind::Type1).state_u64();
        let width = structure.total_width() as usize;
        let warmup = design.flip_flop_count() as u64 + structure.sequential_depth() as u64;
        Ok(MinTpgSource {
            stream: LfsrSource::with_delays(poly, seed, delays, width).warmed_up(warmup),
            structure_name: structure.name.clone(),
            width,
            warmup,
        })
    }

    /// The designed LFSR degree `M`.
    pub fn degree(&self) -> u32 {
        self.stream.polynomial().degree()
    }
}

impl PatternSource for MinTpgSource {
    fn next_block(&mut self, width: usize) -> Option<PatternBlock> {
        self.stream.next_block(width)
    }

    fn clocks_consumed(&self) -> u64 {
        self.stream.clocks_consumed()
    }

    fn patterns_emitted(&self) -> u64 {
        self.stream.patterns_emitted()
    }

    fn state_digest(&self) -> u64 {
        self.stream.state_digest()
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor::new("mintpg")
            .field("structure", self.structure_name.clone())
            .field("polynomial", self.stream.polynomial().to_string())
            .field("degree", self.degree().to_string())
            .field("width", self.width.to_string())
            .field("warmup", self.warmup.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpg::{sc_tpg, TpgSimulator};
    use bibs_faultsim::source::StreamDigest;

    fn adder_structure() -> (GeneralizedStructure, TpgDesign) {
        let s = GeneralizedStructure::single_cone("add", &[("Ra", 3, 0), ("Rb", 3, 0)]);
        let design = sc_tpg(&s);
        (s, design)
    }

    /// Example 5's two-cone kernel (Figure 17), shrunk by
    /// `minimize_degree` from degree 9 to 8, and the single-cone
    /// structure of its first cone. SC_TPG windows are contiguous, so
    /// the solver cannot shrink a single-cone design; a shrunk TPG is
    /// driven through one cone of a multi-cone design instead. That
    /// cone's offsets run past the shrunk LFSR's end into the
    /// extension history.
    fn shrunk_example5_first_cone() -> (GeneralizedStructure, TpgDesign) {
        use crate::structure::{Cone, ConeDep, TpgRegister};
        let regs = vec![
            TpgRegister {
                name: "R1".into(),
                width: 4,
            },
            TpgRegister {
                name: "R2".into(),
                width: 4,
            },
        ];
        let cone = |name: &str, d1: u32| Cone {
            name: name.into(),
            deps: vec![
                ConeDep {
                    register: 0,
                    seq_len: d1,
                },
                ConeDep {
                    register: 1,
                    seq_len: 0,
                },
            ],
        };
        let two =
            GeneralizedStructure::new("ex5", regs.clone(), vec![cone("O1", 2), cone("O2", 1)])
                .unwrap();
        let shrunk = crate::mintpg::minimize_degree(&crate::tpg::mc_tpg(&two), 40);
        assert!(shrunk.design.lfsr_degree() < shrunk.original_degree);
        let first = GeneralizedStructure::new("ex5-O1", regs, vec![cone("O1", 2)]).unwrap();
        (first, shrunk.design)
    }

    /// A single cone that reads only the first of two registers: the
    /// cone view fills the low inputs and the undriven ones read zero.
    fn undriven_register() -> (GeneralizedStructure, TpgDesign) {
        use crate::structure::{Cone, ConeDep, TpgRegister};
        let regs = vec![
            TpgRegister {
                name: "R1".into(),
                width: 4,
            },
            TpgRegister {
                name: "R2".into(),
                width: 3,
            },
        ];
        let cone = Cone {
            name: "O".into(),
            deps: vec![ConeDep {
                register: 0,
                seq_len: 1,
            }],
        };
        let s = GeneralizedStructure::new("undriven", regs, vec![cone]).unwrap();
        let design = sc_tpg(&s);
        (s, design)
    }

    #[test]
    fn tpg_source_matches_raw_simulator_stream_exactly() {
        // Independent reconstruction with a raw TpgSimulator — the
        // cycle-accurate reference — pins the warm-up/cone-view/all-zero
        // stream, its clocks, count and digest on every TPG shape the
        // window kernel must get right. (`session_patterns` itself is a
        // collector over this source, so it can't be the oracle.)
        let single = |name: &str, regs: &[(&str, u32, u32)]| {
            let s = GeneralizedStructure::single_cone(name, regs);
            let design = sc_tpg(&s);
            (s, design)
        };
        let cases = [
            adder_structure(),
            single("ex2", &[("R1", 4, 2), ("R2", 4, 1), ("R3", 4, 0)]),
            single("ex3-shared", &[("R1", 4, 1), ("R2", 4, 2), ("R3", 4, 0)]),
            single("ex4-label0", &[("R1", 4, 0), ("R2", 4, 5)]),
            single("plain", &[("R", 8, 0)]),
            single("deg5", &[("Ra", 2, 1), ("Rb", 3, 0)]),
            shrunk_example5_first_cone(),
            undriven_register(),
        ];
        let mut read_history = false;
        for (s, design) in &cases {
            let name = &s.name;
            let width = s.total_width() as usize;
            let warmup = design.flip_flop_count() as u64 + s.sequential_depth() as u64;
            let lfsr_end = design.first_lfsr_label() + design.lfsr_degree() as i64 - 1;
            read_history |= design.cone_offsets(0).iter().any(|&o| o > lfsr_end);

            let mut sim = TpgSimulator::new(design);
            for _ in 0..warmup {
                sim.step();
            }
            let mut expected: Vec<Vec<bool>> = Vec::new();
            for _ in 0..(1u64 << design.lfsr_degree()) - 1 {
                let mut pattern: Vec<bool> = sim.cone_view(0).iter().collect();
                pattern.resize(width, false);
                expected.push(pattern);
                sim.step();
            }
            expected.push(vec![false; width]);
            let mut digest = StreamDigest::default();
            for chunk in expected.chunks(64) {
                digest.absorb_block(&PatternBlock::from_patterns(chunk, width));
            }

            let mut src = MinTpgSource::new(design, s).unwrap();
            let mut got = Vec::new();
            while let Some(block) = src.next_block(width) {
                for lane in 0..block.lanes {
                    got.push(block.pattern(lane));
                }
            }
            assert!(got == expected, "{name}: stream differs from TpgSimulator");
            assert_eq!(src.patterns_emitted(), expected.len() as u64, "{name}");
            assert_eq!(
                src.clocks_consumed(),
                warmup + expected.len() as u64,
                "{name}"
            );
            assert_eq!(src.state_digest(), digest.value(), "{name}");
            assert_eq!(got, crate::session::session_patterns(design, s), "{name}");
        }
        assert!(read_history, "some case must read the extension history");
    }

    #[test]
    fn tpg_source_charges_warmup_and_per_pattern_clocks() {
        let (s, design) = adder_structure();
        let warmup = design.flip_flop_count() as u64 + s.sequential_depth() as u64;
        let mut src = MinTpgSource::new(&design, &s).unwrap();
        assert_eq!(src.clocks_consumed(), warmup);
        while src.next_block(s.total_width() as usize).is_some() {}
        // One clock per emitted pattern (2^M − 1 plus the all-zero).
        assert_eq!(src.clocks_consumed(), warmup + (1 << design.lfsr_degree()));
    }

    #[test]
    fn tpg_source_descriptor_is_self_describing() {
        let (s, design) = adder_structure();
        let src = MinTpgSource::new(&design, &s).unwrap();
        let d = src.descriptor();
        assert_eq!(d.kind(), "mintpg");
        assert_eq!(d.get("structure"), Some("add"));
        assert_eq!(d.get("degree"), Some("6"));
        assert_eq!(d.get("width"), Some("6"));
        assert!(d.to_json().starts_with(r#"{"kind":"mintpg""#));
    }

    #[test]
    fn tpg_source_rejects_multi_cone_structures() {
        use crate::structure::{Cone, ConeDep, TpgRegister};
        // The paper's Example 5 shape: two registers, two cones.
        let regs = vec![
            TpgRegister {
                name: "R1".into(),
                width: 4,
            },
            TpgRegister {
                name: "R2".into(),
                width: 4,
            },
        ];
        let cones = vec![
            Cone {
                name: "O1".into(),
                deps: vec![
                    ConeDep {
                        register: 0,
                        seq_len: 2,
                    },
                    ConeDep {
                        register: 1,
                        seq_len: 0,
                    },
                ],
            },
            Cone {
                name: "O2".into(),
                deps: vec![
                    ConeDep {
                        register: 0,
                        seq_len: 1,
                    },
                    ConeDep {
                        register: 1,
                        seq_len: 0,
                    },
                ],
            },
        ];
        let s = GeneralizedStructure::new("ex5", regs, cones).unwrap();
        let design = crate::tpg::mc_tpg(&s);
        assert!(MinTpgSource::new(&design, &s).is_err());
    }
}
