//! Compiled-evaluation helpers for the fault simulator's shards.
//!
//! Every shard *must* compute per-fault detection identically — the
//! engine's determinism guarantee (bit-identical
//! [`crate::sim::FaultSimReport`]s for any thread count) rests on there
//! being exactly one
//! mapping from faults to [`Patch`]es, one faulty-machine evaluation
//! ([`eval_fault`]) and one output-difference rule. The evaluation itself
//! lives in [`bibs_netlist::EvalProgram`]: scalar faults run the
//! event-driven kernel ([`EvalProgram::propagate_patched`]) on a
//! [`FaultyMachine`] that equals the good machine outside the slots the
//! current fault touches, and wide faults run the full program. This
//! module supplies the fault-model glue. The seed AST-walking interpreter
//! survives in [`crate::reference`] as the equivalence oracle.

use crate::fault::{Fault, FaultSite};
use bibs_netlist::opt::OptimizedProgram;
use bibs_netlist::{EvalProgram, EventScratch, Fanout, Patch};

/// Maps a stuck-at fault to its compiled patch-point.
///
/// * [`FaultSite::Net`] on a gate-driven net → force that instruction's
///   output ([`Patch::InstrOutput`]);
/// * [`FaultSite::Net`] on a source net (input/const/flip-flop Q) → force
///   the slot ([`Patch::Slot`]);
/// * [`FaultSite::GatePin`] → override one operand of one instruction
///   ([`Patch::InstrPin`]).
#[inline]
pub(crate) fn compile_patch(program: &EvalProgram, fault: Fault) -> Patch {
    match fault.site {
        FaultSite::Net(n) => program.patch_net(n, fault.stuck_at),
        FaultSite::GatePin { gate, pin } => program.patch_pin(gate, pin, fault.stuck_at),
    }
}

/// How one fault is evaluated when the engine runs an optimizer-rewritten
/// program.
///
/// Faults are always *compiled against the original program* (the fault
/// universe lives on the netlist), then translated through the rewrite:
///
/// * [`FaultPatch::Direct`] — the default engines' case: one patch on the
///   program being run;
/// * [`FaultPatch::Multi`] — the rewrite maps the fault to a set of
///   patches on the optimized program (e.g. a stem fault on a deleted
///   buffer becomes pin forces on every surviving reader), sorted for
///   [`EvalProgram::run_multi_patched`];
/// * [`FaultPatch::Fallback`] — no faithful image exists on the optimized
///   program; the faulty machine runs the *original* program instead.
///   Sound because the two programs are equivalence-proven: the good
///   values the faulty outputs are compared against are identical either
///   way.
#[derive(Debug, Clone)]
pub(crate) enum FaultPatch {
    Direct(Patch),
    Multi(Box<[Patch]>),
    Fallback(Patch),
}

impl FaultPatch {
    /// Patch-points applied per faulty evaluation (the
    /// `PatchesApplied` accounting unit).
    #[inline]
    pub(crate) fn patch_count(&self) -> u64 {
        match self {
            FaultPatch::Direct(_) | FaultPatch::Fallback(_) => 1,
            FaultPatch::Multi(ps) => ps.len() as u64,
        }
    }
}

/// Compiles every fault against `program` and, when `opt` is given,
/// remaps it through the rewrite into a [`FaultPatch`].
pub(crate) fn compile_fault_patches(
    program: &EvalProgram,
    opt: Option<&OptimizedProgram>,
    faults: &[Fault],
) -> Vec<FaultPatch> {
    faults
        .iter()
        .map(|&f| {
            let patch = compile_patch(program, f);
            match opt {
                None => FaultPatch::Direct(patch),
                Some(o) => match o.remap_patch(patch) {
                    Some(ps) => FaultPatch::Multi(ps.into_boxed_slice()),
                    None => FaultPatch::Fallback(patch),
                },
            }
        })
        .collect()
}

/// Checks the engine-construction invariant that [`eval_fault`] relies
/// on: every [`FaultPatch::Fallback`] needs the original program at hand.
/// The engines call this once at construction and surface the failure as
/// a typed [`crate::sim::SimError`] instead of aborting mid-run.
pub(crate) fn validate_fault_patches(
    patches: &[FaultPatch],
    has_fallback: bool,
) -> Result<(), crate::sim::SimError> {
    if has_fallback {
        return Ok(());
    }
    match patches
        .iter()
        .position(|fp| matches!(fp, FaultPatch::Fallback(_)))
    {
        None => Ok(()),
        Some(fault_index) => Err(crate::sim::SimError::MissingFallback { fault_index }),
    }
}

/// One worker's faulty machine: a value buffer that equals the block's
/// good machine outside the slots the current fault writes, plus the
/// event kernel's scratch ([`EventScratch`]).
#[derive(Debug, Clone)]
pub(crate) struct FaultyMachine {
    values: Vec<u64>,
    scratch: EventScratch,
}

impl FaultyMachine {
    pub(crate) fn new(program: &EvalProgram) -> Self {
        FaultyMachine {
            values: program.new_values(),
            scratch: EventScratch::default(),
        }
    }

    /// Copies the block's good machine in; once per block (per worker),
    /// before its first [`eval_fault`].
    #[inline]
    pub(crate) fn sync(&mut self, good: &[u64]) {
        self.values.copy_from_slice(good);
    }
}

/// One faulty-machine evaluation against the block's good machine `good`,
/// which `faulty` was [synced](FaultyMachine::sync) to. Returns the
/// instructions evaluated and the output difference over all 64 lanes
/// (callers mask it to the block's valid lanes).
///
/// `Direct` and `Multi` faults go through the event kernel
/// ([`EvalProgram::propagate_patched`]) on `program`, then only the
/// touched slots are restored. `Fallback` faults run the whole
/// pre-rewrite `fallback` program (same slot space), whose slots the
/// optimized good buffer does not all hold, so the buffer is re-synced
/// afterwards. `Fallback` without a fallback program is rejected at
/// engine construction by [`validate_fault_patches`], so it is
/// unreachable here.
#[inline]
pub(crate) fn eval_fault(
    program: &EvalProgram,
    fanout: &Fanout,
    fallback: Option<&EvalProgram>,
    good: &[u64],
    faulty: &mut FaultyMachine,
    input_words: &[u64],
    fp: &FaultPatch,
) -> (u64, u64) {
    let patches = match fp {
        FaultPatch::Direct(p) => std::slice::from_ref(p),
        FaultPatch::Multi(ps) => &ps[..],
        FaultPatch::Fallback(p) => {
            let Some(orig) = fallback else {
                unreachable!("validate_fault_patches admits Fallback only with a fallback")
            };
            let evaluated = orig.eval_patched(&mut faulty.values, input_words, *p);
            let diff = output_diff(program.output_slots(), good, &faulty.values);
            faulty.sync(good);
            return (evaluated, diff);
        }
    };
    let evaluated =
        program.propagate_patched(fanout, &mut faulty.values, &mut faulty.scratch, patches);
    let diff = output_diff(program.output_slots(), good, &faulty.values);
    faulty.scratch.restore(good, &mut faulty.values);
    (evaluated, diff)
}

/// Wide [`eval_fault`]: `input_chunks` is the chunk-contiguous wide input
/// layout of [`EvalProgram::set_inputs_wide`]. Returns the
/// lane-normalized executed instruction count.
#[inline]
pub(crate) fn eval_fault_wide<const N: usize>(
    program: &EvalProgram,
    fallback: Option<&EvalProgram>,
    values: &mut [u64],
    input_chunks: &[u64],
    fp: &FaultPatch,
) -> u64 {
    match fp {
        FaultPatch::Direct(p) => program.eval_patched_wide::<N>(values, input_chunks, *p),
        FaultPatch::Multi(ps) => program.eval_multi_patched_wide::<N>(values, input_chunks, ps),
        FaultPatch::Fallback(p) => match fallback {
            Some(orig) => orig.eval_patched_wide::<N>(values, input_chunks, *p),
            None => unreachable!("validate_fault_patches admits Fallback only with a fallback"),
        },
    }
}

/// The lanes (bit positions) on which the faulty machine's outputs differ
/// from the good machine's. Slot-indexed variant for the compiled engines
/// ([`EvalProgram::output_slots`]).
#[inline]
pub(crate) fn output_diff(output_slots: &[u32], good: &[u64], faulty: &[u64]) -> u64 {
    output_slots
        .iter()
        .fold(0, |diff, &o| diff | (good[o as usize] ^ faulty[o as usize]))
}

/// Wide [`output_diff`]: scans the `N` sub-words in lane order and
/// returns the first `(sub_word, diff_word)` with a surviving masked
/// difference, or `None` if the fault is undetected in the whole chunk.
/// `masks[k]` is the valid-lane mask of sub-word `k` (0 for sub-words
/// past the pattern budget). Taking the *first* differing sub-word is
/// what makes wide first-detection indices bit-identical to the scalar
/// engine's.
#[inline]
pub(crate) fn output_diff_wide<const N: usize>(
    output_slots: &[u32],
    good: &[u64],
    faulty: &[u64],
    masks: &[u64; N],
) -> Option<(usize, u64)> {
    for (k, &mask) in masks.iter().enumerate() {
        if mask == 0 {
            continue;
        }
        let mut diff = 0u64;
        for &o in output_slots {
            let i = o as usize * N + k;
            diff |= good[i] ^ faulty[i];
        }
        diff &= mask;
        if diff != 0 {
            return Some((k, diff));
        }
    }
    None
}

/// Net-index variant of [`output_diff`], used by the reference
/// interpreter.
#[inline]
pub(crate) fn output_diff_nets(
    outputs: &[usize],
    good: &[u64],
    faulty: &[u64],
    lane_mask: u64,
) -> u64 {
    let mut diff = 0u64;
    for &o in outputs {
        diff |= good[o] ^ faulty[o];
    }
    diff & lane_mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_fallback_patches_without_a_fallback_program() {
        let p = Patch::Slot { slot: 0, word: 0 };
        let patches = vec![
            FaultPatch::Direct(p),
            FaultPatch::Fallback(p),
            FaultPatch::Fallback(p),
        ];
        // With the original program retained, fallback dispatch is legal.
        assert!(validate_fault_patches(&patches, true).is_ok());
        // Without it, construction must fail with a typed error naming
        // the *first* unmapped fault (this used to be a mid-run abort).
        let err = validate_fault_patches(&patches, false).unwrap_err();
        let crate::sim::SimError::MissingFallback { fault_index } = err;
        assert_eq!(fault_index, 1);
        // No Fallback patches at all: nothing to validate.
        assert!(validate_fault_patches(&[FaultPatch::Direct(p)], false).is_ok());
        assert!(validate_fault_patches(&[], false).is_ok());
    }
}
