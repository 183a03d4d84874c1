//! Compiled flat evaluation IR: [`EvalProgram`] and fault [`Patch`]es.
//!
//! Every hot loop in the workspace — Table 2 coverage runs, exhaustive
//! `2^M - 1 + d` verification, parallel fault sharding — evaluates the same
//! combinational netlists over and over. Walking the [`Netlist`] object
//! graph per evaluation (re-scanning every net's [`NetDriver`], refilling a
//! per-gate scratch buffer, chasing `Vec<NetId>` indirections) pays a steep
//! interpretation tax on each of those millions of evaluations.
//!
//! [`EvalProgram`] pays that tax **once**. Compiling a netlist produces:
//!
//! * a flat instruction stream in structure-of-arrays layout — one opcode
//!   ([`GateKind`]), a dense operand span into a single shared operand
//!   arena, and an output slot per instruction — scheduled in levelized
//!   topological order;
//! * a per-level schedule ([`EvalProgram::level_ranges`]) recording which
//!   instruction ranges are mutually independent;
//! * pre-resolved initialization lists: primary-input slots in declaration
//!   order ([`EvalProgram::input_slots`]) and constant prologue words
//!   ([`EvalProgram::const_inits`]) — evaluation never scans drivers;
//! * **fault patch-points**: for any net or gate pin, a [`Patch`] that
//!   forces the corresponding slot, instruction output, or instruction
//!   operand to a stuck value. Faulty-machine evaluation is "run the same
//!   program with one patch applied", not a second bespoke interpreter;
//! * an **event-driven faulty machine**
//!   ([`EvalProgram::propagate_patched`]): starting from the good
//!   machine's buffer, it evaluates only the instructions a patch's
//!   difference reaches, scheduled from the slot fan-out index
//!   ([`Fanout`]) through a [`Pending`] set, and [`EventScratch::restore`]
//!   puts the touched slots back. The full-program kernels remain its
//!   reference. The ternary analyses (case splitting, PODEM implication)
//!   schedule through the same [`Fanout`] and [`Pending`].
//!
//! *Slots* are net indices: slot `i` of a value buffer holds the 64-lane
//! word of net `NetId::from_index(i)`. This keeps the compiled engine
//! drop-in compatible with everything that indexes values by net, and lets
//! analysis passes (e.g. the `B007` dead-slot lint) translate slot facts
//! back to nets trivially.
//!
//! # Determinism
//!
//! The instruction schedule is a pure function of the netlist (level, then
//! gate id), and evaluation is pure dataflow over that schedule, so every
//! net word computed by [`EvalProgram::run`] is bit-identical to the
//! classic interpreted walk for *any* valid topological order. The fault
//! simulator's thread-count equivalence contract therefore carries over
//! unchanged.
//!
//! # Example
//!
//! ```
//! use bibs_netlist::builder::NetlistBuilder;
//! use bibs_netlist::compiled::EvalProgram;
//! use bibs_netlist::GateKind;
//!
//! # fn main() -> Result<(), bibs_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("mux-ish");
//! let a = b.input("a");
//! let c = b.input("b");
//! let y = b.gate(GateKind::And, &[a, c]);
//! b.output("y", y);
//! let nl = b.finish()?;
//!
//! let prog = EvalProgram::compile(&nl)?;
//! let mut values = prog.new_values();
//! prog.eval_good(&mut values, &[0b0011, 0b0101]);
//! assert_eq!(values[nl.outputs()[0].index()] & 0b1111, 0b0001);
//!
//! // Faulty machine: force the AND output stuck-at-1 and re-run.
//! let patch = prog.patch_net(nl.outputs()[0], true);
//! prog.eval_patched(&mut values, &[0b0011, 0b0101], patch);
//! assert_eq!(values[nl.outputs()[0].index()] & 0b1111, 0b1111);
//! # Ok(())
//! # }
//! ```

use crate::netlist::{GateId, GateKind, NetDriver, NetId, Netlist, NetlistError};

/// Sentinel in [`EvalProgram`]'s slot-to-instruction map for slots that are
/// sources (inputs, constants, flip-flop Q) rather than gate outputs. The
/// optimizer (`crate::opt`) reuses it as the "instruction removed" marker in
/// rewrite maps.
pub(crate) const NO_INSTR: u32 = u32::MAX;

/// A fault patch-point: the single edit that turns a good-machine program
/// run into a faulty-machine run.
///
/// Produced by [`EvalProgram::patch_net`] / [`EvalProgram::patch_pin`];
/// consumed by [`EvalProgram::run_patched`] / [`EvalProgram::eval_patched`]
/// and the event-driven [`EvalProgram::propagate_patched`].
/// `word` is the 64-lane stuck value (`!0` for stuck-at-1, `0` for
/// stuck-at-0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Patch {
    /// Force a *source* slot (primary input, constant, or flip-flop Q)
    /// before the instruction stream runs.
    Slot {
        /// The value-buffer slot (net index) to force.
        slot: u32,
        /// The 64-lane stuck word.
        word: u64,
    },
    /// Force an instruction's output slot: the prefix runs, the patched
    /// instruction is skipped with its output forced, the suffix runs.
    InstrOutput {
        /// The instruction whose output is forced.
        instr: u32,
        /// The 64-lane stuck word.
        word: u64,
    },
    /// Force one operand of one instruction (a gate input-pin fault); all
    /// other readers of the same net see the good value.
    InstrPin {
        /// The instruction whose operand is overridden.
        instr: u32,
        /// The operand position (gate pin) to override.
        pin: u32,
        /// The 64-lane stuck word.
        word: u64,
    },
}

/// A read-only view of one compiled instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr<'a> {
    /// The gate function computed by this instruction.
    pub kind: GateKind,
    /// Operand slots (net indices), in gate pin order.
    pub operands: &'a [u32],
    /// The output slot (net index) written by this instruction.
    pub out: u32,
    /// The gate this instruction was compiled from.
    pub gate: GateId,
}

/// The instruction an instruction-indexed patch targets; `None` for
/// [`Patch::Slot`].
#[inline]
fn patch_instr(p: &Patch) -> Option<usize> {
    match *p {
        Patch::Slot { .. } => None,
        Patch::InstrOutput { instr, .. } | Patch::InstrPin { instr, .. } => Some(instr as usize),
    }
}

/// Slot → reading instructions, in compressed sparse-row form: the
/// fan-out index the event-driven kernel
/// ([`EvalProgram::propagate_patched`]) schedules from. Built once per
/// program by [`EvalProgram::fanout`]; immutable, so every worker shares
/// one.
#[derive(Debug, Clone)]
pub struct Fanout {
    /// The readers of slot `s` are `readers[start[s]..start[s + 1]]`.
    start: Vec<u32>,
    /// Reading instructions, ascending per slot, each listed once.
    readers: Vec<u32>,
}

impl Fanout {
    /// The instructions reading `slot`, in ascending index.
    #[inline]
    pub fn readers(&self, slot: usize) -> &[u32] {
        &self.readers[self.start[slot] as usize..self.start[slot + 1] as usize]
    }
}

/// The event scheduler shared by every event-driven evaluator: a set of
/// pending instruction indices, drained in ascending index. The schedule
/// is topological, so once a caller pushes only readers of slots it
/// changed, each instruction is evaluated at most once per propagation,
/// after all of its changed operands. Empty between propagations.
#[derive(Debug, Clone)]
pub struct Pending {
    bits: Vec<u64>,
    /// Pending instructions live in words `lo..=hi`.
    lo: usize,
    hi: usize,
}

impl Default for Pending {
    fn default() -> Self {
        Pending {
            bits: Vec::new(),
            lo: usize::MAX,
            hi: 0,
        }
    }
}

impl Pending {
    /// An empty set able to hold the instructions of `program`.
    pub fn new(program: &EvalProgram) -> Pending {
        let mut pending = Pending::default();
        pending.reserve(program);
        pending
    }

    /// Grows the set to hold the instructions of `program`.
    #[inline]
    fn reserve(&mut self, program: &EvalProgram) {
        let words = program.instr_count().div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
    }

    /// Schedules instruction `i`; a no-op when it is already pending.
    #[inline(always)]
    pub fn push(&mut self, i: u32) {
        let w = (i >> 6) as usize;
        self.bits[w] |= 1u64 << (i & 63);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w);
    }

    /// Pops every pending instruction in ascending order, calling
    /// `visit(i, self)` on each; `visit` may push instructions above `i`.
    #[inline(always)]
    pub fn drain(&mut self, mut visit: impl FnMut(usize, &mut Pending)) {
        let mut w = self.lo;
        while w <= self.hi {
            while self.bits[w] != 0 {
                let bits = self.bits[w];
                self.bits[w] = bits & (bits - 1);
                visit((w << 6) | bits.trailing_zeros() as usize, self);
            }
            w += 1;
        }
        (self.lo, self.hi) = (usize::MAX, 0);
    }
}

/// One worker's scratch for [`EvalProgram::propagate_patched`]: the
/// pending set over instruction indices (empty between calls) and the
/// slots the current fault has written.
#[derive(Debug, Clone, Default)]
pub struct EventScratch {
    pending: Pending,
    touched: Vec<u32>,
}

impl EventScratch {
    /// Copies every slot the last [`EvalProgram::propagate_patched`] wrote
    /// back from `good`, so `faulty` equals the good machine again.
    #[inline]
    pub fn restore(&mut self, good: &[u64], faulty: &mut [u64]) {
        for s in self.touched.drain(..) {
            faulty[s as usize] = good[s as usize];
        }
    }
}

/// A netlist compiled to a flat, allocation-free evaluation program.
///
/// Built once per [`Netlist`] by [`EvalProgram::compile`]; evaluated many
/// times over caller-owned value buffers (`&mut [u64]`, one 64-lane word
/// per slot) created by [`EvalProgram::new_values`]. The program itself is
/// immutable and [`Sync`]: one compiled program is shared by every worker
/// thread of the parallel fault simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalProgram {
    /// Opcode per instruction.
    pub(crate) ops: Vec<GateKind>,
    /// Operand span starts; span of instruction `i` is
    /// `operand_start[i]..operand_start[i + 1]` (length `instr_count + 1`).
    pub(crate) operand_start: Vec<u32>,
    /// Shared operand arena: slot indices, grouped per instruction.
    pub(crate) operands: Vec<u32>,
    /// Output slot per instruction.
    pub(crate) out_slot: Vec<u32>,
    /// Instruction ranges per level: all instructions inside one range
    /// depend only on earlier levels.
    pub(crate) levels: Vec<(u32, u32)>,
    /// Gate → instruction position.
    pub(crate) instr_of_gate: Vec<u32>,
    /// Instruction position → source gate.
    pub(crate) gate_of_instr: Vec<GateId>,
    /// Slot → instruction writing it, or [`NO_INSTR`] for source slots.
    pub(crate) instr_of_slot: Vec<u32>,
    /// Primary-input slots in declaration order.
    pub(crate) input_slots: Vec<u32>,
    /// Constant prologue: `(slot, word)` pairs applied once per buffer.
    pub(crate) const_inits: Vec<(u32, u64)>,
    /// Flip-flop `(q, d)` slot pairs, in [`Netlist::dffs`] order.
    pub(crate) dff_slots: Vec<(u32, u32)>,
    /// Primary-output slots in declaration order.
    pub(crate) output_slots: Vec<u32>,
    /// Number of value-buffer slots (= net count).
    pub(crate) slot_count: usize,
}

impl EvalProgram {
    /// Compiles `netlist` into a flat evaluation program.
    ///
    /// Gates are scheduled by `(level, gate id)` where a gate's level is one
    /// more than the maximum level of its gate-driven inputs — a levelized
    /// topological order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// part cannot be ordered. Other structural defects (floating nets, bad
    /// arity, out-of-range ids) are *not* diagnosed here — run
    /// [`Netlist::validate`] or the lint passes first; compiling a netlist
    /// with out-of-range ids panics.
    pub fn compile(netlist: &Netlist) -> Result<EvalProgram, NetlistError> {
        let order = netlist.levelize()?;
        let gate_count = netlist.gate_count();
        let slot_count = netlist.net_count();

        // Per-gate level, computed in topological order.
        let mut level = vec![0u32; gate_count];
        for &gid in &order {
            let gate = netlist.gate(gid);
            let mut l = 0u32;
            for &inp in &gate.inputs {
                if let NetDriver::Gate(src) = netlist.driver(inp) {
                    l = l.max(level[src.index()] + 1);
                }
            }
            level[gid.index()] = l;
        }

        // Deterministic levelized schedule: (level, gate id).
        let mut sched: Vec<u32> = (0..gate_count as u32).collect();
        sched.sort_unstable_by_key(|&g| (level[g as usize], g));

        let mut ops = Vec::with_capacity(gate_count);
        let mut operand_start = Vec::with_capacity(gate_count + 1);
        let mut operands = Vec::new();
        let mut out_slot = Vec::with_capacity(gate_count);
        let mut instr_of_gate = vec![NO_INSTR; gate_count];
        let mut gate_of_instr = Vec::with_capacity(gate_count);
        let mut instr_of_slot = vec![NO_INSTR; slot_count];
        let mut levels: Vec<(u32, u32)> = Vec::new();

        operand_start.push(0u32);
        for (pos, &g) in sched.iter().enumerate() {
            let gid = GateId::from_index(g as usize);
            let gate = netlist.gate(gid);
            ops.push(gate.kind);
            operands.extend(gate.inputs.iter().map(|i| i.index() as u32));
            operand_start.push(operands.len() as u32);
            out_slot.push(gate.output.index() as u32);
            instr_of_gate[g as usize] = pos as u32;
            gate_of_instr.push(gid);
            instr_of_slot[gate.output.index()] = pos as u32;
            if level[g as usize] as usize + 1 == levels.len() {
                levels.last_mut().expect("non-empty").1 += 1;
            } else {
                levels.push((pos as u32, pos as u32 + 1));
            }
        }

        let input_slots = netlist.inputs().iter().map(|n| n.index() as u32).collect();
        let mut const_inits = Vec::new();
        for net in netlist.net_ids() {
            if let NetDriver::Const(v) = netlist.driver(net) {
                const_inits.push((net.index() as u32, if v { !0u64 } else { 0 }));
            }
        }
        let dff_slots = netlist
            .dffs()
            .iter()
            .map(|ff| (ff.q.index() as u32, ff.d.index() as u32))
            .collect();
        let output_slots = netlist.outputs().iter().map(|n| n.index() as u32).collect();

        Ok(EvalProgram {
            ops,
            operand_start,
            operands,
            out_slot,
            levels,
            instr_of_gate,
            gate_of_instr,
            instr_of_slot,
            input_slots,
            const_inits,
            dff_slots,
            output_slots,
            slot_count,
        })
    }

    /// [`EvalProgram::compile`] wrapped in a telemetry span: records a
    /// `compile` child span on `rec` whose wall clock is the compile time
    /// and whose counters carry the program's
    /// [`Instructions`](bibs_obs::CounterId::Instructions) and
    /// [`Slots`](bibs_obs::CounterId::Slots). A disabled recorder makes
    /// this identical to the plain entry point.
    ///
    /// # Errors
    ///
    /// Same as [`EvalProgram::compile`].
    pub fn compile_traced(
        netlist: &Netlist,
        rec: &mut bibs_obs::Recorder,
    ) -> Result<EvalProgram, NetlistError> {
        let span = rec.enter("compile");
        let result = Self::compile(netlist);
        if let Ok(p) = &result {
            rec.add(bibs_obs::CounterId::Instructions, p.instr_count() as u64);
            rec.add(bibs_obs::CounterId::Slots, p.slot_count() as u64);
        }
        rec.exit(span);
        result
    }

    /// Number of value-buffer slots (equals the source netlist's net
    /// count; slot `i` carries net `i`).
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Number of instructions (equals the source netlist's gate count).
    pub fn instr_count(&self) -> usize {
        self.ops.len()
    }

    /// The levelized schedule: instruction ranges `(start, end)` per
    /// level. Instructions within one range are mutually independent.
    pub fn level_ranges(&self) -> &[(u32, u32)] {
        &self.levels
    }

    /// Primary-input slots in [`Netlist::inputs`] order.
    pub fn input_slots(&self) -> &[u32] {
        &self.input_slots
    }

    /// The constant prologue: `(slot, word)` pairs. Applied once per value
    /// buffer by [`EvalProgram::new_values`] / [`EvalProgram::apply_consts`]
    /// — *not* on every evaluation.
    pub fn const_inits(&self) -> &[(u32, u64)] {
        &self.const_inits
    }

    /// Flip-flop `(q, d)` slot pairs in [`Netlist::dffs`] order.
    pub fn dff_slots(&self) -> &[(u32, u32)] {
        &self.dff_slots
    }

    /// Primary-output slots in [`Netlist::outputs`] order.
    pub fn output_slots(&self) -> &[u32] {
        &self.output_slots
    }

    /// A view of instruction `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= instr_count()`.
    pub fn instr(&self, i: usize) -> Instr<'_> {
        let span = self.operand_start[i] as usize..self.operand_start[i + 1] as usize;
        Instr {
            kind: self.ops[i],
            operands: &self.operands[span],
            out: self.out_slot[i],
            gate: self.gate_of_instr[i],
        }
    }

    /// Iterates over all instructions in schedule order.
    pub fn instrs(&self) -> impl Iterator<Item = Instr<'_>> + '_ {
        (0..self.instr_count()).map(|i| self.instr(i))
    }

    /// The instruction position compiled from `gate`.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn instr_of_gate(&self, gate: GateId) -> usize {
        self.instr_of_gate[gate.index()] as usize
    }

    /// The instruction writing `slot`, or `None` for source slots
    /// (primary inputs, constants, flip-flop Q).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= slot_count()`.
    pub fn instr_of_slot(&self, slot: usize) -> Option<usize> {
        match self.instr_of_slot[slot] {
            NO_INSTR => None,
            i => Some(i as usize),
        }
    }

    /// Per-slot operand occurrences: for each slot, the `(instruction,
    /// pin)` pairs that read it as a gate operand, in schedule order.
    ///
    /// This is the reader-side dual of [`EvalProgram::instr_of_slot`]:
    /// analysis passes use it to count fanout branches and to enumerate
    /// the observation paths of a net without re-walking the [`Netlist`].
    /// Primary-output and flip-flop-D reads are *not* included — see
    /// [`EvalProgram::output_slots`] / [`EvalProgram::dff_slots`].
    pub fn slot_readers(&self) -> Vec<Vec<(u32, u32)>> {
        let mut readers: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.slot_count];
        for i in 0..self.instr_count() {
            let start = self.operand_start[i] as usize;
            let end = self.operand_start[i + 1] as usize;
            for (pin, &s) in self.operands[start..end].iter().enumerate() {
                readers[s as usize].push((i as u32, pin as u32));
            }
        }
        readers
    }

    /// A fresh value buffer: all slots zero, then the constant prologue.
    pub fn new_values(&self) -> Vec<u64> {
        let mut values = vec![0u64; self.slot_count];
        self.apply_consts(&mut values);
        values
    }

    /// Applies the constant prologue to `values`. Needed after zeroing a
    /// buffer (e.g. a simulator reset); ordinary evaluation never calls
    /// this.
    pub fn apply_consts(&self, values: &mut [u64]) {
        for &(slot, word) in &self.const_inits {
            values[slot as usize] = word;
        }
    }

    /// Writes the primary-input words (one 64-lane word per input, in
    /// declaration order) into their slots.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the input width.
    #[inline]
    pub fn set_inputs(&self, values: &mut [u64], input_words: &[u64]) {
        assert_eq!(
            input_words.len(),
            self.input_slots.len(),
            "one word per primary input required"
        );
        for (&slot, &w) in self.input_slots.iter().zip(input_words) {
            values[slot as usize] = w;
        }
    }

    /// Executes the full instruction stream over `values`.
    ///
    /// Sources (inputs, constants, flip-flop Q slots) are read as-is; set
    /// them first. Returns the number of instructions executed (the
    /// gate-evaluation count for throughput accounting).
    #[inline]
    pub fn run(&self, values: &mut [u64]) -> u64 {
        self.exec_range(values, 0, self.ops.len());
        self.ops.len() as u64
    }

    /// Good-machine evaluation: inputs, then the instruction stream.
    ///
    /// Constants are *not* re-applied — they are part of the buffer
    /// prologue ([`EvalProgram::new_values`]). Returns the number of
    /// instructions executed.
    #[inline]
    pub fn eval_good(&self, values: &mut [u64], input_words: &[u64]) -> u64 {
        self.set_inputs(values, input_words);
        self.run(values)
    }

    /// Faulty-machine evaluation: constant prologue, inputs, then the
    /// instruction stream with `patch` applied.
    ///
    /// Re-applying the (typically empty) constant prologue makes the buffer
    /// self-healing: a previous [`Patch::Slot`] on a constant slot is
    /// undone here, so one buffer can serve fault after fault. Returns the
    /// number of instructions executed.
    #[inline]
    pub fn eval_patched(&self, values: &mut [u64], input_words: &[u64], patch: Patch) -> u64 {
        self.apply_consts(values);
        self.set_inputs(values, input_words);
        self.run_patched(values, patch)
    }

    /// Executes the instruction stream with `patch` applied. Sources must
    /// already be set. Returns the number of instructions executed (a
    /// forced instruction output is not executed).
    #[inline]
    pub fn run_patched(&self, values: &mut [u64], patch: Patch) -> u64 {
        self.run_multi_patched(values, std::slice::from_ref(&patch))
    }

    /// Faulty-machine evaluation with *several* patch-points applied at
    /// once: constant prologue, inputs, then
    /// [`EvalProgram::run_multi_patched`].
    ///
    /// This is the evaluation entry the optimizer's fault remapping needs:
    /// a single stuck-at fault on a net that a rewrite erased (a forwarded
    /// buffer, a merged duplicate cone) is equivalent to forcing the stuck
    /// value onto every surviving reader pin — a *set* of patches on the
    /// optimized program. An empty `patches` slice is a plain good-machine
    /// evaluation. Returns the number of instructions executed.
    ///
    /// Instruction-indexed patches must be sorted by ascending instruction;
    /// [`Patch::Slot`] entries may appear anywhere in the slice.
    #[inline]
    pub fn eval_multi_patched(
        &self,
        values: &mut [u64],
        input_words: &[u64],
        patches: &[Patch],
    ) -> u64 {
        self.apply_consts(values);
        self.set_inputs(values, input_words);
        self.run_multi_patched(values, patches)
    }

    /// Executes the instruction stream with every patch in `patches`
    /// applied. Sources must already be set; instruction-indexed patches
    /// must be sorted by ascending instruction position ([`Patch::Slot`]
    /// entries may appear anywhere). Several [`Patch::InstrPin`] entries may
    /// target distinct pins of the same instruction; a [`Patch::InstrOutput`]
    /// on an instruction supersedes pin patches on it. Returns the number
    /// of instructions executed.
    pub fn run_multi_patched(&self, values: &mut [u64], patches: &[Patch]) -> u64 {
        let n = self.ops.len();
        for p in patches {
            if let Patch::Slot { slot, word } = *p {
                values[slot as usize] = word;
            }
        }
        let mut executed = 0u64;
        let mut cursor = 0usize;
        let mut k = 0usize;
        while k < patches.len() {
            let Some(i) = patch_instr(&patches[k]) else {
                k += 1;
                continue;
            };
            debug_assert!(i >= cursor, "instruction patches must be sorted");
            self.exec_range(values, cursor, i);
            executed += (i - cursor) as u64;
            let (word, evaluated, run) = self.patched_word(values, i, &patches[k..]);
            values[self.out_slot[i] as usize] = word;
            executed += u64::from(evaluated);
            k += run;
            cursor = i + 1;
        }
        self.exec_range(values, cursor, n);
        executed += (n - cursor) as u64;
        executed
    }

    /// The fan-out index of this program: for every slot, the
    /// instructions that read it. [`EvalProgram::propagate_patched`]
    /// schedules from it; build it once and share it between workers.
    pub fn fanout(&self) -> Fanout {
        // Count the readers per slot, then fill the spans in a second
        // pass over the same reads.
        let mut start = vec![0u32; self.slot_count + 1];
        self.for_each_read(|s, _| start[s + 1] += 1);
        for s in 0..self.slot_count {
            start[s + 1] += start[s];
        }
        let mut next = start.clone();
        let mut readers = vec![0u32; start[self.slot_count] as usize];
        self.for_each_read(|s, i| {
            readers[next[s] as usize] = i;
            next[s] += 1;
        });
        Fanout { start, readers }
    }

    /// Calls `f(slot, instr)` for every slot each instruction reads, in
    /// ascending instruction order, once per instruction even if it reads
    /// the slot on several pins.
    fn for_each_read(&self, mut f: impl FnMut(usize, u32)) {
        for i in 0..self.ops.len() {
            let span =
                &self.operands[self.operand_start[i] as usize..self.operand_start[i + 1] as usize];
            for (pin, &s) in span.iter().enumerate() {
                if !span[..pin].contains(&s) {
                    f(s as usize, i as u32);
                }
            }
        }
    }

    /// Event-driven faulty-machine evaluation: applies `patches` to a
    /// buffer that holds the good machine and evaluates only the
    /// instructions a difference reaches.
    ///
    /// `values` must equal the good machine of the same inputs (a copy of
    /// the [`EvalProgram::eval_good`] buffer, or one put back by
    /// [`EventScratch::restore`]); `fanout` is this program's
    /// [`EvalProgram::fanout`]. Patches follow the
    /// [`EvalProgram::run_multi_patched`] contract. A patch whose word
    /// differs from the buffer schedules its readers (or its own
    /// instruction) in a pending set; pending instructions are popped in
    /// ascending index, which is topological, so each is evaluated at most
    /// once, and an output that does not change schedules nothing. On
    /// return every slot holds what [`EvalProgram::run_multi_patched`]
    /// would compute; the slots written are recorded in `scratch` for
    /// [`EventScratch::restore`], which must run before the next call.
    ///
    /// Returns the number of instructions evaluated (a forced instruction
    /// output is not evaluated).
    pub fn propagate_patched(
        &self,
        fanout: &Fanout,
        values: &mut [u64],
        scratch: &mut EventScratch,
        patches: &[Patch],
    ) -> u64 {
        debug_assert!(scratch.touched.is_empty(), "restore before the next fault");
        // A local copy of the set keeps its word bounds in registers.
        let mut pending = std::mem::take(&mut scratch.pending);
        pending.reserve(self);
        let touched = &mut scratch.touched;

        for p in patches {
            if let Patch::Slot { slot, word } = *p {
                let s = slot as usize;
                if values[s] != word {
                    values[s] = word;
                    touched.push(slot);
                    for &r in fanout.readers(s) {
                        pending.push(r);
                    }
                    // A forced gate-driven slot is overwritten by its
                    // writer, exactly as in the full-program kernel.
                    if self.instr_of_slot[s] != NO_INSTR {
                        pending.push(self.instr_of_slot[s]);
                    }
                }
            }
        }
        for p in patches {
            let changes = match *p {
                Patch::Slot { .. } => false,
                Patch::InstrOutput { instr, word } => {
                    values[self.out_slot[instr as usize] as usize] != word
                }
                Patch::InstrPin { instr, pin, word } => {
                    let operand = self.operand_start[instr as usize] + pin;
                    values[self.operands[operand as usize] as usize] != word
                }
            };
            if let (true, Some(i)) = (changes, patch_instr(p)) {
                pending.push(i as u32);
            }
        }

        let mut evaluated = 0u64;
        // Cursor into `patches`: the first patch not on an instruction
        // below the one popped (pops ascend, so it only moves forward).
        let mut k = 0usize;
        pending.drain(|i, pending| {
            while k < patches.len() && patch_instr(&patches[k]).is_none_or(|pi| pi < i) {
                k += 1;
            }
            let word = if k < patches.len() && patch_instr(&patches[k]) == Some(i) {
                let (word, was_evaluated, _) = self.patched_word(values, i, &patches[k..]);
                evaluated += u64::from(was_evaluated);
                word
            } else {
                evaluated += 1;
                self.eval_instr(values, i)
            };
            let out = self.out_slot[i] as usize;
            if values[out] != word {
                values[out] = word;
                touched.push(out as u32);
                for &r in fanout.readers(out) {
                    pending.push(r);
                }
            }
        });
        scratch.pending = pending;
        evaluated
    }

    /// The output word of instruction `i` under the run of patches on `i`
    /// that starts `patches`: a leading [`Patch::InstrOutput`] forces it
    /// (supersedes the rest of the run), otherwise the leading
    /// [`Patch::InstrPin`]s override their operands. Returns the word,
    /// whether the instruction was evaluated, and the run's length.
    fn patched_word(&self, values: &[u64], i: usize, patches: &[Patch]) -> (u64, bool, usize) {
        let run = patches
            .iter()
            .take_while(|p| patch_instr(p) == Some(i))
            .count();
        if let Patch::InstrOutput { word, .. } = patches[0] {
            return (word, false, run);
        }
        let pins = patches[..run]
            .iter()
            .take_while(|p| matches!(p, Patch::InstrPin { .. }))
            .count();
        (
            self.eval_instr_multi_pinned(values, i, &patches[..pins]),
            true,
            run,
        )
    }

    /// Builds the patch-point for a stuck-at fault on `net`.
    ///
    /// Gate-driven nets patch the driving instruction's output
    /// ([`Patch::InstrOutput`]); source nets (inputs, constants, flip-flop
    /// Q) patch the slot directly ([`Patch::Slot`]).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn patch_net(&self, net: NetId, stuck_at: bool) -> Patch {
        let word = if stuck_at { !0u64 } else { 0 };
        let slot = net.index() as u32;
        match self.instr_of_slot[net.index()] {
            NO_INSTR => Patch::Slot { slot, word },
            instr => Patch::InstrOutput { instr, word },
        }
    }

    /// Builds the patch-point for a stuck-at fault on input pin `pin` of
    /// `gate`: only that operand sees the stuck value; every other reader
    /// of the same net sees the good value.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn patch_pin(&self, gate: GateId, pin: usize, stuck_at: bool) -> Patch {
        Patch::InstrPin {
            instr: self.instr_of_gate[gate.index()],
            pin: pin as u32,
            word: if stuck_at { !0u64 } else { 0 },
        }
    }

    /// Advances every flip-flop in `values`: Q ← D in all lanes, with all
    /// D values captured before any Q is written (so back-to-back
    /// flip-flops shift correctly without an intermediate buffer *per
    /// stage* — a single pass suffices because `dff_slots` pairs are
    /// captured first).
    pub fn clock(&self, values: &mut [u64], capture: &mut Vec<u64>) {
        capture.clear();
        capture.extend(self.dff_slots.iter().map(|&(_, d)| values[d as usize]));
        for (&(q, _), &v) in self.dff_slots.iter().zip(capture.iter()) {
            values[q as usize] = v;
        }
    }

    /// Which slots the program ever *reads*: instruction operands,
    /// flip-flop D slots, and primary outputs (observed by the
    /// environment). Unread slots are dead — their values can never reach
    /// an output, which is what the `B007` lint reports.
    pub fn slot_read_mask(&self) -> Vec<bool> {
        let mut read = vec![false; self.slot_count];
        for &s in &self.operands {
            read[s as usize] = true;
        }
        for &(_, d) in &self.dff_slots {
            read[d as usize] = true;
        }
        for &s in &self.output_slots {
            read[s as usize] = true;
        }
        read
    }

    /// Executes instructions `from..to`.
    #[inline]
    fn exec_range(&self, values: &mut [u64], from: usize, to: usize) {
        for i in from..to {
            values[self.out_slot[i] as usize] = self.eval_instr(values, i);
        }
    }

    /// Evaluates instruction `i` over `values` (its output is not written).
    #[inline(always)]
    fn eval_instr(&self, values: &[u64], i: usize) -> u64 {
        let start = self.operand_start[i] as usize;
        let end = self.operand_start[i + 1] as usize;
        // Binary gates dominate real netlists; give them a spanless fast
        // path before the general fold.
        if end - start == 2 {
            let a = values[self.operands[start] as usize];
            let b = values[self.operands[start + 1] as usize];
            match self.ops[i] {
                GateKind::And => a & b,
                GateKind::Or => a | b,
                GateKind::Nand => !(a & b),
                GateKind::Nor => !(a | b),
                GateKind::Xor => a ^ b,
                GateKind::Xnor => !(a ^ b),
                GateKind::Not => !a,
                GateKind::Buf => a,
            }
        } else {
            let span = &self.operands[start..end];
            match self.ops[i] {
                GateKind::And => span.iter().fold(!0u64, |acc, &s| acc & values[s as usize]),
                GateKind::Or => span.iter().fold(0u64, |acc, &s| acc | values[s as usize]),
                GateKind::Nand => !span.iter().fold(!0u64, |acc, &s| acc & values[s as usize]),
                GateKind::Nor => !span.iter().fold(0u64, |acc, &s| acc | values[s as usize]),
                GateKind::Xor => span.iter().fold(0u64, |acc, &s| acc ^ values[s as usize]),
                GateKind::Xnor => !span.iter().fold(0u64, |acc, &s| acc ^ values[s as usize]),
                GateKind::Not => !values[self.operands[start] as usize],
                GateKind::Buf => values[self.operands[start] as usize],
            }
        }
    }

    /// Evaluates instruction `i` with every pin listed in `pins`
    /// (a run of [`Patch::InstrPin`] entries on `i`) overridden.
    fn eval_instr_multi_pinned(&self, values: &[u64], i: usize, pins: &[Patch]) -> u64 {
        let start = self.operand_start[i] as usize;
        let end = self.operand_start[i + 1] as usize;
        let operand = |idx: usize| {
            for p in pins {
                if let Patch::InstrPin { pin, word, .. } = *p {
                    if pin as usize == idx {
                        return word;
                    }
                }
            }
            values[self.operands[start + idx] as usize]
        };
        let arity = end - start;
        match self.ops[i] {
            GateKind::And => (0..arity).fold(!0u64, |acc, idx| acc & operand(idx)),
            GateKind::Or => (0..arity).fold(0u64, |acc, idx| acc | operand(idx)),
            GateKind::Nand => !(0..arity).fold(!0u64, |acc, idx| acc & operand(idx)),
            GateKind::Nor => !(0..arity).fold(0u64, |acc, idx| acc | operand(idx)),
            GateKind::Xor => (0..arity).fold(0u64, |acc, idx| acc ^ operand(idx)),
            GateKind::Xnor => !(0..arity).fold(0u64, |acc, idx| acc ^ operand(idx)),
            GateKind::Not => !operand(0),
            GateKind::Buf => operand(0),
        }
    }

    // ------------------------------------------------------------------
    // Wide (multi-word) evaluation: stride-N flat buffers.
    //
    // A wide value buffer stores N consecutive 64-lane words per slot:
    // slot `s` occupies `values[s * N .. (s + 1) * N]`, giving 64·N
    // patterns per sweep. `N` is a const generic, so each width compiles
    // to its own kernel with the inner `0..N` loops unrolled and
    // auto-vectorized. Patch words are splatted to all N sub-words — a
    // stuck-at fault is stuck in every lane. Sub-word `k` of every slot
    // is bit-identical to a scalar evaluation of input word `k`, which is
    // what the fault simulators' cross-width report equivalence rests on.
    // ------------------------------------------------------------------

    /// A fresh wide value buffer (`N` words per slot): all slots zero,
    /// then the constant prologue splatted into every sub-word.
    pub fn new_values_wide<const N: usize>(&self) -> Vec<u64> {
        let mut values = vec![0u64; self.slot_count * N];
        self.apply_consts_wide::<N>(&mut values);
        values
    }

    /// Applies the constant prologue to a wide buffer (splatted).
    pub fn apply_consts_wide<const N: usize>(&self, values: &mut [u64]) {
        for &(slot, word) in &self.const_inits {
            let o = slot as usize * N;
            values[o..o + N].fill(word);
        }
    }

    /// Writes the primary-input chunks into their slots. The chunk layout
    /// is input-contiguous: `input_chunks[i * N + k]` is 64-lane word `k`
    /// of primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `input_chunks.len()` differs from `N ×` the input width.
    #[inline]
    pub fn set_inputs_wide<const N: usize>(&self, values: &mut [u64], input_chunks: &[u64]) {
        assert_eq!(
            input_chunks.len(),
            self.input_slots.len() * N,
            "N words per primary input required"
        );
        for (i, &slot) in self.input_slots.iter().enumerate() {
            let o = slot as usize * N;
            values[o..o + N].copy_from_slice(&input_chunks[i * N..i * N + N]);
        }
    }

    /// Executes the full instruction stream over a wide buffer. Returns
    /// the lane-normalized gate-evaluation count (`instr_count · N`).
    #[inline]
    pub fn run_wide<const N: usize>(&self, values: &mut [u64]) -> u64 {
        self.exec_range_wide::<N>(values, 0, self.ops.len());
        (self.ops.len() * N) as u64
    }

    /// Wide good-machine evaluation: inputs, then the instruction stream.
    /// Returns the lane-normalized gate-evaluation count.
    #[inline]
    pub fn eval_good_wide<const N: usize>(&self, values: &mut [u64], input_chunks: &[u64]) -> u64 {
        self.set_inputs_wide::<N>(values, input_chunks);
        self.run_wide::<N>(values)
    }

    /// Wide faulty-machine evaluation. The buffer is self-healing exactly
    /// like [`EvalProgram::eval_patched`]: the constant prologue is
    /// re-applied so one persistent wide faulty buffer serves every fault.
    #[inline]
    pub fn eval_patched_wide<const N: usize>(
        &self,
        values: &mut [u64],
        input_chunks: &[u64],
        patch: Patch,
    ) -> u64 {
        self.apply_consts_wide::<N>(values);
        self.set_inputs_wide::<N>(values, input_chunks);
        self.run_patched_wide::<N>(values, patch)
    }

    /// Executes the instruction stream over a wide buffer with `patch`
    /// applied (its stuck word splatted to all `N` sub-words). Returns
    /// the lane-normalized executed count, mirroring
    /// [`EvalProgram::run_patched`] `× N`.
    #[inline]
    pub fn run_patched_wide<const N: usize>(&self, values: &mut [u64], patch: Patch) -> u64 {
        let n = self.ops.len();
        match patch {
            Patch::Slot { slot, word } => {
                let o = slot as usize * N;
                values[o..o + N].fill(word);
                self.exec_range_wide::<N>(values, 0, n);
                (n * N) as u64
            }
            Patch::InstrOutput { instr, word } => {
                let i = instr as usize;
                self.exec_range_wide::<N>(values, 0, i);
                let o = self.out_slot[i] as usize * N;
                values[o..o + N].fill(word);
                self.exec_range_wide::<N>(values, i + 1, n);
                ((n - 1) * N) as u64
            }
            Patch::InstrPin { instr, pin, word } => {
                let i = instr as usize;
                self.exec_range_wide::<N>(values, 0, i);
                let chunk = self.eval_instr_pinned_wide::<N>(values, i, pin as usize, word);
                let o = self.out_slot[i] as usize * N;
                values[o..o + N].copy_from_slice(&chunk);
                self.exec_range_wide::<N>(values, i + 1, n);
                (n * N) as u64
            }
        }
    }

    /// Wide [`EvalProgram::eval_multi_patched`]: constant prologue,
    /// inputs, then [`EvalProgram::run_multi_patched_wide`].
    #[inline]
    pub fn eval_multi_patched_wide<const N: usize>(
        &self,
        values: &mut [u64],
        input_chunks: &[u64],
        patches: &[Patch],
    ) -> u64 {
        self.apply_consts_wide::<N>(values);
        self.set_inputs_wide::<N>(values, input_chunks);
        self.run_multi_patched_wide::<N>(values, patches)
    }

    /// Wide [`EvalProgram::run_multi_patched`]: same patch-slice contract
    /// (instruction patches sorted ascending, [`Patch::Slot`] anywhere, a
    /// forced output swallows pin patches on the same instruction), with
    /// every stuck word splatted. Returns the lane-normalized executed
    /// count.
    pub fn run_multi_patched_wide<const N: usize>(
        &self,
        values: &mut [u64],
        patches: &[Patch],
    ) -> u64 {
        let n = self.ops.len();
        for p in patches {
            if let Patch::Slot { slot, word } = *p {
                let o = slot as usize * N;
                values[o..o + N].fill(word);
            }
        }
        let mut executed = 0u64;
        let mut cursor = 0usize;
        let mut k = 0usize;
        while k < patches.len() {
            let (i, forced_out) = match patches[k] {
                Patch::Slot { .. } => {
                    k += 1;
                    continue;
                }
                Patch::InstrOutput { instr, word } => (instr as usize, Some(word)),
                Patch::InstrPin { instr, .. } => (instr as usize, None),
            };
            debug_assert!(i >= cursor, "instruction patches must be sorted");
            self.exec_range_wide::<N>(values, cursor, i);
            executed += ((i - cursor) * N) as u64;
            let o = self.out_slot[i] as usize * N;
            if let Some(word) = forced_out {
                values[o..o + N].fill(word);
                k += 1;
            } else {
                let first = k;
                while k < patches.len()
                    && matches!(patches[k], Patch::InstrPin { instr, .. } if instr as usize == i)
                {
                    k += 1;
                }
                let chunk = self.eval_instr_multi_pinned_wide::<N>(values, i, &patches[first..k]);
                values[o..o + N].copy_from_slice(&chunk);
                executed += N as u64;
            }
            // Swallow any remaining patches on the same instruction (a
            // forced output makes pin patches on it moot).
            while k < patches.len()
                && matches!(patches[k], Patch::InstrPin { instr, .. } | Patch::InstrOutput { instr, .. } if instr as usize == i)
            {
                k += 1;
            }
            cursor = i + 1;
        }
        self.exec_range_wide::<N>(values, cursor, n);
        executed += ((n - cursor) * N) as u64;
        executed
    }

    /// Executes instructions `from..to` over a wide (stride-`N`) buffer.
    #[inline]
    fn exec_range_wide<const N: usize>(&self, values: &mut [u64], from: usize, to: usize) {
        #[inline(always)]
        fn fold<const N: usize>(
            values: &[u64],
            span: &[u32],
            init: u64,
            invert: bool,
            f: impl Fn(u64, u64) -> u64,
        ) -> [u64; N] {
            let mut acc = [init; N];
            for &s in span {
                let o = s as usize * N;
                for k in 0..N {
                    acc[k] = f(acc[k], values[o + k]);
                }
            }
            if invert {
                for w in &mut acc {
                    *w = !*w;
                }
            }
            acc
        }
        for i in from..to {
            let start = self.operand_start[i] as usize;
            let end = self.operand_start[i + 1] as usize;
            let span = &self.operands[start..end];
            // Not/Buf read only operand 0 (matching the scalar kernel) via
            // a single-operand xor fold: `0 ^ a = a`, inverted for Not.
            let chunk: [u64; N] = match self.ops[i] {
                GateKind::And => fold(values, span, !0, false, |a, b| a & b),
                GateKind::Or => fold(values, span, 0, false, |a, b| a | b),
                GateKind::Nand => fold(values, span, !0, true, |a, b| a & b),
                GateKind::Nor => fold(values, span, 0, true, |a, b| a | b),
                GateKind::Xor => fold(values, span, 0, false, |a, b| a ^ b),
                GateKind::Xnor => fold(values, span, 0, true, |a, b| a ^ b),
                GateKind::Not => fold(values, &span[..1], 0, true, |a, b| a ^ b),
                GateKind::Buf => fold(values, &span[..1], 0, false, |a, b| a ^ b),
            };
            let o = self.out_slot[i] as usize * N;
            values[o..o + N].copy_from_slice(&chunk);
        }
    }

    /// Shared fold for the wide pinned evaluators: `operand(idx, k)`
    /// yields sub-word `k` of operand `idx` (post-override).
    #[inline(always)]
    fn fold_pinned_wide<const N: usize>(
        &self,
        i: usize,
        arity: usize,
        operand: impl Fn(usize, usize) -> u64,
    ) -> [u64; N] {
        #[inline(always)]
        fn fold<const N: usize>(
            arity: usize,
            init: u64,
            invert: bool,
            operand: &impl Fn(usize, usize) -> u64,
            f: impl Fn(u64, u64) -> u64,
        ) -> [u64; N] {
            let mut acc = [init; N];
            for idx in 0..arity {
                for (k, a) in acc.iter_mut().enumerate() {
                    *a = f(*a, operand(idx, k));
                }
            }
            if invert {
                for w in &mut acc {
                    *w = !*w;
                }
            }
            acc
        }
        match self.ops[i] {
            GateKind::And => fold(arity, !0, false, &operand, |a, b| a & b),
            GateKind::Or => fold(arity, 0, false, &operand, |a, b| a | b),
            GateKind::Nand => fold(arity, !0, true, &operand, |a, b| a & b),
            GateKind::Nor => fold(arity, 0, true, &operand, |a, b| a | b),
            GateKind::Xor => fold(arity, 0, false, &operand, |a, b| a ^ b),
            GateKind::Xnor => fold(arity, 0, true, &operand, |a, b| a ^ b),
            GateKind::Not => fold(1, 0, true, &operand, |a, b| a ^ b),
            GateKind::Buf => fold(1, 0, false, &operand, |a, b| a ^ b),
        }
    }

    /// Wide [`EvalProgram::eval_instr_pinned`]: operand `pin` overridden
    /// to the splatted `word` in every sub-word.
    fn eval_instr_pinned_wide<const N: usize>(
        &self,
        values: &[u64],
        i: usize,
        pin: usize,
        word: u64,
    ) -> [u64; N] {
        let start = self.operand_start[i] as usize;
        let end = self.operand_start[i + 1] as usize;
        let operand = |idx: usize, k: usize| {
            if idx == pin {
                word
            } else {
                values[self.operands[start + idx] as usize * N + k]
            }
        };
        self.fold_pinned_wide::<N>(i, end - start, operand)
    }

    /// Wide [`EvalProgram::eval_instr_multi_pinned`].
    fn eval_instr_multi_pinned_wide<const N: usize>(
        &self,
        values: &[u64],
        i: usize,
        pins: &[Patch],
    ) -> [u64; N] {
        let start = self.operand_start[i] as usize;
        let end = self.operand_start[i + 1] as usize;
        let operand = |idx: usize, k: usize| {
            for p in pins {
                if let Patch::InstrPin { pin, word, .. } = *p {
                    if pin as usize == idx {
                        return word;
                    }
                }
            }
            values[self.operands[start + idx] as usize * N + k]
        };
        self.fold_pinned_wide::<N>(i, end - start, operand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::sim::PatternSim;

    fn adder4() -> Netlist {
        let mut b = NetlistBuilder::new("add4");
        let a = b.input_word("a", 4);
        let c = b.input_word("b", 4);
        let (s, co) = b.ripple_carry_adder(&a, &c, None);
        b.output_word("s", &s);
        b.output("co", co);
        b.finish().unwrap()
    }

    #[test]
    fn compiled_matches_interpreted_sim() {
        let nl = adder4();
        let prog = EvalProgram::compile(&nl).unwrap();
        assert_eq!(prog.instr_count(), nl.gate_count());
        assert_eq!(prog.slot_count(), nl.net_count());

        let words: Vec<u64> = (0..nl.input_width() as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
            .collect();

        let mut sim = PatternSim::new(&nl);
        sim.set_inputs(&words);
        sim.eval_comb();

        let mut values = prog.new_values();
        prog.eval_good(&mut values, &words);
        for net in nl.net_ids() {
            assert_eq!(values[net.index()], sim.value(net), "net {net}");
        }
    }

    #[test]
    fn schedule_is_levelized() {
        let nl = adder4();
        let prog = EvalProgram::compile(&nl).unwrap();
        // Every operand produced by an instruction must come from an
        // earlier instruction.
        let mut produced_at = vec![usize::MAX; prog.slot_count()];
        for (pos, instr) in prog.instrs().enumerate() {
            for &op in instr.operands {
                let p = produced_at[op as usize];
                assert!(p == usize::MAX || p < pos, "operand produced late");
            }
            produced_at[instr.out as usize] = pos;
        }
        // Level ranges tile the instruction stream.
        let ranges = prog.level_ranges();
        assert_eq!(ranges.first().map(|r| r.0), Some(0));
        assert_eq!(ranges.last().map(|r| r.1), Some(prog.instr_count() as u32));
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
            assert!(w[0].0 < w[0].1, "ranges must be non-empty");
        }
    }

    #[test]
    fn const_prologue_applied_once() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let one = b.const1();
        let y = b.and2(a, one);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        assert_eq!(prog.const_inits().len(), 1);
        let mut values = prog.new_values();
        prog.eval_good(&mut values, &[0b10]);
        assert_eq!(values[nl.outputs()[0].index()] & 0b11, 0b10);
    }

    #[test]
    fn patch_net_forces_gate_output() {
        let nl = adder4();
        let prog = EvalProgram::compile(&nl).unwrap();
        let out = nl.outputs()[0];
        let patch = prog.patch_net(out, false);
        assert!(matches!(patch, Patch::InstrOutput { .. }));
        let words = vec![!0u64; nl.input_width()];
        let mut values = prog.new_values();
        prog.eval_patched(&mut values, &words, patch);
        assert_eq!(values[out.index()], 0);
    }

    #[test]
    fn patch_net_on_input_is_slot_patch() {
        let nl = adder4();
        let prog = EvalProgram::compile(&nl).unwrap();
        let pi = nl.inputs()[0];
        let patch = prog.patch_net(pi, true);
        assert_eq!(
            patch,
            Patch::Slot {
                slot: pi.index() as u32,
                word: !0u64
            }
        );
    }

    #[test]
    fn pin_patch_only_affects_one_reader() {
        // y0 = a AND b, y1 = a OR b share net a; a pin fault on the AND's
        // pin 0 must leave the OR untouched.
        let mut b = NetlistBuilder::new("shared");
        let a = b.input("a");
        let c = b.input("b");
        let y0 = b.and2(a, c);
        let y1 = b.or2(a, c);
        b.output("y0", y0);
        b.output("y1", y1);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();

        let and_gate = nl
            .gate_ids()
            .find(|&g| nl.gate(g).kind == GateKind::And)
            .unwrap();
        let patch = prog.patch_pin(and_gate, 0, true); // pin a stuck-at-1
        let mut values = prog.new_values();
        // a=0, b=1 everywhere: good AND = 0, faulty AND = 1; OR stays 1.
        prog.eval_patched(&mut values, &[0, !0u64], patch);
        assert_eq!(values[nl.outputs()[0].index()], !0u64);
        assert_eq!(values[nl.outputs()[1].index()], !0u64);
        // Good machine for contrast.
        prog.eval_good(&mut values, &[0, !0u64]);
        assert_eq!(values[nl.outputs()[0].index()], 0);
    }

    #[test]
    fn const_slot_patch_self_heals() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let one = b.const1();
        let y = b.and2(a, one);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        let const_net = nl
            .net_ids()
            .find(|&n| matches!(nl.driver(n), NetDriver::Const(_)))
            .unwrap();
        let patch = prog.patch_net(const_net, false); // const-1 stuck-at-0
        let mut values = prog.new_values();
        prog.eval_patched(&mut values, &[!0u64], patch);
        assert_eq!(values[nl.outputs()[0].index()], 0, "fault masks the AND");
        // The next faulty evaluation with a *different* patch must see the
        // healed constant.
        let other = prog.patch_net(nl.outputs()[0], true);
        prog.eval_patched(&mut values, &[0], other);
        assert_eq!(values[const_net.index()], !0u64, "prologue re-applied");
    }

    #[test]
    fn clock_shifts_back_to_back_registers() {
        let mut b = NetlistBuilder::new("pipe2");
        let a = b.input("a");
        let r1 = b.register(&[a]);
        let r2 = b.register(&r1);
        b.output("o", r2[0]);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        let mut values = prog.new_values();
        let mut capture = Vec::new();
        prog.eval_good(&mut values, &[!0u64]);
        prog.clock(&mut values, &mut capture);
        prog.eval_good(&mut values, &[!0u64]);
        assert_eq!(values[nl.outputs()[0].index()], 0, "one stage filled");
        prog.clock(&mut values, &mut capture);
        prog.eval_good(&mut values, &[!0u64]);
        assert_eq!(values[nl.outputs()[0].index()], !0u64, "two stages");
    }

    #[test]
    fn slot_read_mask_marks_dead_slots() {
        // y = a AND b is observed; z = a OR b is dead.
        let mut b = NetlistBuilder::new("dead");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let z = b.or2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        let read = prog.slot_read_mask();
        assert!(read[a.index()] && read[c.index()], "PIs feed gates");
        assert!(read[y.index()], "observed output");
        assert!(!read[z.index()], "dead gate output is never read");
    }

    fn pattern_word(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 0xA5A5
    }

    fn scalar_words<const N: usize>(chunks: &[u64], width: usize, k: usize) -> Vec<u64> {
        (0..width).map(|i| chunks[i * N + k]).collect()
    }

    #[test]
    fn wide_good_eval_matches_scalar_per_subword() {
        let nl = adder4();
        let prog = EvalProgram::compile(&nl).unwrap();
        const N: usize = 4;
        let width = nl.input_width();
        let chunks: Vec<u64> = (0..(width * N) as u64).map(pattern_word).collect();
        let mut wide = prog.new_values_wide::<N>();
        let wide_evals = prog.eval_good_wide::<N>(&mut wide, &chunks);
        let mut scalar = prog.new_values();
        for k in 0..N {
            let evals = prog.eval_good(&mut scalar, &scalar_words::<N>(&chunks, width, k));
            assert_eq!(wide_evals, evals * N as u64, "lane-normalized count");
            for s in 0..prog.slot_count() {
                assert_eq!(wide[s * N + k], scalar[s], "slot {s} sub-word {k}");
            }
        }
    }

    /// Runs `patches` through the event kernel on `faulty` (which holds
    /// the good machine `good`), checks every slot against the
    /// full-program buffer `full`, restores, and returns the number of
    /// instructions evaluated.
    fn check_event(
        prog: &EvalProgram,
        fanout: &Fanout,
        scratch: &mut EventScratch,
        good: &[u64],
        faulty: &mut [u64],
        full: &[u64],
        patches: &[Patch],
    ) -> u64 {
        let evaluated = prog.propagate_patched(fanout, faulty, scratch, patches);
        assert_eq!(faulty, full, "event vs full program, {patches:?}");
        assert!(evaluated <= prog.instr_count() as u64, "{patches:?}");
        scratch.restore(good, faulty);
        assert_eq!(faulty, good, "restore after {patches:?}");
        evaluated
    }

    #[test]
    fn wide_patched_eval_matches_scalar_per_subword() {
        // Exercise all three patch kinds, plus a multi-patch slice, on a
        // circuit with shared fanout and a constant: the wide kernel and
        // the event kernel must both agree with the scalar full-program
        // kernel.
        let mut b = NetlistBuilder::new("widepatch");
        let a = b.input("a");
        let c = b.input("b");
        let one = b.const1();
        let y0 = b.and2(a, c);
        let y1 = b.or2(a, one);
        let y2 = b.gate(GateKind::Xor, &[y0, y1]);
        b.output("y2", y2);
        b.output("y0", y0);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        const N: usize = 8;
        let width = nl.input_width();
        let chunks: Vec<u64> = (0..(width * N) as u64).map(pattern_word).collect();
        let fanout = prog.fanout();
        let mut scratch = EventScratch::default();
        let mut good = prog.new_values();
        let mut faulty = prog.new_values();

        let and_gate = nl
            .gate_ids()
            .find(|&g| nl.gate(g).kind == GateKind::And)
            .unwrap();
        let patches = [
            prog.patch_net(a, true),
            prog.patch_net(y1, false),
            prog.patch_pin(and_gate, 1, false),
            // A forced gate-driven slot is overwritten by its writer.
            Patch::Slot {
                slot: y0.index() as u32,
                word: !0,
            },
        ];
        let mut wide = prog.new_values_wide::<N>();
        let mut scalar = prog.new_values();
        for patch in patches {
            let wide_evals = prog.eval_patched_wide::<N>(&mut wide, &chunks, patch);
            for k in 0..N {
                let words = scalar_words::<N>(&chunks, width, k);
                let evals = prog.eval_patched(&mut scalar, &words, patch);
                assert_eq!(wide_evals, evals * N as u64, "{patch:?}");
                for s in 0..prog.slot_count() {
                    assert_eq!(wide[s * N + k], scalar[s], "{patch:?} slot {s} word {k}");
                }
                prog.eval_good(&mut good, &words);
                faulty.copy_from_slice(&good);
                let p = [patch];
                check_event(
                    &prog,
                    &fanout,
                    &mut scratch,
                    &good,
                    &mut faulty,
                    &scalar,
                    &p,
                );
            }
        }

        // Multi-patch: a slot force plus two pin overrides on one gate.
        let multi = [
            prog.patch_net(a, false),
            prog.patch_pin(and_gate, 0, true),
            prog.patch_pin(and_gate, 1, true),
        ];
        let wide_evals = prog.eval_multi_patched_wide::<N>(&mut wide, &chunks, &multi);
        for k in 0..N {
            let words = scalar_words::<N>(&chunks, width, k);
            let evals = prog.eval_multi_patched(&mut scalar, &words, &multi);
            assert_eq!(wide_evals, evals * N as u64);
            for s in 0..prog.slot_count() {
                assert_eq!(wide[s * N + k], scalar[s], "multi slot {s} word {k}");
            }
            prog.eval_good(&mut good, &words);
            faulty.copy_from_slice(&good);
            check_event(
                &prog,
                &fanout,
                &mut scratch,
                &good,
                &mut faulty,
                &scalar,
                &multi,
            );
        }

        // A stuck value equal to the good word in all 64 lanes changes
        // nothing, so the event kernel evaluates no instruction: `y1` and
        // the constant are 1 whatever the inputs.
        let words = scalar_words::<N>(&chunks, width, 0);
        prog.eval_good(&mut good, &words);
        faulty.copy_from_slice(&good);
        for patch in [prog.patch_net(y1, true), prog.patch_net(one, true)] {
            prog.eval_patched(&mut scalar, &words, patch);
            let p = [patch];
            let evaluated = check_event(
                &prog,
                &fanout,
                &mut scratch,
                &good,
                &mut faulty,
                &scalar,
                &p,
            );
            assert_eq!(evaluated, 0, "{patch:?}");
        }

        // A slot patch on the constant, then another fault on the same
        // buffer: the restore must put the constant back.
        for patch in [prog.patch_net(one, false), prog.patch_net(y0, true)] {
            prog.eval_patched(&mut scalar, &words, patch);
            let p = [patch];
            check_event(
                &prog,
                &fanout,
                &mut scratch,
                &good,
                &mut faulty,
                &scalar,
                &p,
            );
        }
    }

    #[test]
    fn wide_buffer_self_heals_const_slots() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let one = b.const1();
        let y = b.and2(a, one);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        const N: usize = 4;
        let const_net = nl
            .net_ids()
            .find(|&n| matches!(nl.driver(n), NetDriver::Const(_)))
            .unwrap();
        let chunks = [!0u64; N];
        let mut wide = prog.new_values_wide::<N>();
        prog.eval_patched_wide::<N>(&mut wide, &chunks, prog.patch_net(const_net, false));
        let o = nl.outputs()[0].index() * N;
        assert!(
            wide[o..o + N].iter().all(|&w| w == 0),
            "fault masks the AND"
        );
        prog.eval_patched_wide::<N>(&mut wide, &chunks, prog.patch_net(nl.outputs()[0], true));
        let c = const_net.index() * N;
        assert!(
            wide[c..c + N].iter().all(|&w| w == !0u64),
            "prologue healed"
        );
    }

    #[test]
    fn compile_reports_cycles() {
        use crate::netlist::{Gate, Net};
        // g0: y = AND(a, z); g1: z = OR(y, a) — a 2-gate cycle.
        let nets = vec![
            Net {
                name: Some("a".into()),
                driver: NetDriver::Input(0),
            },
            Net {
                name: Some("y".into()),
                driver: NetDriver::Gate(GateId::from_index(0)),
            },
            Net {
                name: Some("z".into()),
                driver: NetDriver::Gate(GateId::from_index(1)),
            },
        ];
        let gates = vec![
            Gate {
                kind: GateKind::And,
                inputs: vec![NetId::from_index(0), NetId::from_index(2)],
                output: NetId::from_index(1),
            },
            Gate {
                kind: GateKind::Or,
                inputs: vec![NetId::from_index(1), NetId::from_index(0)],
                output: NetId::from_index(2),
            },
        ];
        let nl = Netlist::from_parts_unchecked(
            "cyc".into(),
            nets,
            gates,
            Vec::new(),
            vec![NetId::from_index(0)],
            vec![NetId::from_index(1)],
        );
        assert!(matches!(
            EvalProgram::compile(&nl),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }
}
