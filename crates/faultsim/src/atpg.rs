//! PODEM combinational ATPG.
//!
//! Balanced BISTable kernels are 1-step functionally testable, so — as the
//! paper notes — "only an ATPG system for combinational logic is required".
//! This PODEM implementation serves two purposes in the reproduction:
//!
//! * **redundancy identification** — the Table 2 "100 % fault coverage"
//!   rows count *detectable* faults, so undetectable (redundant) faults
//!   must be proven so and excluded;
//! * deterministic test generation for individual faults, used by tests to
//!   cross-check the fault simulator.

use crate::fault::{Fault, FaultSite};
use bibs_netlist::analysis::{eval_tv, Scoap, Tv};
use bibs_netlist::{EvalProgram, Fanout, NetDriver, NetId, Netlist, Pending};

/// The outcome of PODEM on one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtpgResult {
    /// A test was found. The vector gives one value per primary input;
    /// `None` means don't-care.
    Test(Vec<Option<bool>>),
    /// The fault is provably undetectable (the search space is exhausted).
    Redundant,
    /// The backtrack limit was hit before a conclusion.
    Aborted,
}

/// Aggregate fault classification over a fault list.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Faults with a generated test.
    pub detectable: Vec<(Fault, Vec<Option<bool>>)>,
    /// Faults proven redundant.
    pub redundant: Vec<Fault>,
    /// Faults on which PODEM hit the backtrack limit.
    pub aborted: Vec<Fault>,
}

impl Classification {
    /// Number of faults proven or presumed detectable (tests found).
    pub fn detectable_count(&self) -> usize {
        self.detectable.len()
    }
}

/// A PODEM test generator bound to one combinational netlist.
///
/// Forward implication ([`Atpg::generate`]'s inner loop) runs over the
/// compiled [`EvalProgram`] schedule in the `{0, 1, X}` domain of
/// [`bibs_netlist::analysis`] ([`Tv`], [`eval_tv`]): the good and faulty
/// machines are kept between calls and re-evaluated event-driven from
/// the primary inputs a decision or backtrack changed, through the same
/// [`Fanout`] index and [`Pending`] scheduler the fault simulators use.
#[derive(Debug)]
pub struct Atpg<'a> {
    netlist: &'a Netlist,
    program: EvalProgram,
    /// Slot → reading instructions.
    fanout: Fanout,
    /// Structural SCOAP costs used to order objective/backtrace choices:
    /// when *all* inputs must reach a value the hardest one is attacked
    /// first (fail fast), when *any* input suffices the cheapest is taken.
    scoap: Scoap,
    good: Vec<Tv>,
    faulty: Vec<Tv>,
    /// The fault and primary-input assignment `good`/`faulty` hold.
    applied_fault: Option<Fault>,
    applied: Vec<Option<bool>>,
    pending: Pending,
    is_po: Vec<bool>,
    /// Epoch-stamped visited set and stack of the X-path search.
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<usize>,
    /// Total PODEM backtracks across every [`Atpg::generate`] call on this
    /// generator; exported as the `podem_backtracks` telemetry counter.
    backtracks_total: u64,
}

impl<'a> Atpg<'a> {
    /// Creates a generator for `netlist`, compiling it once.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential; run on the combinational
    /// equivalent.
    pub fn new(netlist: &'a Netlist) -> Self {
        assert_eq!(netlist.dff_count(), 0, "PODEM is combinational-only");
        let program = EvalProgram::compile(netlist).expect("acyclic netlist");
        let mut is_po = vec![false; netlist.net_count()];
        for &o in netlist.outputs() {
            is_po[o.index()] = true;
        }
        let scoap = Scoap::compute(&program);
        Atpg {
            netlist,
            fanout: program.fanout(),
            pending: Pending::new(&program),
            program,
            scoap,
            good: vec![Tv::X; netlist.net_count()],
            faulty: vec![Tv::X; netlist.net_count()],
            applied_fault: None,
            applied: vec![None; netlist.input_width()],
            is_po,
            seen: vec![0; netlist.net_count()],
            epoch: 0,
            stack: Vec::new(),
            backtracks_total: 0,
        }
    }

    /// Total backtracks taken across every [`Atpg::generate`] call so far.
    pub fn backtracks_total(&self) -> u64 {
        self.backtracks_total
    }

    /// Picks the X-valued input to drive toward `value`. `hardest` selects
    /// the maximum-controllability input (all inputs must reach `value`,
    /// so failing fast on the hardest prunes the search); otherwise the
    /// minimum (any input suffices). Ties resolve to the lowest pin index,
    /// keeping the search deterministic.
    fn pick_x_input(&self, inputs: &[NetId], value: bool, hardest: bool) -> Option<NetId> {
        let cc = if value {
            &self.scoap.cc1
        } else {
            &self.scoap.cc0
        };
        let mut best: Option<(u32, NetId)> = None;
        for &i in inputs {
            if self.good[i.index()] != Tv::X {
                continue;
            }
            let cost = cc[i.index()];
            let better = match best {
                None => true,
                Some((b, _)) => {
                    if hardest {
                        cost > b
                    } else {
                        cost < b
                    }
                }
            };
            if better {
                best = Some((cost, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Runs PODEM for one fault with the given backtrack limit.
    pub fn generate(&mut self, fault: Fault, backtrack_limit: usize) -> AtpgResult {
        let width = self.netlist.input_width();
        let mut assignment: Vec<Option<bool>> = vec![None; width];
        // Decision stack: (pi index, value, alternative already tried).
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0usize;

        loop {
            self.imply(&assignment, fault);
            if self.detected() {
                return AtpgResult::Test(assignment);
            }
            let objective = self.objective(fault);
            match objective {
                Some((net, value)) => {
                    if let Some((pi, v)) = self.backtrace(net, value) {
                        assignment[pi] = Some(v);
                        stack.push((pi, v, false));
                        continue;
                    }
                    // No X input reachable: treat as a dead end.
                }
                None => {
                    // Conflict or no propagation path: dead end.
                }
            }
            // Backtrack.
            loop {
                match stack.pop() {
                    None => return AtpgResult::Redundant,
                    Some((pi, v, tried)) => {
                        assignment[pi] = None;
                        if !tried {
                            backtracks += 1;
                            self.backtracks_total += 1;
                            if backtracks > backtrack_limit {
                                return AtpgResult::Aborted;
                            }
                            assignment[pi] = Some(!v);
                            stack.push((pi, !v, true));
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Brings both machines to the implication of `assignment` under
    /// `fault`. A new fault schedules every instruction once (a full
    /// sweep); otherwise only the readers of primary inputs whose value
    /// differs from the last call are scheduled, and an instruction whose
    /// good and faulty outputs do not change schedules nothing. Either way
    /// the buffers end equal to a full sweep from the assignment.
    fn imply(&mut self, assignment: &[Option<bool>], fault: Fault) {
        let stuck = Tv::from_bool(fault.stuck_at);
        let (fault_slot, fault_pin) = match fault.site {
            FaultSite::Net(n) => (Some(n.index()), None),
            FaultSite::GatePin { gate, pin } => {
                (None, Some((self.program.instr_of_gate(gate), pin)))
            }
        };
        let full = self.applied_fault != Some(fault);
        if full {
            self.applied_fault = Some(fault);
            for &(slot, word) in self.program.const_inits() {
                let v = Tv::from_bool(word != 0);
                self.good[slot as usize] = v;
                self.faulty[slot as usize] = if fault_slot == Some(slot as usize) {
                    stuck
                } else {
                    v
                };
            }
            for i in 0..self.program.instr_count() {
                self.pending.push(i as u32);
            }
        }
        for (i, &slot) in self.program.input_slots().iter().enumerate() {
            if !full && assignment[i] == self.applied[i] {
                continue;
            }
            self.applied[i] = assignment[i];
            let slot = slot as usize;
            let v = assignment[i].map_or(Tv::X, Tv::from_bool);
            let fv = if fault_slot == Some(slot) { stuck } else { v };
            if (self.good[slot], self.faulty[slot]) != (v, fv) {
                (self.good[slot], self.faulty[slot]) = (v, fv);
                for &r in self.fanout.readers(slot) {
                    self.pending.push(r);
                }
            }
        }
        let (program, fanout) = (&self.program, &self.fanout);
        let (good, faulty) = (&mut self.good, &mut self.faulty);
        self.pending.drain(|pos, pending| {
            let instr = program.instr(pos);
            let g = eval_tv(instr.kind, instr.operands.iter().map(|&s| good[s as usize]));
            let ops = instr.operands.iter().enumerate();
            let mut f = eval_tv(
                instr.kind,
                ops.map(|(p, &s)| {
                    if fault_pin == Some((pos, p)) {
                        stuck
                    } else {
                        faulty[s as usize]
                    }
                }),
            );
            let out = instr.out as usize;
            if fault_slot == Some(out) {
                f = stuck;
            }
            if (good[out], faulty[out]) != (g, f) {
                (good[out], faulty[out]) = (g, f);
                for &r in fanout.readers(out) {
                    pending.push(r);
                }
            }
        });
        #[cfg(test)]
        self.assert_full_sweep(assignment, fault);
    }

    fn error_at(&self, net: NetId) -> bool {
        matches!(
            (self.good[net.index()], self.faulty[net.index()]),
            (Tv::Zero, Tv::One) | (Tv::One, Tv::Zero)
        )
    }

    fn unknown_at(&self, net: NetId) -> bool {
        self.good[net.index()] == Tv::X || self.faulty[net.index()] == Tv::X
    }

    fn detected(&self) -> bool {
        self.netlist.outputs().iter().any(|&o| self.error_at(o))
    }

    /// The signal whose good value activates the fault, and the activation
    /// state: `Ok(true)` activated, `Ok(false)` impossible, `Err(net)` still
    /// unknown.
    fn activation(&self, fault: Fault) -> Result<bool, NetId> {
        let site_net = match fault.site {
            FaultSite::Net(n) => n,
            FaultSite::GatePin { gate, pin } => self.netlist.gate(gate).inputs[pin],
        };
        match self.good[site_net.index()].constant() {
            Some(v) => Ok(v != fault.stuck_at),
            None => Err(site_net),
        }
    }

    /// Picks the next objective `(net, value)` in the good machine, or
    /// `None` at a dead end (conflict / empty D-frontier / no X-path).
    fn objective(&mut self, fault: Fault) -> Option<(NetId, bool)> {
        match self.activation(fault) {
            Err(net) => return Some((net, !fault.stuck_at)),
            Ok(false) => return None, // fault can no longer be activated
            Ok(true) => {}
        }
        // Fault is activated. Take the first D-frontier gate with an
        // X-path to a PO. For a pin fault the error lives on the pin, not
        // on any net, so the faulted gate itself leads the frontier while
        // its output is still unknown.
        let netlist = self.netlist;
        let gate = 'found: {
            if let FaultSite::GatePin { gate, .. } = fault.site {
                let out = netlist.gate(gate).output;
                if self.unknown_at(out) && self.has_x_path(out) {
                    break 'found gate;
                }
            }
            for gid in netlist.gate_ids() {
                let g = netlist.gate(gid);
                if self.unknown_at(g.output)
                    && g.inputs.iter().any(|&i| self.error_at(i))
                    && self.has_x_path(g.output)
                {
                    break 'found gid;
                }
            }
            return None;
        };
        // Objective: set one X input of the chosen frontier gate to the
        // non-controlling value so the error propagates. All side pins
        // will eventually need the value, so attack the hardest (highest
        // SCOAP controllability) first.
        let g = netlist.gate(gate);
        let (value, hardest) = match g.kind.controlling_value() {
            Some(c) => (!c, true),
            None => (false, false), // XOR-family: any settled value works
        };
        let x_input = self.pick_x_input(&g.inputs, value, hardest)?;
        Some((x_input, value))
    }

    /// `true` when unknown nets lead from `start` to a PO.
    fn has_x_path(&mut self, start: NetId) -> bool {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.push(start.index());
        self.seen[start.index()] = self.epoch;
        let mut found = false;
        while let Some(n) = stack.pop() {
            if self.is_po[n] {
                found = true;
                break;
            }
            for &r in self.fanout.readers(n) {
                let out = self.program.instr(r as usize).out as usize;
                if self.seen[out] != self.epoch && self.unknown_at(NetId::from_index(out)) {
                    self.seen[out] = self.epoch;
                    stack.push(out);
                }
            }
        }
        self.stack = stack;
        found
    }

    /// Walks an objective back to an unassigned primary input.
    fn backtrace(&self, mut net: NetId, mut value: bool) -> Option<(usize, bool)> {
        loop {
            match self.netlist.driver(net) {
                NetDriver::Input(i) => {
                    debug_assert_eq!(self.good[net.index()], Tv::X);
                    return Some((i, value));
                }
                NetDriver::Gate(gid) => {
                    let gate = self.netlist.gate(gid);
                    // Remove the gate's output inversion.
                    let inner = if gate.kind.is_inverting() {
                        !value
                    } else {
                        value
                    };
                    // SCOAP-guided branch choice: when `inner` is the
                    // controlling value, any single input suffices — take
                    // the cheapest; when it is the non-controlling value,
                    // every input must reach it — take the hardest first.
                    let hardest = match gate.kind.controlling_value() {
                        Some(c) => inner != c,
                        None => false, // XOR-family / unary: cheapest pin
                    };
                    let x_input = self.pick_x_input(&gate.inputs, inner, hardest)?;
                    value = inner;
                    net = x_input;
                }
                NetDriver::Const(_) | NetDriver::Dff(_) | NetDriver::Floating => return None,
            }
        }
    }

    /// Classifies every fault in `faults`.
    pub fn classify(&mut self, faults: &[Fault], backtrack_limit: usize) -> Classification {
        let mut out = Classification {
            detectable: Vec::new(),
            redundant: Vec::new(),
            aborted: Vec::new(),
        };
        for &f in faults {
            match self.generate(f, backtrack_limit) {
                AtpgResult::Test(t) => out.detectable.push((f, t)),
                AtpgResult::Redundant => out.redundant.push(f),
                AtpgResult::Aborted => out.aborted.push(f),
            }
        }
        out
    }

    /// [`Atpg::classify`] wrapped in an `"atpg"` telemetry span: records
    /// the span's wall time, the faults attempted as `fault_evals` and the
    /// PODEM backtracks taken by this call as `podem_backtracks`.
    pub fn classify_traced(
        &mut self,
        faults: &[Fault],
        backtrack_limit: usize,
        rec: &mut bibs_obs::Recorder,
    ) -> Classification {
        let span = rec.enter("atpg");
        let before = self.backtracks_total;
        let out = self.classify(faults, backtrack_limit);
        rec.add(bibs_obs::CounterId::FaultEvals, faults.len() as u64);
        rec.add(
            bibs_obs::CounterId::PodemBacktracks,
            self.backtracks_total - before,
        );
        rec.exit(span);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use crate::par::ParFaultSimulator;
    use crate::sim::BlockSim;
    use bibs_netlist::builder::NetlistBuilder;

    impl Atpg<'_> {
        /// The full-sweep reference for [`Atpg::imply`]: both machines
        /// evaluated over the whole program from fresh `X` buffers.
        fn full_sweep(&self, assignment: &[Option<bool>], fault: Fault) -> (Vec<Tv>, Vec<Tv>) {
            let n = self.netlist.net_count();
            let (mut good, mut faulty) = (vec![Tv::X; n], vec![Tv::X; n]);
            let stuck = Tv::from_bool(fault.stuck_at);
            let fault_slot = match fault.site {
                FaultSite::Net(n) => Some(n.index()),
                FaultSite::GatePin { .. } => None,
            };
            let sources = self
                .program
                .input_slots()
                .iter()
                .enumerate()
                .map(|(i, &s)| (s as usize, assignment[i].map_or(Tv::X, Tv::from_bool)));
            let consts = self.program.const_inits().iter();
            let consts = consts.map(|&(s, w)| (s as usize, Tv::from_bool(w != 0)));
            for (slot, v) in sources.chain(consts) {
                good[slot] = v;
                faulty[slot] = if fault_slot == Some(slot) { stuck } else { v };
            }
            for pos in 0..self.program.instr_count() {
                let instr = self.program.instr(pos);
                let mut fops: Vec<Tv> =
                    instr.operands.iter().map(|&s| faulty[s as usize]).collect();
                if let FaultSite::GatePin { gate, pin } = fault.site {
                    if self.program.instr_of_gate(gate) == pos {
                        fops[pin] = stuck;
                    }
                }
                let out = instr.out as usize;
                good[out] = eval_tv(instr.kind, instr.operands.iter().map(|&s| good[s as usize]));
                faulty[out] = if fault_slot == Some(out) {
                    stuck
                } else {
                    eval_tv(instr.kind, fops)
                };
            }
            (good, faulty)
        }

        /// Checks the event-driven buffers against [`Atpg::full_sweep`].
        pub(super) fn assert_full_sweep(&self, assignment: &[Option<bool>], fault: Fault) {
            let (good, faulty) = self.full_sweep(assignment, fault);
            assert!(good == self.good, "good machine diverges for {fault}");
            assert!(faulty == self.faulty, "faulty machine diverges for {fault}");
        }
    }

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
    fn generated_tests_actually_detect() {
        let nl = adder4();
        let universe = FaultUniverse::collapsed(&nl);
        let mut atpg = Atpg::new(&nl);
        let class = atpg.classify(universe.faults(), 10_000);
        assert!(class.aborted.is_empty(), "small adder must not abort");
        assert!(class.redundant.is_empty(), "adders have no redundancy");
        // Replay every generated test through the fault simulator.
        for (fault, test) in &class.detectable {
            let pattern: Vec<bool> = test.iter().map(|v| v.unwrap_or(false)).collect();
            let mut sim = ParFaultSimulator::with_threads(&nl, vec![*fault], 1);
            let report = sim.run_patterns(&[pattern]);
            assert_eq!(
                report.detected_count(),
                1,
                "PODEM test for {fault} must detect it"
            );
        }
    }

    #[test]
    fn redundant_fault_is_proven() {
        // y = a AND (NOT a) == 0; y/sa0 is undetectable.
        let mut b = NetlistBuilder::new("red");
        let a = b.input("a");
        let na = b.not(a);
        let y = b.and2(a, na);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let mut atpg = Atpg::new(&nl);
        let fault = Fault::net_sa0(nl.outputs()[0]);
        assert_eq!(atpg.generate(fault, 10_000), AtpgResult::Redundant);
        // But y/sa1 is detectable (any pattern works).
        let fault1 = Fault::net_sa1(nl.outputs()[0]);
        assert!(matches!(atpg.generate(fault1, 10_000), AtpgResult::Test(_)));
    }

    #[test]
    fn unobservable_logic_is_redundant() {
        // A gate whose output feeds nothing observable.
        let mut b = NetlistBuilder::new("unobs");
        let a = b.input("a");
        let c = b.input("b");
        let _dead = b.and2(a, c); // never connected to an output
        let y = b.xor2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let dead_net = nl.gate(nl.gate_ids().next().unwrap()).output;
        let mut atpg = Atpg::new(&nl);
        assert_eq!(
            atpg.generate(Fault::net_sa1(dead_net), 10_000),
            AtpgResult::Redundant
        );
    }

    #[test]
    fn atpg_agrees_with_exhaustive_simulation() {
        let nl = adder4();
        let universe = FaultUniverse::collapsed(&nl);
        let mut atpg = Atpg::new(&nl);
        let class = atpg.classify(universe.faults(), 10_000);
        let mut sim = ParFaultSimulator::with_threads(&nl, universe.faults().to_vec(), 1);
        let report = sim.run_exhaustive();
        assert_eq!(class.detectable_count(), report.detected_count());
    }

    #[test]
    fn classify_random_dags_with_redundant_faults() {
        // Every `imply` is checked against the full sweep (see
        // `assert_full_sweep`), and every verdict against exhaustive
        // simulation.
        let mut redundant = 0;
        for seed in 0..24u64 {
            let nl =
                bibs_netlist::testgen::random_netlist_seeded(seed, 3 + (seed % 5) as usize, 30);
            let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
            let class = Atpg::new(&nl).classify(&faults, 10_000);
            assert!(class.aborted.is_empty(), "{}", nl.name());
            let report = ParFaultSimulator::with_threads(&nl, faults.clone(), 1).run_exhaustive();
            for (fault, det) in faults.iter().zip(report.detection()) {
                assert_eq!(
                    det.is_none(),
                    class.redundant.contains(fault),
                    "{}: {fault}",
                    nl.name()
                );
            }
            redundant += class.redundant.len();
        }
        assert!(redundant > 0, "the DAGs include redundant faults");
    }

    #[test]
    fn xor_tree_faults_are_testable() {
        let mut b = NetlistBuilder::new("xt");
        let bits = b.input_word("x", 5);
        let mut acc = bits[0];
        for &bit in &bits[1..] {
            acc = b.xor2(acc, bit);
        }
        b.output("p", acc);
        let nl = b.finish().unwrap();
        let universe = FaultUniverse::collapsed(&nl);
        let mut atpg = Atpg::new(&nl);
        let class = atpg.classify(universe.faults(), 10_000);
        assert!(class.redundant.is_empty());
        assert!(class.aborted.is_empty());
    }
}
