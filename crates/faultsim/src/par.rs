//! Multi-threaded sharded fault simulation.
//!
//! [`ParFaultSimulator`] shards the *undetected* fault list across
//! `std::thread::scope` workers. Each block is processed as:
//!
//! 1. **one** good-machine run of the compiled
//!    [`EvalProgram`] into a buffer all
//!    workers share read-only;
//! 2. each worker syncs its private faulty buffer to the good one, then
//!    steals fixed-size chunks of the undetected list off an
//!    `AtomicUsize` cursor. Per fault it applies the pre-compiled
//!    [`bibs_netlist::Patch`]es to that buffer and evaluates, event-driven,
//!    only the instructions the fault changes
//!    ([`EvalProgram::propagate_patched`]), records a
//!    `(position, first-diff-lane)` hit, and restores the touched slots;
//! 3. the main thread merges the hits and compacts the undetected list.
//!
//! # Determinism
//!
//! The parallel report is **bit-identical** to the serial
//! [`crate::sim::FaultSimulator`]'s, for any thread count, because:
//!
//! * the pattern stream is formed by the shared [`BlockSim`] drivers, so
//!   both engines draw the same RNG words and schedule the same blocks;
//! * per-fault detection is a pure function of `(program, block, patch)`
//!   — one immutable [`EvalProgram`] is shared
//!   by every worker, so *which* worker evaluates a fault cannot change
//!   the answer;
//! * workers touch disjoint positions of the undetected list, so merging
//!   their hit lists is order-independent: fault *i*'s first-detection
//!   index is `patterns_applied + trailing_zeros(diff)` regardless of
//!   join order;
//! * fault dropping is block-granular in both engines (a fault detected
//!   in block *b* is still evaluated by nobody else in block *b* and by
//!   no one in block *b+1*).
//!
//! Work stealing only redistributes *throughput* between shards (visible
//! in [`SimStats::per_shard_fault_evals`]); it never changes the report.
//! `tests/par_equivalence.rs` pins this across circuits, seeds and thread
//! counts.

use crate::eval;
use crate::fault::Fault;
use crate::sim::{BlockSim, FaultSimReport, FaultSimulator, SimError};
use crate::source::PatternBlock;
use crate::stats::SimStats;
use bibs_netlist::opt::OptimizedProgram;
use bibs_netlist::{EvalProgram, Fanout, Netlist};
use bibs_obs::{CounterId, Recorder, ShardCounters};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Faults a worker grabs per steal; small enough to balance dropped-fault
/// skew, large enough to keep cursor contention negligible.
const STEAL_CHUNK: usize = 32;

/// Below this many undetected faults a block is simulated inline on the
/// calling thread — spawning would cost more than the work.
const SERIAL_CUTOFF: usize = 48;

/// One worker shard's outcome for a block: detection hits as
/// `(undetected-list position, first diff lane)` plus the shard's private
/// telemetry counters (fault/gate evals, queue pops, wall time).
type ShardResult = (Vec<(usize, u64)>, ShardCounters);

/// Resolves a `BIBS_JOBS`-style value to a worker-thread count: a positive
/// integer wins, anything else (unset, empty, garbage, zero) falls back to
/// [`std::thread::available_parallelism`] (1 if that is unavailable).
///
/// This is the **pure** core of [`default_jobs`]: it takes the variable's
/// value as a parameter instead of reading the process environment, so
/// tests can cover the parse table without `set_var`/`remove_var` races
/// against concurrently running tests (mutating the environment from a
/// multi-threaded test harness is UB-adjacent on POSIX and was the source
/// of a real flake).
pub fn default_jobs_from(value: Option<&str>) -> usize {
    if let Some(v) = value {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker-thread count to use by default: the `BIBS_JOBS` environment
/// variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if that is unavailable).
/// Parsing lives in [`default_jobs_from`].
pub fn default_jobs() -> usize {
    default_jobs_from(std::env::var("BIBS_JOBS").ok().as_deref())
}

/// Multi-threaded drop-in replacement for [`FaultSimulator`].
///
/// Construct with [`ParFaultSimulator::new`] (thread count from
/// [`default_jobs`]) or [`ParFaultSimulator::with_threads`], then drive it
/// through the [`BlockSim`] trait exactly like the serial engine:
///
/// ```
/// use bibs_netlist::builder::NetlistBuilder;
/// use bibs_faultsim::fault::FaultUniverse;
/// use bibs_faultsim::par::ParFaultSimulator;
/// use bibs_faultsim::sim::BlockSim;
///
/// # fn main() -> Result<(), bibs_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("add2");
/// let a = b.input_word("a", 2);
/// let c = b.input_word("b", 2);
/// let (s, co) = b.ripple_carry_adder(&a, &c, None);
/// b.output_word("s", &s);
/// b.output("co", co);
/// let nl = b.finish()?;
///
/// let faults = FaultUniverse::collapsed(&nl);
/// let mut sim = ParFaultSimulator::with_threads(&nl, faults.faults().to_vec(), 4);
/// let report = sim.run_exhaustive();
/// assert_eq!(report.undetected().len(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ParFaultSimulator<'a> {
    netlist: &'a Netlist,
    /// The compiled program, shared read-only by every worker.
    program: EvalProgram,
    /// The pre-rewrite program when `program` is optimizer-rewritten;
    /// [`eval::FaultPatch::Fallback`] faults evaluate on it.
    fallback: Option<EvalProgram>,
    faults: Vec<Fault>,
    /// `patches[i]` = compiled patch-point(s) of fault *i*.
    patches: Vec<eval::FaultPatch>,
    detection: Vec<Option<u64>>,
    /// Indices (into `faults`) of the faults still undetected — the work
    /// list the workers shard. Compacted after every block.
    undetected: Vec<u32>,
    /// `program`'s fan-out index, shared read-only by the workers' event
    /// kernels.
    fanout: Fanout,
    good: Vec<u64>,
    /// One faulty machine (buffer + event scratch) per worker, reused
    /// across blocks.
    faulty_bufs: Vec<eval::FaultyMachine>,
    /// 64-lane words per sweep: 1 (scalar) or 4/8 (`with_lanes`).
    lane_words: usize,
    /// Stride-`lane_words` wide buffers; empty while scalar.
    good_wide: Vec<u64>,
    faulty_wide_bufs: Vec<Vec<u64>>,
    patterns_applied: u64,
    threads: usize,
    rec: Recorder,
}

impl<'a> ParFaultSimulator<'a> {
    /// Creates a parallel simulator with [`default_jobs`] worker threads.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential or combinationally cyclic, or
    /// if the fault list exceeds `u32::MAX` entries.
    pub fn new(netlist: &'a Netlist, faults: Vec<Fault>) -> Self {
        Self::with_threads(netlist, faults, default_jobs())
    }

    /// Creates a parallel simulator with an explicit worker-thread count
    /// (clamped to at least 1). `with_threads(nl, faults, 1)` behaves
    /// exactly like the serial engine, inline on the calling thread.
    ///
    /// The netlist is compiled to an [`EvalProgram`] here; the compile
    /// time is recorded in [`SimStats::compile_wall`]. Use
    /// [`ParFaultSimulator::with_program`] to reuse a compiled program.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ParFaultSimulator::new`].
    pub fn with_threads(netlist: &'a Netlist, faults: Vec<Fault>, threads: usize) -> Self {
        let mut rec = Recorder::new("fault-sim[par]");
        let program =
            EvalProgram::compile_traced(netlist, &mut rec).expect("acyclic combinational netlist");
        Self::with_program_recorder(netlist, program, faults, threads, rec)
    }

    /// Creates a parallel simulator around an already-compiled program
    /// for the same netlist, so callers running many sessions on one
    /// circuit pay the compile cost once.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential, `program` was not compiled
    /// from `netlist` (slot count is the cheap proxy checked), or the
    /// fault list exceeds `u32::MAX` entries.
    pub fn with_program(
        netlist: &'a Netlist,
        program: EvalProgram,
        faults: Vec<Fault>,
        threads: usize,
    ) -> Self {
        Self::with_program_recorder(
            netlist,
            program,
            faults,
            threads,
            Recorder::new("fault-sim[par]"),
        )
    }

    /// [`ParFaultSimulator::with_program`] with a caller-supplied
    /// telemetry recorder. Pass [`Recorder::disabled`] to measure the
    /// recorder's own hot-loop overhead; stats derived from a disabled
    /// recorder are all-zero.
    pub fn with_program_recorder(
        netlist: &'a Netlist,
        program: EvalProgram,
        faults: Vec<Fault>,
        threads: usize,
        rec: Recorder,
    ) -> Self {
        assert_eq!(
            netlist.dff_count(),
            0,
            "fault-simulate the combinational equivalent"
        );
        assert_eq!(
            program.slot_count(),
            netlist.net_count(),
            "program/netlist mismatch"
        );
        assert!(
            faults.len() <= u32::MAX as usize,
            "fault list exceeds u32 index space"
        );
        let threads = threads.max(1);
        let patches = eval::compile_fault_patches(&program, None, &faults);
        let n = faults.len();
        let good = program.new_values();
        let faulty_bufs = (0..threads)
            .map(|_| eval::FaultyMachine::new(&program))
            .collect();
        ParFaultSimulator {
            netlist,
            fanout: program.fanout(),
            program,
            fallback: None,
            faults,
            patches,
            detection: vec![None; n],
            undetected: (0..n as u32).collect(),
            good,
            faulty_bufs,
            lane_words: 1,
            good_wide: Vec::new(),
            faulty_wide_bufs: Vec::new(),
            patterns_applied: 0,
            threads,
            rec,
        }
    }

    /// Reconfigures the engine for wide sweeps — the parallel twin of
    /// [`FaultSimulator::with_lanes`]: `lanes` is 64 (scalar default),
    /// 256, or 512. Reports stay bit-identical across lane widths *and*
    /// thread counts (`tests/lanes_equivalence.rs`). Widening records the
    /// `lanes` telemetry counter; 64 leaves the scalar path untouched.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not 64, 256, or 512.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(
            matches!(lanes, 64 | 256 | 512),
            "supported lane widths: 64, 256, 512"
        );
        self.lane_words = lanes / 64;
        if self.lane_words > 1 {
            let root = self.rec.root();
            self.rec.add_to(root, CounterId::Lanes, lanes as u64);
            self.good_wide = match self.lane_words {
                4 => self.program.new_values_wide::<4>(),
                _ => self.program.new_values_wide::<8>(),
            };
            self.faulty_wide_bufs = (0..self.threads).map(|_| self.good_wide.clone()).collect();
        } else {
            self.good_wide = Vec::new();
            self.faulty_wide_bufs = Vec::new();
        }
        self
    }

    /// Creates a parallel simulator whose good machine runs the
    /// **optimized** program of a validated [`OptimizedProgram`]; the
    /// serial counterpart is [`FaultSimulator::with_optimized`] and the
    /// report stays bit-identical to it (and to the unoptimized engines)
    /// for any thread count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ParFaultSimulator::with_program`].
    pub fn with_optimized(
        netlist: &'a Netlist,
        opt: &OptimizedProgram,
        faults: Vec<Fault>,
        threads: usize,
    ) -> Self {
        Self::with_optimized_recorder(
            netlist,
            opt,
            faults,
            threads,
            Recorder::new("fault-sim[par]"),
        )
    }

    /// Fallible [`ParFaultSimulator::with_optimized`] — the parallel twin
    /// of [`FaultSimulator::try_with_optimized`]: validates that every
    /// unmapped (`Fallback`) fault has the original program to evaluate
    /// on, surfacing a violation as a typed [`SimError`] instead of a
    /// mid-run abort.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MissingFallback`] if an unmapped fault has no
    /// fallback program.
    pub fn try_with_optimized(
        netlist: &'a Netlist,
        opt: &OptimizedProgram,
        faults: Vec<Fault>,
        threads: usize,
    ) -> Result<Self, SimError> {
        let sim = Self::with_optimized(netlist, opt, faults, threads);
        eval::validate_fault_patches(&sim.patches, sim.fallback.is_some())?;
        Ok(sim)
    }

    /// [`ParFaultSimulator::with_optimized`] with a caller-supplied
    /// telemetry recorder.
    pub fn with_optimized_recorder(
        netlist: &'a Netlist,
        opt: &OptimizedProgram,
        faults: Vec<Fault>,
        threads: usize,
        rec: Recorder,
    ) -> Self {
        let mut sim =
            Self::with_program_recorder(netlist, opt.optimized().clone(), faults, threads, rec);
        sim.patches = eval::compile_fault_patches(opt.original(), Some(opt), &sim.faults);
        sim.fallback = Some(opt.original().clone());
        eval::validate_fault_patches(&sim.patches, sim.fallback.is_some())
            .expect("optimized constructors retain the original program");
        sim
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The compiled program shared by the workers.
    pub fn program(&self) -> &EvalProgram {
        &self.program
    }

    /// The engine's telemetry span tree (root `"fault-sim[par]"`):
    /// per-block counters on the root, the compile cost as a `"compile"`
    /// child, one detail child per worker shard. Graft it into a
    /// pipeline-level recorder with [`Recorder::graft`].
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The monomorphized wide sweep: one wide good-machine evaluation,
    /// then the undetected list sharded across workers exactly like the
    /// scalar [`BlockSim::apply_block`], each hit carrying its pattern
    /// *offset* (`sub-block prefix + lane`) within the sweep. Detections
    /// merge deterministically; the undetected list is compacted later by
    /// the commit (the driver may still erase boundary-crossing hits).
    fn apply_wide<const N: usize>(&mut self, blocks: &[PatternBlock], applied: &[usize]) -> usize {
        let width = self.netlist.input_width();
        let started = Instant::now();
        let (chunks, masks, prefix) = crate::sim::pack_wide::<N>(blocks, applied, width);

        let good_gate_evals = self
            .program
            .eval_good_wide::<N>(&mut self.good_wide, &chunks);

        let program = &self.program;
        let fallback = self.fallback.as_ref();
        let patches = &self.patches;
        let undetected = &self.undetected;
        let good = &self.good_wide;
        let output_slots = program.output_slots();
        let chunks = &chunks;
        let masks = &masks;

        let shard_results: Vec<ShardResult> = if self.threads <= 1
            || undetected.len() <= SERIAL_CUTOFF
        {
            let buf = &mut self.faulty_wide_bufs[0];
            let mut hits = Vec::new();
            let mut shard = ShardCounters::new();
            let shard_started = Instant::now();
            for (pos, &fi) in undetected.iter().enumerate() {
                let fp = &patches[fi as usize];
                let gate_evals = eval::eval_fault_wide::<N>(program, fallback, buf, chunks, fp);
                shard.add(CounterId::GateEvals, gate_evals);
                shard.add(CounterId::FaultEvals, 1);
                shard.add(CounterId::PatchesApplied, fp.patch_count());
                if let Some((k, diff)) = eval::output_diff_wide::<N>(output_slots, good, buf, masks)
                {
                    hits.push((pos, prefix[k] + diff.trailing_zeros() as u64));
                }
            }
            shard.wall = shard_started.elapsed();
            vec![(hits, shard)]
        } else {
            let cursor = AtomicUsize::new(0);
            let cursor = &cursor;
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .faulty_wide_bufs
                    .iter_mut()
                    .map(|buf| {
                        s.spawn(move || {
                            let mut hits: Vec<(usize, u64)> = Vec::new();
                            let mut shard = ShardCounters::new();
                            let shard_started = Instant::now();
                            loop {
                                let start = cursor.fetch_add(STEAL_CHUNK, Ordering::Relaxed);
                                if start >= undetected.len() {
                                    break;
                                }
                                shard.add(CounterId::QueuePops, 1);
                                let end = (start + STEAL_CHUNK).min(undetected.len());
                                for pos in start..end {
                                    let fp = &patches[undetected[pos] as usize];
                                    let gate_evals = eval::eval_fault_wide::<N>(
                                        program, fallback, buf, chunks, fp,
                                    );
                                    shard.add(CounterId::GateEvals, gate_evals);
                                    shard.add(CounterId::FaultEvals, 1);
                                    shard.add(CounterId::PatchesApplied, fp.patch_count());
                                    if let Some((k, diff)) =
                                        eval::output_diff_wide::<N>(output_slots, good, buf, masks)
                                    {
                                        hits.push((pos, prefix[k] + diff.trailing_zeros() as u64));
                                    }
                                }
                            }
                            shard.wall = shard_started.elapsed();
                            (hits, shard)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fault-sim worker panicked"))
                    .collect()
            })
        };

        let root = self.rec.root();
        let mut newly = 0usize;
        for (shard_idx, (hits, shard)) in shard_results.into_iter().enumerate() {
            self.rec.attach_shard(root, shard_idx as u32, &shard);
            for (pos, offset) in hits {
                let fi = self.undetected[pos] as usize;
                debug_assert!(self.detection[fi].is_none());
                self.detection[fi] = Some(self.patterns_applied + offset);
                newly += 1;
            }
        }
        self.rec.add_to(root, CounterId::GateEvals, good_gate_evals);
        self.rec.add_to(root, CounterId::GoodEvals, 1);
        self.rec.add_to(
            root,
            CounterId::Blocks,
            applied.iter().filter(|&&l| l > 0).count() as u64,
        );
        self.rec.add_wall(root, started.elapsed());
        newly
    }

    /// Shared commit logic: erase boundary-crossing detections, count the
    /// surviving drops, compact the undetected work list, and advance the
    /// pattern counter.
    fn commit_wide(&mut self, boundary: u64) {
        let base = self.patterns_applied;
        debug_assert!(boundary >= base);
        let mut dropped = 0u64;
        for d in &mut self.detection {
            match *d {
                Some(p) if p >= boundary => *d = None,
                Some(p) if p >= base => dropped += 1,
                _ => {}
            }
        }
        let detection = &self.detection;
        self.undetected
            .retain(|&fi| detection[fi as usize].is_none());
        self.patterns_applied = boundary;
        let root = self.rec.root();
        self.rec
            .add_to(root, CounterId::PatternsConsumed, boundary - base);
        self.rec.add_to(root, CounterId::FaultsDropped, dropped);
    }
}

impl BlockSim for ParFaultSimulator<'_> {
    fn netlist(&self) -> &Netlist {
        self.netlist
    }

    fn apply_block(&mut self, input_words: &[u64], lanes: usize) -> usize {
        assert!((1..=64).contains(&lanes), "1..=64 lanes per block");
        assert_eq!(input_words.len(), self.netlist.input_width());
        let lane_mask: u64 = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
        let started = Instant::now();

        // Good machine once, shared read-only by every worker.
        let good_gate_evals = self.program.eval_good(&mut self.good, input_words);

        let program = &self.program;
        let fanout = &self.fanout;
        let fallback = self.fallback.as_ref();
        let patches = &self.patches;
        let undetected = &self.undetected;
        let good = &self.good;

        // Per-shard results: detection hits plus the shard's private
        // telemetry counters. Workers never touch the recorder — each
        // fills its own ShardCounters (plain u64 adds), and the owning
        // thread merges them lock-free after the scope joins.
        let shard_results: Vec<ShardResult> =
            if self.threads <= 1 || undetected.len() <= SERIAL_CUTOFF {
                // Inline path on shard 0 — same program, no spawning.
                let buf = &mut self.faulty_bufs[0];
                buf.sync(good);
                let mut hits = Vec::new();
                let mut shard = ShardCounters::new();
                let shard_started = Instant::now();
                for (pos, &fi) in undetected.iter().enumerate() {
                    let fp = &patches[fi as usize];
                    let (gate_evals, diff) =
                        eval::eval_fault(program, fanout, fallback, good, buf, input_words, fp);
                    shard.add(CounterId::GateEvals, gate_evals);
                    shard.add(CounterId::FaultEvals, 1);
                    shard.add(CounterId::PatchesApplied, fp.patch_count());
                    let diff = diff & lane_mask;
                    if diff != 0 {
                        hits.push((pos, diff.trailing_zeros() as u64));
                    }
                }
                shard.wall = shard_started.elapsed();
                vec![(hits, shard)]
            } else {
                let cursor = AtomicUsize::new(0);
                let cursor = &cursor;
                std::thread::scope(|s| {
                    let handles: Vec<_> = self
                        .faulty_bufs
                        .iter_mut()
                        .map(|buf| {
                            s.spawn(move || {
                                let mut hits: Vec<(usize, u64)> = Vec::new();
                                let mut shard = ShardCounters::new();
                                let shard_started = Instant::now();
                                buf.sync(good);
                                loop {
                                    let start = cursor.fetch_add(STEAL_CHUNK, Ordering::Relaxed);
                                    if start >= undetected.len() {
                                        break;
                                    }
                                    shard.add(CounterId::QueuePops, 1);
                                    let end = (start + STEAL_CHUNK).min(undetected.len());
                                    for pos in start..end {
                                        let fp = &patches[undetected[pos] as usize];
                                        let (gate_evals, diff) = eval::eval_fault(
                                            program,
                                            fanout,
                                            fallback,
                                            good,
                                            buf,
                                            input_words,
                                            fp,
                                        );
                                        shard.add(CounterId::GateEvals, gate_evals);
                                        shard.add(CounterId::FaultEvals, 1);
                                        shard.add(CounterId::PatchesApplied, fp.patch_count());
                                        let diff = diff & lane_mask;
                                        if diff != 0 {
                                            hits.push((pos, diff.trailing_zeros() as u64));
                                        }
                                    }
                                }
                                shard.wall = shard_started.elapsed();
                                (hits, shard)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("fault-sim worker panicked"))
                        .collect()
                })
            };

        // Deterministic merge: workers own disjoint positions, and each
        // hit's detection index depends only on (fault, block). Shard
        // counters merge into the root span plus one detail child per
        // shard index — the root totals are thread-count-independent.
        let root = self.rec.root();
        let mut newly = 0usize;
        for (shard_idx, (hits, shard)) in shard_results.into_iter().enumerate() {
            self.rec.attach_shard(root, shard_idx as u32, &shard);
            for (pos, lane) in hits {
                let fi = self.undetected[pos] as usize;
                debug_assert!(self.detection[fi].is_none());
                self.detection[fi] = Some(self.patterns_applied + lane);
                newly += 1;
            }
        }
        let detection = &self.detection;
        self.undetected
            .retain(|&fi| detection[fi as usize].is_none());

        self.patterns_applied += lanes as u64;
        self.rec.add_to(root, CounterId::GateEvals, good_gate_evals);
        self.rec.add_to(root, CounterId::GoodEvals, 1);
        self.rec.add_to(root, CounterId::Blocks, 1);
        self.rec
            .add_to(root, CounterId::PatternsConsumed, lanes as u64);
        self.rec
            .add_to(root, CounterId::FaultsDropped, newly as u64);
        self.rec.add_wall(root, started.elapsed());
        newly
    }

    fn detection(&self) -> &[Option<u64>] {
        &self.detection
    }

    fn patterns_applied(&self) -> u64 {
        self.patterns_applied
    }

    fn report(&self) -> FaultSimReport {
        FaultSimReport::from_parts(
            self.faults.clone(),
            self.detection.clone(),
            self.patterns_applied,
            SimStats::from_recorder(&self.rec, self.threads),
        )
    }

    fn lane_words(&self) -> usize {
        self.lane_words
    }

    fn apply_wide_block(&mut self, blocks: &[PatternBlock], applied: &[usize]) -> usize {
        match self.lane_words {
            4 => self.apply_wide::<4>(blocks, applied),
            8 => self.apply_wide::<8>(blocks, applied),
            _ => unreachable!("wide sweeps require with_lanes(256|512)"),
        }
    }

    fn commit_wide_block(&mut self, boundary: u64) {
        self.commit_wide(boundary);
    }
}

/// Convenience: serial and parallel runs of the same
/// [`PatternSource`](crate::source::PatternSource) stream, asserting (in
/// debug builds) that they agree — detection indices, pattern counts, and
/// the two sources'
/// [`state_digest`](crate::source::PatternSource::state_digest)s.
/// Returns the parallel report.
///
/// A source is stateful and consumed by its driver, so the caller
/// supplies a *factory* that builds identically-configured instances;
/// each engine drains its own copy and the digests prove the copies
/// emitted the same stream. Used by `tests/source_equivalence.rs` and
/// the corpus differential oracles, so fuzzing exercises every source
/// through both engines.
///
/// [`state_digest`]: crate::source::PatternSource::state_digest
pub fn run_source_checked<S: crate::source::PatternSource>(
    netlist: &Netlist,
    faults: &[Fault],
    mut make_source: impl FnMut() -> S,
    max_patterns: u64,
    threads: usize,
) -> FaultSimReport {
    let mut source_a = make_source();
    let serial =
        FaultSimulator::new(netlist, faults.to_vec()).run_source(&mut source_a, max_patterns);
    let mut source_b = make_source();
    let par = ParFaultSimulator::with_threads(netlist, faults.to_vec(), threads)
        .run_source(&mut source_b, max_patterns);
    debug_assert_eq!(serial.detection(), par.detection());
    debug_assert_eq!(serial.patterns_applied(), par.patterns_applied());
    debug_assert_eq!(source_a.state_digest(), source_b.state_digest());
    par
}

/// [`run_source_checked`] over the legacy random stream: draws one seed
/// from `seed_stream` and cross-checks a seeded
/// [`RandomWords`](crate::source::RandomWords) source through both
/// engines (the words drawn are bit-identical to the pre-source
/// `run_random` drivers'). Returns the parallel report.
pub fn run_random_checked(
    netlist: &Netlist,
    faults: &[Fault],
    seed_stream: &mut impl rand::Rng,
    max_patterns: u64,
    threads: usize,
) -> FaultSimReport {
    // Both engines must see identical RNG words; a generic Rng cannot be
    // cloned, so draw a seed and derive two identical child sources.
    let seed: u64 = seed_stream.gen();
    run_source_checked(
        netlist,
        faults,
        || crate::source::RandomWords::seeded(seed),
        max_patterns,
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use bibs_netlist::builder::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn parallel_matches_serial_exhaustive() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        let serial = FaultSimulator::new(&nl, faults.clone()).run_exhaustive();
        for threads in [1, 2, 4] {
            let par =
                ParFaultSimulator::with_threads(&nl, faults.clone(), threads).run_exhaustive();
            assert_eq!(serial.detection(), par.detection());
            assert_eq!(serial.patterns_applied(), par.patterns_applied());
        }
    }

    #[test]
    fn parallel_matches_serial_random_stream() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        let mut rng = StdRng::seed_from_u64(7);
        let serial = FaultSimulator::new(&nl, faults.clone()).run_random(&mut rng, 10_000);
        let mut rng = StdRng::seed_from_u64(7);
        let par = ParFaultSimulator::with_threads(&nl, faults, 3).run_random(&mut rng, 10_000);
        assert_eq!(serial.detection(), par.detection());
        assert_eq!(serial.patterns_applied(), par.patterns_applied());
    }

    #[test]
    fn stats_account_every_shard() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        let mut sim = ParFaultSimulator::with_threads(&nl, faults, 4);
        let report = sim.run_exhaustive();
        let stats = report.stats();
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.per_shard_fault_evals.len(), 4);
        assert_eq!(
            stats.per_shard_fault_evals.iter().sum::<u64>(),
            stats.fault_evals
        );
        assert_eq!(stats.faults_dropped, report.detected_count() as u64);
    }

    #[test]
    fn optimized_engines_match_default_report() {
        use bibs_netlist::GateKind;
        // Redundancy on purpose: a buffer chain, a duplicated cone and an
        // inverter the optimizer will fuse — so the rewrite is non-trivial.
        let mut b = NetlistBuilder::new("redundant");
        let a = b.input_word("a", 3);
        let c = b.input_word("b", 3);
        let (s, co) = b.ripple_carry_adder(&a, &c, None);
        let mut buf = s[0];
        for _ in 0..3 {
            buf = b.gate(GateKind::Buf, &[buf]);
        }
        let d1 = b.and2(a[1], c[1]);
        let d2 = b.and2(c[1], a[1]);
        let n = b.not(d1);
        b.output("y0", buf);
        b.output("y1", d2);
        b.output("y2", n);
        b.output("co", co);
        let nl = b.finish().unwrap();

        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        let program = EvalProgram::compile(&nl).unwrap();
        let opt = bibs_netlist::opt::optimize(&nl, &program).unwrap();
        assert!(
            opt.stats().instrs_saved() > 0,
            "rewrite should be non-trivial"
        );

        let base = FaultSimulator::new(&nl, faults.clone()).run_exhaustive();
        let serial = FaultSimulator::with_optimized(&nl, &opt, faults.clone()).run_exhaustive();
        assert_eq!(base.detection(), serial.detection());
        assert_eq!(base.patterns_applied(), serial.patterns_applied());
        for threads in [1, 3] {
            let par = ParFaultSimulator::with_optimized(&nl, &opt, faults.clone(), threads)
                .run_exhaustive();
            assert_eq!(base.detection(), par.detection());
            assert_eq!(base.patterns_applied(), par.patterns_applied());
        }
    }

    #[test]
    fn run_random_checked_self_checks() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        let mut rng = StdRng::seed_from_u64(11);
        let report = run_random_checked(&nl, &faults, &mut rng, 50_000, 2);
        assert_eq!(report.undetected().len(), 0);
    }

    #[test]
    fn jobs_parse_table() {
        // Pure-function coverage of the BIBS_JOBS parse rules; no
        // process-environment mutation (set_var/remove_var from a
        // multi-threaded test harness races other tests reading env).
        assert_eq!(default_jobs_from(Some("3")), 3);
        assert_eq!(default_jobs_from(Some(" 4 ")), 4);
        assert_eq!(default_jobs_from(Some("1")), 1);
        // Unset / garbage / zero / empty all fall back to a positive count.
        assert!(default_jobs_from(None) >= 1);
        assert!(default_jobs_from(Some("not-a-number")) >= 1);
        assert!(default_jobs_from(Some("0")) >= 1);
        assert!(default_jobs_from(Some("")) >= 1);
        assert!(default_jobs_from(Some("-2")) >= 1);
        // The fallback is the same for every non-positive spelling.
        let fallback = default_jobs_from(None);
        assert_eq!(default_jobs_from(Some("0")), fallback);
        assert_eq!(default_jobs_from(Some("garbage")), fallback);
    }

    /// End-to-end check that [`default_jobs`] really reads `BIBS_JOBS`.
    /// Ignored by default: it mutates the process environment, which is
    /// only safe when no other test thread is running. Run explicitly with
    /// `cargo test -p bibs-faultsim -- --ignored --test-threads=1`.
    #[test]
    #[ignore = "mutates process env; run single-threaded via --ignored --test-threads=1"]
    fn jobs_env_integration() {
        std::env::set_var("BIBS_JOBS", "3");
        assert_eq!(default_jobs(), 3);
        std::env::remove_var("BIBS_JOBS");
        assert!(default_jobs() >= 1);
    }
}
