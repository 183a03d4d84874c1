//! The fault-simulation engine: parallel-pattern single-fault propagation
//! with fault dropping, sharded across worker threads.
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
//! With one thread (or a short undetected list) step 2 runs inline on the
//! calling thread as a single shard — `with_threads(nl, faults, 1)` is
//! the serial engine.
//!
//! # Determinism
//!
//! The report is **bit-identical** for any thread count, because:
//!
//! * the pattern stream is formed by the shared [`BlockSim`] drivers, so
//!   every configuration draws the same RNG words and schedules the same
//!   blocks;
//! * per-fault detection is a pure function of `(program, block, patch)`
//!   — one immutable [`EvalProgram`] is shared
//!   by every worker, so *which* worker evaluates a fault cannot change
//!   the answer;
//! * workers touch disjoint positions of the undetected list, so merging
//!   their hit lists is order-independent: fault *i*'s first-detection
//!   index is `patterns_applied + trailing_zeros(diff)` regardless of
//!   join order;
//! * fault dropping is block-granular (a fault detected in block *b* is
//!   still evaluated by nobody else in block *b* and by no one in block
//!   *b+1*).
//!
//! Work stealing only redistributes *throughput* between shards (visible
//! in [`SimStats::per_shard_fault_evals`]); it never changes the report.
//! `tests/par_equivalence.rs` pins this across circuits, seeds and thread
//! counts, and `tests/compiled_equivalence.rs` pins the one-thread report
//! against the reference interpreter.

use crate::eval;
use crate::fault::Fault;
use crate::sim::{BlockSim, FaultSimReport, SimError};
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

/// One worker shard's outcome for a block or sweep: detection hits as
/// `(undetected-list position, pattern offset of the first detection)`
/// plus the shard's private telemetry counters (fault/gate evals, queue
/// pops, wall time).
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

/// The fault simulator bound to one (combinational) netlist and one fault
/// list, running on the compiled [`EvalProgram`].
///
/// Construction compiles the netlist once (or adopts a caller-supplied
/// program via [`ParFaultSimulator::with_program`], or a validated
/// optimizer rewrite via [`ParFaultSimulator::with_optimized`]) and
/// pre-compiles every fault to its patch-point(s). Patterns are applied in
/// blocks of up to 64 (one per `u64` lane); detected faults are dropped
/// from subsequent blocks, and the per-fault first-detection pattern index
/// is recorded so coverage-vs-pattern-count curves (the paper's Table 2
/// rows 5–8) can be reconstructed exactly. Reports are bit-identical to
/// the seed interpreter's ([`crate::reference::ReferenceSimulator`]).
///
/// Construct with [`ParFaultSimulator::new`] (thread count from
/// [`default_jobs`]) or [`ParFaultSimulator::with_threads`], then drive it
/// through the [`BlockSim`] trait:
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
    /// Creates a simulator with [`default_jobs`] worker threads.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential (run on the combinational
    /// equivalent — see the crate docs) or combinationally cyclic, or if
    /// the fault list exceeds `u32::MAX` entries.
    pub fn new(netlist: &'a Netlist, faults: Vec<Fault>) -> Self {
        Self::with_threads(netlist, faults, default_jobs())
    }

    /// Creates a simulator with an explicit worker-thread count (clamped
    /// to at least 1). `with_threads(nl, faults, 1)` is the serial engine:
    /// every block runs inline on the calling thread.
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

    /// Creates a simulator around an already-compiled program for the
    /// same netlist, so callers running many sessions on one circuit pay
    /// the compile cost once.
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

    /// Reconfigures the engine for wide sweeps: `lanes` is 64 (the scalar
    /// default), 256, or 512 — 1, 4, or 8 words of 64 patterns per
    /// good-machine evaluation. The stream drivers then evaluate the good
    /// machine once per wide sweep and batch every live fault against it
    /// (PPSFP); reports stay bit-identical across lane widths *and*
    /// thread counts (`tests/lanes_equivalence.rs`). Widening records the
    /// `lanes` telemetry counter; 64 leaves the scalar path — and its
    /// telemetry — untouched.
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

    /// Creates a simulator whose good machine runs the **optimized**
    /// program of a validated [`OptimizedProgram`], while the fault list
    /// stays defined on the original netlist.
    ///
    /// Each fault's patch is compiled against the original program, then
    /// remapped through the rewrite
    /// ([`OptimizedProgram::remap_patch`]); faults the rewrite cannot
    /// express faithfully fall back to evaluating the original program
    /// (sound because the two are equivalence-proven). Reports are
    /// **bit-identical** to the unoptimized engine's for any thread count
    /// — pinned by `tests/opt_equivalence.rs`.
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

    /// Fallible [`ParFaultSimulator::with_optimized`]: validates that every
    /// unmapped (`Fallback`) fault has the original program to evaluate
    /// on, surfacing a violation as a typed [`SimError`] instead of a
    /// mid-run abort.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MissingFallback`] if an unmapped fault has no
    /// fallback program — unreachable through this constructor today (it
    /// always retains the original program) but kept as the single
    /// validation point should fallback retention ever become optional.
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
    /// then every undetected fault batched against it exactly like the
    /// scalar [`BlockSim::apply_block`], each hit carrying its pattern
    /// *offset* (`sub-block prefix + lane`) within the sweep. The
    /// undetected list is compacted later by the commit (the driver may
    /// still erase boundary-crossing hits).
    fn apply_wide<const N: usize>(&mut self, blocks: &[PatternBlock], applied: &[usize]) -> usize {
        let started = Instant::now();
        let (chunks, masks, prefix) = pack_wide::<N>(blocks, applied, self.netlist.input_width());
        let good_gate_evals = self
            .program
            .eval_good_wide::<N>(&mut self.good_wide, &chunks);

        let (program, fallback, good) = (&self.program, self.fallback.as_ref(), &self.good_wide);
        let shard_results = simulate_faults(
            &mut self.faulty_wide_bufs,
            &self.undetected,
            &self.patches,
            |_| {},
            |buf, fp| {
                let gate_evals = eval::eval_fault_wide::<N>(program, fallback, buf, &chunks, fp);
                let hit = eval::output_diff_wide::<N>(program.output_slots(), good, buf, &masks)
                    .map(|(k, diff)| prefix[k] + diff.trailing_zeros() as u64);
                (gate_evals, hit)
            },
        );
        let newly = self.merge_hits(shard_results);
        let blocks = applied.iter().filter(|&&l| l > 0).count() as u64;
        self.record_good(good_gate_evals, blocks, started);
        newly
    }

    /// Deterministic merge: workers own disjoint positions of the
    /// undetected list, and each hit's detection index depends only on
    /// (fault, block). Shard counters merge into the root span plus one
    /// detail child per shard index — the root totals are
    /// thread-count-independent. Returns the number of newly detected
    /// faults.
    fn merge_hits(&mut self, shard_results: Vec<ShardResult>) -> usize {
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
        newly
    }

    /// Drops the detected faults from the work list and advances the
    /// pattern counter to `boundary`, recording the patterns consumed and
    /// the `dropped` faults.
    fn commit(&mut self, boundary: u64, dropped: u64) {
        let detection = &self.detection;
        self.undetected
            .retain(|&fi| detection[fi as usize].is_none());
        let root = self.rec.root();
        self.rec.add_to(
            root,
            CounterId::PatternsConsumed,
            boundary - self.patterns_applied,
        );
        self.rec.add_to(root, CounterId::FaultsDropped, dropped);
        self.patterns_applied = boundary;
    }

    /// Records one good-machine evaluation covering `blocks` 64-lane
    /// blocks, and the wall time since `started`.
    fn record_good(&mut self, gate_evals: u64, blocks: u64, started: Instant) {
        let root = self.rec.root();
        self.rec.add_to(root, CounterId::GateEvals, gate_evals);
        self.rec.add_to(root, CounterId::GoodEvals, 1);
        self.rec.add_to(root, CounterId::Blocks, blocks);
        self.rec.add_wall(root, started.elapsed());
    }
}

/// Evaluates every fault of `undetected` against the current good
/// machine and returns one [`ShardResult`] per shard that ran.
///
/// With one buffer, or at most [`SERIAL_CUTOFF`] faults, the single shard
/// runs inline on the calling thread; otherwise every buffer gets a scoped
/// worker and the workers steal from one shared cursor. `prepare` readies
/// a shard's buffer for the block before its first fault; `eval` evaluates
/// one fault on it (see [`run_shard`]).
fn simulate_faults<B: Send>(
    bufs: &mut [B],
    undetected: &[u32],
    patches: &[eval::FaultPatch],
    prepare: impl Fn(&mut B) + Sync,
    eval: impl Fn(&mut B, &eval::FaultPatch) -> (u64, Option<u64>) + Sync,
) -> Vec<ShardResult> {
    let cursor = AtomicUsize::new(0);
    if bufs.len() <= 1 || undetected.len() <= SERIAL_CUTOFF {
        prepare(&mut bufs[0]);
        return vec![run_shard(&mut bufs[0], undetected, patches, &cursor, &eval)];
    }
    let (cursor, prepare, eval) = (&cursor, &prepare, &eval);
    std::thread::scope(|s| {
        let handles: Vec<_> = bufs
            .iter_mut()
            .map(|buf| {
                s.spawn(move || {
                    prepare(buf);
                    run_shard(buf, undetected, patches, cursor, eval)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fault-sim worker panicked"))
            .collect()
    })
}

/// One shard's pass over the undetected list: steals [`STEAL_CHUNK`]-sized
/// runs of positions off `cursor` until the list is exhausted and
/// evaluates each fault with `eval` on the shard's private faulty buffer.
/// `eval` returns the instructions evaluated and, for a detected fault,
/// the pattern offset of its first detection within the block or sweep.
/// The shard counts into a private [`ShardCounters`] (plain `u64` adds, no
/// span-stack lookups) that the owning thread attaches afterwards.
fn run_shard<B>(
    buf: &mut B,
    undetected: &[u32],
    patches: &[eval::FaultPatch],
    cursor: &AtomicUsize,
    eval: &impl Fn(&mut B, &eval::FaultPatch) -> (u64, Option<u64>),
) -> ShardResult {
    let mut hits = Vec::new();
    let mut shard = ShardCounters::new();
    let started = Instant::now();
    loop {
        let start = cursor.fetch_add(STEAL_CHUNK, Ordering::Relaxed);
        if start >= undetected.len() {
            break;
        }
        shard.add(CounterId::QueuePops, 1);
        let end = (start + STEAL_CHUNK).min(undetected.len());
        for (pos, &fi) in (start..end).zip(&undetected[start..end]) {
            let fp = &patches[fi as usize];
            let (gate_evals, hit) = eval(buf, fp);
            shard.add(CounterId::GateEvals, gate_evals);
            shard.add(CounterId::FaultEvals, 1);
            shard.add(CounterId::PatchesApplied, fp.patch_count());
            if let Some(offset) = hit {
                hits.push((pos, offset));
            }
        }
    }
    shard.wall = started.elapsed();
    (hits, shard)
}

/// Packs a wide sweep's inputs for the compiled kernels: the
/// chunk-contiguous input layout (`chunks[i * N + k]` = word `k` of input
/// `i`), the per-sub-word valid-lane masks, and the per-sub-word pattern
/// offsets (prefix sums of applied lanes).
fn pack_wide<const N: usize>(
    blocks: &[PatternBlock],
    applied: &[usize],
    width: usize,
) -> (Vec<u64>, [u64; N], [u64; N]) {
    debug_assert!(blocks.len() <= N && blocks.len() == applied.len());
    let mut chunks = vec![0u64; width * N];
    let mut masks = [0u64; N];
    let mut prefix = [0u64; N];
    for (k, b) in blocks.iter().enumerate() {
        debug_assert_eq!(b.words.len(), width);
        for (i, &w) in b.words.iter().enumerate() {
            chunks[i * N + k] = w;
        }
        masks[k] = match applied[k] {
            0 => 0,
            64 => !0,
            l => (1u64 << l) - 1,
        };
        if k + 1 < N {
            prefix[k + 1] = prefix[k] + applied[k] as u64;
        }
    }
    (chunks, masks, prefix)
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

        // Good machine once, shared read-only by every worker; each
        // worker's faulty machine starts from it and evaluates only what
        // each fault changes.
        let good_gate_evals = self.program.eval_good(&mut self.good, input_words);

        let (program, fanout, fallback, good) = (
            &self.program,
            &self.fanout,
            self.fallback.as_ref(),
            &self.good,
        );
        let shard_results = simulate_faults(
            &mut self.faulty_bufs,
            &self.undetected,
            &self.patches,
            |buf| buf.sync(good),
            |buf, fp| {
                let (gate_evals, diff) =
                    eval::eval_fault(program, fanout, fallback, good, buf, input_words, fp);
                let diff = diff & lane_mask;
                (
                    gate_evals,
                    (diff != 0).then(|| diff.trailing_zeros() as u64),
                )
            },
        );
        let newly = self.merge_hits(shard_results);
        self.commit(self.patterns_applied + lanes as u64, newly as u64);
        self.record_good(good_gate_evals, 1, started);
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

    /// Erases detections at or past `boundary`, counts the surviving
    /// drops, compacts the undetected work list, and advances the pattern
    /// counter.
    fn commit_wide_block(&mut self, boundary: u64) {
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
        self.commit(boundary, dropped);
    }
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
        let serial = ParFaultSimulator::with_threads(&nl, faults.clone(), 1).run_exhaustive();
        for threads in [2, 4] {
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
        let serial =
            ParFaultSimulator::with_threads(&nl, faults.clone(), 1).run_random(&mut rng, 10_000);
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

        let base = ParFaultSimulator::with_threads(&nl, faults.clone(), 1).run_exhaustive();
        for threads in [1, 3] {
            let par = ParFaultSimulator::with_optimized(&nl, &opt, faults.clone(), threads)
                .run_exhaustive();
            assert_eq!(base.detection(), par.detection());
            assert_eq!(base.patterns_applied(), par.patterns_applied());
        }
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
