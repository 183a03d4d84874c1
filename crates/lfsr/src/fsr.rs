//! Feedback shift registers: type-1 (external XOR), type-2 (internal XOR),
//! the complete (de Bruijn) variant, and plain shift registers.
//!
//! The paper's TPG construction (Section 4) relies on a property specific to
//! **type-1** LFSRs: *"the data present in the i-th stage of L at time t is
//! the same as the data present in the (i−1)-st stage of L at time t−1 for
//! i > 1"*. Stages here are numbered 1..=n with stage 1 the most significant
//! bit; internally stage *i* is bit *i−1* of a [`BitVec`].

use crate::bitvec::BitVec;
use crate::poly::Polynomial;

/// LFSR feedback structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LfsrKind {
    /// External-XOR (Fibonacci) LFSR: stages form a pure shift register;
    /// the feedback XOR sits outside the shift path. This is the kind the
    /// paper's TPG requires.
    Type1,
    /// Internal-XOR (Galois) LFSR: XOR gates sit *between* stages, so the
    /// shift property is broken at tapped stages. Provided for the ablation
    /// showing why SC_TPG needs type 1.
    Type2,
}

/// A linear feedback shift register of arbitrary width.
///
/// # Example
///
/// ```
/// use bibs_lfsr::fsr::{Lfsr, LfsrKind};
/// use bibs_lfsr::poly::primitive_polynomial;
///
/// let p = primitive_polynomial(3).expect("in table");
/// let mut l = Lfsr::with_seed_u64(&p, LfsrKind::Type1, 0b001);
/// let states: Vec<u64> = (0..7).map(|_| { let s = l.state_u64(); l.step(); s }).collect();
/// let unique: std::collections::HashSet<_> = states.iter().collect();
/// assert_eq!(unique.len(), 7); // maximal period 2^3 - 1
/// ```
#[derive(Debug, Clone)]
pub struct Lfsr {
    kind: LfsrKind,
    poly: Polynomial,
    /// Stage tap mask for type 1 (bit *i* set ⇒ stage *i+1* is tapped);
    /// coefficient mask (without the leading term) for type 2.
    mask: BitVec,
    state: BitVec,
}

impl Lfsr {
    /// Creates an LFSR from a characteristic polynomial, seeded with the
    /// state `00…01` (only the last stage set).
    ///
    /// # Panics
    ///
    /// Panics if the polynomial's constant coefficient is absent (such a
    /// polynomial is divisible by `x` and cannot be a proper LFSR
    /// characteristic polynomial).
    pub fn new(poly: &Polynomial, kind: LfsrKind) -> Self {
        assert!(
            poly.exponents().contains(&0),
            "characteristic polynomial must have a nonzero constant term"
        );
        let n = poly.degree() as usize;
        let mut mask = BitVec::zeros(n);
        match kind {
            LfsrKind::Type1 => {
                for t in poly.tap_stages() {
                    mask.set(t as usize - 1, true);
                }
            }
            LfsrKind::Type2 => {
                for &e in poly.exponents() {
                    if (e as usize) < n {
                        mask.set(e as usize, true);
                    }
                }
            }
        }
        let mut state = BitVec::zeros(n);
        state.set(n - 1, true);
        Lfsr {
            kind,
            poly: poly.clone(),
            mask,
            state,
        }
    }

    /// Creates an LFSR seeded from the low bits of `seed` (bit *i* of the
    /// seed is stage *i+1*).
    ///
    /// # Panics
    ///
    /// Panics if the degree exceeds 64 or the seed is zero (an LFSR seeded
    /// all-zero is stuck; use [`CompleteLfsr`] if the all-0 state is
    /// needed).
    pub fn with_seed_u64(poly: &Polynomial, kind: LfsrKind, seed: u64) -> Self {
        assert!(poly.degree() <= 64, "u64 seed requires degree ≤ 64");
        assert!(seed != 0, "LFSR seed must be nonzero");
        let mut l = Lfsr::new(poly, kind);
        l.state = BitVec::from_u64(seed, poly.degree() as usize);
        l
    }

    /// Creates an LFSR with an explicit seed state.
    ///
    /// # Panics
    ///
    /// Panics if the seed length differs from the degree or the seed is all
    /// zeros.
    pub fn with_seed(poly: &Polynomial, kind: LfsrKind, seed: BitVec) -> Self {
        assert_eq!(
            seed.len(),
            poly.degree() as usize,
            "seed width must equal the LFSR degree"
        );
        assert!(!seed.is_zero(), "LFSR seed must be nonzero");
        let mut l = Lfsr::new(poly, kind);
        l.state = seed;
        l
    }

    /// The number of stages.
    pub fn width(&self) -> usize {
        self.state.len()
    }

    /// The feedback structure.
    pub fn kind(&self) -> LfsrKind {
        self.kind
    }

    /// The characteristic polynomial.
    pub fn polynomial(&self) -> &Polynomial {
        &self.poly
    }

    /// The current state; stage *i* (1-indexed) is bit *i−1*.
    pub fn state(&self) -> &BitVec {
        &self.state
    }

    /// The current state packed into a `u64` (stage *i* at bit *i−1*).
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 64.
    pub fn state_u64(&self) -> u64 {
        assert!(self.width() <= 64);
        self.state.to_u64()
    }

    /// Reads stage `i` (1-indexed).
    ///
    /// # Panics
    ///
    /// Panics if `i` is 0 or exceeds the width.
    pub fn stage(&self, i: usize) -> bool {
        assert!(i >= 1 && i <= self.width(), "stage index out of range");
        self.state.get(i - 1)
    }

    /// Advances one clock cycle.
    pub fn step(&mut self) {
        match self.kind {
            LfsrKind::Type1 => {
                let fb = self.state.masked_parity(&self.mask);
                self.state.shift_up(fb);
            }
            LfsrKind::Type2 => {
                // Multiply-by-x in GF(2)[x]/p: shift, and on overflow of the
                // top coefficient, XOR the polynomial's low terms back in.
                let out = self.state.shift_up(false);
                if out {
                    let n = self.width();
                    for i in 0..n {
                        if self.mask.get(i) {
                            let v = self.state.get(i);
                            self.state.set(i, !v);
                        }
                    }
                }
            }
        }
    }

    /// Runs the LFSR until the state recurs, returning the period.
    ///
    /// Intended for verification of small LFSRs; the period of a maximal
    /// degree-*n* LFSR is `2^n − 1`, so keep *n* modest.
    pub fn period(&self) -> u64 {
        let mut probe = self.clone();
        let start = probe.state.clone();
        let mut count = 0u64;
        loop {
            probe.step();
            count += 1;
            if probe.state == start {
                return count;
            }
        }
    }
}

/// Iterator over successive LFSR states.
impl Iterator for Lfsr {
    type Item = BitVec;

    fn next(&mut self) -> Option<BitVec> {
        let s = self.state.clone();
        self.step();
        Some(s)
    }
}

/// A complete feedback shift register (Wang–McCluskey, ref \[15\] of the
/// paper): a type-1 LFSR modified with a NOR term so the cycle includes the
/// all-0 state, giving period `2^n` instead of `2^n − 1`.
///
/// The paper uses this to supply the all-0 pattern that functionally
/// exhaustive testing otherwise misses.
///
/// # Example
///
/// ```
/// use bibs_lfsr::fsr::CompleteLfsr;
/// use bibs_lfsr::poly::primitive_polynomial;
///
/// let p = primitive_polynomial(4).expect("in table");
/// let mut l = CompleteLfsr::new(&p);
/// let mut states = std::collections::HashSet::new();
/// for _ in 0..16 {
///     states.insert(l.state_u64());
///     l.step();
/// }
/// assert_eq!(states.len(), 16); // all 2^4 states, including 0
/// ```
#[derive(Debug, Clone)]
pub struct CompleteLfsr {
    inner: Lfsr,
}

impl CompleteLfsr {
    /// Creates a complete LFSR from a primitive characteristic polynomial,
    /// seeded with `00…01`.
    pub fn new(poly: &Polynomial) -> Self {
        CompleteLfsr {
            inner: Lfsr::new(poly, LfsrKind::Type1),
        }
    }

    /// The number of stages.
    pub fn width(&self) -> usize {
        self.inner.width()
    }

    /// The current state.
    pub fn state(&self) -> &BitVec {
        self.inner.state()
    }

    /// The current state packed into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 64.
    pub fn state_u64(&self) -> u64 {
        self.inner.state_u64()
    }

    /// Advances one clock cycle.
    ///
    /// The feedback is the normal type-1 feedback XORed with the NOR of
    /// stages `1..n−1`; this splices the all-0 state into the maximal cycle
    /// between `00…01` and `10…00`.
    pub fn step(&mut self) {
        let n = self.inner.width();
        let head_zero = (0..n - 1).all(|i| !self.inner.state.get(i));
        let fb = self.inner.state.masked_parity(&self.inner.mask) ^ head_zero;
        self.inner.state.shift_up(fb);
    }

    /// Runs until the state recurs, returning the period (`2^n` for a
    /// primitive polynomial).
    pub fn period(&self) -> u64 {
        let mut probe = self.clone();
        let start = probe.state().clone();
        let mut count = 0u64;
        loop {
            probe.step();
            count += 1;
            if probe.state() == &start {
                return count;
            }
        }
    }
}

/// A plain shift register: the extra flip-flops SC_TPG/MC_TPG splice in
/// front of input registers to compensate sequential-length imbalance.
///
/// Data shifts from the input toward higher indices; the output is the last
/// stage.
#[derive(Debug, Clone, Default)]
pub struct ShiftRegister {
    state: BitVec,
}

impl ShiftRegister {
    /// Creates an all-zero shift register with `len` stages.
    pub fn new(len: usize) -> Self {
        ShiftRegister {
            state: BitVec::zeros(len),
        }
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether the register has zero stages.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// The last stage's current value (the register output).
    ///
    /// # Panics
    ///
    /// Panics if the register has zero stages.
    pub fn output(&self) -> bool {
        self.state.get(self.state.len() - 1)
    }

    /// Shifts one position, inserting `input` at stage 0 and returning the
    /// bit shifted out of the last stage.
    pub fn shift(&mut self, input: bool) -> bool {
        self.state.shift_up(input)
    }

    /// Reads stage `i` (0-indexed).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn stage(&self, i: usize) -> bool {
        self.state.get(i)
    }
}

/// Word-parallel outputs of a type-1 LFSR string, 64 clocks at a time.
///
/// In a type-1 LFSR, stage `k` at time `t` carries `s1(t − (k − 1))`,
/// the stage-1 stream delayed `k − 1` clocks, and a plain shift-register
/// extension clocked after the last stage continues the same stream. Any
/// flip-flop of such a string — the paper's TPG, or the low stages of a
/// plain LFSR — is therefore a *delay* `d` of one sequence, and `n`
/// consecutive clocks of it are the window `s1[t − d .. t − d + n)`.
///
/// The kernel advances `s1` one bit per clock in a `u64` state, writes
/// the bits into a packed buffer holding the last `max(d) + 64` values,
/// and extracts each output word with a two-word shift — instead of
/// stepping a bit vector and reading every output once per pattern.
///
/// # Example
///
/// ```
/// use bibs_lfsr::fsr::{DelayedWindows, Lfsr, LfsrKind};
/// use bibs_lfsr::poly::primitive_polynomial;
///
/// let p = primitive_polynomial(5).expect("in table");
/// let mut lfsr = Lfsr::new(&p, LfsrKind::Type1);
/// // Outputs: stages 1 and 3.
/// let mut win = DelayedWindows::new(&lfsr, vec![0, 2]);
/// let words = win.next_words(64);
/// for lane in 0..64 {
///     assert_eq!(words[0] >> lane & 1 == 1, lfsr.stage(1));
///     assert_eq!(words[1] >> lane & 1 == 1, lfsr.stage(3));
///     lfsr.step();
/// }
/// ```
#[derive(Debug, Clone)]
pub struct DelayedWindows {
    /// Type-1 tap mask (bit `i` set ⇒ stage `i+1` feeds back).
    taps: u64,
    /// Stage `k` at bit `k−1`: `s1(t), s1(t−1), …, s1(t−degree+1)`. Bits
    /// past the last stage are never tapped or read.
    state: u64,
    delays: Vec<usize>,
    max_delay: usize,
    /// Bit `j` is `s1(t − max_delay + j)` for `j < max_delay`; every bit
    /// from `max_delay` up is zero between calls.
    window: Vec<u64>,
}

impl DelayedWindows {
    /// Starts at the LFSR's current state. Output `i` is the stage-1
    /// stream delayed `delays[i]` clocks; delays past the last stage
    /// read a shift-register extension that starts all-zero, as after
    /// reset.
    ///
    /// # Panics
    ///
    /// Panics if the LFSR is not type 1, or wider than 64 stages.
    pub fn new(lfsr: &Lfsr, delays: Vec<usize>) -> Self {
        assert_eq!(lfsr.kind(), LfsrKind::Type1, "delayed windows need type 1");
        let degree = lfsr.width();
        assert!(degree <= 64, "delayed windows need degree ≤ 64");
        let state = lfsr.state_u64();
        let max_delay = delays.iter().copied().max().unwrap_or(0);
        let mut window = vec![0u64; max_delay / 64 + 2];
        for d in 1..=max_delay.min(degree - 1) {
            if state >> d & 1 == 1 {
                let j = max_delay - d;
                window[j / 64] |= 1 << (j % 64);
            }
        }
        DelayedWindows {
            taps: lfsr.mask.to_u64(),
            state,
            delays,
            max_delay,
            window,
        }
    }

    /// Advances `clocks` cycles without emitting.
    pub fn advance(&mut self, mut clocks: u64) {
        while clocks > 0 {
            let n = clocks.min(64) as usize;
            self.push(n);
            self.drop_front(n);
            clocks -= n as u64;
        }
    }

    /// Emits the next `lanes` clocks of every output and advances that
    /// many clocks: word `i` carries output `i`, lane `l` its value `l`
    /// clocks from now; lanes from `lanes` up are zero.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds 64.
    pub fn next_words(&mut self, lanes: usize) -> Vec<u64> {
        assert!(lanes <= 64, "at most 64 lanes per block");
        self.push(lanes);
        let live = u64::MAX.checked_shr(64 - lanes as u32).unwrap_or(0);
        let words = self
            .delays
            .iter()
            .map(|&d| self.read(self.max_delay - d) & live)
            .collect();
        self.drop_front(lanes);
        words
    }

    /// Clocks the LFSR `n ≤ 64` times, appending `s1(t) … s1(t+n−1)` at
    /// bit `max_delay` of the window.
    fn push(&mut self, n: usize) {
        let mut fresh = 0u64;
        for lane in 0..n {
            fresh |= (self.state & 1) << lane;
            let fb = u64::from((self.state & self.taps).count_ones() & 1);
            self.state = self.state << 1 | fb;
        }
        let (w, b) = (self.max_delay / 64, self.max_delay % 64);
        let placed = u128::from(fresh) << b;
        self.window[w] |= placed as u64;
        self.window[w + 1] |= (placed >> 64) as u64;
    }

    /// The 64 window bits starting at bit `at`.
    fn read(&self, at: usize) -> u64 {
        let w = at / 64;
        funnel(self.window[w], self.window[w + 1], at % 64)
    }

    /// Discards the oldest `n ≤ 64` window bits.
    fn drop_front(&mut self, n: usize) {
        let last = self.window.len() - 1;
        for w in 0..last {
            self.window[w] = funnel(self.window[w], self.window[w + 1], n);
        }
        self.window[last] = funnel(self.window[last], 0, n);
    }
}

/// Bits `shift .. shift + 64` of the 128-bit value `hi:lo`, for
/// `shift ≤ 64`.
fn funnel(lo: u64, hi: u64, shift: usize) -> u64 {
    ((u128::from(hi) << 64 | u128::from(lo)) >> shift) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::primitive_polynomial;

    #[test]
    fn type1_is_maximal_for_primitive_polys() {
        for degree in [2u32, 3, 4, 5, 7, 8, 12] {
            let p = primitive_polynomial(degree).unwrap();
            let l = Lfsr::new(&p, LfsrKind::Type1);
            assert_eq!(
                l.period(),
                (1u64 << degree) - 1,
                "degree {degree} type-1 LFSR must be maximal"
            );
        }
    }

    #[test]
    fn type2_is_maximal_for_primitive_polys() {
        for degree in [3u32, 4, 8, 12] {
            let p = primitive_polynomial(degree).unwrap();
            let l = Lfsr::new(&p, LfsrKind::Type2);
            assert_eq!(
                l.period(),
                (1u64 << degree) - 1,
                "degree {degree} type-2 LFSR must be maximal"
            );
        }
    }

    #[test]
    fn type1_has_the_paper_shift_property() {
        // "stage i at time t equals stage i-1 at time t-1, for i > 1"
        let p = primitive_polynomial(8).unwrap();
        let mut l = Lfsr::new(&p, LfsrKind::Type1);
        let mut prev = l.state().clone();
        for _ in 0..100 {
            l.step();
            for i in 2..=l.width() {
                assert_eq!(l.stage(i), prev.get(i - 2), "shift property at stage {i}");
            }
            prev = l.state().clone();
        }
    }

    #[test]
    fn type2_breaks_the_shift_property() {
        // With interior taps, some stage pair must violate the property at
        // some time step — this is why SC_TPG demands type 1.
        let p = primitive_polynomial(8).unwrap();
        let mut l = Lfsr::new(&p, LfsrKind::Type2);
        let mut prev = l.state().clone();
        let mut violated = false;
        for _ in 0..255 {
            l.step();
            for i in 2..=l.width() {
                if l.stage(i) != prev.get(i - 2) {
                    violated = true;
                }
            }
            prev = l.state().clone();
        }
        assert!(violated, "type-2 LFSR should not behave as a pure shifter");
    }

    #[test]
    fn complete_lfsr_visits_all_states() {
        for degree in [3u32, 4, 6, 10] {
            let p = primitive_polynomial(degree).unwrap();
            let l = CompleteLfsr::new(&p);
            assert_eq!(
                l.period(),
                1u64 << degree,
                "degree {degree} complete LFSR must have period 2^n"
            );
        }
    }

    #[test]
    fn wide_lfsr_steps_without_panic() {
        let p = primitive_polynomial(72).expect("searchable degree");
        let mut l = Lfsr::new(&p, LfsrKind::Type1);
        for _ in 0..1000 {
            l.step();
        }
        assert!(!l.state().is_zero(), "nonzero orbit stays nonzero");
        assert_eq!(l.width(), 72);
    }

    #[test]
    fn shift_register_delays_data() {
        let mut sr = ShiftRegister::new(3);
        let inputs = [true, false, true, true, false, false];
        let mut outs = Vec::new();
        for &i in &inputs {
            outs.push(sr.output());
            sr.shift(i);
        }
        // Output is input delayed by 3 cycles (initially 0).
        assert_eq!(outs, vec![false, false, false, true, false, true]);
    }

    #[test]
    fn delayed_windows_match_an_lfsr_with_shift_register_extension() {
        // Delays past the last stage read a zero-reset extension string
        // clocked after stage M; 70 spans two window words. Ragged blocks
        // and warm-ups that are not a multiple of 64 keep the window
        // unaligned.
        let p = primitive_polynomial(5).unwrap();
        let delays = vec![0, 4, 5, 9, 70, 3];
        let mut lfsr = Lfsr::new(&p, LfsrKind::Type1);
        let mut ext = ShiftRegister::new(66);
        let mut win = DelayedWindows::new(&lfsr, delays.clone());
        let clock = |lfsr: &mut Lfsr, ext: &mut ShiftRegister| {
            ext.shift(lfsr.stage(5));
            lfsr.step();
        };
        for (advance, lanes) in [(0, 64), (37, 13), (0, 64), (130, 1), (1, 0), (0, 64)] {
            win.advance(advance);
            for _ in 0..advance {
                clock(&mut lfsr, &mut ext);
            }
            let words = win.next_words(lanes);
            assert_eq!(words.len(), delays.len());
            for lane in 0..64 {
                for (i, &d) in delays.iter().enumerate() {
                    let want = lane < lanes
                        && if d < 5 {
                            lfsr.stage(d + 1)
                        } else {
                            ext.stage(d - 5)
                        };
                    assert_eq!(words[i] >> lane & 1 == 1, want, "delay {d} lane {lane}");
                }
                if lane < lanes {
                    clock(&mut lfsr, &mut ext);
                }
            }
        }
    }

    #[test]
    fn lfsr_iterator_yields_states() {
        let p = primitive_polynomial(4).unwrap();
        let l = Lfsr::new(&p, LfsrKind::Type1);
        let states: Vec<_> = l.take(15).collect();
        let unique: std::collections::HashSet<_> = states.iter().collect();
        assert_eq!(unique.len(), 15);
    }

    #[test]
    #[should_panic(expected = "seed must be nonzero")]
    fn zero_seed_rejected() {
        let p = primitive_polynomial(4).unwrap();
        let _ = Lfsr::with_seed_u64(&p, LfsrKind::Type1, 0);
    }
}
