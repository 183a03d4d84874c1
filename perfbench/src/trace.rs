//! The benchmark's own span recorder and the pattern-source timing adapter.
//!
//! Spans are recorded around calls into each layer's public functions from
//! the benchmark's files; the program itself carries no extra tracing. A
//! disabled [`Trace`] runs the closures and records nothing, so the
//! untraced run pays one branch per layer call.

use bibs_faultsim::source::{PatternBlock, PatternSource, SourceDescriptor};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One closed span: the layer it timed, the span that caused it, and how
/// long it took.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `faultsim.par.sim`.
    pub name: &'static str,
    /// Index of the enclosing span in the trace's span list, if any.
    pub parent: Option<usize>,
    /// Wall time covered by the span.
    pub dur: Duration,
}

/// In-memory spans and counters of one workload pass.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// A recorder; `enabled = false` gives the zero-cost untraced variant.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            dur: Duration::ZERO,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].dur = start.elapsed();
        out
    }

    /// Records time spent in `name` in pieces under the open span (the
    /// source pulls interleaved with simulation) as one child span.
    pub fn child_time(&mut self, name: &'static str, dur: Duration) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                dur,
            });
        }
    }

    /// Adds `v` to the counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Moves the spans and counters of `other` into this trace, its root
    /// spans nested under the open span.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        let open = self.stack.last().copied();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset).or(open),
            ..s
        }));
        for (name, v) in other.counters {
            self.add(name, v);
        }
    }

    /// The recorded counters.
    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counters
    }

    /// Self time (span minus the part its children cover) summed per
    /// layer name, in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&children) {
            *out.entry(s.name).or_insert(0.0) += s.dur.saturating_sub(*c).as_secs_f64();
        }
        out
    }
}

/// A [`PatternSource`] that delegates to another and times every pull, so
/// source cost is separated from the simulator that drives it.
pub struct TimedSource<'a> {
    inner: &'a mut dyn PatternSource,
    /// Wall time spent inside the wrapped source's block calls.
    pub pull: Duration,
    /// Blocks the wrapped source returned.
    pub blocks: u64,
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner` with zeroed accounting.
    pub fn new(inner: &'a mut dyn PatternSource) -> Self {
        TimedSource {
            inner,
            pull: Duration::ZERO,
            blocks: 0,
        }
    }
}

impl PatternSource for TimedSource<'_> {
    fn next_block(&mut self, width: usize) -> Option<PatternBlock> {
        let t = Instant::now();
        let block = self.inner.next_block(width);
        self.pull += t.elapsed();
        self.blocks += u64::from(block.is_some());
        block
    }

    fn next_wide_block(&mut self, width: usize, max_words: usize) -> Vec<PatternBlock> {
        let t = Instant::now();
        let blocks = self.inner.next_wide_block(width, max_words);
        self.pull += t.elapsed();
        self.blocks += blocks.len() as u64;
        blocks
    }

    fn clocks_consumed(&self) -> u64 {
        self.inner.clocks_consumed()
    }

    fn patterns_emitted(&self) -> u64 {
        self.inner.patterns_emitted()
    }

    fn state_digest(&self) -> u64 {
        self.inner.state_digest()
    }

    fn descriptor(&self) -> SourceDescriptor {
        self.inner.descriptor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bibs_faultsim::source::RandomWords;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(5));
        });
        let s = t.self_seconds();
        assert!(s["inner"] >= 0.02);
        assert!(s["outer"] >= 0.005 && s["outer"] < 0.02, "{s:?}");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let v = t.span("x", |t| {
            t.add("c", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.self_seconds().is_empty() && t.counters().is_empty());
    }

    #[test]
    fn timed_source_delegates_the_stream() {
        let mut plain = RandomWords::seeded(9);
        let mut inner = RandomWords::seeded(9);
        let mut timed = TimedSource::new(&mut inner);
        for _ in 0..3 {
            assert_eq!(timed.next_block(5), plain.next_block(5));
        }
        assert_eq!(timed.blocks, 3);
        assert_eq!(timed.state_digest(), plain.state_digest());
        assert_eq!(timed.descriptor(), plain.descriptor());
    }
}
