//! Host-speed reference for the end-to-end times.
//!
//! The benchmark host shares its cores with other tenants, and its speed
//! switches between states that last from seconds to minutes: grading
//! passes of one workload, doing the same work, vary by up to 1.7×, and
//! no run length averages that out (NOTES.md, *Noise*). So the benchmark
//! times a fixed integer kernel of its own, the *probe*, before every pass
//! and between kernel gradings, and reports every end-to-end time in
//! reference seconds: the raw time × [`NOMINAL_S`] / the median probe time
//! around it. The probe is not program code, so a change to the program
//! moves the reported times and leaves the probe alone.

use std::time::{Duration, Instant};

/// The probe time that one reference second assumes: about the probe's
/// time on an undisturbed core of the 2-vCPU Xeon host in NOTES.md.
pub const NOMINAL_S: f64 = 300e-6;
/// A kernel grading is preceded by a probe when the last is this old.
const PROBE_EVERY: Duration = Duration::from_millis(25);
/// Probes within this distance of a timed interval set its scale.
const WINDOW: Duration = Duration::from_millis(500);
/// Independent bitwise rounds over the L1-resident words.
const WIDE_ROUNDS: u64 = 500;
/// Steps of the dependent xorshift chain.
const CHAIN_STEPS: u64 = 49_000;

/// The probe. Half of its undisturbed time is independent bitwise work
/// on L1-resident words, the instruction mix of the bit-parallel
/// simulator and the work a busy neighbour on the same physical core
/// slows most (up to 2×); the other half is a dependent chain, which a
/// neighbour hardly slows, as it hardly slows PODEM's branchy search.
/// NOTES.md gives the measurements behind the split.
#[inline(never)]
fn probe_kernel() -> u64 {
    let mut words = [0u64; 512];
    for (i, w) in words.iter_mut().enumerate() {
        *w = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    let mut acc = [0u64; 8];
    for r in 0..std::hint::black_box(WIDE_ROUNDS) {
        for c in words.chunks_exact(8) {
            for k in 0..8 {
                acc[k] = (acc[k] ^ c[k]).rotate_left(3) & (c[k] | r) ^ (acc[k] >> 2);
            }
        }
        std::hint::black_box(&mut words);
    }
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut chain = 0u64;
    for i in 0..std::hint::black_box(CHAIN_STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chain = chain.wrapping_add(x.wrapping_mul(i | 1)).rotate_left(5);
    }
    acc.iter().fold(chain, |a, &b| a ^ b)
}

/// The probe times of one run, in the order they were taken.
#[derive(Debug)]
pub struct HostRef {
    probes: Vec<(Instant, f64)>,
    last: Instant,
}

impl HostRef {
    /// Warms the probe up; the warm-up times are discarded.
    pub fn new() -> HostRef {
        for _ in 0..20 {
            std::hint::black_box(probe_kernel());
        }
        HostRef {
            probes: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Times the probe once.
    pub fn probe(&mut self) {
        let t = Instant::now();
        std::hint::black_box(probe_kernel());
        self.probes.push((t, t.elapsed().as_secs_f64()));
        self.last = Instant::now();
    }

    /// Times the probe if the last probe is [`PROBE_EVERY`] old, and
    /// returns the seconds that took.
    pub fn probe_if_due(&mut self) -> f64 {
        if self.last.elapsed() < PROBE_EVERY {
            return 0.0;
        }
        let t = Instant::now();
        self.probe();
        t.elapsed().as_secs_f64()
    }

    /// Reference seconds per raw second over `secs` from `from`: the
    /// nominal probe time over the median of the probes within
    /// [`WINDOW`] of the interval (the nearest probe if none is).
    pub fn scale(&self, from: Instant, secs: f64) -> f64 {
        let to = from + Duration::from_secs_f64(secs);
        let lo = self.probes.partition_point(|&(t, _)| t + WINDOW < from);
        let hi = self.probes.partition_point(|&(t, _)| t <= to + WINDOW);
        let near: Vec<f64> = if lo < hi {
            self.probes[lo..hi].iter().map(|&(_, d)| d).collect()
        } else {
            let nearest = lo.min(self.probes.len().saturating_sub(1));
            self.probes
                .get(nearest)
                .map(|&(_, d)| d)
                .into_iter()
                .collect()
        };
        match crate::median(&near) {
            m if m > 0.0 => NOMINAL_S / m,
            _ => 1.0,
        }
    }

    /// The median probe time of the run, in seconds.
    pub fn median_s(&self) -> f64 {
        let all: Vec<f64> = self.probes.iter().map(|&(_, d)| d).collect();
        crate::median(&all)
    }

    /// The number of probes taken.
    pub fn count(&self) -> usize {
        self.probes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_takes_the_median_probe_near_the_interval() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let host = HostRef {
            probes: vec![
                (at(0), 2.0 * NOMINAL_S),
                (at(100), 2.0 * NOMINAL_S),
                (at(2000), NOMINAL_S / 2.0),
                (at(2100), NOMINAL_S / 2.0),
                (at(2200), 9.0 * NOMINAL_S),
            ],
            last: at(2200),
        };
        // Only the first two probes are within the window.
        assert_eq!(host.scale(at(50), 0.01), 0.5);
        // The outlier at 2200 ms does not move the median.
        assert_eq!(host.scale(at(2050), 0.05), 2.0);
        // No probe within the window: the nearest one counts.
        assert_eq!(host.scale(at(1000), 0.01), 2.0);
        assert_eq!(host.count(), 5);
    }
}
