//! Host speed, measured with a fixed kernel that shares no code with the
//! library.
//!
//! The reference host is a 2-core KVM guest whose neighbours slow every
//! piece of code in it by 10–30% for seconds to minutes at a time. The
//! process's CPU time grows with the wall time and steal time stays near
//! zero, so this is contention for the hardware, not preemption, and no
//! run length averages it away. The benchmark therefore times a fixed
//! kernel (allocation, string hashing, ordered maps, sorting; the kind of
//! work the compiler does) every quarter second while ops run, and scales
//! each op's latency by how much slower than its reference time the
//! kernel ran around that op. Over 1.5 s windows of `cosim_sweep` ops this
//! cut the host-induced spread from 12.7% to 3.7% (coefficient of
//! variation). A change to the library cannot move the kernel, so every
//! gain or loss in the library still shows in full.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::gen::Rng;

/// The kernel's time on a quiet reference host; a scaled latency is in
/// milliseconds of that host.
pub const KERNEL_REF: Duration = Duration::from_micros(13_000);
/// How often the kernel runs while ops run.
const INTERVAL: Duration = Duration::from_millis(250);
/// Kernel samples within this distance of an op set its scale.
const WINDOW: Duration = Duration::from_millis(1000);

/// The fixed kernel: 10-15 ms of single-threaded work over a few MB.
pub fn kernel() -> u64 {
    let mut rng = Rng::new(0x1234_5678);
    let mut v: Vec<(u64, String)> = (0..20_000).map(|i| (rng.next(), format!("n{i}"))).collect();
    v.sort();
    let mut by_name: HashMap<String, u64> = HashMap::new();
    let mut by_key: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, (k, s)) in v.iter().enumerate() {
        by_name.insert(s.clone(), *k);
        by_key.insert(*k % 100_000, i);
    }
    let mut acc = 0u64;
    for (s, k) in &by_name {
        acc = acc.wrapping_add(*k ^ s.len() as u64);
    }
    for (k, i) in by_key.range(1000..90_000) {
        acc = acc.wrapping_add(k.wrapping_mul(*i as u64));
    }
    black_box(acc)
}

/// Kernel samples taken along a run.
pub struct HostProbe {
    origin: Instant,
    samples: Vec<(Duration, Duration)>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        let mut p = HostProbe {
            origin: Instant::now(),
            samples: Vec::new(),
        };
        p.sample();
        p
    }

    /// Time since the probe started.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Runs the kernel once and records when and how long.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        kernel();
        let d = t0.elapsed();
        self.samples.push((t0 - self.origin, d));
    }

    /// Time the kernel itself ran between `start` and `end`.
    pub fn busy(&self, start: Duration, end: Duration) -> Duration {
        self.samples
            .iter()
            .filter(|(t, _)| (start..end).contains(t))
            .map(|s| s.1)
            .sum()
    }

    /// Samples if the last sample is older than the interval.
    pub fn tick(&mut self) {
        let last = self.samples.last().map_or(Duration::ZERO, |s| s.0);
        if self.now().saturating_sub(last) >= INTERVAL {
            self.sample();
        }
    }

    /// The factor that scales a latency measured from `start` to `end`
    /// to the quiet reference host: the kernel's reference time over the
    /// median of its samples from a window before `start` to a window
    /// after `end` (the nearest sample if none is that close).
    pub fn scale(&self, start: Duration, end: Duration) -> f64 {
        let lo = start.saturating_sub(WINDOW);
        let hi = end + WINDOW;
        let mut near: Vec<Duration> = self
            .samples
            .iter()
            .filter(|(t, _)| (lo..=hi).contains(t))
            .map(|s| s.1)
            .collect();
        if near.is_empty() {
            near.extend(
                self.samples
                    .iter()
                    .min_by_key(|(t, _)| t.abs_diff(start))
                    .map(|s| s.1),
            );
        }
        near.sort_unstable();
        KERNEL_REF.as_secs_f64() / near[near.len() / 2].as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_probe_scales() {
        assert_eq!(kernel(), kernel());
        let mut p = HostProbe::new();
        p.sample();
        let s = p.scale(Duration::ZERO, p.now());
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
