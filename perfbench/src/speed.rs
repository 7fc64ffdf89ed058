//! How fast the host runs right now, from a fixed reference kernel.
//!
//! On a shared VM the simulator's host time for one and the same window
//! swings by up to 1.5x from one process to the next and drifts for
//! minutes, as other tenants come and go, and a median over more windows
//! cannot remove a slowdown that outlasts the run. So every measured window
//! stops for a short slice of a reference kernel every [`SLICE_EVERY_US`]
//! of host time, a few slices run just before and after each set-up, and
//! each stretch of host time is divided by the slowdown measured around it:
//! the median of the [`LOCAL_SLICES`] nearest slices over
//! [`NOMINAL_SLICE_MS`] in a window, the median of all of them for a
//! set-up. A scaled host metric reads what it would on a machine on which
//! one slice takes [`NOMINAL_SLICE_MS`]. The kernel is the benchmark's own
//! code and calls no crate of the repository, so a change to the program
//! cannot move it; it touches no simulator state, so virtual metrics do not
//! see it; raw host figures are printed beside the scaled ones.
//!
//! The kernel stays in cache and does the kinds of work that fill the
//! simulator's host time: hashed-map updates, small sorts and short-lived
//! allocations. A memory-bound kernel (random B-tree lookups and page
//! copies over a few MiB) tracked the simulator's slowdowns less well.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use remem_sim::Stopwatch;

use crate::stats::{percentile, sorted};

/// Slice time on the machine the scaled host metrics are expressed for:
/// about a typical slice on a 2-vCPU 2.1 GHz Xeon VM.
pub const NOMINAL_SLICE_MS: f64 = 2.0;

/// Host µs of measured work between two slices.
pub const SLICE_EVERY_US: f64 = 50_000.0;

/// Slices taken before and after each set-up to find its speed.
pub const SETUP_SLICES: usize = 5;

/// Slices whose median gives the slowdown at one moment of a window.
pub const LOCAL_SLICES: usize = 9;

const KEYS: u64 = 8192;

/// The reference kernel's state and the slice times taken with it.
pub struct HostSpeed {
    /// Fixed-key hasher, so the table's layout is the same in every run.
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    x: u64,
    /// Milliseconds of each slice, in the order taken.
    slices_ms: Vec<f64>,
    /// Measured host µs (slices excluded) at which each slice was taken.
    at_us: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            map: HashMap::default(),
            x: 0x9E37_79B9_7F4A_7C15,
            slices_ms: Vec::new(),
            at_us: Vec::new(),
        }
    }

    /// xorshift64: fixed input, so every slice does the same work.
    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// One fixed amount of reference work; returns a checksum of it.
    fn work(&mut self) -> u64 {
        let mut sum = 0u64;
        for _ in 0..40_000 {
            let k = self.next() % KEYS;
            match self.map.get_mut(&k) {
                Some(v) => {
                    *v += 1;
                    sum = sum.wrapping_add(*v);
                }
                None => {
                    self.map.insert(k, k);
                }
            }
            if k.is_multiple_of(7) {
                self.map.remove(&(k ^ 1));
            }
        }
        for _ in 0..40 {
            let mut v: Vec<u64> = (0..500).map(|_| self.next() % 1000).collect();
            v.sort();
            let b: Box<[u64]> = v.into_boxed_slice();
            sum = sum.wrapping_add(b[b.len() / 2]);
        }
        sum
    }

    /// Run one slice when `at_us` of measured host time has passed;
    /// returns its host milliseconds.
    pub fn slice(&mut self, at_us: f64) -> f64 {
        let sw = Stopwatch::start();
        std::hint::black_box(self.work());
        let ms = sw.elapsed_ms();
        self.slices_ms.push(ms);
        self.at_us.push(at_us);
        ms
    }

    /// Run `n` slices back to back.
    pub fn slices_now(&mut self, n: usize) {
        for _ in 0..n {
            self.slice(0.0);
        }
    }

    /// Median slice milliseconds so far.
    pub fn median_slice_ms(&self) -> f64 {
        percentile(&sorted(&self.slices_ms), 50.0)
    }

    pub fn slices(&self) -> usize {
        self.slices_ms.len()
    }

    /// How much slower than nominal the host ran over all slices: a host
    /// time divides by this, a host rate multiplies by it.
    pub fn slowdown(&self) -> f64 {
        slowdown(self.median_slice_ms())
    }

    /// The slowdown around `t_us` of measured host time: the median of the
    /// [`LOCAL_SLICES`] slices nearest to it.
    pub fn slowdown_at(&self, t_us: f64) -> f64 {
        let n = self.at_us.len();
        let k = LOCAL_SLICES.min(n);
        let i = self.at_us.partition_point(|&a| a <= t_us);
        let lo = i.saturating_sub(k.div_ceil(2)).min(n - k);
        slowdown(percentile(&sorted(&self.slices_ms[lo..lo + k]), 50.0))
    }

    /// `end_us` of measured host time, each stretch between two slices
    /// divided by the slowdown around its start.
    pub fn scaled_us(&self, end_us: f64) -> f64 {
        let mut starts = vec![0.0];
        starts.extend(
            self.at_us
                .iter()
                .copied()
                .filter(|&a| a > 0.0 && a < end_us),
        );
        let mut ends = starts[1..].to_vec();
        ends.push(end_us);
        starts
            .iter()
            .zip(ends)
            .map(|(&a, b)| (b - a) / self.slowdown_at(a))
            .sum()
    }
}

/// [`HostSpeed::slowdown`] for a given median slice time.
pub fn slowdown(median_slice_ms: f64) -> f64 {
    if median_slice_ms > 0.0 {
        median_slice_ms / NOMINAL_SLICE_MS
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_run_does_the_same_work() {
        let (mut a, mut b) = (HostSpeed::new(), HostSpeed::new());
        let first: Vec<u64> = (0..3).map(|_| a.work()).collect();
        let again: Vec<u64> = (0..3).map(|_| b.work()).collect();
        assert_eq!(first, again);
        assert_eq!(a.map, b.map);
    }

    #[test]
    fn slowdown_scales_against_the_nominal_slice() {
        assert_eq!(slowdown(NOMINAL_SLICE_MS), 1.0);
        assert_eq!(slowdown(2.0 * NOMINAL_SLICE_MS), 2.0);
        // no slice taken: leave host figures as measured
        assert_eq!(slowdown(0.0), 1.0);
        let mut s = HostSpeed::new();
        s.slices_ms = vec![9.0, 3.0, 5.0];
        assert_eq!(s.median_slice_ms(), 5.0);
        assert_eq!(s.slices(), 3);
    }

    /// Slices every 10 µs: twenty at nominal speed, then twenty at half.
    fn step() -> HostSpeed {
        let mut s = HostSpeed::new();
        for i in 0..40 {
            s.at_us.push(i as f64 * 10.0);
            let f = if i < 20 { 1.0 } else { 2.0 };
            s.slices_ms.push(f * NOMINAL_SLICE_MS);
        }
        s
    }

    #[test]
    fn local_slowdown_follows_the_nearest_slices() {
        let s = step();
        assert_eq!(s.slowdown_at(0.0), 1.0);
        assert_eq!(s.slowdown_at(100.0), 1.0);
        assert_eq!(s.slowdown_at(350.0), 2.0);
        // beyond the last slice: the last LOCAL_SLICES
        assert_eq!(s.slowdown_at(1e9), 2.0);
        // fewer slices than LOCAL_SLICES: all of them
        let mut few = HostSpeed::new();
        few.at_us = vec![0.0, 5.0, 9.0];
        few.slices_ms = vec![
            NOMINAL_SLICE_MS,
            3.0 * NOMINAL_SLICE_MS,
            3.0 * NOMINAL_SLICE_MS,
        ];
        assert_eq!(few.slowdown_at(2.0), 3.0);
    }

    #[test]
    fn scaled_time_divides_each_stretch_by_its_own_slowdown() {
        let s = step();
        // 0..200 µs at nominal speed, 200..400 µs at half speed
        assert_eq!(s.scaled_us(400.0), 200.0 + 200.0 / 2.0);
        let mut flat = HostSpeed::new();
        flat.at_us = vec![0.0, 50.0];
        flat.slices_ms = vec![2.0 * NOMINAL_SLICE_MS; 2];
        assert_eq!(flat.scaled_us(120.0), 60.0);
    }
}
