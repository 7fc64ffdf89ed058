//! Seeded, deterministic random distributions for workload generation.
//!
//! The paper's workloads draw range-scan start keys from uniform, hotspot
//! (99 % of accesses to 20 % of the data) and skewed distributions. All
//! generators here are deterministic given a seed, so every benchmark run
//! reproduces exactly.

/// A deterministic RNG with the distributions workloads need.
///
/// Implemented as xoshiro256++ seeded through SplitMix64 (no external
/// crates, so offline builds work); every stream is fully determined by its
/// seed, which is what replayable chaos schedules and workloads rely on.
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    pub fn seeded(seed: u64) -> SimRng {
        // SplitMix64 expansion of the seed into the xoshiro state, per
        // Blackman & Vigna's reference initialisation.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// An independent per-worker stream derived from a shared run seed.
    ///
    /// Gives every logical worker its own stream, so a worker's draws do
    /// not depend on how the schedule interleaves it with the others (the
    /// shared-RNG idiom couples draw order to the schedule). Mixing the
    /// worker id through SplitMix64 before seeding keeps streams with
    /// nearby ids statistically unrelated.
    pub fn for_worker(seed: u64, worker: u64) -> SimRng {
        let mut z = seed ^ worker.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        SimRng::seeded(z ^ (z >> 31))
    }

    /// The raw xoshiro256++ step: uniform over all of `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn uniform(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty uniform range");
        // widening-multiply range reduction; the bias over 64-bit output is
        // far below anything a workload distribution could observe
        lo + ((self.next_u64() as u128 * (hi - lo) as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Hotspot distribution over `[0, n)`: with probability `hot_prob` draw
    /// from the first `hot_frac` fraction of the keyspace, otherwise from the
    /// remainder. The paper's priming experiment uses 99 % / 20 %.
    pub fn hotspot(&mut self, n: u64, hot_frac: f64, hot_prob: f64) -> u64 {
        assert!(n > 0);
        assert!((0.0..=1.0).contains(&hot_frac) && (0.0..=1.0).contains(&hot_prob));
        let hot_n = ((n as f64 * hot_frac) as u64).clamp(1, n);
        if self.chance(hot_prob) || hot_n == n {
            self.uniform(0, hot_n)
        } else {
            self.uniform(hot_n, n)
        }
    }

    /// Pick an index by sampling a `Zipf(theta)` distribution over `[0, n)`
    /// using the standard inverse-CDF approximation from Gray et al.
    pub fn zipf(&mut self, n: u64, theta: f64) -> u64 {
        assert!(n > 0);
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        // Constants per Gray et al., "Quickly Generating Billion-Record
        // Synthetic Databases" (the same generator TPC-C implementations use).
        let zetan = zeta(n, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan);
        let u = self.unit();
        let uz = u * zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(theta) {
            return 1;
        }
        ((n as f64) * (eta * u - eta + 1.0).powf(alpha)) as u64 % n
    }

    /// Shuffle a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        if xs.is_empty() {
            return;
        }
        for i in (1..xs.len()).rev() {
            let j = self.uniform(0, i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Harmonic-like sum; n is small in our scaled workloads so direct
    // summation is fine and exact.
    let n = n.min(100_000); // cap: beyond this the tail contribution is negligible
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seeded(7);
        let mut b = SimRng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(0, 1000), b.uniform(0, 1000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..100)
            .filter(|_| a.uniform(0, 1_000_000) == b.uniform(0, 1_000_000))
            .count();
        assert!(same < 5);
    }

    #[test]
    fn hotspot_concentrates_accesses() {
        let mut r = SimRng::seeded(42);
        let n = 10_000u64;
        let hot_n = 2_000u64;
        let hits = (0..50_000)
            .filter(|_| r.hotspot(n, 0.2, 0.99) < hot_n)
            .count();
        let frac = hits as f64 / 50_000.0;
        assert!(frac > 0.97, "hot fraction {frac} too low");
    }

    #[test]
    fn uniform_covers_range() {
        let mut r = SimRng::seeded(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.uniform(10, 20);
            assert!((10..20).contains(&v));
            seen_lo |= v == 10;
            seen_hi |= v == 19;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn zipf_is_skewed_toward_small_indices() {
        let mut r = SimRng::seeded(11);
        let n = 1000u64;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..100_000 {
            counts[r.zipf(n, 0.99) as usize] += 1;
        }
        // Rank 0 should dominate and the top-10 should hold a large share.
        let top10: u32 = counts[..10].iter().sum();
        assert!(counts[0] > counts[500] * 10);
        assert!(top10 as f64 / 100_000.0 > 0.3, "top10 share {top10}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seeded(5);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }
}
