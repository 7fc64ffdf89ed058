//! The benchmark's own arithmetic: percentiles, the tail rule, and ratios
//! with their bases.

/// Percentile levels the tail rule climbs, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending). `p` is in percent.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps a product such as 99.9 % × 10,000 (9990.000000000002 in
/// binary floating point) on its exact rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-6).ceil() as usize).clamp(1, n.max(1))
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// ranked above it, as `(percentile, value)`. With fewer than twenty
/// samples no level qualifies, and the median stands in for the tail.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let p = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= rank(n, p) + TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    (p, percentile(sorted, p))
}

/// Sort a copy of `v` ascending.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A ratio together with the two numbers it came from, so every printed
/// per-op figure can be checked by hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub base: f64,
}

impl Ratio {
    pub fn new(num: f64, base: f64) -> Ratio {
        Ratio { num, base }
    }

    /// `num / base`, or 0 when the base is empty (the layer saw no work).
    pub fn value(&self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.num / self.base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_is_highest_level_with_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        // 999 samples: p99 ranks 990, leaving 9 beyond, so p90 is the tail
        assert_eq!(tail(&ramp(999)), (90.0, 900.0));
        // 10,000 samples reach p99.9
        assert_eq!(tail(&ramp(10_000)), (99.9, 9990.0));
        // 100 samples: p90 leaves exactly 10
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
    }

    #[test]
    fn tail_falls_back_to_median_on_small_samples() {
        assert_eq!(tail(&ramp(20)), (50.0, 10.0));
        assert_eq!(tail(&ramp(5)), (50.0, 3.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn ratio_keeps_its_base_and_tolerates_an_empty_one() {
        let r = Ratio::new(30.0, 12.0);
        assert_eq!(r.value(), 2.5);
        assert_eq!((r.num, r.base), (30.0, 12.0));
        assert_eq!(Ratio::new(5.0, 0.0).value(), 0.0);
    }
}
