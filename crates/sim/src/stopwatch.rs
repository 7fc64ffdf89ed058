//! Host wall-clock timing for volatile reporting.

use std::time::Instant;

/// A wall-clock stopwatch for host-time reporting. Lives in `remem-sim` (the
/// one crate exempt from the wall-clock audit rule) so benchmark binaries
/// can measure host time without touching `std::time` themselves. Wall
/// times must never enter fingerprinted report data — route them through
/// `Report::volatile_note`.
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    #[allow(clippy::new_without_default)]
    // audit: allow(det-taint, sanctioned wall-clock boundary: stopwatch output is volatile reporting only and never enters fingerprints)
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Elapsed host milliseconds since `start`.
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_host_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(sw.elapsed_ms() >= 4.0);
    }
}
