//! Host speed, measured by a fixed piece of work the benchmark owns and
//! times between the workload's timed calls.
//!
//! The shared hosts this benchmark runs on change speed by up to 2× over
//! minutes, which moves every host time of a run alike. A time measured
//! while the calibration ran in `t` seconds a call is reported at the
//! reference speed: multiplied by [`REFERENCE_S`]` / t`. The calibration
//! is a DP kernel like the ones the workloads run, but its code is in
//! this file, so no change to the repository's crates moves it.

use std::hint::black_box;
use std::time::Instant;

/// Length of the two fixed sequences the calibration aligns.
const LEN: usize = 160;

/// Seconds one calibration call takes at the reference speed: about its
/// median on the 2-vCPU x86-64 host the benchmark was tuned on (254–289
/// µs a call over one quarter of an hour), so scaled times read close to
/// that host's wall clock.
pub const REFERENCE_S: f64 = 275e-6;

/// Collects calibration samples and turns them into speed factors.
pub struct Calibration {
    query: Vec<u8>,
    target: Vec<u8>,
    /// Seconds per call since the last [`Calibration::factor`].
    pending: Vec<f64>,
    /// Every sample of the run, for the report.
    all: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        // A fixed linear congruential sequence over the four bases.
        let mut x: u32 = 0x2545_f491;
        let mut base = || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 30) as u8
        };
        let query = (0..LEN).map(|_| base()).collect();
        let target = (0..LEN).map(|_| base()).collect();
        Calibration {
            query,
            target,
            pending: Vec::new(),
            all: Vec::new(),
        }
    }

    /// Times one calibration call.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(local_score(black_box(&self.query), black_box(&self.target)));
        let s = t0.elapsed().as_secs_f64();
        self.pending.push(s);
        self.all.push(s);
    }

    /// The factor that brings a time measured while the pending samples
    /// were taken to the reference speed: [`REFERENCE_S`] over their
    /// median. Starts a new set of samples.
    pub fn factor(&mut self) -> f64 {
        if self.pending.is_empty() {
            self.sample();
        }
        let factor = REFERENCE_S / crate::stats::median(&self.pending);
        self.pending.clear();
        factor
    }

    /// Median seconds per call over the whole run.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.all)
    }
}

/// Smith-Waterman score with a linear gap over a full table allocated per
/// call, so the work touches memory as the workloads' DP tables do.
fn local_score(query: &[u8], target: &[u8]) -> i32 {
    let w = query.len() + 1;
    let mut h = vec![0i32; w * (target.len() + 1)];
    let mut best = 0;
    for (i, &t) in target.iter().enumerate() {
        for (j, &q) in query.iter().enumerate() {
            let s = if q == t { 2 } else { -3 };
            let v = (h[i * w + j] + s)
                .max(h[i * w + j + 1] - 2)
                .max(h[(i + 1) * w + j] - 2)
                .max(0);
            h[(i + 1) * w + j + 1] = v;
            best = best.max(v);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_score_of_identical_and_disjoint_sequences() {
        assert_eq!(local_score(&[0, 1, 2, 3], &[0, 1, 2, 3]), 8);
        assert_eq!(local_score(&[0, 0], &[1, 1]), 0);
    }

    #[test]
    fn factor_scales_to_the_reference_speed() {
        let mut c = Calibration::new();
        c.pending = vec![2.0 * REFERENCE_S, 4.0 * REFERENCE_S, 4.0 * REFERENCE_S];
        assert!((c.factor() - 0.25).abs() < 1e-12);
        assert!(c.pending.is_empty());
    }
}
