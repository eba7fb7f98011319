//! Box-speed calibration.
//!
//! The reference box is shared and its speed is not constant: the same
//! memory-touching work takes 20–40% longer whenever a neighbour is busy,
//! for seconds or for minutes at a time, while a pure register loop hardly
//! moves (README.md, "How steady the numbers are").  No statistic over a
//! run's own latencies removes that — whole runs are fast or slow.
//!
//! So every time the harness has timed an op it times a fixed reference
//! kernel of its own, right then, in the same thread.  The kernel's duration
//! says how fast the box was at that moment, and the op's latency is scaled
//! to what it would have been at the reference speed.  The kernel is
//! harness-only code, so nothing a PR does to the system can move it.

use std::collections::HashSet;
use std::time::Instant;

/// Duration of the reference kernel on the reference box at rest (the 10th
/// percentile over a quiet minute), in nanoseconds.  A scale constant: it
/// only fixes what "speed 1" means.
pub const REFERENCE_NOMINAL_NS: f64 = 200_000.0;

/// Run the reference kernel once and return how long it took, in
/// nanoseconds.  The work — format short strings, hash them, sort them,
/// what decoding rows and building an index spends its time on — is the
/// same instructions every time, so its duration moves only with the box.
pub fn reference_ns() -> u64 {
    let started = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut values: Vec<String> = (0..1_500)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            format!("{:010}", x % 400)
        })
        .collect();
    let distinct = values
        .iter()
        .map(String::as_str)
        .collect::<HashSet<_>>()
        .len();
    values.sort_unstable();
    std::hint::black_box((distinct, &values));
    started.elapsed().as_nanos() as u64
}

/// Speed of the box right now relative to the reference box at rest: 1 at
/// rest, 0.7 when the same work takes 1/0.7 as long.  A latency measured
/// just before, multiplied by this, is that latency at reference speed.
pub fn box_speed() -> f64 {
    REFERENCE_NOMINAL_NS / reference_ns().max(1) as f64
}

/// Box speed over a stretch of harness work that cannot be calibrated op
/// by op — a set-up: sampled at its step boundaries, averaged at the end.
#[derive(Debug, Default)]
pub struct SpeedLog(Vec<f64>);

impl SpeedLog {
    /// Take a sample now: the median of three kernel runs, since a step
    /// boundary has no neighbouring ops to average a stray reading out.
    pub fn sample(&mut self) {
        let mut runs = [box_speed(), box_speed(), box_speed()];
        runs.sort_by(f64::total_cmp);
        self.0.push(runs[1]);
    }

    pub fn extend(&mut self, samples: &[f64]) {
        self.0.extend_from_slice(samples);
    }

    pub fn samples(&self) -> &[f64] {
        &self.0
    }

    /// Mean speed over the stretch; 1 when nothing was sampled.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            1.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_kernel_takes_measurable_time_and_gives_a_finite_speed() {
        assert!(reference_ns() > 1_000);
        let speed = box_speed();
        assert!(speed.is_finite() && speed > 0.0);

        let mut log = SpeedLog::default();
        assert_eq!(log.mean(), 1.0);
        log.extend(&[0.5, 1.0]);
        assert_eq!(log.mean(), 0.75);
        log.sample();
        assert_eq!(log.samples().len(), 3);
    }
}
