//! The benchmark's own statistics: order statistics under the
//! ten-samples-beyond rule, open-loop latency measured from the due time,
//! and the attempted/failed ledger behind `ok_frac`.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly above the nearest-rank `p`-th percentile
/// position of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The `p`-th percentile, but only when at least [`MIN_BEYOND`] samples
/// lie beyond it; a tail percentile resting on fewer samples is noise.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// Median (nearest-rank p50); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Latency of an open-loop request, measured from when it was *due* (its
/// scheduled send time), not from when the generator got round to sending
/// it: a generator stall is charged to the system, not hidden. Both times
/// are seconds from the same origin.
pub fn latency_from_due(due: f64, done: f64) -> f64 {
    done - due
}

/// Attempted/failed ledger of one run. Every correctness check, and every
/// request that fails or is rejected, is one attempt.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Records one attempt and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Share of attempts that succeeded (1 when nothing was attempted).
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 90.0), Some(90.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p90 of 100 samples has exactly 10 beyond it: allowed.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(&xs, 90.0), Some(90.0));
        // p90 of 99 samples has 9 beyond: refused.
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(tail_percentile(&xs[..99], 90.0), None);
        // p99 needs 1000 samples.
        let ys: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&ys, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&ys[..999], 99.0), None);
        // The median of 20 samples has exactly 10 beyond it.
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(median(&ys[..20]), Some(10.0));
    }

    #[test]
    fn open_loop_latency_counts_generator_lateness() {
        // Due at 1.0 s, sent late at 1.3 s, done at 1.5 s: the 0.3 s the
        // request waited behind the stall belongs to its latency.
        let (due, sent, done) = (1.0, 1.3, 1.5);
        assert!((latency_from_due(due, done) - 0.5).abs() < 1e-12);
        assert!(latency_from_due(due, done) > latency_from_due(sent, done));
        // A request sent on time measures the same either way.
        assert_eq!(latency_from_due(2.0, 2.25), 0.25);
    }

    #[test]
    fn ledger_counts_failures_against_attempts() {
        let mut l = Ledger::default();
        assert_eq!(l.ok_frac(), 1.0);
        l.record(true);
        l.record(true);
        l.record(false);
        l.record(true);
        l.record(false);
        assert_eq!(
            l,
            Ledger {
                attempted: 5,
                failed: 2
            }
        );
        assert!((l.ok_frac() - 0.6).abs() < 1e-12);
    }
}
