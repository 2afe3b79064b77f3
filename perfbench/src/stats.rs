//! Latency statistics and open-loop scheduling.
//!
//! Percentiles use the nearest-rank definition and are only *reported*
//! when at least [`MIN_BEYOND`] samples lie beyond the rank: a p99 over
//! 300 samples rests on three values and says nothing stable.

use std::time::Duration;

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// A bag of measurements in one unit, sorted lazily.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Nearest-rank percentile `p` (0 < p < 100), or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile_sorted(&self.values, p)
    }
}

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 * n)` (1-based). `None` when fewer than [`MIN_BEYOND`]
/// samples rank strictly above it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of a small set of repeated measurements (set-up times), with
/// no beyond-rule: it summarizes repetitions, not a distribution tail.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Total work and total seconds of `calls` (work, seconds).
pub fn rate_parts(calls: &[(f64, f64)]) -> (f64, f64) {
    calls.iter().fold((0.0, 0.0), |a, c| (a.0 + c.0, a.1 + c.1))
}

/// Total work over total seconds of `calls` (work, seconds).
pub fn rate(calls: &[(f64, f64)]) -> f64 {
    let (work, secs) = rate_parts(calls);
    assert!(secs > 0.0, "rate of nothing");
    work / secs
}

/// Throughput that a burst of interference cannot move: `calls` (work,
/// seconds) in time order are cut into `segments` consecutive groups of
/// near-equal count, and the median of the groups' work per second is
/// returned.
pub fn median_rate(calls: &[(f64, f64)], segments: usize) -> f64 {
    let n = calls.len();
    assert!(n > 0 && segments > 0, "rate of nothing");
    let k = segments.min(n);
    let rates: Vec<f64> = (0..k)
        .map(|i| {
            let g = &calls[i * n / k..(i + 1) * n / k];
            g.iter().map(|c| c.0).sum::<f64>() / g.iter().map(|c| c.1).sum::<f64>()
        })
        .collect();
    median(&rates)
}

/// An open-loop request schedule: request `k` is due at `k * period`
/// after the loop starts, whether or not earlier requests have been
/// answered. Latency is measured from the due time, so a stall that
/// delays sending charges its wait to every request it held back, and
/// the sender's own lateness is reported separately.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    period: Duration,
}

impl OpenLoop {
    pub fn new(rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "open-loop rate must be positive");
        Self {
            period: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// Offset of request `k`'s due time from the loop start.
    pub fn due(&self, k: u64) -> Duration {
        self.period
            .checked_mul(u32::try_from(k).expect("request index fits u32"))
            .expect("due offset overflows")
    }

    /// How late request `k` was sent, in microseconds (never negative:
    /// the sender waits for the due time).
    pub fn lateness_us(&self, k: u64, sent: Duration) -> f64 {
        sent.saturating_sub(self.due(k)).as_secs_f64() * 1e6
    }

    /// Request `k`'s latency counted from its due time, in microseconds.
    pub fn latency_us(&self, k: u64, answered: Duration) -> f64 {
        answered.saturating_sub(self.due(k)).as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // rank ceil(0.5 * 100) = 50 -> value 50; 50 samples beyond
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        // rank ceil(0.9 * 100) = 90 -> value 90; 10 beyond: allowed
        assert_eq!(percentile_sorted(&v, 90.0), Some(90.0));
        // rank 91 would leave 9 beyond: refused
        assert_eq!(percentile_sorted(&v, 90.5), None);
        // p99 needs n - ceil(0.99 n) >= 10, i.e. n >= 1000
        assert_eq!(percentile_sorted(&v, 99.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&big, 99.0), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile_sorted(&short, 99.0), None);
    }

    #[test]
    fn ten_beyond_rule_on_small_sets() {
        assert_eq!(percentile_sorted(&[], 50.0), None);
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        // rank 10 leaves 9 beyond
        assert_eq!(percentile_sorted(&v, 50.0), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(10.0));
    }

    #[test]
    fn samples_sort_lazily() {
        let mut s = Samples::new();
        for v in (1..=40).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.percentile(50.0), Some(20.0));
        s.push(0.5);
        assert_eq!(s.len(), 41);
        assert_eq!(s.percentile(50.0), Some(20.0)); // rank ceil(20.5) = 21
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn median_rate_ignores_a_burst() {
        // 100 calls of 10 units in 1 s each; a burst makes 15 of them
        // ten times slower.
        let mut calls = vec![(10.0, 1.0); 100];
        for c in &mut calls[40..55] {
            c.1 = 10.0;
        }
        assert_eq!(median_rate(&calls, 10), 10.0);
        // Fewer calls than segments: each call is a segment.
        assert_eq!(median_rate(&[(4.0, 2.0), (9.0, 1.0), (1.0, 1.0)], 10), 2.0);
    }

    #[test]
    fn open_loop_charges_stalls_from_due_time() {
        // 1000 requests/s: request k is due at k ms.
        let ol = OpenLoop::new(1000.0);
        assert_eq!(ol.due(3), Duration::from_millis(3));
        // The sender stalls until 3.5 ms, then sends requests 0..=3 at
        // once; each is answered 0.1 ms after sending.
        let sent = Duration::from_micros(3500);
        let answered = sent + Duration::from_micros(100);
        let late: Vec<f64> = (0..4).map(|k| ol.lateness_us(k, sent)).collect();
        let lat: Vec<f64> = (0..4).map(|k| ol.latency_us(k, answered)).collect();
        for (got, want) in late.iter().zip([3500.0, 2500.0, 1500.0, 500.0]) {
            assert!((got - want).abs() < 1e-6, "lateness {got} != {want}");
        }
        for (got, want) in lat.iter().zip([3600.0, 2600.0, 1600.0, 600.0]) {
            assert!((got - want).abs() < 1e-6, "latency {got} != {want}");
        }
        // Sent on time: no lateness, latency is the service time alone.
        assert_eq!(ol.lateness_us(5, Duration::from_millis(5)), 0.0);
        let on_time = ol.latency_us(5, Duration::from_micros(5100));
        assert!((on_time - 100.0).abs() < 1e-6);
    }
}
