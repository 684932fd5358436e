//! Measurement instruments used by every model in the workspace.
//!
//! Three instruments cover everything the paper reports:
//!
//! * [`Counter`] — monotone event/byte counters,
//! * [`RateMeter`] — bytes-over-time bandwidth measurement with optional
//!   warm-up exclusion (iperf-style),
//! * [`Histogram`] — log-linear latency histogram with percentile queries
//!   (ping/RTT distributions, queueing delays).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::SimTime;

/// A monotonically increasing counter.
///
/// ```
/// use mcn_sim::stats::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Measures achieved throughput: bytes recorded between a start and an end
/// timestamp.
///
/// The `start` defaults to the first record but can be pinned later to
/// exclude a warm-up interval — iperf-style measurements in the harness skip
/// TCP slow start this way (the paper notes congestion control "sometimes
/// takes several seconds to reach full bandwidth utilization").
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct RateMeter {
    bytes: u64,
    first: Option<SimTime>,
    last: Option<SimTime>,
}

impl RateMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` transferred at time `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        self.bytes += bytes;
        if self.first.is_none() {
            self.first = Some(now);
        }
        self.last = Some(now);
    }

    /// Discards everything recorded so far and restarts the measurement
    /// window at `now` (warm-up exclusion).
    pub fn restart(&mut self, now: SimTime) {
        self.bytes = 0;
        self.first = Some(now);
        self.last = Some(now);
    }

    /// Total bytes recorded in the current window.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Elapsed measurement time.
    pub fn elapsed(&self) -> SimTime {
        match (self.first, self.last) {
            (Some(a), Some(b)) => b - a,
            _ => SimTime::ZERO,
        }
    }

    /// Achieved rate in bytes/second over the window (0 if the window is
    /// empty or instantaneous).
    pub fn bytes_per_sec(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / secs
        }
    }

    /// Achieved rate in gigabits/second.
    pub fn gbps(&self) -> f64 {
        self.bytes_per_sec() * 8.0 / 1e9
    }
}

/// Log-linear histogram of [`SimTime`] samples.
///
/// Buckets are arranged as `SUB` linear sub-buckets per power-of-two decade
/// of picoseconds, giving a bounded relative error of `1/SUB` on percentile
/// queries across the full range — the standard HDR-histogram layout.
///
/// ```
/// use mcn_sim::{stats::Histogram, SimTime};
/// let mut h = Histogram::new();
/// for us in 1..=100 {
///     h.record(SimTime::from_us(us));
/// }
/// let p50 = h.percentile(50.0).unwrap();
/// assert!(p50 >= SimTime::from_us(45) && p50 <= SimTime::from_us(56));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    /// counts[decade * SUB + sub]
    counts: Vec<u64>,
    total: u64,
    sum_ps: u128,
    min: SimTime,
    max: SimTime,
}

impl Histogram {
    const SUB_BITS: u32 = 5;
    const SUB: usize = 1 << Self::SUB_BITS; // 32 sub-buckets => <= ~3% error
    const DECADES: usize = 64;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; Self::SUB * Self::DECADES],
            total: 0,
            sum_ps: 0,
            min: SimTime::MAX,
            max: SimTime::ZERO,
        }
    }

    fn bucket_of(ps: u64) -> usize {
        if ps < Self::SUB as u64 {
            return ps as usize;
        }
        let decade = 63 - ps.leading_zeros(); // floor(log2)
        let shift = decade - Self::SUB_BITS;
        let sub = ((ps >> shift) as usize) & (Self::SUB - 1);
        ((decade - Self::SUB_BITS + 1) as usize) * Self::SUB + sub
    }

    fn bucket_low(index: usize) -> u64 {
        let decade = index / Self::SUB;
        let sub = (index % Self::SUB) as u64;
        if decade == 0 {
            return sub;
        }
        let shift = (decade - 1) as u32;
        ((Self::SUB as u64) << shift) | (sub << shift)
    }

    /// Records one sample.
    pub fn record(&mut self, value: SimTime) {
        let ps = value.as_ps();
        self.counts[Self::bucket_of(ps)] += 1;
        self.total += 1;
        self.sum_ps += ps as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of all samples, or `None` when empty.
    pub fn mean(&self) -> Option<SimTime> {
        if self.total == 0 {
            None
        } else {
            Some(SimTime::from_ps((self.sum_ps / self.total as u128) as u64))
        }
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<SimTime> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<SimTime> {
        (self.total > 0).then_some(self.max)
    }

    /// Value at or below which `p` percent of samples fall (`0 < p <= 100`),
    /// reported as the lower bound of the containing bucket (≤ ~3% relative
    /// error) clamped to the observed [min, max]. A bucket's lower bound
    /// can lie below every sample in it, so without the clamp a percentile
    /// could fall below the minimum; a single sample reports itself.
    /// Returns `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<SimTime> {
        if self.total == 0 || !(0.0..=100.0).contains(&p) {
            return None;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let floor = SimTime::from_ps(Self::bucket_low(i));
                return Some(floor.max(self.min).min(self.max));
            }
        }
        Some(self.max)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min(), self.mean(), self.percentile(99.0), self.max()) {
            (Some(min), Some(mean), Some(p99), Some(max)) => write!(
                f,
                "n={} min={} mean={} p99={} max={}",
                self.total, min, mean, p99, max
            ),
            _ => write!(f, "n=0 (empty)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "11");
    }

    #[test]
    fn rate_meter_bandwidth() {
        let mut m = RateMeter::new();
        m.record(SimTime::ZERO, 0);
        m.record(SimTime::from_secs(1), 1_250_000_000);
        // 1.25 GB over 1 s = 10 Gbit/s.
        assert!((m.gbps() - 10.0).abs() < 1e-9);
        assert_eq!(m.bytes(), 1_250_000_000);
    }

    #[test]
    fn rate_meter_restart_excludes_warmup() {
        let mut m = RateMeter::new();
        m.record(SimTime::ZERO, 999);
        m.restart(SimTime::from_secs(1));
        m.record(SimTime::from_secs(2), 100);
        assert_eq!(m.bytes(), 100);
        assert_eq!(m.elapsed(), SimTime::from_secs(1));
    }

    #[test]
    fn rate_meter_empty_is_zero() {
        let m = RateMeter::new();
        assert_eq!(m.bytes_per_sec(), 0.0);
        assert_eq!(m.elapsed(), SimTime::ZERO);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.to_string(), "n=0 (empty)");
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for us in [10u64, 20, 30, 40, 50] {
            h.record(SimTime::from_us(us));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), Some(SimTime::from_us(30)));
        assert_eq!(h.min(), Some(SimTime::from_us(10)));
        assert_eq!(h.max(), Some(SimTime::from_us(50)));
    }

    #[test]
    fn histogram_percentile_error_bound() {
        let mut h = Histogram::new();
        for ns in 1..=10_000u64 {
            h.record(SimTime::from_ns(ns));
        }
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let exact = SimTime::from_ns((p / 100.0 * 10_000.0) as u64);
            let got = h.percentile(p).unwrap();
            let err = (got.as_ps() as f64 - exact.as_ps() as f64).abs() / exact.as_ps() as f64;
            assert!(err < 0.05, "p{p}: got {got}, exact {exact}, err {err}");
        }
    }

    #[test]
    fn bucket_mapping_monotone() {
        let mut last = 0;
        for ps in (0..10_000_000u64).step_by(997) {
            let b = Histogram::bucket_of(ps);
            assert!(b >= last, "bucket index must be monotone in value");
            last = b;
            let low = Histogram::bucket_low(b);
            assert!(low <= ps, "bucket_low({b})={low} > value {ps}");
        }
    }

    #[test]
    fn histogram_single_sample_everywhere() {
        for scale in [1u64, 1_000, 1_000_000, 1_000_000_000] {
            let mut h = Histogram::new();
            h.record(SimTime::from_ps(scale * 7));
            for p in [1.0, 50.0, 99.0, 100.0] {
                assert_eq!(h.percentile(p), Some(SimTime::from_ps(scale * 7)), "p{p}");
            }
        }
    }

    #[test]
    fn histogram_percentiles_stay_within_the_observed_range() {
        let mut h = Histogram::new();
        // 200 000 ps lies in the bucket that starts at 196 608 ps.
        for ps in [200_000u64, 200_300, 200_600] {
            h.record(SimTime::from_ps(ps));
        }
        assert_eq!(
            Histogram::bucket_low(Histogram::bucket_of(200_000)),
            196_608
        );
        assert_eq!(h.percentile(1.0), Some(SimTime::from_ps(200_000)));
        assert_eq!(h.percentile(100.0), Some(SimTime::from_ps(200_000)));
        // In-range floors are still the bucket floors.
        h.record(SimTime::from_ps(300_000));
        assert_eq!(h.percentile(100.0), Some(SimTime::from_ps(294_912)));
    }
}
