//! Streaming statistics: counters, mean/variance accumulators and windowed
//! rate meters used by every component to export measurements without
//! storing per-packet logs.

use crate::time::{SimDuration, SimTime};

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

crate::snap_fields!(Running { n, mean, m2, min, max } blank { Running::new() });

impl Running {
    /// An empty accumulator.
    pub fn new() -> Self {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (Chan's parallel algorithm).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Counts bytes (or any quantity) over simulated time and reports the
/// average rate over the measured interval.
#[derive(Debug, Clone)]
pub struct RateMeter {
    total: u64,
    start: SimTime,
    last: SimTime,
    started: bool,
}

crate::snap_fields!(RateMeter { total, start, last, started } blank { RateMeter::default() });

impl Default for RateMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl RateMeter {
    /// A meter that starts counting at the first recorded sample.
    pub fn new() -> Self {
        RateMeter {
            total: 0,
            start: SimTime::ZERO,
            last: SimTime::ZERO,
            started: false,
        }
    }

    /// Begin (or re-begin) measurement at `now`, discarding prior counts.
    /// Used to skip warm-up transients.
    pub fn reset(&mut self, now: SimTime) {
        self.total = 0;
        self.start = now;
        self.last = now;
        self.started = true;
    }

    /// Add `amount` units at time `now`.
    pub fn record(&mut self, now: SimTime, amount: u64) {
        if !self.started {
            self.reset(now);
        }
        self.total += amount;
        if now > self.last {
            self.last = now;
        }
    }

    /// Total units recorded since the last reset.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Average rate in units/second over `[start, now]`.
    pub fn rate_per_sec(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.start).as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.total as f64 / elapsed
        }
    }

    /// Average rate in bits/second (convenience for byte counters).
    pub fn rate_bits_per_sec(&self, now: SimTime) -> f64 {
        self.rate_per_sec(now) * 8.0
    }
}

/// Exponentially-weighted moving average with a configurable gain.
///
/// Swift and the delay instrumentation use EWMA filters; keeping one shared
/// implementation means one set of tests.
#[derive(Debug, Clone)]
pub struct Ewma {
    value: f64,
    gain: f64,
    initialized: bool,
}

crate::snap_fields!(Ewma { value, gain, initialized } check { Ewma::check_restored });

impl Ewma {
    /// `gain` in (0, 1]: weight of each new sample.
    pub fn new(gain: f64) -> Self {
        assert!(gain > 0.0 && gain <= 1.0, "gain must be in (0,1]");
        Ewma {
            value: 0.0,
            gain,
            initialized: false,
        }
    }

    /// Fold in a new sample.
    pub fn record(&mut self, x: f64) {
        if self.initialized {
            self.value += self.gain * (x - self.value);
        } else {
            self.value = x;
            self.initialized = true;
        }
    }

    /// Current filtered value (0 before the first sample).
    pub fn get(&self) -> f64 {
        self.value
    }

    /// Whether at least one sample has been recorded.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    fn check_restored(&mut self) -> Result<(), crate::SnapError> {
        if !(self.gain > 0.0 && self.gain <= 1.0) {
            return Err(crate::SnapError::Corrupt("ewma gain out of range"));
        }
        Ok(())
    }
}

/// A time-binned series: accumulates samples into fixed-width time bins,
/// used to export throughput/drop-rate curves over a run.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin_width: SimDuration,
    bins: Vec<f64>,
}

impl TimeSeries {
    /// A series with the given bin width.
    pub fn new(bin_width: SimDuration) -> Self {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        TimeSeries {
            bin_width,
            bins: Vec::new(),
        }
    }

    /// Add `amount` to the bin containing time `at`.
    pub fn record(&mut self, at: SimTime, amount: f64) {
        let idx = (at.as_nanos() / self.bin_width.as_nanos()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += amount;
    }

    /// The accumulated bins in time order.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// The configured bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.bin_width
    }

    /// (bin start time, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &v)| (SimTime::from_nanos(i as u64 * self.bin_width.as_nanos()), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_basic_moments() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.record(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.variance() - 4.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
    }

    #[test]
    fn running_empty_is_zero() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
    }

    #[test]
    fn running_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Running::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn rate_meter_average() {
        let mut m = RateMeter::new();
        m.reset(SimTime::ZERO);
        m.record(SimTime::from_micros(1), 1000);
        m.record(SimTime::from_micros(2), 1000);
        // 2000 bytes over 2us = 1e9 B/s = 8 Gbps.
        let now = SimTime::from_micros(2);
        assert!((m.rate_per_sec(now) - 1e9).abs() < 1.0);
        assert!((m.rate_bits_per_sec(now) - 8e9).abs() < 8.0);
    }

    #[test]
    fn rate_meter_reset_discards_history() {
        let mut m = RateMeter::new();
        m.record(SimTime::from_micros(1), 5000);
        m.reset(SimTime::from_micros(10));
        assert_eq!(m.total(), 0);
        m.record(SimTime::from_micros(11), 100);
        assert_eq!(m.total(), 100);
        // Rate measured from the reset point, not t=0.
        let r = m.rate_per_sec(SimTime::from_micros(11));
        assert!((r - 1e8).abs() < 1.0);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.25);
        assert!(!e.is_initialized());
        e.record(10.0);
        assert_eq!(e.get(), 10.0); // first sample adopted wholesale
        for _ in 0..100 {
            e.record(20.0);
        }
        assert!((e.get() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn time_series_bins() {
        let mut s = TimeSeries::new(SimDuration::from_micros(10));
        s.record(SimTime::from_micros(3), 1.0);
        s.record(SimTime::from_micros(9), 1.0);
        s.record(SimTime::from_micros(10), 5.0);
        s.record(SimTime::from_micros(25), 7.0);
        assert_eq!(s.bins(), &[2.0, 5.0, 7.0]);
        let pts: Vec<_> = s.iter().collect();
        assert_eq!(pts[1].0, SimTime::from_micros(10));
        assert_eq!(pts[2].1, 7.0);
    }
}
