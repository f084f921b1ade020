//! Streaming statistics: mean/variance and moving-average accumulators
//! used by every component to export measurements without storing
//! per-packet logs.

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
}
