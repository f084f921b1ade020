//! Log-linear latency histogram (HdrHistogram-style).
//!
//! Values are bucketed with bounded relative error (~1/32 by default), which
//! is plenty for reporting p50/p99/p999 queueing delays while using a few KiB
//! of memory regardless of sample count.

/// A histogram over `u64` values (we use nanoseconds) with log-linear buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// 2^sub_bits linear sub-buckets per power-of-two range.
    sub_bits: u32,
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Default precision: 32 sub-buckets per octave (~3% relative error).
    pub fn new() -> Self {
        Self::with_precision(5)
    }

    /// `sub_bits` linear sub-bucket bits per octave (1..=8).
    pub fn with_precision(sub_bits: u32) -> Self {
        assert!((1..=8).contains(&sub_bits), "sub_bits out of range");
        // 64 octaves max for u64 values.
        let buckets = (64 - sub_bits as usize + 1) * (1 << sub_bits);
        Histogram {
            sub_bits,
            counts: vec![0; buckets],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Bucket layout: values below `2^sub_bits` are stored exactly
    /// (index == value). Every octave above that gets a **full**
    /// `2^sub_bits`-entry bucket — unlike HdrHistogram's half-octave
    /// scheme, the leading bit is stored rather than implied, trading
    /// ~2× bucket memory for branch-free indexing. For a value with
    /// `bits` significant bits the sub-bucket width is `2^(bits-sub-1)`,
    /// so the relative quantization error is bounded by `2^-sub_bits`
    /// (1/32 at the default precision).
    #[inline]
    fn index_of(&self, value: u64) -> usize {
        let sub = self.sub_bits;
        // Values below 2^sub_bits land in the first linear region.
        let bits = 64 - value.leading_zeros();
        if bits <= sub {
            return value as usize;
        }
        let shift = bits - sub - 1;
        let bucket = shift as usize + 1;
        // The top sub_bits+1 significant bits of `value`; the leading bit
        // is masked off because `bucket` already encodes the octave.
        let sub_idx = ((value >> shift) as usize) & ((1 << sub) - 1);
        bucket * (1 << sub) + sub_idx
    }

    /// Lowest value that maps to the bucket at `idx` (inverse of `index_of`).
    fn value_of(&self, idx: usize) -> u64 {
        let sub = self.sub_bits;
        let per = 1usize << sub;
        let bucket = idx / per;
        let sub_idx = (idx % per) as u64;
        if bucket == 0 {
            return sub_idx;
        }
        let shift = (bucket - 1) as u32;
        ((1u64 << sub) | sub_idx) << shift
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1)
    }

    /// Record `count` samples of the same value.
    pub fn record_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let idx = self.index_of(value);
        self.counts[idx] += count;
        self.total += count;
        self.sum += value as u128 * count as u128;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of all samples (tracked outside the buckets).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean of all samples (tracked outside the buckets).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in [0, 1]. Returns the lower bound of the bucket
    /// containing the q-th sample (so the error is bounded by bucket width).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.value_of(idx).max(self.min()).min(self.max);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merge another histogram recorded with the same precision.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.sub_bits, other.sub_bits, "precision mismatch");
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Discard all samples.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.sum = 0;
    }
}

/// Sparse codec: `(index, count)` pairs for the non-zero buckets only,
/// since a latency histogram touches a few dozen of its ~2k buckets.
impl crate::Snap for Histogram {
    fn save(&self, w: &mut crate::SnapWriter) {
        w.u32(self.sub_bits);
        w.u64(self.total);
        w.u64(self.min);
        w.u64(self.max);
        w.u128(self.sum);
        let nonzero = self.counts.iter().filter(|&&c| c != 0).count();
        w.usize(nonzero);
        for (idx, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                w.usize(idx);
                w.u64(c);
            }
        }
    }

    fn load(&mut self, r: &mut crate::SnapReader<'_>) -> Result<(), crate::SnapError> {
        use crate::SnapError;
        let sub_bits = r.u32()?;
        if !(1..=8).contains(&sub_bits) {
            return Err(SnapError::Corrupt("histogram precision out of range"));
        }
        if sub_bits == self.sub_bits {
            self.counts.fill(0);
        } else {
            *self = Histogram::with_precision(sub_bits);
        }
        self.total = r.u64()?;
        self.min = r.u64()?;
        self.max = r.u64()?;
        self.sum = r.u128()?;
        let n = r.len(16)?;
        let mut running = 0u64;
        for _ in 0..n {
            let idx = r.usize()?;
            let c = r.u64()?;
            let slot = self
                .counts
                .get_mut(idx)
                .ok_or(SnapError::Corrupt("histogram bucket out of range"))?;
            if c == 0 {
                return Err(SnapError::Corrupt("zero count in sparse histogram"));
            }
            *slot = c;
            running = running
                .checked_add(c)
                .ok_or(SnapError::Corrupt("histogram count overflow"))?;
        }
        if running != self.total {
            return Err(SnapError::Corrupt("histogram total mismatch"));
        }
        Ok(())
    }

    fn blank() -> Option<Self> {
        Some(Histogram::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        // Values < 2^sub_bits are stored exactly.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn quantiles_bounded_relative_error() {
        let mut h = Histogram::new();
        // Record 1..=100_000 uniformly; quantiles should be within ~3.2%.
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.04, "q={q} got={got} expect={expect} rel={rel}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record_n(100, 3);
        h.record(200);
        assert!((h.mean() - 125.0).abs() < 1e-12);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = Histogram::new();
        h.record_n(50, 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert!(a.max() >= 1_000_000 * 31 / 32);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(42);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
    }

    #[test]
    fn index_value_roundtrip_monotone() {
        // Seeded property test over random (mostly non-power-of-two)
        // values spanning the full u64 octave range: the index must be
        // monotone in the value, the bucket lower bound must round-trip
        // back to the same index, and the end-to-end quantization error
        // must respect the documented 2^-sub_bits (1/32) bound.
        use crate::rng::SimRng;
        let h = Histogram::new();
        let mut rng = SimRng::new(0x41D5_7031);
        let mut values: Vec<u64> = Vec::with_capacity(4_200);
        for _ in 0..4_000 {
            // Uniform over octaves, then uniform within the octave, so
            // small and huge magnitudes are equally represented.
            let bits = rng.next_range(1, 63);
            values.push(rng.next_range(1u64 << (bits - 1), (1u64 << bits) - 1));
        }
        // Keep the old deterministic edge cases: exact powers of two.
        values.extend((0..64).map(|e| 1u64 << e));
        values.sort_unstable();
        let mut last_idx = 0usize;
        for &v in &values {
            let idx = h.index_of(v);
            assert!(idx >= last_idx, "index must be monotone in value ({v})");
            last_idx = idx;
            let lo = h.value_of(idx);
            assert!(lo <= v, "bucket lower bound {lo} must be <= {v}");
            assert_eq!(h.index_of(lo), idx, "lower bound must round-trip");
            // Relative error bound: bucket width / value <= 2^-sub_bits.
            assert!(
                (v - lo) as f64 / v as f64 <= 1.0 / 32.0 + 1e-12,
                "value {v} quantized to {lo} exceeds the 1/32 bound"
            );
        }
    }
}
