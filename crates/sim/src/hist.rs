//! Log-linear latency histogram (HdrHistogram-style).
//!
//! Values are bucketed with bounded relative error (~1/32 by default), which
//! is plenty for reporting p50/p99/p999 queueing delays. Memory does not
//! depend on the sample count: the bucket array grows only up to the
//! highest bucket recorded, at most ~15 KiB for the full `u64` range.

/// A histogram over `u64` values (we use nanoseconds) with log-linear buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// 2^sub_bits linear sub-buckets per power-of-two range.
    sub_bits: u32,
    /// Counts up to the highest bucket recorded so far; every bucket past
    /// the end is zero. Latency samples touch a few dozen low buckets of
    /// the layout, so growing on demand saves a zeroed array per histogram.
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
    pub(crate) fn with_precision(sub_bits: u32) -> Self {
        assert!((1..=8).contains(&sub_bits), "sub_bits out of range");
        Histogram {
            sub_bits,
            counts: Vec::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Buckets in the full layout: 64 octaves max for `u64` values.
    fn layout_len(sub_bits: u32) -> usize {
        (64 - sub_bits as usize + 1) << sub_bits
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
    pub(crate) fn record_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let idx = self.index_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
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
    pub(crate) fn min(&self) -> u64 {
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
    pub(crate) fn quantile(&self, q: f64) -> u64 {
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
    #[cfg(test)]
    pub(crate) fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.sub_bits, other.sub_bits, "precision mismatch");
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Discard all samples.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.sum = 0;
    }
}

/// Sparse codec: `(index, count)` pairs for the non-zero buckets only,
/// since a latency histogram touches a few dozen of its ~2k buckets. The
/// image does not depend on how far `counts` has grown.
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
            self.counts.clear();
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
            if idx >= Self::layout_len(sub_bits) {
                return Err(SnapError::Corrupt("histogram bucket out of range"));
            }
            if c == 0 {
                return Err(SnapError::Corrupt("zero count in sparse histogram"));
            }
            if idx >= self.counts.len() {
                self.counts.resize(idx + 1, 0);
            }
            self.counts[idx] = c;
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

    /// A histogram holding the full bucket layout up front: the reference
    /// the lazily grown one must match.
    fn dense() -> Histogram {
        Histogram {
            counts: vec![0; Histogram::layout_len(5)],
            ..Histogram::new()
        }
    }

    /// Latency-like samples across a few octaves plus rare huge outliers.
    fn samples(seed: u64, n: usize) -> Vec<u64> {
        use crate::rng::SimRng;
        let mut rng = SimRng::new(seed);
        (0..n)
            .map(|_| match rng.next_below(20) {
                0 => rng.next_range(1 << 40, u64::MAX),
                _ => rng.next_range(0, 200_000),
            })
            .collect()
    }

    fn assert_same_stats(got: &Histogram, want: &Histogram) {
        assert_eq!(got.count(), want.count());
        assert_eq!(got.min(), want.min());
        assert_eq!(got.max(), want.max());
        assert_eq!(got.sum(), want.sum());
        assert_eq!(got.mean().to_bits(), want.mean().to_bits());
        for q in [0.0, 0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(got.quantile(q), want.quantile(q), "q={q}");
        }
    }

    #[test]
    fn lazy_buckets_match_a_dense_reference() {
        let mut lazy = Histogram::new();
        let mut reference = dense();
        assert!(lazy.counts.is_empty(), "no buckets before the first sample");
        for (i, v) in samples(0x1A2E, 5_000).into_iter().enumerate() {
            lazy.record_n(v, 1 + i as u64 % 3);
            reference.record_n(v, 1 + i as u64 % 3);
            if i % 997 == 0 {
                assert_same_stats(&lazy, &reference);
            }
        }
        assert_same_stats(&lazy, &reference);
        assert_eq!(lazy.counts.len(), lazy.index_of(lazy.max()) + 1);
        lazy.clear();
        reference.clear();
        assert_same_stats(&lazy, &reference);
        // Cleared histograms record exactly like fresh ones.
        for v in [7, 3_000, 90] {
            lazy.record(v);
            reference.record(v);
        }
        assert_same_stats(&lazy, &reference);
    }

    #[test]
    fn merge_works_short_into_long_and_long_into_short() {
        let small = samples(0x5A11, 300)
            .into_iter()
            .map(|v| v % 64)
            .collect::<Vec<_>>();
        let large = samples(0x1A26E, 300);
        let mut all = dense();
        let (mut short, mut long) = (Histogram::new(), Histogram::new());
        for &v in &small {
            short.record(v);
            all.record(v);
        }
        for &v in &large {
            long.record(v);
            all.record(v);
        }
        assert!(short.counts.len() < long.counts.len());
        let mut short_into_long = long.clone();
        short_into_long.merge(&short);
        let mut long_into_short = short.clone();
        long_into_short.merge(&long);
        assert_same_stats(&short_into_long, &all);
        assert_same_stats(&long_into_short, &all);
    }

    fn image(h: &Histogram) -> Vec<u8> {
        let mut w = crate::SnapWriter::new();
        crate::Snap::save(h, &mut w);
        w.into_payload()
    }

    #[test]
    fn checkpoint_round_trips_to_identical_bytes() {
        let mut lazy = Histogram::new();
        let mut reference = dense();
        for v in samples(0xC4EC, 2_000) {
            lazy.record(v);
            reference.record(v);
        }
        let bytes = image(&lazy);
        assert_eq!(bytes, image(&reference), "image depends on bucket growth");
        // Into a fresh histogram and into one that already grew further.
        let mut grown = Histogram::new();
        grown.record(u64::MAX);
        for mut target in [Histogram::new(), grown] {
            let mut r = crate::SnapReader::new(&bytes);
            crate::Snap::load(&mut target, &mut r).unwrap();
            assert!(r.is_exhausted());
            assert_same_stats(&target, &reference);
            assert_eq!(image(&target), bytes);
        }
    }

    /// A one-bucket image of precision 5 with `n` claimed entries.
    fn one_bucket_image(n: usize, idx: usize) -> Vec<u8> {
        let mut w = crate::SnapWriter::new();
        w.u32(5);
        w.u64(1); // total
        w.u64(0); // min
        w.u64(0); // max
        w.u128(0); // sum
        w.usize(n);
        w.usize(idx);
        w.u64(1);
        w.into_payload()
    }

    #[test]
    fn load_bounds_buckets_by_the_full_layout() {
        let load = |bytes: Vec<u8>| {
            let mut h = Histogram::new();
            crate::Snap::load(&mut h, &mut crate::SnapReader::new(&bytes)).map(|_| h)
        };
        assert_eq!(Histogram::layout_len(5), 1_920);
        // The last bucket of the layout loads, growing `counts` to reach it.
        let h = load(one_bucket_image(1, 1_919)).unwrap();
        assert_eq!(h.counts.len(), 1_920);
        for idx in [1_920, usize::MAX] {
            assert_eq!(
                load(one_bucket_image(1, idx)).err(),
                Some(crate::SnapError::Corrupt("histogram bucket out of range"))
            );
        }
        // The length prefix is bounded by the payload before any bucket
        // is read or allocated for.
        assert_eq!(
            load(one_bucket_image(2, 0)).err(),
            Some(crate::SnapError::Corrupt("length exceeds payload"))
        );
    }
}
