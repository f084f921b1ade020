//! Periodic time-series recording: a fixed set of named series (queue
//! depths, credits, cwnd, memory bandwidth) sampled together on a fixed
//! period, one row per sample.

/// Records rows of named series at a bounded rate.
///
/// The world offers a row — one value per series, all at one instant —
/// whenever convenient (typically on its memory tick); the recorder keeps
/// at most one row per `period_ns`. A period of 0 (a disabled recorder)
/// drops everything, so untraced runs pay one branch per offer.
#[derive(Debug)]
pub struct TimelineRecorder {
    period_ns: u64,
    /// Series names in column order, taken from the first kept row.
    names: Vec<&'static str>,
    /// Sample time of each kept row.
    times: Vec<u64>,
    /// Kept rows, row-major: `names.len()` values per row.
    values: Vec<f64>,
}

impl TimelineRecorder {
    /// A recorder keeping at most one row per `period_ns`.
    pub fn new(period_ns: u64) -> Self {
        TimelineRecorder {
            period_ns,
            names: Vec::new(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// A recorder that drops everything.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Whether the recorder accepts samples.
    pub fn is_enabled(&self) -> bool {
        self.period_ns > 0
    }

    /// Offer one row of `(series, value)` pairs at `now_ns`; kept only if
    /// at least one period has elapsed since the previous kept row. Every
    /// row names the same series in the same order.
    pub fn offer<const N: usize>(&mut self, now_ns: u64, row: [(&'static str, f64); N]) {
        if !self.is_enabled() {
            return;
        }
        if let Some(&prev) = self.times.last() {
            if now_ns < prev.saturating_add(self.period_ns) {
                return;
            }
        } else {
            self.names = row.iter().map(|&(name, _)| name).collect();
        }
        self.times.push(now_ns);
        self.values.extend(row.iter().map(|&(_, value)| value));
    }

    /// The recorded series' names, in column order.
    pub(crate) fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// One series as `(t_ns, value)` points in time order (empty for a
    /// name never offered).
    pub fn series(&self, name: &str) -> impl Iterator<Item = (u64, f64)> + '_ {
        let col = self.names.iter().position(|&n| n == name);
        let width = self.names.len();
        col.into_iter().flat_map(move |col| {
            self.times
                .iter()
                .enumerate()
                .map(move |(row, &t)| (t, self.values[row * width + col]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_samples() {
        let mut t = TimelineRecorder::disabled();
        t.offer(0, [("x", 1.0)]);
        assert!(t.names().is_empty());
        assert_eq!(t.series("x").count(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn rate_limits_per_series() {
        // (period, offered times, kept times). A period near u64::MAX must
        // keep only the first sample, not overflow the deadline and wrap.
        let cases: [(u64, &[u64], &[u64]); 2] = [
            (100, &[0, 50, 100, 140, 260], &[0, 100, 260]),
            (u64::MAX, &[1_000, 2_000], &[1_000]),
        ];
        for (period, offered, kept) in cases {
            let mut t = TimelineRecorder::new(period);
            for &now in offered {
                t.offer(now, [("q", now as f64)]);
            }
            let times: Vec<u64> = t.series("q").map(|(t, _)| t).collect();
            assert_eq!(times, kept, "period {period}");
        }
    }

    #[test]
    fn rows_split_into_series() {
        let mut t = TimelineRecorder::new(100);
        t.offer(0, [("a", 1.0), ("b", 2.0)]);
        t.offer(60, [("a", 3.0), ("b", 4.0)]); // dropped: within the period
        t.offer(100, [("a", 5.0), ("b", 6.0)]);
        assert_eq!(t.names(), ["a", "b"]);
        assert_eq!(t.series("a").collect::<Vec<_>>(), [(0, 1.0), (100, 5.0)]);
        assert_eq!(t.series("b").collect::<Vec<_>>(), [(0, 2.0), (100, 6.0)]);
        assert_eq!(t.series("c").count(), 0);
    }
}
