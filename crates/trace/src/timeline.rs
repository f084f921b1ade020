//! Periodic time-series recording: named series sampled on a fixed
//! period (queue depths, credits, cwnd, memory bandwidth).

use std::collections::BTreeMap;

/// One named series of `(t_ns, value)` samples.
#[derive(Debug, Clone)]
pub struct Series {
    /// Stable dotted name (e.g. `"nic.buffer_bytes"`).
    pub name: String,
    /// Samples in time order.
    pub points: Vec<(u64, f64)>,
}

/// Records named time series at a bounded rate.
///
/// The world offers samples whenever convenient (typically on its memory
/// tick); the recorder keeps one per `period_ns` per series. A period of
/// 0 or a disabled recorder drops everything, so untraced runs pay one
/// branch per offer.
#[derive(Debug)]
pub struct TimelineRecorder {
    period_ns: u64,
    enabled: bool,
    series: Vec<Series>,
    index: BTreeMap<&'static str, usize>,
    /// Per-series time of the last accepted sample.
    last: Vec<Option<u64>>,
}

impl TimelineRecorder {
    /// A recorder sampling each series at most once per `period_ns`.
    pub fn new(period_ns: u64) -> Self {
        TimelineRecorder {
            period_ns,
            enabled: period_ns > 0,
            series: Vec::new(),
            index: BTreeMap::new(),
            last: Vec::new(),
        }
    }

    /// A recorder that drops everything.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Whether the recorder accepts samples.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The sampling period in nanoseconds.
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// Offer a sample for `name` at `now_ns`; kept only if at least one
    /// period has elapsed since the series' previous sample.
    pub fn offer(&mut self, name: &'static str, now_ns: u64, value: f64) {
        if !self.enabled {
            return;
        }
        let idx = match self.index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.series.len();
                self.series.push(Series {
                    name: name.to_string(),
                    points: Vec::new(),
                });
                self.last.push(None);
                self.index.insert(name, i);
                i
            }
        };
        if let Some(prev) = self.last[idx] {
            if now_ns < prev.saturating_add(self.period_ns) {
                return;
            }
        }
        self.last[idx] = Some(now_ns);
        self.series[idx].points.push((now_ns, value));
    }

    /// All recorded series, in first-offered order.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Look up one series by name.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_samples() {
        let mut t = TimelineRecorder::disabled();
        t.offer("x", 0, 1.0);
        assert!(t.series().is_empty());
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
                t.offer("q", now, now as f64);
            }
            let s = t.get("q").unwrap();
            let times: Vec<u64> = s.points.iter().map(|&(t, _)| t).collect();
            assert_eq!(times, kept, "period {period}");
        }
    }

    #[test]
    fn series_are_independent() {
        let mut t = TimelineRecorder::new(100);
        t.offer("a", 0, 1.0);
        t.offer("b", 50, 2.0);
        t.offer("b", 60, 3.0); // dropped: within b's period
        assert_eq!(t.get("a").unwrap().points.len(), 1);
        assert_eq!(t.get("b").unwrap().points, vec![(50, 2.0)]);
        assert!(t.get("c").is_none());
    }
}
