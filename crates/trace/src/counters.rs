//! A named counter registry.
//!
//! Components keep their own cheap internal counters (plain `u64` fields
//! on their stats structs); the host testbed publishes them here by name
//! when asked. The registry supports interval accounting:
//! `mark_baseline()` at the end of warm-up records current values, and
//! `snapshot()` reports the delta since — the same discipline
//! `MetricsCollector::arm` applies to the headline metrics.

use std::collections::BTreeMap;

/// Named `u64` counters with baseline/interval support. Iteration order
/// is the lexicographic name order (BTreeMap), so exports are
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct CounterRegistry {
    values: BTreeMap<String, u64>,
    baseline: BTreeMap<String, u64>,
}

hostcc_sim::snap_fields!(CounterRegistry { values, baseline } blank { CounterRegistry::default() });

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set (upsert) a counter's current lifetime value.
    pub fn set(&mut self, name: &str, value: u64) {
        match self.values.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.values.insert(name.to_string(), value);
            }
        }
    }

    /// Record current values as the measurement baseline (call at the end
    /// of warm-up, after the counters were set).
    pub fn mark_baseline(&mut self) {
        self.baseline = self.values.clone();
    }

    /// A counter's lifetime value (0 when absent).
    pub fn lifetime(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// A counter's value since the baseline (saturating; 0 when absent).
    pub(crate) fn since_baseline(&self, name: &str) -> u64 {
        let now = self.lifetime(name);
        let base = self.baseline.get(name).copied().unwrap_or(0);
        now.saturating_sub(base)
    }

    /// All counters as `(name, since_baseline)` pairs in name order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.values
            .keys()
            .map(|k| (k.clone(), self.since_baseline(k)))
            .collect()
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no counters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_and_snapshot() {
        let mut reg = CounterRegistry::new();
        reg.set("dev.hits", 10);
        reg.set("dev.misses", 2);
        assert_eq!(reg.lifetime("dev.hits"), 10);
        reg.mark_baseline();
        reg.set("dev.hits", 25);
        reg.set("dev.misses", 2);
        assert_eq!(reg.since_baseline("dev.hits"), 15);
        assert_eq!(reg.since_baseline("dev.misses"), 0);
        let snap = reg.snapshot();
        assert_eq!(
            snap,
            vec![("dev.hits".to_string(), 15), ("dev.misses".to_string(), 0)]
        );
    }

    #[test]
    fn absent_counters_read_zero() {
        let reg = CounterRegistry::new();
        assert_eq!(reg.lifetime("nope"), 0);
        assert_eq!(reg.since_baseline("nope"), 0);
        assert!(reg.is_empty());
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let mut reg = CounterRegistry::new();
        reg.set("z.last", 1);
        reg.set("a.first", 2);
        reg.set("m.middle", 3);
        let names: Vec<String> = reg.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.first", "m.middle", "z.last"]);
    }
}
