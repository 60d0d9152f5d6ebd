//! The metrics registry: monotonic counters, gauges, and histograms
//! with fixed log2 buckets, keyed by metric name plus a sorted label
//! set (e.g. `query=Q8, mode=GPL, device=AMD A10-7850K`). Storage is a
//! `BTreeMap`, so iteration — and therefore every export — is in a
//! deterministic order independent of insertion order.

use crate::json::Json;
use std::collections::BTreeMap;

/// A metric identity: name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// Histogram with fixed log2 buckets: bucket `i` counts values `v` with
/// `floor(log2(v)) == i - 1`, i.e. bucket 0 holds `v == 0`, bucket 1
/// holds `v == 1`, bucket 2 holds `2..=3`, and so on up to `u64::MAX`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// 65 buckets cover the whole u64 range.
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; 65],
        }
    }
}

impl Histogram {
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Nearest-rank percentile (`q` in `0..=100`) read off the log2
    /// buckets: the upper edge of the bucket holding the rank-th
    /// observation, clamped to the observed `[min, max]`. Exact for the
    /// extremes; within a factor of 2 in between (the bucket width).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Bucket index for a value: 0 for 0, otherwise `1 + floor(log2(v))`.
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Lower inclusive bound of bucket `i` (for reports).
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// The registry. All mutation is through the typed helpers; a metric's
/// kind is fixed by its first use (a kind mismatch panics — it is a
/// programming error, not a data error).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<MetricKey, Metric>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to a monotonic counter (creating it at zero).
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        match self
            .metrics
            .entry(MetricKey::new(name, labels))
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(v) => *v += delta,
            other => panic!("{name} is not a counter: {other:?}"),
        }
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        match self
            .metrics
            .entry(MetricKey::new(name, labels))
            .or_insert(Metric::Gauge(0.0))
        {
            Metric::Gauge(v) => *v = value,
            other => panic!("{name} is not a gauge: {other:?}"),
        }
    }

    /// Record one observation into a log2-bucketed histogram.
    pub fn histogram_observe(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        match self
            .metrics
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.observe(value),
            other => panic!("{name} is not a histogram: {other:?}"),
        }
    }

    /// Read back a metric (mostly for tests).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        self.metrics.get(&MetricKey::new(name, labels))
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterate in key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &Metric)> {
        self.metrics.iter()
    }

    /// Flat JSON report: one entry per metric, sorted by key, each with
    /// its labels, kind and value(s). Histograms list only non-empty
    /// buckets as `[lower_bound, count]` pairs.
    pub fn to_json(&self) -> Json {
        let mut out = Vec::with_capacity(self.metrics.len());
        for (key, metric) in &self.metrics {
            let labels = Json::Obj(
                key.labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            );
            let mut entry = vec![("name".to_string(), Json::Str(key.name.clone()))];
            entry.push(("labels".to_string(), labels));
            match metric {
                Metric::Counter(v) => {
                    entry.push(("kind".to_string(), Json::Str("counter".into())));
                    entry.push(("value".to_string(), Json::Int(*v as i64)));
                }
                Metric::Gauge(v) => {
                    entry.push(("kind".to_string(), Json::Str("gauge".into())));
                    entry.push(("value".to_string(), Json::Num(*v)));
                }
                Metric::Histogram(h) => {
                    entry.push(("kind".to_string(), Json::Str("histogram".into())));
                    entry.push(("count".to_string(), Json::Int(h.count as i64)));
                    entry.push(("sum".to_string(), Json::Int(h.sum as i64)));
                    entry.push((
                        "min".to_string(),
                        Json::Int(if h.count == 0 { 0 } else { h.min as i64 }),
                    ));
                    entry.push(("max".to_string(), Json::Int(h.max as i64)));
                    let buckets: Vec<Json> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| {
                            Json::Arr(vec![Json::Int(bucket_lo(i) as i64), Json::Int(c as i64)])
                        })
                        .collect();
                    entry.push(("log2_buckets".to_string(), Json::Arr(buckets)));
                }
            }
            out.push(Json::Obj(entry));
        }
        Json::Arr(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_label_keyed() {
        let mut r = MetricsRegistry::new();
        r.counter_add("launches", &[("mode", "KBE")], 2);
        r.counter_add("launches", &[("mode", "KBE")], 3);
        r.counter_add("launches", &[("mode", "GPL")], 1);
        assert_eq!(
            r.get("launches", &[("mode", "KBE")]),
            Some(&Metric::Counter(5))
        );
        assert_eq!(
            r.get("launches", &[("mode", "GPL")]),
            Some(&Metric::Counter(1))
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut r = MetricsRegistry::new();
        r.counter_add("c", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("c", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.get("c", &[("b", "2"), ("a", "1")]),
            Some(&Metric::Counter(2))
        );
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(2), 2);
        assert_eq!(bucket_lo(3), 4);

        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 7, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1037);
        assert_eq!((h.min, h.max), (0, 1024));
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[11], 1);
    }

    #[test]
    fn json_report_is_sorted_and_parses() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("occupancy", &[("q", "Q8")], 0.52);
        r.counter_add("cycles", &[("q", "Q8")], 1234);
        r.histogram_observe("span", &[], 100);
        let j = r.to_json();
        let text = j.to_string();
        let back = crate::parse::parse(&text).unwrap();
        let arr = back.as_arr().unwrap();
        // BTreeMap order: cycles < occupancy < span.
        let names: Vec<_> = arr
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["cycles", "occupancy", "span"]);
    }

    #[test]
    fn percentiles_are_nearest_rank_over_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0, "empty histogram");
        for v in 1..=100u64 {
            h.observe(v);
        }
        // Ranks 50/95/99 land in buckets [32,63] / [64,127] / [64,127];
        // upper edges clamp to the observed max of 100.
        assert_eq!(h.percentile(50.0), 63);
        assert_eq!(h.percentile(95.0), 100);
        assert_eq!(h.percentile(99.0), 100);
        // A single observation is every percentile.
        let mut one = Histogram::default();
        one.observe(42);
        assert_eq!(one.percentile(50.0), 42);
        assert_eq!(one.percentile(99.0), 42);
        // All-zero observations stay at zero.
        let mut z = Histogram::default();
        z.observe(0);
        z.observe(0);
        assert_eq!(z.percentile(95.0), 0);
        // The top bucket's edge clamps to max, not u64::MAX.
        let mut big = Histogram::default();
        big.observe(u64::MAX - 3);
        assert_eq!(big.percentile(50.0), u64::MAX - 3);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("x", &[], 1.0);
        r.counter_add("x", &[], 1);
    }
}
