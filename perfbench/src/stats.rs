//! Percentile helpers shared by every workload.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, always with its
//! sample count. The spread of a metric over whole runs is computed by
//! `spread.py`, not here.

use std::collections::BTreeMap;

/// Samples a percentile must have beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The percentiles a timing may report, lowest first.
const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(n, p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The percentiles of the ladder that `n` samples support: each has at
/// least [`TAIL_SAMPLES`] samples beyond its rank.
pub fn supported_percentiles(n: usize) -> Vec<f64> {
    LADDER.iter().copied().filter(|&p| n >= rank(n, p) + TAIL_SAMPLES).collect()
}

/// Median of unsorted values (mean of the middle pair for even counts,
/// as Python's `statistics.median`). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A set of latency samples, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Timing {
    samples: Vec<f64>,
}

impl Timing {
    /// An empty timing.
    pub fn new() -> Self {
        Timing::default()
    }

    /// Record one sample.
    pub fn push(&mut self, secs: f64) {
        self.samples.push(secs);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Add every sample of `other`.
    pub fn append(&mut self, other: &Timing) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Median sample (`None` when empty).
    pub fn median(&self) -> Option<f64> {
        median(&self.samples)
    }

    /// Smallest sample (`None` when empty).
    pub fn fastest(&self) -> Option<f64> {
        self.samples.iter().copied().min_by(f64::total_cmp)
    }

    /// Nearest-rank percentile in seconds (`None` when empty).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        percentile(&self.sorted(), p)
    }

    /// One report line: every supported percentile scaled by `scale`
    /// (e.g. 1e3 for milliseconds), then the sample count.
    pub fn describe(&self, name: &str, unit: &str, scale: f64) -> String {
        let sorted = self.sorted();
        let mut parts = Vec::new();
        for p in supported_percentiles(sorted.len()) {
            if let Some(v) = percentile(&sorted, p) {
                parts.push(format!("p{}={:.4}", pct_label(p), v * scale));
            }
        }
        if parts.is_empty() {
            if let Some(v) = median(&sorted) {
                parts.push(format!("median={:.4} (too few samples for a percentile)", v * scale));
            }
        }
        format!("{name}: {} {unit} (n={})", parts.join(" "), sorted.len())
    }
}

/// The fastest time seen for each repeated item.
///
/// The host's CPU speed swings by well over 1.5x within seconds (on the
/// 2-vCPU reference host a fixed Python loop takes anywhere from 0.10 to
/// 0.18 s), so the minimum over an item's repeats is the figure that
/// noise cannot inflate. Medians of the raw samples are reported beside
/// it.
#[derive(Debug, Clone)]
pub struct Fastest<K: Ord>(BTreeMap<K, f64>);

impl<K: Ord> Default for Fastest<K> {
    fn default() -> Self {
        Fastest(BTreeMap::new())
    }
}

impl<K: Ord> Fastest<K> {
    /// Record one sample of `key`.
    pub fn record(&mut self, key: K, secs: f64) {
        let e = self.0.entry(key).or_insert(f64::INFINITY);
        *e = e.min(secs);
    }

    /// Sum of every item's fastest time.
    pub fn total(&self) -> f64 {
        self.0.values().sum()
    }

    /// Every item's fastest time, as a timing.
    pub fn timing(&self) -> Timing {
        Timing { samples: self.0.values().copied().collect() }
    }
}

/// `0.5` → `"50"`, `0.999` → `"99.9"`.
fn pct_label(p: f64) -> String {
    let s = format!("{:.1}", p * 100.0);
    s.strip_suffix(".0").map_or(s.clone(), str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.01), Some(1.0));
    }

    #[test]
    fn percentile_ladder_needs_ten_samples_beyond() {
        assert!(supported_percentiles(19).is_empty());
        assert_eq!(supported_percentiles(20), vec![0.5]);
        assert_eq!(supported_percentiles(99), vec![0.5]);
        assert_eq!(supported_percentiles(100), vec![0.5, 0.9]);
        assert_eq!(supported_percentiles(999), vec![0.5, 0.9]);
        assert_eq!(supported_percentiles(1000), vec![0.5, 0.9, 0.99]);
        assert_eq!(supported_percentiles(10_000), vec![0.5, 0.9, 0.99, 0.999]);
    }

    #[test]
    fn median_takes_the_middle_pair_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fastest_keeps_each_items_minimum() {
        let mut f = Fastest::default();
        for (k, v) in [("a", 3.0), ("b", 2.0), ("a", 1.0), ("b", 5.0)] {
            f.record(k, v);
        }
        assert_eq!(f.total(), 3.0);
        assert_eq!(f.timing().median(), Some(1.5));
    }

    #[test]
    fn timing_lines_carry_the_sample_count() {
        let mut t = Timing::new();
        for i in 1..=100 {
            t.push(f64::from(i) / 1000.0);
        }
        assert_eq!(t.describe("x", "ms", 1e3), "x: p50=50.0000 p90=90.0000 ms (n=100)");
        assert_eq!(t.fastest(), Some(0.001));
        assert_eq!(Timing::new().fastest(), None);
        let mut few = Timing::new();
        few.push(0.002);
        assert_eq!(
            few.describe("y", "ms", 1e3),
            "y: median=2.0000 (too few samples for a percentile) ms (n=1)"
        );
    }
}
