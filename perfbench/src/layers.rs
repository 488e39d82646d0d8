//! Per-layer measurement from outside the program: wall-clock spans
//! around calls into each layer's public functions, and deltas of the
//! counters the program already keeps in `rqp_obs::global()`.

use rqp_obs::names;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric a `--trace 1` run reports, with its unit. A
/// workload that makes no call into a layer reports that layer's metrics
/// as 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("optimizer.calls", "count"),
    ("optimizer.busy_s", "s"),
    ("optimizer.dp_entries", "count"),
    ("ess.posp_s", "s"),
    ("ess.recost_useful_ratio", "ratio"),
    ("ess.contours_s", "s"),
    ("ess.anorexic_s", "s"),
    ("ess.lazy_begin_ms", "ms"),
    ("ess.first_band_ms", "ms"),
    ("ess.restore_ms", "ms"),
    ("ess.snapshot_bytes", "bytes"),
    ("core.discover_us.pb", "us"),
    ("core.discover_us.sb", "us"),
    ("core.discover_us.ab", "us"),
    ("core.steps_per_run", "count"),
    ("core.supervisor_retries", "count"),
    ("executor.budgeted", "count"),
    ("executor.spill", "count"),
    ("executor.completed_ratio", "ratio"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.registry_lookup_ms", "ms"),
    ("serve.registry_hit_ratio", "ratio"),
    ("serve.discovery_ms", "ms"),
    ("transport.delivery_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.frames_per_session", "count"),
    ("wire.bytes_per_session", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The per-layer metric of one discovery algorithm (`PB`, `sb`, ...).
pub fn discover_metric(algo: &str) -> &'static str {
    match algo.to_ascii_lowercase().as_str() {
        "pb" => "core.discover_us.pb",
        "sb" => "core.discover_us.sb",
        _ => "core.discover_us.ab",
    }
}

/// The per-layer values of one traced run, every metric present and
/// defaulting to 0.
#[derive(Debug, Clone)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// All metrics at 0.
    pub fn new() -> Self {
        LayerValues(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Set one metric; the name must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.contains_key(name), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    /// `(name, value, unit)` in table order.
    pub fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|&(name, unit)| (name, self.0[name], unit)).collect()
    }

    /// Record the optimizer and ESS-compile counters and timings of one
    /// compile phase. The POSP and contour times come from the histograms
    /// the ESS layer keeps around `Posp::compile_with` and
    /// `ContourSet::build`.
    pub fn set_compile_counters(&mut self, d: &Counters) {
        self.set("optimizer.calls", d.get(names::OPTIMIZER_CALLS) as f64);
        self.set("optimizer.busy_s", d.hist_sum(names::OPTIMIZER_OPTIMIZE_SECONDS));
        self.set("optimizer.dp_entries", d.get(names::OPTIMIZER_DP_ENTRIES) as f64);
        self.set("ess.posp_s", d.hist_sum(names::ESS_POSP_COMPILE_SECONDS));
        self.set("ess.contours_s", d.hist_sum(names::ESS_CONTOUR_BUILD_SECONDS));
        let recost = d.get(names::ESS_RECOST_CELLS) as f64;
        let fallback = d.get(names::ESS_RECOST_FALLBACK_CELLS) as f64;
        self.set("ess.recost_useful_ratio", ratio(recost, recost + fallback));
    }

    /// Record the discovery, supervisor and executor counters of a phase,
    /// each divided by `units` (passes or sessions).
    pub fn set_discovery_counters(&mut self, d: &Counters, units: f64) {
        let runs = d.get(names::DISCOVERY_RUNS) as f64;
        self.set("core.steps_per_run", ratio(d.get(names::DISCOVERY_STEPS) as f64, runs));
        self.set("core.supervisor_retries", ratio(d.get(names::SUPERVISOR_RETRIES) as f64, units));
        let budgeted = d.get(names::EXEC_BUDGETED) as f64;
        self.set("executor.budgeted", ratio(budgeted, units));
        self.set("executor.spill", ratio(d.get(names::EXEC_SPILL) as f64, units));
        self.set(
            "executor.completed_ratio",
            ratio(d.get(names::EXEC_BUDGETED_COMPLETED) as f64, budgeted),
        );
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Make every series the layers publish exist, so deltas read 0 rather
/// than missing before a layer's first call.
pub fn register_all() {
    rqp_optimizer::register_metrics();
    rqp_executor::register_metrics();
    rqp_ess::register_metrics();
    rqp_core::register_metrics();
    rqp_serve::register_metrics();
}

/// A reading of the global counters and histogram sums.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    counters: BTreeMap<String, u64>,
    hist_sums: BTreeMap<String, f64>,
}

impl Counters {
    /// Read the global registry now.
    pub fn read() -> Counters {
        let snap = rqp_obs::global().snapshot();
        Counters {
            counters: snap.counters,
            hist_sums: snap.histograms.into_iter().map(|(k, h)| (k, h.sum)).collect(),
        }
    }

    /// What changed between `earlier` and this reading.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v - earlier.counters.get(k).copied().unwrap_or(0)))
                .collect(),
            hist_sums: self
                .hist_sums
                .iter()
                .map(|(k, &v)| (k.clone(), v - earlier.hist_sums.get(k).copied().unwrap_or(0.0)))
                .collect(),
        }
    }

    /// A counter summed over all its label sets (`base` and `base{…}`).
    pub fn get(&self, base: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| is_series_of(k, base)).map(|(_, &v)| v).sum()
    }

    /// A histogram's sum, over all its label sets.
    pub fn hist_sum(&self, base: &str) -> f64 {
        self.hist_sums.iter().filter(|(k, _)| is_series_of(k, base)).map(|(_, &v)| v).sum()
    }
}

fn is_series_of(series: &str, base: &str) -> bool {
    series.strip_prefix(base).is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
}

/// Wall-clock time spent in named calls, accumulated across calls.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    secs: BTreeMap<&'static str, (f64, u64)>,
}

impl Spans {
    /// Time one call under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    /// Account `secs` of one call under `name`.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        let e = self.secs.entry(name).or_insert((0.0, 0));
        e.0 += secs;
        e.1 += 1;
    }

    /// Fold another set of spans into this one.
    pub fn merge(&mut self, other: &Spans) {
        for (&name, &(secs, calls)) in &other.secs {
            let e = self.secs.entry(name).or_insert((0.0, 0));
            e.0 += secs;
            e.1 += calls;
        }
    }

    /// Seconds spent under `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.secs.get(name).map_or(0.0, |e| e.0)
    }

    /// Mean seconds per call under `name` (0 without calls).
    pub fn mean(&self, name: &str) -> f64 {
        self.secs.get(name).map_or(0.0, |&(s, n)| ratio(s, n as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labelled_series_sum_under_their_base() {
        assert!(is_series_of("rqp_x_total", "rqp_x_total"));
        assert!(is_series_of("rqp_x_total{algo=\"SB\"}", "rqp_x_total"));
        assert!(!is_series_of("rqp_x_total_more", "rqp_x_total"));
    }

    #[test]
    fn every_per_layer_metric_defaults_to_zero() {
        let v = LayerValues::new();
        assert_eq!(v.entries().len(), PER_LAYER.len());
        assert!(v.entries().iter().all(|&(_, value, _)| value == 0.0));
    }
}
