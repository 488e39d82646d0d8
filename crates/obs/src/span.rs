//! Histogram bucket layouts for the timings [`crate::SpanGuard`] observes.

use crate::metrics::exponential_buckets;

/// Default latency bucket bounds: 1µs to ~268ms in ×4 steps (14 buckets
/// plus the implicit overflow bucket). Wide enough to span a single plan
/// costing up to a full ESS compile band.
pub fn default_latency_buckets() -> Vec<f64> {
    exponential_buckets(1e-6, 4.0, 14)
}

/// Bucket bounds for compile-scale latencies: 1ms to ~1049s in ×4 steps
/// (11 buckets plus the implicit overflow bucket). [`default_latency_buckets`]
/// tops out near 268ms, so cold 4D+ ESS compiles — multi-second in
/// BENCH_4.json — would otherwise land entirely in the overflow bucket;
/// use these at compile and serve-session registration sites.
pub fn default_compile_buckets() -> Vec<f64> {
    exponential_buckets(1e-3, 4.0, 11)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_buckets_cover_cold_multi_second_compiles() {
        let b = default_compile_buckets();
        let top = b.last().copied().unwrap_or(0.0);
        assert!(top >= 1000.0, "compile buckets must reach ~1000s, got {top}");
        assert!(b[0] <= 1e-3);
        // The latency buckets top out far below the compile buckets.
        let lat_top = default_latency_buckets().last().copied().unwrap_or(0.0);
        assert!(
            lat_top < top / 10.0,
            "latency ceiling {lat_top} too close to compile ceiling {top}"
        );
    }
}
