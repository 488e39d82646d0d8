#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! The error-prone selectivity space (ESS): grid, POSP compilation,
//! iso-cost contours and anorexic reduction.
//!
//! [`Ess::compile`] bundles the full pipeline: discretize the selectivity
//! space ([`grid::Grid`]), invoke the optimizer over the grid
//! ([`lazy::LazyEss`], run through its top band), canonicalize the optimal
//! plans and costs into a [`posp::Posp`], and slice that optimal cost
//! surface into geometric cost bands ([`contours::ContourSet`]). The same
//! compiler can also stop early and serve bands on demand. The robust
//! processing algorithms in `rqp-core` run entirely against these
//! structures.

pub mod anorexic;
pub mod cache;
pub mod contours;
pub mod grid;
pub mod lazy;
pub mod obs;
pub mod posp;
pub mod registry;
pub mod snapshot;

pub use anorexic::{anorexic_reduce, Reduced};
pub use cache::{clear_global_cache_dir, compile_fingerprint, set_global_cache_dir, CompileCache};
pub use contours::ContourSet;
pub use grid::{Cell, Grid};
pub use lazy::LazyEss;
pub use obs::register_metrics;
pub use posp::{CompileMode, Posp};
pub use registry::{PlanId, PlanRegistry};
pub use snapshot::PospSnapshot;

use rqp_catalog::RqpResult;
use rqp_optimizer::Optimizer;
use std::sync::Arc;

/// ESS compilation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EssConfig {
    /// Grid points per dimension.
    pub resolution: usize,
    /// Smallest grid selectivity (axes run log-spaced from here to 1.0).
    pub min_sel: f64,
    /// Geometric cost ratio between consecutive contours (paper default 2).
    pub contour_ratio: f64,
    /// How the optimal-plan surface is computed (recosting-first by
    /// default; see [`CompileMode`]).
    pub mode: CompileMode,
}

impl Default for EssConfig {
    fn default() -> Self {
        EssConfig {
            resolution: 16,
            min_sel: 1e-5,
            contour_ratio: 2.0,
            mode: CompileMode::default(),
        }
    }
}

impl EssConfig {
    /// A resolution schedule that keeps `resolution^D` tractable while the
    /// experiments sweep dimensionality: 2D:48, 3D:24, 4D:14, 5D:10, 6D:8.
    pub fn for_dims(dims: usize) -> Self {
        let resolution = match dims {
            0 | 1 => 64,
            2 => 48,
            3 => 24,
            4 => 14,
            5 => 10,
            _ => 8,
        };
        EssConfig { resolution, ..Default::default() }
    }

    /// Same schedule scaled down for unit tests and CI.
    pub fn coarse(dims: usize) -> Self {
        let resolution = match dims {
            0 | 1 => 24,
            2 => 16,
            3 => 10,
            4 => 7,
            5 => 6,
            _ => 5,
        };
        EssConfig { resolution, ..Default::default() }
    }
}

/// A fully compiled ESS: POSP surface plus contour bands.
#[derive(Debug, Clone)]
pub struct Ess {
    /// The compiled optimal-plan surface.
    pub posp: Posp,
    /// The iso-cost contour bands.
    pub contours: ContourSet,
}

impl Ess {
    /// Compile the ESS for the optimizer's query, consulting the
    /// process-wide persistent cache if one was installed via
    /// [`set_global_cache_dir`].
    ///
    /// Errors if the configured grid is degenerate or too large to address.
    pub fn compile(optimizer: &Optimizer<'_>, config: EssConfig) -> RqpResult<Arc<Ess>> {
        Ess::compile_cached(optimizer, config, cache::global_cache().as_ref())
    }

    /// Compile the ESS, consulting an explicit persistent cache (if any).
    ///
    /// On a hit, the surface is restored from disk without a single
    /// optimizer call; a miss runs [`LazyEss`] to completion and stores
    /// the snapshot for the next run. Entries are keyed by
    /// [`compile_fingerprint`], so any change to the catalog, query, cost
    /// model or config invalidates them. The compile plans with the
    /// optimizer's catalog, query and cost model under the default
    /// optimizer configuration.
    pub fn compile_cached(
        optimizer: &Optimizer<'_>,
        config: EssConfig,
        cache: Option<&CompileCache>,
    ) -> RqpResult<Arc<Ess>> {
        let m = obs::metrics();
        m.compiles.inc();
        let mut compile_span = rqp_obs::current()
            .span(rqp_obs::names::SPAN_ESS_COMPILE, rqp_obs::SpanKind::Compile)
            .with_histogram(&m.compile_seconds);
        compile_span.attr("query", optimizer.query().name.as_str());
        let opt_calls = rqp_obs::global().counter(rqp_obs::names::OPTIMIZER_CALLS);
        let calls_before = opt_calls.get();

        let fingerprint = cache.map(|_| {
            compile_fingerprint(optimizer.catalog(), optimizer.query(), &optimizer.model(), &config)
        });
        if let (Some(cache), Some(fp)) = (cache, fingerprint) {
            if let Some(ess) = cache.load(fp).and_then(|snap| snap.restore().ok()) {
                m.cache_hits.inc();
                compile_span.attr("cache", "hit");
                m.grid_cells.set(ess.posp.grid().num_cells() as f64);
                m.contour_bands.set(ess.contours.num_bands() as f64);
                m.posp_plans.set(ess.posp.num_plans() as f64);
                let seconds = compile_span.close();
                if rqp_obs::events_enabled() {
                    rqp_obs::emit(
                        rqp_obs::Event::new(rqp_obs::names::EV_ESS_CACHE)
                            .with("query", optimizer.query().name.as_str())
                            .with("outcome", "hit")
                            .with("seconds", seconds),
                    );
                }
                return Ok(Arc::new(ess));
            }
            m.cache_misses.inc();
            if rqp_obs::events_enabled() {
                rqp_obs::emit(
                    rqp_obs::Event::new(rqp_obs::names::EV_ESS_CACHE)
                        .with("query", optimizer.query().name.as_str())
                        .with("outcome", "miss"),
                );
            }
        }

        let lazy = {
            let _posp = rqp_obs::SpanGuard::histogram_only(&m.posp_compile_seconds);
            let (catalog, query) = (optimizer.catalog(), optimizer.query());
            let lazy = LazyEss::anchor(catalog, query, optimizer.model(), config)?;
            m.posp_cells.add(lazy.grid().num_cells() as u64);
            lazy.compile_through(lazy.num_bands() - 1);
            lazy
        };
        let ess = lazy.finish()?;
        // the finished surface owns everything it needs; free the frontier
        drop(lazy);
        let (posp, contours) = (&ess.posp, &ess.contours);

        compile_span.attr("grid_cells", posp.grid().num_cells() as u64);
        compile_span.attr("posp_plans", posp.num_plans() as u64);
        compile_span.attr("contour_bands", contours.num_bands() as u64);
        compile_span.attr("optimizer_calls", opt_calls.get() - calls_before);
        m.grid_cells.set(posp.grid().num_cells() as f64);
        m.contour_bands.set(contours.num_bands() as f64);
        m.posp_plans.set(posp.num_plans() as f64);

        if let (Some(cache), Some(fp)) = (cache, fingerprint) {
            if cache.store(fp, &PospSnapshot::capture(&ess)).is_ok() {
                m.cache_stores.inc();
            }
        }
        let seconds = compile_span.close();
        if rqp_obs::events_enabled() {
            for band in 0..contours.num_bands() {
                rqp_obs::emit(
                    rqp_obs::Event::new(rqp_obs::names::EV_CONTOUR_BAND)
                        .with("query", optimizer.query().name.as_str())
                        .with("band", band as u64)
                        .with("cost", contours.cc(band))
                        .with("cells", contours.cells(band).len() as u64)
                        .with("plans", contours.plans_on(posp, band).len() as u64),
                );
            }
            rqp_obs::emit(
                rqp_obs::Event::new(rqp_obs::names::EV_ESS_COMPILE)
                    .with("query", optimizer.query().name.as_str())
                    .with("dims", posp.grid().dims() as u64)
                    .with("resolution", config.resolution as u64)
                    .with("grid_cells", posp.grid().num_cells() as u64)
                    .with("posp_plans", posp.num_plans() as u64)
                    .with("contour_bands", contours.num_bands() as u64)
                    .with("optimizer_calls", opt_calls.get() - calls_before)
                    .with("compile_seconds", seconds),
            );
        }
        Ok(ess)
    }

    /// The grid underlying the space.
    pub fn grid(&self) -> &Grid {
        self.posp.grid()
    }
}

/// Compile `opt`'s surface in [`CompileMode::Exact`] on a fresh grid, for
/// the unit-test fixtures.
#[cfg(test)]
pub(crate) fn compile_exact(opt: &Optimizer<'_>, resolution: usize, min_sel: f64) -> Ess {
    let config = EssConfig { mode: CompileMode::Exact, resolution, min_sel, ..Default::default() };
    Arc::unwrap_or_clone(Ess::compile_cached(opt, config, None).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder};
    use rqp_qplan::CostModel;

    /// A one-EPP two-table join.
    fn join_fixture() -> (Catalog, Query) {
        let catalog = CatalogBuilder::new()
            .relation(
                RelationBuilder::new("a", 1_000_000).indexed_column("k", 1_000_000, 8).build(),
            )
            .relation(
                RelationBuilder::new("b", 8_000_000).indexed_column("k", 1_000_000, 8).build(),
            )
            .build();
        let query = QueryBuilder::new(&catalog, "t")
            .table("a")
            .table("b")
            .epp_join("a", "k", "b", "k")
            .build()
            .unwrap();
        (catalog, query)
    }

    #[test]
    fn end_to_end_compile() {
        let (catalog, query) = join_fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let ess = Ess::compile(&opt, EssConfig { resolution: 20, ..Default::default() }).unwrap();
        assert_eq!(ess.grid().dims(), 1);
        assert_eq!(ess.grid().num_cells(), 20);
        assert!(ess.contours.num_bands() >= 2);
        assert!(ess.posp.num_plans() >= 1);
    }

    #[test]
    fn a_traced_compile_records_one_band_span_per_band() {
        let (catalog, query) = join_fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let tracer = rqp_obs::Tracer::new(7, 0);
        let ess = {
            let _scope = rqp_obs::install(tracer.clone());
            let config =
                EssConfig { mode: CompileMode::Exact, resolution: 20, ..Default::default() };
            Ess::compile_cached(&opt, config, None).unwrap()
        };
        let spans = tracer.spans();
        let compile: Vec<_> =
            spans.iter().filter(|s| s.name == rqp_obs::names::SPAN_ESS_COMPILE).collect();
        assert_eq!(compile.len(), 1);
        let bands: Vec<_> =
            spans.iter().filter(|s| s.name == rqp_obs::names::SPAN_ESS_BAND_COMPILE).collect();
        assert_eq!(bands.len(), ess.contours.num_bands(), "one span per band");
        for (k, span) in bands.iter().enumerate() {
            assert_eq!(span.kind, rqp_obs::SpanKind::CompilePhase);
            assert_eq!(span.parent_id, Some(compile[0].span_id));
            assert_eq!(span.attr("band").and_then(|v| v.as_u64()), Some(k as u64));
            let cells = ess.contours.cells(k).len() as u64;
            assert_eq!(span.attr("cells").and_then(|v| v.as_u64()), Some(cells), "band {k}");
        }
    }

    #[test]
    fn resolution_schedules_shrink_with_dims() {
        assert!(EssConfig::for_dims(2).resolution > EssConfig::for_dims(5).resolution);
        assert!(EssConfig::coarse(3).resolution < EssConfig::for_dims(3).resolution);
    }
}
