//! The shared runtime every robust algorithm executes against.

use rqp_catalog::{Catalog, Estimator, Query, RqpError, RqpResult, SelVector};
use rqp_ess::{Cell, Ess, EssConfig, Grid, LazyEss, PlanId};
use rqp_executor::Engine;
use rqp_optimizer::Optimizer;
use rqp_qplan::{CostModel, PlanNode};
use std::sync::Arc;

/// The compiled selectivity surface a runtime executes against: either a
/// finished [`Ess`] (eager compile, the pre-lazy behaviour) or a
/// [`LazyEss`] that materializes contour bands on demand. Discovery
/// algorithms only talk to the [`RobustRuntime`] facade, so they pull
/// bands as the doubling walk reaches them — a discovery that terminates
/// on contour `k` never pays for compiling bands above `k`.
enum Surface {
    /// A fully compiled surface (shared across sessions by the serve
    /// registry).
    Eager(Arc<Ess>),
    /// A band-by-band anytime surface; bands above the compile frontier
    /// are costed only when something asks for them.
    Lazy(Arc<LazyEss>),
}

/// A query admitted for robust processing: catalog, query, optimizer,
/// simulated execution engine, and the compiled ESS (POSP + contours).
///
/// Compiling the runtime performs the offline work of §7 ("construction of
/// the contours in the ESS … repeated calls to the optimizer … can be
/// carried out in parallel"); everything the discovery algorithms do at
/// "run-time" is lookups into this structure plus budgeted executions.
/// With [`RobustRuntime::compile_lazy`] that offline work is deferred:
/// only the two ladder anchors are costed up front and each contour band
/// is flooded the first time discovery (or a prefetch) asks for it.
///
/// The surface is held behind an [`Arc`] so many concurrent sessions (the
/// `rqp-serve` registry) can share one compiled surface; discovery runs
/// only read it, so sharing is free.
pub struct RobustRuntime<'a> {
    /// Catalog statistics.
    pub catalog: &'a Catalog,
    /// The user query.
    pub query: &'a Query,
    /// The DP optimizer bound to the query.
    pub optimizer: Optimizer<'a>,
    /// The simulated execution engine.
    pub engine: Engine<'a>,
    /// The compiled (or lazily compiling) error-prone selectivity space.
    surface: Surface,
    /// The native optimizer's estimated ESS location `qe`, computed once at
    /// admission so run-time discovery never has to re-estimate (and never
    /// has to handle estimation failure).
    qe: SelVector,
    /// Retry policy every discovery run's [`crate::Supervisor`] starts
    /// from.
    retry: crate::supervise::RetryPolicy,
    /// Session deadline threaded into every discovery run's supervisor
    /// (serving tier); [`rqp_obs::Deadline::none`] — the default — never
    /// lapses.
    deadline: rqp_obs::Deadline,
}

impl<'a> RobustRuntime<'a> {
    /// Compile the runtime eagerly: build the optimizer, the engine, and
    /// the full ESS before returning.
    ///
    /// Errors if the query has no error-prone predicates (there is nothing
    /// to discover), fails validation, or requests an unrepresentable ESS
    /// grid.
    pub fn compile(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        config: EssConfig,
    ) -> RqpResult<Self> {
        Self::admit(catalog, query, model, |optimizer| {
            Ok(Surface::Eager(Ess::compile(optimizer, config)?))
        })
    }

    /// Admit the query against a *lazy anytime* surface: only the ladder
    /// anchors (origin and terminus) are costed now; each contour band is
    /// flooded the first time the discovery walk, an oracle peek, or a
    /// [`RobustRuntime::prefetch_band`] reaches it.
    pub fn compile_lazy(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        config: EssConfig,
    ) -> RqpResult<Self> {
        Self::admit(catalog, query, model, |_| {
            Ok(Surface::Lazy(LazyEss::begin(catalog, query, model, config)?))
        })
    }

    /// Admit a session against an ESS compiled elsewhere (the serve
    /// registry's shared, fingerprint-keyed surfaces). The ESS must have
    /// been compiled for this same (catalog, query, model) triple; the
    /// dimension check below catches gross mismatches, the fingerprint
    /// keying upstream is what guarantees the rest.
    pub fn with_shared_ess(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        ess: Arc<Ess>,
    ) -> RqpResult<Self> {
        Self::admit(catalog, query, model, |_| {
            if ess.grid().dims() != query.dims() {
                return Err(RqpError::DimensionMismatch {
                    expected: query.dims(),
                    got: ess.grid().dims(),
                });
            }
            Ok(Surface::Eager(ess))
        })
    }

    /// Admit a session against a lazy surface compiling elsewhere (the
    /// serve registry's incremental snapshots): peers share one frontier,
    /// and each session's discovery walk only waits for the bands it
    /// actually pulls.
    pub fn with_shared_lazy(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        lazy: Arc<LazyEss>,
    ) -> RqpResult<Self> {
        Self::admit(catalog, query, model, |_| {
            if lazy.grid().dims() != query.dims() {
                return Err(RqpError::DimensionMismatch {
                    expected: query.dims(),
                    got: lazy.grid().dims(),
                });
            }
            Ok(Surface::Lazy(lazy))
        })
    }

    fn admit(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        surface_for: impl FnOnce(&Optimizer<'a>) -> RqpResult<Surface>,
    ) -> RqpResult<Self> {
        if query.dims() < 1 {
            return Err(RqpError::InvalidQuery(format!(
                "query {} has no error-prone predicates",
                query.name
            )));
        }
        query.validate(catalog)?;
        let qe = Estimator::new(catalog).estimated_location(query)?;
        let optimizer = Optimizer::new(catalog, query, model);
        let engine = Engine::new(catalog, query, model);
        let surface = surface_for(&optimizer)?;
        // a lazy surface has no finished contour set to check yet; its
        // bands are checked incrementally as the budget checks fire
        if let Surface::Eager(ess) = &surface {
            crate::invariants::debug_check_contours(ess);
        }
        Ok(RobustRuntime {
            catalog,
            query,
            optimizer,
            engine,
            surface,
            qe,
            retry: crate::supervise::RetryPolicy::default(),
            deadline: rqp_obs::Deadline::none(),
        })
    }

    /// Number of ESS dimensions, `D`.
    pub fn dims(&self) -> usize {
        self.query.dims()
    }

    /// The estimated ESS location `qe` (the traditional optimizer's belief).
    pub fn estimated_location(&self) -> &SelVector {
        &self.qe
    }

    /// Whether the surface is still compiling lazily.
    pub fn is_lazy(&self) -> bool {
        matches!(self.surface, Surface::Lazy(_))
    }

    /// The ESS discretization grid.
    pub fn grid(&self) -> &Grid {
        match &self.surface {
            Surface::Eager(ess) => ess.grid(),
            Surface::Lazy(lazy) => lazy.grid(),
        }
    }

    /// Number of iso-cost contour bands, `m`.
    pub fn num_bands(&self) -> usize {
        match &self.surface {
            Surface::Eager(ess) => ess.contours.num_bands(),
            Surface::Lazy(lazy) => lazy.num_bands(),
        }
    }

    /// Lower cost edge `CC_band` of a contour band.
    pub fn contour_cost(&self, band: usize) -> f64 {
        match &self.surface {
            Surface::Eager(ess) => ess.contours.cc(band),
            Surface::Lazy(lazy) => lazy.cc(band),
        }
    }

    /// The contour doubling ratio `r`.
    pub fn contour_ratio(&self) -> f64 {
        match &self.surface {
            Surface::Eager(ess) => ess.contours.ratio,
            Surface::Lazy(lazy) => lazy.ratio(),
        }
    }

    /// The band a cell belongs to. On a lazy surface this is a memoized
    /// single-cell peek, never a band compile.
    pub fn band_of(&self, cell: Cell) -> usize {
        match &self.surface {
            Surface::Eager(ess) => ess.contours.band_of(cell),
            Surface::Lazy(lazy) => lazy.band_of(cell),
        }
    }

    /// The cells of a contour band, ascending by cell index. On a lazy
    /// surface this compiles through `band` first — the discovery walk's
    /// pull point.
    pub fn band_cells(&self, band: usize) -> Arc<Vec<Cell>> {
        match &self.surface {
            Surface::Eager(ess) => ess.contours.cells_arc(band),
            Surface::Lazy(lazy) => lazy.band_cells(band),
        }
    }

    /// Number of distinct plans on a contour band (plan density).
    pub fn band_density(&self, band: usize) -> usize {
        match &self.surface {
            Surface::Eager(ess) => ess.contours.density(&ess.posp, band),
            Surface::Lazy(lazy) => {
                let cells = lazy.band_cells(band);
                let mut plans: Vec<PlanId> = cells.iter().map(|&c| lazy.plan_id_at(c)).collect();
                plans.sort_unstable();
                plans.dedup();
                plans.len()
            }
        }
    }

    /// Contour bands the surface has materialized so far (always
    /// `num_bands` for an eager surface).
    pub fn bands_compiled(&self) -> usize {
        match &self.surface {
            Surface::Eager(ess) => ess.contours.num_bands(),
            Surface::Lazy(lazy) => lazy.bands_compiled(),
        }
    }

    /// Ask a background task to compile through `band` while the caller
    /// keeps executing on lower bands (no-op on an eager surface).
    pub fn prefetch_band(&self, band: usize) {
        if let Surface::Lazy(lazy) = &self.surface {
            lazy.prefetch(band);
        }
    }

    /// Oracle cost `Cost(P_qa, qa)` for a grid cell. On a lazy surface a
    /// memoized single-cell peek.
    pub fn oracle_cost(&self, qa: Cell) -> f64 {
        match &self.surface {
            Surface::Eager(ess) => ess.posp.cost(qa),
            Surface::Lazy(lazy) => lazy.cost(qa),
        }
    }

    /// The optimal (POSP) plan id at a cell. Ids are stable within one
    /// surface; a lazy surface's ids live in its own discovery-order space
    /// until [`RobustRuntime::ess`] canonicalizes them.
    pub fn plan_id_at(&self, cell: Cell) -> PlanId {
        match &self.surface {
            Surface::Eager(ess) => ess.posp.plan_id(cell),
            Surface::Lazy(lazy) => lazy.plan_id_at(cell),
        }
    }

    /// The plan with a surface plan id.
    pub fn plan(&self, id: PlanId) -> Arc<PlanNode> {
        match &self.surface {
            Surface::Eager(ess) => Arc::clone(ess.posp.plan(id)),
            Surface::Lazy(lazy) => lazy.plan(id),
        }
    }

    /// Cost of an arbitrary surface plan at an arbitrary cell.
    pub fn plan_cost_at(&self, id: PlanId, cell: Cell) -> f64 {
        match &self.surface {
            Surface::Eager(ess) => ess.posp.cost_of_plan_at(&self.optimizer, id, cell),
            Surface::Lazy(lazy) => {
                let plan = lazy.plan(id);
                self.optimizer.cost_of(&plan, &lazy.grid().location(cell))
            }
        }
    }

    /// An opaque identity for the underlying surface. Plan ids are
    /// surface-relative (eager surfaces number plans in cell-index order,
    /// lazy surfaces in flood-discovery order), so per-algorithm memo
    /// caches must never reuse a decision holding plan ids across
    /// runtimes backed by different surfaces — they key on this token.
    pub fn surface_token(&self) -> usize {
        match &self.surface {
            Surface::Eager(ess) => Arc::as_ptr(ess) as usize,
            Surface::Lazy(lazy) => Arc::as_ptr(lazy) as *const () as usize,
        }
    }

    /// Every plan id the surface has discovered so far (the full POSP pool
    /// for an eager surface; the pool grows as a lazy surface compiles).
    pub fn plan_pool(&self) -> Vec<PlanId> {
        match &self.surface {
            Surface::Eager(ess) => ess.posp.registry().iter().map(|(id, _)| id).collect(),
            Surface::Lazy(lazy) => lazy.plan_pool(),
        }
    }

    /// Check a POSP-derived budget against the band's doubling window
    /// (debug builds only; see [`crate::invariants`]).
    pub fn debug_check_band_budget(&self, band: usize, budget: f64) {
        crate::invariants::debug_check_band_budget_parts(
            self.contour_cost(band),
            self.contour_ratio(),
            band + 1 >= self.num_bands(),
            band,
            budget,
        );
    }

    /// Materialize the full surface: for an eager runtime a free clone of
    /// the shared [`Arc`]; for a lazy runtime this compiles every
    /// remaining band and canonicalizes the result (byte-identical to an
    /// eager compile). Whole-surface consumers — anorexic reduction,
    /// snapshot capture, worst-case sweeps — pay the full compile exactly
    /// once, here.
    pub fn ess(&self) -> RqpResult<Arc<Ess>> {
        match &self.surface {
            Surface::Eager(ess) => Ok(Arc::clone(ess)),
            Surface::Lazy(lazy) => lazy.finish(),
        }
    }

    /// Replace the engine with a δ-perturbed one (§7: bounded cost-model
    /// error — actual execution costs deviate from the model by up to a
    /// `(1+delta)` factor either way; the MSO guarantees inflate by at most
    /// `(1+delta)²`).
    pub fn set_cost_error(&mut self, delta: f64) {
        let injector = self.engine.injector();
        self.engine =
            Engine::with_cost_error(self.catalog, self.query, self.optimizer.model(), delta);
        if let Some(inj) = injector {
            self.engine = self.engine.with_injector(inj);
        }
    }

    /// Attach a fault injector to the engine (chaos testing): every
    /// subsequent execution consults it once and applies whatever fault it
    /// returns. The supervision layer in [`crate::Supervisor`] recovers.
    pub fn set_fault_injector(&mut self, injector: &'a dyn rqp_executor::FaultInjector) {
        self.engine = self.engine.with_injector(injector);
    }

    /// Detach any fault injector from the engine.
    pub fn clear_fault_injector(&mut self) {
        self.engine = self.engine.without_injector();
    }

    /// The retry policy discovery runs supervise executions with.
    pub fn retry_policy(&self) -> crate::supervise::RetryPolicy {
        self.retry
    }

    /// Replace the supervision retry policy.
    pub fn set_retry_policy(&mut self, policy: crate::supervise::RetryPolicy) {
        self.retry = policy;
    }

    /// Bound every subsequent discovery run by a session deadline (see
    /// [`crate::Supervisor::with_deadline`]).
    pub fn set_deadline(&mut self, deadline: rqp_obs::Deadline) {
        self.deadline = deadline;
    }

    /// The session deadline in force ([`rqp_obs::Deadline::none`] unless
    /// [`set_deadline`](Self::set_deadline) was called).
    pub fn deadline(&self) -> rqp_obs::Deadline {
        self.deadline
    }

    /// A fresh supervisor for one discovery run: the runtime's retry
    /// policy and session deadline, the calling thread's tracer.
    pub fn supervisor(&self, algo: &'static str) -> crate::supervise::Supervisor {
        crate::supervise::Supervisor::new(algo, self.retry).with_deadline(self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::example_2d;
    use crate::Discovery;

    #[test]
    fn compile_builds_all_components() {
        let (catalog, query) = example_2d();
        let rt = RobustRuntime::compile(
            &catalog,
            &query,
            CostModel::default(),
            EssConfig { resolution: 10, ..Default::default() },
        )
        .unwrap();
        assert_eq!(rt.dims(), 2);
        assert_eq!(rt.grid().num_cells(), 100);
        assert!(rt.oracle_cost(0) > 0.0);
        assert!(rt.num_bands() > 1);
        assert!(!rt.is_lazy());
    }

    #[test]
    fn shared_ess_admission_reuses_the_surface() {
        let (catalog, query) = example_2d();
        let rt = RobustRuntime::compile(
            &catalog,
            &query,
            CostModel::default(),
            EssConfig { resolution: 10, ..Default::default() },
        )
        .unwrap();
        let shared = rt.ess().unwrap();
        let rt2 =
            RobustRuntime::with_shared_ess(&catalog, &query, CostModel::default(), shared).unwrap();
        assert!(Arc::ptr_eq(&rt.ess().unwrap(), &rt2.ess().unwrap()), "no recompile, same surface");
        assert_eq!(rt2.dims(), 2);
    }

    #[test]
    fn lazy_admission_matches_eager_facade_answers() {
        let (catalog, query) = example_2d();
        let cfg = EssConfig { resolution: 10, ..Default::default() };
        let eager = RobustRuntime::compile(&catalog, &query, CostModel::default(), cfg).unwrap();
        let lazy =
            RobustRuntime::compile_lazy(&catalog, &query, CostModel::default(), cfg).unwrap();
        assert!(lazy.is_lazy());
        assert_eq!(lazy.num_bands(), eager.num_bands());
        assert_eq!(lazy.contour_ratio(), eager.contour_ratio());
        for band in 0..eager.num_bands() {
            assert_eq!(lazy.contour_cost(band), eager.contour_cost(band), "ladder edge {band}");
            assert_eq!(*lazy.band_cells(band), *eager.band_cells(band), "band {band}");
            assert_eq!(lazy.band_density(band), eager.band_density(band), "density {band}");
        }
        for qa in eager.grid().cells() {
            assert_eq!(lazy.oracle_cost(qa).to_bits(), eager.oracle_cost(qa).to_bits());
            assert_eq!(lazy.band_of(qa), eager.band_of(qa));
        }
        // materializing the lazy surface canonicalizes to the eager bytes
        let a = rqp_ess::PospSnapshot::capture(&eager.ess().unwrap()).to_json().unwrap();
        let b = rqp_ess::PospSnapshot::capture(&lazy.ess().unwrap()).to_json().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lazy_discovery_only_compiles_pulled_bands() {
        let (catalog, query) = example_2d();
        let cfg = EssConfig { resolution: 10, ..Default::default() };
        let rt = RobustRuntime::compile_lazy(&catalog, &query, CostModel::default(), cfg).unwrap();
        let origin = rt.grid().origin();
        let t = crate::bouquet::PlanBouquet::new().discover(&rt, origin);
        assert!(t.steps.last().unwrap().completed);
        // the origin lies on the first contour: the walk must not have
        // pulled bands anywhere near the top of the ladder
        let Surface::Lazy(lazy) = &rt.surface else { panic!("lazy runtime") };
        assert!(
            lazy.bands_compiled() < rt.num_bands(),
            "origin discovery compiled all {} bands",
            rt.num_bands()
        );
    }
}
