//! Iso-cost contours over the compiled POSP.
//!
//! On the continuum, contour `IC_i` is the curve where the optimal cost
//! equals `CC_i = r^(i-1) · C_min` (cost-doubling, `r = 2`, by default). On
//! a finite grid the curve becomes a **cost band**: cell `q` belongs to band
//! `i` iff `Cost(P_q, q) ∈ [CC_i, r·CC_i)`. Bands partition the grid, every
//! budgeted execution on band `i` uses the cost of its chosen cell (within
//! the band, so < `r·CC_i`), and all the discovery guarantees of §3–§5
//! survive discretization (see DESIGN.md, "Discretization of contours").

use crate::grid::Cell;
use crate::posp::Posp;
use crate::registry::PlanId;
use rqp_catalog::{RqpError, RqpResult};
use rqp_qplan::cost_cmp;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The contour bands of a compiled ESS.
#[derive(Debug, Clone)]
pub struct ContourSet {
    /// Geometric cost ratio between consecutive contours.
    pub ratio: f64,
    /// Lower-edge cost of each band: `cc[i] = cmin · ratio^i`.
    cc: Vec<f64>,
    band_of: Vec<u32>,
    bands: Vec<Arc<Vec<Cell>>>,
}

/// Band index of cost `c` on the geometric ladder `cmin · ratio^k`.
///
/// The naive `floor(ln(c/cmin) / ln(ratio))` misclassifies costs sitting
/// exactly on a band edge `cmin·r^k`: a few ulps of logarithm error can
/// push the quotient to `k - ε`, flooring into band `k-1` and breaking the
/// `[CC_i, r·CC_i)` partition invariant. The floor therefore only seeds the
/// search; the final index is settled against the *exact* `powi` edges with
/// the workspace cost tolerance ([`cost_cmp`]), with edge-equal costs
/// belonging to the band whose lower (inclusive) edge they sit on.
///
/// # Errors
/// Non-finite or non-positive costs have no band on the geometric ladder
/// and return [`RqpError::Config`]. (With `c = +inf` or `NaN` the settling
/// loop would otherwise never observe `c < cmin·r^(b+1)` — `powi` saturates
/// at `+inf` while `cost_cmp` keeps answering `Greater` — and spin forever.)
pub(crate) fn band_index(c: f64, cmin: f64, ratio: f64) -> RqpResult<usize> {
    if !(c.is_finite() && c > 0.0) {
        return Err(RqpError::Config(format!(
            "cost {c} cannot be placed on the contour ladder (cmin {cmin}, ratio {ratio}); \
             costs must be finite and positive"
        )));
    }
    let raw = ((c / cmin).ln() / ratio.ln()).floor();
    let mut b = if raw.is_finite() && raw > 0.0 { raw as usize } else { 0 };
    while cost_cmp(c, cmin * ratio.powi(b as i32 + 1)) != Ordering::Less {
        b += 1;
    }
    while b > 0 && cost_cmp(c, cmin * ratio.powi(b as i32)) == Ordering::Less {
        b -= 1;
    }
    Ok(b)
}

/// Total variant of [`band_index`] for the lazy compile path: degenerate
/// costs clamp into the top band `m - 1` (an execution budgeted there is
/// already charged the worst case) instead of erroring, and regular costs
/// clamp like [`ContourSet::build`] does.
pub(crate) fn band_index_clamped(c: f64, cmin: f64, ratio: f64, m: usize) -> usize {
    debug_assert!(m >= 1);
    match band_index(c, cmin, ratio) {
        Ok(b) => b.min(m - 1),
        Err(_) => m - 1,
    }
}

impl ContourSet {
    /// Build contour bands with the given cost ratio (the paper's default
    /// is 2; §4.2 notes ratios like 1.8 can shave the guarantee slightly).
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] if `ratio` is not a finite value above
    /// 1, or if the POSP cost surface is degenerate (a non-positive or
    /// non-finite extremum, or any non-finite per-cell cost — NaN cells
    /// slip past the extrema check because `f64::max` ignores NaN),
    /// instead of panicking or looping mid-compile.
    pub fn build(posp: &Posp, ratio: f64) -> RqpResult<ContourSet> {
        if !(ratio.is_finite() && ratio > 1.0) {
            return Err(RqpError::Config(format!("contour ratio must exceed 1, got {ratio}")));
        }
        let cmin = posp.cmin();
        let cmax = posp.cmax();
        if !(cmin > 0.0 && cmax.is_finite()) {
            return Err(RqpError::Config(format!(
                "degenerate optimal cost surface: cmin {cmin}, cmax {cmax}"
            )));
        }
        let m = band_index(cmax, cmin, ratio)? + 1;
        let cc: Vec<f64> = (0..m).map(|i| cmin * ratio.powi(i as i32)).collect();

        let mut band_of = vec![0u32; posp.grid().num_cells()];
        let mut bands = vec![Vec::new(); m];
        for cell in posp.grid().cells() {
            let b = band_index(posp.cost(cell), cmin, ratio)?.min(m - 1);
            band_of[cell] = b as u32;
            bands[b].push(cell);
        }
        let bands = bands.into_iter().map(Arc::new).collect();
        Ok(ContourSet { ratio, cc, band_of, bands })
    }

    /// Number of contours, `m`.
    pub fn num_bands(&self) -> usize {
        self.cc.len()
    }

    /// Lower-edge cost `CC_i` of band `i` (0-based).
    pub fn cc(&self, band: usize) -> f64 {
        self.cc[band]
    }

    /// The band a cell belongs to.
    pub fn band_of(&self, cell: Cell) -> usize {
        self.band_of[cell] as usize
    }

    /// Cells of a band, ascending by cell index.
    pub fn cells(&self, band: usize) -> &[Cell] {
        &self.bands[band]
    }

    /// Shared handle to a band's cell list (cheap to clone; lets a serving
    /// layer hand bands out without copying them per peer).
    pub fn cells_arc(&self, band: usize) -> Arc<Vec<Cell>> {
        Arc::clone(&self.bands[band])
    }

    /// Distinct optimal plans appearing on a band — the contour's plan set
    /// `PL_i`.
    pub fn plans_on(&self, posp: &Posp, band: usize) -> BTreeSet<PlanId> {
        self.bands[band].iter().map(|&c| posp.plan_id(c)).collect()
    }

    /// Plan density of a band (`|PL_i|`).
    pub fn density(&self, posp: &Posp, band: usize) -> usize {
        self.plans_on(posp, band).len()
    }

    /// Maximum density over all bands — the `ρ` of the PlanBouquet bound.
    pub fn max_density(&self, posp: &Posp) -> usize {
        (0..self.num_bands()).map(|b| self.density(posp, b)).max().unwrap_or(0)
    }

    /// Density of a band under a replacement cell→plan assignment (used for
    /// the anorexic-reduced bouquet's `ρ_red`).
    pub fn density_with(&self, assignment: &[PlanId], band: usize) -> usize {
        self.bands[band].iter().map(|&c| assignment[c]).collect::<BTreeSet<_>>().len()
    }

    /// Maximum density over all bands under a replacement assignment.
    pub fn max_density_with(&self, assignment: &[PlanId]) -> usize {
        (0..self.num_bands()).map(|b| self.density_with(assignment, b)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_exact;
    use crate::grid::Grid;
    use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder};
    use rqp_optimizer::Optimizer;
    use rqp_qplan::CostModel;

    fn fixture() -> (Catalog, Query) {
        let catalog = CatalogBuilder::new()
            .relation(
                RelationBuilder::new("part", 2_000_000)
                    .indexed_column("p_partkey", 2_000_000, 8)
                    .column("p_price", 50_000, 8)
                    .build(),
            )
            .relation(
                RelationBuilder::new("lineitem", 60_000_000)
                    .indexed_column("l_partkey", 2_000_000, 8)
                    .indexed_column("l_orderkey", 15_000_000, 8)
                    .build(),
            )
            .relation(
                RelationBuilder::new("orders", 15_000_000)
                    .indexed_column("o_orderkey", 15_000_000, 8)
                    .build(),
            )
            .build();
        let query = QueryBuilder::new(&catalog, "EQ")
            .table("part")
            .table("lineitem")
            .table("orders")
            .epp_join("part", "p_partkey", "lineitem", "l_partkey")
            .epp_join("orders", "o_orderkey", "lineitem", "l_orderkey")
            .filter("part", "p_price", 0.05)
            .build()
            .unwrap();
        (catalog, query)
    }

    fn compiled() -> (Posp, ContourSet) {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let ess = compile_exact(&opt, 12, 1e-6);
        (ess.posp, ess.contours)
    }

    /// A synthetic one-plan POSP whose cell costs are chosen exactly.
    fn synthetic(costs: Vec<f64>) -> Posp {
        let grid = Grid::uniform(1, costs.len(), 1e-4).unwrap();
        let mut registry = crate::registry::PlanRegistry::new();
        let id = registry.insert(rqp_qplan::PlanNode::SeqScan {
            rel: rqp_catalog::RelId(0),
            filters: Vec::new(),
        });
        let cell_plan = vec![id; costs.len()];
        Posp::from_parts(grid, registry, cell_plan, costs)
    }

    #[test]
    fn bands_partition_the_grid() {
        let (posp, contours) = compiled();
        let total: usize = (0..contours.num_bands()).map(|b| contours.cells(b).len()).sum();
        assert_eq!(total, posp.grid().num_cells());
        for b in 0..contours.num_bands() {
            for &cell in contours.cells(b) {
                assert_eq!(contours.band_of(cell), b);
                let c = posp.cost(cell);
                assert!(c >= contours.cc(b) * (1.0 - 1e-12));
                if b + 1 < contours.num_bands() {
                    assert!(c < contours.cc(b) * contours.ratio * (1.0 + 1e-12));
                }
            }
        }
    }

    #[test]
    fn band_edges_double() {
        let (_, contours) = compiled();
        assert!(contours.num_bands() >= 3, "expected several contours");
        for i in 1..contours.num_bands() {
            let r = contours.cc(i) / contours.cc(i - 1);
            assert!((r - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn origin_is_on_the_first_band_terminus_on_the_last() {
        let (posp, contours) = compiled();
        assert_eq!(contours.band_of(posp.grid().origin()), 0);
        assert_eq!(contours.band_of(posp.grid().terminus()), contours.num_bands() - 1);
    }

    #[test]
    fn densities_are_positive_and_bounded_by_plan_count() {
        let (posp, contours) = compiled();
        let rho = contours.max_density(&posp);
        assert!(rho >= 1 && rho <= posp.num_plans());
        // identity assignment reproduces plain densities
        let identity: Vec<PlanId> = posp.grid().cells().map(|c| posp.plan_id(c)).collect();
        assert_eq!(contours.max_density_with(&identity), rho);
    }

    #[test]
    fn custom_ratio_changes_band_count() {
        let (posp, _) = compiled();
        let c2 = ContourSet::build(&posp, 2.0).unwrap();
        let c15 = ContourSet::build(&posp, 1.5).unwrap();
        assert!(c15.num_bands() > c2.num_bands());
    }

    #[test]
    fn bad_ratio_is_a_config_error_not_a_panic() {
        let (posp, _) = compiled();
        for ratio in [1.0, 0.5, -2.0, f64::NAN, f64::INFINITY] {
            let err = ContourSet::build(&posp, ratio).unwrap_err();
            assert!(err.to_string().contains("contour ratio"), "{err}");
        }
    }

    #[test]
    fn exact_power_of_ratio_costs_land_on_their_own_band() {
        // Every cost sits exactly on a band edge cmin·r^k. The naive
        // floor(ln/ln) assignment drifts below the edge for some k (e.g.
        // ln(1.1^3)/ln(1.1) = 2.9999…); the epsilon-robust version must put
        // edge costs in the band they open, for any ratio.
        for ratio in [2.0f64, 1.1, 1.8, 3.0] {
            let cmin = 7.5;
            let costs: Vec<f64> = (0..8).map(|k| cmin * ratio.powi(k)).collect();
            let posp = synthetic(costs.clone());
            let contours = ContourSet::build(&posp, ratio).unwrap();
            assert_eq!(contours.num_bands(), costs.len(), "ratio {ratio}");
            for (k, _) in costs.iter().enumerate() {
                assert_eq!(contours.band_of(k), k, "ratio {ratio}, edge {k}");
                assert_eq!(contours.cells(k), &[k]);
            }
        }
    }

    #[test]
    fn costs_a_hair_under_an_edge_stay_with_the_edge_band() {
        // A cost within the cost_eq tolerance below cmin·r^k counts as *on*
        // the edge and belongs to band k, not k-1.
        let cmin = 10.0;
        let ratio = 2.0;
        let edge = cmin * ratio * ratio; // opens band 2
        let posp = synthetic(vec![cmin, edge * (1.0 - 1e-13)]);
        let contours = ContourSet::build(&posp, ratio).unwrap();
        assert_eq!(contours.band_of(1), 2);
    }

    #[test]
    fn degenerate_cost_surface_is_rejected() {
        let posp = synthetic(vec![0.0, 4.0]);
        let err = ContourSet::build(&posp, 2.0).unwrap_err();
        assert!(err.to_string().contains("degenerate"), "{err}");
    }

    #[test]
    fn non_finite_costs_error_instead_of_spinning() {
        // Regression: band_index used to loop forever on +inf (powi
        // saturates at +inf, cost_cmp(inf, inf) is Equal via total_cmp but
        // never Less) and on NaN (total_cmp orders NaN above everything).
        for c in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -3.0] {
            let err = band_index(c, 1.0, 2.0).unwrap_err();
            assert!(err.to_string().contains("contour ladder"), "{c}: {err}");
        }
        assert_eq!(band_index(8.0, 1.0, 2.0).unwrap(), 3);
    }

    #[test]
    fn nan_cell_cost_is_a_build_error_not_a_hang() {
        // A NaN cell sneaks past the extrema check (f64::max ignores NaN);
        // the per-cell banding pass must surface it as a structured error.
        let posp = synthetic(vec![1.0, 2.0, f64::NAN, 8.0]);
        let err = ContourSet::build(&posp, 2.0).unwrap_err();
        assert!(err.to_string().contains("contour ladder"), "{err}");
    }

    #[test]
    fn clamped_band_index_is_total() {
        assert_eq!(band_index_clamped(8.0, 1.0, 2.0, 10), 3);
        assert_eq!(band_index_clamped(1e9, 1.0, 2.0, 4), 3, "overshoot clamps to m-1");
        assert_eq!(band_index_clamped(f64::NAN, 1.0, 2.0, 4), 3);
        assert_eq!(band_index_clamped(f64::INFINITY, 1.0, 2.0, 4), 3);
    }

    #[test]
    fn band_arcs_are_shared_not_copied() {
        let (_, contours) = compiled();
        let a = contours.cells_arc(0);
        let b = contours.cells_arc(0);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&a[..], contours.cells(0));
    }
}
