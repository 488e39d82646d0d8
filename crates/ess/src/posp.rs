//! The Parametric Optimal Set of Plans (POSP) over the ESS grid.
//!
//! A [`Posp`] records, for every grid cell, the optimal plan and its cost
//! (a discretized Optimal Cost Surface, §2.5). It is produced by the one
//! ESS compiler, [`crate::lazy::LazyEss`], which invokes the optimizer
//! cell by cell as its band flood reaches them ("repeated invocations of
//! the optimizer with different selectivity values", §2.2) and hands the
//! finished per-cell results to [`Posp::assemble`]. This module also holds
//! the recost seed-lattice geometry that the flood walks.

use crate::grid::{Cell, Grid};
use crate::registry::{PlanId, PlanRegistry};
use rqp_optimizer::Optimizer;
use rqp_qplan::{Fingerprint, PlanNode};
use std::sync::Arc;

/// Coordinate stride between seed cells of the [`CompileMode::Recost`]
/// sublattice.
pub const SEED_STRIDE: usize = 3;

/// Strategy for computing the optimal-plan surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompileMode {
    /// Full Selinger DP at every grid cell — the paper's brute-force
    /// enumeration ("repeated invocations of the optimizer", §2.2).
    Exact,
    /// DP only on a seed sublattice (every [`SEED_STRIDE`]-th coordinate
    /// per dimension, plus the axis ends). Each remaining cell looks at the
    /// corners of its surrounding seed box: when all corners agree on the
    /// optimal plan, that plan is recosted at the cell via
    /// `Optimizer::cost_of` (no DP); when they disagree, the cell falls
    /// back to full DP. Grids of more than 8 dimensions compile exactly.
    #[default]
    Recost,
}

/// The compiled optimal-plan surface: for every grid cell, the optimal plan
/// and its cost (a discretized Optimal Cost Surface, §2.5).
#[derive(Debug, Clone)]
pub struct Posp {
    grid: Grid,
    registry: PlanRegistry,
    cell_plan: Vec<PlanId>,
    cell_cost: Vec<f64>,
}

/// Per-dimension seed coordinates for the recost sublattice: every
/// [`SEED_STRIDE`]-th point plus the axis end.
pub(crate) fn seed_marks(grid: &Grid) -> Vec<Vec<bool>> {
    (0..grid.dims())
        .map(|d| {
            let r = grid.res(d);
            let mut marks = vec![false; r];
            for c in (0..r).step_by(SEED_STRIDE) {
                marks[c] = true;
            }
            marks[r - 1] = true;
            marks
        })
        .collect()
}

/// The corners of the seed box surrounding `cell` — per dimension the
/// nearest seed coordinate at-or-below and at-or-above — written into
/// `out`, each distinct corner once.
pub(crate) fn seed_corners(grid: &Grid, is_seed: &[Vec<bool>], cell: Cell, out: &mut Vec<Cell>) {
    out.clear();
    out.push(0);
    for (d, marks) in is_seed.iter().enumerate() {
        let c = grid.coord(cell, d);
        let lo = (c / SEED_STRIDE) * SEED_STRIDE;
        let hi = if marks[c] { c } else { (lo + SEED_STRIDE).min(grid.res(d) - 1) };
        let stride = grid.stride(d);
        for corner in out.iter_mut() {
            *corner += lo * stride;
        }
        if hi > lo {
            for i in 0..out.len() {
                out.push(out[i] + (hi - lo) * stride);
            }
        }
    }
}

/// Whether `cell` lies on the seed sublattice.
pub(crate) fn is_seed_cell(grid: &Grid, is_seed: &[Vec<bool>], cell: Cell) -> bool {
    (0..grid.dims()).all(|d| is_seed[d][grid.coord(cell, d)])
}

impl Posp {
    /// Assemble the surface from per-cell `(fingerprint, cost)` pairs in
    /// cell-index order, assigning plan ids in first-seen order by cell
    /// index — so the ids do not depend on the order in which the
    /// compiler discovered the plans. `plans` must hold every fingerprint;
    /// the plan trees are shared with it, not copied.
    pub(crate) fn assemble(
        grid: Grid,
        per_cell: Vec<(Fingerprint, f64)>,
        plans: &PlanRegistry,
    ) -> Posp {
        let mut registry = PlanRegistry::new();
        let mut cell_plan = Vec::with_capacity(per_cell.len());
        let mut cell_cost = Vec::with_capacity(per_cell.len());
        for (fp, cost) in per_cell {
            let id = match (registry.get(fp), plans.get(fp)) {
                (Some(id), _) => id,
                (None, Some(found)) => registry.insert_shared(fp, Arc::clone(plans.plan(found))),
                (None, None) => {
                    // unreachable: the compiler registered a plan for every
                    // fingerprint it stored; degrade to the first plan id
                    debug_assert!(false, "plan recorded for fingerprint");
                    PlanId(0)
                }
            };
            cell_plan.push(id);
            cell_cost.push(cost);
        }
        Posp { grid, registry, cell_plan, cell_cost }
    }

    /// Reassemble a POSP from snapshot parts (see `crate::snapshot`).
    pub(crate) fn from_parts(
        grid: Grid,
        registry: PlanRegistry,
        cell_plan: Vec<PlanId>,
        cell_cost: Vec<f64>,
    ) -> Posp {
        Posp { grid, registry, cell_plan, cell_cost }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The plan registry.
    pub fn registry(&self) -> &PlanRegistry {
        &self.registry
    }

    /// Optimal cost `Cost(P_q, q)` at a cell.
    pub fn cost(&self, cell: Cell) -> f64 {
        self.cell_cost[cell]
    }

    /// Optimal plan id at a cell.
    pub fn plan_id(&self, cell: Cell) -> PlanId {
        self.cell_plan[cell]
    }

    /// The plan with the given id.
    pub fn plan(&self, id: PlanId) -> &std::sync::Arc<PlanNode> {
        self.registry.plan(id)
    }

    /// Minimum optimal cost over the grid (at the origin under PCM).
    pub fn cmin(&self) -> f64 {
        self.cell_cost.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum optimal cost over the grid (at the terminus under PCM).
    pub fn cmax(&self) -> f64 {
        self.cell_cost.iter().copied().fold(0.0, f64::max)
    }

    /// Number of distinct POSP plans.
    pub fn num_plans(&self) -> usize {
        self.registry.len()
    }

    /// Cost of an arbitrary registered plan at an arbitrary cell (used by
    /// anorexic reduction, AlignedBound's replacement search, and the
    /// native-optimizer baseline).
    pub fn cost_of_plan_at(&self, optimizer: &Optimizer<'_>, id: PlanId, cell: Cell) -> f64 {
        optimizer.cost_of(self.registry.plan(id), &self.grid.location(cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_exact;
    use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder};
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

    #[test]
    fn compiles_with_multiple_plans_and_monotone_costs() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let posp = compile_exact(&opt, 12, 1e-6).posp;

        assert!(posp.num_plans() >= 3, "expected plan diversity, got {}", posp.num_plans());
        assert!(posp.cmin() > 0.0);
        assert!(posp.cmax() / posp.cmin() > 4.0, "cost surface should span several doublings");
        // PCM on the optimal surface: cost non-decreasing along each axis
        let g = posp.grid();
        for cell in g.cells() {
            for d in 0..g.dims() {
                if g.coord(cell, d) + 1 < g.res(d) {
                    let mut coords = g.coords_of(cell);
                    coords[d] += 1;
                    let up = g.index(&coords);
                    assert!(
                        posp.cost(up) >= posp.cost(cell) * (1.0 - 1e-12),
                        "optimal cost decreased along dim {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn cell_costs_match_reoptimization() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let posp = compile_exact(&opt, 6, 1e-5).posp;
        for cell in [0usize, 7, 17, posp.grid().terminus()] {
            let loc = posp.grid().location(cell);
            let planned = opt.optimize(&loc);
            assert!((planned.cost - posp.cost(cell)).abs() < 1e-9 * planned.cost);
            // optimal plan cost at its own cell equals the recorded cost
            let via_registry = posp.cost_of_plan_at(&opt, posp.plan_id(cell), cell);
            assert!((via_registry - posp.cost(cell)).abs() < 1e-9 * planned.cost);
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let a = compile_exact(&opt, 8, 1e-5).posp;
        let b = compile_exact(&opt, 8, 1e-5).posp;
        assert_eq!(a.cell_plan, b.cell_plan);
        assert_eq!(a.num_plans(), b.num_plans());
    }
}
