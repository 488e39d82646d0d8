//! Anorexic reduction of the plan diagram (Harish et al., VLDB 2007).
//!
//! PlanBouquet's guarantee `MSO ≤ 4(1+λ)·ρ` is only practical after the POSP
//! plan diagram is "anorexically reduced": a plan's optimality region may be
//! *swallowed* by another plan that is within a `(1+λ)` cost factor of the
//! optimum everywhere on that region (default λ = 0.2, §6.2). This module
//! implements the CostGreedy-style reduction the paper relies on.

use crate::grid::Cell;
use crate::posp::Posp;
use crate::registry::PlanId;
use rqp_optimizer::Optimizer;
use rqp_qplan::cost_cmp;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A reduced plan diagram: a replacement cell→plan assignment guaranteed to
/// be within `(1+lambda)` of optimal at every cell.
#[derive(Debug, Clone)]
pub struct Reduced {
    /// Replacement plan per cell.
    pub cell_plan: Vec<PlanId>,
    /// The swallowing threshold used.
    pub lambda: f64,
    /// Number of distinct plans after reduction.
    pub num_plans: usize,
}

/// Greedily reduce the plan diagram with swallowing threshold `lambda`.
///
/// Plans are visited in ascending region size; a plan is swallowed by the
/// surviving plan (largest region first) whose cost stays within
/// `(1+lambda)` of the *optimal* cost at every cell of the swallowed
/// region. The invariant "assigned cost ≤ (1+λ)·optimal everywhere" is
/// maintained throughout, so the result is sound regardless of swallow
/// order.
pub fn anorexic_reduce(posp: &Posp, optimizer: &Optimizer<'_>, lambda: f64) -> Reduced {
    assert!(lambda >= 0.0, "lambda must be non-negative");
    let grid = posp.grid();
    let mut cell_plan: Vec<PlanId> = grid.cells().map(|c| posp.plan_id(c)).collect();

    let mut regions: BTreeMap<PlanId, Vec<Cell>> = BTreeMap::new();
    for cell in grid.cells() {
        regions.entry(posp.plan_id(cell)).or_default().push(cell);
    }

    // ascending region size, id as tiebreak for determinism
    let mut order: Vec<PlanId> = regions.keys().copied().collect();
    order.sort_by_key(|id| (regions[id].len(), *id));

    for &victim in &order {
        let Some(victim_cells) = regions.get(&victim).cloned() else { continue };
        if victim_cells.is_empty() {
            continue;
        }
        // candidate swallowers: surviving plans, largest region first
        let mut candidates: Vec<PlanId> = regions
            .iter()
            .filter(|(id, cells)| **id != victim && !cells.is_empty())
            .map(|(id, _)| *id)
            .collect();
        candidates.sort_by_key(|id| (std::cmp::Reverse(regions[id].len()), *id));

        for swallower in candidates {
            let fits = victim_cells.iter().all(|&cell| {
                let replacement = posp.cost_of_plan_at(optimizer, swallower, cell);
                cost_cmp(replacement, (1.0 + lambda) * posp.cost(cell)) != Ordering::Greater
            });
            if fits {
                for &cell in &victim_cells {
                    cell_plan[cell] = swallower;
                }
                let moved = regions.remove(&victim).unwrap_or_default();
                // the swallower was drawn from the surviving regions above
                if let Some(region) = regions.get_mut(&swallower) {
                    region.extend(moved);
                } else {
                    debug_assert!(false, "swallower region must survive");
                }
                break;
            }
        }
    }

    let num_plans = regions.values().filter(|v| !v.is_empty()).count();
    Reduced { cell_plan, lambda, num_plans }
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
    fn reduction_shrinks_plan_count_and_respects_lambda() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let posp = compile_exact(&opt, 12, 1e-6).posp;
        let before = posp.num_plans();
        let reduced = anorexic_reduce(&posp, &opt, 0.2);
        assert!(reduced.num_plans <= before);
        assert!(reduced.num_plans >= 1);
        // invariant: replacement within (1+λ) of optimal everywhere
        for cell in posp.grid().cells() {
            let c = posp.cost_of_plan_at(&opt, reduced.cell_plan[cell], cell);
            assert!(
                c <= 1.2 * posp.cost(cell) * (1.0 + 1e-9),
                "cell {cell}: replacement {c} exceeds 1.2×optimal {}",
                posp.cost(cell)
            );
        }
    }

    #[test]
    fn zero_lambda_keeps_costs_optimal() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let posp = compile_exact(&opt, 8, 1e-5).posp;
        let reduced = anorexic_reduce(&posp, &opt, 0.0);
        for cell in posp.grid().cells() {
            let c = posp.cost_of_plan_at(&opt, reduced.cell_plan[cell], cell);
            assert!(c <= posp.cost(cell) * (1.0 + 1e-9));
        }
    }

    #[test]
    fn larger_lambda_reduces_at_least_as_much() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let posp = compile_exact(&opt, 10, 1e-6).posp;
        let r_small = anorexic_reduce(&posp, &opt, 0.05);
        let r_big = anorexic_reduce(&posp, &opt, 1.0);
        assert!(r_big.num_plans <= r_small.num_plans);
    }
}
