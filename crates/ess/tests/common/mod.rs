//! The brute-force oracle the ESS compiler is checked against: a direct
//! `Optimizer::optimize` at every grid cell.

use rqp_ess::{Ess, Grid, PospSnapshot};
use rqp_optimizer::Optimizer;
use rqp_qplan::{cost_eq, Fingerprint};
use std::collections::HashMap;

/// The oracle surface over `grid`: every cell's DP-optimal plan and cost,
/// plan ids in first-seen cell order, and contours built at `ratio` by
/// `ContourSet::build` (through the snapshot restore path).
pub fn oracle(opt: &Optimizer<'_>, grid: &Grid, ratio: f64) -> Ess {
    let mut plans = Vec::new();
    let mut ids: HashMap<Fingerprint, u32> = HashMap::new();
    let (mut cell_plan, mut cell_cost) = (Vec::new(), Vec::new());
    for cell in grid.cells() {
        let planned = opt.optimize(&grid.location(cell));
        let id = *ids.entry(Fingerprint::of(&planned.plan)).or_insert_with(|| {
            plans.push(planned.plan);
            plans.len() as u32 - 1
        });
        cell_plan.push(id);
        cell_cost.push(planned.cost);
    }
    PospSnapshot { grid: grid.clone(), plans, cell_plan, cell_cost, contour_ratio: ratio }
        .restore()
        .expect("the oracle surface restores")
}

/// A recost compile must be `cost_eq` to the oracle at every cell, and
/// each stored cost must be its stored plan's cost at that cell.
pub fn assert_cost_equivalent(oracle: &Ess, ess: &Ess, opt: &Optimizer<'_>) {
    assert_eq!(oracle.grid().num_cells(), ess.grid().num_cells());
    for cell in oracle.grid().cells() {
        let (want, got) = (oracle.posp.cost(cell), ess.posp.cost(cell));
        assert!(
            cost_eq(want, got),
            "cell {cell}: oracle cost {want} (plan {}), compiled {got} (plan {})",
            oracle.posp.plan_id(cell),
            ess.posp.plan_id(cell),
        );
        let replayed = ess.posp.cost_of_plan_at(opt, ess.posp.plan_id(cell), cell);
        assert_eq!(
            replayed.to_bits(),
            got.to_bits(),
            "cell {cell}: stored {got}, plan costs {replayed}"
        );
    }
}
