//! Offline ESS compilation snapshots.
//!
//! Contour construction is the expensive preprocessing step of the whole
//! approach ("for canned queries, it may be feasible to carry out an
//! offline enumeration", §7). This module serializes a compiled
//! [`Posp`] — grid, plan registry and the optimal plan/cost per cell — to
//! JSON so canned queries pay the optimizer invocations once.

use crate::cache::{plan_from_text, plan_to_text};
use crate::contours::ContourSet;
use crate::grid::Grid;
use crate::posp::Posp;
use crate::registry::{PlanId, PlanRegistry};
use crate::Ess;
use rqp_catalog::{RqpError, RqpResult};
use rqp_obs::json::{self, JsonValue};
use rqp_qplan::PlanNode;

/// The serialized form of a compiled POSP.
#[derive(Debug, Clone)]
pub struct PospSnapshot {
    /// The grid.
    pub grid: Grid,
    /// Distinct plans, indexed by `PlanId`.
    pub plans: Vec<PlanNode>,
    /// Optimal plan id per cell.
    pub cell_plan: Vec<u32>,
    /// Optimal cost per cell.
    pub cell_cost: Vec<f64>,
    /// Contour cost ratio the snapshot was built with.
    pub contour_ratio: f64,
}

impl PospSnapshot {
    /// Capture a compiled ESS.
    pub fn capture(ess: &Ess) -> PospSnapshot {
        let posp = &ess.posp;
        PospSnapshot {
            grid: posp.grid().clone(),
            plans: posp.registry().iter().map(|(_, p)| (**p).clone()).collect(),
            cell_plan: posp.grid().cells().map(|c| posp.plan_id(c).0).collect(),
            cell_cost: posp.grid().cells().map(|c| posp.cost(c)).collect(),
            contour_ratio: ess.contours.ratio,
        }
    }

    /// Restore the ESS (POSP + contours) from the snapshot.
    ///
    /// # Errors
    /// Returns [`RqpError::Snapshot`] if the snapshot is internally
    /// inconsistent.
    pub fn restore(self) -> RqpResult<Ess> {
        let bad = |msg: String| Err(RqpError::Snapshot(msg));
        // re-derive strides/cell-count from the axes instead of trusting the
        // serialized values, and re-validate the axes while doing so
        let axes: Vec<Vec<f64>> = (0..self.grid.dims())
            .map(|d| (0..self.grid.res(d)).map(|i| self.grid.value(d, i)).collect())
            .collect();
        let grid = Grid::from_axes(axes)
            .map_err(|e| RqpError::Snapshot(format!("bad snapshot grid: {e}")))?;
        let cells = grid.num_cells();
        if self.cell_plan.len() != cells || self.cell_cost.len() != cells {
            return bad(format!(
                "snapshot cell arrays ({} / {}) do not match grid ({cells})",
                self.cell_plan.len(),
                self.cell_cost.len()
            ));
        }
        if self.contour_ratio <= 1.0 {
            return bad(format!("invalid contour ratio {}", self.contour_ratio));
        }
        let mut registry = PlanRegistry::new();
        for (i, plan) in self.plans.iter().enumerate() {
            let id = registry.insert(plan.clone());
            if id != PlanId(i as u32) {
                return bad(format!("duplicate plan at snapshot index {i}"));
            }
        }
        let nplans = registry.len() as u32;
        let mut cell_plan = Vec::with_capacity(cells);
        for (&id, &cost) in self.cell_plan.iter().zip(&self.cell_cost) {
            if id >= nplans {
                return bad(format!("cell references unknown plan P{}", id + 1));
            }
            if !cost.is_finite() || cost <= 0.0 {
                return bad(format!("invalid cell cost {cost}"));
            }
            cell_plan.push(PlanId(id));
        }
        let posp = Posp::from_parts(grid, registry, cell_plan, self.cell_cost);
        let contours = ContourSet::build(&posp, self.contour_ratio)?;
        Ok(Ess { posp, contours })
    }

    /// Serialize to JSON (the self-contained codec in `rqp_obs::json`;
    /// floats use shortest-round-trip decimals, so costs restore exactly).
    /// Plans embed as the cache codec's token strings, e.g. `"H 1 0 S 1 0"`.
    ///
    /// # Errors
    /// Returns [`RqpError::Snapshot`] if a float in the snapshot is
    /// non-finite and therefore unrepresentable in JSON.
    pub fn to_json(&self) -> RqpResult<String> {
        let finite = |vals: &[f64]| vals.iter().all(|v| v.is_finite());
        let axes: Vec<Vec<f64>> = (0..self.grid.dims())
            .map(|d| (0..self.grid.res(d)).map(|i| self.grid.value(d, i)).collect())
            .collect();
        if !axes.iter().all(|a| finite(a)) || !finite(&self.cell_cost) {
            return Err(RqpError::Snapshot(
                "snapshot serialization failed: non-finite value".to_string(),
            ));
        }
        let num_array =
            |vals: &[f64]| JsonValue::Array(vals.iter().map(|&v| JsonValue::Num(v)).collect());
        let mut m = json::Map::new();
        m.insert("format".to_string(), JsonValue::from(FORMAT));
        m.insert("axes".to_string(), JsonValue::Array(axes.iter().map(|a| num_array(a)).collect()));
        m.insert(
            "plans".to_string(),
            JsonValue::Array(self.plans.iter().map(|p| JsonValue::Str(plan_to_text(p))).collect()),
        );
        m.insert(
            "cell_plan".to_string(),
            JsonValue::Array(self.cell_plan.iter().map(|&id| JsonValue::from(id)).collect()),
        );
        m.insert("cell_cost".to_string(), num_array(&self.cell_cost));
        m.insert("contour_ratio".to_string(), JsonValue::Num(self.contour_ratio));
        Ok(JsonValue::Object(m).to_json())
    }

    /// Deserialize from JSON.
    ///
    /// # Errors
    /// Returns [`RqpError::Snapshot`] on malformed JSON or a shape/format
    /// mismatch.
    pub fn from_json(text: &str) -> RqpResult<PospSnapshot> {
        let bad = |msg: String| RqpError::Snapshot(format!("bad snapshot JSON: {msg}"));
        let v = json::parse(text).map_err(|e| bad(e.to_string()))?;
        if v["format"].as_str() != Some(FORMAT) {
            return Err(bad(format!("unknown snapshot format {:?}", v["format"].as_str())));
        }
        let f64_list = |v: &JsonValue, what: &str| -> RqpResult<Vec<f64>> {
            v.as_array()
                .ok_or_else(|| bad(format!("{what} is not an array")))?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| bad(format!("{what} entry is not a number"))))
                .collect()
        };
        let axes = v["axes"]
            .as_array()
            .ok_or_else(|| bad("axes is not an array".to_string()))?
            .iter()
            .map(|a| f64_list(a, "axis"))
            .collect::<RqpResult<Vec<_>>>()?;
        let grid = Grid::from_axes(axes).map_err(|e| bad(format!("bad grid: {e}")))?;
        let plans = v["plans"]
            .as_array()
            .ok_or_else(|| bad("plans is not an array".to_string()))?
            .iter()
            .map(|p| {
                plan_from_text(
                    p.as_str().ok_or_else(|| bad("plan entry is not a string".to_string()))?,
                )
                .map_err(|e| bad(e.to_string()))
            })
            .collect::<RqpResult<Vec<_>>>()?;
        let cell_plan = v["cell_plan"]
            .as_array()
            .ok_or_else(|| bad("cell_plan is not an array".to_string()))?
            .iter()
            .map(|x| {
                x.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| bad("cell_plan entry is not a u32".to_string()))
            })
            .collect::<RqpResult<Vec<_>>>()?;
        let cell_cost = f64_list(&v["cell_cost"], "cell_cost")?;
        let contour_ratio = v["contour_ratio"]
            .as_f64()
            .ok_or_else(|| bad("contour_ratio is not a number".to_string()))?;
        Ok(PospSnapshot { grid, plans, cell_plan, cell_cost, contour_ratio })
    }
}

/// Format marker written into every snapshot JSON document.
const FORMAT: &str = "rqp-posp-snapshot-v1";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EssConfig;
    use rqp_catalog::{CatalogBuilder, QueryBuilder, RelationBuilder};
    use rqp_optimizer::Optimizer;
    use rqp_qplan::CostModel;

    fn compiled() -> Ess {
        let catalog = CatalogBuilder::new()
            .relation(
                RelationBuilder::new("a", 1_000_000).indexed_column("k", 1_000_000, 8).build(),
            )
            .relation(
                RelationBuilder::new("b", 9_000_000).indexed_column("k", 1_000_000, 8).build(),
            )
            .build();
        let query = QueryBuilder::new(&catalog, "t")
            .table("a")
            .table("b")
            .epp_join("a", "k", "b", "k")
            .build()
            .unwrap();
        // leak: the test Ess must own nothing borrowed
        let catalog: &'static _ = Box::leak(Box::new(catalog));
        let query: &'static _ = Box::leak(Box::new(query));
        let opt = Optimizer::new(catalog, query, CostModel::default());
        Ess::compile(&opt, EssConfig { resolution: 12, ..Default::default() }).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ess = compiled();
        let snap = PospSnapshot::capture(&ess);
        let json = snap.to_json().unwrap();
        let restored = PospSnapshot::from_json(&json).unwrap().restore().unwrap();
        assert_eq!(restored.grid().num_cells(), ess.grid().num_cells());
        assert_eq!(restored.posp.num_plans(), ess.posp.num_plans());
        assert_eq!(restored.contours.num_bands(), ess.contours.num_bands());
        for cell in ess.grid().cells() {
            assert_eq!(restored.posp.plan_id(cell), ess.posp.plan_id(cell));
            assert_eq!(restored.posp.cost(cell), ess.posp.cost(cell));
            assert_eq!(restored.contours.band_of(cell), ess.contours.band_of(cell));
        }
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let ess = compiled();
        let mut snap = PospSnapshot::capture(&ess);
        snap.cell_cost[0] = -1.0;
        assert!(snap.clone().restore().unwrap_err().to_string().contains("invalid cell cost"));
        snap.cell_cost[0] = 1.0;
        snap.cell_plan[0] = 999;
        assert!(snap.clone().restore().unwrap_err().to_string().contains("unknown plan"));
        snap.cell_plan.pop();
        assert!(snap.restore().unwrap_err().to_string().contains("do not match grid"));
        assert!(PospSnapshot::from_json("{oops")
            .unwrap_err()
            .to_string()
            .contains("bad snapshot JSON"));
    }
}
