//! The plan registry: deduplicated storage of every distinct plan seen
//! while compiling an ESS.

use rqp_qplan::{Fingerprint, PlanNode};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a registered plan. Display follows the paper's `P<k>`
/// convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanId(pub u32);

impl std::fmt::Display for PlanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0 + 1)
    }
}

/// Deduplicated plan storage.
#[derive(Debug, Clone, Default)]
pub struct PlanRegistry {
    plans: Vec<Arc<PlanNode>>,
    by_fp: HashMap<Fingerprint, PlanId>,
}

impl PlanRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PlanRegistry::default()
    }

    /// Register a plan, returning its id (existing id if already present).
    pub fn insert(&mut self, plan: PlanNode) -> PlanId {
        self.insert_shared(Fingerprint::of(&plan), Arc::new(plan))
    }

    /// Register a plan whose fingerprint the caller has already computed,
    /// sharing the tree rather than copying it.
    pub(crate) fn insert_shared(&mut self, fp: Fingerprint, plan: Arc<PlanNode>) -> PlanId {
        debug_assert_eq!(fp, Fingerprint::of(&plan), "fingerprint must match the plan");
        *self.by_fp.entry(fp).or_insert_with(|| {
            let id = PlanId(self.plans.len() as u32);
            self.plans.push(plan);
            id
        })
    }

    /// Look up a plan id by fingerprint.
    pub fn get(&self, fp: Fingerprint) -> Option<PlanId> {
        self.by_fp.get(&fp).copied()
    }

    /// The plan with the given id.
    pub fn plan(&self, id: PlanId) -> &Arc<PlanNode> {
        &self.plans[id.0 as usize]
    }

    /// Number of distinct plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Iterate over `(id, plan)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PlanId, &Arc<PlanNode>)> {
        self.plans.iter().enumerate().map(|(i, p)| (PlanId(i as u32), p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::{PredId, RelId};

    fn scan(r: u32, f: Option<u32>) -> PlanNode {
        PlanNode::SeqScan { rel: RelId(r), filters: f.map(PredId).into_iter().collect() }
    }

    #[test]
    fn dedups_identical_plans() {
        let mut reg = PlanRegistry::new();
        let a = reg.insert(scan(0, None));
        let b = reg.insert(scan(0, None));
        let c = reg.insert(scan(1, None));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(reg.len(), 2);
        assert_eq!(**reg.plan(a), scan(0, None));
    }

    #[test]
    fn display_is_one_based() {
        assert_eq!(PlanId(0).to_string(), "P1");
        assert_eq!(PlanId(13).to_string(), "P14");
    }

    #[test]
    fn lookup_by_fingerprint() {
        let mut reg = PlanRegistry::new();
        let p = scan(2, Some(1));
        let id = reg.insert(p.clone());
        assert_eq!(reg.get(Fingerprint::of(&p)), Some(id));
        assert_eq!(reg.get(Fingerprint::of(&scan(3, None))), None);
    }
}
