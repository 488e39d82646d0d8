//! The dynamic-programming plan enumerator.

use rqp_catalog::{Catalog, EppId, PredId, Query, RelId, SelVector};
use rqp_qplan::cost::{CostModel, PlanCtx, PlanProps};
use rqp_qplan::ops::PlanNode;
use rqp_qplan::pipeline::spill_target;
use std::collections::BTreeSet;

/// Join-tree shape explored by the DP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinShape {
    /// All connected partitions of every subset (exhaustive bushy DP).
    Bushy,
    /// Only plans whose right input is a single base relation.
    LeftDeep,
    /// Bushy up to 9 relations, left-deep beyond (keeps ESS compilation of
    /// large queries tractable).
    #[default]
    Auto,
}

/// Optimizer tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizerConfig {
    /// Join-tree shape.
    pub shape: JoinShape,
    /// Disable the materialized-inner nested-loop operator (it is dominated
    /// on all but tiny inputs; disabling it speeds enumeration up slightly).
    pub disable_nest_loop: bool,
}

/// The result of an optimizer invocation: the cheapest plan found, its
/// estimated cost and output cardinality at the injected location.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The plan.
    pub plan: PlanNode,
    /// `Cost(plan, q)` at the injected location.
    pub cost: f64,
    /// Estimated output rows at the injected location.
    pub rows: f64,
}

/// A Selinger-style DP optimizer bound to one query.
#[derive(Debug, Clone)]
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    query: &'a Query,
    model: CostModel,
    config: OptimizerConfig,
    /// filter predicates per relation index (position in `query.relations`)
    filters: Vec<Vec<PredId>>,
    /// join edges as (predicate, left relation index, right relation index)
    edges: Vec<(PredId, usize, usize)>,
}

#[derive(Clone)]
struct Entry {
    plan: PlanNode,
    cost: f64,
    props: PlanProps,
}

/// A join candidate description, costed before any plan tree is built.
#[derive(Clone, Copy)]
enum Cand {
    Hash {
        build_left: bool,
    },
    Merge,
    NestLoop {
        outer_left: bool,
    },
    /// Index NL with the single-relation side as inner.
    IndexNl {
        outer_left: bool,
        lookup: PredId,
    },
}

impl<'a> Optimizer<'a> {
    /// Create an optimizer for `query` with default configuration.
    pub fn new(catalog: &'a Catalog, query: &'a Query, model: CostModel) -> Self {
        Self::with_config(catalog, query, model, OptimizerConfig::default())
    }

    /// Create an optimizer with an explicit configuration.
    pub fn with_config(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        config: OptimizerConfig,
    ) -> Self {
        // Width is enforced with a structured error at Query build/validate
        // time (rqp_catalog::MAX_RELATIONS); by the time an Optimizer is
        // constructed the count fits comfortably in a u32 subset mask. The
        // release-mode clamp keeps an invariant breach from ever sizing the
        // 2^n DP table off an unvalidated count.
        let n = query.relations.len();
        debug_assert!(
            (1..=rqp_catalog::MAX_RELATIONS).contains(&n),
            "query must join 1..={} relations (got {n}); Query::validate enforces this",
            rqp_catalog::MAX_RELATIONS
        );
        let n = n.clamp(1, rqp_catalog::MAX_RELATIONS);
        let rel_index = |r: RelId| {
            query.relations.iter().position(|&x| x == r).unwrap_or_else(|| {
                debug_assert!(false, "join relation {r:?} not in query relation list");
                0
            })
        };
        let filters =
            (0..n).map(|i| query.filters_on(query.relations[i]).map(|f| f.id).collect()).collect();
        let edges = query
            .joins
            .iter()
            .map(|j| (j.id, rel_index(j.left.rel), rel_index(j.right.rel)))
            .collect();
        Optimizer { catalog, query, model, config, filters, edges }
    }

    /// The query this optimizer plans.
    pub fn query(&self) -> &Query {
        self.query
    }

    /// The catalog statistics in use.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// The cost model in use.
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Cost an arbitrary plan at a location (convenience wrapper).
    pub fn cost_of(&self, plan: &PlanNode, loc: &SelVector) -> f64 {
        let ctx = PlanCtx::new(self.catalog, self.query, loc);
        self.model.cost(plan, &ctx)
    }

    fn bushy(&self) -> bool {
        match self.config.shape {
            JoinShape::Bushy => true,
            JoinShape::LeftDeep => false,
            JoinShape::Auto => self.query.relations.len() <= 9,
        }
    }

    /// The cheapest plan for the query at the injected ESS location.
    pub fn optimize(&self, loc: &SelVector) -> Planned {
        let m = crate::obs::metrics();
        m.calls.inc();
        // histogram only: a traced compile would otherwise record one span per call
        let _timing = rqp_obs::SpanGuard::histogram_only(&m.optimize_seconds);

        let ctx = PlanCtx::new(self.catalog, self.query, loc);
        // Query::validate caps the relation count at MAX_RELATIONS (20), so
        // the subset mask always fits a u32 and the DP table tops out at
        // 2^20 + 1 entries; the clamp mirrors `with_config` so a validation
        // bypass degrades instead of attempting a 4-billion-entry table.
        let n = self.query.relations.len().clamp(1, rqp_catalog::MAX_RELATIONS);
        let full: u32 = (1u32 << n) - 1;
        let mut dp: Vec<Option<Entry>> = vec![None; (full as usize) + 1];

        for i in 0..n {
            dp[1usize << i] = Some(self.best_access_path(i, &ctx));
        }

        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            dp[mask as usize] = self.best_join(mask, &dp, &ctx);
        }

        m.dp_entries.add(dp.iter().filter(|e| e.is_some()).count() as u64);

        let entry = match dp[full as usize].clone() {
            Some(e) => e,
            None => {
                // A disconnected join graph is a programmer error upstream;
                // degrade to a deterministic left-deep cross-product plan
                // (never cheaper than any connected optimum, so PCM-safe).
                debug_assert!(false, "no connected plan for query {}", self.query.name);
                self.fallback_plan(&ctx)
            }
        };
        let entry = self.finalize_aggregate(entry, &ctx);
        Planned { plan: entry.plan, cost: entry.cost, rows: entry.props.rows }
    }

    /// Wrap the SPJ optimum in the cheaper aggregation strategy when the
    /// query groups its result.
    fn finalize_aggregate(&self, entry: Entry, ctx: &PlanCtx<'_>) -> Entry {
        if self.query.group_by.is_empty() {
            return entry;
        }
        let groups = self.query.group_by.clone();
        let cap: f64 =
            groups.iter().map(|g| self.catalog.relation(g.rel).columns[g.col].ndv as f64).product();
        let _ = ctx;
        let input = (entry.cost, entry.props);
        let (hash_c, hash_p) = self.model.hash_aggregate_cost(input, cap);
        let (sorted_c, sorted_p) = self.model.sort_aggregate_cost(self.model.sort_cost(input), cap);
        if hash_c <= sorted_c {
            Entry {
                plan: PlanNode::HashAggregate { input: Box::new(entry.plan), groups },
                cost: hash_c,
                props: hash_p,
            }
        } else {
            Entry {
                plan: PlanNode::SortAggregate {
                    input: Box::new(PlanNode::Sort { input: Box::new(entry.plan) }),
                    groups,
                },
                cost: sorted_c,
                props: sorted_p,
            }
        }
    }

    /// Deterministic left-deep nested-loop fallback chaining all relations
    /// in query order. Only reached (in release builds) when the join graph
    /// is disconnected; the cross products make it an overestimate, never an
    /// underestimate, of any connected plan's cost.
    fn fallback_plan(&self, ctx: &PlanCtx<'_>) -> Entry {
        let n = self.query.relations.len();
        let mut entry = self.best_access_path(0, ctx);
        for i in 1..n {
            let right = self.best_access_path(i, ctx);
            let preds = self.connecting_preds((1u32 << i) - 1, 1u32 << i);
            let join_sel: f64 = preds.iter().map(|&p| ctx.sel(p)).product();
            let (cost, props) = self.model.nest_loop_cost(
                (entry.cost, entry.props),
                (right.cost, right.props),
                join_sel,
            );
            entry = Entry {
                plan: PlanNode::NestLoop {
                    outer: Box::new(entry.plan),
                    inner: Box::new(right.plan),
                    preds,
                },
                cost,
                props,
            };
        }
        entry
    }

    /// Best access path for relation index `i`.
    fn best_access_path(&self, i: usize, ctx: &PlanCtx<'_>) -> Entry {
        let rel_id = self.query.relations[i];
        let rel = self.catalog.relation(rel_id);
        let fs = &self.filters[i];
        let filter_sel: f64 = fs.iter().map(|&p| ctx.sel(p)).product();

        let (c, props) = self.model.seq_scan_cost(rel, filter_sel, fs.len());
        let mut best =
            Entry { plan: PlanNode::SeqScan { rel: rel_id, filters: fs.clone() }, cost: c, props };

        // index scans driven by each indexed sargable filter
        for (k, &sarg) in fs.iter().enumerate() {
            let Some(f) = self.query.filter(sarg) else {
                debug_assert!(false, "filter predicate {sarg} not in query");
                continue;
            };
            let col = f.col;
            if !self.catalog.relation(col.rel).columns[col.col].indexed {
                continue;
            }
            let residual: Vec<PredId> =
                fs.iter().enumerate().filter(|&(j, _)| j != k).map(|(_, &p)| p).collect();
            let residual_sel: f64 = residual.iter().map(|&p| ctx.sel(p)).product();
            let (c, props) =
                self.model.index_scan_cost(rel, ctx.sel(sarg), residual_sel, residual.len());
            if c < best.cost {
                best = Entry {
                    plan: PlanNode::IndexScan { rel: rel_id, sarg, filters: residual },
                    cost: c,
                    props,
                };
            }
        }
        best
    }

    /// Join predicates crossing between two disjoint relation-index masks.
    fn connecting_preds(&self, lmask: u32, rmask: u32) -> Vec<PredId> {
        self.edges
            .iter()
            .filter(|&&(_, a, b)| {
                (lmask >> a) & 1 == 1 && (rmask >> b) & 1 == 1
                    || (lmask >> b) & 1 == 1 && (rmask >> a) & 1 == 1
            })
            .map(|&(p, _, _)| p)
            .collect()
    }

    /// Best join plan for `mask`, combining DP entries of its partitions.
    fn best_join(&self, mask: u32, dp: &[Option<Entry>], ctx: &PlanCtx<'_>) -> Option<Entry> {
        let mut best: Option<(f64, PlanProps, u32, u32, Cand, Vec<PredId>)> = None;
        let mut candidates: u64 = 0;

        let mut consider = |lmask: u32, rmask: u32| {
            let (Some(le), Some(re)) = (&dp[lmask as usize], &dp[rmask as usize]) else {
                return;
            };
            let preds = self.connecting_preds(lmask, rmask);
            if preds.is_empty() {
                return; // no cross products
            }
            let join_sel: f64 = preds.iter().map(|&p| ctx.sel(p)).product();
            let l = (le.cost, le.props);
            let r = (re.cost, re.props);

            let mut push = |cost: f64, props: PlanProps, cand: Cand| {
                candidates += 1;
                if best.as_ref().is_none_or(|b| cost < b.0) {
                    best = Some((cost, props, lmask, rmask, cand, preds.clone()));
                }
            };

            // hash join, both build orientations
            let (c, p) = self.model.hash_join_cost(l, r, join_sel);
            push(c, p, Cand::Hash { build_left: true });
            let (c, p) = self.model.hash_join_cost(r, l, join_sel);
            push(c, p, Cand::Hash { build_left: false });

            // sort-merge
            let (c, p) = self.model.merge_join_cost(
                self.model.sort_cost(l),
                self.model.sort_cost(r),
                join_sel,
            );
            push(c, p, Cand::Merge);

            // materialized-inner nested loop, both orientations
            if !self.config.disable_nest_loop {
                let (c, p) = self.model.nest_loop_cost(l, r, join_sel);
                push(c, p, Cand::NestLoop { outer_left: true });
                let (c, p) = self.model.nest_loop_cost(r, l, join_sel);
                push(c, p, Cand::NestLoop { outer_left: false });
            }

            // index nested loop: single-relation side as indexed inner
            for (inner_mask, outer_left) in [(rmask, true), (lmask, false)] {
                if inner_mask.count_ones() != 1 {
                    continue;
                }
                let i = inner_mask.trailing_zeros() as usize;
                let inner_rel_id = self.query.relations[i];
                let inner_rel = self.catalog.relation(inner_rel_id);
                let outer = if outer_left { l } else { r };
                for &pid in &preds {
                    let Some(j) = self.query.join(pid) else {
                        debug_assert!(false, "join predicate {pid} not in query");
                        continue;
                    };
                    let inner_col = if j.left.rel == inner_rel_id { j.left } else { j.right };
                    if !self.catalog.relation(inner_col.rel).columns[inner_col.col].indexed {
                        continue;
                    }
                    let lookup_sel = ctx.sel(pid);
                    let others: f64 =
                        preds.iter().filter(|&&p| p != pid).map(|&p| ctx.sel(p)).product();
                    let fsel: f64 = self.filters[i].iter().map(|&p| ctx.sel(p)).product();
                    let n_res = preds.len() - 1 + self.filters[i].len();
                    let (c, p) = self.model.index_nest_loop_cost(
                        outer,
                        inner_rel,
                        lookup_sel,
                        others * fsel,
                        n_res,
                    );
                    push(c, p, Cand::IndexNl { outer_left, lookup: pid });
                }
            }
        };

        if self.bushy() {
            // enumerate partitions; fix the lowest bit on the left side to
            // halve the enumeration (orientation handled per candidate)
            let low = mask & mask.wrapping_neg();
            let mut s = (mask - 1) & mask;
            while s > 0 {
                if s & low != 0 {
                    consider(s, mask ^ s);
                }
                s = (s - 1) & mask;
            }
        } else {
            let mut bits = mask;
            while bits != 0 {
                let r = bits & bits.wrapping_neg();
                bits ^= r;
                consider(mask ^ r, r);
            }
        }

        if candidates > 0 {
            crate::obs::metrics().join_candidates.add(candidates);
        }

        let (cost, props, lmask, rmask, cand, preds) = best?;
        let plan = self.build_candidate(lmask, rmask, cand, preds, dp);
        Some(Entry { plan, cost, props })
    }

    fn build_candidate(
        &self,
        lmask: u32,
        rmask: u32,
        cand: Cand,
        preds: Vec<PredId>,
        dp: &[Option<Entry>],
    ) -> PlanNode {
        let take = |m: u32| -> Box<PlanNode> {
            match dp[m as usize].as_ref() {
                Some(e) => Box::new(e.plan.clone()),
                None => {
                    // unreachable: best_join only selects masks with entries
                    debug_assert!(false, "dp entry for chosen mask {m:#b} must exist");
                    let i = (m.trailing_zeros() as usize).min(self.query.relations.len() - 1);
                    Box::new(PlanNode::SeqScan {
                        rel: self.query.relations[i],
                        filters: Vec::new(),
                    })
                }
            }
        };
        let l = || take(lmask);
        let r = || take(rmask);
        match cand {
            Cand::Hash { build_left: true } => PlanNode::HashJoin { build: l(), probe: r(), preds },
            Cand::Hash { build_left: false } => {
                PlanNode::HashJoin { build: r(), probe: l(), preds }
            }
            Cand::Merge => PlanNode::MergeJoin {
                left: Box::new(PlanNode::Sort { input: l() }),
                right: Box::new(PlanNode::Sort { input: r() }),
                preds,
            },
            Cand::NestLoop { outer_left: true } => {
                PlanNode::NestLoop { outer: l(), inner: r(), preds }
            }
            Cand::NestLoop { outer_left: false } => {
                PlanNode::NestLoop { outer: r(), inner: l(), preds }
            }
            Cand::IndexNl { outer_left, lookup } => {
                let inner_mask = if outer_left { rmask } else { lmask };
                let i = inner_mask.trailing_zeros() as usize;
                PlanNode::IndexNestLoop {
                    outer: if outer_left { l() } else { r() },
                    inner_rel: self.query.relations[i],
                    lookup,
                    preds: preds.into_iter().filter(|&p| p != lookup).collect(),
                    inner_filters: self.filters[i].clone(),
                }
            }
        }
    }

    /// The cheapest plan *that spills on `target`* (first unlearnt epp in
    /// its pipeline total-order), or `None` if no such plan is found.
    ///
    /// Mirrors the engine extension of §6.1: first the unconstrained optimum
    /// is checked; failing that, a plan is constructed that evaluates the
    /// target epp's predicate in its bottom-most join (greedy cheapest
    /// extension thereafter) so the target comes first in spill order.
    pub fn optimize_spilling_on(
        &self,
        loc: &SelVector,
        target: EppId,
        unlearnt: &BTreeSet<EppId>,
    ) -> Option<Planned> {
        crate::obs::metrics().spill_constrained_calls.inc();
        let unconstrained = self.optimize(loc);
        if spill_target(&unconstrained.plan, self.query, unlearnt) == Some(target) {
            return Some(unconstrained);
        }
        let forced = self.force_spill_plan(loc, target)?;
        if spill_target(&forced.plan, self.query, unlearnt) == Some(target) {
            return Some(forced);
        }
        None
    }

    /// Greedily build a plan whose bottom-most node evaluates the target
    /// epp's predicate.
    fn force_spill_plan(&self, loc: &SelVector, target: EppId) -> Option<Planned> {
        let ctx = PlanCtx::new(self.catalog, self.query, loc);
        let pred = self.query.epp_pred(target);
        let n = self.query.relations.len();
        let rel_index = |r: RelId| {
            self.query.relations.iter().position(|&x| x == r).unwrap_or_else(|| {
                debug_assert!(false, "epp relation {r:?} not in query relation list");
                0
            })
        };

        // seed: the epp's own relations (join) or relation (filter)
        let (mut mask, mut current): (u32, Entry) = if let Some(j) = self.query.join(pred) {
            let a = rel_index(j.left.rel);
            let b = rel_index(j.right.rel);
            let ea = self.best_access_path(a, &ctx);
            let eb = self.best_access_path(b, &ctx);
            let mask = (1u32 << a) | (1u32 << b);
            let mut dp: Vec<Option<Entry>> = vec![None; (mask as usize) + 1];
            dp[1usize << a] = Some(ea);
            dp[1usize << b] = Some(eb);
            let joined = self.best_join(mask, &dp, &ctx)?;
            (mask, joined)
        } else {
            // epp filter: scan the relation with the target filter first so
            // it leads the intra-pipeline order
            let f = self.query.filter(pred)?;
            let i = rel_index(f.col.rel);
            let mut fs = vec![pred];
            fs.extend(self.filters[i].iter().copied().filter(|&p| p != pred));
            let rel = self.catalog.relation(f.col.rel);
            let filter_sel: f64 = fs.iter().map(|&p| ctx.sel(p)).product();
            let (c, props) = self.model.seq_scan_cost(rel, filter_sel, fs.len());
            let plan = PlanNode::SeqScan { rel: f.col.rel, filters: fs };
            (1u32 << i, Entry { plan, cost: c, props })
        };

        // greedy cheapest extension by one relation at a time
        while mask.count_ones() < n as u32 {
            let mut best: Option<(f64, Entry, u32)> = None;
            for i in 0..n {
                let bit = 1u32 << i;
                if mask & bit != 0 {
                    continue;
                }
                if self.connecting_preds(mask, bit).is_empty() {
                    continue;
                }
                // cost the extension via a tiny DP over {mask, bit}
                let joined_mask = mask | bit;
                let mut dp: Vec<Option<Entry>> = vec![None; (joined_mask as usize) + 1];
                dp[mask as usize] = Some(current.clone());
                dp[bit as usize] = Some(self.best_access_path(i, &ctx));
                // consider only partitions (mask, bit): emulate via best_join
                // on the union; partitions through other splits are absent
                // because dp holds no other entries.
                if let Some(e) = self.best_join(joined_mask, &dp, &ctx) {
                    if best.as_ref().is_none_or(|b| e.cost < b.0) {
                        best = Some((e.cost, e, joined_mask));
                    }
                }
            }
            let (_, e, new_mask) = best?;
            current = e;
            mask = new_mask;
        }
        Some(Planned { plan: current.plan, cost: current.cost, rows: current.props.rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::{CatalogBuilder, QueryBuilder, RelationBuilder};

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
    fn returned_cost_matches_full_plan_costing() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        for loc in [
            SelVector::from_values(&[1e-7, 1e-7]),
            SelVector::from_values(&[1e-4, 1e-2]),
            SelVector::from_values(&[1.0, 1.0]),
        ] {
            let planned = opt.optimize(&loc);
            let recosted = opt.cost_of(&planned.plan, &loc);
            assert!(
                (planned.cost - recosted).abs() <= 1e-9 * planned.cost.max(1.0),
                "DP cost {} != recosted {}",
                planned.cost,
                recosted
            );
        }
    }

    #[test]
    fn optimal_plan_changes_across_the_ess() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let lo = opt.optimize(&SelVector::from_values(&[1e-8, 1e-8]));
        let hi = opt.optimize(&SelVector::from_values(&[1.0, 1.0]));
        assert_ne!(
            rqp_qplan::Fingerprint::of(&lo.plan),
            rqp_qplan::Fingerprint::of(&hi.plan),
            "expected different optimal plans at opposite ESS corners"
        );
        assert!(hi.cost > lo.cost, "terminus must cost more than origin (PCM)");
    }

    #[test]
    fn bushy_never_worse_than_left_deep() {
        let (catalog, query) = fixture();
        let model = CostModel::default();
        let bushy = Optimizer::with_config(
            &catalog,
            &query,
            model,
            OptimizerConfig { shape: JoinShape::Bushy, ..Default::default() },
        );
        let ld = Optimizer::with_config(
            &catalog,
            &query,
            model,
            OptimizerConfig { shape: JoinShape::LeftDeep, ..Default::default() },
        );
        for loc in [
            SelVector::from_values(&[1e-6, 1e-3]),
            SelVector::from_values(&[1e-2, 1e-5]),
            SelVector::from_values(&[0.3, 0.7]),
        ] {
            assert!(bushy.optimize(&loc).cost <= ld.optimize(&loc).cost * (1.0 + 1e-12));
        }
    }

    #[test]
    fn optimum_is_no_worse_than_handcrafted_plans() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let loc = SelVector::from_values(&[1e-5, 1e-5]);
        let planned = opt.optimize(&loc);
        // handcrafted: hash join everything, part as innermost build
        let filter = query.filters[0].id;
        let hand = PlanNode::HashJoin {
            build: Box::new(PlanNode::HashJoin {
                build: Box::new(PlanNode::SeqScan {
                    rel: catalog.find_relation("part").unwrap(),
                    filters: vec![filter],
                }),
                probe: Box::new(PlanNode::SeqScan {
                    rel: catalog.find_relation("lineitem").unwrap(),
                    filters: vec![],
                }),
                preds: vec![query.epps[0]],
            }),
            probe: Box::new(PlanNode::SeqScan {
                rel: catalog.find_relation("orders").unwrap(),
                filters: vec![],
            }),
            preds: vec![query.epps[1]],
        };
        assert!(planned.cost <= opt.cost_of(&hand, &loc) * (1.0 + 1e-12));
    }

    #[test]
    fn spill_constrained_optimization_spills_on_request() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let loc = SelVector::from_values(&[1e-4, 1e-4]);
        let all: BTreeSet<EppId> = [EppId(0), EppId(1)].into();
        for target in [EppId(0), EppId(1)] {
            let planned = opt
                .optimize_spilling_on(&loc, target, &all)
                .unwrap_or_else(|| panic!("no spill plan for {target}"));
            assert_eq!(
                spill_target(&planned.plan, &query, &all),
                Some(target),
                "plan must spill on {target}"
            );
            // the constrained plan can't beat the unconstrained optimum
            assert!(planned.cost >= opt.optimize(&loc).cost * (1.0 - 1e-12));
        }
    }

    #[test]
    fn single_relation_query_plans_a_scan() {
        let catalog = CatalogBuilder::new()
            .relation(RelationBuilder::new("t", 1000).indexed_column("a", 100, 8).build())
            .build();
        let query = QueryBuilder::new(&catalog, "single")
            .table("t")
            .epp_filter("t", "a", 0.1)
            .build()
            .unwrap();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let lo = opt.optimize(&SelVector::from_values(&[1e-6]));
        let hi = opt.optimize(&SelVector::from_values(&[1.0]));
        assert_eq!(lo.plan.op_name(), "IndexScan", "tiny selectivity should use the index");
        assert_eq!(hi.plan.op_name(), "SeqScan", "full selectivity should scan");
    }

    #[test]
    fn pcm_holds_for_the_optimal_cost_surface() {
        // optimal cost (min over plans) inherits monotonicity from PCM
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let mut prev = 0.0;
        for i in 0..8 {
            let s = 10f64.powf(-7.0 + 7.0 * i as f64 / 7.0);
            let c = opt.optimize(&SelVector::from_values(&[s, s])).cost;
            assert!(c >= prev);
            prev = c;
        }
    }
}

#[cfg(test)]
mod aggregate_tests {
    use super::*;
    use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder};

    fn grouped_fixture() -> (Catalog, Query) {
        let catalog = CatalogBuilder::new()
            .relation(
                RelationBuilder::new("sales", 5_000_000)
                    .indexed_column("item_sk", 100_000, 8)
                    .column("qty", 100, 4)
                    .build(),
            )
            .relation(
                RelationBuilder::new("item", 100_000)
                    .indexed_column("i_item_sk", 100_000, 8)
                    .column("i_category", 10, 16)
                    .build(),
            )
            .build();
        let query = QueryBuilder::new(&catalog, "grouped")
            .table("sales")
            .table("item")
            .epp_join("sales", "item_sk", "item", "i_item_sk")
            .group_by("item", "i_category")
            .build()
            .unwrap();
        (catalog, query)
    }

    #[test]
    fn grouped_query_plans_an_aggregate_root() {
        let (catalog, query) = grouped_fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        for s in [1e-6, 1e-3, 1.0] {
            let planned = opt.optimize(&SelVector::from_values(&[s]));
            assert!(
                matches!(
                    planned.plan,
                    PlanNode::HashAggregate { .. } | PlanNode::SortAggregate { .. }
                ),
                "root must aggregate, got {}",
                planned.plan.op_name()
            );
            // DP cost still equals full re-costing
            let recost = opt.cost_of(&planned.plan, &SelVector::from_values(&[s]));
            assert!((planned.cost - recost).abs() < 1e-9 * planned.cost.max(1.0));
            // output rows capped by the grouping column's NDV
            assert!(planned.rows <= 10.0 + 1e-9, "at most 10 categories, got {}", planned.rows);
        }
    }

    #[test]
    fn aggregate_cost_is_monotone_in_selectivity() {
        let (catalog, query) = grouped_fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let mut prev = 0.0;
        for i in 0..10 {
            let s = 10f64.powf(-6.0 + 6.0 * i as f64 / 9.0);
            let c = opt.optimize(&SelVector::from_values(&[s])).cost;
            assert!(c >= prev, "PCM violated through the aggregate");
            prev = c;
        }
    }

    #[test]
    fn spill_machinery_sees_through_the_aggregate() {
        use rqp_qplan::pipeline::{epp_spill_order, spill_subtree};
        let (catalog, query) = grouped_fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let loc = SelVector::from_values(&[1e-4]);
        let planned = opt.optimize(&loc);
        let order = epp_spill_order(&planned.plan, &query);
        assert_eq!(order.len(), 1, "the epp is visible below the aggregate");
        let sub = spill_subtree(&planned.plan, &query, order[0]).unwrap();
        assert!(
            !matches!(sub, PlanNode::HashAggregate { .. } | PlanNode::SortAggregate { .. }),
            "spill subtree excludes the aggregate root"
        );
        assert!(opt.cost_of(&sub, &loc) <= planned.cost);
    }
}
