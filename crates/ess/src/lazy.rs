//! Lazy anytime POSP compilation: contour bands materialize on demand.
//!
//! The discovery algorithms climb iso-cost contours in budget order and
//! most runs terminate well below the top band, yet the eager
//! [`crate::Ess::compile`] pays for the *entire* surface up front. This
//! module compiles band-by-band instead: [`LazyEss::compile_through`]
//! floods the grid outward from the origin one cost band at a time, so a
//! discovery that terminates at contour `k` never invokes the optimizer on
//! cells above `k`'s boundary layer (the **frontier invariant**: a cell is
//! costed only when it is a `+1` neighbor of some cell in a band `≤ k`).
//!
//! Parity with the eager compiler is load-bearing, not best-effort:
//!
//! - Per-cell costs are bitwise identical. [`CompileMode::Exact`] runs the
//!   same DP per cell; recost mode replays the exact seed-lattice protocol
//!   ([`crate::posp::seed_marks`] / [`crate::posp::seed_box`]), DP'ing seed
//!   corners on demand and memoizing them, so every cell sees the same
//!   corner fingerprints and takes the same recost-vs-fallback branch.
//! - The band ladder is anchored at the origin and terminus cells — under
//!   plan-cost monotonicity (PCM, §2.5) exactly the eager `cmin`/`cmax` —
//!   and band membership uses the same epsilon-settled
//!   [`crate::contours::band_index`] arithmetic.
//! - [`LazyEss::finish`] feeds the completed surface through
//!   [`Posp::assemble`] in cell-index order, reproducing the eager
//!   first-seen plan-id assignment, so the finished snapshot is
//!   byte-identical to an eager compile's.
//!
//! Concurrency: one [`parking_lot::Mutex`] guards the frontier, making
//! band materialization single-flight — peers that ask for a band already
//! being compiled block only until *that* band is done, and a rayon
//! background task ([`LazyEss::prefetch`]) can keep compiling band `k+1`
//! while discovery executes on band `k`. Costing inside a band is
//! parallelized with rayon; the calling thread participates in its own
//! `par_iter`, so holding the frontier lock across it cannot deadlock the
//! pool.

use crate::contours::{band_index, band_index_clamped};
use crate::grid::{Cell, Grid};
use crate::posp::{is_seed_cell, seed_box, seed_marks, CompileMode, Posp};
use crate::registry::{PlanId, PlanRegistry};
use crate::{ContourSet, Ess, EssConfig};
use parking_lot::Mutex;
use rayon::prelude::*;
use rqp_catalog::{Catalog, Query, RqpError, RqpResult};
use rqp_optimizer::Optimizer;
use rqp_qplan::{cost_eq, CostModel, Fingerprint, PlanNode};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Sentinel for "not yet banded" in the frontier's `band_of` table.
const UNBANDED: u32 = u32::MAX;

/// Mutable compile state: which cells have been costed, which have been
/// flooded into a band, and which are parked above the compile cursor.
struct Frontier {
    /// Per-cell `(fingerprint, cost)` memo; `Some` once the cell has been
    /// costed (possibly only as a seed corner, without being banded).
    slot: Vec<Option<(Fingerprint, f64)>>,
    /// Whether the cell has entered the band machinery (frozen band,
    /// current wave, or parked). Distinct from "costed": recost seed
    /// corners and oracle peeks cost cells without visiting them, and the
    /// flood must still expand such cells when it reaches them.
    visited: Vec<bool>,
    /// Band assignment, valid only for visited cells.
    band_of: Vec<u32>,
    /// Frozen cell lists for bands `0..=compiled_through`, each ascending
    /// by cell index (matching [`ContourSet::cells`] order).
    bands: Vec<Arc<Vec<Cell>>>,
    /// Visited cells whose band lies above `compiled_through`, waiting for
    /// the cursor to reach them.
    parked: Vec<Cell>,
    /// Plans discovered so far, ids in discovery order (canonicalized to
    /// the eager first-seen-by-cell order only by [`LazyEss::finish`]).
    registry: PlanRegistry,
    /// Highest fully materialized band; `-1` before the first.
    compiled_through: isize,
}

impl Frontier {
    fn new(num_cells: usize) -> Frontier {
        Frontier {
            slot: vec![None; num_cells],
            visited: vec![false; num_cells],
            band_of: vec![UNBANDED; num_cells],
            bands: Vec::new(),
            parked: Vec::new(),
            registry: PlanRegistry::new(),
            compiled_through: -1,
        }
    }
}

/// An anytime, band-by-band ESS compiler sharing the eager pipeline's
/// arithmetic cell for cell. See the module docs for the invariants.
pub struct LazyEss {
    catalog: Arc<Catalog>,
    query: Arc<Query>,
    model: CostModel,
    grid: Grid,
    /// Geometric contour ratio.
    ratio: f64,
    cmin: f64,
    /// Lower band edges `cc[i] = cmin · ratio^i`; `cc.len()` is `m`.
    cc: Vec<f64>,
    /// `Some(stride)` iff the effective mode is recost (mirrors the
    /// `seed_stride > 1 && dims <= 8` guard in [`Posp::compile_with`]).
    stride: Option<usize>,
    /// Seed marks per dimension (empty in exact mode).
    is_seed: Vec<Vec<bool>>,
    state: Mutex<Frontier>,
    /// The finished, canonicalized surface (error kept as text so the
    /// result is cloneable out of the cell).
    finished: OnceLock<Result<Arc<Ess>, String>>,
    /// Highest band any prefetch has been asked for (coalesces spawns).
    prefetch_hi: AtomicUsize,
}

impl LazyEss {
    /// Start a lazy compile: builds the grid, DPs only the origin and
    /// terminus cells (the ladder anchors — both are seed cells in recost
    /// mode, so their costs match an eager compile bitwise), and parks
    /// them for the flood.
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] for a bad contour ratio or a
    /// degenerate anchor cost surface, and propagates grid construction
    /// errors.
    pub fn begin(
        catalog: &Catalog,
        query: &Query,
        model: CostModel,
        config: EssConfig,
    ) -> RqpResult<Arc<LazyEss>> {
        if !(config.contour_ratio.is_finite() && config.contour_ratio > 1.0) {
            return Err(RqpError::Config(format!(
                "contour ratio must exceed 1, got {}",
                config.contour_ratio
            )));
        }
        let dims = query.dims().max(1);
        let grid = Grid::uniform(dims, config.resolution, config.min_sel)?;
        // The anchor DP is the lazy counterpart of the eager compile span:
        // it is all the single-flight window covers, so it carries the
        // same span name (kind Compile) for trace continuity.
        let mut compile_span =
            rqp_obs::current().span(rqp_obs::names::SPAN_ESS_COMPILE, rqp_obs::SpanKind::Compile);
        compile_span.attr("query", query.name.as_str());
        compile_span.attr("lazy", "anchors");
        let ratio = config.contour_ratio;
        let stride = match config.mode {
            CompileMode::Recost { seed_stride } if seed_stride > 1 && grid.dims() <= 8 => {
                Some(seed_stride)
            }
            _ => None,
        };
        let is_seed = stride.map(|s| seed_marks(&grid, s)).unwrap_or_default();

        let opt = Optimizer::new(catalog, query, model);
        let mut st = Frontier::new(grid.num_cells());
        let anchors = [grid.origin(), grid.terminus()];
        for &cell in &anchors {
            if st.slot[cell].is_none() {
                let planned = opt.optimize(&grid.location(cell));
                let fp = Fingerprint::of(&planned.plan);
                st.registry.insert(planned.plan);
                st.slot[cell] = Some((fp, planned.cost));
            }
        }
        let cmin = st.slot[grid.origin()].map(|(_, c)| c).unwrap_or(f64::NAN);
        let cmax = st.slot[grid.terminus()].map(|(_, c)| c).unwrap_or(f64::NAN);
        if !(cmin > 0.0 && cmin.is_finite() && cmax.is_finite()) {
            return Err(RqpError::Config(format!(
                "degenerate optimal cost surface: cmin {cmin}, cmax {cmax}"
            )));
        }
        let m = band_index(cmax, cmin, ratio)? + 1;
        let cc: Vec<f64> = (0..m).map(|i| cmin * ratio.powi(i as i32)).collect();
        for &cell in &anchors {
            if !st.visited[cell] {
                let cost = st.slot[cell].map(|(_, c)| c).unwrap_or(f64::NAN);
                st.visited[cell] = true;
                st.band_of[cell] = band_index_clamped(cost, cmin, ratio, m) as u32;
                st.parked.push(cell);
            }
        }

        compile_span.attr("grid_cells", grid.num_cells() as u64);
        compile_span.attr("contour_bands", m as u64);
        drop(compile_span);

        Ok(Arc::new(LazyEss {
            catalog: Arc::new(catalog.clone()),
            query: Arc::new(query.clone()),
            model,
            grid,
            ratio,
            cmin,
            cc,
            stride,
            is_seed,
            state: Mutex::new(st),
            finished: OnceLock::new(),
            prefetch_hi: AtomicUsize::new(0),
        }))
    }

    /// The grid (fully known up front — laziness is per band, not per axis).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of contour bands `m` (known up front from the anchors).
    pub fn num_bands(&self) -> usize {
        self.cc.len()
    }

    /// Lower-edge cost `CC_i` of band `i`.
    pub fn cc(&self, band: usize) -> f64 {
        self.cc[band]
    }

    /// The contour ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Number of bands materialized so far.
    pub fn bands_compiled(&self) -> usize {
        (self.state.lock().compiled_through + 1) as usize
    }

    /// Number of cells costed so far (bands, boundary layer, seed corners
    /// and oracle peeks) — the laziness measure the tests assert on.
    pub fn costed_cells(&self) -> usize {
        self.state.lock().slot.iter().filter(|s| s.is_some()).count()
    }

    /// Materialize every band up to and including `band` (clamped to the
    /// ladder). Single-flight: concurrent callers serialize on the
    /// frontier lock and whoever arrives second finds the bands done.
    pub fn compile_through(&self, band: usize) {
        let target = band.min(self.num_bands() - 1) as isize;
        let mut st = self.state.lock();
        if st.compiled_through >= target {
            return;
        }
        let opt = Optimizer::new(&self.catalog, &self.query, self.model);
        let tracer = rqp_obs::current();
        while st.compiled_through < target {
            let k = (st.compiled_through + 1) as usize;
            let sw = rqp_obs::Stopwatch::start();
            let members = self.flood_band(&mut st, &opt, k);
            let cells = members.len();
            st.bands.push(Arc::new(members));
            st.compiled_through = k as isize;
            crate::obs::metrics().bands_compiled.inc();
            if tracer.is_enabled() {
                tracer.record_span(
                    rqp_obs::names::SPAN_ESS_BAND_COMPILE,
                    rqp_obs::SpanKind::CompilePhase,
                    sw.elapsed_secs(),
                    vec![
                        ("band", rqp_obs::JsonValue::from(k as u64)),
                        ("cells", rqp_obs::JsonValue::from(cells as u64)),
                    ],
                );
            }
        }
    }

    /// Flood band `k`: expand parked band-`k` cells, costing `+1`
    /// neighbors; neighbors landing in band `k` join the wave, higher
    /// bands park. Returns `k`'s members ascending by cell index.
    fn flood_band(&self, st: &mut Frontier, opt: &Optimizer<'_>, k: usize) -> Vec<Cell> {
        let grid = &self.grid;
        let dims = grid.dims();
        let m = self.num_bands();
        let mut members: Vec<Cell> = Vec::new();
        let mut wave: Vec<Cell> = Vec::new();
        let mut still_parked = Vec::with_capacity(st.parked.len());
        for &c in &st.parked {
            if st.band_of[c] as usize == k {
                wave.push(c);
            } else {
                still_parked.push(c);
            }
        }
        st.parked = still_parked;

        let mut coords = vec![0usize; dims];
        while !wave.is_empty() {
            members.extend_from_slice(&wave);
            let mut fresh: BTreeSet<Cell> = BTreeSet::new();
            for &c in &wave {
                grid.coords_into(c, &mut coords);
                for d in 0..dims {
                    if coords[d] + 1 < grid.res(d) {
                        coords[d] += 1;
                        let n = grid.index(&coords);
                        coords[d] -= 1;
                        if !st.visited[n] {
                            fresh.insert(n);
                        }
                    }
                }
            }
            let fresh: Vec<Cell> = fresh.into_iter().collect();
            self.cost_cells(st, opt, &fresh);
            let mut next = Vec::new();
            for n in fresh {
                let cost = st.slot[n].map(|(_, c)| c).unwrap_or(f64::NAN);
                let mut b = band_index_clamped(cost, self.cmin, self.ratio, m);
                if b < k {
                    // only reachable when PCM is violated at a band edge by
                    // more than the cost_eq tolerance; fold the cell into
                    // the current band so the flood stays a down-set
                    debug_assert!(
                        cost_eq(cost, self.cc[k]),
                        "cell {n} banded below the flood cursor (cost {cost}, band {b} < {k})"
                    );
                    b = k;
                }
                st.visited[n] = true;
                st.band_of[n] = b as u32;
                if b == k {
                    next.push(n);
                } else {
                    st.parked.push(n);
                }
            }
            wave = next;
        }
        members.sort_unstable();
        members
    }

    /// Cost every not-yet-costed cell in `cells`, replicating the eager
    /// per-cell protocol of the effective compile mode.
    fn cost_cells(&self, st: &mut Frontier, opt: &Optimizer<'_>, cells: &[Cell]) {
        let grid = &self.grid;
        match self.stride {
            None => {
                let jobs: Vec<Cell> =
                    cells.iter().copied().filter(|&c| st.slot[c].is_none()).collect();
                let done: Vec<(Cell, Fingerprint, PlanNode, f64)> = jobs
                    .into_par_iter()
                    .map(|cell| {
                        let planned = opt.optimize(&grid.location(cell));
                        let fp = Fingerprint::of(&planned.plan);
                        (cell, fp, planned.plan, planned.cost)
                    })
                    .collect();
                for (cell, fp, plan, cost) in done {
                    if st.registry.get(fp).is_some() {
                        crate::obs::metrics().memo_hits.inc();
                    }
                    st.registry.insert(plan);
                    st.slot[cell] = Some((fp, cost));
                }
            }
            Some(stride) => self.cost_cells_recost(st, opt, cells, stride),
        }
    }

    /// Recost-mode costing: DP any needed seed cells first (the cells
    /// themselves when on the sublattice, plus the seed-box corners of
    /// those that are not), then fill non-seed cells by corner agreement
    /// exactly as [`crate::posp`]'s eager pass does.
    fn cost_cells_recost(
        &self,
        st: &mut Frontier,
        opt: &Optimizer<'_>,
        cells: &[Cell],
        stride: usize,
    ) {
        let grid = &self.grid;
        let dims = grid.dims();
        let metrics = crate::obs::metrics();
        let mut seed_jobs: BTreeSet<Cell> = BTreeSet::new();
        let mut fill_jobs: Vec<Cell> = Vec::new();
        let mut lo = vec![0usize; dims];
        let mut hi = vec![0usize; dims];
        let mut coords = vec![0usize; dims];
        for &cell in cells {
            if st.slot[cell].is_some() {
                continue;
            }
            if is_seed_cell(grid, &self.is_seed, cell) {
                seed_jobs.insert(cell);
                continue;
            }
            fill_jobs.push(cell);
            seed_box(grid, &self.is_seed, stride, cell, &mut lo, &mut hi);
            for mask in 0u32..(1u32 << dims) {
                for d in 0..dims {
                    coords[d] = if mask & (1 << d) != 0 { hi[d] } else { lo[d] };
                }
                let corner = grid.index(&coords);
                if st.slot[corner].is_none() {
                    seed_jobs.insert(corner);
                }
            }
        }

        let seed_jobs: Vec<Cell> = seed_jobs.into_iter().collect();
        metrics.seed_cells.add(seed_jobs.len() as u64);
        let seeded: Vec<(Cell, Fingerprint, PlanNode, f64)> = seed_jobs
            .into_par_iter()
            .map(|cell| {
                let planned = opt.optimize(&grid.location(cell));
                let fp = Fingerprint::of(&planned.plan);
                (cell, fp, planned.plan, planned.cost)
            })
            .collect();
        for (cell, fp, plan, cost) in seeded {
            if st.registry.get(fp).is_some() {
                metrics.memo_hits.inc();
            }
            st.registry.insert(plan);
            st.slot[cell] = Some((fp, cost));
        }

        // fill pass: corners are all costed now; read-only over the memo
        let (slot, registry) = (&st.slot, &st.registry);
        let filled: Vec<(Cell, Fingerprint, Option<PlanNode>, f64, bool)> = fill_jobs
            .par_iter()
            .map(|&cell| {
                let mut lo = vec![0usize; dims];
                let mut hi = vec![0usize; dims];
                let mut coords = vec![0usize; dims];
                seed_box(grid, &self.is_seed, stride, cell, &mut lo, &mut hi);
                let mut agreed: Option<Fingerprint> = None;
                let mut agree = true;
                'corners: for mask in 0u32..(1u32 << dims) {
                    for d in 0..dims {
                        coords[d] = if mask & (1 << d) != 0 { hi[d] } else { lo[d] };
                    }
                    match (slot[grid.index(&coords)], agreed) {
                        (Some((fp, _)), None) => agreed = Some(fp),
                        (Some((fp, _)), Some(first)) if fp == first => {}
                        _ => {
                            agree = false;
                            break 'corners;
                        }
                    }
                }
                if let (true, Some(first)) = (agree, agreed) {
                    if let Some(id) = registry.get(first) {
                        let cost = opt.cost_of(registry.plan(id), &grid.location(cell));
                        return (cell, first, None, cost, true);
                    }
                }
                let planned = opt.optimize(&grid.location(cell));
                let fp = Fingerprint::of(&planned.plan);
                (cell, fp, Some(planned.plan), planned.cost, false)
            })
            .collect();
        for (cell, fp, plan, cost, recosted) in filled {
            if recosted {
                metrics.recost_cells.inc();
            } else {
                metrics.recost_fallback_cells.inc();
                if st.registry.get(fp).is_some() {
                    metrics.memo_hits.inc();
                }
                if let Some(plan) = plan {
                    st.registry.insert(plan);
                }
            }
            st.slot[cell] = Some((fp, cost));
        }
    }

    /// Cost one cell outside the flood (an oracle peek): memoized, does
    /// not visit the cell, and never compiles a band.
    fn peek(&self, cell: Cell) -> (Fingerprint, f64) {
        let mut st = self.state.lock();
        if st.slot[cell].is_none() {
            let opt = Optimizer::new(&self.catalog, &self.query, self.model);
            self.cost_cells(&mut st, &opt, &[cell]);
        }
        st.slot[cell].unwrap_or((Fingerprint(0), f64::NAN))
    }

    /// The optimal cost at a cell (costing it on demand if necessary —
    /// a single-cell peek, not a band compile).
    pub fn cost(&self, cell: Cell) -> f64 {
        self.peek(cell).1
    }

    /// The band a cell belongs to (costing it on demand if necessary).
    pub fn band_of(&self, cell: Cell) -> usize {
        let (_, cost) = self.peek(cell);
        band_index_clamped(cost, self.cmin, self.ratio, self.num_bands())
    }

    /// The cells of `band`, compiling through it first if needed.
    /// Ascending by cell index, like [`ContourSet::cells`].
    pub fn band_cells(&self, band: usize) -> Arc<Vec<Cell>> {
        let band = band.min(self.num_bands() - 1);
        self.compile_through(band);
        Arc::clone(&self.state.lock().bands[band])
    }

    /// The optimal plan id at a cell, in the *lazy* registry's id space
    /// (stable within this surface; canonicalized only by [`finish`]).
    ///
    /// [`finish`]: LazyEss::finish
    pub fn plan_id_at(&self, cell: Cell) -> PlanId {
        let (fp, _) = self.peek(cell);
        self.state.lock().registry.get(fp).unwrap_or(PlanId(0))
    }

    /// The plan with a (lazy) id.
    pub fn plan(&self, id: PlanId) -> Arc<PlanNode> {
        Arc::clone(self.state.lock().registry.plan(id))
    }

    /// Cost of an arbitrary discovered plan at an arbitrary cell.
    pub fn plan_cost_at(&self, id: PlanId, cell: Cell) -> f64 {
        let plan = self.plan(id);
        let opt = Optimizer::new(&self.catalog, &self.query, self.model);
        opt.cost_of(&plan, &self.grid.location(cell))
    }

    /// All plan ids discovered so far (the pool grows as bands compile).
    pub fn plan_pool(&self) -> Vec<PlanId> {
        (0..self.state.lock().registry.len() as u32).map(PlanId).collect()
    }

    /// Ask a rayon background task to compile through `band` while the
    /// caller keeps executing on lower bands. Coalesced: only a request
    /// above every previous one spawns a task.
    pub fn prefetch(self: &Arc<Self>, band: usize) {
        let target = band.min(self.num_bands() - 1);
        // +1 so the initial value 0 doesn't swallow a request for band 0
        if self.prefetch_hi.fetch_max(target + 1, Ordering::SeqCst) > target {
            return;
        }
        let this = Arc::clone(self);
        rayon::spawn(move || {
            // chase the latest coalesced target, not just our own
            let hi = this.prefetch_hi.load(Ordering::SeqCst).saturating_sub(1);
            this.compile_through(hi);
        });
    }

    /// Complete the surface and canonicalize it into an [`Ess`] that is
    /// byte-identical to an eager compile: flood the remaining bands, then
    /// assemble per-cell results in cell-index order (reproducing the
    /// eager first-seen plan-id assignment) and rebuild the contours from
    /// the full surface.
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] if the completed surface cannot be
    /// banded (degenerate costs that the lazy clamp tolerated).
    pub fn finish(&self) -> RqpResult<Arc<Ess>> {
        let out = self.finished.get_or_init(|| {
            self.compile_through(self.num_bands() - 1);
            let st = self.state.lock();
            let mut per_cell: Vec<(Fingerprint, f64)> = Vec::with_capacity(self.grid.num_cells());
            for cell in self.grid.cells() {
                match st.slot[cell] {
                    Some(entry) => per_cell.push(entry),
                    None => {
                        return Err(format!(
                            "cell {cell} left uncosted by a completed lazy compile"
                        ))
                    }
                }
            }
            let plans = st
                .registry
                .iter()
                .map(|(_, p)| (Fingerprint::of(p), (**p).clone()))
                .collect::<std::collections::HashMap<_, _>>();
            drop(st);
            let posp = Posp::assemble(self.grid.clone(), per_cell, plans);
            let contours = ContourSet::build(&posp, self.ratio).map_err(|e| e.to_string())?;
            Ok(Arc::new(Ess { posp, contours }))
        });
        match out {
            Ok(ess) => Ok(Arc::clone(ess)),
            Err(e) => Err(RqpError::Config(format!("lazy finish: {e}"))),
        }
    }
}

impl Drop for LazyEss {
    fn drop(&mut self) {
        // bands the surface never had to pay for — the whole point
        let compiled = self.state.get_mut().compiled_through;
        let skipped = (self.cc.len() as isize - 1 - compiled).max(0);
        crate::obs::metrics().bands_skipped.add(skipped as u64);
    }
}

impl std::fmt::Debug for LazyEss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("LazyEss")
            .field("query", &self.query.name)
            .field("num_bands", &self.cc.len())
            .field("compiled_through", &st.compiled_through)
            .field("plans_discovered", &st.registry.len())
            .finish()
    }
}
