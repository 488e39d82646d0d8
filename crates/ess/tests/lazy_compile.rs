//! Integration tests for the ESS compiler: a finished compile must match
//! the brute-force per-cell DP oracle (same costs to the bit in exact
//! mode, same plan assignment, same contour membership), and stopping at
//! band `k` must never cost cells above `k`'s boundary layer.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod common;

use common::{assert_cost_equivalent, oracle};
use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder, RqpResult};
use rqp_ess::{CompileMode, Ess, EssConfig, Grid, LazyEss, PospSnapshot};
use rqp_optimizer::Optimizer;
use rqp_qplan::{CostModel, Fingerprint};

fn catalog() -> Catalog {
    CatalogBuilder::new()
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
                .column("l_quantity", 50, 8)
                .build(),
        )
        .relation(
            RelationBuilder::new("orders", 15_000_000)
                .indexed_column("o_orderkey", 15_000_000, 8)
                .column("o_date", 2_400, 8)
                .build(),
        )
        .build()
}

fn query(catalog: &Catalog, dims: usize) -> RqpResult<Query> {
    let mut qb = QueryBuilder::new(catalog, "lazy")
        .table("part")
        .table("lineitem")
        .table("orders")
        .epp_join("part", "p_partkey", "lineitem", "l_partkey")
        .epp_join("orders", "o_orderkey", "lineitem", "l_orderkey")
        .filter("part", "p_price", 0.05);
    if dims >= 3 {
        qb = qb.epp_filter("orders", "o_date", 0.1);
    }
    if dims >= 4 {
        qb = qb.epp_filter("lineitem", "l_quantity", 0.3);
    }
    qb.build()
}

fn config(dims: usize, mode: CompileMode) -> EssConfig {
    let resolution = match dims {
        2 => 8,
        3 => 6,
        _ => 5,
    };
    EssConfig { resolution, mode, ..Default::default() }
}

/// Plan ids follow first-seen cell order: scanning cells by index, each
/// cell's id is either one already seen or the next fresh one.
fn assert_first_seen_ids(ess: &Ess) {
    let mut next = 0;
    for cell in ess.grid().cells() {
        let id = ess.posp.plan_id(cell).0;
        assert!(id <= next, "cell {cell}: plan id {id} skips ahead of {next}");
        if id == next {
            next += 1;
        }
    }
    assert_eq!(next as usize, ess.posp.num_plans());
}

/// An exact compile must equal the oracle bit for bit: costs, plans (by
/// fingerprint and id), contour ladder, band membership and snapshot.
fn assert_matches_oracle(oracle: &Ess, ess: &Ess) {
    assert_eq!(oracle.grid().num_cells(), ess.grid().num_cells());
    assert_eq!(oracle.posp.num_plans(), ess.posp.num_plans());
    assert_eq!(oracle.contours.num_bands(), ess.contours.num_bands());
    for cell in oracle.grid().cells() {
        assert_eq!(
            oracle.posp.cost(cell).to_bits(),
            ess.posp.cost(cell).to_bits(),
            "cell {cell} cost must be bitwise the oracle's"
        );
        let fp = |e: &Ess| Fingerprint::of(e.posp.plan(e.posp.plan_id(cell)));
        assert_eq!(fp(oracle), fp(ess), "cell {cell} plan");
        assert_eq!(oracle.posp.plan_id(cell), ess.posp.plan_id(cell), "cell {cell} plan id");
        assert_eq!(oracle.contours.band_of(cell), ess.contours.band_of(cell), "cell {cell} band");
    }
    for band in 0..oracle.contours.num_bands() {
        assert_eq!(oracle.contours.cc(band).to_bits(), ess.contours.cc(band).to_bits());
        assert_eq!(oracle.contours.cells(band), ess.contours.cells(band), "band {band} members");
    }
    assert_eq!(
        PospSnapshot::capture(oracle).to_json().unwrap(),
        PospSnapshot::capture(ess).to_json().unwrap(),
        "the snapshot must be byte-identical to the oracle's"
    );
}

/// Both ways to a finished surface — a lazy compile finished, and
/// `Ess::compile_cached` — against the per-cell DP oracle.
#[test]
fn lazy_finish_matches_eager_exact_and_recost_2d_3d_4d() {
    let catalog = catalog();
    for dims in [2usize, 3, 4] {
        let query = query(&catalog, dims).unwrap();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        for mode in [CompileMode::Exact, CompileMode::Recost] {
            let cfg = config(dims, mode);
            let grid = Grid::uniform(dims, cfg.resolution, cfg.min_sel).unwrap();
            let oracle = oracle(&opt, &grid, cfg.contour_ratio);
            let lazy = LazyEss::begin(&catalog, &query, CostModel::default(), cfg).unwrap();
            let finished = lazy.finish().unwrap();
            let compiled = Ess::compile_cached(&opt, cfg, None).unwrap();
            for ess in [&finished, &compiled] {
                assert_first_seen_ids(ess);
                match mode {
                    CompileMode::Exact => assert_matches_oracle(&oracle, ess),
                    CompileMode::Recost => assert_cost_equivalent(&oracle, ess, &opt),
                }
            }
        }
    }
}

/// Bands pulled from an unfinished compile equal a finished compile's.
#[test]
fn lazy_bands_match_eager_contours_without_finishing() {
    let catalog = catalog();
    let query = query(&catalog, 3).unwrap();
    let opt = Optimizer::new(&catalog, &query, CostModel::default());
    let cfg = config(3, CompileMode::Recost);
    let done = Ess::compile_cached(&opt, cfg, None).unwrap();
    let lazy = LazyEss::begin(&catalog, &query, CostModel::default(), cfg).unwrap();
    assert_eq!(lazy.num_bands(), done.contours.num_bands());
    for band in 0..2.min(lazy.num_bands()) {
        assert_eq!(
            *lazy.band_cells(band),
            done.contours.cells(band).to_vec(),
            "band {band} members must match the finished contour set"
        );
        assert!((lazy.cc(band) - done.contours.cc(band)).abs() == 0.0, "ladder edge {band}");
    }
}

#[test]
fn compiling_through_band_k_never_costs_cells_above_its_boundary() {
    let catalog = catalog();
    let query = query(&catalog, 3).unwrap();
    let cfg = config(3, CompileMode::Exact);
    let lazy = LazyEss::begin(&catalog, &query, CostModel::default(), cfg).unwrap();
    let total = lazy.grid().num_cells();
    assert!(lazy.num_bands() > 3, "fixture must have enough bands to stop early");

    lazy.compile_through(1);
    assert_eq!(lazy.bands_compiled(), 2);
    let costed = lazy.costed_cells();
    // bands 0..=1 plus their +1 boundary layer is a small fraction of the
    // grid — this is the whole point of the lazy compiler
    assert!(costed * 2 < total, "stopping at band 1 costed {costed} of {total} cells — not lazy");

    // exact-mode laziness is sharp: the costed set is exactly the flooded
    // down-set (bands 0..=1), its +1 boundary layer, and the terminus
    // ladder anchor — the frontier invariant
    let grid = lazy.grid();
    let dims = grid.dims();
    let mut expected: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for band in 0..2 {
        expected.extend(lazy.band_cells(band).iter().copied());
    }
    for cell in expected.clone() {
        let coords = grid.coords_of(cell);
        for d in 0..dims {
            if coords[d] + 1 < grid.res(d) {
                let mut up = coords.clone();
                up[d] += 1;
                expected.insert(grid.index(&up));
            }
        }
    }
    expected.insert(grid.terminus());
    assert_eq!(
        lazy.costed_cells(),
        expected.len(),
        "exact-mode costed set must be the down-set plus its boundary layer"
    );
}

#[test]
fn oracle_peeks_cost_single_cells_not_bands() {
    let catalog = catalog();
    let query = query(&catalog, 2).unwrap();
    let cfg = config(2, CompileMode::Exact);
    let lazy = LazyEss::begin(&catalog, &query, CostModel::default(), cfg).unwrap();
    let baseline = lazy.costed_cells(); // the two ladder anchors
    let mid = lazy.grid().num_cells() / 2;
    let c = lazy.cost(mid);
    assert!(c.is_finite() && c > 0.0);
    assert_eq!(lazy.bands_compiled(), 0, "a peek must not trigger band compilation");
    assert!(lazy.costed_cells() <= baseline + 1, "a peek costs at most one new cell");
    // peeks are memoized
    let again = lazy.cost(mid);
    assert_eq!(c.to_bits(), again.to_bits());
    assert_eq!(lazy.costed_cells(), baseline + 1);
}

#[test]
fn prefetch_compiles_ahead_in_the_background() {
    let catalog = catalog();
    let query = query(&catalog, 2).unwrap();
    let cfg = config(2, CompileMode::Exact);
    let lazy = LazyEss::begin(&catalog, &query, CostModel::default(), cfg).unwrap();
    let target = lazy.num_bands() - 1;
    lazy.prefetch(target);
    // bounded wait for the background task; compile_through is idempotent
    // and single-flight, so this also exercises the peer-wait path
    for _ in 0..500 {
        if lazy.bands_compiled() == target + 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    lazy.compile_through(target);
    assert_eq!(lazy.bands_compiled(), target + 1);
    assert_eq!(lazy.costed_cells(), lazy.grid().num_cells());
}
