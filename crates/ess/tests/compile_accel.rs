//! Integration tests for the compile acceleration layer: the recosting
//! surface must be indistinguishable (within the workspace cost tolerance)
//! from the brute-force per-cell DP oracle, and a compile routed through
//! the persistent cache must restore byte-identical surfaces and bands.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod common;

use common::{assert_cost_equivalent, oracle};
use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder, RqpResult};
use rqp_ess::{CompileCache, CompileMode, Ess, EssConfig, Grid};
use rqp_optimizer::Optimizer;
use rqp_qplan::CostModel;

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
    let mut qb = QueryBuilder::new(catalog, "accel")
        .table("part")
        .table("lineitem")
        .table("orders")
        .epp_join("part", "p_partkey", "lineitem", "l_partkey")
        .epp_join("orders", "o_orderkey", "lineitem", "l_orderkey")
        .filter("part", "p_price", 0.05);
    if dims >= 3 {
        qb = qb.epp_filter("orders", "o_date", 0.1);
    }
    qb.build()
}

/// A recost compile of `dims` at `resolution` against the brute-force
/// oracle.
fn check_recost(opt: &Optimizer<'_>, dims: usize, resolution: usize) {
    let config = EssConfig { resolution, mode: CompileMode::Recost, ..Default::default() };
    let grid = Grid::uniform(dims, resolution, config.min_sel).unwrap();
    let compiled = Ess::compile_cached(opt, config, None).unwrap();
    assert_cost_equivalent(&oracle(opt, &grid, config.contour_ratio), &compiled, opt);
}

#[test]
fn recost_compile_matches_brute_force_2d() {
    let catalog = catalog();
    let query = query(&catalog, 2).unwrap();
    let opt = Optimizer::new(&catalog, &query, CostModel::default());
    for res in [9, 16] {
        check_recost(&opt, 2, res);
    }
}

#[test]
fn recost_compile_matches_brute_force_3d() {
    let catalog = catalog();
    let query = query(&catalog, 3).unwrap();
    let opt = Optimizer::new(&catalog, &query, CostModel::default());
    check_recost(&opt, 3, 10);
}

#[test]
fn compile_through_cache_restores_identical_surfaces_and_bands() {
    let catalog = catalog();
    let query = query(&catalog, 2).unwrap();
    let opt = Optimizer::new(&catalog, &query, CostModel::default());
    let config = EssConfig { resolution: 10, ..Default::default() };

    let dir = std::env::temp_dir().join(format!("rqp-accel-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CompileCache::new(&dir).unwrap();

    let cold = Ess::compile_cached(&opt, config, Some(&cache)).unwrap();
    let warm = Ess::compile_cached(&opt, config, Some(&cache)).unwrap();

    assert_eq!(cold.grid().num_cells(), warm.grid().num_cells());
    assert_eq!(cold.posp.num_plans(), warm.posp.num_plans());
    assert_eq!(cold.contours.num_bands(), warm.contours.num_bands());
    for cell in cold.grid().cells() {
        assert_eq!(cold.posp.cost(cell).to_bits(), warm.posp.cost(cell).to_bits());
        assert_eq!(cold.posp.plan_id(cell), warm.posp.plan_id(cell));
        assert_eq!(cold.contours.band_of(cell), warm.contours.band_of(cell));
    }
    for band in 0..cold.contours.num_bands() {
        assert_eq!(cold.contours.cells(band), warm.contours.cells(band));
        assert_eq!(
            cold.contours.plans_on(&cold.posp, band),
            warm.contours.plans_on(&warm.posp, band)
        );
    }

    // a config change must miss: different resolution, fresh compile
    let other = EssConfig { resolution: 11, ..Default::default() };
    let fresh = Ess::compile_cached(&opt, other, Some(&cache)).unwrap();
    assert_eq!(fresh.grid().num_cells(), 11 * 11);

    let _ = std::fs::remove_dir_all(&dir);
}
