//! End-to-end observability checks: the acceptance criteria of the rqp-obs
//! work — metrics JSON with optimizer/ESS/discovery series, one JSONL
//! event per budgeted execution, and both artifacts parsing back through
//! the self-contained `rqp_obs::json` codec.

use rqp_bench::ObsOptions;
use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder};
use rqp_core::{Discovery, PlanBouquet, RobustRuntime, SpillBound};
use rqp_ess::EssConfig;
use rqp_obs::MetricsSnapshot;
use rqp_qplan::CostModel;
use std::process::Command;

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

fn temp_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("rqp_obs_test_{}_{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// The whole pipeline in one test: the event sink is process-global, so
/// every assertion about it lives here to avoid cross-test interference.
#[test]
fn metrics_and_events_round_trip_through_json_codec() {
    let metrics_path = temp_path("m.json");
    let events_path = temp_path("e.jsonl");
    let prom_path = temp_path("prom.txt");
    let opts = ObsOptions {
        metrics_path: Some(metrics_path.clone()),
        events_path: Some(events_path.clone()),
        prometheus_path: Some(prom_path.clone()),
    };
    rqp_bench::obs::init(&opts).expect("init obs outputs");

    // a tiny 2D compile + discovery sweep exercises every layer
    let (catalog, query) = fixture();
    let rt = RobustRuntime::compile(
        &catalog,
        &query,
        CostModel::default(),
        EssConfig { resolution: 7, min_sel: 1e-6, ..Default::default() },
    )
    .unwrap();
    let pb = PlanBouquet::new();
    let sb = SpillBound::new();
    let mut budgeted_steps = 0usize;
    for qa in [0, rt.grid().num_cells() / 2, rt.grid().terminus()] {
        budgeted_steps += pb.discover(&rt, qa).steps.len();
        let _ = sb.discover(&rt, qa);
    }
    assert!(budgeted_steps > 0, "PB must have executed something");

    rqp_bench::obs::finish(&opts).expect("write obs outputs");

    // --- metrics JSON parses and contains the advertised series ---
    let metrics_text = std::fs::read_to_string(&metrics_path).unwrap();
    let snap = MetricsSnapshot::from_json(&metrics_text).unwrap();
    assert!(
        snap.counters["rqp_optimizer_calls_total"] > 0,
        "optimizer call count missing from snapshot"
    );
    let compile = &snap.histograms["rqp_ess_compile_seconds"];
    assert_eq!(compile.count, 1, "one compile, timed once");
    assert!(compile.sum > 0.0);
    // the only test in this binary: every optimizer call is timed exactly once
    assert_eq!(
        snap.histograms["rqp_optimizer_optimize_seconds"].count,
        snap.counters["rqp_optimizer_calls_total"],
        "one optimize-time observation per optimizer call"
    );
    // the compile's two phases, which per-layer reports read
    for phase in ["rqp_ess_posp_compile_seconds", "rqp_ess_contour_build_seconds"] {
        let h = &snap.histograms[phase];
        assert!(h.count >= 1 && h.sum > 0.0, "{phase} missing from the compile");
    }
    assert!(snap.counters["rqp_ess_posp_cells_total"] >= 7 * 7, "every grid cell is counted");
    assert!(
        snap.counters.contains_key("rqp_discovery_runs_total{algo=\"PB-raw\"}"),
        "per-algorithm execution counters missing"
    );
    assert!(snap.counters["rqp_discovery_runs_total{algo=\"SB\"}"] >= 3);
    assert!(snap.counters["rqp_exec_budgeted_total"] >= budgeted_steps as u64);
    // pre-registered series appear even when untouched this run
    assert!(snap.counters.contains_key("rqp_discovery_runs_total{algo=\"ReOpt\"}"));

    // --- events JSONL: every line parses; one event per budgeted execution ---
    let events_text = std::fs::read_to_string(&events_path).unwrap();
    let mut budgeted_events = 0usize;
    let mut ess_compiles = 0usize;
    let mut lines = 0usize;
    for line in events_text.lines() {
        let v = rqp_obs::json::parse(line).unwrap();
        lines += 1;
        match v["event"].as_str().unwrap() {
            "budgeted_execution" => budgeted_events += 1,
            "ess_compile" => {
                ess_compiles += 1;
                let secs = v["compile_seconds"].as_f64().unwrap();
                assert!(secs > 0.0, "ess_compile event carries the compile time: {line}");
            }
            _ => {}
        }
    }
    assert!(lines > 0, "event stream is empty");
    assert_eq!(ess_compiles, 1, "exactly one compile happened under the sink");
    assert!(
        budgeted_events >= budgeted_steps,
        "expected >= {budgeted_steps} budgeted_execution events, got {budgeted_events}"
    );

    // --- prometheus text includes typed series ---
    let prom = std::fs::read_to_string(&prom_path).unwrap();
    assert!(prom.contains("# TYPE rqp_optimizer_calls_total counter"));
    assert!(prom.contains("rqp_ess_compile_seconds_bucket"));

    for p in [metrics_path, events_path, prom_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn reproduce_lists_experiments() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("--list")
        .output()
        .expect("run reproduce --list");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in rqp_bench::EXPERIMENTS {
        assert!(stdout.lines().any(|l| l == *name), "--list is missing {name}");
    }
}

#[test]
fn reproduce_rejects_unknown_experiments_and_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("fig14")
        .output()
        .expect("run reproduce fig14");
    assert!(!out.status.success(), "a typo must not silently run nothing");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment: fig14"));
    assert!(stderr.contains("fig8"), "the error must list valid names");

    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("--bogus")
        .output()
        .expect("run reproduce --bogus");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag: --bogus"));

    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fig8", "--metrics"])
        .output()
        .expect("run reproduce with dangling flag");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--metrics requires a file path"));
}
