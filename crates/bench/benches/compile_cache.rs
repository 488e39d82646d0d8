//! Compile-acceleration benchmarks (ISSUE 4): `Ess::compile` across 2D–4D
//! under the brute-force and recosting modes, plus the persistent snapshot
//! cache's warm path. Also takes manual median timings of the 3D coarse
//! fixture — brute force vs recosting vs warm cache — and records them in
//! `BENCH_4.json` at the repo root to start the perf trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{median_secs, write_bench_report};
use rqp_ess::{CompileCache, CompileMode, Ess, EssConfig};
use rqp_optimizer::Optimizer;
use rqp_qplan::CostModel;
use rqp_workloads::Workload;
use std::hint::black_box;

fn config(dims: usize, mode: CompileMode) -> EssConfig {
    EssConfig { mode, ..EssConfig::coarse(dims) }
}

fn bench(c: &mut Criterion) {
    let recost = CompileMode::Recost;

    for dims in [2usize, 3, 4] {
        let w = Workload::q91(dims).expect("workload builds");
        let opt = Optimizer::new(&w.catalog, &w.query, CostModel::default());
        for (label, mode) in [("exact", CompileMode::Exact), ("recost", recost)] {
            c.bench_function(&format!("compile/{dims}d_{label}"), |b| {
                b.iter(|| {
                    let ess = Ess::compile_cached(&opt, config(dims, mode), None).unwrap();
                    black_box(ess.posp.num_plans())
                })
            });
        }
    }

    // warm-cache criterion smoke: every iteration is a disk hit
    let dir = std::env::temp_dir().join(format!("rqp-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CompileCache::new(&dir).expect("cache dir");
    let w3 = Workload::q91(3).expect("workload builds");
    let opt3 = Optimizer::new(&w3.catalog, &w3.query, CostModel::default());
    Ess::compile_cached(&opt3, config(3, recost), Some(&cache)).expect("cold compile");
    c.bench_function("compile/3d_warm_cache", |b| {
        b.iter(|| {
            let ess = Ess::compile_cached(&opt3, config(3, recost), Some(&cache)).unwrap();
            black_box(ess.contours.num_bands())
        })
    });

    // manual medians on the 3D coarse fixture for the perf trajectory
    let reps = 5;
    let exact_s = median_secs(reps, || {
        Ess::compile_cached(&opt3, config(3, CompileMode::Exact), None).unwrap();
    });
    let recost_s = median_secs(reps, || {
        Ess::compile_cached(&opt3, config(3, recost), None).unwrap();
    });
    let warm_s = median_secs(reps, || {
        Ess::compile_cached(&opt3, config(3, recost), Some(&cache)).unwrap();
    });
    let _ = std::fs::remove_dir_all(&dir);

    write_bench_report(
        "BENCH_4.json",
        vec![
            ("bench", "compile_cache".into()),
            ("fixture", "q91 3D, EssConfig::coarse(3)".into()),
            ("reps", reps.into()),
            ("exact_seconds", exact_s.into()),
            ("recost_seconds", recost_s.into()),
            ("warm_cache_seconds", warm_s.into()),
            ("recost_speedup", (exact_s / recost_s.max(1e-12)).into()),
            ("warm_cache_speedup", (exact_s / warm_s.max(1e-12)).into()),
        ],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
