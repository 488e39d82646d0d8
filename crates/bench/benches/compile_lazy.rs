//! Lazy anytime compilation benchmarks (ISSUE 9): cold
//! compile-to-first-execution. An eager server pays the full `Ess::compile`
//! before any session can execute; a lazy server pays `LazyEss::begin`
//! (ladder anchors only) plus the flood of the first contour band. On 4D+
//! fixtures the gap is the point of the whole tier — the manual medians go
//! to `BENCH_7.json` at the repo root (target: ≥10×).

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{median_secs, write_bench_report};
use rqp_ess::{Ess, EssConfig, LazyEss};
use rqp_optimizer::Optimizer;
use rqp_qplan::CostModel;
use rqp_workloads::Workload;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    for dims in [3usize, 4] {
        let w = Workload::q91(dims).expect("workload builds");
        let cfg = EssConfig::coarse(dims);
        let opt = Optimizer::new(&w.catalog, &w.query, CostModel::default());

        c.bench_function(&format!("compile_lazy/{dims}d_eager_full"), |b| {
            b.iter(|| {
                let ess = Ess::compile(&opt, cfg).unwrap();
                black_box(ess.posp.num_plans())
            })
        });
        c.bench_function(&format!("compile_lazy/{dims}d_lazy_first_band"), |b| {
            b.iter(|| {
                let lazy = LazyEss::begin(&w.catalog, &w.query, CostModel::default(), cfg).unwrap();
                lazy.compile_through(0);
                black_box(lazy.band_cells(0).len())
            })
        });
    }

    // manual medians on the 4D fixture for the perf trajectory
    let w4 = Workload::q91(4).expect("workload builds");
    let cfg4 = EssConfig::coarse(4);
    let opt4 = Optimizer::new(&w4.catalog, &w4.query, CostModel::default());
    let reps = 5;
    let eager_s = median_secs(reps, || {
        Ess::compile(&opt4, cfg4).unwrap();
    });
    let lazy_s = median_secs(reps, || {
        let lazy = LazyEss::begin(&w4.catalog, &w4.query, CostModel::default(), cfg4).unwrap();
        lazy.compile_through(0);
    });
    let probe = LazyEss::begin(&w4.catalog, &w4.query, CostModel::default(), cfg4).unwrap();
    probe.compile_through(0);
    let (bands_first, bands_total) = (probe.bands_compiled(), probe.num_bands());

    write_bench_report(
        "BENCH_7.json",
        vec![
            ("bench", "compile_lazy".into()),
            ("fixture", "q91 4D, EssConfig::coarse(4)".into()),
            ("reps", reps.into()),
            ("eager_full_seconds", eager_s.into()),
            ("lazy_first_band_seconds", lazy_s.into()),
            ("first_execution_speedup", (eager_s / lazy_s.max(1e-12)).into()),
            ("bands_compiled_at_first_execution", bands_first.into()),
            ("total_bands", bands_total.into()),
        ],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
