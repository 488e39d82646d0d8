//! Tracing-overhead benchmark. Two views:
//!
//! * criterion micro: a bare discovery run (no compile) with the tracer
//!   off vs. on — the worst case for tracing, since a simulated discovery
//!   run is microseconds long and every span's fixed cost shows;
//! * the recorded number: a full serve run (single-flight ESS compile +
//!   8 discovery sessions, the paths sessions actually pay) off vs. on,
//!   where the ≤5% overhead acceptance bar applies. Median timings and
//!   the measured ratio go to `BENCH_6.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use rqp_bench::{median_secs, write_bench_report};
use rqp_core::{Discovery, SpillBound};
use rqp_ess::EssConfig;
use rqp_obs::{install, SpanKind, Tracer};
use rqp_serve::{serve_workload, ServeConfig};
use rqp_workloads::{parse_session_file, Workload};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let w = Workload::q91(3).expect("workload builds");
    let rt = w.runtime(EssConfig::coarse(3)).expect("ESS compiles");
    let qa = rt.grid().num_cells() / 2;
    let algo = SpillBound::with_refined_bounds();

    c.bench_function("trace_overhead/discover_off", |b| {
        b.iter(|| {
            let _scope = install(Tracer::disabled());
            black_box(algo.discover(&rt, qa).total_cost)
        })
    });
    c.bench_function("trace_overhead/discover_on", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            let tracer = Tracer::new(id, 0);
            let _scope = install(tracer.clone());
            let mut root = tracer.span(rqp_obs::names::SPAN_SESSION, SpanKind::Session);
            root.attr("session", id);
            let cost = algo.discover(&rt, qa).total_cost;
            drop(root);
            black_box((cost, tracer.spans().len()))
        })
    });

    // bare-discovery medians: the worst case, reported for context
    let reps = 15;
    let discover_off_s = median_secs(reps, || {
        let _scope = install(Tracer::disabled());
        black_box(algo.discover(&rt, qa).total_cost);
    });
    let mut id = 1_000_000u64;
    let discover_on_s = median_secs(reps, || {
        id += 1;
        let tracer = Tracer::new(id, 0);
        let _scope = install(tracer.clone());
        let _root = tracer.span(rqp_obs::names::SPAN_SESSION, SpanKind::Session);
        black_box(algo.discover(&rt, qa).total_cost);
    });

    // the acceptance measure: a full serve run (compile + 8 sessions),
    // i.e. what a traced deployment actually pays per unit of service
    let entries = parse_session_file("3D_Q91 sb x8\n").expect("session file parses");
    let serve_reps = 9;
    let run = |tracing: bool| {
        let report = serve_workload(
            ServeConfig { workers: 4, queue_cap: 16, tracing, ..ServeConfig::default() },
            &entries,
        )
        .expect("serve run succeeds");
        assert_eq!(report.completed(), 8);
        black_box(report.results.len());
    };
    let off_s = median_secs(serve_reps, || run(false));
    let on_s = median_secs(serve_reps, || run(true));
    let overhead = on_s / off_s.max(1e-12) - 1.0;

    write_bench_report(
        "BENCH_6.json",
        vec![
            ("bench", "trace_overhead".into()),
            (
                "fixture",
                "q91 3D coarse; serve: 1 compile + 8 SpillBound sessions, 4 workers".into(),
            ),
            ("serve_reps", serve_reps.into()),
            ("serve_off_seconds", off_s.into()),
            ("serve_on_seconds", on_s.into()),
            ("overhead_ratio", overhead.into()),
            ("budget_ratio", 0.05.into()),
            ("discover_reps", reps.into()),
            ("bare_discover_off_seconds", discover_off_s.into()),
            ("bare_discover_on_seconds", discover_on_s.into()),
        ],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
