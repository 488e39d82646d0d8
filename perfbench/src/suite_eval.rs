//! `suite-eval`: PB, SB and AB evaluated through `evaluate_sampled` over
//! the 11-query TPC-DS suite at Quick scale.
//!
//! Set-up compiles every ESS and builds PB over the anorexic-reduced
//! diagram. The timed phase runs passes; one pass evaluates every
//! (query, algorithm) pair once, in a seeded order, at a fixed stride.
//! Every discovery run goes through [`Checked`], which times it and checks
//! the paper's bounds and the cost accounting; every evaluation's MSO and
//! ASO are compared with `golden/suite-eval.txt`. Each `evaluate_sampled`
//! call is also timed by wall clock, and its wall time over the summed
//! time of its runs scales the runs' fastest times into the evaluation's
//! wall time ([`EvalFloor::wall`]). So work the call does around the runs,
//! and runs it overlaps, count as the caller sees them.

use crate::layers::{Counters, LayerValues, Spans};
use crate::stats::{self, Fastest, Timing};
use crate::{Args, Outcome, Rng};
use rqp_core::invariants::check_trace_accounting;
use rqp_core::{
    evaluate_sampled, pb_guarantee, sb_guarantee, AlignedBound, Discovery, DiscoveryTrace,
    Evaluation, PlanBouquet, RobustRuntime, SpillBound,
};
use rqp_ess::{Cell, Ess, EssConfig};
use rqp_workloads::{BenchQuery, Workload};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Every `STRIDE`-th cell of each grid is a discovery location (cell 0
/// first). Chosen so one pass over the suite takes well under a second.
pub const STRIDE: usize = 29;
/// Anorexic reduction threshold (the paper's default, §6.2).
const LAMBDA: f64 = 0.2;
/// Set-up repetitions; `setup_s` sums each query's fastest set-up.
const SETUP_REPS: usize = 5;
/// Relative tolerance on a golden ASO: a mean's last bits may move with
/// summation order. MSO, a maximum, must match bit for bit.
const ASO_TOLERANCE: f64 = 1e-12;

const GOLDEN: &str = include_str!("../golden/suite-eval.txt");

/// One compiled suite query with its three algorithms.
struct Query {
    name: &'static str,
    workload: &'static Workload,
    rt: RobustRuntime<'static>,
    algos: [(Box<dyn Discovery>, f64); 3],
}

/// A discovery algorithm wrapped so that every run is timed and checked.
struct Checked<'a> {
    inner: &'a dyn Discovery,
    bound: f64,
    secs: Mutex<Vec<(Cell, f64)>>,
    bad: AtomicU64,
    first_problem: Mutex<Option<String>>,
}

impl<'a> Checked<'a> {
    fn new(inner: &'a dyn Discovery, bound: f64) -> Self {
        Checked {
            inner,
            bound,
            secs: Mutex::new(Vec::new()),
            bad: AtomicU64::new(0),
            first_problem: Mutex::new(None),
        }
    }

    fn problem(&self, t: &DiscoveryTrace) -> Option<String> {
        if let Some(f) = &t.failure {
            return Some(format!("{} at cell {}: failed: {f}", t.algo, t.qa));
        }
        if let Err(e) = check_trace_accounting(t) {
            return Some(format!("{} at cell {}: {e}", t.algo, t.qa));
        }
        let s = t.subopt();
        (!(s.is_finite() && s <= self.bound)).then(|| {
            format!(
                "{} at cell {}: sub-optimality {s} exceeds the bound {}",
                t.algo, t.qa, self.bound
            )
        })
    }
}

impl Discovery for Checked<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn discover(&self, rt: &RobustRuntime<'_>, qa: Cell) -> DiscoveryTrace {
        let start = Instant::now();
        let trace = self.inner.discover(rt, qa);
        let secs = start.elapsed().as_secs_f64();
        self.secs.lock().expect("timing lock poisoned by a panicking run").push((qa, secs));
        if let Some(p) = self.problem(&trace) {
            self.bad.fetch_add(1, Ordering::Relaxed);
            self.first_problem.lock().expect("problem lock poisoned").get_or_insert(p);
        }
        trace
    }
}

/// Compile every suite query and build its algorithms. Compile time goes
/// to the `compile` span, each query's whole set-up time to `floors`.
fn set_up(spans: &mut Spans, floors: &mut Fastest<usize>) -> Result<Vec<Query>, String> {
    let mut queries = Vec::new();
    for (i, &bq) in BenchQuery::all().iter().enumerate() {
        let start = Instant::now();
        // The runtime borrows its workload for the rest of the process.
        let w: &'static Workload =
            Box::leak(Box::new(Workload::tpcds(bq).map_err(|e| e.to_string())?));
        let cfg = EssConfig::coarse(w.query.dims());
        let rt = spans
            .time("compile", || w.runtime(cfg))
            .map_err(|e| format!("compile {}: {e}", w.query.name))?;
        let pb = spans
            .time("ess.anorexic", || PlanBouquet::anorexic(&rt, LAMBDA))
            .map_err(|e| format!("anorexic {}: {e}", bq.name()))?;
        let d = rt.dims();
        let pb_bound = pb_guarantee(pb.rho(&rt), LAMBDA);
        let algos: [(Box<dyn Discovery>, f64); 3] = [
            (Box::new(pb), pb_bound),
            (Box::new(SpillBound::new()), sb_guarantee(d)),
            (Box::new(AlignedBound::new()), sb_guarantee(d)),
        ];
        floors.record(i, start.elapsed().as_secs_f64());
        queries.push(Query { name: bq.name(), workload: w, rt, algos });
    }
    Ok(queries)
}

/// Golden `("query algo", mso bits, aso, runs)` entries.
type Golden = [(String, u64, f64, usize)];

fn golden() -> Vec<(String, u64, f64, usize)> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let [q, a, mso, aso, runs, ..] = f[..] else { return None };
            Some((
                format!("{q} {a}"),
                u64::from_str_radix(mso.trim_start_matches("0x"), 16).ok()?,
                aso.parse().ok()?,
                runs.parse().ok()?,
            ))
        })
        .collect()
}

fn golden_line(query: &str, ev: &Evaluation) -> String {
    format!("{query} {} 0x{:016x} {:?} {}", ev.name, ev.mso.to_bits(), ev.aso, ev.subopts.len())
}

fn golden_problem(gold: &Golden, query: &str, ev: &Evaluation) -> Option<String> {
    let key = format!("{query} {}", ev.name);
    let Some((_, mso, aso, runs)) = gold.iter().find(|g| g.0 == key) else {
        return Some(format!("no golden entry for {key}; measured {}", golden_line(query, ev)));
    };
    let aso_ok = (ev.aso - aso).abs() <= ASO_TOLERANCE * aso.abs();
    (ev.mso.to_bits() != *mso || !aso_ok || ev.subopts.len() != *runs)
        .then(|| format!("{key} differs from golden: measured {}", golden_line(query, ev)))
}

/// One pass: every (query, algorithm) pair in `order`, each checked.
struct Pass {
    secs: f64,
    /// Wall time inside the `evaluate_sampled` calls.
    eval_secs: f64,
    runs: usize,
    per_algo: Spans,
    golden_lines: Vec<String>,
}

/// What the timed passes saw of one (query, algorithm) evaluation.
#[derive(Default)]
struct EvalFloor {
    /// Fastest time of each of its discovery runs.
    runs: Fastest<Cell>,
    /// Per pass: the `evaluate_sampled` call's wall time over the summed
    /// time of the runs inside it. Above 1 by the call's own work, below 1
    /// when runs overlap; a slow spell moves both parts alike.
    wall_over_runs: Timing,
    /// Per pass: the call's wall time.
    walls: Timing,
}

impl EvalFloor {
    /// The evaluation's wall time with every run at its fastest: the
    /// runs' floors, summed, times the median wall-over-runs ratio. A
    /// discovery run takes about 0.1 ms and is repeated once a pass, so its
    /// floor catches the host's fast moments; a whole call takes tens of
    /// milliseconds and its own floor rarely does.
    fn wall(&self) -> f64 {
        self.runs.total() * self.wall_over_runs.median().unwrap_or(f64::NAN)
    }
}

/// Every evaluation's floors, by (query, algorithm).
type Floors = BTreeMap<(usize, usize), EvalFloor>;

fn pass(
    queries: &[Query],
    order: &[(usize, usize)],
    gold: &Golden,
    out: &mut Outcome,
    floors: &mut Floors,
) -> Pass {
    let mut p = Pass {
        secs: 0.0,
        eval_secs: 0.0,
        runs: 0,
        per_algo: Spans::default(),
        golden_lines: Vec::new(),
    };
    let start = Instant::now();
    for &(qi, ai) in order {
        let q = &queries[qi];
        let (algo, bound) = &q.algos[ai];
        let checked = Checked::new(algo.as_ref(), *bound);
        let t = Instant::now();
        let ev = evaluate_sampled(&q.rt, &checked, STRIDE);
        let wall = t.elapsed().as_secs_f64();
        p.eval_secs += wall;
        let runs = checked.secs.into_inner().expect("timing lock poisoned");
        let layer = crate::layers::discover_metric(&ev.name);
        let floor = floors.entry((qi, ai)).or_default();
        let mut run_secs = 0.0;
        for &(cell, secs) in &runs {
            floor.runs.record(cell, secs);
            p.per_algo.add(layer, secs);
            run_secs += secs;
        }
        floor.wall_over_runs.push(wall / run_secs);
        floor.walls.push(wall);
        let bad = checked.bad.load(Ordering::Relaxed);
        let first = checked.first_problem.into_inner().expect("problem lock poisoned");
        p.runs += runs.len();
        for i in 0..runs.len() as u64 {
            out.check((i < bad).then(|| first.clone().unwrap_or_default()));
        }
        out.check(golden_problem(gold, q.name, &ev));
        p.golden_lines.push(golden_line(q.name, &ev));
    }
    p.secs = start.elapsed().as_secs_f64();
    p
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Timing::new();
    let mut setup_floors = Fastest::default();
    let mut setup_spans = Spans::default();
    let mut setup_counters = Counters::default();
    let mut compile = Timing::new();
    let mut queries = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut queries));
        setup_spans = Spans::default();
        let before = Counters::read();
        let start = Instant::now();
        queries = set_up(&mut setup_spans, &mut setup_floors)?;
        setup.push(start.elapsed().as_secs_f64());
        setup_counters = Counters::read().since(&before);
        compile.push(setup_spans.secs("compile"));
    }
    let cells: usize = queries.iter().map(|q| q.rt.grid().num_cells()).sum();
    out.line(format!(
        "input: {} queries, {cells} ESS cells, stride {STRIDE}, PB (anorexic, lambda {LAMBDA}), SB, AB",
        queries.len()
    ));
    // Each query's fastest set-up, summed: a set-up is made of items of
    // 10 ms to 1 s, and the host's slow spells would move a median.
    let setup_s = setup_floors.total();
    out.line(format!(
        "setup_s: {setup_s:.4} s (each query's fastest of {SETUP_REPS} set-ups, summed; median whole set-up {:.4} s)",
        setup.median().unwrap_or(f64::NAN)
    ));
    out.line(format!(
        "compile_cells_per_s: {:.1} 1/s ({cells} cells over the median set-up compile, n={})",
        cells as f64 / compile.median().unwrap_or(f64::NAN),
        compile.len()
    ));

    // The lazy and snapshot paths, once per query, untimed; checked.
    let mut cold_spans = Spans::default();
    let surfaces = queries
        .iter()
        .map(|q| q.rt.ess().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let pairs: Vec<(&Workload, &Ess)> =
        queries.iter().zip(&surfaces).map(|(q, e)| (q.workload, e.as_ref())).collect();
    let snapshot_bytes = crate::cold_start::probe(&pairs, &mut cold_spans, &mut out)?;

    let gold = golden();
    let mut order: Vec<(usize, usize)> =
        (0..queries.len()).flat_map(|q| (0..3).map(move |a| (q, a))).collect();
    let mut rng = Rng::new(args.seed, 1);
    // Warm-up pass, untimed: fills the algorithms' per-band memo caches.
    // Its checks count like every other pass's.
    rng.shuffle(&mut order);
    let warm = pass(&queries, &order, &gold, &mut out, &mut Floors::default());
    let mut lines = warm.golden_lines.clone();
    lines.sort();
    for l in lines {
        out.line(format!("golden: {l}"));
    }

    // A traced run spends its first half untraced, for the overhead ratio.
    let untraced_for = if args.trace { args.seconds / 2 } else { args.seconds };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut traced_from = None;
    let mut floors = Floors::default();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        if elapsed >= args.seconds && !plain.is_empty() && (!args.trace || !traced.is_empty()) {
            break;
        }
        let tracing = args.trace && elapsed >= untraced_for && !plain.is_empty();
        if tracing && traced_from.is_none() {
            traced_from = Some(Counters::read());
        }
        rng.shuffle(&mut order);
        let p = pass(&queries, &order, &gold, &mut out, &mut floors);
        if tracing {
            traced.push(p);
        } else {
            plain.push(p);
        }
    }
    let pass_secs: Vec<f64> = plain.iter().map(|p| p.secs).collect();
    let median_pass = stats::median(&pass_secs).unwrap_or(f64::NAN);
    let runs_per_s = warm.runs as f64 / floors.values().map(EvalFloor::wall).sum::<f64>();
    let mut run_floor = Timing::new();
    let mut ratios = Timing::new();
    for f in floors.values() {
        run_floor.append(&f.runs.timing());
        ratios.append(&f.wall_over_runs);
    }
    out.line(format!(
        "eval_runs_per_s: {runs_per_s:.1} 1/s ({} runs over the {} evaluations' wall times at their runs' fastest; median wall/run-time ratio {:.4} (n={}); sum of fastest whole calls {:.1} 1/s; median pass {:.1} 1/s; {} passes)",
        warm.runs,
        order.len(),
        ratios.median().unwrap_or(f64::NAN),
        ratios.len(),
        warm.runs as f64 / floors.values().filter_map(|f| f.walls.fastest()).sum::<f64>(),
        warm.runs as f64 / median_pass,
        plain.len() + traced.len(),
    ));
    out.line(run_floor.describe("discovery_run_ms (fastest of each run's repeats)", "ms", 1e3));

    if !args.trace {
        out.metrics.push(("setup_s", setup_s, "s"));
        out.metrics.push(("throughput_per_s", runs_per_s, "1/s"));
        out.metrics.push((
            "latency_p50_ms",
            run_floor.percentile(0.5).unwrap_or(f64::NAN) * 1e3,
            "ms",
        ));
        out.metrics.push((
            "latency_p90_ms",
            run_floor.percentile(0.9).unwrap_or(f64::NAN) * 1e3,
            "ms",
        ));
        return Ok(out);
    }
    let mut v = LayerValues::new();
    v.set_compile_counters(&setup_counters);
    v.set("ess.anorexic_s", setup_spans.secs("ess.anorexic"));
    v.set("ess.lazy_begin_ms", cold_spans.mean("ess.lazy_begin") * 1e3);
    v.set("ess.first_band_ms", cold_spans.mean("ess.first_band") * 1e3);
    v.set("ess.restore_ms", cold_spans.mean("ess.restore") * 1e3);
    v.set("ess.snapshot_bytes", snapshot_bytes as f64);
    let delta = Counters::read().since(&traced_from.unwrap_or_default());
    v.set_discovery_counters(&delta, traced.len() as f64);
    let mut per_algo = Spans::default();
    for p in &traced {
        per_algo.merge(&p.per_algo);
    }
    for algo in ["pb", "sb", "ab"] {
        let key = crate::layers::discover_metric(algo);
        v.set(key, per_algo.mean(key) * 1e6);
    }
    let traced_secs: Vec<f64> = traced.iter().map(|p| p.secs).collect();
    let eval_secs: f64 = traced.iter().map(|p| p.eval_secs).sum();
    v.set("trace.coverage", eval_secs / traced_secs.iter().sum::<f64>());
    // Fastest pass of each half: host noise would swamp a median's change.
    // Both halves run the same code (every run is timed for the latency
    // percentiles either way), so today this reads noise around 0.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let untraced = fastest(&pass_secs);
    v.set("trace.overhead_ratio", (fastest(&traced_secs) - untraced) / untraced);
    out.metrics.extend(v.entries());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_evaluation_wall_is_its_run_floors_times_the_median_ratio() {
        let mut f = EvalFloor::default();
        for (cell, secs) in [(0, 2.0), (1, 3.0), (0, 1.0), (1, 4.0)] {
            f.runs.record(cell, secs);
        }
        for ratio in [0.5, 2.0, 0.6] {
            f.wall_over_runs.push(ratio);
        }
        assert_eq!(f.wall(), (1.0 + 3.0) * 0.6);
    }

    #[test]
    fn golden_file_covers_every_query_and_algorithm() {
        let gold = golden();
        assert_eq!(gold.len(), BenchQuery::all().len() * 3);
        for bq in BenchQuery::all() {
            for algo in ["PB", "SB", "AB"] {
                let key = format!("{} {algo}", bq.name());
                assert!(gold.iter().any(|g| g.0 == key), "no golden entry for {key}");
            }
        }
    }
}
