//! The cold-start paths of the ESS layer, exercised once per query after
//! suite-eval's set-up: a lazy compile to band 0 (cold compile to first
//! execution) and a snapshot round trip through a `CompileCache` in a
//! directory of the run's own. Neither is timed as an end-to-end metric
//! (see NOTES.md for why the cold-compile workload was dropped); both are
//! checked, printed with their sample counts, and reported layer by layer
//! in a traced run.

use crate::layers::Spans;
use crate::stats::Timing;
use crate::Outcome;
use rqp_core::RobustRuntime;
use rqp_ess::{compile_fingerprint, CompileCache, Ess, EssConfig, LazyEss, PospSnapshot};
use rqp_qplan::CostModel;
use rqp_workloads::Workload;
use std::path::PathBuf;
use std::time::Instant;

/// Everything that must agree between two compiled surfaces: the
/// snapshot bytes (grid, plans, per-cell plan and cost) and the contour
/// bands rebuilt on top of them.
fn surface_key(ess: &Ess) -> Result<(String, Vec<u64>, Vec<usize>), String> {
    let json = PospSnapshot::capture(ess).to_json().map_err(|e| e.to_string())?;
    let c = &ess.contours;
    let edges = (0..c.num_bands()).map(|b| c.cc(b).to_bits()).collect();
    let bands = ess.grid().cells().map(|cell| c.band_of(cell)).collect();
    Ok((json, edges, bands))
}

fn mismatch(what: &str, query: &str, eager: &Ess, other: &Ess) -> Option<String> {
    match (surface_key(eager), surface_key(other)) {
        (Ok(a), Ok(b)) if a == b => None,
        (Ok(_), Ok(_)) => Some(format!("{query}: {what} surface differs from the eager compile")),
        (Err(e), _) | (_, Err(e)) => Some(format!("{query}: cannot capture a surface: {e}")),
    }
}

/// A directory of this run's own under the current directory, removed
/// when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Result<ScratchDir, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("no current directory: {e}"))?
            .join(".bench_tmp")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // best effort: a leftover directory holds only snapshot files
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// `RobustRuntime::compile_lazy` plus band 0, split so that the anchor
/// compile (`ess.lazy_begin`) and the band-0 flood (`ess.first_band`) are
/// timed apart.
fn first_band<'w>(
    w: &'w Workload,
    cfg: EssConfig,
    spans: &mut Spans,
) -> Result<RobustRuntime<'w>, String> {
    let model = CostModel::default();
    let lazy = spans
        .time("ess.lazy_begin", || LazyEss::begin(&w.catalog, &w.query, model, cfg))
        .map_err(|e| e.to_string())?;
    spans.time("ess.first_band", || lazy.compile_through(0));
    RobustRuntime::with_shared_lazy(&w.catalog, &w.query, model, lazy).map_err(|e| e.to_string())
}

/// Take every `(workload, eager surface)` through a lazy first band and a
/// snapshot round trip, and check both against the eager surface: the
/// restored ESS must match it, and the lazy surface, finished, must match
/// it cell for cell. Returns the bytes of the stored snapshots.
pub fn probe(
    queries: &[(&Workload, &Ess)],
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<u64, String> {
    let scratch = ScratchDir::new("suite-eval")?;
    let cache = CompileCache::new(&scratch.0).map_err(|e| e.to_string())?;
    let model = CostModel::default();
    let (mut band0, mut restore) = (Timing::new(), Timing::new());
    let mut snapshot_bytes = 0;
    for &(w, ess) in queries {
        let name = &w.query.name;
        let cfg = EssConfig::coarse(w.query.dims());
        let t = Instant::now();
        let lazy = first_band(w, cfg, spans);
        band0.push(t.elapsed().as_secs_f64());
        out.check(match lazy {
            Ok(rt) if rt.bands_compiled() >= 1 => match rt.ess() {
                Ok(done) => mismatch("finished lazy", name, ess, &done),
                Err(e) => Some(format!("{name}: lazy finish failed: {e}")),
            },
            Ok(_) => Some(format!("{name}: band 0 was not compiled")),
            Err(e) => Some(format!("{name}: lazy compile failed: {e}")),
        });

        let fp = compile_fingerprint(&w.catalog, &w.query, &model, &cfg);
        let stored = cache.store(fp, &PospSnapshot::capture(ess)).map_err(|e| e.to_string());
        let t = Instant::now();
        let back = cache
            .load(fp)
            .ok_or_else(|| "the stored snapshot did not load".to_string())
            .and_then(|snap| snap.restore().map_err(|e| e.to_string()));
        let secs = t.elapsed().as_secs_f64();
        restore.push(secs);
        spans.add("ess.restore", secs);
        out.check(match stored.and(back) {
            Ok(restored) => mismatch("restored", name, ess, &restored),
            Err(e) => Some(format!("{name}: snapshot round trip failed: {e}")),
        });
        snapshot_bytes += std::fs::read_dir(cache.dir())
            .map_err(|e| e.to_string())?
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(&format!("{fp:016x}")))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum::<u64>();
    }
    out.line(band0.describe("first_band_ms (lazy begin + band 0, once per query)", "ms", 1e3));
    out.line(restore.describe("restore_ms (snapshot load + restore, once per query)", "ms", 1e3));
    out.line(format!("snapshot_bytes: {snapshot_bytes} bytes over {} snapshots", queries.len()));
    Ok(snapshot_bytes)
}
