//! Persistent compile cache: on-disk POSP snapshots keyed by a stable
//! fingerprint of everything the compiled surface depends on.
//!
//! ESS compilation is the dominant preprocessing cost of the whole approach
//! (§7: "repeated invocations of the optimizer"), and benches, chaos sweeps
//! and CLI runs recompile identical surfaces from scratch. This module
//! amortizes that: [`compile_fingerprint`] digests the catalog statistics,
//! the query, the [`CostModel`] constants and the [`EssConfig`] into a
//! version-stable 64-bit key ([`StableHasher`], FNV-1a — `DefaultHasher`
//! makes no cross-version promise), and [`CompileCache`] stores one
//! [`PospSnapshot`] per key in a directory. Any input change produces a new
//! key, so a stored entry can never be served for a surface it does not
//! describe; an entry whose *recorded* fingerprint disagrees with its file
//! name (manual tampering, partial copy), whose trailing FNV-1a checksum
//! disagrees with its payload (bit rot, torn write), or that fails to
//! decode is invalidated on load — **quarantined** to `<name>.corrupt`
//! (counted by `rqp_ess_cache_corrupt_total`) rather than silently
//! deleted, so operators keep the evidence while the rebuilt surface
//! replaces the entry.
//!
//! Entries use a hand-rolled line/token text format rather than the JSON
//! export format of [`PospSnapshot::to_json`]. Both round-trip every
//! float exactly; the text format is kept because it decodes faster: over
//! the 11-query coarse suite, JSON decode from memory took 47–66 ms
//! against 7.5–9.8 ms to read, checksum and decode the text entries from
//! disk (five repeats, 2-core dev host).

use crate::posp::{CompileMode, SEED_STRIDE};
use crate::snapshot::PospSnapshot;
use crate::EssConfig;
use rqp_catalog::{Catalog, Query, RqpError, RqpResult};
use rqp_qplan::{CostModel, StableHasher};
use std::path::PathBuf;
use std::sync::RwLock;

/// Stable fingerprint of a compile's inputs: catalog statistics, logical
/// query, cost-model constants and ESS configuration.
pub fn compile_fingerprint(
    catalog: &Catalog,
    query: &Query,
    model: &CostModel,
    config: &EssConfig,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("rqp-ess-cache-v1");

    h.write_usize(catalog.len());
    for (_, rel) in catalog.iter() {
        h.write_str(&rel.name);
        h.write_u64(rel.rows);
        h.write_usize(rel.columns.len());
        for col in &rel.columns {
            h.write_str(&col.name);
            h.write_u64(col.ndv);
            h.write_u32(col.width);
            h.write_bool(col.indexed);
            h.write_f64(col.skew);
        }
    }

    h.write_str(&query.name);
    h.write_usize(query.relations.len());
    for r in &query.relations {
        h.write_u32(r.0);
    }
    h.write_usize(query.joins.len());
    for j in &query.joins {
        h.write_u32(j.id.0);
        h.write_u32(j.left.rel.0);
        h.write_usize(j.left.col);
        h.write_u32(j.right.rel.0);
        h.write_usize(j.right.col);
    }
    h.write_usize(query.filters.len());
    for f in &query.filters {
        h.write_u32(f.id.0);
        h.write_u32(f.col.rel.0);
        h.write_usize(f.col.col);
        h.write_f64(f.selectivity);
    }
    h.write_usize(query.epps.len());
    for e in &query.epps {
        h.write_u32(e.0);
    }
    h.write_usize(query.group_by.len());
    for g in &query.group_by {
        h.write_u32(g.rel.0);
        h.write_usize(g.col);
    }

    let p = model.params;
    for v in
        [p.seq_page, p.rand_page, p.cpu_tuple, p.cpu_index, p.cpu_oper, p.mem_pages, p.btree_fanout]
    {
        h.write_f64(v);
    }

    h.write_usize(config.resolution);
    h.write_f64(config.min_sel);
    h.write_f64(config.contour_ratio);
    match config.mode {
        CompileMode::Exact => h.write_u8(0),
        CompileMode::Recost => {
            h.write_u8(1);
            h.write_usize(SEED_STRIDE);
        }
    }
    h.finish()
}

/// An on-disk cache of compiled POSP snapshots, one file per fingerprint.
#[derive(Debug, Clone)]
pub struct CompileCache {
    dir: PathBuf,
}

impl CompileCache {
    /// Open (creating if necessary) a cache rooted at `dir`.
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> RqpResult<CompileCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            RqpError::Config(format!("unusable cache directory {}: {e}", dir.display()))
        })?;
        Ok(CompileCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// The file the entry for `fp` lives in; a quarantined entry is moved
    /// to the same name with `.corrupt` appended.
    pub fn entry_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("posp-{fp:016x}.rqpc"))
    }

    /// Load the snapshot cached under `fp`, if present and valid. A missing
    /// entry is a plain miss. An entry that cannot be read, is not UTF-8,
    /// whose recorded fingerprint no longer matches, whose checksum
    /// disagrees with its payload, or that fails to decode is also a miss,
    /// and is quarantined to `<name>.corrupt` so the rebuilt surface can
    /// replace it while the bad bytes stay inspectable.
    pub fn load(&self, fp: u64) -> Option<PospSnapshot> {
        let path = self.entry_path(fp);
        let decoded = match std::fs::read(&path) {
            Ok(bytes) => String::from_utf8(bytes)
                .map_err(|_| RqpError::Snapshot("cache entry: not valid UTF-8".to_string()))
                .and_then(|text| codec::decode(&text, fp)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => Err(RqpError::Snapshot(format!("cache entry: unreadable: {e}"))),
        };
        match decoded {
            Ok(snap) => Some(snap),
            Err(e) => {
                self.quarantine(&path, &e);
                None
            }
        }
    }

    /// Move a corrupt entry aside to `<name>.corrupt` (falling back to
    /// deletion if the rename fails) and account it.
    fn quarantine(&self, path: &std::path::Path, err: &RqpError) {
        let corrupt = path.with_extension("rqpc.corrupt");
        if std::fs::rename(path, &corrupt).is_err() {
            // rqp-lint: allow(swallowed-result): best-effort eviction when the quarantine rename itself fails (e.g. read-only dir)
            let _ = std::fs::remove_file(path);
        }
        crate::obs::metrics().cache_corrupt.inc();
        if rqp_obs::events_enabled() {
            rqp_obs::emit(
                rqp_obs::Event::new(rqp_obs::names::EV_CACHE_QUARANTINE)
                    .with("path", path.display().to_string())
                    .with("error", err.to_string()),
            );
        }
    }

    /// Persist a snapshot under `fp` (written to a temporary file and
    /// renamed into place, so readers never observe a partial entry).
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] if the entry cannot be written.
    pub fn store(&self, fp: u64, snap: &PospSnapshot) -> RqpResult<()> {
        let text = codec::encode(snap, fp);
        let path = self.entry_path(fp);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path)).map_err(|e| {
            RqpError::Config(format!("cannot write cache entry {}: {e}", path.display()))
        })
    }
}

static GLOBAL_CACHE: RwLock<Option<CompileCache>> = RwLock::new(None);

/// Route every subsequent [`crate::Ess::compile`] in this process through a
/// persistent cache rooted at `dir` (the CLI `--cache-dir` hook).
///
/// This is a thin compatibility shim over per-instance [`CompileCache`]
/// handles: new code (the serve registry, `Ess::compile_cached`) should
/// thread an explicit cache instead. Unlike the original `OnceLock`
/// global, re-rooting is allowed — the last call wins — so embedders with
/// different cache policies are not locked out by whoever ran first.
///
/// # Errors
/// Returns [`RqpError::Config`] if the directory is unusable.
pub fn set_global_cache_dir(dir: impl Into<PathBuf>) -> RqpResult<()> {
    let cache = CompileCache::new(dir)?;
    *GLOBAL_CACHE.write().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(cache);
    Ok(())
}

/// Uninstall the process-wide cache; subsequent [`crate::Ess::compile`]
/// calls go back to compiling from scratch.
pub fn clear_global_cache_dir() {
    *GLOBAL_CACHE.write().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// The process-wide cache installed by [`set_global_cache_dir`], if any
/// (a cheap handle clone: the cache itself lives on disk).
pub fn global_cache() -> Option<CompileCache> {
    GLOBAL_CACHE.read().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

pub(crate) use codec::{plan_from_text, plan_to_text};

/// The snapshot text codec.
///
/// Every float is written as its 16-hex-digit IEEE-754 bit pattern, so
/// entries round-trip byte-exactly, as the JSON codec does too; this
/// format exists because it decodes several times faster (module docs).
/// Every entry ends with a `checksum` line — FNV-1a over the full payload
/// (everything through `end\n`) — so bit rot and torn writes are caught
/// before the payload is parsed at all. An entry of an older version
/// fails to decode, so it is quarantined and the surface recompiles.
mod codec {
    use super::PospSnapshot;
    use crate::grid::Grid;
    use rqp_catalog::{ColRef, PredId, RelId, RqpError, RqpResult};
    use rqp_qplan::{PlanNode, StableHasher};
    use std::fmt::Write as _;

    const MAGIC: &str = "rqp-posp-cache";
    const VERSION: &str = "v3";
    /// Upper bound on any decoded collection length, so a corrupt entry
    /// cannot provoke a huge allocation.
    const MAX_LEN: usize = 64 * 1024 * 1024;

    fn bad(msg: impl std::fmt::Display) -> RqpError {
        RqpError::Snapshot(format!("cache entry: {msg}"))
    }

    fn tok(out: &mut String, t: impl std::fmt::Display) {
        let _ = write!(out, " {t}");
    }

    fn encode_pred_list(preds: &[PredId], out: &mut String) {
        tok(out, preds.len());
        for p in preds {
            tok(out, p.0);
        }
    }

    fn encode_group_list(groups: &[ColRef], out: &mut String) {
        tok(out, groups.len());
        for g in groups {
            tok(out, g.rel.0);
            tok(out, g.col);
        }
    }

    fn encode_plan(p: &PlanNode, out: &mut String) {
        match p {
            PlanNode::SeqScan { rel, filters } => {
                tok(out, "S");
                tok(out, rel.0);
                encode_pred_list(filters, out);
            }
            PlanNode::IndexScan { rel, sarg, filters } => {
                tok(out, "I");
                tok(out, rel.0);
                tok(out, sarg.0);
                encode_pred_list(filters, out);
            }
            PlanNode::Sort { input } => {
                tok(out, "O");
                encode_plan(input, out);
            }
            PlanNode::HashJoin { build, probe, preds } => {
                tok(out, "H");
                encode_pred_list(preds, out);
                encode_plan(build, out);
                encode_plan(probe, out);
            }
            PlanNode::MergeJoin { left, right, preds } => {
                tok(out, "M");
                encode_pred_list(preds, out);
                encode_plan(left, out);
                encode_plan(right, out);
            }
            PlanNode::NestLoop { outer, inner, preds } => {
                tok(out, "N");
                encode_pred_list(preds, out);
                encode_plan(outer, out);
                encode_plan(inner, out);
            }
            PlanNode::HashAggregate { input, groups } => {
                tok(out, "A");
                encode_group_list(groups, out);
                encode_plan(input, out);
            }
            PlanNode::SortAggregate { input, groups } => {
                tok(out, "G");
                encode_group_list(groups, out);
                encode_plan(input, out);
            }
            PlanNode::IndexNestLoop { outer, inner_rel, lookup, preds, inner_filters } => {
                tok(out, "X");
                tok(out, inner_rel.0);
                tok(out, lookup.0);
                encode_pred_list(preds, out);
                encode_pred_list(inner_filters, out);
                encode_plan(outer, out);
            }
        }
    }

    pub(super) fn encode(snap: &PospSnapshot, fp: u64) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{MAGIC} {VERSION}");
        let _ = writeln!(s, "fingerprint {fp:016x}");
        let _ = writeln!(s, "dims {}", snap.grid.dims());
        for d in 0..snap.grid.dims() {
            let _ = write!(s, "axis {}", snap.grid.res(d));
            for i in 0..snap.grid.res(d) {
                let _ = write!(s, " {:016x}", snap.grid.value(d, i).to_bits());
            }
            s.push('\n');
        }
        let _ = writeln!(s, "plans {}", snap.plans.len());
        for p in &snap.plans {
            s.push_str("plan");
            encode_plan(p, &mut s);
            s.push('\n');
        }
        let _ = write!(s, "cell_plan {}", snap.cell_plan.len());
        for &id in &snap.cell_plan {
            let _ = write!(s, " {id}");
        }
        s.push('\n');
        let _ = write!(s, "cell_cost {}", snap.cell_cost.len());
        for &c in &snap.cell_cost {
            let _ = write!(s, " {:016x}", c.to_bits());
        }
        s.push('\n');
        let _ = writeln!(s, "contour_ratio {:016x}", snap.contour_ratio.to_bits());
        s.push_str("end\n");
        let _ = writeln!(s, "checksum {:016x}", payload_checksum(&s));
        s
    }

    /// FNV-1a digest of an entry's payload (everything through `end\n`).
    fn payload_checksum(payload: &str) -> u64 {
        let mut h = StableHasher::new();
        h.write_str(payload);
        h.finish()
    }

    struct Toks<'a> {
        it: std::str::SplitWhitespace<'a>,
    }

    impl<'a> Toks<'a> {
        fn new(s: &'a str) -> Self {
            Toks { it: s.split_whitespace() }
        }

        fn next(&mut self) -> RqpResult<&'a str> {
            self.it.next().ok_or_else(|| bad("truncated"))
        }

        fn tag(&mut self, kw: &str) -> RqpResult<()> {
            let t = self.next()?;
            if t == kw {
                Ok(())
            } else {
                Err(bad(format!("expected {kw:?}, found {t:?}")))
            }
        }

        fn num<T: std::str::FromStr>(&mut self) -> RqpResult<T> {
            let t = self.next()?;
            t.parse().map_err(|_| bad(format!("bad number {t:?}")))
        }

        fn len(&mut self) -> RqpResult<usize> {
            let n: usize = self.num()?;
            if n > MAX_LEN {
                return Err(bad(format!("implausible length {n}")));
            }
            Ok(n)
        }

        fn f64_bits(&mut self) -> RqpResult<f64> {
            let t = self.next()?;
            u64::from_str_radix(t, 16)
                .map(f64::from_bits)
                .map_err(|_| bad(format!("bad float bits {t:?}")))
        }
    }

    /// One plan as a space-separated token string (the snapshot JSON format
    /// embeds plans in this form).
    pub(crate) fn plan_to_text(p: &PlanNode) -> String {
        let mut s = String::new();
        encode_plan(p, &mut s);
        s.trim_start().to_string()
    }

    /// Inverse of [`plan_to_text`]; rejects trailing tokens.
    pub(crate) fn plan_from_text(text: &str) -> RqpResult<PlanNode> {
        let mut t = Toks::new(text);
        let p = decode_plan(&mut t)?;
        if t.it.next().is_some() {
            return Err(bad("trailing tokens after plan"));
        }
        Ok(p)
    }

    fn decode_pred_list(t: &mut Toks<'_>) -> RqpResult<Vec<PredId>> {
        let n = t.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(PredId(t.num()?));
        }
        Ok(out)
    }

    fn decode_group_list(t: &mut Toks<'_>) -> RqpResult<Vec<ColRef>> {
        let n = t.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let rel = RelId(t.num()?);
            let col: usize = t.num()?;
            out.push(ColRef::new(rel, col));
        }
        Ok(out)
    }

    fn decode_plan(t: &mut Toks<'_>) -> RqpResult<PlanNode> {
        match t.next()? {
            "S" => Ok(PlanNode::SeqScan { rel: RelId(t.num()?), filters: decode_pred_list(t)? }),
            "I" => Ok(PlanNode::IndexScan {
                rel: RelId(t.num()?),
                sarg: PredId(t.num()?),
                filters: decode_pred_list(t)?,
            }),
            "O" => Ok(PlanNode::Sort { input: Box::new(decode_plan(t)?) }),
            "H" => {
                let preds = decode_pred_list(t)?;
                let build = Box::new(decode_plan(t)?);
                let probe = Box::new(decode_plan(t)?);
                Ok(PlanNode::HashJoin { build, probe, preds })
            }
            "M" => {
                let preds = decode_pred_list(t)?;
                let left = Box::new(decode_plan(t)?);
                let right = Box::new(decode_plan(t)?);
                Ok(PlanNode::MergeJoin { left, right, preds })
            }
            "N" => {
                let preds = decode_pred_list(t)?;
                let outer = Box::new(decode_plan(t)?);
                let inner = Box::new(decode_plan(t)?);
                Ok(PlanNode::NestLoop { outer, inner, preds })
            }
            "A" => {
                let groups = decode_group_list(t)?;
                let input = Box::new(decode_plan(t)?);
                Ok(PlanNode::HashAggregate { input, groups })
            }
            "G" => {
                let groups = decode_group_list(t)?;
                let input = Box::new(decode_plan(t)?);
                Ok(PlanNode::SortAggregate { input, groups })
            }
            "X" => {
                let inner_rel = RelId(t.num()?);
                let lookup = PredId(t.num()?);
                let preds = decode_pred_list(t)?;
                let inner_filters = decode_pred_list(t)?;
                let outer = Box::new(decode_plan(t)?);
                Ok(PlanNode::IndexNestLoop { outer, inner_rel, lookup, preds, inner_filters })
            }
            other => Err(bad(format!("unknown plan op {other:?}"))),
        }
    }

    pub(super) fn decode(text: &str, expected_fp: u64) -> RqpResult<PospSnapshot> {
        // Verify the trailing checksum before parsing anything: a torn
        // write or flipped bit is rejected wholesale, not wherever the
        // token stream happens to derail.
        let (payload, sum_line) =
            text.rsplit_once("checksum").ok_or_else(|| bad("missing checksum line"))?;
        let sum_tok = sum_line.trim();
        let recorded = u64::from_str_radix(sum_tok, 16)
            .map_err(|_| bad(format!("bad checksum {sum_tok:?}")))?;
        let actual = payload_checksum(payload);
        if recorded != actual {
            return Err(bad(format!(
                "checksum mismatch: recorded {recorded:016x}, payload {actual:016x}"
            )));
        }
        let mut t = Toks::new(payload);
        t.tag(MAGIC)?;
        t.tag(VERSION)?;
        t.tag("fingerprint")?;
        let fp_tok = t.next()?;
        let fp = u64::from_str_radix(fp_tok, 16)
            .map_err(|_| bad(format!("bad fingerprint {fp_tok:?}")))?;
        if fp != expected_fp {
            return Err(bad(format!(
                "fingerprint mismatch: entry {fp:016x}, wanted {expected_fp:016x}"
            )));
        }
        t.tag("dims")?;
        let dims = t.len()?;
        let mut axes = Vec::with_capacity(dims);
        for _ in 0..dims {
            t.tag("axis")?;
            let len = t.len()?;
            let mut axis = Vec::with_capacity(len);
            for _ in 0..len {
                axis.push(t.f64_bits()?);
            }
            axes.push(axis);
        }
        let grid = Grid::from_axes(axes).map_err(|e| bad(format!("bad grid: {e}")))?;
        t.tag("plans")?;
        let n = t.len()?;
        let mut plans = Vec::with_capacity(n);
        for _ in 0..n {
            t.tag("plan")?;
            plans.push(decode_plan(&mut t)?);
        }
        t.tag("cell_plan")?;
        let n = t.len()?;
        let mut cell_plan = Vec::with_capacity(n);
        for _ in 0..n {
            cell_plan.push(t.num::<u32>()?);
        }
        t.tag("cell_cost")?;
        let n = t.len()?;
        let mut cell_cost = Vec::with_capacity(n);
        for _ in 0..n {
            cell_cost.push(t.f64_bits()?);
        }
        t.tag("contour_ratio")?;
        let contour_ratio = t.f64_bits()?;
        t.tag("end")?;
        Ok(PospSnapshot { grid, plans, cell_plan, cell_cost, contour_ratio })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ess, EssConfig};
    use rqp_catalog::{CatalogBuilder, QueryBuilder, RelationBuilder};
    use rqp_optimizer::Optimizer;

    fn fixture() -> (rqp_catalog::Catalog, rqp_catalog::Query) {
        let catalog = CatalogBuilder::new()
            .relation(
                RelationBuilder::new("a", 1_000_000).indexed_column("k", 1_000_000, 8).build(),
            )
            .relation(
                RelationBuilder::new("b", 9_000_000).indexed_column("k", 1_000_000, 8).build(),
            )
            .build();
        let query = QueryBuilder::new(&catalog, "t")
            .table("a")
            .table("b")
            .epp_join("a", "k", "b", "k")
            .build()
            .unwrap();
        (catalog, query)
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_input() {
        let (catalog, query) = fixture();
        let model = CostModel::default();
        let config = EssConfig::default();
        let base = compile_fingerprint(&catalog, &query, &model, &config);
        // deterministic
        assert_eq!(base, compile_fingerprint(&catalog, &query, &model, &config));
        // config change
        let coarse = EssConfig { resolution: config.resolution + 1, ..config };
        assert_ne!(base, compile_fingerprint(&catalog, &query, &model, &coarse));
        let exact = EssConfig { mode: CompileMode::Exact, ..config };
        assert_ne!(base, compile_fingerprint(&catalog, &query, &model, &exact));
        // cost-model change
        let mut params = model.params;
        params.rand_page += 0.5;
        let other_model = CostModel::new(params);
        assert_ne!(base, compile_fingerprint(&catalog, &query, &other_model, &config));
        // catalog change (one extra row in relation "a")
        let bigger = CatalogBuilder::new()
            .relation(
                RelationBuilder::new("a", 1_000_001).indexed_column("k", 1_000_000, 8).build(),
            )
            .relation(
                RelationBuilder::new("b", 9_000_000).indexed_column("k", 1_000_000, 8).build(),
            )
            .build();
        assert_ne!(base, compile_fingerprint(&bigger, &query, &model, &config));
    }

    #[test]
    fn store_load_roundtrip_is_byte_identical() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let config = EssConfig { resolution: 12, ..Default::default() };
        let ess = Ess::compile_cached(&opt, config, None).unwrap();
        let snap = PospSnapshot::capture(&ess);

        let dir = std::env::temp_dir().join(format!("rqp-cache-test-{}", std::process::id()));
        let cache = CompileCache::new(&dir).unwrap();
        let fp = compile_fingerprint(&catalog, &query, &CostModel::default(), &config);
        cache.store(fp, &snap).unwrap();

        let back = cache.load(fp).expect("entry should load");
        assert_eq!(back.cell_plan, snap.cell_plan);
        assert_eq!(
            back.cell_cost.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            snap.cell_cost.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            "cell costs must round-trip byte-identically"
        );
        assert_eq!(back.plans, snap.plans);
        assert_eq!(back.contour_ratio.to_bits(), snap.contour_ratio.to_bits());

        // unknown fingerprints miss
        assert!(cache.load(fp ^ 1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_entries_are_invalidated() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let config = EssConfig { resolution: 8, ..Default::default() };
        let ess = Ess::compile_cached(&opt, config, None).unwrap();
        let snap = PospSnapshot::capture(&ess);

        let dir = std::env::temp_dir().join(format!("rqp-cache-tamper-{}", std::process::id()));
        let cache = CompileCache::new(&dir).unwrap();
        let fp = compile_fingerprint(&catalog, &query, &CostModel::default(), &config);
        cache.store(fp, &snap).unwrap();

        // overwrite the entry with one recorded under a different key: the
        // mismatch must invalidate it — quarantined aside, not deleted
        let path = cache.entry_path(fp);
        let corrupt = path.with_extension("rqpc.corrupt");
        let other = std::fs::read_to_string(&path).unwrap().replacen(
            &format!("{fp:016x}"),
            &format!("{:016x}", fp ^ 0xff),
            1,
        );
        std::fs::write(&path, other).unwrap();
        assert!(cache.load(fp).is_none());
        assert!(!path.exists(), "stale entry should have been moved aside");
        assert!(corrupt.exists(), "stale entry should be quarantined as .corrupt");

        // garbage decodes to a miss too
        cache.store(fp, &snap).unwrap();
        std::fs::write(&path, "rqp-posp-cache v3 fingerprint zzzz").unwrap();
        assert!(cache.load(fp).is_none());
        assert!(corrupt.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_rot_is_caught_by_the_checksum() {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let config = EssConfig { resolution: 8, ..Default::default() };
        let ess = Ess::compile_cached(&opt, config, None).unwrap();
        let snap = PospSnapshot::capture(&ess);

        let dir = std::env::temp_dir().join(format!("rqp-cache-rot-{}", std::process::id()));
        let cache = CompileCache::new(&dir).unwrap();
        let fp = compile_fingerprint(&catalog, &query, &CostModel::default(), &config);
        cache.store(fp, &snap).unwrap();

        // flip one hex digit inside a cost token (fingerprint line intact):
        // only the checksum can catch this
        let path = cache.entry_path(fp);
        let corrupt = path.with_extension("rqpc.corrupt");
        let text = std::fs::read_to_string(&path).unwrap();
        let cost_at = text.find("cell_cost").unwrap();
        let digit_at = cost_at + text[cost_at..].find(" 4").map(|i| i + 1).unwrap_or(12);
        let mut bytes = text.into_bytes();
        bytes[digit_at] = if bytes[digit_at] == b'4' { b'5' } else { b'4' };
        std::fs::write(&path, bytes).unwrap();

        assert!(cache.load(fp).is_none(), "rotted entry must not load");
        assert!(corrupt.exists(), "rotted entry should be quarantined");

        // a byte that is not valid UTF-8 is rot too, not a plain miss
        std::fs::remove_file(&corrupt).unwrap();
        cache.store(fp, &snap).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[digit_at] = 0xFF;
        std::fs::write(&path, bytes).unwrap();
        let corrupt_before = crate::obs::metrics().cache_corrupt.get();
        assert!(cache.load(fp).is_none(), "a non-UTF-8 entry must not load");
        assert!(!path.exists(), "a non-UTF-8 entry should have been moved aside");
        assert!(corrupt.exists(), "a non-UTF-8 entry should be quarantined");
        assert!(crate::obs::metrics().cache_corrupt.get() > corrupt_before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
