//! The shared POSP registry: fingerprint-keyed, single-flight compiled
//! ESS surfaces shared across concurrent sessions, with per-fingerprint
//! circuit breakers, deadline-bounded waits and a persistent disk tier.
//!
//! Compiling an ESS is the expensive offline step of the paper (§7:
//! repeated optimizer calls over the whole grid); a serving deployment
//! sees the same query templates over and over, so N simultaneous
//! sessions for one fingerprint must trigger exactly **one** compile. The
//! registry guarantees that with a classic single-flight protocol:
//!
//! * first session for a fingerprint inserts a `Pending` marker, drops
//!   the shard lock, and compiles;
//! * peers arriving mid-compile block on the shard's condvar (counted as
//!   single-flight waits) — bounded by their session [`Deadline`]: a
//!   wedged peer compile costs a waiter at most its own deadline, never
//!   an unbounded hang;
//! * the finished surface is published as `Ready(Arc<Ess>)` and every
//!   waiter clones the `Arc` — the surface itself is never copied.
//!
//! Compile **failures open a circuit breaker** instead of poisoning the
//! fingerprint forever: a `Broken` entry refuses later sessions instantly
//! while its exponential-backoff window runs, then admits exactly one
//! half-open re-probe under the same single-flight discipline. A
//! transient failure (crash burst, injected chaos) therefore heals on its
//! own; only a deterministically-broken fingerprint stays open, and even
//! then each re-probe is one compile per backoff window, not one per
//! arrival. Because the compile runs outside the lock under a drop guard,
//! a compile that unwinds publishes `Broken` rather than wedging its
//! waiters — a chaotic session can never poison the shared registry.
//!
//! [`EssRegistry::get_or_lazy`] publishes **incremental** surfaces under
//! the same protocol: the single-flight window shrinks from the whole
//! grid to just the ladder anchors, the published entry is a shared
//! [`LazyEss`], and each peer then pulls (and waits on) only the contour
//! bands its own discovery reaches — a session terminating at contour
//! `k` never waits for bands above `k`. An eager lookup finding a lazy
//! entry upgrades it in place by finishing it, reusing every band
//! already materialized.
//!
//! When constructed [`EssRegistry::with_cache`], the registry adds a
//! **read-through / write-behind disk tier**: a miss first consults the
//! persistent [`CompileCache`] (restores count as [`Lookup::Restored`],
//! not compiles), and every fresh compile is written behind. A process
//! restart — or an explicit [`EssRegistry::wipe`] — therefore recovers
//! every previously-compiled fingerprint from disk with zero recompiles.

use crate::obs::metrics;
use rqp_catalog::{RqpError, RqpResult};
use rqp_chaos::{CompileFault, CompileFaultInjector, CompileSeam};
use rqp_ess::{CompileCache, Ess, LazyEss, PospSnapshot};
use rqp_obs::Deadline;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How a [`EssRegistry::get_or_compile`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// This call compiled the surface (first session for the fingerprint).
    Compiled,
    /// The surface was already resident; served instantly.
    Hit,
    /// A peer was mid-compile; this call blocked until it published.
    Waited,
    /// The surface was restored from the persistent disk cache without a
    /// compile (warm-restart recovery path).
    Restored,
}

impl Lookup {
    /// Short stable label for reports and wire frames.
    pub fn label(self) -> &'static str {
        match self {
            Lookup::Compiled => "compiled",
            Lookup::Hit => "hit",
            Lookup::Waited => "waited",
            Lookup::Restored => "restored",
        }
    }

    /// Inverse of [`Lookup::label`] (wire decoding).
    pub fn from_label(label: &str) -> Option<Lookup> {
        match label {
            "compiled" => Some(Lookup::Compiled),
            "hit" => Some(Lookup::Hit),
            "waited" => Some(Lookup::Waited),
            "restored" => Some(Lookup::Restored),
            _ => None,
        }
    }
}

/// A surface shared out of the registry: either a finished eager ESS or a
/// lazily materializing anytime surface whose contour bands compile as
/// sessions pull them. Clones of the lazy arm share one frontier, so a
/// band any session materializes is materialized for every peer.
#[derive(Clone)]
pub enum SharedSurface {
    /// A fully compiled surface.
    Eager(Arc<Ess>),
    /// An anytime surface still materializing band-by-band.
    Lazy(Arc<LazyEss>),
}

impl std::fmt::Debug for SharedSurface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SharedSurface::Eager(_) => f.write_str("SharedSurface::Eager"),
            SharedSurface::Lazy(lazy) => f.debug_tuple("SharedSurface::Lazy").field(lazy).finish(),
        }
    }
}

/// Circuit-breaker phase of one fingerprint, in `/healthz` and obs terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// The fingerprint compiled successfully; lookups are served.
    Closed,
    /// The last compile failed; lookups are refused until the backoff
    /// window elapses.
    Open,
    /// The backoff window elapsed; exactly one re-probe compile is in
    /// flight, everyone else is still refused.
    HalfOpen,
}

impl BreakerPhase {
    /// Stable label for obs events and `/healthz`.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half_open",
        }
    }
}

/// Breaker tuning: how long an opened fingerprint backs off before its
/// half-open re-probe, and how far consecutive failures stretch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Backoff after the first failure; doubled per consecutive failure.
    pub backoff_base: Duration,
    /// Upper bound on the backoff window.
    pub backoff_max: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(10),
        }
    }
}

impl BreakerConfig {
    /// The backoff window after `failures` consecutive failures
    /// (`base * 2^(failures-1)`, capped at `backoff_max`).
    fn window(&self, failures: u32) -> Duration {
        let doublings = failures.saturating_sub(1).min(16);
        self.backoff_base
            .checked_mul(1u32 << doublings)
            .map_or(self.backoff_max, |w| w.min(self.backoff_max))
    }
}

struct BreakerEntry {
    /// The failure that opened (or kept open) the breaker.
    error: RqpError,
    /// Consecutive compile failures for this fingerprint.
    failures: u32,
    /// When the next half-open re-probe is admitted (`retry_at - now` is
    /// the window currently in force).
    retry_at: Instant,
    /// A half-open re-probe compile is in flight right now.
    probing: bool,
}

enum Entry {
    /// A session is compiling this fingerprint right now.
    Pending,
    /// The compiled surface, shared by reference counting.
    Ready(Arc<Ess>),
    /// An anytime surface published after only its ladder anchors were
    /// costed; sessions pull the contour bands they need from it, and an
    /// eager lookup upgrades it to `Ready` by finishing it.
    Lazy(Arc<LazyEss>),
    /// The compile failed; the breaker refuses lookups until `retry_at`,
    /// then admits one half-open re-probe.
    Broken(BreakerEntry),
}

struct Shard {
    map: Mutex<HashMap<u64, Entry>>,
    published: Condvar,
}

impl Shard {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Entry>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Counter snapshot of a registry's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Compiles actually executed (first sessions plus breaker re-probes).
    pub compiles: u64,
    /// Lookups served by an already-resident surface (or refused by an
    /// open breaker).
    pub hits: u64,
    /// Lookups that blocked on a peer's in-flight compile.
    pub waits: u64,
    /// Surfaces restored from the persistent disk tier (zero compiles).
    pub disk_hits: u64,
    /// Breaker-open transitions (failures starting/extending a backoff).
    pub breaker_opens: u64,
    /// Half-open re-probes admitted after a backoff window elapsed.
    pub breaker_reprobes: u64,
    /// Breakers closed again by a successful re-probe.
    pub breaker_closes: u64,
    /// Lookups refused instantly by an open breaker.
    pub breaker_refused: u64,
    /// Waits that returned `DeadlineExpired` instead of blocking on.
    pub expired_waits: u64,
    /// Fingerprints currently resident (ready or broken).
    pub entries: usize,
}

/// The phases a breaker moved through, in order (for drills and tests).
pub type BreakerTransition = (u64, BreakerPhase);

/// Per-fingerprint breaker state, as exported via `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerState {
    /// The fingerprint.
    pub fp: u64,
    /// Current phase.
    pub phase: BreakerPhase,
    /// Consecutive failures (0 when closed).
    pub failures: u32,
}

/// Publishes `Broken` if the compiling session unwinds before storing a
/// result, so waiters wake with an open breaker instead of blocking
/// forever (and the fingerprint stays re-probeable).
struct PendingGuard<'a> {
    reg: &'a EssRegistry,
    fp: u64,
    prior_failures: u32,
    armed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.reg.publish_broken(
                self.fp,
                self.prior_failures,
                RqpError::Internal("ESS compile aborted mid-flight".to_string()),
            );
        }
    }
}

/// What the lookup loop decided this caller must do.
#[derive(Clone, Copy)]
enum Claim {
    /// First session for the fingerprint: read through the disk tier,
    /// then compile.
    Fresh,
    /// Half-open re-probe: compile again after `prior_failures` failures.
    Probe { prior_failures: u32 },
}

impl Claim {
    fn prior_failures(&self) -> u32 {
        match *self {
            Claim::Fresh => 0,
            Claim::Probe { prior_failures } => prior_failures,
        }
    }
}

/// Outcome of the shared lookup loop: either a resident surface, or a
/// claim obliging this caller to produce one.
enum Found {
    /// A surface is resident; serve it.
    Resident(SharedSurface, Lookup),
    /// This caller owns the (re)compile for the fingerprint.
    Claimed(Claim),
}

/// A sharded, fingerprint-keyed map of compiled ESS surfaces with
/// single-flight compilation, circuit breaking and optional persistence.
pub struct EssRegistry {
    shards: Vec<Shard>,
    cache: Option<CompileCache>,
    breaker: BreakerConfig,
    injector: Option<Arc<dyn CompileFaultInjector + Send + Sync>>,
    transitions: Mutex<Vec<BreakerTransition>>,
    compiles: AtomicU64,
    hits: AtomicU64,
    waits: AtomicU64,
    disk_hits: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_reprobes: AtomicU64,
    breaker_closes: AtomicU64,
    breaker_refused: AtomicU64,
    expired_waits: AtomicU64,
}

/// Cap on the retained breaker-transition log (drills read it; a pathological
/// workload must not grow it without bound).
const MAX_TRANSITIONS: usize = 4096;

impl EssRegistry {
    /// A registry with `shards` independent lock domains (clamped to at
    /// least 1). Sessions for different fingerprints in different shards
    /// never contend on a lock.
    pub fn new(shards: usize) -> EssRegistry {
        let shards = shards.max(1);
        EssRegistry {
            shards: (0..shards)
                .map(|_| Shard { map: Mutex::new(HashMap::new()), published: Condvar::new() })
                .collect(),
            cache: None,
            breaker: BreakerConfig::default(),
            injector: None,
            transitions: Mutex::new(Vec::new()),
            compiles: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            breaker_reprobes: AtomicU64::new(0),
            breaker_closes: AtomicU64::new(0),
            breaker_refused: AtomicU64::new(0),
            expired_waits: AtomicU64::new(0),
        }
    }

    /// Attach a persistent disk tier: misses read through it, compiles
    /// write behind it, and [`EssRegistry::wipe`] becomes recoverable.
    #[must_use]
    pub fn with_cache(mut self, cache: CompileCache) -> EssRegistry {
        self.cache = Some(cache);
        self
    }

    /// Override the circuit-breaker tuning.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> EssRegistry {
        self.breaker = breaker;
        self
    }

    /// Attach a compile-seam fault injector (chaos drills only).
    #[must_use]
    pub fn with_compile_injector(
        mut self,
        injector: Arc<dyn CompileFaultInjector + Send + Sync>,
    ) -> EssRegistry {
        self.injector = Some(injector);
        self
    }

    fn shard(&self, fp: u64) -> &Shard {
        let n = self.shards.len();
        &self.shards[(fp % n as u64) as usize]
    }

    fn note_transition(&self, fp: u64, phase: BreakerPhase) {
        let mut log = self.transitions.lock().unwrap_or_else(PoisonError::into_inner);
        if log.len() < MAX_TRANSITIONS {
            log.push((fp, phase));
        }
        drop(log);
        if rqp_obs::events_enabled() {
            rqp_obs::emit(
                rqp_obs::Event::new(rqp_obs::names::EV_BREAKER_TRANSITION)
                    .with("fingerprint", fp)
                    .with("phase", phase.label()),
            );
        }
    }

    /// Publish a `Broken` entry for `fp` after a compile failure (or
    /// unwind), stretching the backoff window per consecutive failure.
    fn publish_broken(&self, fp: u64, prior_failures: u32, error: RqpError) {
        let failures = prior_failures.saturating_add(1);
        let backoff = self.breaker.window(failures);
        let shard = self.shard(fp);
        shard.lock().insert(
            fp,
            Entry::Broken(BreakerEntry {
                error,
                failures,
                retry_at: Instant::now() + backoff,
                probing: false,
            }),
        );
        shard.published.notify_all();
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
        metrics().breaker_open.inc();
        self.note_transition(fp, BreakerPhase::Open);
    }

    /// Consult the compile-seam injector, physically corrupting the
    /// cached entry for `fp` when the schedule says so (the real
    /// quarantine path then runs end-to-end on load).
    fn strike_cache_load(&self, fp: u64) {
        let Some(injector) = &self.injector else { return };
        let Some(cache) = &self.cache else { return };
        match injector.inject(CompileSeam::CacheLoad) {
            Some(CompileFault::CorruptEntry) => {
                let path = cache.entry_path(fp);
                if path.exists() {
                    // rqp-lint: allow(swallowed-result): best-effort chaos corruption; a failed write just means no fault fired
                    let _ = std::fs::write(&path, "CORRUPTED-BY-CHAOS\n");
                }
            }
            Some(CompileFault::SlowIo { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            _ => {}
        }
    }

    /// Run the actual compile (eager whole-grid or lazy anchor-only),
    /// letting the injector strike the compile seam first (panic,
    /// structured failure, or stall).
    fn run_compile<T>(&self, compile: impl FnOnce() -> RqpResult<T>) -> RqpResult<T> {
        if let Some(injector) = &self.injector {
            match injector.inject(CompileSeam::Compile) {
                #[allow(clippy::panic)]
                Some(CompileFault::Panic) => {
                    // rqp-lint: allow(no-panic): deterministic injected compile panic — exercises the drop-guard / breaker recovery path under seeded chaos schedules
                    panic!("injected compile panic (chaos schedule)")
                }
                Some(CompileFault::Fail) => {
                    return Err(RqpError::Internal(
                        "injected compile fault (chaos schedule)".to_string(),
                    ));
                }
                Some(CompileFault::SlowIo { millis }) => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                _ => {}
            }
        }
        compile()
    }

    /// A successful re-probe closes the fingerprint's breaker.
    fn close_breaker(&self, fp: u64) {
        self.breaker_closes.fetch_add(1, Ordering::Relaxed);
        metrics().breaker_close.inc();
        self.note_transition(fp, BreakerPhase::Closed);
    }

    /// The shared single-flight lookup loop: serve a resident surface
    /// (eager or lazy), refuse through an open breaker, block on a peer's
    /// in-flight compile bounded by `deadline`, or claim the fingerprint
    /// for this caller (inserting `Pending` / marking the half-open
    /// probe before releasing the shard lock). A lookup that blocks on a
    /// peer records one `registry_wait` span, which ends when the wait
    /// does: before any restore or compile this caller then claims.
    fn resolve(&self, fp: u64, deadline: Deadline) -> RqpResult<Found> {
        let m = metrics();
        let shard = self.shard(fp);
        let mut wait_span: Option<rqp_obs::SpanGuard> = None;
        let mut map = shard.lock();
        let claim = loop {
            match map.get(&fp) {
                None => break Claim::Fresh,
                Some(Entry::Ready(ess)) => {
                    let ess = Arc::clone(ess);
                    drop(map);
                    let lookup = self.note_resident(wait_span.is_some());
                    return Ok(Found::Resident(SharedSurface::Eager(ess), lookup));
                }
                Some(Entry::Lazy(lazy)) => {
                    let lazy = Arc::clone(lazy);
                    drop(map);
                    let lookup = self.note_resident(wait_span.is_some());
                    return Ok(Found::Resident(SharedSurface::Lazy(lazy), lookup));
                }
                Some(Entry::Broken(b)) => {
                    if !b.probing && Instant::now() >= b.retry_at {
                        // backoff elapsed: this caller is the one half-open
                        // re-probe; everyone else keeps getting refused
                        break Claim::Probe { prior_failures: b.failures };
                    }
                    let err = RqpError::BreakerOpen {
                        retry_in_ms: b
                            .retry_at
                            .saturating_duration_since(Instant::now())
                            .as_millis() as u64,
                        cause: b.error.to_string(),
                    };
                    drop(map);
                    self.breaker_refused.fetch_add(1, Ordering::Relaxed);
                    m.breaker_refused.inc();
                    return Err(err);
                }
                Some(Entry::Pending) => {
                    if wait_span.is_none() {
                        let mut span = rqp_obs::current()
                            .span(rqp_obs::names::SPAN_REGISTRY_WAIT, rqp_obs::SpanKind::Wait);
                        span.attr("fingerprint", fp);
                        wait_span = Some(span);
                        self.waits.fetch_add(1, Ordering::Relaxed);
                        m.singleflight_waits.inc();
                    }
                    // Timed wait bounded by the session deadline: a wedged
                    // peer compile costs this waiter at most its own
                    // deadline, never an unbounded hang.
                    match deadline.remaining() {
                        None => {
                            map = shard.published.wait(map).unwrap_or_else(PoisonError::into_inner);
                        }
                        Some(left) if left > Duration::ZERO => {
                            let (guard, _timeout) = shard
                                .published
                                .wait_timeout(map, left)
                                .unwrap_or_else(PoisonError::into_inner);
                            map = guard;
                            if deadline.expired() {
                                drop(map);
                                self.expired_waits.fetch_add(1, Ordering::Relaxed);
                                m.wait_deadline_expired.inc();
                                return Err(RqpError::DeadlineExpired {
                                    phase: "registry wait".to_string(),
                                });
                            }
                        }
                        Some(_) => {
                            drop(map);
                            self.expired_waits.fetch_add(1, Ordering::Relaxed);
                            m.wait_deadline_expired.inc();
                            return Err(RqpError::DeadlineExpired {
                                phase: "registry wait".to_string(),
                            });
                        }
                    }
                }
            }
        };
        drop(wait_span);
        // This caller owns the (re)compile: claim the fingerprint (still
        // under the shard lock), then run outside it so peers of *other*
        // fingerprints keep flowing.
        match claim {
            Claim::Fresh => {
                map.insert(fp, Entry::Pending);
            }
            Claim::Probe { .. } => {
                if let Some(Entry::Broken(b)) = map.get_mut(&fp) {
                    b.probing = true;
                }
            }
        }
        drop(map);
        if let Claim::Probe { .. } = claim {
            self.breaker_reprobes.fetch_add(1, Ordering::Relaxed);
            m.breaker_reprobe.inc();
            self.note_transition(fp, BreakerPhase::HalfOpen);
        }
        Ok(Found::Claimed(claim))
    }

    /// Read-through the persistent tier under an armed claim: a restorable
    /// full snapshot publishes `Ready` and short-circuits the compile.
    fn try_restore(&self, fp: u64, claim: Claim, guard: &mut PendingGuard<'_>) -> Option<Arc<Ess>> {
        let cache = self.cache.as_ref()?;
        self.strike_cache_load(fp);
        let ess = Arc::new(cache.load(fp).and_then(|snap| snap.restore().ok())?);
        let shard = self.shard(fp);
        let mut map = shard.lock();
        guard.armed = false;
        map.insert(fp, Entry::Ready(Arc::clone(&ess)));
        drop(map);
        shard.published.notify_all();
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        metrics().registry_disk_hits.inc();
        if matches!(claim, Claim::Probe { .. }) {
            self.close_breaker(fp);
        }
        Some(ess)
    }

    /// Fetch the surface for `fp`, compiling it with `compile` if this is
    /// the first session to ask. Concurrent callers for the same
    /// fingerprint block until the one compile publishes — at most until
    /// `deadline` lapses. An open breaker refuses instantly with
    /// [`RqpError::BreakerOpen`]; once its backoff window elapses, exactly
    /// one caller re-probes. With a disk tier attached, misses first try
    /// to restore from disk ([`Lookup::Restored`]) before compiling. A
    /// fingerprint resident as a lazy anytime surface is upgraded in
    /// place: its remaining bands are materialized (reusing everything
    /// already compiled) and the finished surface replaces the entry.
    ///
    /// # Errors
    /// [`RqpError::DeadlineExpired`] if `deadline` lapsed while waiting on
    /// a peer; [`RqpError::BreakerOpen`] while a breaker refuses the
    /// fingerprint; otherwise the compile's own error (which opens the
    /// breaker).
    pub fn get_or_compile(
        &self,
        fp: u64,
        deadline: Deadline,
        compile: impl FnOnce() -> RqpResult<Arc<Ess>>,
    ) -> RqpResult<(Arc<Ess>, Lookup)> {
        let m = metrics();
        let claim = match self.resolve(fp, deadline)? {
            Found::Resident(SharedSurface::Eager(ess), lookup) => return Ok((ess, lookup)),
            Found::Resident(SharedSurface::Lazy(lazy), lookup) => {
                return self.upgrade(fp, &lazy, lookup);
            }
            Found::Claimed(claim) => claim,
        };
        let shard = self.shard(fp);
        let prior_failures = claim.prior_failures();
        let mut guard = PendingGuard { reg: self, fp, prior_failures, armed: true };
        // Read-through: a fresh fingerprint (or a re-probe after cache
        // corruption) may be restorable from the persistent tier without
        // paying a compile at all — the warm-restart recovery path.
        if let Some(ess) = self.try_restore(fp, claim, &mut guard) {
            return Ok((ess, Lookup::Restored));
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        m.registry_misses.inc();
        let result = self.run_compile(compile);
        guard.armed = false;
        match result {
            Ok(ess) => {
                let mut map = shard.lock();
                map.insert(fp, Entry::Ready(Arc::clone(&ess)));
                drop(map);
                shard.published.notify_all();
                if matches!(claim, Claim::Probe { .. }) {
                    self.close_breaker(fp);
                }
                // Write-behind: persist outside every lock; a store failure
                // only costs the next restart a recompile.
                if let Some(cache) = &self.cache {
                    // rqp-lint: allow(swallowed-result): best-effort write-behind persistence; a store failure only costs a recompile
                    let _ = cache.store(fp, &PospSnapshot::capture(&ess));
                }
                Ok((ess, Lookup::Compiled))
            }
            Err(e) => {
                self.publish_broken(fp, prior_failures, e.clone());
                Err(e)
            }
        }
    }

    /// Like [`EssRegistry::get_or_compile`], but publishes an **anytime**
    /// surface: the single-flight window covers only the ladder anchors
    /// of [`LazyEss::begin`] (two optimizer calls), after which every
    /// peer holds the same [`LazyEss`] and pulls exactly the contour
    /// bands its own discovery needs — peers wait per band on the shared
    /// frontier, never for a whole-grid compile. A fingerprint already
    /// resident eagerly is served as [`SharedSurface::Eager`]; a finished
    /// snapshot in the disk tier restores eagerly ([`Lookup::Restored`])
    /// rather than starting over lazily. Breaker, deadline, wipe and
    /// single-flight semantics are identical to the eager path.
    ///
    /// # Errors
    /// As [`EssRegistry::get_or_compile`]; a failed `begin` opens the
    /// fingerprint's breaker.
    pub fn get_or_lazy(
        &self,
        fp: u64,
        deadline: Deadline,
        begin: impl FnOnce() -> RqpResult<Arc<LazyEss>>,
    ) -> RqpResult<(SharedSurface, Lookup)> {
        let m = metrics();
        let claim = match self.resolve(fp, deadline)? {
            Found::Resident(surface, lookup) => return Ok((surface, lookup)),
            Found::Claimed(claim) => claim,
        };
        let shard = self.shard(fp);
        let prior_failures = claim.prior_failures();
        let mut guard = PendingGuard { reg: self, fp, prior_failures, armed: true };
        if let Some(ess) = self.try_restore(fp, claim, &mut guard) {
            return Ok((SharedSurface::Eager(ess), Lookup::Restored));
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        m.registry_misses.inc();
        let result = self.run_compile(begin);
        guard.armed = false;
        match result {
            Ok(lazy) => {
                let mut map = shard.lock();
                map.insert(fp, Entry::Lazy(Arc::clone(&lazy)));
                drop(map);
                shard.published.notify_all();
                if matches!(claim, Claim::Probe { .. }) {
                    self.close_breaker(fp);
                }
                Ok((SharedSurface::Lazy(lazy), Lookup::Compiled))
            }
            Err(e) => {
                self.publish_broken(fp, prior_failures, e.clone());
                Err(e)
            }
        }
    }

    /// Materialize a resident lazy surface into a finished [`Ess`] and
    /// publish it as `Ready`. Bands already compiled are reused, and
    /// [`LazyEss::finish`] single-flights concurrent upgraders
    /// internally, so the remaining work is paid once. The first caller
    /// to swap the entry is accounted as the compile (and pays the
    /// write-behind); everyone else keeps their original lookup kind.
    fn upgrade(
        &self,
        fp: u64,
        lazy: &Arc<LazyEss>,
        lookup: Lookup,
    ) -> RqpResult<(Arc<Ess>, Lookup)> {
        match lazy.finish() {
            Ok(ess) => {
                let shard = self.shard(fp);
                let mut map = shard.lock();
                let first = matches!(map.get(&fp), Some(Entry::Lazy(_)));
                if first {
                    map.insert(fp, Entry::Ready(Arc::clone(&ess)));
                }
                drop(map);
                shard.published.notify_all();
                if first {
                    self.compiles.fetch_add(1, Ordering::Relaxed);
                    metrics().registry_misses.inc();
                    if let Some(cache) = &self.cache {
                        // rqp-lint: allow(swallowed-result): best-effort write-behind persistence; a store failure only costs a recompile
                        let _ = cache.store(fp, &PospSnapshot::capture(&ess));
                    }
                    Ok((ess, Lookup::Compiled))
                } else {
                    Ok((ess, lookup))
                }
            }
            Err(e) => {
                self.publish_broken(fp, 0, e.clone());
                Err(e)
            }
        }
    }

    fn note_resident(&self, waited: bool) -> Lookup {
        let m = metrics();
        if waited {
            Lookup::Waited
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            m.registry_hits.inc();
            Lookup::Hit
        }
    }

    /// Drop every in-memory entry (the crash-recovery drill's "process
    /// restart"). Counters and the breaker-transition log survive; with a
    /// disk tier attached, previously-compiled fingerprints restore from
    /// disk on their next lookup with zero recompiles. In-flight compiles
    /// are unaffected: they republish their entry when they finish. Lazy
    /// anytime surfaces are dropped like any other entry — sessions
    /// already holding the `Arc` keep pulling bands, but the next lookup
    /// starts fresh.
    pub fn wipe(&self) {
        for shard in &self.shards {
            shard.lock().clear();
            shard.published.notify_all();
        }
    }

    /// Lifetime counters plus the resident-entry count.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            breaker_reprobes: self.breaker_reprobes.load(Ordering::Relaxed),
            breaker_closes: self.breaker_closes.load(Ordering::Relaxed),
            breaker_refused: self.breaker_refused.load(Ordering::Relaxed),
            expired_waits: self.expired_waits.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().len()).sum(),
        }
    }

    /// Current breaker phase of every resident fingerprint (for
    /// `/healthz` and drills), sorted by fingerprint for stable output.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.lock();
            for (&fp, entry) in map.iter() {
                let (phase, failures) = match entry {
                    Entry::Ready(_) | Entry::Lazy(_) => (BreakerPhase::Closed, 0),
                    Entry::Pending => continue,
                    Entry::Broken(b) => (
                        if b.probing { BreakerPhase::HalfOpen } else { BreakerPhase::Open },
                        b.failures,
                    ),
                };
                out.push(BreakerState { fp, phase, failures });
            }
        }
        out.sort_by_key(|s| s.fp);
        out
    }

    /// The ordered breaker-phase transition log (capped; drills assert
    /// exact sequences against it).
    pub fn breaker_transitions(&self) -> Vec<BreakerTransition> {
        self.transitions.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Number of resident fingerprints (ready or broken).
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// Whether no fingerprint is resident yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_ess::EssConfig;
    use rqp_optimizer::Optimizer;
    use rqp_qplan::CostModel;
    use rqp_workloads::Workload;

    fn compile_example() -> RqpResult<Arc<Ess>> {
        let w = Workload::q91(2)?;
        let opt = Optimizer::new(&w.catalog, &w.query, CostModel::default());
        Ess::compile_cached(&opt, EssConfig { resolution: 6, ..Default::default() }, None)
    }

    /// A breaker config with a backoff short enough for tests but long
    /// enough that an un-slept test never crosses it by accident.
    fn test_breaker() -> BreakerConfig {
        BreakerConfig {
            backoff_base: Duration::from_millis(40),
            backoff_max: Duration::from_secs(2),
        }
    }

    #[test]
    fn second_lookup_is_a_hit_on_the_same_surface() {
        let reg = EssRegistry::new(4);
        let (a, l1) = reg.get_or_compile(42, Deadline::none(), compile_example).unwrap();
        let (b, l2) =
            reg.get_or_compile(42, Deadline::none(), || panic!("must not recompile")).unwrap();
        assert_eq!(l1, Lookup::Compiled);
        assert_eq!(l2, Lookup::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = reg.stats();
        assert_eq!((stats.compiles, stats.hits, stats.entries), (1, 1, 1));
    }

    #[test]
    fn failures_open_the_breaker_and_refuse_within_backoff() {
        let reg = EssRegistry::new(1).with_breaker(test_breaker());
        let boom = || Err(RqpError::Config("no".into()));
        assert!(reg.get_or_compile(7, Deadline::none(), boom).is_err());
        // inside the backoff window: refused instantly, no recompile
        let err = reg.get_or_compile(7, Deadline::none(), || panic!("must not retry")).unwrap_err();
        match err {
            RqpError::BreakerOpen { cause, .. } => assert!(cause.contains("no"), "{cause}"),
            other => panic!("expected BreakerOpen, got {other}"),
        }
        let stats = reg.stats();
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.breaker_opens, 1);
        assert_eq!(stats.breaker_refused, 1);
    }

    #[test]
    fn the_breaker_reprobes_after_backoff_and_closes_on_success() {
        let reg = EssRegistry::new(1).with_breaker(test_breaker());
        assert!(reg
            .get_or_compile(11, Deadline::none(), || Err(RqpError::Config("transient".into())))
            .is_err());
        std::thread::sleep(Duration::from_millis(60));
        // backoff elapsed: this lookup is the half-open re-probe and heals
        // the fingerprint
        let (_, lookup) = reg.get_or_compile(11, Deadline::none(), compile_example).unwrap();
        assert_eq!(lookup, Lookup::Compiled);
        let stats = reg.stats();
        assert_eq!(stats.compiles, 2);
        assert_eq!(stats.breaker_reprobes, 1);
        assert_eq!(stats.breaker_closes, 1);
        let phases: Vec<_> =
            reg.breaker_transitions().into_iter().map(|(_, p)| p.label()).collect();
        assert_eq!(phases, vec!["open", "half_open", "closed"]);
        // and later sessions hit the healed surface
        let (_, l2) =
            reg.get_or_compile(11, Deadline::none(), || panic!("must not recompile")).unwrap();
        assert_eq!(l2, Lookup::Hit);
    }

    #[test]
    fn consecutive_failures_stretch_the_backoff_exponentially() {
        let cfg = test_breaker();
        assert_eq!(cfg.window(1), Duration::from_millis(40));
        assert_eq!(cfg.window(2), Duration::from_millis(80));
        assert_eq!(cfg.window(3), Duration::from_millis(160));
        assert_eq!(cfg.window(30), Duration::from_secs(2), "capped at backoff_max");
    }

    #[test]
    fn a_panicking_compile_opens_the_breaker_instead_of_wedging() {
        let reg = Arc::new(EssRegistry::new(1).with_breaker(test_breaker()));
        let r2 = Arc::clone(&reg);
        let h = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = r2.get_or_compile(9, Deadline::none(), || panic!("chaotic compile"));
            }));
        });
        h.join().unwrap();
        // The guard opened the breaker; later sessions get a structured
        // refusal, not a hang — and the fingerprint can heal.
        let err = reg.get_or_compile(9, Deadline::none(), || panic!("must not retry")).unwrap_err();
        match err {
            RqpError::BreakerOpen { cause, .. } => assert!(cause.contains("aborted"), "{cause}"),
            other => panic!("expected BreakerOpen, got {other}"),
        }
        std::thread::sleep(Duration::from_millis(60));
        let (_, lookup) = reg.get_or_compile(9, Deadline::none(), compile_example).unwrap();
        assert_eq!(lookup, Lookup::Compiled);
    }

    #[test]
    fn a_stalled_peer_compile_cannot_block_a_waiter_past_its_deadline() {
        let reg = Arc::new(EssRegistry::new(1));
        let r2 = Arc::clone(&reg);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let compiler = std::thread::spawn(move || {
            let _ = r2.get_or_compile(5, Deadline::none(), move || {
                // deliberately stalled compile: holds Pending until released
                let _ = release_rx.recv();
                compile_example()
            });
        });
        // give the compiler time to claim Pending
        std::thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        let err = reg
            .get_or_compile(5, Deadline::within(Duration::from_millis(100)), || {
                panic!("waiter must not compile")
            })
            .unwrap_err();
        let waited = started.elapsed();
        assert!(
            matches!(err, RqpError::DeadlineExpired { .. }),
            "expected DeadlineExpired, got {err}"
        );
        assert!(
            waited < Duration::from_secs(2),
            "timed wait should return promptly, took {waited:?}"
        );
        assert_eq!(reg.stats().expired_waits, 1);
        release_tx.send(()).unwrap();
        compiler.join().unwrap();
        // once the stalled compile finally publishes, lookups are hits
        let (_, lookup) =
            reg.get_or_compile(5, Deadline::none(), || panic!("must not recompile")).unwrap();
        assert_eq!(lookup, Lookup::Hit);
    }

    #[test]
    fn a_waiter_that_claims_after_a_wipe_ends_its_wait_span_before_compiling() {
        let reg = Arc::new(EssRegistry::new(1));
        let r2 = Arc::clone(&reg);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let stalled = std::thread::spawn(move || {
            let _ = r2.get_or_compile(5, Deadline::none(), move || {
                // holds Pending until released
                let _ = release_rx.recv();
                compile_example()
            });
        });
        while reg.stats().compiles == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let r3 = Arc::clone(&reg);
        let waiter = std::thread::spawn(move || {
            let tracer = rqp_obs::Tracer::new(1, 0);
            let _scope = rqp_obs::install(tracer.clone());
            let (_, lookup) = r3.get_or_compile(5, Deadline::none(), compile_example).unwrap();
            (lookup, tracer.spans())
        });
        while reg.stats().waits == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // the waiter wakes to an empty map and claims the fingerprint itself
        reg.wipe();
        let (lookup, spans) = waiter.join().unwrap();
        release_tx.send(()).unwrap();
        stalled.join().unwrap();
        assert_eq!(lookup, Lookup::Compiled);
        let find = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        let wait = find(rqp_obs::names::SPAN_REGISTRY_WAIT);
        let compile = find(rqp_obs::names::SPAN_ESS_COMPILE);
        assert_eq!(wait.attr("fingerprint").and_then(|v| v.as_u64()), Some(5));
        assert!(
            wait.start + wait.duration <= compile.start,
            "wait span [{}, +{}] overlaps the waiter's own compile [{}, +{}]",
            wait.start,
            wait.duration,
            compile.start,
            compile.duration
        );
    }

    fn begin_example() -> RqpResult<Arc<LazyEss>> {
        let w = Workload::q91(2)?;
        LazyEss::begin(
            &w.catalog,
            &w.query,
            CostModel::default(),
            EssConfig { resolution: 6, ..Default::default() },
        )
    }

    #[test]
    fn lazy_lookups_share_one_anytime_surface() {
        let reg = EssRegistry::new(2);
        let (s1, l1) = reg.get_or_lazy(21, Deadline::none(), begin_example).unwrap();
        let (s2, l2) =
            reg.get_or_lazy(21, Deadline::none(), || panic!("must not begin again")).unwrap();
        assert_eq!(l1, Lookup::Compiled);
        assert_eq!(l2, Lookup::Hit);
        let (SharedSurface::Lazy(a), SharedSurface::Lazy(b)) = (&s1, &s2) else {
            panic!("expected two lazy surfaces");
        };
        assert!(Arc::ptr_eq(a, b), "peers must share one frontier");
        // nothing beyond the anchors was compiled just by publishing
        assert_eq!(a.bands_compiled(), 0);
        // a peer pulling band 1 materializes bands 0..=1 for everyone
        b.compile_through(1);
        assert!(a.bands_compiled() >= 2);
        assert!(a.bands_compiled() < a.num_bands(), "upper bands stay unmaterialized");
    }

    #[test]
    fn an_eager_lookup_upgrades_a_resident_lazy_surface() {
        let reg = EssRegistry::new(1);
        let (_, l1) = reg.get_or_lazy(13, Deadline::none(), begin_example).unwrap();
        assert_eq!(l1, Lookup::Compiled);
        // the eager path finishes the lazy surface instead of recompiling
        let (ess, l2) =
            reg.get_or_compile(13, Deadline::none(), || panic!("must not recompile")).unwrap();
        assert_eq!(l2, Lookup::Compiled, "the upgrader is accounted as the compile");
        let eager = compile_example().unwrap();
        assert_eq!(ess.posp.num_plans(), eager.posp.num_plans());
        for cell in eager.grid().cells() {
            assert_eq!(ess.posp.cost(cell).to_bits(), eager.posp.cost(cell).to_bits());
        }
        // afterwards the fingerprint is an ordinary eager hit, both ways
        let (_, l3) =
            reg.get_or_compile(13, Deadline::none(), || panic!("must not recompile")).unwrap();
        assert_eq!(l3, Lookup::Hit);
        let (s, l4) =
            reg.get_or_lazy(13, Deadline::none(), || panic!("must not begin again")).unwrap();
        assert_eq!(l4, Lookup::Hit);
        assert!(matches!(s, SharedSurface::Eager(_)));
    }

    #[test]
    fn a_failed_lazy_begin_opens_the_breaker() {
        let reg = EssRegistry::new(1).with_breaker(test_breaker());
        assert!(reg
            .get_or_lazy(17, Deadline::none(), || Err(RqpError::Config("no anchors".into())))
            .is_err());
        let err = reg.get_or_lazy(17, Deadline::none(), || panic!("must not retry")).unwrap_err();
        assert!(matches!(err, RqpError::BreakerOpen { .. }), "expected BreakerOpen, got {err}");
        // the same breaker refuses the eager path too
        let err =
            reg.get_or_compile(17, Deadline::none(), || panic!("must not retry")).unwrap_err();
        assert!(matches!(err, RqpError::BreakerOpen { .. }));
        assert_eq!(reg.stats().breaker_opens, 1);
    }

    #[test]
    fn wipe_clears_lazy_entries() {
        let reg = EssRegistry::new(2);
        let (s, _) = reg.get_or_lazy(31, Deadline::none(), begin_example).unwrap();
        assert_eq!(reg.len(), 1);
        reg.wipe();
        assert!(reg.is_empty());
        // a session that already held the Arc keeps working after the wipe
        if let SharedSurface::Lazy(lazy) = s {
            lazy.compile_through(0);
            assert!(lazy.bands_compiled() >= 1);
        }
        // and the next lazy lookup begins fresh
        let (_, l) = reg.get_or_lazy(31, Deadline::none(), begin_example).unwrap();
        assert_eq!(l, Lookup::Compiled);
    }

    #[test]
    fn wipe_recovers_from_the_disk_tier_with_zero_recompiles() {
        let dir = std::env::temp_dir().join(format!("rqp-reg-wipe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CompileCache::new(&dir).unwrap();
        let reg = EssRegistry::new(2).with_cache(cache);
        let (_, l1) = reg.get_or_compile(3, Deadline::none(), compile_example).unwrap();
        assert_eq!(l1, Lookup::Compiled);
        let compiles_before = reg.stats().compiles;

        reg.wipe();
        assert!(reg.is_empty());
        let (_, l2) =
            reg.get_or_compile(3, Deadline::none(), || panic!("must not recompile")).unwrap();
        assert_eq!(l2, Lookup::Restored, "post-wipe lookup must restore from disk");
        let stats = reg.stats();
        assert_eq!(stats.compiles, compiles_before, "zero recompiles after the wipe");
        assert_eq!(stats.disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_chaos_corrupted_entry_is_quarantined_and_recompiled() {
        use rqp_chaos::{CompileFaultConfig, CompileFaultPlan};
        let dir = std::env::temp_dir().join(format!("rqp-reg-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CompileCache::new(&dir).unwrap();
        let path = cache.entry_path(4);
        let corrupt = path.with_extension("rqpc.corrupt");
        let plan = CompileFaultPlan::new(CompileFaultConfig::single(11, "corrupt_entry", 1.0));
        let reg =
            EssRegistry::new(2).with_cache(cache.clone()).with_compile_injector(Arc::new(plan));
        let (_, l1) = reg.get_or_compile(4, Deadline::none(), compile_example).unwrap();
        assert_eq!(l1, Lookup::Compiled);
        assert!(path.exists(), "the compile is written behind");

        reg.wipe();
        let corrupt_before = rqp_obs::global().counter(rqp_obs::names::ESS_CACHE_CORRUPT).get();
        let (_, l2) = reg.get_or_compile(4, Deadline::none(), compile_example).unwrap();
        assert_eq!(l2, Lookup::Compiled, "a corrupted entry must not restore");
        assert!(corrupt.exists(), "the corrupted entry is quarantined aside");
        assert_eq!(
            rqp_obs::global().counter(rqp_obs::names::ESS_CACHE_CORRUPT).get(),
            corrupt_before + 1
        );
        assert_eq!(reg.stats().disk_hits, 0);
        // the recompile was written behind and loads again
        assert!(cache.load(4).is_some(), "the write-behind entry must load");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
