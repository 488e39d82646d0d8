//! Canonical metric and event names used across the workspace.
//!
//! Producers (optimizer, ess, executor, core) and consumers (bench, tests,
//! dashboards) must both go through these constants so the series names
//! cannot drift apart. Labelled series are flat names built with
//! [`crate::labeled`], e.g. `rqp_discovery_steps_total{algo="SB"}`.

// ---- optimizer --------------------------------------------------------

/// Counter: total `Optimizer::optimize` invocations.
pub const OPTIMIZER_CALLS: &str = "rqp_optimizer_calls_total";
/// Histogram: wall-clock seconds per `Optimizer::optimize` call.
pub const OPTIMIZER_OPTIMIZE_SECONDS: &str = "rqp_optimizer_optimize_seconds";
/// Counter: DP memo entries materialized (plans enumerated).
pub const OPTIMIZER_DP_ENTRIES: &str = "rqp_optimizer_dp_entries_total";
/// Counter: join candidates considered across all DP splits.
pub const OPTIMIZER_JOIN_CANDIDATES: &str = "rqp_optimizer_join_candidates_total";
/// Counter: spill-constrained optimize calls (`optimize_spilling_on`).
pub const OPTIMIZER_SPILL_CONSTRAINED_CALLS: &str = "rqp_optimizer_spill_constrained_calls_total";

// ---- ess --------------------------------------------------------------

/// Counter: POSP grid-cell fingerprints that hit an already-compiled plan.
pub const ESS_MEMO_HITS: &str = "rqp_ess_memo_hits_total";
/// Counter: POSP grid cells optimized.
pub const ESS_POSP_CELLS: &str = "rqp_ess_posp_cells_total";
/// Histogram: seconds per POSP compile (the §7 "repeated optimizer calls" overhead).
pub const ESS_POSP_COMPILE_SECONDS: &str = "rqp_ess_posp_compile_seconds";
/// Gauge: distinct plans in the most recent POSP.
pub const ESS_POSP_PLANS: &str = "rqp_ess_posp_plans";
/// Histogram: seconds per full `Ess::compile`.
pub const ESS_COMPILE_SECONDS: &str = "rqp_ess_compile_seconds";
/// Histogram: seconds to build the iso-cost contour set.
pub const ESS_CONTOUR_BUILD_SECONDS: &str = "rqp_ess_contour_build_seconds";
/// Gauge: contour bands in the most recent compile.
pub const ESS_CONTOUR_BANDS: &str = "rqp_ess_contour_bands";
/// Gauge: grid cells in the most recent compile.
pub const ESS_GRID_CELLS: &str = "rqp_ess_grid_cells";
/// Counter: total `Ess::compile` invocations.
pub const ESS_COMPILES: &str = "rqp_ess_compiles_total";
/// Counter: seed-sublattice cells optimized with full DP in recost mode.
pub const ESS_SEED_CELLS: &str = "rqp_ess_seed_cells_total";
/// Counter: cells filled by recosting an agreed seed plan (no DP).
pub const ESS_RECOST_CELLS: &str = "rqp_ess_recost_cells_total";
/// Counter: recost-mode cells that fell back to full DP because their seed
/// corners disagreed on the optimal plan.
pub const ESS_RECOST_FALLBACK_CELLS: &str = "rqp_ess_recost_fallback_cells_total";
/// Counter: ESS compiles served from the persistent snapshot cache.
pub const ESS_CACHE_HITS: &str = "rqp_ess_cache_hits_total";
/// Counter: ESS compiles that missed the persistent snapshot cache.
pub const ESS_CACHE_MISSES: &str = "rqp_ess_cache_misses_total";
/// Counter: snapshots written to the persistent snapshot cache.
pub const ESS_CACHE_STORES: &str = "rqp_ess_cache_stores_total";
/// Counter: corrupt persistent-cache entries quarantined to `*.corrupt`.
pub const ESS_CACHE_CORRUPT: &str = "rqp_ess_cache_corrupt_total";
/// Counter: contour bands materialized by the lazy anytime compiler.
pub const ESS_BANDS_COMPILED: &str = "rqp_ess_bands_compiled_total";
/// Counter: contour bands a lazy compile never had to materialize (the
/// discovery terminated below them and the surface was dropped).
pub const ESS_BANDS_SKIPPED: &str = "rqp_ess_bands_skipped_total";

// ---- executor ---------------------------------------------------------

/// Counter: budgeted executions started.
pub const EXEC_BUDGETED: &str = "rqp_exec_budgeted_total";
/// Counter: budgeted executions that completed within budget.
pub const EXEC_BUDGETED_COMPLETED: &str = "rqp_exec_budgeted_completed_total";
/// Counter: budgeted executions cut off at the budget.
pub const EXEC_BUDGET_EXPIRED: &str = "rqp_exec_budget_expired_total";
/// Counter: spill-mode executions (bisection-refined).
pub const EXEC_SPILL: &str = "rqp_exec_spill_total";
/// Counter: spill executions learning an exact selectivity.
pub const EXEC_SPILL_EXACT: &str = "rqp_exec_spill_exact_total";
/// Counter: spill executions learning only a lower bound.
pub const EXEC_SPILL_BOUND: &str = "rqp_exec_spill_bound_total";
/// Labelled counter base: spill observations per error-prone predicate,
/// `rqp_exec_spill_observations_total{epp="<id>"}`.
pub const EXEC_SPILL_OBSERVATIONS: &str = "rqp_exec_spill_observations_total";
/// Counter: executions that died from an injected fault (any seam).
pub const EXEC_FAILED: &str = "rqp_exec_failed_total";

// ---- chaos / supervision ----------------------------------------------

/// Labelled counter base: injected faults per class,
/// `rqp_chaos_faults_injected_total{class="…"}`.
pub const FAULTS_INJECTED: &str = "rqp_chaos_faults_injected_total";
/// Counter: supervised retries of failed executions.
pub const SUPERVISOR_RETRIES: &str = "rqp_supervisor_retries_total";
/// Counter: plans quarantined after exceeding the failure threshold.
pub const SUPERVISOR_QUARANTINES: &str = "rqp_supervisor_quarantines_total";
/// Counter: last-resort clean executions after retries ran dry.
pub const SUPERVISOR_LAST_RESORT: &str = "rqp_supervisor_last_resort_total";
/// Counter: retries skipped because the session deadline lapsed.
pub const SUPERVISOR_DEADLINE_STOPS: &str = "rqp_supervisor_deadline_stops_total";
/// Labelled counter base: discoveries ending in a structured failure,
/// `rqp_discovery_structured_failures_total{algo="…"}`.
pub const DISCOVERY_STRUCTURED_FAILURES: &str = "rqp_discovery_structured_failures_total";

// ---- discovery / evaluation ------------------------------------------

/// Labelled counter base: discovery runs per algorithm (`{algo="…"}`).
pub const DISCOVERY_RUNS: &str = "rqp_discovery_runs_total";
/// Labelled counter base: execution steps taken per algorithm.
pub const DISCOVERY_STEPS: &str = "rqp_discovery_steps_total";
/// Labelled counter base: discoveries whose final step completed.
pub const DISCOVERY_COMPLETED: &str = "rqp_discovery_completed_total";
/// Labelled histogram base: seconds spent per contour band.
pub const DISCOVERY_BAND_SECONDS: &str = "rqp_discovery_band_seconds";
/// Labelled counter base: half-space pruning steps (band promotions on a
/// learned lower bound).
pub const DISCOVERY_HALF_SPACE_PRUNES: &str = "rqp_discovery_half_space_prunes_total";
/// Labelled gauge base: worst-case suboptimality per algorithm.
pub const EVAL_MSO: &str = "rqp_eval_mso";
/// Labelled gauge base: average suboptimality per algorithm.
pub const EVAL_ASO: &str = "rqp_eval_aso";

// ---- serve ------------------------------------------------------------

/// Gauge: sessions currently executing inside the serve worker pool.
pub const SERVE_SESSIONS_ACTIVE: &str = "rqp_serve_sessions_active";
/// Gauge: sessions waiting in the admission queue.
pub const SERVE_QUEUE_DEPTH: &str = "rqp_serve_queue_depth";
/// Counter: sessions admitted into the queue.
pub const SERVE_ADMITTED: &str = "rqp_serve_admitted_total";
/// Counter: sessions refused at admission (queue at capacity).
pub const SERVE_REJECTED: &str = "rqp_serve_rejected_total";
/// Counter: sessions that finished discovery successfully.
pub const SERVE_COMPLETED: &str = "rqp_serve_completed_total";
/// Counter: sessions that ended in failure (compile error, expired
/// deadline, blown budget cap).
pub const SERVE_FAILED: &str = "rqp_serve_failed_total";
/// Counter: sessions still queued when a graceful drain finished them off.
pub const SERVE_DRAINED: &str = "rqp_serve_drained_total";
/// Histogram: wall-clock seconds per served session (admission → result).
pub const SERVE_SESSION_SECONDS: &str = "rqp_serve_session_seconds";
/// Counter: registry lookups served by an already-compiled shared ESS.
pub const SERVE_REGISTRY_HITS: &str = "rqp_serve_registry_hits_total";
/// Counter: registry lookups that had to compile (first session for a
/// fingerprint).
pub const SERVE_REGISTRY_MISSES: &str = "rqp_serve_registry_misses_total";
/// Counter: sessions that blocked on a peer's in-flight compile instead of
/// starting their own (single-flight suppression).
pub const SERVE_SINGLEFLIGHT_WAITS: &str = "rqp_serve_singleflight_waits_total";
/// Counter: telemetry endpoint connections that failed on a socket error
/// (setup, write or flush) — a scrape failing silently looks like a wedged
/// server, so the failure itself is counted.
pub const SERVE_TELEMETRY_ERRORS: &str = "rqp_serve_telemetry_errors_total";
/// Counter: registry entries restored from the persistent disk cache
/// instead of recompiling (warm-restart recovery path).
pub const SERVE_REGISTRY_DISK_HITS: &str = "rqp_serve_registry_disk_hits_total";
/// Counter: circuit breakers opened (a compile failure started or
/// extended a backoff window).
pub const SERVE_BREAKER_OPEN: &str = "rqp_serve_breaker_open_total";
/// Counter: half-open re-probes admitted after a backoff window elapsed.
pub const SERVE_BREAKER_REPROBE: &str = "rqp_serve_breaker_reprobe_total";
/// Counter: breakers closed again by a successful re-probe.
pub const SERVE_BREAKER_CLOSE: &str = "rqp_serve_breaker_close_total";
/// Counter: lookups refused instantly because a breaker was open.
pub const SERVE_BREAKER_REFUSED: &str = "rqp_serve_breaker_refused_total";
/// Counter: registry waits that returned `DeadlineExpired` instead of
/// blocking past the session deadline on a wedged peer compile.
pub const SERVE_WAIT_DEADLINE_EXPIRED: &str = "rqp_serve_wait_deadline_expired_total";
/// Counter: sessions served a native-optimizer fallback plan because the
/// breaker was open and degradation was enabled.
pub const SERVE_DEGRADED: &str = "rqp_serve_degraded_total";
/// Counter: sessions refused because the spec itself was invalid (e.g.
/// an out-of-range `qa`) — distinct from backpressure rejections.
pub const SERVE_INVALID_SPEC: &str = "rqp_serve_invalid_spec_total";
/// Counter: sessions accepted over the TCP wire transport.
pub const SERVE_WIRE_SESSIONS: &str = "rqp_serve_wire_sessions_total";
/// Counter: wire-level rejection frames sent (queue saturation mapped
/// onto the `Overloaded` admission path).
pub const SERVE_WIRE_REJECTED: &str = "rqp_serve_wire_rejections_total";
/// Counter: connections dropped on a malformed or hostile frame (bad
/// length prefix, oversized frame, undecodable payload).
pub const SERVE_WIRE_FRAME_ERRORS: &str = "rqp_serve_wire_frame_errors_total";
/// Labelled counter base: compile-seam faults injected per class,
/// `rqp_chaos_compile_faults_injected_total{class="…"}`.
pub const COMPILE_FAULTS_INJECTED: &str = "rqp_chaos_compile_faults_injected_total";

// ---- span names -------------------------------------------------------
//
// Causal-trace span names (see [`crate::trace`]). rqp-lint's `obs-names`
// rule forbids inline string literals at `Tracer::span` call sites, so
// every span name used in the workspace lives here.

/// Span: a whole served session (admission → result).
pub const SPAN_SESSION: &str = "session";
/// Span: an `Ess::compile_cached` performed by this session.
pub const SPAN_ESS_COMPILE: &str = "ess_compile";
/// Span: blocked on a peer session's in-flight compile (single-flight).
pub const SPAN_REGISTRY_WAIT: &str = "registry_wait";
/// Span: building the iso-cost contour set inside a compile.
pub const SPAN_CONTOUR_BUILD: &str = "contour_build";
/// Span: one contour band materialized by the ESS compiler.
pub const SPAN_ESS_BAND_COMPILE: &str = "ess_band_compile";
/// Span: one iso-cost contour band of the discovery climb.
pub const SPAN_CONTOUR_BAND: &str = "contour_band";
/// Span: one discovery step (plan choice / spill probe / re-opt round).
pub const SPAN_DISCOVERY_STEP: &str = "discovery_step";
/// Span: one budgeted engine execution attempt (supervised).
pub const SPAN_EXECUTION: &str = "execution";

// ---- event kinds ------------------------------------------------------

/// Event: one budgeted execution (one per `Engine::execute_budgeted`).
pub const EV_BUDGETED_EXECUTION: &str = "budgeted_execution";
/// Event: one spill-mode execution.
pub const EV_SPILL_EXECUTION: &str = "spill_execution";
/// Event: an `Ess::compile` finished.
pub const EV_ESS_COMPILE: &str = "ess_compile";
/// Event: one contour band summarized during compile.
pub const EV_CONTOUR_BAND: &str = "contour_band";
/// Event: a persistent compile-cache lookup resolved (hit or miss).
pub const EV_ESS_CACHE: &str = "ess_cache";
/// Event: a selectivity was learned during discovery.
pub const EV_LEARNED_SELECTIVITY: &str = "learned_selectivity";
/// Event: a half-space pruning band promotion.
pub const EV_HALF_SPACE_PRUNING: &str = "half_space_pruning";
/// Event: a discovery run finished.
pub const EV_DISCOVERY_COMPLETE: &str = "discovery_complete";
/// Event: an algorithm's MSO/ASO evaluation was summarized.
pub const EV_EVALUATION: &str = "evaluation";
/// Event: a fault was injected into an execution.
pub const EV_FAULT_INJECTED: &str = "fault_injected";
/// Event: the supervisor retried a failed execution.
pub const EV_EXECUTION_RETRY: &str = "execution_retry";
/// Event: a plan was quarantined for the rest of the run.
pub const EV_PLAN_QUARANTINED: &str = "plan_quarantined";
/// Event: a discovery run ended in a structured failure.
pub const EV_DISCOVERY_FAILED: &str = "discovery_failed";
/// Event: a session was admitted into the serve queue.
pub const EV_SESSION_ADMITTED: &str = "session_admitted";
/// Event: a session was refused at admission (backpressure).
pub const EV_SESSION_REJECTED: &str = "session_rejected";
/// Event: a served session finished (any outcome).
pub const EV_SESSION_COMPLETE: &str = "session_complete";
/// Event: the serve scheduler drained and shut down.
pub const EV_SERVE_DRAIN: &str = "serve_drain";
/// Event: a per-fingerprint circuit breaker changed state.
pub const EV_BREAKER_TRANSITION: &str = "breaker_transition";
/// Event: a compile-seam fault was injected (panic, failure, slow IO,
/// cache corruption).
pub const EV_COMPILE_FAULT_INJECTED: &str = "compile_fault_injected";
/// Event: a corrupt cache entry was quarantined to `*.corrupt`.
pub const EV_CACHE_QUARANTINE: &str = "cache_quarantine";
/// Event: a session was served the degraded native-optimizer fallback.
pub const EV_SESSION_DEGRADED: &str = "session_degraded";
