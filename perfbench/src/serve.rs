//! `serve-inproc` and `serve-tcp`: closed-loop serving of a seeded
//! session mix.
//!
//! Callers each keep one session outstanding against a server with
//! [`WORKERS`] workers: a robust-QP caller waits for its answer before it
//! issues the next query. The in-proc arm submits through
//! `Server::submit_with` and follows each session's `SessionUpdate`s; the
//! TCP arm sends the same sessions through one `TcpTransport` connection
//! to an in-process one-shard `TcpServeHost` on loopback and follows the
//! frames a `FrameObserver` sees. Set-up warms the registry with one
//! session per fingerprint, so the timed phase is all registry hits.
//! After the timed phase every session's sub-optimality and total cost
//! are compared, bit for bit, with a direct `discover` call on the same
//! (query, algorithm, qa).

use crate::layers::{self, Counters, LayerValues, Spans};
use crate::stats::Timing;
use crate::{Args, Outcome, Rng};
use rqp_core::RobustRuntime;
use rqp_ess::{Cell, EssConfig};
use rqp_obs::names;
use rqp_serve::{
    algo_by_name, read_frame, write_frame, Frame, FrameObserver, ServeConfig, Server,
    SessionOutcome, SessionSpec, SessionUpdate, TcpServeHost, TcpTransport, Transport, WireRead,
};
use rqp_workloads::Workload;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The fingerprints of the mix.
const QUERIES: [&str; 5] = ["2D_Q91", "3D_Q15", "4D_Q91", "5D_Q19", "JOB_Q1a"];
/// The algorithms of the mix.
const ALGOS: [&str; 3] = ["sb", "ab", "pb"];
/// Actual locations per fingerprint, spread by the seed over the grid.
const QA_POOL: usize = 128;
/// Server worker threads.
const WORKERS: usize = 2;
/// How long a caller waits for one session before calling it lost.
const SESSION_WAIT: Duration = Duration::from_secs(60);
/// Session ids at and above this belong to set-up warm-up sessions.
const WARM_ID: usize = 1 << 40;

/// Which serving arm a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// `Server::submit_with` in this process.
    InProc,
    /// `TcpTransport` to a `TcpServeHost` on loopback.
    Tcp,
}

impl Arm {
    /// Closed-loop callers, each with one session outstanding. Over TCP a
    /// single caller: with two on the one connection, whether a session
    /// waits out the connection's 200 ms read poll depends on when the
    /// other caller's next frame happens to arrive, and the session p50
    /// flips between about 20 ms and 200 ms from run to run.
    fn callers(self) -> usize {
        match self {
            Arm::InProc => 2,
            Arm::Tcp => 1,
        }
    }

    /// Set-up repetitions; `setup_s` is the fastest. An in-proc set-up
    /// takes about 0.4 s and swings by up to 1.7x with the host's speed, so
    /// it is repeated more often than the TCP one, which mostly waits out
    /// the connection's read poll.
    fn setup_reps(self) -> usize {
        match self {
            Arm::InProc => 9,
            Arm::Tcp => 5,
        }
    }
}

/// The seeded session mix. Every (query, algorithm, qa) kind occurs
/// equally often: session `id` takes kind `kinds[id % kinds.len()]`, the
/// kinds in a seeded order.
struct Mix {
    kinds: Vec<(usize, usize, Cell)>,
}

impl Mix {
    fn new(seed: u64) -> Result<Mix, String> {
        let mut kinds = Vec::new();
        for (qi, q) in QUERIES.iter().enumerate() {
            let w = Workload::by_name(q).map_err(|e| e.to_string())?;
            let d = w.query.dims();
            let cells = EssConfig::coarse(d).resolution.pow(d as u32);
            // a golden-ratio sequence from a seeded start: every seed
            // spreads its cells evenly over the whole grid
            let start =
                (Rng::new(seed, 100 + qi as u64).next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            for k in 0..QA_POOL {
                let u = (start + k as f64 * 0.618_033_988_749_894_9).fract();
                let qa = ((u * cells as f64) as usize).min(cells - 1);
                for ai in 0..ALGOS.len() {
                    kinds.push((qi, ai, qa));
                }
            }
        }
        Rng::new(seed, 3).shuffle(&mut kinds);
        Ok(Mix { kinds })
    }

    fn kind(&self, id: usize) -> (usize, usize, Cell) {
        self.kinds[id % self.kinds.len()]
    }

    fn spec(&self, id: usize) -> SessionSpec {
        let (qi, ai, qa) = self.kind(id);
        SessionSpec {
            id,
            query: QUERIES[qi].to_string(),
            algo: ALGOS[ai].to_string(),
            qa: Some(qa),
            seed: id as u64,
        }
    }
}

/// `subopt` and `total_cost` bits of one session or discovery.
type Answer = (Option<u64>, Option<u64>);

/// What a caller saw of one session.
#[derive(Debug, Clone)]
struct Done {
    id: usize,
    /// Submit to result, as the caller saw it.
    latency: f64,
    /// Submit → `Started`, `Started` → `Surface`, `Surface` → result
    /// (in-proc only; over TCP the progress frames arrive batched).
    phases: Option<[f64; 3]>,
    /// Server-side session wall time.
    server_wall: f64,
    /// The answer of a completed session, or how it ended otherwise.
    answer: Result<Answer, String>,
}

/// The serving side under test: one in-proc server, or a TCP host and the
/// client connection to it.
enum Rig {
    InProc(Server),
    Tcp { host: TcpServeHost, client: Mutex<TcpTransport>, waiters: Waiters, wire: Arc<WireStats> },
}

type Waiters = Arc<Mutex<HashMap<usize, Sender<(Instant, Frame)>>>>;

/// Frames observed on the client connection; when `tracing`, each frame
/// is also re-encoded and decoded on an in-memory buffer, timed.
#[derive(Default)]
struct WireStats {
    tracing: AtomicBool,
    totals: Mutex<WireTotals>,
}

#[derive(Default, Clone, Copy)]
struct WireTotals {
    frames: u64,
    bytes: u64,
    encode_secs: f64,
    decode_secs: f64,
}

impl WireStats {
    fn observe(&self, frame: &Frame) {
        if !self.tracing.load(Ordering::Relaxed) {
            return;
        }
        let mut buf = Vec::new();
        let t = Instant::now();
        let written = write_frame(&mut buf, frame);
        let encode = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let read = read_frame(&mut buf.as_slice());
        let decode = t.elapsed().as_secs_f64();
        if written.is_ok() && matches!(read, Ok(WireRead::Frame(_))) {
            let mut tot = self.totals.lock().expect("wire stats lock poisoned");
            tot.frames += 1;
            tot.bytes += buf.len() as u64;
            tot.encode_secs += encode;
            tot.decode_secs += decode;
        }
    }

    fn totals(&self) -> WireTotals {
        *self.totals.lock().expect("wire stats lock poisoned")
    }
}

fn frame_id(frame: &Frame) -> Option<usize> {
    match frame {
        Frame::Progress { id, .. } | Frame::Reject { id, .. } => Some(*id),
        Frame::Result(r) => Some(r.id),
        Frame::Error { id, .. } => *id,
        _ => None,
    }
}

impl Rig {
    fn start(arm: Arm) -> Result<Rig, String> {
        let config = ServeConfig { workers: WORKERS, ..ServeConfig::default() };
        if arm == Arm::InProc {
            return Server::start(config).map(Rig::InProc).map_err(|e| e.to_string());
        }
        let host = TcpServeHost::bind("127.0.0.1:0", config, None).map_err(|e| e.to_string())?;
        let waiters: Waiters = Arc::default();
        let wire = Arc::new(WireStats::default());
        let observer: FrameObserver = {
            let waiters = Arc::clone(&waiters);
            let wire = Arc::clone(&wire);
            Arc::new(move |frame: &Frame| {
                let now = Instant::now();
                wire.observe(frame);
                let Some(id) = frame_id(frame) else { return };
                if let Some(tx) = waiters.lock().expect("waiters lock poisoned").get(&id) {
                    // a caller that gave up has dropped its receiver
                    let _ = tx.send((now, frame.clone()));
                }
            })
        };
        let addr = host.local_addr().to_string();
        let client =
            TcpTransport::connect_with(&[addr], None, Some(observer)).map_err(|e| e.to_string())?;
        Ok(Rig::Tcp { host, client: Mutex::new(client), waiters, wire })
    }

    /// Run one session to its end, as a caller waiting for the answer.
    fn session(&self, spec: SessionSpec) -> Result<Done, String> {
        let id = spec.id;
        match self {
            Rig::InProc(server) => {
                let (tx, rx) = mpsc::channel();
                let t0 = Instant::now();
                server.submit_with(spec, Some(tx)).map_err(|e| format!("session {id}: {e}"))?;
                inproc_wait(id, t0, &rx)
            }
            Rig::Tcp { client, waiters, .. } => {
                let (tx, rx) = mpsc::channel();
                waiters.lock().expect("waiters lock poisoned").insert(id, tx);
                let t0 = Instant::now();
                let sent = client.lock().expect("client lock poisoned").submit(spec);
                let done = sent
                    .map_err(|e| format!("session {id}: {e}"))
                    .and_then(|()| tcp_wait(id, t0, &rx));
                waiters.lock().expect("waiters lock poisoned").remove(&id);
                done
            }
        }
    }

    /// Stop the server side and wait for every thread it started.
    fn stop(self) -> Result<(), String> {
        match self {
            Rig::InProc(server) => {
                server.drain();
                Ok(())
            }
            Rig::Tcp { host, client, .. } => {
                let client = client.into_inner().map_err(|_| "client lock poisoned")?;
                let drained = Box::new(client).drain().map_err(|e| e.to_string());
                let stopped = host.stop().map_err(|e| e.to_string());
                drained.and(stopped).map(|_| ())
            }
        }
    }
}

fn inproc_wait(id: usize, t0: Instant, rx: &Receiver<SessionUpdate>) -> Result<Done, String> {
    let (mut started, mut surfaced) = (t0, t0);
    loop {
        let update =
            rx.recv_timeout(SESSION_WAIT).map_err(|e| format!("session {id}: no result: {e}"))?;
        match update {
            SessionUpdate::Started { .. } => started = Instant::now(),
            SessionUpdate::Surface { .. } => surfaced = Instant::now(),
            SessionUpdate::Step { .. } => {}
            SessionUpdate::Finished(r) => {
                let end = Instant::now();
                let answer = match &r.outcome {
                    SessionOutcome::Completed => {
                        Ok((r.subopt.map(f64::to_bits), r.total_cost.map(f64::to_bits)))
                    }
                    other => Err(format!("{other:?}")),
                };
                return Ok(Done {
                    id,
                    latency: (end - t0).as_secs_f64(),
                    phases: Some([
                        (started - t0).as_secs_f64(),
                        (surfaced.saturating_duration_since(started)).as_secs_f64(),
                        (end.saturating_duration_since(surfaced)).as_secs_f64(),
                    ]),
                    server_wall: r.wall.as_secs_f64(),
                    answer,
                });
            }
        }
    }
}

fn tcp_wait(id: usize, t0: Instant, rx: &Receiver<(Instant, Frame)>) -> Result<Done, String> {
    loop {
        let (at, frame) =
            rx.recv_timeout(SESSION_WAIT).map_err(|e| format!("session {id}: no result: {e}"))?;
        match frame {
            Frame::Result(r) => {
                let answer = if r.outcome == "completed" {
                    Ok((r.subopt_bits, r.total_cost_bits))
                } else {
                    Err(format!("{} {}", r.outcome, r.detail.unwrap_or_default()))
                };
                return Ok(Done {
                    id,
                    latency: (at - t0).as_secs_f64(),
                    phases: None,
                    server_wall: Duration::from_nanos(r.wall_nanos).as_secs_f64(),
                    answer,
                });
            }
            Frame::Reject { .. } => return Err(format!("session {id}: refused, queue full")),
            Frame::Error { message, .. } => return Err(format!("session {id}: {message}")),
            _ => {}
        }
    }
}

/// Start the rig and warm the registry: one session per fingerprint.
fn set_up(arm: Arm) -> Result<Rig, String> {
    let rig = Rig::start(arm)?;
    for (i, q) in QUERIES.iter().enumerate() {
        let done = rig.session(SessionSpec::new(WARM_ID + i, *q, "sb"))?;
        if let Err(how) = done.answer {
            return Err(format!("warm-up session for {q} ended {how}"));
        }
    }
    Ok(rig)
}

/// The closed loop: every caller issues sessions until `until` has passed.
fn closed_loop(
    rig: &Rig,
    callers: usize,
    mix: &Mix,
    next: &AtomicUsize,
    until: Instant,
) -> Vec<Result<Done, String>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    while Instant::now() < until {
                        done.push(rig.session(mix.spec(next.fetch_add(1, Ordering::Relaxed))));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("caller thread panicked")).collect()
    })
}

/// The answer a direct `discover` gives per (query, algorithm, qa), with a
/// fresh algorithm as the server builds one per session.
#[derive(Default)]
struct Reference {
    answers: HashMap<(usize, usize, Cell), Answer>,
    spans: Spans,
}

impl Reference {
    fn answer(
        &mut self,
        rts: &[RobustRuntime<'_>],
        kind: (usize, usize, Cell),
    ) -> Result<Answer, String> {
        if let Some(a) = self.answers.get(&kind) {
            return Ok(*a);
        }
        let (qi, ai, qa) = kind;
        let algo = algo_by_name(ALGOS[ai]).map_err(|e| e.to_string())?;
        let trace =
            self.spans.time(layers::discover_metric(ALGOS[ai]), || algo.discover(&rts[qi], qa));
        let a = (Some(trace.subopt().to_bits()), Some(trace.total_cost.to_bits()));
        self.answers.insert(kind, a);
        Ok(a)
    }

    /// Count one check per session: completed, with the direct answer.
    fn check(
        &mut self,
        rts: &[RobustRuntime<'_>],
        mix: &Mix,
        sessions: &[Done],
        out: &mut Outcome,
    ) -> Result<(), String> {
        for d in sessions {
            let kind = mix.kind(d.id);
            let (qi, ai, qa) = kind;
            let what = format!("session {} ({} {} qa {qa})", d.id, QUERIES[qi], ALGOS[ai]);
            out.check(match &d.answer {
                Err(how) => Some(format!("{what} ended {how}")),
                Ok(got) => (*got != self.answer(rts, kind)?)
                    .then(|| format!("{what} differs from a direct discover")),
            });
        }
        Ok(())
    }
}

/// Run the workload.
pub fn run(args: &Args, arm: Arm) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mix = Mix::new(args.seed)?;
    let mut setup = Timing::new();
    let mut rig = None;
    let mut setup_counters = Counters::default();
    for _ in 0..arm.setup_reps() {
        if let Some(old) = rig.take() {
            Rig::stop(old)?;
        }
        let before = Counters::read();
        let start = Instant::now();
        rig = Some(set_up(arm)?);
        setup.push(start.elapsed().as_secs_f64());
        setup_counters = Counters::read().since(&before);
    }
    let rig = rig.ok_or("no set-up repetition ran")?;
    out.line(format!(
        "input: {} fingerprints x {} algorithms x {QA_POOL} seeded qa cells = {} session kinds; closed loop of {} caller(s), {WORKERS} workers, {}",
        QUERIES.len(),
        ALGOS.len(),
        mix.kinds.len(),
        arm.callers(),
        if arm == Arm::Tcp { "1 loopback connection" } else { "in-process server" }
    ));
    let first: Vec<String> = (0..4)
        .map(|i| {
            let (qi, ai, qa) = mix.kind(i);
            format!("{} {} qa {qa}", QUERIES[qi], ALGOS[ai])
        })
        .collect();
    out.line(format!("mix: first sessions {}", first.join(", ")));
    let setup_s = setup.fastest().unwrap_or(f64::NAN);
    out.line(format!(
        "setup_s: {setup_s:.4} s (fastest of {} set-ups; median {:.4} s)",
        setup.len(),
        setup.median().unwrap_or(f64::NAN)
    ));

    // A traced run spends its first half untraced, for the overhead ratio.
    let next = AtomicUsize::new(0);
    let half = if args.trace { args.seconds / 2 } else { args.seconds };
    let start = Instant::now();
    let mut results = closed_loop(&rig, arm.callers(), &mix, &next, start + half);
    let plain_wall = start.elapsed().as_secs_f64();
    let plain_count = results.len();
    let mut traced_wall = 0.0;
    let mut traced_delta = Counters::default();
    if args.trace {
        if let Rig::Tcp { wire, .. } = &rig {
            wire.tracing.store(true, Ordering::Relaxed);
        }
        let before = Counters::read();
        let t = Instant::now();
        results.extend(closed_loop(&rig, arm.callers(), &mix, &next, t + (args.seconds - half)));
        traced_wall = t.elapsed().as_secs_f64();
        traced_delta = Counters::read().since(&before);
    }
    let wire = match &rig {
        Rig::Tcp { wire, .. } => wire.totals(),
        Rig::InProc(_) => WireTotals::default(),
    };
    rig.stop()?;

    let mut done = Vec::with_capacity(results.len());
    let mut plain = 0;
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(d) => {
                plain += usize::from(i < plain_count);
                done.push(d);
            }
            Err(e) => out.check(Some(e)),
        }
    }
    let (plain_done, traced) = done.split_at(plain);
    let workloads = QUERIES
        .iter()
        .map(|q| Workload::by_name(q).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let rts = workloads
        .iter()
        .map(|w| w.runtime(EssConfig::coarse(w.query.dims())).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut reference = Reference::default();
    reference.check(&rts, &mix, &done, &mut out)?;

    let mut latency = Timing::new();
    let mut delivery = Timing::new();
    for d in plain_done {
        latency.push(d.latency);
        delivery.push(d.latency - d.server_wall);
    }
    let sessions_per_s = plain as f64 / plain_wall;
    out.line(format!(
        "sessions_per_s: {sessions_per_s:.2} 1/s ({plain} sessions in {plain_wall:.3} s)"
    ));
    out.line(latency.describe("session_ms", "ms", 1e3));
    out.line(delivery.describe("delivery_ms (session latency - server wall time)", "ms", 1e3));

    if !args.trace {
        out.metrics.push(("setup_s", setup_s, "s"));
        out.metrics.push(("throughput_per_s", sessions_per_s, "1/s"));
        let pct = |p| latency.percentile(p).unwrap_or(f64::NAN) * 1e3;
        out.metrics.push(("latency_p50_ms", pct(0.5), "ms"));
        out.metrics.push(("latency_p90_ms", pct(0.9), "ms"));
        return Ok(out);
    }
    let sessions = traced.len() as f64;
    let mut v = LayerValues::new();
    v.set_compile_counters(&setup_counters);
    v.set_discovery_counters(&traced_delta, sessions);
    // From the direct reference calls after the timed phase (each kind
    // once), not from the served sessions.
    for algo in ALGOS {
        let key = layers::discover_metric(algo);
        v.set(key, reference.spans.mean(key) * 1e6);
    }
    let hits = traced_delta.get(names::SERVE_REGISTRY_HITS) as f64;
    let lookups = hits
        + (traced_delta.get(names::SERVE_REGISTRY_MISSES)
            + traced_delta.get(names::SERVE_SINGLEFLIGHT_WAITS)
            + traced_delta.get(names::SERVE_REGISTRY_DISK_HITS)) as f64;
    v.set("serve.registry_hit_ratio", layers::ratio(hits, lookups));
    // Top-level layer time per session adds up to the caller's latency:
    // queue + registry + discovery in process, server + delivery over TCP.
    // So this reads about 1 by construction; it would drop only if callers
    // spent time outside their sessions.
    let covered: f64 = traced.iter().map(|d| d.latency).sum();
    v.set("trace.coverage", covered / (traced_wall * arm.callers() as f64));
    if arm == Arm::InProc {
        let phase = |i: usize| {
            traced.iter().filter_map(|d| d.phases.map(|p| p[i])).sum::<f64>() / sessions * 1e3
        };
        v.set("serve.queue_wait_ms", phase(0));
        v.set("serve.registry_lookup_ms", phase(1));
        v.set("serve.discovery_ms", phase(2));
    } else {
        let delivery: f64 = traced.iter().map(|d| d.latency - d.server_wall).sum();
        v.set("transport.delivery_ms", delivery / sessions * 1e3);
        let frames = wire.frames as f64;
        v.set("wire.encode_us", layers::ratio(wire.encode_secs, frames) * 1e6);
        v.set("wire.decode_us", layers::ratio(wire.decode_secs, frames) * 1e6);
        v.set("wire.frames_per_session", frames / sessions);
        v.set("wire.bytes_per_session", wire.bytes as f64 / sessions);
    }
    v.set("trace.overhead_ratio", sessions_per_s / (sessions / traced_wall) - 1.0);
    out.metrics.extend(v.entries());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_mix_and_another_seed_changes_it() {
        let a = Mix::new(1).expect("mix for seed 1");
        let again = Mix::new(1).expect("mix for seed 1");
        let b = Mix::new(2).expect("mix for seed 2");
        assert_eq!(a.kinds, again.kinds);
        assert_ne!(a.kinds, b.kinds);
        assert_eq!(a.kinds.len(), QUERIES.len() * ALGOS.len() * QA_POOL);
        // every kind occurs once per cycle of session ids
        let mut seen: Vec<_> = (0..a.kinds.len()).map(|id| a.kind(id)).collect();
        seen.sort_unstable();
        let mut all = a.kinds.clone();
        all.sort_unstable();
        assert_eq!(seen, all);
        assert_eq!(a.kind(7), a.kind(7 + a.kinds.len()));
    }
}
