//! The two TCP workloads: a closed-loop tuning client on a loopback
//! connection to one `TcpHarmonyServer` on its default event loop.
//!
//! * `tcp-batched`: no store; each connection tunes seeded Random sessions
//!   over four integer parameters (the size of the paper's GS2 space) and
//!   loops `fetch_batch(16)` → `report_batch`. Per-evaluation wire cost
//!   dominates.
//! * `tcp-serial-store`: a `SharedStore` is attached; each connection does
//!   one `fetch` → `report` per round trip over one integer parameter.
//!   Set-up replays every planned session locally and pre-records every
//!   other configuration it will propose, so exactly half the server-side
//!   lookups hit and every client report appends a record. Per-message
//!   cost dominates, and the store's read and write paths both run.
//!
//! Sessions are bounded and each takes a fresh label, so every session's
//! history can be checked against a local serial replay after the run.
//!
//! The traced run is in [`traced`].

use crate::host;
use crate::stats::{self, Step};
use crate::trace::Recorder;
use crate::{same_history, Args, Outcome};
use ah_core::error::HarmonyError;
use ah_core::history::History;
use ah_core::param::Param;
use ah_core::retry::RetryPolicy;
use ah_core::server::protocol::{FrameDecoder, Reply, Request, StrategyKind, TrialReport};
use ah_core::server::tcp::{
    TcpClientOptions, TcpHarmonyClient, TcpHarmonyServer, DEFAULT_MAX_CONNECTIONS,
};
use ah_core::server::ServerConfig;
use ah_core::session::{SessionOptions, Trial, TuningSession};
use ah_core::space::{Configuration, SearchSpace};
use ah_core::store::{space_fingerprint, SharedStore, StoreRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

mod traced;

/// Client connections (and client threads). One closed loop keeps the
/// client and the server's threads from filling a two-core host, so a
/// burst of CPU steal stalls fewer of them.
const CONNECTIONS: usize = 1;
/// Threads that check sessions after a run: one per core.
const VERIFY_THREADS: usize = 2;
/// Trials per `fetch_batch` on `tcp-batched`.
const BATCH: usize = 16;
/// Steps per connection whose frames the server-side codec probe replays.
const FRAME_SAMPLE: usize = 2_000;

/// Which of the two TCP workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `tcp-batched`.
    Batched,
    /// `tcp-serial-store`.
    SerialStore,
}

/// The workload's fixed inputs, all derived from the seed.
struct Spec {
    shape: Shape,
    name: &'static str,
    params: Vec<Param>,
    space: SearchSpace,
    fingerprint: u64,
    /// Evaluations per session.
    budget: usize,
    /// Session evaluations (store hits included) per second one connection
    /// is planned for. The store workload pre-records this many; a faster
    /// program runs out of plan early, and the run then reports the
    /// shorter window it measured and says so.
    plan_evals_per_sec: f64,
    /// Set-ups per untraced run; `setup_s` is their median.
    setup_repeats: usize,
    /// Evaluations after which `peak_rss_mb` is read. The server keeps
    /// every session's history and the store every record, so resident
    /// memory grows with work done; reading it at a fixed amount of work
    /// keeps a faster program from reading as a memory regression.
    rss_after_evals: u64,
    /// Optimum of the trivial cost, one value per parameter.
    targets: Vec<i64>,
    seed: u64,
}

impl Spec {
    fn new(shape: Shape, seed: u64) -> Spec {
        // Plans cost nothing without a store, so `tcp-batched` plans
        // generously; a store set-up pre-records a whole run's plan, so it
        // repeats fewer times.
        let (name, params, budget, plan_evals_per_sec, setup_repeats, rss_after_evals) = match shape
        {
            Shape::Batched => (
                "tcp-batched",
                vec![
                    Param::int("negrid", 4, 64, 1),
                    Param::int("ntheta", 8, 128, 1),
                    Param::int("nodes", 1, 64, 1),
                    Param::int("layout", 0, 119, 1),
                ],
                4096,
                200_000.0,
                51,
                150_000,
            ),
            Shape::SerialStore => (
                "tcp-serial-store",
                vec![Param::int("x", 0, 999_999, 1)],
                512,
                24_000.0,
                5,
                50_000,
            ),
        };
        let mut builder = SearchSpace::builder();
        for p in &params {
            builder = builder.param(p.clone());
        }
        let space = builder.build().expect("benchmark space is valid");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7461_7267);
        let targets = space
            .params()
            .iter()
            .map(|p| rng.gen_range(p.embed_min() as i64..=p.embed_max() as i64))
            .collect();
        Spec {
            shape,
            name,
            fingerprint: space_fingerprint(&space),
            params,
            space,
            budget,
            plan_evals_per_sec,
            setup_repeats,
            rss_after_evals,
            targets,
            seed,
        }
    }

    /// Trivial cost of a configuration: one plus the squared distance to
    /// the targets. Whole numbers below 2^53, so exact on the wire.
    fn cost(&self, cfg: &Configuration) -> f64 {
        let d: i64 = cfg
            .values()
            .iter()
            .zip(&self.targets)
            .map(|(v, t)| {
                let d = v.as_int().expect("integer parameter") - t;
                d * d
            })
            .sum();
        1.0 + d as f64
    }

    fn options(&self, seed: u64) -> SessionOptions {
        SessionOptions {
            max_evaluations: self.budget,
            no_improve_limit: 0,
            max_cached_replays: usize::MAX / 4,
            seed,
            target_cost: None,
        }
    }

    fn evals_per_step(&self) -> f64 {
        match self.shape {
            Shape::Batched => BATCH as f64,
            Shape::SerialStore => 1.0,
        }
    }

    /// Session plans of one phase and connection, in the order the
    /// connection runs them.
    fn plans(&self, phase: char, conn: usize, count: usize) -> Vec<Plan> {
        (0..count)
            .map(|j| Plan {
                label: format!("{}-{}-{phase}{conn}-{j}", self.name, self.seed),
                seed: splitmix(
                    self.seed ^ ((phase as u64) << 56) ^ ((conn as u64) << 40) ^ j as u64,
                ),
            })
            .collect()
    }

    /// Sessions one connection may need for `secs` of running.
    fn plan_len(&self, secs: f64) -> usize {
        (secs * self.plan_evals_per_sec / self.budget as f64).ceil() as usize + 1
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One planned session.
#[derive(Debug, Clone)]
struct Plan {
    label: String,
    seed: u64,
}

/// A session a client ran.
#[derive(Debug, Clone)]
struct Ran {
    plan: Plan,
    /// Server-side session id.
    session: u64,
    /// Steps the client completed.
    steps: usize,
    /// The client saw the session finish (rather than the deadline
    /// interrupting it).
    finished: bool,
}

impl Ran {
    /// Steps a replay of this session must take: all of them when the
    /// client drove it to the end, since the fetch that found it finished
    /// also moved the server's session.
    fn replay_steps(&self) -> usize {
        if self.finished {
            usize::MAX
        } else {
            self.steps
        }
    }
}

/// How a replay resolves the store lookups of `tcp-serial-store`.
enum Hits<'a> {
    /// Every other fresh proposal hits, starting with the first; hit
    /// records are collected when a vector is given (planning).
    Planned(Option<&'a mut Vec<StoreRecord>>),
    /// Real lookups in a store pre-recorded with the plan (the store probe);
    /// misses are inserted after their report, as the server does.
    Store(&'a SharedStore),
}

/// What a local replay produced.
struct Replayed {
    history: History,
    /// The session stopped, as the server reports in `Reply::History`.
    finished: bool,
    steps: usize,
    lookups: u64,
    hits: u64,
}

fn timed<R>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    step: u64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => r.time(name, None, step, f),
        None => f(),
    }
}

/// Replay a planned session locally with a serial `TuningSession`, making
/// exactly the calls the server makes for the workload's requests, for at
/// most `max_steps` client steps. With a recorder, session and store calls
/// are spanned.
fn replay(
    spec: &Spec,
    plan: &Plan,
    max_steps: usize,
    mut hits: Hits<'_>,
    mut rec: Option<&mut Recorder>,
) -> Replayed {
    let mut session = TuningSession::new(
        spec.space.clone(),
        StrategyKind::Random.build(),
        spec.options(plan.seed),
    );
    let mut out = Replayed {
        history: History::new(),
        finished: false,
        steps: 0,
        lookups: 0,
        hits: 0,
    };
    let mut fresh = 0usize;
    while out.steps < max_steps {
        let step = out.steps as u64;
        match spec.shape {
            Shape::Batched => {
                let trials = timed(&mut rec, "session.suggest", step, || {
                    session.suggest_batch(BATCH)
                });
                if trials.is_empty() {
                    break;
                }
                for t in trials {
                    let c = spec.cost(&t.config);
                    timed(&mut rec, "session.report", step, || {
                        session.report_timed(t, c, c)
                    })
                    .expect("replayed report matches an outstanding trial");
                }
            }
            Shape::SerialStore => {
                // One `Fetch`: store hits are answered server-side until a
                // proposal needs the client.
                let trial: Option<Trial> = loop {
                    let Some(t) = timed(&mut rec, "session.suggest", step, || {
                        session.suggest_batch(1).pop()
                    }) else {
                        break None;
                    };
                    let c = spec.cost(&t.config);
                    let hit = match &mut hits {
                        Hits::Planned(records) => {
                            let hit = fresh & 1 == 0;
                            if let (true, Some(records)) = (hit, records.as_mut()) {
                                records.push(StoreRecord::new(
                                    plan.label.clone(),
                                    spec.fingerprint,
                                    t.config.clone(),
                                    c,
                                    c,
                                ));
                            }
                            hit.then_some(c)
                        }
                        Hits::Store(store) => {
                            let key = t.config.cache_key();
                            timed(&mut rec, "store.lookup", step, || {
                                store.lookup(&plan.label, spec.fingerprint, &key)
                            })
                            .map(|h| h.cost)
                        }
                    };
                    fresh += 1;
                    out.lookups += 1;
                    match hit {
                        Some(c) => {
                            out.hits += 1;
                            timed(&mut rec, "session.report", step, || {
                                session.report_stored(t, c)
                            })
                            .expect("stored report matches an outstanding trial");
                        }
                        None => break Some(t),
                    }
                };
                let Some(t) = trial else { break };
                let c = spec.cost(&t.config);
                let record =
                    StoreRecord::new(plan.label.clone(), spec.fingerprint, t.config.clone(), c, c);
                timed(&mut rec, "session.report", step, || {
                    session.report_timed(t, c, c)
                })
                .expect("replayed report matches an outstanding trial");
                if let Hits::Store(store) = &hits {
                    timed(&mut rec, "store.insert", step, || {
                        store.insert_batch(vec![record])
                    })
                    .expect("probe store accepts the record");
                }
            }
        }
        out.steps += 1;
    }
    if let Hits::Store(store) = &hits {
        let step = out.steps as u64;
        timed(&mut rec, "store.flush", step, || store.flush()).expect("probe store flushes");
    }
    out.history = session.history().clone();
    out.finished = session.stop_reason().is_some();
    out
}

/// True when the server's `QueryHistory` reply frame carries exactly the
/// replayed history. The reply is compared as text against the same
/// message encoded locally (shortest round-trip floats, so equal text means
/// equal bits); only when the text differs is the frame decoded and
/// compared field by field, which tolerates an equivalent encoding.
/// Decoding is the slow path: the vendored JSON parser is quadratic in the
/// frame length.
fn history_frame_matches(frame: &str, replayed: &Replayed) -> bool {
    let want = serde_json::to_string(&Reply::History {
        history: replayed.history.clone(),
        finished: replayed.finished,
    })
    .expect("histories serialize");
    frame == want
        || matches!(
            serde_json::from_str::<Reply>(frame),
            Ok(Reply::History { history, finished })
                if finished == replayed.finished && same_history(&history, &replayed.history)
        )
}

/// Attach to `session` over a fresh connection and fetch its history
/// frame, undecoded.
fn query_history_frame(addr: SocketAddr, session: u64) -> std::io::Result<String> {
    let mut conn = RawConn::connect(addr)?;
    let attached = conn.exchange(&Request::Attach {
        session,
        tenant: String::new(),
    })?;
    match serde_json::from_str::<Reply>(&attached) {
        Ok(Reply::Registered { .. }) => conn.exchange(&Request::QueryHistory),
        _ => Err(std::io::Error::other(format!("attach refused: {attached}"))),
    }
}

/// Evaluations completed across connections, and the peak RSS read when
/// they first reach the workload's reference amount of work.
struct Progress {
    evals: AtomicU64,
    reference: u64,
    rss_mb: OnceLock<f64>,
}

impl Progress {
    fn new(reference: u64) -> Self {
        Progress {
            evals: AtomicU64::new(0),
            reference,
            rss_mb: OnceLock::new(),
        }
    }

    fn add(&self, evals: u64) {
        // A statistic that publishes nothing else: relaxed is enough.
        let total = self.evals.fetch_add(evals, Ordering::Relaxed) + evals;
        if total >= self.reference {
            self.rss_mb.get_or_init(host::peak_rss_mb);
        }
    }
}

/// Per-connection tallies of a client loop.
#[derive(Default)]
struct Tally {
    /// One sample per step.
    steps: Vec<Step>,
    /// Evaluations measured by the client.
    evals: u64,
    /// Requests sent.
    requests: u64,
    /// Requests that failed, were refused or retried.
    failed: u64,
    errors: Vec<String>,
    sessions: Vec<Ran>,
    /// Set when the planned sessions ran out before the deadline.
    plan_exhausted: bool,
    /// When the loop ended.
    ended: Option<Instant>,
}

impl Tally {
    fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.failed += 1;
        self.errors.push(format!("{what}: {e}"));
    }
}

/// No retries: a retried or refused request must show as a failure.
fn client_options() -> TcpClientOptions {
    TcpClientOptions {
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        ..TcpClientOptions::default()
    }
}

/// Connect and declare one planned session over `TcpHarmonyClient`.
fn open_session(
    spec: &Spec,
    addr: SocketAddr,
    plan: &Plan,
    tally: &mut Tally,
) -> Result<TcpHarmonyClient, HarmonyError> {
    tally.requests += 1;
    let mut client = TcpHarmonyClient::connect_with(addr, &plan.label, client_options())?;
    for p in &spec.params {
        tally.requests += 1;
        client.add_param(p.clone())?;
    }
    tally.requests += 1;
    client.seal(spec.options(plan.seed), StrategyKind::Random)?;
    Ok(client)
}

/// One step over `TcpHarmonyClient`; `Ok(None)` when the session finished.
fn client_step(
    spec: &Spec,
    client: &mut TcpHarmonyClient,
    tally: &mut Tally,
) -> Result<Option<u64>, HarmonyError> {
    tally.requests += 1;
    match spec.shape {
        Shape::Batched => {
            let (trials, finished) = client.fetch_batch(BATCH)?;
            if finished || trials.is_empty() {
                return Ok(None);
            }
            let reports: Vec<TrialReport> = trials
                .iter()
                .map(|t| {
                    let c = spec.cost(&t.config);
                    TrialReport {
                        iteration: t.iteration,
                        cost: c,
                        wall_time: c,
                    }
                })
                .collect();
            let n = reports.len() as u64;
            tally.requests += 1;
            client.report_batch(reports)?;
            Ok(Some(n))
        }
        Shape::SerialStore => {
            let (config, finished) = client.fetch()?;
            if finished {
                return Ok(None);
            }
            tally.requests += 1;
            client.report(spec.cost(&config))?;
            Ok(Some(1))
        }
    }
}

/// The closed loop of one connection over `TcpHarmonyClient`: run planned
/// sessions back to back until the deadline; the step in flight at the
/// deadline completes.
fn client_loop(
    spec: &Spec,
    addr: SocketAddr,
    plans: &[Plan],
    mut first: Option<TcpHarmonyClient>,
    barrier: &Barrier,
    progress: &Progress,
    secs: f64,
) -> Tally {
    let mut tally = Tally::default();
    barrier.wait();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut plans = plans.iter();
    'sessions: while Instant::now() < deadline {
        let Some(plan) = plans.next() else {
            tally.plan_exhausted = true;
            break;
        };
        let mut client = match first.take() {
            Some(c) => c,
            None => match open_session(spec, addr, plan, &mut tally) {
                Ok(c) => c,
                Err(e) => {
                    tally.fail("open session", e);
                    break;
                }
            },
        };
        let mut ran = Ran {
            plan: plan.clone(),
            session: client.session_id(),
            steps: 0,
            finished: false,
        };
        while Instant::now() < deadline {
            let t0 = Instant::now();
            match client_step(spec, &mut client, &mut tally) {
                Ok(Some(n)) => {
                    let end = Instant::now();
                    tally.steps.push(Step {
                        end,
                        us: (end - t0).as_secs_f64() * 1e6,
                        evals: n,
                    });
                    tally.evals += n;
                    progress.add(n);
                    ran.steps += 1;
                }
                Ok(None) => {
                    ran.finished = true;
                    break;
                }
                Err(e) => {
                    tally.fail("step", e);
                    tally.sessions.push(ran);
                    break 'sessions;
                }
            }
        }
        tally.sessions.push(ran);
    }
    tally.ended = Some(Instant::now());
    tally
}

/// Check every session a connection ran against its local replay:
/// attach, fetch the server's history, and compare it bit for bit.
fn verify_tcp_sessions(
    spec: &Spec,
    addr: SocketAddr,
    sessions: &[Ran],
    tally: &mut Tally,
) -> (usize, usize) {
    let mut ok = 0;
    for ran in sessions {
        tally.requests += 2;
        match query_history_frame(addr, ran.session) {
            Ok(frame) => {
                let replayed = replay(
                    spec,
                    &ran.plan,
                    ran.replay_steps(),
                    Hits::Planned(None),
                    None,
                );
                if replayed.steps == ran.steps && history_frame_matches(&frame, &replayed) {
                    ok += 1;
                } else {
                    tally.errors.push(format!(
                        "session {} ({}) diverged from its serial replay",
                        ran.session, ran.plan.label
                    ));
                }
            }
            Err(e) => tally.fail("query history", e),
        }
    }
    (ok, sessions.len())
}

/// A bound server with its store, ready for a run.
struct Rig {
    server: TcpHarmonyServer,
    store: Option<SharedStore>,
}

/// Per-run scratch directory inside the working directory.
fn work_dir(spec: &Spec) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("work-{}-{}", spec.name, std::process::id()))
}

/// Bind the server and, for the store workload, open a fresh store and
/// pre-record the planned hits of `plans`.
fn rig(spec: &Spec, dir: &Path, plans: &[&[Plan]]) -> Rig {
    let store = (spec.shape == Shape::SerialStore).then(|| {
        let path = dir.join("perf.store");
        let _ = std::fs::remove_file(&path);
        let store = SharedStore::open(&path).expect("open the workload's store");
        for plan in plans.iter().flat_map(|p| p.iter()) {
            let mut records = Vec::with_capacity(spec.budget / 2);
            replay(
                spec,
                plan,
                usize::MAX,
                Hits::Planned(Some(&mut records)),
                None,
            );
            store
                .insert_batch(records)
                .expect("pre-record planned hits");
        }
        store.flush().expect("flush pre-recorded hits");
        store
    });
    let server = TcpHarmonyServer::bind_with(
        "127.0.0.1:0",
        DEFAULT_MAX_CONNECTIONS,
        ServerConfig {
            store: store.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("bind the loopback server");
    Rig { server, store }
}

/// What the untraced closed loop measured.
struct LoopRun {
    tallies: Vec<Tally>,
    /// When the clients were released.
    start: Instant,
    /// Seconds from the release until the last client stopped.
    wall: f64,
    /// Peak RSS at the reference amount of work, if reached.
    rss_mb: Option<f64>,
}

/// Run the untraced closed loop for `secs` on a rigged server.
fn run_loop(
    spec: &Spec,
    addr: SocketAddr,
    plans: &[Vec<Plan>],
    firsts: Vec<Option<TcpHarmonyClient>>,
    secs: f64,
) -> LoopRun {
    let barrier = Barrier::new(plans.len() + 1);
    let progress = Progress::new(spec.rss_after_evals);
    let mut start = Instant::now();
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = firsts
            .into_iter()
            .enumerate()
            .map(|(c, first)| {
                let (barrier, progress) = (&barrier, &progress);
                let plans = &plans[c];
                s.spawn(move || client_loop(spec, addr, plans, first, barrier, progress, secs))
            })
            .collect();
        barrier.wait();
        start = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let end = tallies
        .iter()
        .filter_map(|t| t.ended)
        .max()
        .unwrap_or(start);
    LoopRun {
        tallies,
        start,
        wall: end.duration_since(start).as_secs_f64(),
        rss_mb: progress.rss_mb.get().copied(),
    }
}

/// Check every session of every tally against its local replay, each
/// tally's sessions split over [`VERIFY_THREADS`] threads; failures are
/// charged to the tally that ran the session.
fn verify_all(spec: &Spec, addr: SocketAddr, tallies: &mut [Tally]) -> (usize, usize) {
    let mut verified = (0, 0);
    for t in tallies.iter_mut() {
        let chunk = t.sessions.len().div_ceil(VERIFY_THREADS).max(1);
        let parts: Vec<(Tally, (usize, usize))> = std::thread::scope(|s| {
            let handles: Vec<_> = t
                .sessions
                .chunks(chunk)
                .map(|sessions| {
                    s.spawn(move || {
                        let mut part = Tally::default();
                        let out = verify_tcp_sessions(spec, addr, sessions, &mut part);
                        (part, out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verify thread"))
                .collect()
        });
        for (part, (ok, total)) in parts {
            t.requests += part.requests;
            t.failed += part.failed;
            t.errors.extend(part.errors);
            verified = (verified.0 + ok, verified.1 + total);
        }
    }
    verified
}

/// Connect and declare the first session of each connection (part of
/// set-up).
fn first_sessions(
    spec: &Spec,
    addr: SocketAddr,
    plans: &[Vec<Plan>],
    tally: &mut Tally,
) -> Vec<Option<TcpHarmonyClient>> {
    plans
        .iter()
        .map(|p| match open_session(spec, addr, &p[0], tally) {
            Ok(c) => Some(c),
            Err(e) => {
                tally.fail("open first session", e);
                None
            }
        })
        .collect()
}

/// Run one TCP workload.
pub fn run(shape: Shape, args: &Args) -> Outcome {
    let spec = Spec::new(shape, args.seed);
    let dir = work_dir(&spec);
    std::fs::create_dir_all(&dir).expect("create the run's scratch directory");
    let out = if args.trace {
        traced::run(&spec, &dir, args.seconds)
    } else {
        run_untraced(&spec, &dir, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn add_tallies(out: &mut Outcome, tallies: &[Tally]) {
    for t in tallies {
        out.attempted += t.requests;
        out.failed += t.failed;
        for e in t.errors.iter().take(5) {
            out.note(format!("error: {e}"));
        }
        if t.plan_exhausted {
            out.note(
                "planned sessions ran out before the deadline; the window is shorter".to_string(),
            );
        }
    }
}

fn run_untraced(spec: &Spec, dir: &Path, secs: f64) -> Outcome {
    let mut out = Outcome::default();
    let plans: Vec<Vec<Plan>> = (0..CONNECTIONS)
        .map(|c| spec.plans('u', c, spec.plan_len(secs)))
        .collect();
    let plan_refs: Vec<&[Plan]> = plans.iter().map(|p| p.as_slice()).collect();
    // Set up several times; keep the last rig and report the median.
    let mut setup_s = Vec::new();
    let mut setup_tally = Tally::default();
    let mut kept = None;
    for i in 0..spec.setup_repeats {
        let t0 = Instant::now();
        let rig = rig(spec, dir, &plan_refs);
        let firsts = first_sessions(spec, rig.server.local_addr(), &plans, &mut setup_tally);
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 == spec.setup_repeats {
            kept = Some((rig, firsts));
        } else {
            drop(firsts);
            rig.server.shutdown();
        }
    }
    let (rig, firsts) = kept.expect("at least one set-up");
    let addr = rig.server.local_addr();

    let sampler = host::CpuSampler::start();
    let LoopRun {
        mut tallies,
        start,
        wall,
        rss_mb,
    } = run_loop(spec, addr, &plans, firsts, secs);
    let cpu = sampler.finish();
    let rss = rss_mb.unwrap_or_else(|| {
        out.note(format!(
            "the run ended before {} evaluations; peak_rss_mb is read at its end",
            spec.rss_after_evals
        ));
        host::peak_rss_mb()
    });

    let (ok, total) = verify_all(spec, addr, &mut tallies);
    rig.server.shutdown();
    drop(rig.store);

    tallies.push(setup_tally);
    add_tallies(&mut out, &tallies);
    let evals: u64 = tallies.iter().map(|t| t.evals).sum();
    out.check(
        format!("every TCP session's history equals its local serial replay ({ok}/{total})"),
        ok == total && total > 0,
    );
    out.step_metrics(
        start,
        tallies
            .iter_mut()
            .flat_map(|t| std::mem::take(&mut t.steps))
            .collect(),
        &cpu,
    );
    out.metric("setup_s", stats::median(&setup_s).expect("set-up ran"), "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.note(format!(
        "closed loop: loopback connections {CONNECTIONS}, client threads {CONNECTIONS}, {evals} evaluations in {wall:.3} s \
         ({:.1} evals/s over the whole window); peak_rss_mb read after {} evaluations",
        evals as f64 / wall,
        spec.rss_after_evals
    ));
    out
}

/// A raw-socket client speaking the wire protocol with the program's own
/// serde types and `FrameDecoder`, so encode, round trip and decode can be
/// spanned apart.
struct RawConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

/// Bytes and frames of one traced call.
struct Call {
    reply: Reply,
    request_frame: String,
    reply_frame: String,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> std::io::Result<RawConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RawConn {
            stream,
            decoder: FrameDecoder::new(usize::MAX / 2),
            buf: vec![0; 64 * 1024],
        })
    }

    /// Send one request and return the reply frame, untimed and undecoded.
    fn exchange(&mut self, req: &Request) -> std::io::Result<String> {
        let mut frame = serde_json::to_string(req).expect("requests serialize");
        frame.push('\n');
        self.stream.write_all(frame.as_bytes())?;
        loop {
            if let Some(line) = self
                .decoder
                .next_frame()
                .map_err(|e| std::io::Error::other(e.to_string()))?
            {
                return Ok(line);
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.decoder.extend(&self.buf[..n]);
        }
    }

    fn call(
        &mut self,
        req: &Request,
        rec: &mut Recorder,
        parent: Option<usize>,
        step: u64,
    ) -> std::io::Result<Call> {
        let frame = rec.time("protocol.encode", parent, step, || {
            let mut s = serde_json::to_string(req).expect("requests serialize");
            s.push('\n');
            s
        });
        let rtt = rec.begin("tcp.roundtrip", parent, step);
        self.stream.write_all(frame.as_bytes())?;
        loop {
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.decoder.extend(&self.buf[..n]);
            if self.buf[..n].contains(&b'\n') {
                break;
            }
        }
        rec.end(rtt);
        let decoded = rec.time("protocol.decode", parent, step, || {
            let line = self
                .decoder
                .next_frame()
                .ok()
                .flatten()
                .expect("a complete frame arrived");
            let reply = serde_json::from_str::<Reply>(&line);
            (line, reply)
        });
        let (line, reply) = decoded;
        let reply = reply
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(Call {
            reply,
            request_frame: frame,
            reply_frame: line,
        })
    }
}
