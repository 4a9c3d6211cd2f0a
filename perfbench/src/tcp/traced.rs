//! The traced run of the TCP workloads: the untraced loop as the baseline
//! of `trace.overhead_pct`, the same loop over a raw-socket client that
//! spans encode, round trip and decode, and probes that drive the inner
//! layers with the traced loop's own inputs. Inner layers are attributed
//! by subtracting the probe costs from the round trip.

use super::{
    add_tallies, first_sessions, history_frame_matches, query_history_frame, replay, rig, run_loop,
    verify_all, Call, Hits, LoopRun, Plan, Ran, RawConn, Shape, Spec, Tally, BATCH, CONNECTIONS,
    FRAME_SAMPLE,
};
use crate::stats::{self, mean};
use crate::trace::{Recorder, Totals, Trace};
use crate::{same_history, Outcome, OFFLINE_LAYERS, STORE_LAYERS};
use ah_core::server::protocol::{FrameDecoder, Reply, Request, StrategyKind, TrialReport};
use ah_core::server::{HarmonyServer, ServerConfig};
use ah_core::store::SharedStore;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Tallies of the traced raw-socket loop.
#[derive(Default)]
struct RawTally {
    base: Tally,
    bytes: u64,
    /// `(request frame, reply frame)` pairs of the first steps, for the
    /// server-side codec probe.
    frames: Vec<(String, String)>,
    rec: Option<Recorder>,
}

fn raw_ok(call: std::io::Result<Call>, what: &str) -> Result<Call, String> {
    match call {
        Ok(Call {
            reply: Reply::Error { message, .. },
            ..
        }) => Err(format!("{what}: {message}")),
        Ok(Call {
            reply: Reply::QuotaExceeded { tenant },
            ..
        }) => Err(format!("{what}: quota exceeded for {tenant}")),
        Ok(c) => Ok(c),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// Declare a planned session over a raw connection (untimed set-up of the
/// session).
fn raw_open(
    spec: &Spec,
    addr: SocketAddr,
    plan: &Plan,
    tally: &mut RawTally,
) -> Result<(RawConn, u64), String> {
    let mut conn = RawConn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut declare = vec![Request::Register {
        app: plan.label.clone(),
        tenant: String::new(),
    }];
    declare.extend(
        spec.params
            .iter()
            .map(|p| Request::AddParam { param: p.clone() }),
    );
    declare.push(Request::Seal {
        options: spec.options(plan.seed),
        strategy: StrategyKind::Random,
    });
    let mut session = 0;
    for req in &declare {
        tally.base.requests += 1;
        let frame = conn.exchange(req).map_err(|e| format!("declare: {e}"))?;
        match serde_json::from_str::<Reply>(&frame) {
            Ok(Reply::Registered { session: s, .. }) => session = s,
            Ok(Reply::Ok) => {}
            _ => return Err(format!("declare: unexpected reply {frame}")),
        }
    }
    Ok((conn, session))
}

/// One traced step over a raw connection; `Ok(None)` when the session
/// finished.
fn raw_step(
    spec: &Spec,
    conn: &mut RawConn,
    tally: &mut RawTally,
    step: u64,
) -> Result<Option<u64>, String> {
    let mut rec = tally.rec.take().expect("recorder present");
    let root = rec.begin("step", None, step);
    let out = raw_step_inner(spec, conn, tally, &mut rec, root, step);
    match out {
        Ok(Some(_)) => rec.end(root),
        // The fetch that finds the session finished is not a step.
        _ => rec.discard(root),
    }
    tally.rec = Some(rec);
    out
}

fn raw_step_inner(
    spec: &Spec,
    conn: &mut RawConn,
    tally: &mut RawTally,
    rec: &mut Recorder,
    root: usize,
    step: u64,
) -> Result<Option<u64>, String> {
    let fetch = match spec.shape {
        Shape::Batched => Request::FetchBatch { max: BATCH },
        Shape::SerialStore => Request::Fetch,
    };
    tally.base.requests += 1;
    let got = raw_ok(conn.call(&fetch, rec, Some(root), step), "fetch")?;
    let reports: Vec<TrialReport> = match &got.reply {
        Reply::Configs { trials, finished } => {
            if *finished || trials.is_empty() {
                return Ok(None);
            }
            trials
                .iter()
                .map(|t| {
                    let c = spec.cost(&t.config);
                    TrialReport {
                        iteration: t.iteration,
                        cost: c,
                        wall_time: c,
                    }
                })
                .collect()
        }
        Reply::Config {
            config,
            iteration,
            finished,
        } => {
            if *finished {
                return Ok(None);
            }
            let c = spec.cost(config);
            vec![TrialReport {
                iteration: *iteration,
                cost: c,
                wall_time: c,
            }]
        }
        other => return Err(format!("unexpected reply to fetch: {other:?}")),
    };
    let n = reports.len() as u64;
    tally.base.requests += 1;
    let done = raw_ok(
        conn.call(&Request::ReportBatch { reports }, rec, Some(root), step),
        "report",
    )?;
    tally.bytes += (got.request_frame.len()
        + got.reply_frame.len()
        + 1
        + done.request_frame.len()
        + done.reply_frame.len()
        + 1) as u64;
    if tally.frames.len() < FRAME_SAMPLE * 2 {
        tally.frames.push((got.request_frame, got.reply_frame));
        tally.frames.push((done.request_frame, done.reply_frame));
    }
    Ok(Some(n))
}

/// The traced closed loop of one connection over raw sockets.
fn raw_loop(
    spec: &Spec,
    addr: SocketAddr,
    plans: &[Plan],
    barrier: &Barrier,
    origin: Instant,
    track: u32,
    secs: f64,
) -> RawTally {
    let mut tally = RawTally {
        rec: Some(Recorder::new(origin, track)),
        ..RawTally::default()
    };
    barrier.wait();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut step = 0u64;
    let mut plans = plans.iter();
    'sessions: while Instant::now() < deadline {
        let Some(plan) = plans.next() else {
            tally.base.plan_exhausted = true;
            break;
        };
        let (mut conn, session) = match raw_open(spec, addr, plan, &mut tally) {
            Ok(c) => c,
            Err(e) => {
                tally.base.fail("open session", e);
                break;
            }
        };
        let mut ran = Ran {
            plan: plan.clone(),
            session,
            steps: 0,
            finished: false,
        };
        while Instant::now() < deadline {
            match raw_step(spec, &mut conn, &mut tally, step) {
                Ok(Some(n)) => {
                    tally.base.evals += n;
                    ran.steps += 1;
                    step += 1;
                }
                Ok(None) => {
                    ran.finished = true;
                    break;
                }
                Err(e) => {
                    tally.base.fail("traced step", e);
                    tally.base.sessions.push(ran);
                    break 'sessions;
                }
            }
        }
        tally.base.sessions.push(ran);
    }
    tally.base.ended = Some(Instant::now());
    tally
}

/// The in-process step probe: the workload's step through `HarmonyClient`
/// on a `HarmonyServer` sharing the run's store, with the same closed-loop
/// shape. Returns per-connection recorders (one `server.step` span per
/// step) and the sessions' verification result.
fn inproc_probe(
    spec: &Spec,
    store: Option<SharedStore>,
    plans: &[Vec<Plan>],
    origin: Instant,
    secs: f64,
) -> (Vec<Recorder>, Tally, (usize, usize)) {
    let server = HarmonyServer::start_with_config(ServerConfig {
        store,
        ..ServerConfig::default()
    });
    let barrier = Barrier::new(CONNECTIONS);
    let results: Vec<(Recorder, Tally, (usize, usize))> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plans)| {
                let (server, barrier) = (&server, &barrier);
                s.spawn(move || {
                    let mut rec = Recorder::new(origin, 10 + c as u32);
                    let mut tally = Tally::default();
                    let mut verified = (0, 0);
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(secs);
                    let mut step = 0u64;
                    for plan in plans {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let client = server
                            .connect(plan.label.clone())
                            .expect("in-process connect");
                        for p in &spec.params {
                            client.add_param(p.clone()).expect("declare");
                        }
                        client
                            .seal(spec.options(plan.seed), StrategyKind::Random)
                            .expect("seal");
                        let mut ran = Ran {
                            plan: plan.clone(),
                            session: client.session_id(),
                            steps: 0,
                            finished: false,
                        };
                        while Instant::now() < deadline {
                            let span = rec.begin("server.step", None, step);
                            let n = match spec.shape {
                                Shape::Batched => {
                                    let (trials, finished) =
                                        client.fetch_batch(BATCH).expect("in-process fetch_batch");
                                    if finished || trials.is_empty() {
                                        rec.discard(span);
                                        ran.finished = true;
                                        break;
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
                                    client
                                        .report_batch(reports)
                                        .expect("in-process report_batch");
                                    BATCH as u64
                                }
                                Shape::SerialStore => {
                                    let f = client.fetch().expect("in-process fetch");
                                    if f.finished {
                                        rec.discard(span);
                                        ran.finished = true;
                                        break;
                                    }
                                    let c = spec.cost(&f.config);
                                    // The same one-entry ReportBatch the TCP client sends.
                                    client
                                        .report_batch(vec![TrialReport {
                                            iteration: f.iteration,
                                            cost: c,
                                            wall_time: c,
                                        }])
                                        .expect("in-process report");
                                    1
                                }
                            };
                            rec.end(span);
                            tally.evals += n;
                            ran.steps += 1;
                            step += 1;
                        }
                        let (history, finished) = client.history().expect("in-process history");
                        let replayed =
                            replay(spec, plan, ran.replay_steps(), Hits::Planned(None), None);
                        verified.1 += 1;
                        if finished == replayed.finished
                            && same_history(&history, &replayed.history)
                        {
                            verified.0 += 1;
                        }
                    }
                    // The final `finished` fetch of a session is not a step.
                    (rec, tally, verified)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });
    server.shutdown();
    let mut recs = Vec::new();
    let mut tally = Tally::default();
    let mut verified = (0, 0);
    for (r, t, v) in results {
        recs.push(r);
        tally.evals += t.evals;
        verified = (verified.0 + v.0, verified.1 + v.1);
    }
    (recs, tally, verified)
}

/// Server-side codec probe: decode each sampled request frame the way the
/// event loop does (`FrameDecoder` + serde) and encode each reply.
fn codec_probe(frames: &[(String, String)], rec: &mut Recorder) {
    let mut decoder = FrameDecoder::new(usize::MAX / 2);
    for (i, (request, reply)) in frames.iter().enumerate() {
        let step = (i / 2) as u64;
        rec.time("protocol.decode.server", None, step, || {
            decoder.extend(request.as_bytes());
            let line = decoder
                .next_frame()
                .ok()
                .flatten()
                .expect("sampled request frame is complete");
            std::hint::black_box(
                serde_json::from_str::<Request>(&line).expect("sampled request parses"),
            );
        });
        let value: Reply = serde_json::from_str(reply).expect("sampled reply parses");
        rec.time("protocol.encode.server", None, step, || {
            let mut s = serde_json::to_string(&value).expect("replies serialize");
            s.push('\n');
            std::hint::black_box(s);
        });
    }
}

/// Run a TCP workload traced.
pub(super) fn run(spec: &Spec, dir: &Path, secs: f64) -> Outcome {
    let mut out = Outcome::default();
    let phase = secs / 3.0;
    let untraced: Vec<Vec<Plan>> = (0..CONNECTIONS)
        .map(|c| spec.plans('u', c, spec.plan_len(phase)))
        .collect();
    let traced: Vec<Vec<Plan>> = (0..CONNECTIONS)
        .map(|c| spec.plans('t', c, spec.plan_len(phase)))
        .collect();
    let probed: Vec<Vec<Plan>> = (0..CONNECTIONS)
        .map(|c| spec.plans('p', c, spec.plan_len(phase / 2.0)))
        .collect();
    let all: Vec<&[Plan]> = untraced
        .iter()
        .chain(&traced)
        .chain(&probed)
        .map(|p| p.as_slice())
        .collect();
    let rig = rig(spec, dir, &all);
    let addr = rig.server.local_addr();
    let mut setup_tally = Tally::default();
    let firsts = first_sessions(spec, addr, &untraced, &mut setup_tally);

    // 1. The untraced loop: the baseline of the tracing overhead.
    let LoopRun {
        tallies: mut base,
        wall: base_wall,
        ..
    } = run_loop(spec, addr, &untraced, firsts, phase);
    let base_evals: u64 = base.iter().map(|t| t.evals).sum();

    // 2. The traced raw-socket loop.
    let origin = Instant::now();
    let barrier = Barrier::new(CONNECTIONS + 1);
    let mut start = Instant::now();
    let mut raws: Vec<RawTally> = std::thread::scope(|s| {
        let handles: Vec<_> = traced
            .iter()
            .enumerate()
            .map(|(c, plans)| {
                let barrier = &barrier;
                s.spawn(move || raw_loop(spec, addr, plans, barrier, origin, c as u32, phase))
            })
            .collect();
        barrier.wait();
        start = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced client"))
            .collect()
    });
    let traced_wall = raws
        .iter()
        .filter_map(|t| t.base.ended)
        .max()
        .unwrap_or(start)
        .duration_since(start)
        .as_secs_f64();

    // 3. Probes of the inner layers, with the traced loop's own inputs.
    let (inproc_recs, inproc_tally, inproc_ok) =
        inproc_probe(spec, rig.store.clone(), &probed, origin, phase / 2.0);
    let mut probe = Recorder::new(origin, 20);
    let probe_store = (spec.shape == Shape::SerialStore).then(|| {
        let path = dir.join("probe.store");
        let store = SharedStore::open(&path).expect("open the probe store");
        for ran in raws.iter().flat_map(|r| &r.base.sessions) {
            let mut records = Vec::new();
            replay(
                spec,
                &ran.plan,
                usize::MAX,
                Hits::Planned(Some(&mut records)),
                None,
            );
            store.insert_batch(records).expect("pre-record probe hits");
        }
        store.flush().expect("flush probe store");
        store
    });
    let (mut lookups, mut hits, mut replay_steps) = (0u64, 0u64, 0usize);
    let mut replays = Vec::new();
    for ran in raws.iter().flat_map(|r| &r.base.sessions) {
        let mode = match &probe_store {
            Some(s) => Hits::Store(s),
            None => Hits::Planned(None),
        };
        let r = replay(spec, &ran.plan, ran.replay_steps(), mode, Some(&mut probe));
        lookups += r.lookups;
        hits += r.hits;
        replay_steps += r.steps;
        replays.push((ran.session, r));
    }
    let frames: Vec<(String, String)> =
        raws.iter().flat_map(|r| r.frames.iter().cloned()).collect();
    codec_probe(&frames, &mut probe);

    // Verify the traced sessions against the probe's serial replays, and
    // the untraced ones against their own.
    let mut traced_ok = 0;
    let mut verify_tally = Tally::default();
    for (session, replayed) in &replays {
        verify_tally.requests += 2;
        match query_history_frame(addr, *session) {
            Ok(frame) if history_frame_matches(&frame, replayed) => traced_ok += 1,
            Ok(_) => verify_tally.errors.push(format!(
                "traced session {session} diverged from its serial replay"
            )),
            Err(e) => verify_tally.fail("query history", e),
        }
    }
    let (base_ok, base_total) = verify_all(spec, addr, &mut base);
    rig.server.shutdown();
    drop(rig.store);
    drop(probe_store);

    let mut trace = Trace::default();
    let mut tallies: Vec<Tally> = Vec::new();
    let mut bytes = 0u64;
    let traced_evals: u64 = raws.iter().map(|r| r.base.evals).sum();
    for r in raws.iter_mut() {
        trace.absorb(r.rec.take().expect("recorder returned"));
        bytes += r.bytes;
        tallies.push(std::mem::take(&mut r.base));
    }
    for r in inproc_recs {
        trace.absorb(r);
    }
    trace.absorb(probe);
    tallies.append(&mut base);
    tallies.push(setup_tally);
    tallies.push(verify_tally);
    add_tallies(&mut out, &tallies);

    out.check(
        format!("every untraced TCP session's history equals its local serial replay ({base_ok}/{base_total})"),
        base_ok == base_total && base_total > 0,
    );
    out.check(
        format!("every traced TCP session's history equals the session probe's serial replay ({traced_ok}/{})", replays.len()),
        traced_ok == replays.len() && !replays.is_empty(),
    );
    out.check(
        format!(
            "every in-process probe session's history equals its serial replay ({}/{})",
            inproc_ok.0, inproc_ok.1
        ),
        inproc_ok.0 == inproc_ok.1 && inproc_ok.1 > 0,
    );

    // Per-layer accounting, per traced step.
    let tot = trace.totals();
    let get = |name: &str| tot.get(name).copied().unwrap_or_default();
    let steps = get("step").count as f64;
    let eps = spec.evals_per_step();
    let per_step = |name: &str| get(name).total_us / steps.max(1.0);
    let sampled_steps = (frames.len() / 2) as f64;
    let step_us = per_step("step");
    let client_encode = per_step("protocol.encode");
    let client_decode = per_step("protocol.decode");
    let roundtrip = per_step("tcp.roundtrip");
    let server_encode = get("protocol.encode.server").total_us / sampled_steps.max(1.0);
    let server_decode = get("protocol.decode.server").total_us / sampled_steps.max(1.0);
    let server_step = mean(&trace.durations_us("server.step"));
    let probe_steps = replay_steps.max(1) as f64;
    let suggest = get("session.suggest").total_us / probe_steps;
    let report = get("session.report").total_us / probe_steps;
    let store_lookup = get("store.lookup");
    let store_insert = get("store.insert");
    let store_flush = get("store.flush");
    let store = (store_lookup.total_us + store_insert.total_us) / probe_steps;
    let residual = roundtrip - server_step - server_encode - server_decode;
    let dispatch = server_step - suggest - report - store;
    let unattributed = step_us - client_encode - client_decode - roundtrip;
    let layers = [
        ("protocol.encode", client_encode + server_encode),
        ("protocol.decode", client_decode + server_decode),
        ("tcp", residual),
        ("server", dispatch),
        ("session.suggest", suggest),
        ("session.report", report),
        ("store", store),
    ];
    out.reconcile(step_us, &layers, unattributed);

    let rtt = stats::sorted(trace.durations_us("tcp.roundtrip"));
    let per_call = |t: Totals| {
        if t.count == 0 {
            0.0
        } else {
            t.total_us / t.count as f64
        }
    };
    let traced_eps = traced_evals as f64 / traced_wall;
    let base_eps = base_evals as f64 / base_wall;
    out.metric(
        "protocol.encode_us_per_eval",
        (client_encode + server_encode) / eps,
        "us",
    );
    out.metric(
        "protocol.decode_us_per_eval",
        (client_decode + server_decode) / eps,
        "us",
    );
    out.metric(
        "protocol.bytes_per_eval",
        bytes as f64 / (steps.max(1.0) * eps),
        "count",
    );
    out.metric(
        "tcp.roundtrip_p50_us",
        stats::percentile(&rtt, 50.0).map_or(0.0, |p| p.value),
        "us",
    );
    out.metric("tcp.requests_per_eval", 2.0 / eps, "count");
    out.metric("tcp.residual_us_per_step", residual, "us");
    out.metric("server.step_us", server_step, "us");
    out.metric("server.dispatch_us_per_step", dispatch, "us");
    out.metric("session.suggest_us_per_eval", suggest / eps, "us");
    out.metric("session.report_us_per_eval", report / eps, "us");
    match spec.shape {
        Shape::Batched => out.absent(STORE_LAYERS),
        Shape::SerialStore => {
            out.metric("store.lookup_us", per_call(store_lookup), "us");
            out.metric("store.insert_us_per_record", per_call(store_insert), "us");
            out.metric("store.flush_us", per_call(store_flush), "us");
            out.metric(
                "store.hit_ratio",
                hits as f64 / lookups.max(1) as f64,
                "ratio",
            );
        }
    }
    out.absent(OFFLINE_LAYERS);
    out.metric("unattributed_us_per_step", unattributed, "us");
    out.metric("trace.step_us", step_us, "us");
    out.metric(
        "trace.overhead_pct",
        100.0 * (base_eps - traced_eps) / base_eps,
        "%",
    );
    if spec.shape == Shape::SerialStore {
        // Planned: every other fresh proposal of every session hits.
        out.check(
            format!("store.hit_ratio equals the planned share 0.5 exactly ({hits}/{lookups})"),
            lookups > 0 && hits * 2 == lookups,
        );
    }
    out.note(format!(
        "traced: {} steps ({} sampled for the server-side codec), {} in-process probe steps, {} session-probe steps",
        steps as u64,
        sampled_steps as u64,
        trace.durations_us("server.step").len(),
        replay_steps
    ));
    out.note(format!(
        "untraced {base_eps:.1} evals/s vs traced {traced_eps:.1} evals/s over loopback connections {CONNECTIONS}; in-process probe {} evals",
        inproc_tally.evals
    ));
    out.trace = Some(trace);
    out
}
