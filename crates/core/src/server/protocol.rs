//! Wire protocol between Harmony clients and the server.
//!
//! Every message is serde-serializable, so the protocol can cross a process
//! boundary; the in-process transport used here carries `(client id, request,
//! reply channel)` envelopes over a crossbeam channel.
//!
//! # Wire format and codec
//!
//! Over TCP each message is one line of JSON: the serde form of a
//! [`Request`] or [`Reply`] (externally tagged enums, fields in declaration
//! order, non-finite floats as `null`), terminated by `\n`. Frames stay
//! readable and writable with `nc` or `curl`.
//!
//! Every transport goes through four functions: [`encode_request`],
//! [`encode_reply`], [`decode_request`] and [`decode_reply`]. The frames of
//! the tuning loop take a direct path that writes and reads the typed
//! values without building a serde `Value` tree: requests `Fetch`,
//! `FetchBatch`, `Report` and `ReportBatch`, replies `Ok`, `Config` and
//! `Configs`. The bytes on the wire are unchanged: the direct writer's
//! output is byte-identical to `serde_json::to_string`. Every other message
//! is written by serde. The direct reader accepts only the canonical
//! spelling the writer produces; any other frame, and any spelling it does
//! not recognise (whitespace, reordered or unknown keys, escapes in
//! strings, `null` for a float), falls back to the serde parser, which
//! stays the reference. So both paths always agree: the same message, or an
//! error from serde.
//!
//! Limits: a frame may be at most [`MAX_FRAME_LEN`] bytes, on the server's
//! read side ([`FrameDecoder`]) and on the client's; and the parser refuses
//! JSON nested deeper than [`serde_json::MAX_DEPTH`] (128) levels, so no
//! frame can exhaust a thread's stack.

use crate::json::{self, JsonCursor, JsonOut};
use crate::param::Param;
use crate::session::SessionOptions;
use crate::space::Configuration;
use crossbeam::channel::Sender;
use serde::{Deserialize, Serialize};

/// Which tuning algorithm the server should run for a client.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Discrete Nelder–Mead simplex (the default adaptation controller).
    NelderMead,
    /// Uniform random sampling baseline.
    Random,
    /// Systematic sampling with a sample budget.
    Grid {
        /// Approximate number of evenly spaced samples.
        target: usize,
    },
    /// Parallel Rank Ordering (batch simplex; candidates of one round are
    /// independent and may be measured concurrently).
    Pro,
    /// Coupled simulated annealing (adaptive temperature, lattice-aware
    /// neighbors, reheating on stagnation).
    Annealing,
    /// Genetic algorithm with synergy-pair seeding; generations are
    /// batched like PRO rounds.
    Genetic,
    /// Surrogate-assisted search (quadratic model over the evaluation
    /// history, Nelder–Mead fallback).
    Surrogate,
}

impl StrategyKind {
    /// Instantiate the strategy this kind names. Shared by the server's
    /// `Seal` handler and by write-ahead-log replay, so both construct the
    /// exact same strategy state for a given kind.
    pub fn build(&self) -> Box<dyn crate::strategy::SearchStrategy> {
        use crate::strategy::{
            Annealing, Genetic, GridSearch, NelderMead, ParallelRankOrder, RandomSearch, Surrogate,
        };
        match self {
            StrategyKind::NelderMead => Box::new(NelderMead::default()),
            StrategyKind::Random => Box::new(RandomSearch::new()),
            StrategyKind::Grid { target } => Box::new(GridSearch::new(*target)),
            StrategyKind::Pro => Box::new(ParallelRankOrder::default()),
            StrategyKind::Annealing => Box::new(Annealing::default()),
            StrategyKind::Genetic => Box::new(Genetic::default()),
            StrategyKind::Surrogate => Box::new(Surrogate::default()),
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Introduce a new client application.
    Register {
        /// Application label (for logs and prior-run keys).
        app: String,
        /// Tenant the founded session is accounted to (quotas and
        /// fair dispatch). Empty means the `"default"` tenant, so frames
        /// from older clients stay wire-compatible.
        #[serde(default)]
        tenant: String,
    },
    /// Join an existing tuning session as an additional worker (or rejoin
    /// it after a crash). The session id is the one returned by
    /// [`Reply::Registered`]; the joining connection gets its own client id
    /// and may fetch/report trials of the shared session.
    Attach {
        /// Session to join.
        session: u64,
        /// Tenant this worker acts for. Informational: the session keeps
        /// its founder's tenant for quota/dispatch accounting. Empty means
        /// `"default"` (wire-compatible with older clients).
        #[serde(default)]
        tenant: String,
    },
    /// Liveness signal: refreshes this client's `last_seen` so deadline
    /// eviction does not requeue its outstanding trials while a long
    /// measurement is still running.
    Heartbeat,
    /// Depart from the session. Outstanding trials held by this client are
    /// requeued for other workers. Sent explicitly by well-behaved clients
    /// and synthesised by the TCP front-end when a connection drops.
    Leave,
    /// Declare one tunable parameter (pre-seal only).
    AddParam {
        /// The parameter declaration.
        param: Param,
    },
    /// Declare a monotone-chain dependency between parameters (pre-seal).
    AddMonotoneChain {
        /// Parameter names in chain order.
        names: Vec<String>,
    },
    /// Finish declaration and start tuning.
    Seal {
        /// Session stopping criteria.
        options: SessionOptions,
        /// Tuning algorithm to use.
        strategy: StrategyKind,
    },
    /// Ask for the next configuration to run.
    Fetch,
    /// Report the measured cost of the last fetched configuration.
    Report {
        /// Measured objective (e.g. execution time in seconds).
        cost: f64,
        /// Wall-clock spent obtaining the measurement.
        wall_time: f64,
    },
    /// Ask for up to `max` configurations in one round-trip. Still-unreported
    /// trials from earlier fetches are re-served first (oldest first), then
    /// the session tops the batch up with fresh proposals — for PRO this
    /// surfaces a whole round of independent candidates in one message.
    FetchBatch {
        /// Upper bound on the number of trials returned.
        max: usize,
    },
    /// Report measured costs for any subset of outstanding trials, in one
    /// round-trip. Reports are matched to trials by iteration token, so
    /// order does not matter and partial reports are fine.
    ReportBatch {
        /// One entry per measured trial.
        reports: Vec<TrialReport>,
    },
    /// Ask for the best configuration so far.
    QueryBest,
    /// Ask for the full evaluation history of the session (used by tests,
    /// diagnostics, and trajectory-equivalence checks).
    QueryHistory,
    /// Stop the server.
    Shutdown,
}

/// One measured result inside a [`Request::ReportBatch`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialReport {
    /// Iteration token of the fetched trial this result belongs to.
    pub iteration: usize,
    /// Measured objective (e.g. execution time in seconds).
    pub cost: f64,
    /// Wall-clock spent obtaining the measurement.
    pub wall_time: f64,
}

/// One trial inside a [`Reply::Configs`] batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FetchedTrial {
    /// The configuration to run.
    pub config: Configuration,
    /// Iteration token; echo it back in the matching [`TrialReport`].
    pub iteration: usize,
}

/// Server → client messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Reply {
    /// Registration succeeded; use this id in future envelopes.
    Registered {
        /// The allocated client id.
        client_id: u64,
        /// The session this client belongs to. Equal to `client_id` for a
        /// fresh `Register`; echoes the joined session for `Attach`. Pass
        /// it to `Attach` to rejoin after a disconnect.
        session: u64,
    },
    /// Request succeeded with nothing to return.
    Ok,
    /// A configuration to run (or, when `finished`, the final best).
    Config {
        /// The configuration.
        config: Configuration,
        /// 1-based evaluation index.
        iteration: usize,
        /// True once the session has stopped — `config` is then the best
        /// found and no further `Report` is expected.
        finished: bool,
    },
    /// A batch of configurations to run (reply to [`Request::FetchBatch`]).
    Configs {
        /// The trials to measure; may be fewer than requested (strategy
        /// waiting on outstanding reports) or empty with `finished`.
        trials: Vec<FetchedTrial>,
        /// True once the session has stopped; no further trials will come.
        finished: bool,
    },
    /// Best configuration so far, if any evaluation happened.
    Best {
        /// `(configuration, cost)` of the best evaluation.
        best: Option<(Configuration, f64)>,
    },
    /// Full evaluation history (reply to [`Request::QueryHistory`]).
    History {
        /// Every evaluation in flush order.
        history: crate::history::History,
        /// True once the session has stopped.
        finished: bool,
    },
    /// The request failed.
    Error {
        /// Human-readable reason.
        message: String,
        /// True when the condition is transient (e.g. the server is at its
        /// connection cap) and the client should retry with backoff.
        retryable: bool,
    },
    /// The request was refused because its tenant is at a configured
    /// quota (sessions or in-flight trials). Distinct from the generic
    /// retryable [`Reply::Error`] so clients can classify the refusal:
    /// it is transient — capacity frees up as the tenant's other work
    /// completes — and maps to `HarmonyError::QuotaExceeded`.
    QuotaExceeded {
        /// The tenant whose quota was hit.
        tenant: String,
    },
}

/// Clamp one measurement at the protocol boundary: a non-finite cost
/// becomes `+inf` (NaN would scramble cost ordering; `-inf` would become an
/// unbeatable false best) and a non-finite wall time becomes `0.0` (it
/// would poison the history's cumulative-time column). Returns the
/// sanitized pair and whether anything was clamped. Applied to `Report`
/// and `ReportBatch` before a session sees the values — a hostile or buggy
/// client must not be able to corrupt the shared trajectory. Note the wire
/// format makes this reachable: raw JSON like `1e999` parses to `+inf`.
pub fn sanitize_measurement(cost: f64, wall_time: f64) -> (f64, f64, bool) {
    let clamped = !cost.is_finite() || !wall_time.is_finite();
    (
        if cost.is_finite() {
            cost
        } else {
            f64::INFINITY
        },
        if wall_time.is_finite() {
            wall_time
        } else {
            0.0
        },
        clamped,
    )
}

impl Reply {
    /// A fatal error reply.
    pub fn err(message: impl Into<String>) -> Self {
        Reply::Error {
            message: message.into(),
            retryable: false,
        }
    }

    /// A transient error reply the client should retry with backoff.
    pub fn busy(message: impl Into<String>) -> Self {
        Reply::Error {
            message: message.into(),
            retryable: true,
        }
    }
}

/// Where a shard worker delivers its reply. Blocking callers (the
/// in-process client, the thread-per-connection transport) hand over a
/// channel and park on its receiving end; the event loop cannot park, so
/// it hands over a [`CompletionSink`] that enqueues the reply and wakes the
/// owning loop thread instead.
pub enum ReplySink {
    /// Deliver into a bounded channel a blocked caller is `recv()`ing on.
    Channel(Sender<Reply>),
    /// Deliver into an event loop's completion queue, tagged with the
    /// connection token the loop uses to route it.
    Completion {
        /// The loop-owned queue (plus waker) to complete into.
        sink: std::sync::Arc<dyn CompletionSink>,
        /// Connection token echoed back with the reply.
        token: u64,
    },
    /// Nobody is waiting (synthesised `Leave` for a connection that is
    /// already gone).
    Discard,
}

/// A queue replies can be completed into without blocking the shard worker.
pub trait CompletionSink: Send + Sync {
    /// Enqueue `reply` for the connection identified by `token` and wake
    /// the consumer. Must not block.
    fn complete(&self, token: u64, reply: Reply);
}

impl ReplySink {
    /// Deliver the reply, consuming the sink. Delivery failure (receiver
    /// gone) is ignored — the requester vanished, which the caller already
    /// handles through its own disconnect path.
    pub fn deliver(self, reply: Reply) {
        match self {
            ReplySink::Channel(tx) => {
                let _ = tx.send(reply);
            }
            ReplySink::Completion { sink, token } => sink.complete(token, reply),
            ReplySink::Discard => {}
        }
    }
}

impl std::fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplySink::Channel(_) => f.write_str("ReplySink::Channel"),
            ReplySink::Completion { token, .. } => {
                write!(f, "ReplySink::Completion({token})")
            }
            ReplySink::Discard => f.write_str("ReplySink::Discard"),
        }
    }
}

/// One request in flight, with its reply path (not serialized — the
/// envelope is the in-process framing around the serializable payload).
#[derive(Debug)]
pub struct Envelope {
    /// Sender's client id (0 before registration).
    pub client: u64,
    /// The request payload.
    pub req: Request,
    /// Where to deliver the reply.
    pub reply: ReplySink,
    /// When the envelope entered its shard queue (feeds the
    /// `shard_queue_wait` latency histogram).
    pub queued_at: std::time::Instant,
}

impl Envelope {
    /// Build an envelope stamped with the current instant, replying into a
    /// channel (the blocking callers' path).
    pub fn new(client: u64, req: Request, reply: Sender<Reply>) -> Self {
        Envelope::with_sink(client, req, ReplySink::Channel(reply))
    }

    /// Build an envelope with an explicit [`ReplySink`].
    pub fn with_sink(client: u64, req: Request, reply: ReplySink) -> Self {
        Envelope {
            client,
            req,
            reply,
            queued_at: std::time::Instant::now(),
        }
    }
}

/// Append `req`'s JSON frame to `out`, without the terminating newline.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Fetch => out.put("\"Fetch\""),
        Request::FetchBatch { max } => {
            out.put("{\"FetchBatch\":{\"max\":");
            json::push_u64(out, *max as u64);
            out.put("}}");
        }
        Request::Report { cost, wall_time } => {
            out.put("{\"Report\":{\"cost\":");
            json::push_f64(out, *cost);
            out.put(",\"wall_time\":");
            json::push_f64(out, *wall_time);
            out.put("}}");
        }
        Request::ReportBatch { reports } => {
            out.put("{\"ReportBatch\":{\"reports\":[");
            for (i, r) in reports.iter().enumerate() {
                out.put(if i == 0 {
                    "{\"iteration\":"
                } else {
                    ",{\"iteration\":"
                });
                json::push_u64(out, r.iteration as u64);
                out.put(",\"cost\":");
                json::push_f64(out, r.cost);
                out.put(",\"wall_time\":");
                json::push_f64(out, r.wall_time);
                out.put("}");
            }
            out.put("]}}");
        }
        other => push_serde(other, out),
    }
}

/// Append `reply`'s JSON frame to `out`, without the terminating newline.
pub fn encode_reply(reply: &Reply, out: &mut Vec<u8>) {
    match reply {
        Reply::Ok => out.put("\"Ok\""),
        Reply::Config {
            config,
            iteration,
            finished,
        } => {
            out.put("{\"Config\":{\"config\":");
            json::push_config(out, config);
            out.put(",\"iteration\":");
            json::push_u64(out, *iteration as u64);
            out.put(",\"finished\":");
            json::push_bool(out, *finished);
            out.put("}}");
        }
        Reply::Configs { trials, finished } => {
            out.put("{\"Configs\":{\"trials\":[");
            for (i, t) in trials.iter().enumerate() {
                out.put(if i == 0 {
                    "{\"config\":"
                } else {
                    ",{\"config\":"
                });
                json::push_config(out, &t.config);
                out.put(",\"iteration\":");
                json::push_u64(out, t.iteration as u64);
                out.put("}");
            }
            out.put("],\"finished\":");
            json::push_bool(out, *finished);
            out.put("}}");
        }
        other => push_serde(other, out),
    }
}

/// The generic writer, for the messages outside the tuning loop.
fn push_serde<T: Serialize>(msg: &T, out: &mut Vec<u8>) {
    out.put(&serde_json::to_string(msg).expect("wire messages serialize"));
}

/// Decode one request frame (without its newline).
pub fn decode_request(frame: &str) -> Result<Request, serde_json::Error> {
    match direct_request(frame) {
        Some(req) => Ok(req),
        None => serde_json::from_str(frame),
    }
}

/// Decode one reply frame (without its newline).
pub fn decode_reply(frame: &str) -> Result<Reply, serde_json::Error> {
    match direct_reply(frame) {
        Some(reply) => Ok(reply),
        None => serde_json::from_str(frame),
    }
}

/// The direct reader for the tuning loop's requests; `None` defers to serde.
fn direct_request(frame: &str) -> Option<Request> {
    if frame == "\"Fetch\"" {
        return Some(Request::Fetch);
    }
    let mut c = JsonCursor::new(frame);
    let req = if c.eat("{\"FetchBatch\":{\"max\":") {
        Request::FetchBatch { max: c.usize()? }
    } else if c.eat("{\"ReportBatch\":{\"reports\":") {
        let reports = c.list(|c| {
            c.lit("{\"iteration\":")?;
            let iteration = c.usize()?;
            c.lit(",\"cost\":")?;
            let cost = c.f64()?;
            c.lit(",\"wall_time\":")?;
            let wall_time = c.f64()?;
            c.lit("}")?;
            Some(TrialReport {
                iteration,
                cost,
                wall_time,
            })
        })?;
        Request::ReportBatch { reports }
    } else if c.eat("{\"Report\":{\"cost\":") {
        let cost = c.f64()?;
        c.lit(",\"wall_time\":")?;
        Request::Report {
            cost,
            wall_time: c.f64()?,
        }
    } else {
        return None;
    };
    c.lit("}}")?;
    c.end()?;
    Some(req)
}

/// The direct reader for the tuning loop's replies; `None` defers to serde.
fn direct_reply(frame: &str) -> Option<Reply> {
    if frame == "\"Ok\"" {
        return Some(Reply::Ok);
    }
    let mut c = JsonCursor::new(frame);
    let reply = if c.eat("{\"Configs\":{\"trials\":") {
        let trials = c.list(|c| {
            c.lit("{\"config\":")?;
            let config = c.config()?;
            c.lit(",\"iteration\":")?;
            let iteration = c.usize()?;
            c.lit("}")?;
            Some(FetchedTrial { config, iteration })
        })?;
        c.lit(",\"finished\":")?;
        Reply::Configs {
            trials,
            finished: c.bool()?,
        }
    } else if c.eat("{\"Config\":{\"config\":") {
        let config = c.config()?;
        c.lit(",\"iteration\":")?;
        let iteration = c.usize()?;
        c.lit(",\"finished\":")?;
        Reply::Config {
            config,
            iteration,
            finished: c.bool()?,
        }
    } else {
        return None;
    };
    c.lit("}}")?;
    c.end()?;
    Some(reply)
}

/// Ceiling on one wire frame (one newline-terminated JSON line), enforced
/// by the nonblocking front-end on requests and by `TcpHarmonyClient` on
/// replies. Generous: a `ReportBatch` entry is tens of
/// bytes, so this covers batches tens of thousands of trials deep. The cap
/// exists so a peer streaming garbage (or a length-prefix-style binary
/// blob) without ever sending `\n` produces a clean protocol error instead
/// of growing a buffer forever.
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// Incremental newline-frame decoder: the nonblocking transport's
/// equivalent of `BufRead::read_line`. Bytes arrive in arbitrary chunks
/// ([`extend`](Self::extend)); complete frames come out of
/// [`next_frame`](Self::next_frame) exactly as the blocking reader would
/// have produced them (split on `\n`, trailing `\r` stripped), regardless
/// of where the chunk boundaries fell.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes before this offset were consumed by returned frames; the
    /// prefix is compacted away lazily to keep `extend` amortized O(n).
    pos: usize,
    max_frame: usize,
    poisoned: bool,
}

/// A frame exceeded the decoder's cap without a terminating newline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameTooLong {
    /// The configured ceiling, for the error message sent to the peer.
    pub limit: usize,
}

impl std::fmt::Display for FrameTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame exceeds {} bytes without a newline", self.limit)
    }
}

impl FrameDecoder {
    /// Decoder enforcing `max_frame` bytes per line ([`MAX_FRAME_LEN`] is
    /// the transport's default).
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_frame: max_frame.max(1),
            poisoned: false,
        }
    }

    /// Feed a chunk of received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, or `None` when more bytes are needed.
    /// Returns `Err` once the unterminated tail outgrows the cap; the
    /// decoder stays poisoned afterwards (the stream has no recoverable
    /// framing), so the owner must error out and close.
    pub fn next_frame(&mut self) -> std::result::Result<Option<String>, FrameTooLong> {
        if self.poisoned {
            return Err(FrameTooLong {
                limit: self.max_frame,
            });
        }
        let tail = &self.buf[self.pos..];
        match tail.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let mut end = nl;
                if end > 0 && tail[end - 1] == b'\r' {
                    end -= 1;
                }
                if end > self.max_frame {
                    self.poisoned = true;
                    return Err(FrameTooLong {
                        limit: self.max_frame,
                    });
                }
                let frame = String::from_utf8_lossy(&tail[..end]).into_owned();
                self.pos += nl + 1;
                Ok(Some(frame))
            }
            None if tail.len() > self.max_frame => {
                self.poisoned = true;
                Err(FrameTooLong {
                    limit: self.max_frame,
                })
            }
            None => Ok(None),
        }
    }

    /// The unterminated remainder at EOF, exactly as `BufRead::lines`
    /// yields a final line with no trailing newline. Empty tail → `None`.
    pub fn finish(&mut self) -> Option<String> {
        if self.poisoned || self.pos >= self.buf.len() {
            return None;
        }
        // No `\r` stripping here: `BufRead::lines` only strips a CR that
        // precedes the terminating LF, and this tail has no LF.
        let tail = &self.buf[self.pos..];
        let frame = String::from_utf8_lossy(tail).into_owned();
        self.pos = self.buf.len();
        Some(frame)
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ParamValue;
    use proptest::prelude::*;
    use proptest::Gen;

    /// What the blocking transport's reader produces for `bytes`: the
    /// ground truth the incremental decoder must reproduce byte for byte.
    fn blocking_lines(bytes: &[u8]) -> Vec<String> {
        use std::io::BufRead;
        std::io::BufReader::new(bytes)
            .lines()
            .map(|l| l.expect("in-memory read"))
            .collect()
    }

    /// Run `bytes` through the decoder, cutting the stream at `splits`
    /// (arbitrary chunk boundaries, as TCP would).
    fn decoded_frames(bytes: &[u8], splits: &[usize]) -> Vec<String> {
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        let mut frames = Vec::new();
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (bytes.len() + 1)).collect();
        cuts.push(0);
        cuts.push(bytes.len());
        cuts.sort_unstable();
        for pair in cuts.windows(2) {
            dec.extend(&bytes[pair[0]..pair[1]]);
            while let Some(frame) = dec.next_frame().expect("under the cap") {
                frames.push(frame);
            }
        }
        frames.extend(dec.finish());
        frames
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any frame sequence split at arbitrary byte boundaries decodes
        /// identically to the blocking `BufRead::lines` reader.
        #[test]
        fn decoder_matches_blocking_reader_under_any_split(
            lens in proptest::collection::vec(0usize..40, 0..8),
            splits in proptest::collection::vec(0usize..512, 0..6),
            style in 0u8..4,
        ) {
            // Build a stream of frames in several framing styles: plain LF,
            // CRLF, empty lines, and an unterminated tail.
            let mut bytes = Vec::new();
            for (i, len) in lens.iter().enumerate() {
                let payload: String = (0..*len)
                    .map(|j| char::from(b'!' + ((i * 7 + j * 13) % 90) as u8))
                    .collect();
                bytes.extend_from_slice(payload.as_bytes());
                match (style + i as u8) % 3 {
                    0 => bytes.push(b'\n'),
                    1 => bytes.extend_from_slice(b"\r\n"),
                    _ => bytes.extend_from_slice(b"\n\n"), // plus an empty frame
                }
            }
            if style == 3 {
                bytes.extend_from_slice(b"unterminated tail");
            }
            prop_assert_eq!(decoded_frames(&bytes, &splits), blocking_lines(&bytes));
        }

        /// Oversized frames (no newline inside the cap — garbage, or a
        /// binary length-prefix protocol pointed at the wrong port) produce
        /// a clean error as soon as the cap is crossed, never a hang or an
        /// unbounded buffer, and the decoder stays poisoned.
        #[test]
        fn oversized_frames_error_cleanly(cap in 8usize..64, chunk in 1usize..17) {
            let mut dec = FrameDecoder::new(cap);
            let garbage = vec![0x7fu8; cap * 3];
            let mut fed = 0;
            let mut failed = false;
            for piece in garbage.chunks(chunk) {
                dec.extend(piece);
                fed += piece.len();
                match dec.next_frame() {
                    Ok(None) => prop_assert!(fed <= cap + chunk, "cap not enforced"),
                    Ok(Some(f)) => prop_assert!(false, "decoded garbage frame {f:?}"),
                    Err(e) => {
                        prop_assert_eq!(e.limit, cap);
                        failed = true;
                        break;
                    }
                }
            }
            prop_assert!(failed, "oversized stream must error");
            // Poisoned: even a valid frame afterwards keeps erroring.
            dec.extend(b"{}\n");
            prop_assert!(dec.next_frame().is_err());
        }
    }

    /// Text the codec must carry intact: plain, multi-byte, and every
    /// character class the writer escapes.
    fn sample_text(g: &mut Gen) -> String {
        const PIECES: &[&str] = &[
            "x", "tile", "é", "漢", "😀", "\"", "\\", "\n", "\r", "\t", "\u{8}", "\u{c}", "\u{1}",
            "\u{1f}", "\u{7f}", "/", " ", "{", "]", ":", ",",
        ];
        (0..g.below(6))
            .map(|_| PIECES[g.below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn sample_f64(g: &mut Gen) -> f64 {
        match g.below(9) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            5 => f64::from_bits(g.next_u64()),
            6 => (g.next_f64() - 0.5) * 1e6,
            7 => [f64::MAX, f64::MIN_POSITIVE, 5e-324, 1e300, -1e-300][g.below(5) as usize],
            _ => g.below(1000) as f64,
        }
    }

    fn sample_usize(g: &mut Gen) -> usize {
        match g.below(4) {
            0 => 0,
            1 => usize::MAX,
            2 => g.next_u64() as usize,
            _ => g.below(100) as usize,
        }
    }

    fn sample_u32(g: &mut Gen) -> u32 {
        match g.below(4) {
            0 => 0,
            1 => u32::MAX,
            2 => g.next_u64() as u32,
            _ => g.below(100) as u32,
        }
    }

    fn sample_i64(g: &mut Gen) -> i64 {
        match g.below(4) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => g.next_u64() as i64,
            _ => g.below(200) as i64 - 100,
        }
    }

    fn sample_config(g: &mut Gen) -> Configuration {
        let n = g.below(5) as usize;
        let names = (0..n).map(|_| sample_text(g)).collect();
        let values = (0..n)
            .map(|_| match g.below(3) {
                0 => ParamValue::Int(sample_i64(g)),
                1 => ParamValue::Real(sample_f64(g)),
                _ => ParamValue::Enum {
                    index: sample_u32(g),
                    label: sample_text(g).into(),
                },
            })
            .collect();
        Configuration::new(names, values)
    }

    /// Requests of the tuning loop, plus now and then one that takes the
    /// serde path, so the codec's dispatch is exercised both ways.
    struct Requests;

    impl Strategy for Requests {
        type Value = Request;
        fn sample(&self, g: &mut Gen) -> Request {
            match g.below(6) {
                0 => Request::Fetch,
                1 => Request::FetchBatch {
                    max: sample_usize(g),
                },
                2 => Request::Report {
                    cost: sample_f64(g),
                    wall_time: sample_f64(g),
                },
                3 | 4 => Request::ReportBatch {
                    reports: (0..g.below(5))
                        .map(|_| TrialReport {
                            iteration: sample_usize(g),
                            cost: sample_f64(g),
                            wall_time: sample_f64(g),
                        })
                        .collect(),
                },
                _ => Request::Register {
                    app: sample_text(g),
                    tenant: sample_text(g),
                },
            }
        }
    }

    /// Replies of the tuning loop, plus now and then a serde-path one.
    struct Replies;

    impl Strategy for Replies {
        type Value = Reply;
        fn sample(&self, g: &mut Gen) -> Reply {
            match g.below(5) {
                0 => Reply::Ok,
                1 => Reply::Config {
                    config: sample_config(g),
                    iteration: sample_usize(g),
                    finished: g.below(2) == 0,
                },
                2 | 3 => Reply::Configs {
                    trials: (0..g.below(4))
                        .map(|_| FetchedTrial {
                            config: sample_config(g),
                            iteration: sample_usize(g),
                        })
                        .collect(),
                    finished: g.below(2) == 0,
                },
                _ => Reply::Error {
                    message: sample_text(g),
                    retryable: g.below(2) == 0,
                },
            }
        }
    }

    /// Characters that matter to a JSON reader, for mutating frames.
    const JSON_BYTES: &[u8] = b"{}[]\":,\\ -+.eE0159nulltrfas\n";

    /// `frame` with `edits` bytes deleted, replaced or inserted. Edits that
    /// split a multi-byte character are repaired lossily, as the frame
    /// decoder would.
    fn mutate(frame: &str, edits: &[u64]) -> String {
        let mut bytes = frame.as_bytes().to_vec();
        for &e in edits {
            let at = (e >> 8) as usize % (bytes.len() + 1);
            let b = JSON_BYTES[(e >> 2) as usize % JSON_BYTES.len()];
            match e & 3 {
                0 if at < bytes.len() => {
                    bytes.remove(at);
                }
                1 if at < bytes.len() => bytes[at] = b,
                _ => bytes.insert(at, b),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn encoded<T>(msg: &T, encode: fn(&T, &mut Vec<u8>)) -> String {
        let mut out = Vec::new();
        encode(msg, &mut out);
        String::from_utf8(out).expect("frames are UTF-8")
    }

    fn encoded_request(req: &Request) -> String {
        encoded(req, encode_request)
    }

    fn encoded_reply(reply: &Reply) -> String {
        encoded(reply, encode_reply)
    }

    /// The codec's decode and the serde reference agree: the same message
    /// (compared by `Debug`, which tells `-0.0` and every float bit apart
    /// bar NaN payloads), or the same error.
    fn decodes_agree<T: Deserialize + std::fmt::Debug>(
        frame: &str,
        decode: fn(&str) -> Result<T, serde_json::Error>,
    ) -> std::result::Result<(), String> {
        let direct = format!("{:?}", decode(frame));
        let serde = format!("{:?}", serde_json::from_str::<T>(frame));
        if direct == serde {
            Ok(())
        } else {
            Err(format!("frame {frame:?}: codec {direct} vs serde {serde}"))
        }
    }

    fn request_decodes_agree(frame: &str) -> std::result::Result<(), String> {
        decodes_agree(frame, decode_request)
    }

    fn reply_decodes_agree(frame: &str) -> std::result::Result<(), String> {
        decodes_agree(frame, decode_reply)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The direct writer emits exactly the bytes serde does.
        #[test]
        fn encode_is_byte_identical_to_serde(req in Requests, reply in Replies) {
            prop_assert_eq!(encoded_request(&req), serde_json::to_string(&req).unwrap());
            prop_assert_eq!(encoded_reply(&reply), serde_json::to_string(&reply).unwrap());
        }

        /// On the frames the writer produces, decode matches serde; and a
        /// frame with no escape and no `null` is read by the direct path,
        /// not handed back to serde.
        #[test]
        fn decode_matches_serde_on_encoded_frames(req in Requests, reply in Replies) {
            let frame = encoded_request(&req);
            request_decodes_agree(&frame)?;
            let hot = !matches!(req, Request::Register { .. });
            if hot && !frame.contains('\\') && !frame.contains("null") {
                prop_assert!(direct_request(&frame).is_some(), "{frame}");
            }
            let frame = encoded_reply(&reply);
            reply_decodes_agree(&frame)?;
            let hot = !matches!(reply, Reply::Error { .. });
            if hot && !frame.contains('\\') && !frame.contains("null") {
                prop_assert!(direct_reply(&frame).is_some(), "{frame}");
            }
        }

        /// Mutated frames (whitespace, reordered or truncated input, stray
        /// digits, signs and exponents) decode as serde decodes them.
        #[test]
        fn decode_matches_serde_on_mutated_frames(
            req in Requests,
            reply in Replies,
            edits in proptest::collection::vec(0u64..u64::MAX, 1..4),
        ) {
            request_decodes_agree(&mutate(&encoded_request(&req), &edits))?;
            reply_decodes_agree(&mutate(&encoded_reply(&reply), &edits))?;
        }

        /// Arbitrary bytes never panic either decoder.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoders(
            bytes in proptest::collection::vec(0u8..255, 0..64),
            json in proptest::collection::vec(0usize..JSON_BYTES.len(), 0..64),
        ) {
            let frame = String::from_utf8_lossy(&bytes);
            let _ = decode_request(&frame);
            let _ = decode_reply(&frame);
            let frame: String = json.iter().map(|&i| char::from(JSON_BYTES[i])).collect();
            request_decodes_agree(&frame)?;
            reply_decodes_agree(&frame)?;
        }
    }

    #[test]
    fn numbers_outside_the_canonical_spelling_decode_as_serde_does() {
        for number in [
            "1",
            "-0",
            "007",
            "1e3",
            "1E+3",
            "-1.5e-3",
            "1.",
            "1e999",
            "-1e999",
            "--1",
            "1-2",
            "-",
            "18446744073709551615",
            "18446744073709551616",
            "-9223372036854775808",
            "-9223372036854775809",
            "null",
            "true",
            "\"1\"",
        ] {
            request_decodes_agree(&format!("{{\"FetchBatch\":{{\"max\":{number}}}}}")).unwrap();
            request_decodes_agree(&format!(
                "{{\"Report\":{{\"cost\":{number},\"wall_time\":0.5}}}}"
            ))
            .unwrap();
            reply_decodes_agree(&format!(
                "{{\"Config\":{{\"config\":{{\"names\":[\"a\"],\"values\":[{{\"Int\":{number}}}]}},\"iteration\":1,\"finished\":false}}}}"
            ))
            .unwrap();
        }
    }

    #[test]
    fn enum_index_beyond_u32_is_rejected_as_serde_rejects_it() {
        let frame = |index: &str| {
            format!(
                "{{\"Config\":{{\"config\":{{\"names\":[\"a\"],\"values\":[{{\"Enum\":{{\"index\":{index},\"label\":\"x\"}}}}]}},\"iteration\":1,\"finished\":false}}}}"
            )
        };
        let max = u32::MAX.to_string();
        assert!(direct_reply(&frame(&max)).is_some());
        assert!(decode_reply(&frame(&max)).is_ok());
        for index in ["4294967296", "18446744073709551615", "18446744073709551616"] {
            let frame = frame(index);
            assert!(direct_reply(&frame).is_none(), "{index}");
            assert!(decode_reply(&frame).is_err(), "{index}");
            reply_decodes_agree(&frame).unwrap();
        }
    }

    #[test]
    fn a_4096_evaluation_history_reply_roundtrips() {
        let space = crate::space::SearchSpace::builder()
            .int("tile", 1, 64, 1)
            .real("tol", 1e-9, 1.0)
            .enumeration("layout", ["row", "col \"major\"", "blocked"])
            .build()
            .unwrap();
        let mut history = crate::history::History::new();
        for i in 0..4096 {
            let x = i as f64 / 4096.0;
            history.push(crate::history::Evaluation {
                iteration: i + 1,
                config: space.project(&[1.0 + 63.0 * x, x, (i % 3) as f64]),
                cost: 1.0 / (1.0 + x),
                cached: i % 7 == 0,
                cumulative_time: i as f64 * 0.25,
            });
        }
        let reply = Reply::History {
            history,
            finished: true,
        };
        let frame = encoded_reply(&reply);
        assert!(frame.len() > 500_000, "{} bytes", frame.len());
        let back = decode_reply(&frame).expect("history frame decodes");
        assert_eq!(encoded_reply(&back), frame);
    }

    #[test]
    fn oversized_terminated_frame_is_rejected_too() {
        // A newline does arrive, but the line before it is over the cap:
        // still a protocol error (the peer can craft arbitrarily large
        // frames otherwise).
        let mut dec = FrameDecoder::new(8);
        dec.extend(b"0123456789ABCDEF\n");
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn requests_roundtrip_through_json() {
        let msgs = vec![
            Request::Register {
                app: "gs2".into(),
                tenant: String::new(),
            },
            Request::Register {
                app: "gs2".into(),
                tenant: "team-a".into(),
            },
            Request::Attach {
                session: 17,
                tenant: String::new(),
            },
            Request::Attach {
                session: 17,
                tenant: "team-b".into(),
            },
            Request::Heartbeat,
            Request::Leave,
            Request::QueryHistory,
            Request::AddParam {
                param: Param::int("negrid", 4, 32, 2),
            },
            Request::AddMonotoneChain {
                names: vec!["b1".into(), "b2".into()],
            },
            Request::Seal {
                options: SessionOptions::default(),
                strategy: StrategyKind::Grid { target: 100 },
            },
            Request::Fetch,
            Request::Report {
                cost: 55.06,
                wall_time: 60.0,
            },
            Request::FetchBatch { max: 9 },
            Request::ReportBatch {
                reports: vec![
                    TrialReport {
                        iteration: 4,
                        cost: 1.25,
                        wall_time: 2.5,
                    },
                    TrialReport {
                        iteration: 7,
                        cost: 0.5,
                        wall_time: 0.5,
                    },
                ],
            },
            Request::QueryBest,
            Request::Shutdown,
        ];
        for m in msgs {
            let s = serde_json::to_string(&m).unwrap();
            let back: Request = serde_json::from_str(&s).unwrap();
            // Compare via re-serialization (Request has no PartialEq because
            // SessionOptions carries floats we still want exact here).
            assert_eq!(s, serde_json::to_string(&back).unwrap());
        }
    }

    #[test]
    fn tenantless_frames_from_older_clients_still_parse() {
        // PR-6-era clients send Register/Attach without a tenant field;
        // `#[serde(default)]` must map that to the empty (default) tenant.
        let req: Request = serde_json::from_str("{\"Register\":{\"app\":\"gs2\"}}").unwrap();
        match req {
            Request::Register { app, tenant } => {
                assert_eq!(app, "gs2");
                assert!(tenant.is_empty());
            }
            other => panic!("expected Register, got {other:?}"),
        }
        let req: Request = serde_json::from_str("{\"Attach\":{\"session\":5}}").unwrap();
        match req {
            Request::Attach { session, tenant } => {
                assert_eq!(session, 5);
                assert!(tenant.is_empty());
            }
            other => panic!("expected Attach, got {other:?}"),
        }
    }

    #[test]
    fn replies_roundtrip_through_json() {
        let space = crate::space::SearchSpace::builder()
            .int("x", 0, 5, 1)
            .build()
            .unwrap();
        let msgs = vec![
            Reply::Registered {
                client_id: 3,
                session: 3,
            },
            Reply::Ok,
            Reply::History {
                history: crate::history::History::new(),
                finished: false,
            },
            Reply::busy("server at connection capacity (4)"),
            Reply::Config {
                config: space.center(),
                iteration: 2,
                finished: false,
            },
            Reply::Configs {
                trials: vec![
                    FetchedTrial {
                        config: space.center(),
                        iteration: 1,
                    },
                    FetchedTrial {
                        config: space.center(),
                        iteration: 2,
                    },
                ],
                finished: false,
            },
            Reply::Configs {
                trials: vec![],
                finished: true,
            },
            Reply::Best {
                best: Some((space.center(), 1.5)),
            },
            Reply::err("nope"),
            Reply::QuotaExceeded {
                tenant: "team-a".into(),
            },
        ];
        for m in msgs {
            let s = serde_json::to_string(&m).unwrap();
            let back: Reply = serde_json::from_str(&s).unwrap();
            assert_eq!(s, serde_json::to_string(&back).unwrap());
        }
    }
}
