//! In-memory spans recorded by the benchmark around calls into the
//! program's layers, with self-time accounting and Chrome trace-event
//! export (the same `{"traceEvents": [...]}` form `repro trace --format
//! chrome` writes, so one viewer opens both).
//!
//! Spans live in memory while the run measures and are written out once
//! it ends. A span's self time is its duration minus the time its child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    /// Layer call the span times, e.g. `"protocol.encode"`.
    name: &'static str,
    /// Start, in nanoseconds since the trace origin.
    start_ns: u64,
    /// Duration in nanoseconds.
    dur_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    parent: Option<usize>,
    /// Step the span belongs to: spans of one step share it.
    step: u64,
}

/// Per-thread span recorder.
pub struct Recorder {
    origin: Instant,
    track: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`; `track` names the
    /// thread in the exported trace.
    pub fn new(origin: Instant, track: u32) -> Self {
        Recorder {
            origin,
            track,
            spans: Vec::new(),
        }
    }

    /// Open a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, step: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent,
            step,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns;
    }

    /// Drop span `id` and every span opened after it (a step that turned
    /// out not to be one, such as the fetch that finds a session finished).
    pub fn discard(&mut self, id: usize) {
        self.spans.truncate(id);
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        step: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, step);
        let out = f();
        self.end(id);
        out
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, µs.
    pub total_us: f64,
    /// Sum of their self times, µs.
    pub self_us: f64,
}

/// All spans of a run, one recorder per thread.
#[derive(Default)]
pub struct Trace {
    recorders: Vec<Recorder>,
}

impl Trace {
    /// Add a thread's spans.
    pub fn absorb(&mut self, recorder: Recorder) {
        self.recorders.push(recorder);
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for r in &self.recorders {
            let mut child_ns = vec![0u64; r.spans.len()];
            for s in &r.spans {
                if let Some(p) = s.parent {
                    child_ns[p] += s.dur_ns;
                }
            }
            for (s, child) in r.spans.iter().zip(child_ns) {
                let t = out.entry(s.name).or_default();
                t.count += 1;
                t.total_us += s.dur_ns as f64 / 1e3;
                t.self_us += s.dur_ns.saturating_sub(child) as f64 / 1e3;
            }
        }
        out
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.recorders
            .iter()
            .flat_map(|r| r.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Spans recorded, over all threads.
    pub fn len(&self) -> usize {
        self.recorders.iter().map(|r| r.spans.len()).sum()
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
    /// `ts`/`dur` in µs, sorted by start, plus thread-name metadata. Each
    /// thread contributes its first `max_spans / threads` spans, so the
    /// file stays small enough to open.
    pub fn chrome_json(&self, max_spans: usize) -> String {
        let per_thread = max_spans / self.recorders.len().max(1);
        let mut events: Vec<(u64, u32, usize, &Span)> = Vec::new();
        for r in &self.recorders {
            for (i, s) in r.spans.iter().enumerate().take(per_thread) {
                events.push((s.start_ns, r.track, i, s));
            }
        }
        events.sort_by_key(|&(start, track, i, _)| (start, track, i));
        let mut out = String::with_capacity(events.len() * 160 + 256);
        out.push_str("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"perfbench\"}}",
        );
        for r in &self.recorders {
            let _ = write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"bench/{}\"}}}}",
                r.track + 1,
                r.track
            );
        }
        for (_, track, i, s) in events {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"step\":{},\"span_id\":{}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                track + 1,
                s.step,
                i
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, dur_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            dur_ns,
            parent,
            step: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let mut r = Recorder::new(Instant::now(), 0);
        r.spans = vec![
            span("step", 0, 10_000, None),
            span("a", 1_000, 3_000, Some(0)),
            span("b", 5_000, 2_000, Some(0)),
            span("a.inner", 1_500, 1_000, Some(1)),
        ];
        let mut t = Trace::default();
        t.absorb(r);
        let tot = t.totals();
        assert_eq!(tot["step"].self_us, 5.0);
        assert_eq!(tot["a"].self_us, 2.0);
        assert_eq!(tot["a"].total_us, 3.0);
        assert_eq!(tot["b"].self_us, 2.0);
        assert_eq!(tot["a.inner"].self_us, 1.0);
        // Self times partition the root's duration.
        let sum: f64 = tot.values().map(|t| t.self_us).sum();
        assert_eq!(sum, 10.0);
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let mut r = Recorder::new(Instant::now(), 3);
        let step = r.begin("step", None, 1);
        r.time("protocol.encode", Some(step), 1, || ());
        r.end(step);
        let mut t = Trace::default();
        t.absorb(r);
        let doc: serde_json::Value = serde_json::from_str(&t.chrome_json(100)).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let complete = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .count();
        assert_eq!(complete, 2);
    }
}
