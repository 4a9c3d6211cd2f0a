//! The repository's benchmark: three closed-loop workloads, each run with
//! tracing off (end-to-end metrics) or on (per-layer metrics).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tcp-batched|tcp-serial-store|offline-sles> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Human-readable lines come first; the last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. A failed correctness check makes
//! `correct` false and the exit code 1. Traced runs also write their spans
//! as Chrome trace-event JSON under `.bench_out/`.

mod host;
mod offline;
mod stats;
mod tcp;
mod trace;

use ah_core::history::History;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics and their units, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("evals_per_s", "evals/s"),
    ("step_p50_us", "us"),
    ("step_p90_us", "us"),
    ("cpu_us_per_eval", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, printed by every traced run (zero
/// where the layer is not on the workload's path).
const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.encode_us_per_eval", "us"),
    ("protocol.decode_us_per_eval", "us"),
    ("protocol.bytes_per_eval", "count"),
    ("tcp.roundtrip_p50_us", "us"),
    ("tcp.requests_per_eval", "count"),
    ("tcp.residual_us_per_step", "us"),
    ("server.step_us", "us"),
    ("server.dispatch_us_per_step", "us"),
    ("session.suggest_us_per_eval", "us"),
    ("session.report_us_per_eval", "us"),
    ("store.lookup_us", "us"),
    ("store.insert_us_per_record", "us"),
    ("store.flush_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("offline.run_short_us", "us"),
    ("petsc.halo_us_per_eval", "us"),
    ("sparse.loads_us_per_eval", "us"),
    ("clustersim.execute_us_per_eval", "us"),
    ("sparse.nnz_scanned_per_eval", "count"),
    ("unattributed_us_per_step", "us"),
    ("trace.step_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Most spans a trace file holds; the metrics use every span.
const TRACE_FILE_SPANS: usize = 100_000;

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// True when two histories are equal bit for bit.
pub fn same_history(a: &History, b: &History) -> bool {
    let (a, b) = (a.evaluations(), b.evaluations());
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.iteration == y.iteration
                && x.config == y.config
                && x.cost.to_bits() == y.cost.to_bits()
                && x.cached == y.cached
                && x.cumulative_time.to_bits() == y.cumulative_time.to_bits()
        })
}

/// One named measurement.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or were retried.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    metrics: Vec<Metric>,
    /// Printed with the others but not part of the JSON metric set.
    side: Vec<Metric>,
    notes: Vec<String>,
    /// Spans of a traced run.
    pub trace: Option<trace::Trace>,
}

impl Outcome {
    /// Record a correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Record a metric of the JSON set.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a metric printed for the reader only.
    pub fn side_metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.side.push(Metric { name, value, unit });
    }

    /// Add a line of context to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Throughput, CPU per evaluation, and median, p90 and p99 of
    /// one-sample-per-step latencies, over the run's quietest windows
    /// pooled (see [`stats::windowed`]), with their sample counts and the
    /// check that ten samples lie beyond the p99.
    pub fn step_metrics(
        &mut self,
        start: Instant,
        steps: Vec<stats::Step>,
        cpu: &[host::CpuSample],
    ) {
        let Some(w) = stats::windowed(start, steps, cpu) else {
            self.check("the run completed at least one step", false);
            return;
        };
        self.metric("evals_per_s", w.evals_per_s, "evals/s");
        self.metric("step_p50_us", w.p50.value, "us");
        self.metric("step_p90_us", w.p90.value, "us");
        // The p99 mostly measures other tenants' CPU steal on a shared
        // host, too unsteady to bound; it is printed, not in the result.
        self.side_metric("step_p99_us", w.p99.value, "us");
        self.metric("cpu_us_per_eval", w.cpu_us_per_eval, "us");
        self.note(format!(
            "steps: {} samples, one per step, in {} windows of at least {} s; evals_per_s, the \
             step percentiles and cpu_us_per_eval pool the {} windows with the least CPU stolen \
             by the hypervisor ({} samples; {:.2}% stolen in them, {:.2}% over all); {} / {} / {} \
             of them lie beyond the p50 / p90 / p99",
            w.steps,
            w.windows,
            stats::WINDOW.as_secs_f64(),
            w.kept,
            w.p50.samples,
            100.0 * w.steal_kept,
            100.0 * w.steal_all,
            w.p50.beyond,
            w.p90.beyond,
            w.p99.beyond
        ));
        self.check(
            "at least ten steps lie beyond the p99 of the pooled windows",
            w.p99.has_ten_beyond(),
        );
    }

    /// Check that the layer self times (µs per step) plus the unattributed
    /// remainder add up to the traced step time, and print the budget.
    pub fn reconcile(&mut self, step_us: f64, layers: &[(&str, f64)], unattributed: f64) {
        let sum: f64 = layers.iter().map(|(_, us)| us).sum::<f64>() + unattributed;
        let parts: Vec<String> = layers
            .iter()
            .map(|(name, us)| format!("{name} {us:.3}"))
            .collect();
        self.note(format!(
            "reconciliation, self time per step in us: {} + unattributed {unattributed:.3} = {sum:.3} vs traced step {step_us:.3}",
            parts.join(" + ")
        ));
        self.check(
            "layer self times plus unattributed equal the traced step time",
            step_us > 0.0 && (sum - step_us).abs() <= 1e-6 * step_us.max(1.0),
        );
    }

    /// Report per-layer metrics of layers the workload does not run as 0.
    pub fn absent(&mut self, names: &[&'static str]) {
        for &name in names {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, u)| *u)
                .expect("absent layers are per-layer metrics");
            self.metrics.push(Metric {
                name,
                value: 0.0,
                unit,
            });
        }
        self.note(format!(
            "not on this workload's path, reported as 0: {}",
            names.join(", ")
        ));
    }
}

/// Per-layer metrics of the off-line model's layers.
pub const OFFLINE_LAYERS: &[&str] = &[
    "offline.run_short_us",
    "petsc.halo_us_per_eval",
    "sparse.loads_us_per_eval",
    "clustersim.execute_us_per_eval",
    "sparse.nnz_scanned_per_eval",
];

/// Per-layer metrics of the wire and server layers.
pub const TCP_LAYERS: &[&str] = &[
    "protocol.encode_us_per_eval",
    "protocol.decode_us_per_eval",
    "protocol.bytes_per_eval",
    "tcp.roundtrip_p50_us",
    "tcp.requests_per_eval",
    "tcp.residual_us_per_step",
    "server.step_us",
    "server.dispatch_us_per_step",
];

/// Per-layer metrics of the performance store.
pub const STORE_LAYERS: &[&str] = &[
    "store.lookup_us",
    "store.insert_us_per_record",
    "store.flush_us",
    "store.hit_ratio",
];

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <tcp-batched|tcp-serial-store|offline-sles> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    println!(
        "host: nproc={} rustc=\"{}\" git_rev={} seed={} workload={} seconds={} trace={}",
        host.nproc,
        host.rustc,
        host.git_rev,
        args.seed,
        args.workload,
        args.seconds,
        args.trace as u8
    );
    println!("host: results are comparable only with results from hosts of the same shape");
    let mut out = match args.workload.as_str() {
        "tcp-batched" => {
            println!("network: traffic crosses the loopback interface (127.0.0.1)");
            tcp::run(tcp::Shape::Batched, &args)
        }
        "tcp-serial-store" => {
            println!("network: traffic crosses the loopback interface (127.0.0.1)");
            tcp::run(tcp::Shape::SerialStore, &args)
        }
        "offline-sles" => {
            println!("network: none (in-process model)");
            offline::run(&args)
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.checks
                .push((format!("{} is a finite number", m.name), false));
        }
    }
    let mut selected = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in wanted {
        match out
            .metrics
            .iter()
            .find(|m| m.name == *name && m.unit == *unit)
        {
            Some(m) => selected.push(m),
            None => missing.push(format!("{name} was measured in {unit}")),
        }
    }
    out.checks.extend(missing.into_iter().map(|m| (m, false)));
    let error_rate = if out.attempted == 0 {
        1.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    out.checks.push((
        format!(
            "no operation failed ({} of {} failed)",
            out.failed, out.attempted
        ),
        out.failed == 0 && out.attempted > 0,
    ));

    for n in &out.notes {
        println!("note: {n}");
    }
    for m in out.metrics.iter().chain(&out.side) {
        println!("metric: {} = {} {}", m.name, m.value, m.unit);
    }
    println!("metric: error_rate = {error_rate} fraction");
    if let Some(trace) = &out.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace.chrome_json(TRACE_FILE_SPANS))) {
            Ok(()) => println!(
                "trace: {} (Chrome trace-event JSON; the first {} of {} spans, split across threads)",
                path.display(),
                TRACE_FILE_SPANS.min(trace.len()),
                trace.len()
            ),
            Err(e) => out.checks.push((format!("write the trace: {e}"), false)),
        }
    }
    for (what, ok) in &out.checks {
        println!("check: {} {what}", if *ok { "PASS" } else { "FAIL" });
    }
    let correct = out.checks.iter().all(|(_, ok)| *ok);
    println!(
        "{}",
        json_result(correct, out.attempted.max(1), out.failed, &selected)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in the repository's `BENCHMARK.json`
    /// name the same metrics with the same units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = Metric {
            name: "setup_s",
            value: 0.8127,
            unit: "s",
        };
        let line = json_result(true, 10, 0, &[&m]);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(v.get(key).is_some(), "{key} missing from {line}");
        }
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(|u| u.as_str()), Some("s"));
    }
}
