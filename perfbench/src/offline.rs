//! `offline-sles`: the paper's off-line mode. `OfflineTuner::tune` runs
//! Nelder–Mead from the even partition over `SlesDecompositionApp` on the
//! 21,025² clustered matrix, 32 parts on the simulated 8×4 machine, with a
//! 400-evaluation budget: the first half of the `petsc_sles_large`
//! experiment. Campaigns run back to back with successive seeds.
//!
//! The model does nearly all the work and no server or codec layer runs.
//! Each short run is one step; a thin `ShortRunApp` wrapper timestamps the
//! runs without touching the program.
//!
//! With tracing on, half the run repeats the untraced campaigns (the
//! baseline of `trace.overhead_pct`) and half drives the same campaign
//! through the program's public calls in the benchmark's own loop,
//! spanning `TuningSession::suggest`/`report_timed` and
//! `ShortRunApp::run_short`. After each step, outside the step's span, it
//! times the model's inner public calls on the same partition
//! (`SlesProblem::halo_volumes`, `RowPartition::loads`,
//! `ah_clustersim::execute`); those are attributed to `run_short` by
//! subtraction.

use crate::stats::{self, mean, Step};
use crate::trace::{Recorder, Trace};
use crate::{host, same_history, Args, Outcome, STORE_LAYERS, TCP_LAYERS};
use ah_clustersim::{execute, Collective, Machine, Message, NetworkModel, Superstep};
use ah_core::history::History;
use ah_core::offline::{OfflineTuner, RunMeasurement, ShortRunApp};
use ah_core::session::{SessionOptions, TuningSession};
use ah_core::space::{Configuration, SearchSpace};
use ah_core::strategy::{NelderMead, NelderMeadOptions, SearchStrategy, StartPoint};
use ah_petsc::tunable::partition_from_config;
use ah_petsc::{SlesDecompositionApp, SlesProblem};
use ah_sparse::gen::ones;
use ah_sparse::{CsrMatrix, RowPartition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Matrix order, clusters, nonzeros per row and generator seed of the
/// 21,025² problem in `petsc_sles_large`.
const ROWS: usize = 21_025;
const CLUSTERS: usize = 32;
const NNZ_PER_ROW: usize = 12;
const MATRIX_SEED: u64 = 7;
/// Nonzeros the generator must produce for that seed.
const EXPECTED_NNZ: usize = 312_175;
const PARTS: usize = 32;
/// Pinned CG iteration count, as in the experiment.
const CG_ITERATIONS: usize = 200;
const BUDGET: usize = 400;
/// A campaign reaches its target once its best cost is this far below
/// the measured default (the paper reports about 18% for 21,025²).
const TARGET_GAIN: f64 = 0.15;
/// The experiment's accepted improvement band, percent.
const IMPROVEMENT_BAND: (f64, f64) = (10.0, 30.0);
/// Matrix generations per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// Uneven dense-cluster sizes summing to `n`, deterministic per seed. A
/// copy of the experiment's private generator.
fn cluster_sizes(n: usize, clusters: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sizes: Vec<f64> = (0..clusters).map(|_| rng.gen_range(0.3..3.0)).collect();
    let total: f64 = sizes.iter().sum();
    for s in &mut sizes {
        *s = (*s / total * n as f64).max(1.0);
    }
    let mut out: Vec<usize> = sizes.iter().map(|&s| s as usize).collect();
    let diff = n as i64 - out.iter().sum::<usize>() as i64;
    out[0] = (out[0] as i64 + diff).max(1) as usize;
    out
}

/// Sparse clustered matrix with a per-row nonzero budget. A copy of the
/// experiment's private generator; `EXPECTED_NNZ` guards that it matches.
fn sparse_clustered(n: usize, clusters: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let sizes = cluster_sizes(n, clusters, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    let mut t: Vec<(usize, usize, f64)> = Vec::with_capacity(n * (nnz_per_row + 2));
    let mut start = 0usize;
    for &sz in &sizes {
        for i in 0..sz {
            for _ in 0..nnz_per_row / 2 {
                let j = rng.gen_range(0..sz);
                if j != i {
                    let v = -rng.gen_range(0.1..1.0);
                    t.push((start + i, start + j, v));
                    t.push((start + j, start + i, v));
                }
            }
        }
        start += sz;
    }
    for r in 0..n - 1 {
        t.push((r, r + 1, -0.05));
        t.push((r + 1, r, -0.05));
    }
    let mut row_abs = vec![0.0f64; n];
    for &(r, _, v) in &t {
        row_abs[r] += v.abs();
    }
    for (r, &abs) in row_abs.iter().enumerate() {
        t.push((r, r, 1.0 + abs));
    }
    CsrMatrix::from_triplets(n, n, &t)
}

fn machine() -> Machine {
    Machine::uniform("petsc 8x4", 8, 4, 1.0, NetworkModel::default())
}

/// Set-up: generate the matrix and build the application. Returns the
/// matrix's nonzero count for the generator check.
fn build_app() -> (SlesDecompositionApp, usize) {
    let a = sparse_clustered(ROWS, CLUSTERS, NNZ_PER_ROW, MATRIX_SEED);
    let nnz = a.nnz();
    let mut problem = SlesProblem::new(a, ones(ROWS), machine());
    problem.set_iterations(CG_ITERATIONS);
    (SlesDecompositionApp::new(problem, PARTS), nnz)
}

/// Nelder–Mead started at the even partition, as the experiment does.
fn strategy() -> Box<dyn SearchStrategy> {
    let coords = RowPartition::even(ROWS, PARTS)
        .interior_boundaries()
        .iter()
        .map(|&b| b as f64)
        .collect();
    Box::new(NelderMead::new(NelderMeadOptions {
        start: StartPoint::Coords(coords),
        ..Default::default()
    }))
}

fn options(seed: u64) -> SessionOptions {
    SessionOptions {
        max_evaluations: BUDGET,
        seed,
        ..Default::default()
    }
}

/// Campaign `k` of a run tunes with session seed `seed + k`.
fn campaign_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(k as u64)
}

/// Delegates to the application and timestamps every short run.
struct Stamped<'a> {
    app: &'a mut SlesDecompositionApp,
    starts: Vec<Instant>,
    ends: Vec<Instant>,
    costs: Vec<f64>,
}

impl ShortRunApp for Stamped<'_> {
    fn space(&self) -> SearchSpace {
        self.app.space()
    }

    fn default_config(&self) -> Configuration {
        self.app.default_config()
    }

    fn run_short(&mut self, config: &Configuration) -> RunMeasurement {
        self.starts.push(Instant::now());
        let m = self.app.run_short(config);
        self.ends.push(Instant::now());
        self.costs.push(m.exec_time);
        m
    }
}

/// What one untraced campaign measured.
struct Campaign {
    /// One sample per short run: from its start to the next run's start
    /// (run, report, next suggest), the last to the campaign's end.
    steps: Vec<Step>,
    wall_s: f64,
    improvement_pct: f64,
    /// Seconds from the campaign's start until a run first came in
    /// `TARGET_GAIN` below the default.
    time_to_target_s: Option<f64>,
    default_cost: f64,
    history: History,
}

fn campaign(app: &mut SlesDecompositionApp, seed: u64) -> Campaign {
    let mut stamped = Stamped {
        app,
        starts: Vec::with_capacity(BUDGET + 1),
        ends: Vec::with_capacity(BUDGET + 1),
        costs: Vec::with_capacity(BUDGET + 1),
    };
    let t0 = Instant::now();
    let outcome = OfflineTuner::new(options(seed)).tune(&mut stamped, strategy());
    let end = Instant::now();
    let step = |from: Instant, to: Instant| Step {
        end: to,
        us: (to - from).as_secs_f64() * 1e6,
        evals: 1,
    };
    let mut steps: Vec<Step> = stamped
        .starts
        .windows(2)
        .map(|w| step(w[0], w[1]))
        .collect();
    if let Some(&last) = stamped.starts.last() {
        steps.push(step(last, end));
    }
    let target = outcome.default_cost * (1.0 - TARGET_GAIN);
    let time_to_target_s = stamped
        .costs
        .iter()
        .position(|&c| c <= target)
        .map(|i| (stamped.ends[i] - t0).as_secs_f64());
    Campaign {
        steps,
        wall_s: (end - t0).as_secs_f64(),
        improvement_pct: outcome.improvement_pct(),
        time_to_target_s,
        default_cost: outcome.default_cost,
        history: outcome.result.history,
    }
}

/// Run campaigns back to back until `secs` is spent; at least one, and at
/// least [`stats::MIN_POOLED_STEPS`] steps when `min_steps` is set. A new campaign starts
/// only if the mean campaign so far fits before the end.
fn campaigns(
    app: &mut SlesDecompositionApp,
    seed: u64,
    secs: f64,
    min_steps: bool,
) -> (Vec<Campaign>, Instant, f64) {
    let t0 = Instant::now();
    let mut out: Vec<Campaign> = Vec::new();
    loop {
        let steps: usize = out.iter().map(|c| c.steps.len()).sum();
        let elapsed = t0.elapsed().as_secs_f64();
        let mean_wall = mean(&out.iter().map(|c| c.wall_s).collect::<Vec<_>>());
        let enough = !out.is_empty() && (!min_steps || steps >= stats::MIN_POOLED_STEPS);
        if enough && elapsed + mean_wall > secs {
            break;
        }
        out.push(campaign(app, campaign_seed(seed, out.len())));
    }
    (out, t0, t0.elapsed().as_secs_f64())
}

fn check_campaigns(out: &mut Outcome, runs: &[Campaign]) {
    let (lo, hi) = IMPROVEMENT_BAND;
    let gains: Vec<String> = runs
        .iter()
        .map(|c| format!("{:.1}%", c.improvement_pct))
        .collect();
    out.check(
        format!(
            "every campaign's improvement lies in petsc_sles_large's {lo}-{hi}% band ({})",
            gains.join(", ")
        ),
        !runs.is_empty() && runs.iter().all(|c| (lo..=hi).contains(&c.improvement_pct)),
    );
}

/// Run `offline-sles`.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let built = build_app();
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(built);
    }
    let (mut app, nnz) = kept.expect("at least one set-up");
    out.check(
        format!("generated matrix has nnz = {EXPECTED_NNZ} ({nnz})"),
        nnz == EXPECTED_NNZ,
    );

    let sampler = host::CpuSampler::start();
    let (runs, start, wall) = campaigns(&mut app, args.seed, args.seconds, true);
    let cpu = sampler.finish();
    check_campaigns(&mut out, &runs);

    let evals: usize = runs.iter().map(|c| c.steps.len()).sum();
    out.attempted = evals as u64;
    out.step_metrics(
        start,
        runs.iter().flat_map(|c| c.steps.iter().copied()).collect(),
        &cpu,
    );
    out.metric("setup_s", stats::median(&setup_s).expect("set-up ran"), "s");
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    let ttt: Vec<f64> = runs.iter().filter_map(|c| c.time_to_target_s).collect();
    match stats::median(&ttt) {
        Some(t) if ttt.len() == runs.len() => out.side_metric("time_to_target_s", t, "s"),
        _ => out.note(format!(
            "time_to_target_s: only {} of {} campaigns reached {:.0}% below the default",
            ttt.len(),
            runs.len(),
            TARGET_GAIN * 100.0
        )),
    }
    out.note(format!(
        "closed loop: 1 thread, {} campaigns (seeds {}..={}), {evals} short runs in {wall:.3} s; default cost {:.6} s",
        runs.len(),
        campaign_seed(args.seed, 0),
        campaign_seed(args.seed, runs.len().saturating_sub(1)),
        runs.first().map_or(0.0, |c| c.default_cost),
    ));
    out
}

/// Work and compute constants of `SlesProblem::solve`, so the execute
/// probe simulates the same superstep the model does.
const GFLOP_PER_NNZ: f64 = 4.0e-9;
const GFLOP_PER_ROW: f64 = 1.0e-8;
const BYTES_PER_VALUE: f64 = 8.0;

/// Time the model's inner public calls on one partition.
fn probe_model(problem: &SlesProblem, part: &RowPartition, rec: &mut Recorder, step: u64) {
    let halos = rec.time("petsc.halo", None, step, || problem.halo_volumes(part));
    let loads = rec.time("sparse.loads", None, step, || part.loads(problem.matrix()));
    let rows = part.row_counts();
    let mut compute = vec![0.0f64; problem.machine().total_procs()];
    for (i, (&nnz, &nrows)) in loads.iter().zip(&rows).enumerate() {
        compute[i] = nnz as f64 * GFLOP_PER_NNZ + nrows as f64 * GFLOP_PER_ROW;
    }
    let mut halos: Vec<((usize, usize), usize)> = halos.into_iter().collect();
    halos.sort_unstable_by_key(|&(k, _)| k);
    let step_program = [Superstep {
        compute,
        messages: halos
            .into_iter()
            .map(|((src, dst), vals)| Message {
                src,
                dst,
                bytes: vals as f64 * BYTES_PER_VALUE,
            })
            .collect(),
        collective: Some(Collective::AllReduce { bytes: 16.0 }),
    }];
    let sim = rec.time("clustersim.execute", None, step, || {
        execute(problem.machine(), &step_program)
    });
    std::hint::black_box(sim);
}

/// The traced campaign: the loop `OfflineTuner::tune` runs, written out
/// in public calls with spans. Returns the history, the default cost and
/// the time spent in probes.
fn traced_campaign(
    app: &mut SlesDecompositionApp,
    seed: u64,
    rec: &mut Recorder,
    step: &mut u64,
) -> (History, f64, Duration) {
    let mut probing = Duration::ZERO;
    let space = app.space();
    let default_cfg = app.default_config();
    let mut probe =
        |app: &mut SlesDecompositionApp, cfg: &Configuration, rec: &mut Recorder, step: u64| {
            let t0 = Instant::now();
            let part = partition_from_config(cfg, ROWS, PARTS);
            probe_model(app.problem_mut(), &part, rec, step);
            probing += t0.elapsed();
        };
    let root = rec.begin("step", None, *step);
    let default_cost = rec
        .time("offline.run_short", Some(root), *step, || {
            app.run_short(&default_cfg)
        })
        .exec_time;
    rec.end(root);
    probe(app, &default_cfg, rec, *step);
    *step += 1;
    let mut session = TuningSession::new(space, strategy(), options(seed));
    session.preload(&default_cfg, default_cost);
    loop {
        let root = rec.begin("step", None, *step);
        let Some(trial) = rec.time("session.suggest", Some(root), *step, || session.suggest())
        else {
            rec.discard(root);
            break;
        };
        let config = trial.config.clone();
        let m = rec.time("offline.run_short", Some(root), *step, || {
            app.run_short(&trial.config)
        });
        rec.time("session.report", Some(root), *step, || {
            session.report_timed(trial, m.exec_time, m.total_time())
        })
        .expect("session accepts the report of its own trial");
        rec.end(root);
        probe(app, &config, rec, *step);
        *step += 1;
    }
    (session.history().clone(), default_cost, probing)
}

fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mut app, nnz) = build_app();
    out.check(
        format!("generated matrix has nnz = {EXPECTED_NNZ} ({nnz})"),
        nnz == EXPECTED_NNZ,
    );
    let half = args.seconds / 2.0;

    // 1. Untraced campaigns: the baseline of the tracing overhead.
    let (base, _, base_wall) = campaigns(&mut app, args.seed, half, false);
    check_campaigns(&mut out, &base);
    let base_evals: usize = base.iter().map(|c| c.steps.len()).sum();

    // 2. The traced loop, campaign k with the same seed as untraced
    // campaign k.
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 0);
    let mut step = 0u64;
    let mut probing = Duration::ZERO;
    let mut matched = 0;
    let mut compared = 0;
    let t0 = Instant::now();
    let mut k = 0;
    while k == 0 || t0.elapsed().as_secs_f64() < half {
        let (history, default_cost, p) =
            traced_campaign(&mut app, campaign_seed(args.seed, k), &mut rec, &mut step);
        probing += p;
        if let Some(c) = base.get(k) {
            compared += 1;
            if same_history(&history, &c.history)
                && default_cost.to_bits() == c.default_cost.to_bits()
            {
                matched += 1;
            }
        }
        k += 1;
    }
    let traced_wall = (t0.elapsed() - probing).as_secs_f64();
    out.check(
        format!("the traced loop of public calls reproduces OfflineTuner::tune's history exactly ({matched}/{compared} campaigns)"),
        compared > 0 && matched == compared,
    );
    out.attempted = (base_evals as u64) + step;

    let mut trace = Trace::default();
    trace.absorb(rec);
    let tot = trace.totals();
    let get = |name: &str| tot.get(name).copied().unwrap_or_default();
    let steps = get("step").count as f64;
    let per_step = |name: &str| get(name).total_us / steps.max(1.0);
    let step_us = per_step("step");
    let suggest = per_step("session.suggest");
    let report = per_step("session.report");
    let run_short = per_step("offline.run_short");
    let halo = per_step("petsc.halo");
    let loads = per_step("sparse.loads");
    let exec = per_step("clustersim.execute");
    let run_short_self = run_short - halo - loads - exec;
    let unattributed = step_us - suggest - report - run_short;
    let layers = [
        ("session.suggest", suggest),
        ("session.report", report),
        ("offline", run_short_self),
        ("petsc", halo),
        ("sparse", loads),
        ("clustersim", exec),
    ];
    out.reconcile(step_us, &layers, unattributed);

    let traced_eps = steps / traced_wall;
    let base_eps = base_evals as f64 / base_wall;
    out.absent(TCP_LAYERS);
    out.metric("session.suggest_us_per_eval", suggest, "us");
    out.metric("session.report_us_per_eval", report, "us");
    out.absent(STORE_LAYERS);
    out.metric("offline.run_short_us", run_short, "us");
    out.metric("petsc.halo_us_per_eval", halo, "us");
    out.metric("sparse.loads_us_per_eval", loads, "us");
    out.metric("clustersim.execute_us_per_eval", exec, "us");
    out.metric(
        "sparse.nnz_scanned_per_eval",
        app.problem_mut().matrix().nnz() as f64,
        "count",
    );
    out.metric("unattributed_us_per_step", unattributed, "us");
    out.metric("trace.step_us", step_us, "us");
    out.metric(
        "trace.overhead_pct",
        100.0 * (base_eps - traced_eps) / base_eps,
        "%",
    );
    out.note(format!(
        "traced: {} steps over {k} campaigns; untraced baseline {} campaigns",
        steps as u64,
        base.len()
    ));
    out.note(format!(
        "untraced {base_eps:.2} evals/s vs traced {traced_eps:.2} evals/s (probe time excluded)"
    ));
    out.trace = Some(trace);
    out
}
