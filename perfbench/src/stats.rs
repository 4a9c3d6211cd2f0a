//! Sample statistics for latency reporting.
//!
//! A percentile is reported together with the number of samples it was
//! taken from and the number that lie beyond it, so a reader can tell a
//! p99 backed by hundreds of slow samples from one decided by a handful.
//!
//! Runs share a host with other tenants: when the hypervisor runs another
//! guest while the benchmark's own guest wants to run (CPU steal), a sub-ms
//! closed loop stalls, and both its rate and its latencies then mostly
//! measure the neighbours. So a run is cut into short windows of
//! consecutive steps, the windows are ranked by the share of CPU time
//! stolen during them, and the step statistics pool the quietest windows:
//! at least [`KEEP_SHARE`] of them and at least [`MIN_POOLED_STEPS`] steps,
//! so the pooled p99 has at least ten samples beyond it.

use crate::host::CpuSample;
use std::time::{Duration, Instant};

/// Length of one window: short enough to fall between bursts of steal,
/// long enough to span many CPU-accounting samples.
pub const WINDOW: Duration = Duration::from_millis(250);
/// Least share of a run's windows the statistics pool.
pub const KEEP_SHARE: f64 = 0.1;
/// Fewest steps the pooled windows hold: the least that leaves ten
/// beyond the p99.
pub const MIN_POOLED_STEPS: usize = 1000;

/// One closed-loop step: one latency sample, however many evaluations it
/// carried (a batched round trip is one sample, never one per trial).
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// When the step completed.
    pub end: Instant,
    /// Its duration in µs.
    pub us: f64,
    /// Evaluations it completed.
    pub evals: u64,
}

/// Step statistics of a run, over its quietest windows pooled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Evaluations per second of the pooled windows' time.
    pub evals_per_s: f64,
    /// Median step time, µs, with its sample counts.
    pub p50: Percentile,
    /// p90 step time, µs.
    pub p90: Percentile,
    /// p99 step time, µs.
    pub p99: Percentile,
    /// Process CPU time per evaluation in the pooled windows, µs.
    pub cpu_us_per_eval: f64,
    /// Windows the run was cut into.
    pub windows: usize,
    /// Windows pooled.
    pub kept: usize,
    /// Steps in all windows.
    pub steps: usize,
    /// Share of CPU time stolen over all windows.
    pub steal_all: f64,
    /// Share of CPU time stolen over the pooled windows.
    pub steal_kept: f64,
}

/// The CPU sample nearest to `t`.
fn nearest(samples: &[CpuSample], t: Instant) -> &CpuSample {
    let i = samples.partition_point(|s| s.at < t);
    let after = samples.get(i);
    let before = i.checked_sub(1).and_then(|j| samples.get(j));
    match (before, after) {
        (Some(b), Some(a)) if t - b.at <= a.at - t => b,
        (_, Some(a)) => a,
        (Some(b), None) => b,
        (None, None) => panic!("no CPU samples"),
    }
}

/// Cut steps (from all connections, ordered by completion) into windows of
/// consecutive steps spanning at least [`WINDOW`] each (a shorter tail
/// joins the last window), rank the windows by the share of CPU time
/// stolen during them (from `samples`, which must span the run; ties go to
/// the earlier window), and pool the quietest until they hold at least
/// [`KEEP_SHARE`] of the windows and [`MIN_POOLED_STEPS`] steps (or all of
/// them). A window spans from the previous window's last completion (or
/// `start`) to its own. The rate is the pooled evaluations over the pooled
/// time, the percentiles are over the pooled steps, and the CPU time per
/// evaluation is the pooled process CPU time over the pooled evaluations.
pub fn windowed(start: Instant, mut steps: Vec<Step>, samples: &[CpuSample]) -> Option<Windowed> {
    steps.sort_by_key(|s| s.end);
    if steps.is_empty() || samples.is_empty() {
        return None;
    }
    // Window boundaries: indices one past each window's last step.
    let mut bounds = Vec::new();
    let mut from = start;
    for (i, s) in steps.iter().enumerate() {
        if s.end - from >= WINDOW {
            bounds.push(i + 1);
            from = s.end;
        }
    }
    match bounds.last_mut() {
        Some(last) if *last < steps.len() => *last = steps.len(),
        Some(_) => {}
        None => bounds.push(steps.len()),
    }

    struct Window {
        lo: usize,
        hi: usize,
        span: f64,
        evals: u64,
        cpu: Duration,
        stolen: u64,
        ticks: u64,
    }
    impl Window {
        fn steal(&self) -> f64 {
            if self.ticks == 0 {
                0.0
            } else {
                self.stolen as f64 / self.ticks as f64
            }
        }
    }
    let mut windows = Vec::with_capacity(bounds.len());
    let (mut lo, mut from) = (0, start);
    for &hi in &bounds {
        let to = steps[hi - 1].end;
        let (a, b) = (nearest(samples, from), nearest(samples, to));
        windows.push(Window {
            lo,
            hi,
            span: (to - from).as_secs_f64(),
            evals: steps[lo..hi].iter().map(|s| s.evals).sum(),
            cpu: b.process.saturating_sub(a.process),
            stolen: b.steal - a.steal,
            ticks: b.total - a.total,
        });
        lo = hi;
        from = to;
    }
    let mut order: Vec<&Window> = windows.iter().collect();
    order.sort_by(|x, y| x.steal().total_cmp(&y.steal()).then(x.lo.cmp(&y.lo)));
    let mut kept: Vec<&Window> = Vec::new();
    let mut kept_steps = 0;
    for w in order {
        if kept.len() as f64 >= KEEP_SHARE * windows.len() as f64 && kept_steps >= MIN_POOLED_STEPS
        {
            break;
        }
        kept_steps += w.hi - w.lo;
        kept.push(w);
    }
    let share = |ws: &[&Window]| {
        let (s, t) = ws
            .iter()
            .fold((0, 0), |(s, t), w| (s + w.stolen, t + w.ticks));
        if t == 0 {
            0.0
        } else {
            s as f64 / t as f64
        }
    };
    let lat = sorted(
        kept.iter()
            .flat_map(|w| steps[w.lo..w.hi].iter().map(|s| s.us))
            .collect(),
    );
    let evals: u64 = kept.iter().map(|w| w.evals).sum();
    let span: f64 = kept.iter().map(|w| w.span).sum();
    let cpu: Duration = kept.iter().map(|w| w.cpu).sum();
    Some(Windowed {
        evals_per_s: evals as f64 / span.max(1e-9),
        p50: percentile(&lat, 50.0)?,
        p90: percentile(&lat, 90.0)?,
        p99: percentile(&lat, 99.0)?,
        cpu_us_per_eval: cpu.as_secs_f64() * 1e6 / evals.max(1) as f64,
        windows: windows.len(),
        kept: kept.len(),
        steps: steps.len(),
        steal_all: share(&windows.iter().collect::<Vec<_>>()),
        steal_kept: share(&kept),
    })
}

/// One percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
    /// Samples ranked strictly after it.
    pub beyond: usize,
}

impl Percentile {
    /// True when at least ten samples lie beyond the percentile, the least
    /// that lets one stray sample not decide it.
    pub fn has_ten_beyond(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`
/// samples: the smallest sample with at least `p`% of the samples at or
/// below it. `None` for an empty set.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p <= 100.0, "percentile rank {p} out of (0, 100]");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples unsorted");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps ranks that are whole numbers in exact arithmetic
    // (0.99 * 1000 = 990) from rounding up one rank in floating point.
    let rank = ((p / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Sort samples ascending (total order, so NaN cannot scramble it).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean (`0.0` for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_of_a_thousand_has_exactly_ten_beyond() {
        let p = percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.samples, 1000);
        assert_eq!(p.beyond, 10);
        assert!(p.has_ten_beyond());
    }

    #[test]
    fn p99_of_fewer_than_a_thousand_fails_the_ten_beyond_rule() {
        let p = percentile(&ramp(999), 99.0).unwrap();
        assert_eq!(p.beyond, 9);
        assert!(!p.has_ten_beyond());
        let p = percentile(&ramp(100), 99.0).unwrap();
        assert_eq!((p.value, p.beyond), (99.0, 1));
        assert!(!p.has_ten_beyond());
    }

    #[test]
    fn median_rank_is_nearest_rank() {
        let p = percentile(&ramp(10), 50.0).unwrap();
        assert_eq!((p.value, p.beyond), (5.0, 5));
        let p = percentile(&ramp(11), 50.0).unwrap();
        assert_eq!((p.value, p.beyond), (6.0, 5));
    }

    #[test]
    fn extreme_ranks_and_degenerate_sets() {
        assert_eq!(percentile(&[], 50.0), None);
        let one = percentile(&[7.0], 99.0).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
        let max = percentile(&ramp(5), 100.0).unwrap();
        assert_eq!((max.value, max.beyond), (5.0, 0));
        let min = percentile(&ramp(5), 1.0).unwrap();
        assert_eq!((min.value, min.beyond), (1.0, 4));
    }

    #[test]
    fn one_sample_per_step_is_never_multiplied() {
        // A batched step of 16 evaluations is one sample: sixteen copies of
        // the same round trip would claim a p99 backed by fake samples.
        let steps = sorted(vec![600.0, 610.0, 620.0, 5000.0]);
        let p = percentile(&steps, 99.0).unwrap();
        assert_eq!(p.samples, 4);
        assert_eq!(p.value, 5000.0);
        assert!(!p.has_ten_beyond());
    }

    fn steps(start: Instant, durations_us: &[f64], evals: u64) -> Vec<Step> {
        let mut t = start;
        durations_us
            .iter()
            .map(|&us| {
                t += Duration::from_secs_f64(us / 1e6);
                Step { end: t, us, evals }
            })
            .collect()
    }

    /// CPU samples every 10 ms over `secs`, with steal in the given
    /// per-second shares and the process busy on one CPU throughout.
    fn samples(start: Instant, steal_per_sec: &[f64]) -> Vec<CpuSample> {
        let (mut steal, mut total) = (0.0, 0u64);
        (0..=steal_per_sec.len() * 100)
            .map(|i| {
                if i > 0 {
                    steal += 2.0 * steal_per_sec[(i - 1) / 100];
                    total += 2;
                }
                CpuSample {
                    at: start + Duration::from_millis(10 * i as u64),
                    steal: steal.round() as u64,
                    total,
                    process: Duration::from_millis(10 * i as u64),
                }
            })
            .collect()
    }

    #[test]
    fn quietest_windows_pool_a_tenth_and_a_thousand_steps() {
        let start = Instant::now();
        // 100 µs steps: 10,000 a second; three seconds of them, so twelve
        // windows of 2,500 steps. A tenth of twelve rounds up to two.
        let w = windowed(
            start,
            steps(start, &vec![100.0; 30_000], 16),
            &samples(start, &[0.0; 3]),
        )
        .unwrap();
        assert_eq!((w.windows, w.kept, w.steps), (12, 2, 30_000));
        assert_eq!(w.p99.samples, 5_000);
        assert!(w.p99.has_ten_beyond());
        assert!((w.evals_per_s - 160_000.0).abs() < 1.0, "{}", w.evals_per_s);
        assert_eq!(
            (w.p50.value, w.p90.value, w.p99.value),
            (100.0, 100.0, 100.0)
        );
        // One CPU busy for 1/160,000 s per evaluation.
        assert!(
            (w.cpu_us_per_eval - 6.25).abs() < 0.1,
            "{}",
            w.cpu_us_per_eval
        );
        // Too few steps for one full window still make one.
        let w = windowed(start, steps(start, &[50.0; 10], 1), &samples(start, &[0.0])).unwrap();
        assert_eq!((w.windows, w.kept), (1, 1));
        assert!(!w.p99.has_ten_beyond());
        assert_eq!(windowed(start, Vec::new(), &samples(start, &[0.0])), None);
    }

    #[test]
    fn slow_steps_pool_more_windows_to_reach_a_thousand_steps() {
        let start = Instant::now();
        // 10 ms steps: 25 a window; forty windows reach 1,000 steps.
        let w = windowed(
            start,
            steps(start, &vec![10_000.0; 2_000], 1),
            &samples(start, &[0.0; 20]),
        )
        .unwrap();
        assert_eq!((w.windows, w.kept), (80, 40));
        assert_eq!(w.p99.samples, 1_000);
        assert!(w.p99.has_ten_beyond());
    }

    #[test]
    fn windows_during_which_cpu_was_stolen_are_left_out() {
        let start = Instant::now();
        // Four seconds; CPU is stolen in all but the third, whose steps
        // alone are fast.
        let mut steps = steps(start, &vec![100.0; 40_000], 1);
        for (i, s) in steps.iter_mut().enumerate() {
            if !(20_000..30_000).contains(&i) {
                s.us = 5_000.0;
            }
        }
        let w = windowed(start, steps, &samples(start, &[0.3, 0.2, 0.0, 0.3])).unwrap();
        assert_eq!((w.windows, w.kept), (16, 2));
        assert_eq!(w.p99.value, 100.0);
        assert_eq!(w.steal_kept, 0.0);
        assert!(w.steal_all > 0.19 && w.steal_all < 0.21, "{}", w.steal_all);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
