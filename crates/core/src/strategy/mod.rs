//! Search strategies (the adaptation controller's tuning algorithms).
//!
//! The kernel of Active Harmony's adaptation controller is the Nelder–Mead
//! simplex method adapted to discrete spaces ([`NelderMead`]); the other
//! strategies are the baselines the paper compares against or uses to map
//! the search space ([`RandomSearch`], systematic sampling [`GridSearch`],
//! and [`Exhaustive`] enumeration).
//!
//! All strategies implement an *ask–tell* interface over continuous
//! coordinates: [`SearchStrategy::propose`] yields a candidate point in the
//! continuous embedding, the session projects it to the nearest valid
//! configuration and measures it, then [`SearchStrategy::feedback`] reports
//! the measured cost (of the projected point — the paper's "resulting values
//! from the nearest integer point" approximation).

mod annealing;
mod exhaustive;
mod genetic;
mod greedy;
mod grid;
mod nelder_mead;
pub mod pro;
mod random;
mod surrogate;

pub use annealing::{Annealing, AnnealingOptions};
pub use exhaustive::Exhaustive;
pub use genetic::{Genetic, GeneticOptions};
pub use greedy::{GreedyFrom, GreedyOneParam, GreedyOptions};
pub use grid::GridSearch;
pub use nelder_mead::{NelderMead, NelderMeadOptions, StartPoint};
pub use pro::{ParallelRankOrder, ProOptions};
pub use random::RandomSearch;
pub use surrogate::{Surrogate, SurrogateOptions};

use crate::space::SearchSpace;
use crate::space_compile::FeasibleCount;
use crate::telemetry::Telemetry;
use rand::rngs::StdRng;
use serde::Serialize;

/// Live snapshot of a simplex-family strategy's geometry and move history.
///
/// Exposed through [`SearchStrategy::snapshot`] for the observability
/// plane (`/status`, `repro watch`): the paper's authors steer their tuning
/// runs by watching how the simplex moves, and this is that signal, live.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SimplexSnapshot {
    /// Cost at every simplex vertex, sorted best-first. Vertices not yet
    /// evaluated are absent.
    pub vertex_costs: Vec<f64>,
    /// Convergence diagnostic: `(worst - best) / max(|best|, 1)` over the
    /// evaluated vertices — the relative cost spread the collapse test
    /// compares against its threshold. `0.0` until two vertices exist.
    pub spread: f64,
    /// Accepted reflection moves.
    pub reflections: usize,
    /// Accepted expansion moves.
    pub expansions: usize,
    /// Accepted contraction moves (outside and inside).
    pub contractions: usize,
    /// Shrink steps (every vertex pulled toward the best).
    pub shrinks: usize,
    /// Simplex restarts after a collapse.
    pub restarts: usize,
    /// Completed proposal rounds (PRO) — 0 for sequential simplexes.
    pub rounds: usize,
}

/// Live snapshot of a simulated-annealing strategy's schedule state.
#[derive(Debug, Clone, Default, Serialize)]
pub struct AnnealingSnapshot {
    /// Current temperature of the cooling schedule.
    pub temperature: f64,
    /// Fraction of recent proposals that were accepted as the new
    /// incumbent (Metropolis acceptances included).
    pub acceptance_rate: f64,
    /// Reheats triggered by stagnation.
    pub reheats: usize,
    /// Best cost observed so far (`+inf` before the first feedback).
    pub best_cost: f64,
}

/// Live snapshot of a genetic strategy's population state.
#[derive(Debug, Clone, Default, Serialize)]
pub struct GeneticSnapshot {
    /// Completed generations.
    pub generation: usize,
    /// Best fitness (lowest cost) observed so far (`+inf` before the first
    /// feedback).
    pub best_fitness: f64,
    /// Population size (individuals per generation).
    pub population: usize,
    /// Synergy pairs currently mined from low-cost configurations.
    pub synergy_pairs: usize,
}

/// Live snapshot of a surrogate-assisted strategy's model state.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SurrogateSnapshot {
    /// Relative fit error of the last model fit (`inf` before any fit).
    pub fit_error: f64,
    /// Proposals that fell back to the inner strategy.
    pub fallbacks: usize,
    /// Proposals taken from the model's argmin.
    pub model_proposals: usize,
    /// Samples the model was last fitted on.
    pub samples: usize,
}

/// What a strategy reports about its internal search state.
///
/// The default ([`StrategySnapshot::default`]) is what non-simplex
/// strategies return: a phase label and nothing else.
#[derive(Debug, Clone, Default, Serialize)]
pub struct StrategySnapshot {
    /// Human-readable label of the strategy's current internal phase
    /// (e.g. `"init"`, `"reflect"`, `"shrink"`, `"search"`).
    pub phase: &'static str,
    /// Simplex geometry and move counts, for simplex-family strategies.
    pub simplex: Option<SimplexSnapshot>,
    /// Annealing schedule state, for [`Annealing`].
    pub annealing: Option<AnnealingSnapshot>,
    /// Population state, for [`Genetic`].
    pub genetic: Option<GeneticSnapshot>,
    /// Model state, for [`Surrogate`].
    pub surrogate: Option<SurrogateSnapshot>,
}

/// Ask–tell interface implemented by every tuning algorithm.
pub trait SearchStrategy: Send {
    /// Short identifier for reports (e.g. `"nelder-mead"`).
    fn name(&self) -> &'static str;

    /// Called once before the first proposal.
    fn init(&mut self, space: &SearchSpace, rng: &mut StdRng);

    /// Next candidate point in the continuous embedding, or `None` when the
    /// strategy has exhausted its plan (finite strategies only).
    fn propose(&mut self, space: &SearchSpace, rng: &mut StdRng) -> Option<Vec<f64>>;

    /// Report the measured cost of the most recent proposal.
    ///
    /// `coords` are the continuous coordinates that were proposed (not the
    /// projected lattice point): the simplex keeps moving in continuous
    /// space while costs come from the nearest valid configuration.
    fn feedback(&mut self, coords: &[f64], cost: f64, space: &SearchSpace, rng: &mut StdRng);

    /// Whether the strategy considers itself converged (optional).
    fn converged(&self) -> bool {
        false
    }

    /// Whether the strategy can produce another proposal while `unanswered`
    /// earlier proposals still await [`feedback`](Self::feedback).
    ///
    /// This is the contract behind batched fetching: a strategy may only
    /// permit unanswered proposals if its trajectory is invariant to the
    /// batched interleaving — i.e. `propose, propose, feedback, feedback`
    /// (in proposal order) reaches exactly the same state as the serial
    /// `propose, feedback, propose, feedback`. That holds when proposals
    /// within the window draw on no feedback (PRO inside one round) or when
    /// feedback is a no-op (random/systematic sampling). Sequential
    /// strategies keep the default: one proposal at a time.
    fn can_propose_unanswered(&self, unanswered: usize) -> bool {
        unanswered == 0
    }

    /// Introspection snapshot of the strategy's internal state (optional).
    ///
    /// Must be cheap — the observability plane calls it while a session
    /// lock is held. The default reports a bare `"search"` phase with no
    /// simplex; simplex-family strategies override it.
    fn snapshot(&self) -> StrategySnapshot {
        StrategySnapshot {
            phase: "search",
            ..StrategySnapshot::default()
        }
    }

    /// Attach a telemetry handle (optional). Strategies that record their
    /// own counters or latencies (e.g. [`Surrogate`]) override this;
    /// recording is a pure observer and never influences the trajectory.
    /// The session forwards its own handle here on
    /// [`set_telemetry`](crate::session::TuningSession::set_telemetry).
    fn set_telemetry(&mut self, _telemetry: Telemetry) {}
}

/// Feasibility-aware lattice snap for candidate proposals, shared by the
/// strategies that move through continuous space ([`GreedyOneParam`],
/// [`NelderMead`]).
///
/// Unconstrained spaces keep the historical repair path (bit-identical
/// proposal streams). On constrained spaces, repair-then-snap can leave
/// the constraint surface (the snap undoes the repair) or collapse many
/// distinct candidates onto one boundary configuration; instead the
/// candidate is snapped to its lattice point and, if that violates a
/// constraint, the compiled space supplies the *nearest feasible* lattice
/// point (compiled lazily, once, on first need).
pub(crate) struct FeasibleSnapper {
    state: SnapState,
}

/// What an infeasible candidate falls back to.
enum SnapState {
    /// No infeasible candidate seen yet since the last reset.
    Uncompiled,
    /// Nearest-feasible search over the compiled space.
    Compiled(Box<crate::space_compile::CompiledSpace>),
    /// Plain repair: the space did not compile, or it has more than
    /// [`SNAP_SCAN_CAP`] valid points, or none.
    Repair,
}

/// Valid points scanned per nearest-feasible lookup (ample for the
/// constrained spaces the repro suite compiles; larger spaces fall back
/// to plain repair beyond the cap).
const SNAP_SCAN_CAP: u64 = 65_536;

impl FeasibleSnapper {
    pub(crate) fn new() -> Self {
        FeasibleSnapper {
            state: SnapState::Uncompiled,
        }
    }

    /// Forget the compiled space and any fallback verdict (call from
    /// `init`).
    pub(crate) fn reset(&mut self) {
        self.state = SnapState::Uncompiled;
    }

    /// Snap `p` to a feasible lattice point (see type docs).
    pub(crate) fn snap(&mut self, space: &SearchSpace, mut p: Vec<f64>) -> Vec<f64> {
        if space.constraints().is_empty() {
            space.repair(&mut p);
            return p;
        }
        let values: Vec<_> = space
            .params()
            .iter()
            .zip(&p)
            .map(|(param, &c)| param.project(c))
            .collect();
        if let Ok(cfg) = space.configuration(values) {
            if space.is_valid(&cfg) {
                if let Ok(embedded) = space.embed(&cfg) {
                    return embedded;
                }
            }
        }
        if let SnapState::Uncompiled = self.state {
            self.state = Self::fallback(space);
        }
        if let SnapState::Compiled(cs) = &self.state {
            if let Some(snapped) = cs.snap_feasible(&p, SNAP_SCAN_CAP) {
                return snapped;
            }
        }
        space.repair(&mut p);
        p
    }

    /// Decide, once per space, what infeasible candidates fall back to.
    /// The nearest-feasible scan answers "no" whenever the space has more
    /// than [`SNAP_SCAN_CAP`] valid points or none, whatever the
    /// candidate; counting them (without building coordinates) settles
    /// that before any scan.
    fn fallback(space: &SearchSpace) -> SnapState {
        let Ok(cs) = crate::space_compile::CompiledSpace::compile(space) else {
            return SnapState::Repair;
        };
        match cs.count_valid_bounded(SNAP_SCAN_CAP, u64::MAX) {
            FeasibleCount::Exact(n) if (1..=SNAP_SCAN_CAP).contains(&n) => {
                SnapState::Compiled(Box::new(cs))
            }
            _ => SnapState::Repair,
        }
    }
}

/// Relative cost spread of a set of evaluated vertex costs:
/// `(worst - best) / max(|best|, 1)`, the convergence diagnostic simplex
/// collapse tests use. Non-finite costs are ignored; fewer than two finite
/// costs give `0.0`.
pub(crate) fn cost_spread(costs: &[f64]) -> f64 {
    let finite: Vec<f64> = costs.iter().copied().filter(|c| c.is_finite()).collect();
    if finite.len() < 2 {
        return 0.0;
    }
    let best = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (worst - best) / best.abs().max(1.0)
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::space::SearchSpace;
    use rand::SeedableRng;

    /// Drive a strategy against a closed-form objective; returns best cost.
    pub fn drive<F>(
        strategy: &mut dyn SearchStrategy,
        space: &SearchSpace,
        max_evals: usize,
        mut f: F,
    ) -> f64
    where
        F: FnMut(&crate::space::Configuration) -> f64,
    {
        let mut rng = StdRng::seed_from_u64(12345);
        strategy.init(space, &mut rng);
        let mut best = f64::INFINITY;
        for _ in 0..max_evals {
            let Some(coords) = strategy.propose(space, &mut rng) else {
                break;
            };
            let cfg = space.project(&coords);
            let cost = f(&cfg);
            best = best.min(cost);
            strategy.feedback(&coords, cost, space, &mut rng);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::MonotoneChain;
    use rand::SeedableRng;

    /// Four chained boundaries on 0..=60: C(64, 4) = 635,376 valid
    /// points, ten times the nearest-feasible scan cap.
    fn large_chain_space() -> SearchSpace {
        let names = ["b1", "b2", "b3", "b4"];
        let mut b = SearchSpace::builder();
        for n in names {
            b = b.int(n, 0, 60, 1);
        }
        b.constraint(MonotoneChain::new(names)).build().unwrap()
    }

    #[test]
    fn over_the_cap_snaps_fall_back_to_repair_without_rescanning() {
        let space = large_chain_space();
        let mut snapper = FeasibleSnapper::new();
        // A feasible candidate needs no compiled space.
        assert_eq!(
            snapper.snap(&space, vec![1.0, 2.0, 3.0, 4.0]),
            [1.0, 2.0, 3.0, 4.0]
        );
        assert!(matches!(snapper.state, SnapState::Uncompiled));
        let infeasible = [
            vec![50.0, 10.0, 40.0, 20.0],
            vec![60.0, 0.0, 30.2, 29.7],
            vec![3.4, 3.3, 0.0, 59.9],
            vec![-5.0, 70.0, 12.5, 12.4],
        ];
        for (i, p) in infeasible.into_iter().enumerate() {
            let mut repaired = p.clone();
            space.repair(&mut repaired);
            assert_eq!(snapper.snap(&space, p), repaired, "candidate {i}");
            // The over-the-cap verdict holds no compiled space.
            assert!(matches!(snapper.state, SnapState::Repair), "candidate {i}");
        }
        snapper.reset();
        assert!(matches!(snapper.state, SnapState::Uncompiled));
    }

    #[test]
    fn small_chain_space_keeps_the_nearest_feasible_snap() {
        let space = SearchSpace::builder()
            .int("b1", 0, 10, 1)
            .int("b2", 0, 10, 1)
            .constraint(MonotoneChain::new(["b1", "b2"]))
            .build()
            .unwrap();
        let mut snapper = FeasibleSnapper::new();
        let snapped = snapper.snap(&space, vec![7.0, 3.0]);
        assert!(snapped[0] <= snapped[1], "{snapped:?}");
        assert!(matches!(snapper.state, SnapState::Compiled(_)));
    }

    #[test]
    fn a_chain_with_no_valid_point_falls_back_to_repair() {
        let space = SearchSpace::builder()
            .int("b1", 50, 60, 1)
            .int("b2", 0, 10, 1)
            .constraint(MonotoneChain::new(["b1", "b2"]))
            .build()
            .unwrap();
        let mut snapper = FeasibleSnapper::new();
        let p = vec![55.0, 5.0];
        let mut repaired = p.clone();
        space.repair(&mut repaired);
        assert_eq!(snapper.snap(&space, p), repaired);
        assert!(matches!(snapper.state, SnapState::Repair));
    }

    /// FNV-1a over the bit patterns of every proposed coordinate.
    fn digest(points: &[Vec<f64>]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in points.iter().flatten() {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn nelder_mead_stream_on_an_over_the_cap_chain_is_unchanged() {
        // The optimum violates the chain, so many simplex moves land
        // infeasible and go through the snapper's fallback.
        let space = large_chain_space();
        let target = [50.0, 10.0, 40.0, 20.0];
        let mut nm = NelderMead::default();
        let mut rng = StdRng::seed_from_u64(2006);
        nm.init(&space, &mut rng);
        let mut proposed = Vec::new();
        for _ in 0..150 {
            let Some(coords) = nm.propose(&space, &mut rng) else {
                break;
            };
            let cfg = space.project(&coords);
            let cost: f64 = space
                .embed(&cfg)
                .unwrap()
                .iter()
                .zip(target)
                .map(|(x, t)| (x - t) * (x - t))
                .sum();
            nm.feedback(&coords, cost, &space, &mut rng);
            proposed.push(coords);
        }
        assert_eq!(proposed.len(), 150);
        // Taken from the implementation that rescanned on every
        // infeasible candidate.
        assert_eq!(digest(&proposed), 5_667_192_826_418_290_361);
    }
}
