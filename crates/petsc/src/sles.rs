//! SLES: the distributed linear-equation-solver object.
//!
//! A [`SlesProblem`] bundles a real sparse matrix, a right-hand side, and a
//! simulated machine. Solving under a given [`RowPartition`] produces both a
//! *numerical* outcome (the CG iteration count on the actual matrix) and a
//! *performance* outcome (the simulated distributed execution time). The
//! decomposition affects only the performance: per-iteration work per
//! processor is the partition's local nonzeros, and the halo exchange is the
//! partition's cross-boundary nonzeros — exactly the data-locality trade-off
//! Figure 2 illustrates.

use ah_clustersim::{execute, Collective, Machine, Message, Superstep};
use ah_sparse::partition::imbalance;
use ah_sparse::{cg_solve, CsrMatrix, RowPartition};
use std::collections::HashMap;

/// Work per matrix nonzero per CG iteration, in Gflop (2 flops for the
/// multiply-add, plus amortised vector-op traffic).
const GFLOP_PER_NNZ: f64 = 4.0e-9;
/// Extra per-row vector work per iteration (axpy/dot), in Gflop.
const GFLOP_PER_ROW: f64 = 1.0e-8;
/// Bytes per exchanged halo value.
const BYTES_PER_VALUE: f64 = 8.0;

/// A linear system plus the machine it is solved on.
#[derive(Debug, Clone)]
pub struct SlesProblem {
    matrix: CsrMatrix,
    rhs: Vec<f64>,
    machine: Machine,
    tol: f64,
    max_iters: usize,
    cached_iterations: Option<usize>,
}

/// Outcome of one distributed solve.
#[derive(Debug, Clone)]
pub struct SlesRun {
    /// Simulated distributed execution time in seconds.
    pub time: f64,
    /// CG iterations (independent of the decomposition).
    pub iterations: usize,
    /// Simulated time spent computing on the critical path.
    pub compute_time: f64,
    /// Simulated time spent communicating on the critical path.
    pub comm_time: f64,
    /// Load imbalance of the decomposition (1.0 = perfect).
    pub imbalance: f64,
}

impl SlesProblem {
    /// Create a problem. The machine must have at least as many processors
    /// as the partitions used later.
    pub fn new(matrix: CsrMatrix, rhs: Vec<f64>, machine: Machine) -> Self {
        assert_eq!(matrix.rows(), rhs.len());
        SlesProblem {
            matrix,
            rhs,
            machine,
            tol: 1e-6,
            max_iters: 5000,
            cached_iterations: None,
        }
    }

    /// Override the solver tolerance (default `1e-6`).
    pub fn with_tolerance(mut self, tol: f64, max_iters: usize) -> Self {
        self.tol = tol;
        self.max_iters = max_iters;
        self
    }

    /// The matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of unknowns.
    pub fn unknowns(&self) -> usize {
        self.matrix.rows()
    }

    /// CG iteration count on the real matrix (cached across calls: the
    /// decomposition does not change the numerics).
    pub fn iterations(&mut self) -> usize {
        if let Some(it) = self.cached_iterations {
            return it;
        }
        let out = cg_solve(&self.matrix, &self.rhs, self.tol, self.max_iters, 1);
        let it = out.iterations.max(1);
        self.cached_iterations = Some(it);
        it
    }

    /// Pin the iteration count (used for very large synthetic problems where
    /// running the numeric solve inside a tuning loop would be wasteful).
    pub fn set_iterations(&mut self, iterations: usize) {
        self.cached_iterations = Some(iterations.max(1));
    }

    /// Pairwise halo volumes `((src part, dst part) → values needed)`:
    /// for each nonzero `(r, c)` with `owner(r) = i ≠ j = owner(c)`,
    /// part `j` must send `x[c]` to part `i` each iteration. Distinct
    /// columns are counted once (vector entries are gathered, not nonzeros).
    pub fn halo_volumes(&self, part: &RowPartition) -> HashMap<(usize, usize), usize> {
        let p = part.parts();
        let counts = self.halo_counts(part);
        (0..p * p)
            .filter(|&k| counts[k] > 0)
            .map(|k| ((k / p, k % p), counts[k]))
            .collect()
    }

    /// The halo volumes as a dense `p×p` array: entry `src * p + dst` is
    /// the number of distinct columns part `src` sends to part `dst`.
    ///
    /// One pass over the nonzeros: `owner[c]` is filled from the part
    /// ranges (so an empty part owns nothing, as in
    /// [`RowPartition::owner`]), and `stamp[c]` remembers the last
    /// destination part that counted column `c`. Parts' rows are visited in
    /// order, so a column is counted once per destination.
    fn halo_counts(&self, part: &RowPartition) -> Vec<usize> {
        let p = part.parts();
        let mut owner = vec![0u32; part.rows()];
        for i in 0..p {
            owner[part.range(i)].fill(i as u32);
        }
        let mut stamp = vec![u32::MAX; part.rows()];
        let mut counts = vec![0usize; p * p];
        for dst in 0..p {
            let tag = dst as u32;
            for r in part.range(dst) {
                for &c in self.matrix.row(r).0 {
                    let src = owner[c];
                    if src != tag && stamp[c] != tag {
                        stamp[c] = tag;
                        counts[src as usize * p + dst] += 1;
                    }
                }
            }
        }
        counts
    }

    /// Simulate a distributed CG solve under the given decomposition.
    /// Part `i` runs on processor `i` of the machine.
    pub fn solve(&mut self, part: &RowPartition) -> SlesRun {
        assert_eq!(part.rows(), self.matrix.rows(), "partition size mismatch");
        assert!(
            part.parts() <= self.machine.total_procs(),
            "machine too small for {} partitions",
            part.parts()
        );
        let iterations = self.iterations();
        let loads = part.loads(&self.matrix);
        let rows = part.row_counts();
        let nprocs = self.machine.total_procs();

        let mut compute = vec![0.0f64; nprocs];
        for (i, (&nnz, &nrows)) in loads.iter().zip(&rows).enumerate() {
            compute[i] = nnz as f64 * GFLOP_PER_NNZ + nrows as f64 * GFLOP_PER_ROW;
        }
        // Messages in (src, dst) order: float sums are order-sensitive at
        // the ulp, so a fixed order keeps the simulated time bit-identical.
        let p = part.parts();
        let messages: Vec<Message> = self
            .halo_counts(part)
            .into_iter()
            .enumerate()
            .filter(|&(_, vals)| vals > 0)
            .map(|(k, vals)| Message {
                src: k / p,
                dst: k % p,
                bytes: vals as f64 * BYTES_PER_VALUE,
            })
            .collect();

        // One representative superstep per CG iteration: SpMV compute +
        // halo exchange + two 8-byte allreduces (the dot products).
        let step = Superstep {
            compute,
            messages,
            collective: Some(Collective::AllReduce { bytes: 16.0 }),
        };
        let one = execute(&self.machine, &[step]);
        SlesRun {
            time: one.total_time * iterations as f64,
            iterations,
            compute_time: one.compute_time * iterations as f64,
            comm_time: one.comm_time * iterations as f64,
            imbalance: imbalance(&loads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_clustersim::NetworkModel;
    use ah_sparse::gen::{clustered_blocks, laplacian_2d, ones};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn machine(procs: usize) -> Machine {
        Machine::uniform("test", procs, 1, 1.0, NetworkModel::default())
    }

    #[test]
    fn iteration_count_is_partition_independent() {
        let a = laplacian_2d(10, 10);
        let b = ones(a.rows());
        let mut p = SlesProblem::new(a, b, machine(4));
        let even = RowPartition::even(100, 4);
        let uneven = RowPartition::from_boundaries(100, &[10, 50, 90]);
        let r1 = p.solve(&even);
        let r2 = p.solve(&uneven);
        assert_eq!(r1.iterations, r2.iterations);
        assert!(r1.iterations > 1);
    }

    #[test]
    fn balanced_split_beats_skewed_split_on_uniform_matrix() {
        let a = laplacian_2d(20, 20);
        let b = ones(a.rows());
        let mut p = SlesProblem::new(a, b, machine(4));
        let even = RowPartition::even(400, 4);
        let skewed = RowPartition::from_boundaries(400, &[10, 20, 30]);
        assert!(p.solve(&even).time < p.solve(&skewed).time);
    }

    #[test]
    fn block_aligned_split_beats_even_split_on_clustered_matrix() {
        // Figure 2's lesson: hug the dense blocks.
        let a = clustered_blocks(&[10, 50, 10, 30], 0.9, 7);
        let b = ones(a.rows());
        let mut p = SlesProblem::new(a, b, machine(4));
        p.set_iterations(100);
        // Even split cuts the dense 50-block (boundary at 25, 50, 75).
        let even = RowPartition::even(100, 4);
        // Aligned split at block boundaries (10, 60, 70) — less cut but a
        // heavier middle part; with the paper's matrices the cut dominates.
        let aligned = RowPartition::from_boundaries(100, &[10, 60, 70]);
        let re = p.solve(&even);
        let ra = p.solve(&aligned);
        assert!(
            ra.comm_time < re.comm_time,
            "aligned comm {} !< even comm {}",
            ra.comm_time,
            re.comm_time
        );
    }

    #[test]
    fn halo_volume_counts_distinct_columns() {
        // 1-D chain: each boundary contributes exactly 1 remote column in
        // each direction.
        let a = laplacian_2d(10, 1);
        let b = ones(10);
        let p = SlesProblem::new(a, b, machine(2));
        let part = RowPartition::even(10, 2);
        let vols = p.halo_volumes(&part);
        assert_eq!(vols.get(&(0, 1)), Some(&1));
        assert_eq!(vols.get(&(1, 0)), Some(&1));
    }

    /// The straightforward halo count: a binary-search `owner()` and a
    /// hash set of columns per part pair. The flat kernel must agree with
    /// it exactly.
    fn oracle_halo_volumes(a: &CsrMatrix, part: &RowPartition) -> HashMap<(usize, usize), usize> {
        let mut seen: HashMap<(usize, usize), HashSet<usize>> = HashMap::new();
        for i in 0..part.parts() {
            for r in part.range(i) {
                for &c in a.row(r).0 {
                    let j = part.owner(c);
                    if j != i {
                        seen.entry((j, i)).or_default().insert(c);
                    }
                }
            }
        }
        seen.into_iter().map(|(k, v)| (k, v.len())).collect()
    }

    /// `solve` built from the oracle: messages sorted out of the hash
    /// map, loads summed row by row, imbalance recomputed.
    fn oracle_solve(p: &mut SlesProblem, part: &RowPartition) -> SlesRun {
        let iterations = p.iterations();
        let a = p.matrix();
        let loads: Vec<usize> = (0..part.parts())
            .map(|i| part.range(i).map(|r| a.row_nnz(r)).sum())
            .collect();
        let mut compute = vec![0.0f64; p.machine().total_procs()];
        for (i, (&nnz, &nrows)) in loads.iter().zip(&part.row_counts()).enumerate() {
            compute[i] = nnz as f64 * GFLOP_PER_NNZ + nrows as f64 * GFLOP_PER_ROW;
        }
        let mut halos: Vec<_> = oracle_halo_volumes(a, part).into_iter().collect();
        halos.sort_unstable_by_key(|&(k, _)| k);
        let messages = halos
            .into_iter()
            .map(|((src, dst), vals)| Message {
                src,
                dst,
                bytes: vals as f64 * BYTES_PER_VALUE,
            })
            .collect();
        let step = Superstep {
            compute,
            messages,
            collective: Some(Collective::AllReduce { bytes: 16.0 }),
        };
        let one = execute(p.machine(), &[step]);
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
        SlesRun {
            time: one.total_time * iterations as f64,
            iterations,
            compute_time: one.compute_time * iterations as f64,
            comm_time: one.comm_time * iterations as f64,
            imbalance: if mean <= 0.0 { 1.0 } else { max / mean },
        }
    }

    /// A small matrix of one of the generators the experiments use.
    fn sample_matrix(shape: u8, dims: &[usize]) -> CsrMatrix {
        match shape {
            0 => laplacian_2d(dims[0] + 1, dims[1] + 1),
            1 => laplacian_2d(dims[0] + 2, 1),
            _ => clustered_blocks(
                &[dims[0] + 1, dims[1] + 1, dims[2] + 1],
                0.6,
                dims[3] as u64,
            ),
        }
    }

    /// Interior boundaries that hit the edge cases: 0 and `n` (empty end
    /// parts), 1 and `n − 1`, repeats (empty inner parts) and arbitrary
    /// rows.
    fn sample_boundaries(n: usize, kinds: &[u8], raw: &[usize]) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for (&kind, &r) in kinds.iter().zip(raw) {
            let b = match kind {
                0 => 1,
                1 => n - 1,
                2 => out.last().copied().unwrap_or(0),
                3 => [0, n][r % 2],
                _ => r % (n + 1),
            };
            out.push(b);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat kernel and `solve` agree bit for bit with the
        /// hash-set oracle on random partitions of random matrices.
        #[test]
        fn flat_halo_kernel_matches_the_hash_set_oracle(
            shape in 0u8..3,
            dims in proptest::collection::vec(0usize..12, 4),
            kinds in proptest::collection::vec(0u8..6, 0..8),
            raw in proptest::collection::vec(0usize..1000, 8),
        ) {
            let a = sample_matrix(shape, &dims);
            let n = a.rows();
            let part = RowPartition::from_boundaries(n, &sample_boundaries(n, &kinds, &raw));
            let mut p = SlesProblem::new(a, ones(n), machine(8));
            p.set_iterations(37);
            prop_assert_eq!(p.halo_volumes(&part), oracle_halo_volumes(p.matrix(), &part));
            let got = p.solve(&part);
            let want = oracle_solve(&mut p, &part);
            prop_assert_eq!(got.iterations, want.iterations);
            for (g, w) in [
                (got.time, want.time),
                (got.compute_time, want.compute_time),
                (got.comm_time, want.comm_time),
                (got.imbalance, want.imbalance),
            ] {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn pinned_iterations_skip_numeric_solve() {
        let a = laplacian_2d(8, 8);
        let b = ones(a.rows());
        let mut p = SlesProblem::new(a, b, machine(2));
        p.set_iterations(42);
        let r = p.solve(&RowPartition::even(64, 2));
        assert_eq!(r.iterations, 42);
    }

    #[test]
    #[should_panic(expected = "machine too small")]
    fn too_many_parts_panics() {
        let a = laplacian_2d(4, 4);
        let b = ones(16);
        let mut p = SlesProblem::new(a, b, machine(2));
        p.solve(&RowPartition::even(16, 4));
    }
}
