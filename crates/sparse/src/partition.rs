//! Row partitions of a sparse matrix across processors.
//!
//! The PETSc SLES experiment (paper §IV, Figure 2) tunes the *boundaries* of
//! a row decomposition: partition `i` owns rows `[b_{i−1}, b_i)`. Two
//! quantities determine distributed solve performance and both are computed
//! here from the real matrix structure:
//!
//! * **load** — nonzeros per partition (per-iteration SpMV flops);
//! * **communication volume** — nonzeros whose column lives in another
//!   partition (halo values that must be exchanged every iteration).
//!
//! Figure 2(a)'s lesson is precisely that an even split (line B) can cut a
//! dense cluster across partitions, inflating the communication term, while
//! an uneven split (line A) hugging the cluster boundaries does not.

use crate::csr::CsrMatrix;

/// A contiguous row partition of `n` rows into `p` parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    /// `p+1` boundaries: part `i` owns rows `[bounds[i], bounds[i+1])`.
    bounds: Vec<usize>,
}

impl RowPartition {
    /// Build from interior boundaries (length `p−1`, strictly inside
    /// `(0, n)`); boundaries are sorted and clamped, and every part is
    /// guaranteed at least implicitly by the sort (empty parts are legal —
    /// the paper allows partitions as small as one row, and the tuner's
    /// objective punishes degenerate ones).
    pub fn from_boundaries(n: usize, interior: &[usize]) -> Self {
        let mut b = Vec::with_capacity(interior.len() + 2);
        b.push(0);
        let mut sorted: Vec<usize> = interior.iter().map(|&x| x.min(n)).collect();
        sorted.sort_unstable();
        b.extend(sorted);
        b.push(n);
        RowPartition { bounds: b }
    }

    /// An even split of `n` rows into `p` parts (the default configuration
    /// in the paper's experiments).
    pub fn even(n: usize, p: usize) -> Self {
        assert!(p >= 1);
        let interior: Vec<usize> = (1..p).map(|i| i * n / p).collect();
        Self::from_boundaries(n, &interior)
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total rows covered.
    pub fn rows(&self) -> usize {
        *self.bounds.last().expect("bounds nonempty")
    }

    /// Row range of part `i`.
    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.bounds[i]..self.bounds[i + 1]
    }

    /// The part owning row `r`.
    pub fn owner(&self, r: usize) -> usize {
        debug_assert!(r < self.rows());
        // bounds is sorted; find the last bound ≤ r.
        match self.bounds.binary_search(&r) {
            Ok(mut i) => {
                // r is itself a boundary; it starts part i — but repeated
                // boundaries (empty parts) mean we must take the last match.
                while i + 1 < self.bounds.len() - 1 && self.bounds[i + 1] == r {
                    i += 1;
                }
                i.min(self.parts() - 1)
            }
            Err(i) => i - 1,
        }
    }

    /// The interior boundaries (for round-tripping to tuner parameters).
    pub fn interior_boundaries(&self) -> &[usize] {
        &self.bounds[1..self.bounds.len() - 1]
    }

    /// Nonzeros owned by each part — the per-iteration SpMV work. O(p):
    /// each part's count is a difference of row pointers.
    pub fn loads(&self, a: &CsrMatrix) -> Vec<usize> {
        assert_eq!(a.rows(), self.rows());
        (0..self.parts())
            .map(|i| a.nnz_in_rows(self.range(i)))
            .collect()
    }

    /// Rows owned by each part.
    pub fn row_counts(&self) -> Vec<usize> {
        (0..self.parts()).map(|i| self.range(i).len()).collect()
    }

    /// Communication volume per part: number of nonzeros in the part's rows
    /// whose column index belongs to a *different* part (remote vector
    /// entries needed each SpMV).
    pub fn comm_volumes(&self, a: &CsrMatrix) -> Vec<usize> {
        assert_eq!(a.rows(), self.rows());
        let mut vols = vec![0usize; self.parts()];
        for (i, vol) in vols.iter_mut().enumerate() {
            for r in self.range(i) {
                let (cols, _) = a.row(r);
                *vol += cols
                    .iter()
                    .filter(|&&c| !self.range(i).contains(&c))
                    .count();
            }
        }
        vols
    }

    /// Total cross-partition nonzeros (the cut size).
    pub fn total_cut(&self, a: &CsrMatrix) -> usize {
        self.comm_volumes(a).iter().sum()
    }

    /// Load imbalance: `max(load)/mean(load)` (1.0 = perfect).
    pub fn load_imbalance(&self, a: &CsrMatrix) -> f64 {
        imbalance(&self.loads(a))
    }
}

/// `max(load)/mean(load)` of per-part loads already in hand (1.0 =
/// perfect, and for no work at all).
pub fn imbalance(loads: &[usize]) -> f64 {
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
    if mean <= 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{clustered_blocks, laplacian_2d};

    #[test]
    fn even_partition_covers_all_rows() {
        let p = RowPartition::even(10, 4);
        assert_eq!(p.parts(), 4);
        assert_eq!(p.row_counts().iter().sum::<usize>(), 10);
        assert_eq!(p.row_counts(), vec![2, 3, 2, 3]);
    }

    #[test]
    fn owner_is_consistent_with_ranges() {
        let p = RowPartition::from_boundaries(20, &[5, 9, 15]);
        for part in 0..p.parts() {
            for r in p.range(part) {
                assert_eq!(p.owner(r), part, "row {r}");
            }
        }
    }

    #[test]
    fn unsorted_boundaries_are_repaired() {
        let p = RowPartition::from_boundaries(20, &[15, 5, 9]);
        assert_eq!(p.interior_boundaries(), &[5, 9, 15]);
    }

    #[test]
    fn empty_parts_are_legal() {
        let p = RowPartition::from_boundaries(10, &[4, 4, 8]);
        assert_eq!(p.row_counts(), vec![4, 0, 4, 2]);
        assert_eq!(p.owner(4), 2); // row 4 starts the first nonempty part after the empty one
    }

    #[test]
    fn loads_sum_to_nnz() {
        let a = laplacian_2d(8, 8);
        let p = RowPartition::even(a.rows(), 4);
        assert_eq!(p.loads(&a).iter().sum::<usize>(), a.nnz());
    }

    #[test]
    fn laplacian_even_split_has_small_cut() {
        let a = laplacian_2d(16, 16);
        let p = RowPartition::even(a.rows(), 4);
        // 1-D strip split of a 2-D grid: cut = 2 interfaces × 2 rows × nx.
        let cut = p.total_cut(&a);
        assert_eq!(cut, 3 * 2 * 16);
        assert!(p.load_imbalance(&a) < 1.05);
    }

    #[test]
    fn cutting_a_dense_block_costs_more() {
        // Blocks of 30/40/30: splitting at block boundaries (30, 70) must
        // beat splitting through the dense middle block (50).
        let a = clustered_blocks(&[30, 40, 30], 0.9, 3);
        let aligned = RowPartition::from_boundaries(100, &[30, 70]);
        let through = RowPartition::from_boundaries(100, &[35, 50]);
        assert!(
            aligned.total_cut(&a) < through.total_cut(&a),
            "aligned={} through={}",
            aligned.total_cut(&a),
            through.total_cut(&a)
        );
    }

    #[test]
    fn comm_volume_zero_for_single_part() {
        let a = laplacian_2d(6, 6);
        let p = RowPartition::even(a.rows(), 1);
        assert_eq!(p.total_cut(&a), 0);
    }
}
