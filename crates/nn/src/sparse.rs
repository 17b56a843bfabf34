//! CSR sparse matrices (constants in the autodiff graph).
//!
//! EP-GNN's neighbourhood aggregation and fan-in-cone readout are sparse
//! matrix × dense feature products; the sparse operand never needs a
//! gradient, so CSR matrices live outside the tape and ops reference them
//! via `Arc`.

use crate::kernels::RowSet;
use crate::tensor::Tensor;
use std::sync::Arc;

/// A compressed-sparse-row matrix with `f32` weights.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix from raw parts.
    ///
    /// # Panics
    /// Panics if the parts are inconsistent (lengths, a decreasing
    /// `indptr`, column bounds).
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: Vec<u32>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length");
        assert_eq!(indices.len(), values.len(), "indices/values length");
        assert_eq!(
            *indptr.last().expect("non-empty indptr") as usize,
            indices.len()
        );
        assert!(
            indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr must be non-decreasing"
        );
        assert!(
            indices.iter().all(|&c| (c as usize) < cols),
            "column index out of bounds"
        );
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row `i` as its column indices and weights, in stored order.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.indptr[i] as usize, self.indptr[i + 1] as usize);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// The rows `rows` of `self` over the columns `cols` (ascending, no
    /// repeats): a `rows.len() × cols.len()` matrix whose row `i` is
    /// `self.row(rows[i])` with every column renumbered to its position in
    /// `cols`. Each row keeps its stored column order, so a product with
    /// the `cols` rows of a dense operand accumulates exactly as the full
    /// product does for that row.
    ///
    /// # Panics
    /// Panics if a selected row stores a column that `cols` does not name.
    pub fn row_subset(&self, rows: &[u32], cols: &[u32]) -> Csr {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for &r in rows {
            let (row_cols, row_values) = self.row(r as usize);
            for c in row_cols {
                let at = cols.binary_search(c).expect("row_subset column not kept");
                indices.push(at as u32);
            }
            values.extend_from_slice(row_values);
            indptr.push(indices.len() as u32);
        }
        Csr::new(rows.len(), cols.len(), indptr, indices, values)
    }

    /// Sparse × dense product: `self (r×c) · dense (c×m) → (r×m)`.
    ///
    /// # Panics
    /// Panics if `dense.rows() != self.cols()`.
    pub fn matmul(&self, dense: &Tensor) -> Tensor {
        assert_eq!(dense.rows(), self.cols, "spmm inner dimension");
        let m = dense.cols();
        let mut out = Tensor::zeros(self.rows, m);
        let dd = dense.data();
        let od = out.data_mut();
        for r in 0..self.rows {
            let (s, e) = (self.indptr[r] as usize, self.indptr[r + 1] as usize);
            let dst = r * m;
            for k in s..e {
                let c = self.indices[k] as usize;
                let w = self.values[k];
                let src = c * m;
                for j in 0..m {
                    od[dst + j] += w * dd[src + j];
                }
            }
        }
        out
    }

    /// Like [`Csr::matmul`] but accumulates into a caller-provided zeroed
    /// buffer of length `self.rows() * dense.cols()`. The inner row update
    /// runs through the lane-unrolled axpy, which keeps the same
    /// (r, k)-ascending per-element accumulation order as [`Csr::matmul`],
    /// so the result is bit-identical while the loop vectorizes.
    pub fn matmul_into(&self, out: &mut [f32], dense: &Tensor) {
        assert_eq!(dense.rows(), self.cols, "spmm inner dimension");
        let m = dense.cols();
        assert_eq!(out.len(), self.rows * m, "spmm output length");
        let dd = dense.data();
        for r in 0..self.rows {
            let (s, e) = (self.indptr[r] as usize, self.indptr[r + 1] as usize);
            let orow = &mut out[r * m..(r + 1) * m];
            for k in s..e {
                let c = self.indices[k] as usize;
                crate::kernels::axpy(orow, self.values[k], &dd[c * m..(c + 1) * m]);
            }
        }
    }

    /// Like [`Csr::t_matmul`] but accumulates into a caller-provided zeroed
    /// buffer of length `self.cols() * dense.cols()`, over the rows in
    /// `rows` only (ascending, e.g. [`crate::kernels::live_rows`]). A
    /// skipped row of all-±0 `dense` adds only ±0 terms, so the result is
    /// bit-identical to the allocating form (same accumulation order,
    /// unrolled inner loop).
    pub fn t_matmul_rows_into(&self, out: &mut [f32], dense: &Tensor, rows: impl RowSet) {
        assert_eq!(dense.rows(), self.rows, "spmm-t inner dimension");
        let m = dense.cols();
        assert_eq!(out.len(), self.cols * m, "spmm-t output length");
        debug_assert!(
            rows.count() == self.rows || self.values.iter().all(|v| v.is_finite()),
            "spmm-t: a skipped row needs finite weights"
        );
        let dd = dense.data();
        for r in (0..rows.count()).map(|j| rows.at(j)) {
            let (s, e) = (self.indptr[r] as usize, self.indptr[r + 1] as usize);
            let src = &dd[r * m..(r + 1) * m];
            for k in s..e {
                let c = self.indices[k] as usize;
                crate::kernels::axpy(&mut out[c * m..(c + 1) * m], self.values[k], src);
            }
        }
    }

    /// Transposed sparse × dense product: `selfᵀ (c×r) · dense (r×m) → (c×m)`.
    /// This is the backward pass of [`Csr::matmul`] with respect to the dense
    /// operand.
    pub fn t_matmul(&self, dense: &Tensor) -> Tensor {
        assert_eq!(dense.rows(), self.rows, "spmm-t inner dimension");
        let m = dense.cols();
        let mut out = Tensor::zeros(self.cols, m);
        let dd = dense.data();
        let od = out.data_mut();
        for r in 0..self.rows {
            let (s, e) = (self.indptr[r] as usize, self.indptr[r + 1] as usize);
            let src = r * m;
            for k in s..e {
                let c = self.indices[k] as usize;
                let w = self.values[k];
                let dst = c * m;
                for j in 0..m {
                    od[dst + j] += w * dd[src + j];
                }
            }
        }
        out
    }
}

/// Shared handle used by tape ops.
pub type SharedCsr = Arc<Csr>;

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Csr {
        // [[1, 0, 2],
        //  [0, 3, 0]]
        Csr::new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])
    }

    #[test]
    fn spmm_matches_dense() {
        let s = example();
        let d = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = s.matmul(&d);
        assert_eq!(out.data(), &[11.0, 14.0, 9.0, 12.0]);
        assert_eq!(s.nnz(), 3);
        assert_eq!((s.rows(), s.cols()), (2, 3));
    }

    #[test]
    fn transposed_spmm_matches_dense() {
        let s = example();
        let d = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let out = s.t_matmul(&d);
        // sᵀ = [[1,0],[0,3],[2,0]]
        assert_eq!(out.data(), &[1.0, 2.0, 9.0, 12.0, 2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "column index out of bounds")]
    fn bad_column_panics() {
        let _ = Csr::new(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "indptr must be non-decreasing")]
    fn decreasing_indptr_panics() {
        // Lengths and the last entry are consistent; only the order is
        // wrong, which used to surface as a slice panic inside a product.
        let _ = Csr::new(2, 2, vec![0, 2, 1], vec![0], vec![1.0]);
    }

    #[test]
    fn row_subset_keeps_column_order_and_products() {
        // Row 1 stores its columns out of ascending order on purpose.
        let s = Csr::new(
            3,
            4,
            vec![0, 2, 5, 6],
            vec![0, 3, 2, 0, 1, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        );
        assert_eq!(s.row(1), (&[2u32, 0, 1][..], &[3.0f32, 4.0, 5.0][..]));
        let sub = s.row_subset(&[2, 1], &[0, 1, 2, 3]);
        assert_eq!(sub.row(0), s.row(2));
        assert_eq!(sub.row(1), s.row(1));
        // Dropping the unused column renumbers the rest.
        let sub = s.row_subset(&[1], &[0, 1, 2]);
        assert_eq!((sub.rows(), sub.cols()), (1, 3));
        assert_eq!(sub.row(0), (&[2u32, 0, 1][..], &[3.0f32, 4.0, 5.0][..]));
        let d = Tensor::from_vec(4, 1, vec![0.3, -1.7, 2.9, 0.11]);
        let compact = Tensor::from_vec(3, 1, d.data()[..3].to_vec());
        let full = s.matmul(&d);
        assert_eq!(
            sub.matmul(&compact).data()[0].to_bits(),
            full.data()[1].to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "row_subset column not kept")]
    fn row_subset_rejects_a_dropped_column() {
        let _ = example().row_subset(&[0], &[0, 1]);
    }
}
