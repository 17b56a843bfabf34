//! Per-op compute kernels with two implementations behind one seam.
//!
//! Every forward/backward op of the tape executes through this module in
//! one of two [`KernelMode`]s:
//!
//! * [`KernelMode::Fast`] — chunked, lane-unrolled loops written so the
//!   autovectorizer can emit SIMD (8-wide `f32` lanes via
//!   `chunks_exact`, no bounds checks in the hot loops), with outputs
//!   written into buffers recycled through a [`BufferPool`] so a
//!   steady-state rollout allocates nothing per step.
//! * [`KernelMode::Scalar`] — the original textbook loops, kept verbatim
//!   as the pinned reference implementation (fresh allocation per op,
//!   `Tensor`-level helpers). `crates/core/tests/kernel_speedup.rs` times
//!   the fast executor against this mode; the parity proptests assert the
//!   two modes agree **bit-for-bit**.
//!
//! Bit-parity is by construction, not by tolerance: every fast kernel
//! accumulates each output element in exactly the same order as its
//! scalar twin (k-ascending for matrix products, r-ascending for
//! transposed/sparse products, sequential for reductions), and uses the
//! same `a == 0.0` skip the scalar loops use. Only memory traffic and
//! instruction-level parallelism differ, never float rounding — which is
//! why swapping the fast kernels in changed no training trajectory, no
//! serve selection, and no checkpoint digest. The backward products
//! also skip the rows of the incoming gradient that are all ±0
//! ([`live_rows`]); that skip is exact too (DESIGN §14).

use crate::sparse::SharedCsr;
use crate::tensor::Tensor;

/// How many `f32` lanes the unrolled inner loops process per iteration.
/// Matches one AVX2 register; on narrower ISAs the autovectorizer splits
/// the chunk, on wider ones it merges two.
pub const LANES: usize = 8;

/// Selects which implementation executes each op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelMode {
    /// Blocked/unrolled kernels with pooled output buffers (the default).
    #[default]
    Fast,
    /// The original scalar loops with per-op allocation — the pinned
    /// reference the fast kernels are benchmarked and parity-tested
    /// against.
    Scalar,
}

/// A free-list of `Vec<f32>` buffers recycled across tape operations.
///
/// [`crate::NoGradTape::truncate`] returns the storage of dropped values
/// here; fast kernels draw their output buffers from it, so a session
/// serving request after request reaches a steady state with no heap
/// allocation per op.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<f32>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffers currently parked in the free list.
    pub fn parked(&self) -> usize {
        self.free.len()
    }

    /// A buffer of exactly `len` zeros, reusing parked capacity when
    /// available.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        match self.free.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => vec![0.0; len],
        }
    }

    /// A buffer initialized to a copy of `src`, reusing parked capacity.
    pub fn take_copy(&mut self, src: &[f32]) -> Vec<f32> {
        match self.free.pop() {
            Some(mut v) => {
                v.clear();
                v.extend_from_slice(src);
                v
            }
            None => src.to_vec(),
        }
    }

    /// Parks a buffer for reuse (zero-capacity buffers are dropped).
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Parks a tensor's storage for reuse.
    pub fn give_tensor(&mut self, t: Tensor) {
        self.give(t.into_data());
    }
}

/// `out[j] += a * b[j]` over a row, unrolled to [`LANES`]-wide chunks.
/// Element order is unchanged versus the plain loop — each `out[j]` sees
/// exactly one fused read-modify-write — so this is bit-identical to the
/// scalar axpy while letting the compiler vectorize it.
#[inline]
pub(crate) fn axpy(out: &mut [f32], a: f32, b: &[f32]) {
    debug_assert_eq!(out.len(), b.len());
    let mut oc = out.chunks_exact_mut(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (o, x) in (&mut oc).zip(&mut bc) {
        for l in 0..LANES {
            o[l] += a * x[l];
        }
    }
    for (o, &x) in oc.into_remainder().iter_mut().zip(bc.remainder()) {
        *o += a * x;
    }
}

/// Four [`axpy`] passes fused into one traversal of `out`: element `j`
/// receives its four terms strictly in pass order (`a[0]`, `a[1]`, `a[2]`,
/// `a[3]`), so the result is bit-identical to four sequential axpy calls
/// while loading and storing `out` once instead of four times.
#[inline]
fn quad_axpy(out: &mut [f32], a: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    let n = out.len();
    // Re-slicing to a shared length lets the bounds checks hoist out of
    // the loop, which is what unlocks vectorization here.
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    for (j, o) in out.iter_mut().enumerate() {
        let mut t = *o;
        t += a[0] * b0[j];
        t += a[1] * b1[j];
        t += a[2] * b2[j];
        t += a[3] * b3[j];
        *o = t;
    }
}

/// [`quad_axpy`] over two independent output rows that share the same
/// four `b` rows, so each `b` row is loaded once per pass instead of once
/// per output row. The two rows never mix — per element the four terms
/// still arrive in pass order — so bit-parity is untouched.
#[inline]
#[allow(clippy::too_many_arguments)]
fn quad_axpy2(
    out0: &mut [f32],
    out1: &mut [f32],
    a0: [f32; 4],
    a1: [f32; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    let n = out0.len();
    let out1 = &mut out1[..n];
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    for (j, o) in out0.iter_mut().enumerate() {
        let (x0, x1, x2, x3) = (b0[j], b1[j], b2[j], b3[j]);
        let mut t = *o;
        t += a0[0] * x0;
        t += a0[1] * x1;
        t += a0[2] * x2;
        t += a0[3] * x3;
        *o = t;
        let mut u = out1[j];
        u += a1[0] * x0;
        u += a1[1] * x1;
        u += a1[2] * x2;
        u += a1[3] * x3;
        out1[j] = u;
    }
}

/// `out[i] = a[i] OP b[i]` without bounds checks in the loop body.
#[inline]
fn zip_map_into(out: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    debug_assert!(out.len() == a.len() && a.len() == b.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// Writes `a · b` into `out` (must be zeroed, `a.rows()*b.cols()` long).
/// Same ikj loop order and `a == 0.0` skip as [`Tensor::matmul`]; each
/// output element accumulates its k-terms in ascending order, so the
/// result is bit-identical to the scalar product.
pub fn matmul_into(out: &mut [f32], a: &Tensor, b: &Tensor) {
    let (m, kk) = a.shape();
    let n = b.cols();
    assert_eq!(kk, b.rows(), "matmul {}x{} by {}x{}", m, kk, b.rows(), n);
    assert_eq!(out.len(), m * n, "matmul output length");
    let ad = a.data();
    let bd = b.data();
    // Two output rows at a time share each loaded quad of `b` rows; four
    // k-terms per pass over an output row, k-ascending inside the quad —
    // still bit-identical to the scalar ikj loop. The all-nonzero test
    // keeps the scalar reference's `a == 0.0` skip semantics exactly.
    let mut i = 0;
    while i + 2 <= m {
        let (orow0, orow1) = out[i * n..(i + 2) * n].split_at_mut(n);
        let arow0 = &ad[i * kk..(i + 1) * kk];
        let arow1 = &ad[(i + 1) * kk..(i + 2) * kk];
        let mut k = 0;
        while k + 4 <= kk {
            let a4_0 = [arow0[k], arow0[k + 1], arow0[k + 2], arow0[k + 3]];
            let a4_1 = [arow1[k], arow1[k + 1], arow1[k + 2], arow1[k + 3]];
            let b0 = &bd[k * n..(k + 1) * n];
            let b1 = &bd[(k + 1) * n..(k + 2) * n];
            let b2 = &bd[(k + 2) * n..(k + 3) * n];
            let b3 = &bd[(k + 3) * n..(k + 4) * n];
            let nz0 = a4_0.iter().all(|&v| v != 0.0);
            let nz1 = a4_1.iter().all(|&v| v != 0.0);
            if nz0 && nz1 {
                quad_axpy2(orow0, orow1, a4_0, a4_1, b0, b1, b2, b3);
            } else {
                row_quad(orow0, a4_0, nz0, b0, b1, b2, b3);
                row_quad(orow1, a4_1, nz1, b0, b1, b2, b3);
            }
            k += 4;
        }
        while k < kk {
            let brow = &bd[k * n..(k + 1) * n];
            if arow0[k] != 0.0 {
                axpy(orow0, arow0[k], brow);
            }
            if arow1[k] != 0.0 {
                axpy(orow1, arow1[k], brow);
            }
            k += 1;
        }
        i += 2;
    }
    if i < m {
        let arow = &ad[i * kk..(i + 1) * kk];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut k = 0;
        while k + 4 <= kk {
            let a4 = [arow[k], arow[k + 1], arow[k + 2], arow[k + 3]];
            row_quad(
                orow,
                a4,
                a4.iter().all(|&v| v != 0.0),
                &bd[k * n..(k + 1) * n],
                &bd[(k + 1) * n..(k + 2) * n],
                &bd[(k + 2) * n..(k + 3) * n],
                &bd[(k + 3) * n..(k + 4) * n],
            );
            k += 4;
        }
        while k < kk {
            let av = arow[k];
            if av != 0.0 {
                axpy(orow, av, &bd[k * n..(k + 1) * n]);
            }
            k += 1;
        }
    }
}

/// One output row's quad step: fused when all four coefficients are
/// nonzero, per-term skip-axpy otherwise (the scalar skip semantics).
#[inline]
#[allow(clippy::too_many_arguments)]
fn row_quad(
    orow: &mut [f32],
    a4: [f32; 4],
    all_nz: bool,
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    if all_nz {
        quad_axpy(orow, a4, b0, b1, b2, b3);
    } else {
        let rows = [b0, b1, b2, b3];
        for (d, &av) in a4.iter().enumerate() {
            if av != 0.0 {
                axpy(orow, av, rows[d]);
            }
        }
    }
}

/// The live rows of a gradient `g`: the indices of its rows that hold at
/// least one nonzero element, ascending, written into `rows`.
///
/// The tape's `Linear` / `Spmm` / `mix` backward runs the `*_rows`
/// products over these rows only, and the result is still exact: every
/// term a dead row contributes is a finite value times ±0, which is ±0,
/// and adding ±0 to an accumulator that starts at +0 and never holds −0
/// changes no bit (DESIGN §14).
pub fn live_rows(g: &Tensor, rows: &mut Vec<u32>) {
    rows.clear();
    if g.cols() == 0 {
        return;
    }
    for (i, grow) in g.data().chunks_exact(g.cols()).enumerate() {
        // OR of the bits below the sign: nonzero unless every element is
        // ±0. Branch-free, so the scan vectorizes.
        if grow.iter().fold(0u32, |acc, v| acc | (v.to_bits() << 1)) != 0 {
            rows.push(i as u32);
        }
    }
}

/// The rows a backward product runs over, ascending: a [`live_rows`]
/// list, or [`AllRows`]. Generic rather than a slice so that the
/// dispatchers ([`matmul_t`], [`t_matmul`], [`col_sum`], [`spmm_t`]) run
/// the same loops over every row with no index list to build.
pub trait RowSet: Copy {
    /// Number of rows in the set.
    fn count(self) -> usize;
    /// The `i`-th row of the set.
    fn at(self, i: usize) -> usize;
}

impl RowSet for &[u32] {
    fn count(self) -> usize {
        self.len()
    }
    fn at(self, i: usize) -> usize {
        self[i] as usize
    }
}

/// Every row of an operand with this many rows.
#[derive(Clone, Copy, Debug)]
pub struct AllRows(pub usize);

impl RowSet for AllRows {
    fn count(self) -> usize {
        self.0
    }
    fn at(self, i: usize) -> usize {
        i
    }
}

/// `a · bᵀ` computed for the listed rows of `a` (ascending, as
/// [`live_rows`] gives them); every other output row is +0.
///
/// [`Tensor::matmul_t`] is the dot-product loop, whose per-output
/// accumulator chain cannot use SIMD lanes without reassociating the sum.
/// Instead `b` is transposed once into a scratch buffer and the product
/// runs in vectorized axpy form — per output element the k-terms still
/// accumulate in ascending order, and **no** zero-skip is applied (the
/// scalar dot product has none), so each computed row is bit-identical to
/// the reference, and a skipped (all-±0) row of `a` leaves the +0 row the
/// reference computes.
pub fn matmul_t_rows(pool: &mut BufferPool, a: &Tensor, b: &Tensor, rows: impl RowSet) -> Tensor {
    let (m, kk) = a.shape();
    let n = b.rows();
    assert_eq!(kk, b.cols(), "matmul_t col mismatch");
    debug_assert!(
        rows.count() == m || b.all_finite(),
        "matmul_t: a skipped row needs a finite b"
    );
    let mut out = pool.take_zeroed(m * n);
    let mut scratch = pool.take_zeroed(kk * n);
    let bd = b.data();
    for j in 0..n {
        for (k, bt) in scratch.chunks_exact_mut(n).enumerate() {
            bt[j] = bd[j * kk + k];
        }
    }
    let ad = a.data();
    let bt = &scratch[..];
    // Two output rows at a time share each loaded quad of `bᵀ` rows.
    let mut p = 0;
    while p + 2 <= rows.count() {
        let (i0, i1) = (rows.at(p), rows.at(p + 1));
        p += 2;
        let (lo, hi) = out.split_at_mut(i1 * n);
        let (orow0, orow1) = (&mut lo[i0 * n..(i0 + 1) * n], &mut hi[..n]);
        let arow0 = &ad[i0 * kk..(i0 + 1) * kk];
        let arow1 = &ad[i1 * kk..(i1 + 1) * kk];
        let mut k = 0;
        while k + 4 <= kk {
            let a4_0 = [arow0[k], arow0[k + 1], arow0[k + 2], arow0[k + 3]];
            let a4_1 = [arow1[k], arow1[k + 1], arow1[k + 2], arow1[k + 3]];
            quad_axpy2(
                orow0,
                orow1,
                a4_0,
                a4_1,
                &bt[k * n..(k + 1) * n],
                &bt[(k + 1) * n..(k + 2) * n],
                &bt[(k + 2) * n..(k + 3) * n],
                &bt[(k + 3) * n..(k + 4) * n],
            );
            k += 4;
        }
        while k < kk {
            let brow = &bt[k * n..(k + 1) * n];
            axpy(orow0, arow0[k], brow);
            axpy(orow1, arow1[k], brow);
            k += 1;
        }
    }
    if p < rows.count() {
        let i = rows.at(p);
        let arow = &ad[i * kk..(i + 1) * kk];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut k = 0;
        while k + 4 <= kk {
            quad_axpy(
                orow,
                [arow[k], arow[k + 1], arow[k + 2], arow[k + 3]],
                &bt[k * n..(k + 1) * n],
                &bt[(k + 1) * n..(k + 2) * n],
                &bt[(k + 2) * n..(k + 3) * n],
                &bt[(k + 3) * n..(k + 4) * n],
            );
            k += 4;
        }
        while k < kk {
            axpy(orow, arow[k], &bt[k * n..(k + 1) * n]);
            k += 1;
        }
    }
    pool.give(scratch);
    Tensor::from_vec(m, n, out)
}

/// `aᵀ · b` summed over the listed rows `r` of both operands (ascending,
/// as [`live_rows`] of `b` gives them). Same rik order and zero-skip as
/// [`Tensor::t_matmul`] — per output element the r-terms accumulate in
/// ascending order.
pub fn t_matmul_rows(pool: &mut BufferPool, a: &Tensor, b: &Tensor, rows: impl RowSet) -> Tensor {
    let (rr, m) = a.shape();
    let n = b.cols();
    assert_eq!(rr, b.rows(), "t_matmul row mismatch");
    debug_assert!(
        rows.count() == rr || a.all_finite(),
        "t_matmul: a skipped row needs a finite a"
    );
    let mut out = pool.take_zeroed(m * n);
    let ad = a.data();
    let bd = b.data();
    // Four r-terms per pass over each output row (r-ascending inside the
    // quad — bit-identical to four sequential passes); the per-coefficient
    // nonzero test preserves the scalar reference's `a == 0.0` skip.
    let mut q = 0;
    while q + 4 <= rows.count() {
        let [r0, r1, r2, r3] = [q, q + 1, q + 2, q + 3].map(|j| rows.at(j));
        q += 4;
        let a0 = &ad[r0 * m..(r0 + 1) * m];
        let a1 = &ad[r1 * m..(r1 + 1) * m];
        let a2 = &ad[r2 * m..(r2 + 1) * m];
        let a3 = &ad[r3 * m..(r3 + 1) * m];
        let b0 = &bd[r0 * n..(r0 + 1) * n];
        let b1 = &bd[r1 * n..(r1 + 1) * n];
        let b2 = &bd[r2 * n..(r2 + 1) * n];
        let b3 = &bd[r3 * n..(r3 + 1) * n];
        // Pairs of output rows reuse the loaded quad of `b` rows.
        let mut i = 0;
        while i + 2 <= m {
            let c4_0 = [a0[i], a1[i], a2[i], a3[i]];
            let c4_1 = [a0[i + 1], a1[i + 1], a2[i + 1], a3[i + 1]];
            let (orow0, orow1) = out[i * n..(i + 2) * n].split_at_mut(n);
            let nz0 = c4_0.iter().all(|&v| v != 0.0);
            let nz1 = c4_1.iter().all(|&v| v != 0.0);
            if nz0 && nz1 {
                quad_axpy2(orow0, orow1, c4_0, c4_1, b0, b1, b2, b3);
            } else {
                row_quad(orow0, c4_0, nz0, b0, b1, b2, b3);
                row_quad(orow1, c4_1, nz1, b0, b1, b2, b3);
            }
            i += 2;
        }
        if i < m {
            let c4 = [a0[i], a1[i], a2[i], a3[i]];
            let orow = &mut out[i * n..(i + 1) * n];
            row_quad(orow, c4, c4.iter().all(|&v| v != 0.0), b0, b1, b2, b3);
        }
    }
    for r in (q..rows.count()).map(|j| rows.at(j)) {
        let arow = &ad[r * m..(r + 1) * m];
        let brow = &bd[r * n..(r + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            axpy(&mut out[i * n..(i + 1) * n], av, brow);
        }
    }
    Tensor::from_vec(m, n, out)
}

/// Column sums of the listed rows of `g` as a 1×m row (ascending, as
/// [`live_rows`] gives them), accumulated in row order like the scalar
/// loop.
pub fn col_sum_rows(pool: &mut BufferPool, g: &Tensor, rows: impl RowSet) -> Tensor {
    let m = g.cols();
    let mut out = pool.take_zeroed(m);
    for r in (0..rows.count()).map(|j| rows.at(j)) {
        for (o, &x) in out.iter_mut().zip(g.row(r)) {
            *o += x;
        }
    }
    Tensor::from_vec(1, m, out)
}

/// `csrᵀ · a` over the listed rows of `a` (ascending, as [`live_rows`]
/// gives them).
pub fn spmm_t_rows(
    pool: &mut BufferPool,
    csr: &SharedCsr,
    a: &Tensor,
    rows: impl RowSet,
) -> Tensor {
    let mut out = pool.take_zeroed(csr.cols() * a.cols());
    csr.t_matmul_rows_into(&mut out, a, rows);
    Tensor::from_vec(csr.cols(), a.cols(), out)
}

/// Dense matrix product `a · b`.
pub fn matmul(mode: KernelMode, pool: &mut BufferPool, a: &Tensor, b: &Tensor) -> Tensor {
    match mode {
        KernelMode::Fast => {
            let mut out = pool.take_zeroed(a.rows() * b.cols());
            matmul_into(&mut out, a, b);
            Tensor::from_vec(a.rows(), b.cols(), out)
        }
        KernelMode::Scalar => a.matmul(b),
    }
}

/// Matrix product `a · bᵀ` (backward of matmul w.r.t. its left operand).
pub fn matmul_t(mode: KernelMode, pool: &mut BufferPool, a: &Tensor, b: &Tensor) -> Tensor {
    match mode {
        KernelMode::Fast => matmul_t_rows(pool, a, b, AllRows(a.rows())),
        KernelMode::Scalar => a.matmul_t(b),
    }
}

/// Matrix product `aᵀ · b` (backward of matmul w.r.t. its right operand).
pub fn t_matmul(mode: KernelMode, pool: &mut BufferPool, a: &Tensor, b: &Tensor) -> Tensor {
    match mode {
        KernelMode::Fast => t_matmul_rows(pool, a, b, AllRows(b.rows())),
        KernelMode::Scalar => a.t_matmul(b),
    }
}

/// Sparse × dense product `csr · a`.
pub fn spmm(mode: KernelMode, pool: &mut BufferPool, csr: &SharedCsr, a: &Tensor) -> Tensor {
    match mode {
        KernelMode::Fast => {
            let mut out = pool.take_zeroed(csr.rows() * a.cols());
            csr.matmul_into(&mut out, a);
            Tensor::from_vec(csr.rows(), a.cols(), out)
        }
        KernelMode::Scalar => csr.matmul(a),
    }
}

/// Transposed sparse × dense product `csrᵀ · a` (backward of [`spmm`]).
pub fn spmm_t(mode: KernelMode, pool: &mut BufferPool, csr: &SharedCsr, a: &Tensor) -> Tensor {
    match mode {
        KernelMode::Fast => spmm_t_rows(pool, csr, a, AllRows(a.rows())),
        KernelMode::Scalar => csr.t_matmul(a),
    }
}

/// Elementwise sum of two same-shape tensors.
pub fn add(mode: KernelMode, pool: &mut BufferPool, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "add shapes");
    match mode {
        KernelMode::Fast => {
            let mut out = pool.take_zeroed(a.len());
            zip_map_into(&mut out, a.data(), b.data(), |x, y| x + y);
            Tensor::from_vec(a.rows(), a.cols(), out)
        }
        KernelMode::Scalar => {
            let mut v = a.clone();
            v.add_assign(b);
            v
        }
    }
}

/// Adds a 1×m row vector to every row of an n×m matrix.
pub fn add_row(mode: KernelMode, pool: &mut BufferPool, a: &Tensor, row: &Tensor) -> Tensor {
    let (n, m) = a.shape();
    assert_eq!(row.shape(), (1, m), "add_row shapes");
    match mode {
        KernelMode::Fast => {
            let mut out = pool.take_copy(a.data());
            let r = row.data();
            for orow in out.chunks_exact_mut(m.max(1)) {
                for (o, &x) in orow.iter_mut().zip(r) {
                    *o += x;
                }
            }
            Tensor::from_vec(n, m, out)
        }
        KernelMode::Scalar => {
            let mut v = a.clone();
            {
                let r = row.data().to_vec();
                let d = v.data_mut();
                for i in 0..n {
                    for j in 0..m {
                        d[i * m + j] += r[j];
                    }
                }
            }
            v
        }
    }
}

/// Elementwise (Hadamard) product.
pub fn mul(mode: KernelMode, pool: &mut BufferPool, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "mul shapes");
    match mode {
        KernelMode::Fast => {
            let mut out = pool.take_zeroed(a.len());
            zip_map_into(&mut out, a.data(), b.data(), |x, y| x * y);
            Tensor::from_vec(a.rows(), a.cols(), out)
        }
        KernelMode::Scalar => {
            let bv = b.data().to_vec();
            let mut v = a.clone();
            for (x, y) in v.data_mut().iter_mut().zip(bv) {
                *x *= y;
            }
            v
        }
    }
}

/// Multiplies by a compile-time constant.
pub fn scale(mode: KernelMode, pool: &mut BufferPool, a: &Tensor, k: f32) -> Tensor {
    map_unary(mode, pool, a, |x| k * x)
}

/// Multiplies a tensor by a trainable 1×1 scalar.
pub fn scalar_mul(mode: KernelMode, pool: &mut BufferPool, s: &Tensor, a: &Tensor) -> Tensor {
    assert_eq!(s.shape(), (1, 1), "scalar_mul gate shape");
    let k = s.data()[0];
    map_unary(mode, pool, a, |x| k * x)
}

/// Fused gated interpolation `s·a + (1−s)·b` with a trainable 1×1 gate.
pub fn mix(mode: KernelMode, pool: &mut BufferPool, s: &Tensor, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(s.shape(), (1, 1), "mix gate shape");
    assert_eq!(a.shape(), b.shape(), "mix shapes");
    let k = s.data()[0];
    match mode {
        KernelMode::Fast => {
            let mut out = pool.take_zeroed(a.len());
            zip_map_into(&mut out, a.data(), b.data(), |x, y| k * x + (1.0 - k) * y);
            Tensor::from_vec(a.rows(), a.cols(), out)
        }
        KernelMode::Scalar => {
            let bv = b.data().to_vec();
            let mut v = a.clone();
            for (x, y) in v.data_mut().iter_mut().zip(bv) {
                *x = k * *x + (1.0 - k) * y;
            }
            v
        }
    }
}

/// Elementwise affine map `k·x + c`.
pub fn affine(mode: KernelMode, pool: &mut BufferPool, a: &Tensor, k: f32, c: f32) -> Tensor {
    map_unary(mode, pool, a, |x| k * x + c)
}

/// Elementwise logistic sigmoid.
pub fn sigmoid(mode: KernelMode, pool: &mut BufferPool, a: &Tensor) -> Tensor {
    map_unary(mode, pool, a, |x| 1.0 / (1.0 + (-x).exp()))
}

/// Elementwise tanh.
pub fn tanh(mode: KernelMode, pool: &mut BufferPool, a: &Tensor) -> Tensor {
    map_unary(mode, pool, a, f32::tanh)
}

/// Elementwise ReLU.
pub fn relu(mode: KernelMode, pool: &mut BufferPool, a: &Tensor) -> Tensor {
    map_unary(mode, pool, a, |x| x.max(0.0))
}

/// Shared unary elementwise dispatch: the fast path writes through a
/// pooled buffer, the scalar path is [`Tensor::map`] (fresh collect) —
/// identical math per element either way.
fn map_unary(
    mode: KernelMode,
    pool: &mut BufferPool,
    a: &Tensor,
    f: impl Fn(f32) -> f32,
) -> Tensor {
    match mode {
        KernelMode::Fast => {
            // Single pass: compute straight into the pooled buffer instead
            // of memcpy-then-mutate.
            let mut out = pool.take_zeroed(0);
            out.extend(a.data().iter().map(|&x| f(x)));
            Tensor::from_vec(a.rows(), a.cols(), out)
        }
        KernelMode::Scalar => a.map(f),
    }
}

/// Gathers the given rows of `a` into a new (k×m) tensor.
pub fn gather_rows(mode: KernelMode, pool: &mut BufferPool, a: &Tensor, rows: &[u32]) -> Tensor {
    let (n, m) = a.shape();
    match mode {
        KernelMode::Fast => {
            let mut out = pool.take_zeroed(rows.len() * m);
            for (i, &r) in rows.iter().enumerate() {
                assert!((r as usize) < n, "gather row out of bounds");
                out[i * m..(i + 1) * m].copy_from_slice(a.row(r as usize));
            }
            Tensor::from_vec(rows.len(), m, out)
        }
        KernelMode::Scalar => {
            let mut v = Tensor::zeros(rows.len(), m);
            for (i, &r) in rows.iter().enumerate() {
                assert!((r as usize) < n, "gather row out of bounds");
                let src = a.row(r as usize).to_vec();
                v.data_mut()[i * m..(i + 1) * m].copy_from_slice(&src);
            }
            v
        }
    }
}

/// Extracts element `(r, c)` as a 1×1 tensor.
pub fn pick(_mode: KernelMode, _pool: &mut BufferPool, a: &Tensor, r: usize, c: usize) -> Tensor {
    Tensor::from_vec(1, 1, vec![a.at(r, c)])
}

/// Masked log-softmax over all elements of `a` (treated flat). Masked-out
/// entries get `-∞`.
pub fn masked_log_softmax(
    mode: KernelMode,
    pool: &mut BufferPool,
    value: &Tensor,
    mask: &[bool],
) -> Tensor {
    assert_eq!(mask.len(), value.len(), "mask length");
    assert!(mask.iter().any(|&m| m), "all entries masked");
    let mut max = f32::NEG_INFINITY;
    for (i, &x) in value.data().iter().enumerate() {
        if mask[i] && x > max {
            max = x;
        }
    }
    let mut lse = 0.0f32;
    for (i, &x) in value.data().iter().enumerate() {
        if mask[i] {
            lse += (x - max).exp();
        }
    }
    let lse = lse.ln() + max;
    let (r, c) = value.shape();
    match mode {
        KernelMode::Fast => {
            let mut out = pool.take_zeroed(value.len());
            for ((o, &x), &m) in out.iter_mut().zip(value.data()).zip(mask) {
                *o = if m { x - lse } else { f32::NEG_INFINITY };
            }
            Tensor::from_vec(r, c, out)
        }
        KernelMode::Scalar => {
            let data: Vec<f32> = value
                .data()
                .iter()
                .enumerate()
                .map(|(i, &x)| if mask[i] { x - lse } else { f32::NEG_INFINITY })
                .collect();
            Tensor::from_vec(r, c, data)
        }
    }
}

/// `Σ g·(a − b)` over the listed rows (ascending, as [`live_rows`] gives
/// them): the gate gradient of [`mix`], accumulated element by element
/// in row-major order like the scalar loop. A skipped row's terms are
/// ±0 as long as `a − b` is finite.
pub fn mix_gate_grad_rows(g: &Tensor, a: &Tensor, b: &Tensor, rows: &[u32]) -> f32 {
    debug_assert!(
        rows.len() == g.rows()
            || a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| (x - y).is_finite()),
        "mix: a skipped row needs a finite a − b"
    );
    let mut gs = 0.0f32;
    for &r in rows {
        let r = r as usize;
        for ((gi, ai), bi) in g.row(r).iter().zip(a.row(r)).zip(b.row(r)) {
            gs += gi * (ai - bi);
        }
    }
    gs
}

/// Fused dense layer `x·w + b` (one op instead of matmul + add_row).
/// Bit-identical to the decomposition: the product accumulates first
/// (k-ascending), then the bias adds — the same per-element order the
/// two-op form produced.
pub fn linear(
    mode: KernelMode,
    pool: &mut BufferPool,
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
) -> Tensor {
    let (n, m) = (x.rows(), w.cols());
    assert_eq!(b.shape(), (1, m), "linear bias shape");
    match mode {
        KernelMode::Fast => {
            let mut out = pool.take_zeroed(n * m);
            matmul_into(&mut out, x, w);
            let bd = b.data();
            for orow in out.chunks_exact_mut(m.max(1)) {
                for (o, &bv) in orow.iter_mut().zip(bd) {
                    *o += bv;
                }
            }
            Tensor::from_vec(n, m, out)
        }
        KernelMode::Scalar => {
            // The original two-op sequence, allocation for allocation.
            let h = x.matmul(w);
            add_row(KernelMode::Scalar, pool, &h, b)
        }
    }
}

/// Fused gate pre-activation `x·wx + h·wh + b` — the LSTM/GRU gate body
/// (previously four tape ops: two matmuls, an add, an add_row) in one op.
/// The two products accumulate into separate buffers and then combine,
/// preserving the exact `(Σx·wx) + (Σh·wh) + b` ordering of the
/// decomposed form.
pub fn linear2(
    mode: KernelMode,
    pool: &mut BufferPool,
    x: &Tensor,
    wx: &Tensor,
    h: &Tensor,
    wh: &Tensor,
    b: &Tensor,
) -> Tensor {
    let (n, m) = (x.rows(), wx.cols());
    assert_eq!(h.rows(), n, "linear2 row mismatch");
    assert_eq!(wh.cols(), m, "linear2 width mismatch");
    assert_eq!(b.shape(), (1, m), "linear2 bias shape");
    match mode {
        KernelMode::Fast => {
            let mut out = pool.take_zeroed(n * m);
            matmul_into(&mut out, x, wx);
            let mut hs = pool.take_zeroed(n * m);
            matmul_into(&mut hs, h, wh);
            for (o, &y) in out.iter_mut().zip(hs.iter()) {
                *o += y;
            }
            pool.give(hs);
            let bd = b.data();
            for orow in out.chunks_exact_mut(m.max(1)) {
                for (o, &bv) in orow.iter_mut().zip(bd) {
                    *o += bv;
                }
            }
            Tensor::from_vec(n, m, out)
        }
        KernelMode::Scalar => {
            // The original four-op sequence.
            let xs = x.matmul(wx);
            let hs = h.matmul(wh);
            let s = add(KernelMode::Scalar, pool, &xs, &hs);
            add_row(KernelMode::Scalar, pool, &s, b)
        }
    }
}

/// Column sums of an n×m matrix as a 1×m row (backward of the broadcast
/// bias add). Rows accumulate in ascending order, like the scalar loop.
pub fn col_sum(mode: KernelMode, pool: &mut BufferPool, g: &Tensor) -> Tensor {
    let (n, m) = g.shape();
    match mode {
        KernelMode::Fast => col_sum_rows(pool, g, AllRows(g.rows())),
        KernelMode::Scalar => {
            let mut gr = Tensor::zeros(1, m);
            for i in 0..n {
                for j in 0..m {
                    gr.data_mut()[j] += g.at(i, j);
                }
            }
            gr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, seed: u32) -> Tensor {
        // Deterministic pseudo-random fill with some exact zeros so the
        // zero-skip path executes.
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let v = ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 8) as f32;
                let x = v / 8_388_608.0 - 1.0;
                if i % 7 == 3 {
                    0.0
                } else {
                    x
                }
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn fast_products_bit_match_scalar() {
        let mut pool = BufferPool::new();
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (8, 8, 8), (13, 17, 9), (0, 4, 6)] {
            let a = t(m, k, 1);
            let b = t(k, n, 2);
            let fast = matmul(KernelMode::Fast, &mut pool, &a, &b);
            let slow = matmul(KernelMode::Scalar, &mut pool, &a, &b);
            assert_eq!(fast.data(), slow.data(), "matmul {m}x{k}x{n}");
            let bt = t(n, k, 3);
            let fast = matmul_t(KernelMode::Fast, &mut pool, &a, &bt);
            let slow = matmul_t(KernelMode::Scalar, &mut pool, &a, &bt);
            assert_eq!(fast.data(), slow.data(), "matmul_t {m}x{k}x{n}");
            let g = t(m, n, 4);
            let fast = t_matmul(KernelMode::Fast, &mut pool, &a, &g);
            let slow = t_matmul(KernelMode::Scalar, &mut pool, &a, &g);
            assert_eq!(fast.data(), slow.data(), "t_matmul {m}x{k}x{n}");
        }
    }

    #[test]
    fn fused_linear_ops_bit_match_their_decompositions() {
        let mut pool = BufferPool::new();
        let x = t(9, 5, 10);
        let w = t(5, 11, 11);
        let b = t(1, 11, 12);
        let fast = linear(KernelMode::Fast, &mut pool, &x, &w, &b);
        let slow = linear(KernelMode::Scalar, &mut pool, &x, &w, &b);
        assert_eq!(fast.data(), slow.data());
        let h = t(9, 6, 13);
        let wh = t(6, 11, 14);
        let fast = linear2(KernelMode::Fast, &mut pool, &x, &w, &h, &wh, &b);
        let slow = linear2(KernelMode::Scalar, &mut pool, &x, &w, &h, &wh, &b);
        assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn pool_recycles_capacity() {
        let mut pool = BufferPool::new();
        let a = pool.take_zeroed(64);
        let ptr = a.as_ptr();
        pool.give(a);
        assert_eq!(pool.parked(), 1);
        let b = pool.take_zeroed(32);
        assert_eq!(b.as_ptr(), ptr, "buffer was not recycled");
        assert_eq!(b.len(), 32);
        assert!(b.iter().all(|&v| v == 0.0));
        let c = pool.take_copy(&[1.0, 2.0]);
        assert_eq!(c, vec![1.0, 2.0]);
        pool.give(Vec::new());
        assert_eq!(pool.parked(), 0, "empty buffers are not parked");
    }
}
