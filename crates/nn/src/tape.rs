//! Reverse-mode automatic differentiation on a tape of tensor operations.
//!
//! A forward pass is a sequence of [`Op`]s, each over the [`Var`]s of
//! earlier results. The op set is exactly what the RL-CCD networks need:
//! dense/sparse matrix products, broadcasting adds, elementwise
//! nonlinearities, gather/pick, a trainable-scalar gate, a masked
//! log-softmax for the pointer-attention decoder, and fused linear layers
//! ([`Op::Linear`], [`Op::Linear2`]) for the dense/recurrent gate bodies.
//!
//! [`TapeOps`] is the one forward op set: an executor supplies `leaf`,
//! `value`, `kernel_mode` and `apply(op)`, and every op method is a
//! provided one-liner that hands its [`Op`] to `apply`. Both executors
//! compute an op's value through the same private `eval` — the only
//! forward call site of each kernel in [`crate::kernels`] — which is what
//! makes training-mode and inference-mode forwards bit-identical. A
//! [`Tape`] keeps each op next to its value, and [`Tape::backward`] replays
//! them in reverse, producing gradients for every recorded variable.
//! [`NoGradTape`] drops the op and keeps only the value (nothing to replay,
//! nothing for a backward pass to walk), and supports
//! [`NoGradTape::truncate`] so a session can reclaim one request's values
//! before the next.
//!
//! Each executor runs in a [`KernelMode`]: `Fast` (the default) executes
//! the blocked kernels over buffers recycled through an internal
//! [`BufferPool`] — [`NoGradTape::truncate`] returns dropped values to the
//! pool, so a session serving request after request allocates nothing per
//! op. [`Tape::scalar_reference`] / [`NoGradTape::scalar_reference`]
//! select the original scalar loops (per-op allocation, fused ops recorded
//! as their multi-op decompositions) as a pinned baseline; the two modes
//! agree bit-for-bit on every value and gradient, which the kernel parity
//! proptests assert.

use crate::kernels::{self, BufferPool, KernelMode};
use crate::sparse::SharedCsr;
use crate::tensor::Tensor;
use std::sync::Arc;

/// Handle to a tensor recorded on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// Raw node index (stable for the lifetime of the tape).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One forward operation over recorded variables: what
/// [`TapeOps::apply`] evaluates, and what a [`Tape`] keeps beside each
/// value for [`Tape::backward`]. Leaves (inputs and parameters) are not
/// ops. Each variant names the [`TapeOps`] method that builds it; shape
/// mismatches and out-of-bounds indices panic when the op is applied.
#[derive(Debug)]
pub enum Op {
    /// Dense matrix product `a · b`.
    Matmul(Var, Var),
    /// Sparse × dense product `csr · a` (no gradient flows to the CSR).
    Spmm(SharedCsr, Var),
    /// Elementwise sum of two same-shape tensors.
    Add(Var, Var),
    /// Adds a 1×m row vector to every row of an n×m matrix.
    AddRow(Var, Var),
    /// Elementwise (Hadamard) product.
    Mul(Var, Var),
    /// Multiplies by a constant.
    Scale(Var, f32),
    /// Multiplies a tensor (second) by a trainable 1×1 scalar (first).
    ScalarMul(Var, Var),
    /// Elementwise affine map `k·x + c`.
    Affine(Var, f32, f32),
    /// Elementwise logistic sigmoid.
    Sigmoid(Var),
    /// Elementwise tanh.
    Tanh(Var),
    /// Elementwise ReLU.
    Relu(Var),
    /// The given rows of one variable, as a new (k×m) tensor.
    GatherRows(Var, Arc<Vec<u32>>),
    /// Element `(r, c)` as a 1×1 tensor.
    Pick(Var, usize, usize),
    /// Masked log-softmax over all elements (treated flat).
    MaskedLogSoftmax(Var, Arc<Vec<bool>>),
    /// Gated interpolation `s·a + (1−s)·b` with a trainable 1×1 gate `s`.
    Mix(Var, Var, Var),
    /// Fused dense layer `x·w + b`.
    Linear(Var, Var, Var),
    /// Fused gate pre-activation `x·wx + h·wh + b`.
    Linear2(Var, Var, Var, Var, Var),
}

/// Computes `op`'s value from its operands' values: the one forward call
/// site of every kernel, shared by both executors.
fn eval<'a>(
    mode: KernelMode,
    pool: &mut BufferPool,
    value: impl Fn(Var) -> &'a Tensor,
    op: &Op,
) -> Tensor {
    match op {
        Op::Matmul(a, b) => kernels::matmul(mode, pool, value(*a), value(*b)),
        Op::Spmm(csr, a) => kernels::spmm(mode, pool, csr, value(*a)),
        Op::Add(a, b) => kernels::add(mode, pool, value(*a), value(*b)),
        Op::AddRow(a, row) => kernels::add_row(mode, pool, value(*a), value(*row)),
        Op::Mul(a, b) => kernels::mul(mode, pool, value(*a), value(*b)),
        Op::Scale(a, k) => kernels::scale(mode, pool, value(*a), *k),
        Op::ScalarMul(s, a) => kernels::scalar_mul(mode, pool, value(*s), value(*a)),
        Op::Affine(a, k, c) => kernels::affine(mode, pool, value(*a), *k, *c),
        Op::Sigmoid(a) => kernels::sigmoid(mode, pool, value(*a)),
        Op::Tanh(a) => kernels::tanh(mode, pool, value(*a)),
        Op::Relu(a) => kernels::relu(mode, pool, value(*a)),
        Op::GatherRows(a, rows) => kernels::gather_rows(mode, pool, value(*a), rows),
        Op::Pick(a, r, c) => kernels::pick(mode, pool, value(*a), *r, *c),
        Op::MaskedLogSoftmax(a, mask) => kernels::masked_log_softmax(mode, pool, value(*a), mask),
        Op::Mix(s, a, b) => kernels::mix(mode, pool, value(*s), value(*a), value(*b)),
        Op::Linear(x, w, b) => kernels::linear(mode, pool, value(*x), value(*w), value(*b)),
        Op::Linear2(x, wx, h, wh, b) => kernels::linear2(
            mode,
            pool,
            value(*x),
            value(*wx),
            value(*h),
            value(*wh),
            value(*b),
        ),
    }
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    /// The op that computed `value`; `None` for a leaf.
    op: Option<Op>,
}

/// The autodiff tape: a growing list of computed tensors plus the [`Op`]
/// that produced each.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    mode: KernelMode,
    pool: BufferPool,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss with respect to `v`, if it received any.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.index()).and_then(|g| g.as_ref())
    }

    /// Takes ownership of the gradient for `v`.
    pub fn take(&mut self, v: Var) -> Option<Tensor> {
        self.grads.get_mut(v.index()).and_then(|g| g.take())
    }
}

/// `clone()` that draws from the pool in fast mode.
fn clone_grad(mode: KernelMode, pool: &mut BufferPool, g: &Tensor) -> Tensor {
    match mode {
        KernelMode::Fast => Tensor::from_vec(g.rows(), g.cols(), pool.take_copy(g.data())),
        KernelMode::Scalar => g.clone(),
    }
}

/// `Tensor::zeros()` that draws from the pool in fast mode.
fn zeroed(mode: KernelMode, pool: &mut BufferPool, rows: usize, cols: usize) -> Tensor {
    match mode {
        KernelMode::Fast => Tensor::from_vec(rows, cols, pool.take_zeroed(rows * cols)),
        KernelMode::Scalar => Tensor::zeros(rows, cols),
    }
}

/// Parks a finished gradient buffer in fast mode; plain drop in scalar
/// mode (the reference implementation never pools).
fn recycle(mode: KernelMode, pool: &mut BufferPool, t: Tensor) {
    if mode == KernelMode::Fast {
        pool.give_tensor(t);
    }
}

impl Tape {
    /// An empty tape running the fast kernels.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tape running the original scalar loops — the pinned
    /// reference implementation the fast kernels are parity-tested and
    /// benchmarked against. Fused ops record their multi-op
    /// decompositions, reproducing the pre-fusion tape exactly.
    pub fn scalar_reference() -> Self {
        Self {
            mode: KernelMode::Scalar,
            ..Self::default()
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records an input/parameter tensor.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, None)
    }

    /// The value of a recorded variable.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.index()].value
    }

    fn push(&mut self, value: Tensor, op: Option<Op>) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Runs reverse-mode differentiation from `loss` (which must be 1×1)
    /// and returns the gradient of every variable that participates.
    ///
    /// Gradient temporaries cycle through a per-call buffer pool in fast
    /// mode, so a backward pass performs O(live gradients) allocations
    /// rather than O(ops).
    ///
    /// # Panics
    /// Panics if `loss` is not a scalar.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        rl_ccd_obs::counter!("nn.tape.backward_passes", 1);
        rl_ccd_obs::counter!("nn.tape.backward_nodes", self.nodes.len());
        let mode = self.mode;
        let mut pool = BufferPool::new();
        let pool = &mut pool;
        let mut live = LiveRows::default();
        let mut gate_rows = Vec::new();
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.index()] = Some(Tensor::from_vec(1, 1, vec![1.0]));
        for idx in (0..self.nodes.len()).rev() {
            let g = match grads[idx].take() {
                Some(g) => g,
                None => continue,
            };
            let node = &self.nodes[idx];
            let Some(op) = &node.op else {
                grads[idx] = Some(g);
                continue;
            };
            match op {
                Op::Matmul(a, b) => {
                    let ga = kernels::matmul_t(mode, pool, &g, &self.nodes[b.index()].value);
                    let gb = kernels::t_matmul(mode, pool, &self.nodes[a.index()].value, &g);
                    accumulate(&mut grads, mode, pool, *a, ga);
                    accumulate(&mut grads, mode, pool, *b, gb);
                    recycle(mode, pool, g);
                }
                Op::Spmm(csr, a) => {
                    let ga = match mode {
                        KernelMode::Fast => kernels::spmm_t_rows(pool, csr, &g, live.scan(&g)),
                        KernelMode::Scalar => kernels::spmm_t(mode, pool, csr, &g),
                    };
                    accumulate(&mut grads, mode, pool, *a, ga);
                    recycle(mode, pool, g);
                }
                Op::Add(a, b) => {
                    let ga = clone_grad(mode, pool, &g);
                    accumulate(&mut grads, mode, pool, *a, ga);
                    accumulate(&mut grads, mode, pool, *b, g);
                }
                Op::AddRow(a, row) => {
                    let gr = kernels::col_sum(mode, pool, &g);
                    accumulate(&mut grads, mode, pool, *a, g);
                    accumulate(&mut grads, mode, pool, *row, gr);
                }
                Op::Mul(a, b) => {
                    let mut ga = clone_grad(mode, pool, &g);
                    for (x, y) in ga
                        .data_mut()
                        .iter_mut()
                        .zip(self.nodes[b.index()].value.data())
                    {
                        *x *= y;
                    }
                    let mut gb = g;
                    for (x, y) in gb
                        .data_mut()
                        .iter_mut()
                        .zip(self.nodes[a.index()].value.data())
                    {
                        *x *= y;
                    }
                    accumulate(&mut grads, mode, pool, *a, ga);
                    accumulate(&mut grads, mode, pool, *b, gb);
                }
                Op::Scale(a, k) => {
                    let mut ga = g;
                    ga.scale_assign(*k);
                    accumulate(&mut grads, mode, pool, *a, ga);
                }
                Op::ScalarMul(s, a) => {
                    let k = self.nodes[s.index()].value.data()[0];
                    let mut gs = 0.0f32;
                    for (gi, ai) in g.data().iter().zip(self.nodes[a.index()].value.data()) {
                        gs += gi * ai;
                    }
                    let mut ga = g;
                    ga.scale_assign(k);
                    accumulate(&mut grads, mode, pool, *a, ga);
                    accumulate(&mut grads, mode, pool, *s, Tensor::from_vec(1, 1, vec![gs]));
                }
                Op::Affine(a, k, _c) => {
                    let mut ga = g;
                    ga.scale_assign(*k);
                    accumulate(&mut grads, mode, pool, *a, ga);
                }
                Op::Sigmoid(a) => {
                    let mut ga = g;
                    for (x, y) in ga.data_mut().iter_mut().zip(node.value.data()) {
                        *x *= y * (1.0 - y);
                    }
                    accumulate(&mut grads, mode, pool, *a, ga);
                }
                Op::Tanh(a) => {
                    let mut ga = g;
                    for (x, y) in ga.data_mut().iter_mut().zip(node.value.data()) {
                        *x *= 1.0 - y * y;
                    }
                    accumulate(&mut grads, mode, pool, *a, ga);
                }
                Op::Relu(a) => {
                    let mut ga = g;
                    for (x, y) in ga.data_mut().iter_mut().zip(node.value.data()) {
                        if *y <= 0.0 {
                            *x = 0.0;
                        }
                    }
                    accumulate(&mut grads, mode, pool, *a, ga);
                }
                Op::GatherRows(a, rows) => {
                    let (n, m) = self.nodes[a.index()].value.shape();
                    let mut ga = zeroed(mode, pool, n, m);
                    for (i, &r) in rows.iter().enumerate() {
                        let dst = r as usize * m;
                        for j in 0..m {
                            ga.data_mut()[dst + j] += g.at(i, j);
                        }
                    }
                    accumulate(&mut grads, mode, pool, *a, ga);
                    recycle(mode, pool, g);
                }
                Op::Pick(a, r, c) => {
                    let (n, m) = self.nodes[a.index()].value.shape();
                    let mut ga = zeroed(mode, pool, n, m);
                    ga.set(*r, *c, g.data()[0]);
                    accumulate(&mut grads, mode, pool, *a, ga);
                    recycle(mode, pool, g);
                }
                Op::Mix(s, a, b) => {
                    let k = self.nodes[s.index()].value.data()[0];
                    let av = &self.nodes[a.index()].value;
                    let bv = &self.nodes[b.index()].value;
                    let gs = match mode {
                        KernelMode::Fast => {
                            kernels::live_rows(&g, &mut gate_rows);
                            kernels::mix_gate_grad_rows(&g, av, bv, &gate_rows)
                        }
                        KernelMode::Scalar => {
                            let mut gs = 0.0f32;
                            for ((gi, ai), bi) in g.data().iter().zip(av.data()).zip(bv.data()) {
                                gs += gi * (ai - bi);
                            }
                            gs
                        }
                    };
                    let mut ga = clone_grad(mode, pool, &g);
                    ga.scale_assign(k);
                    let mut gb = g;
                    gb.scale_assign(1.0 - k);
                    accumulate(&mut grads, mode, pool, *a, ga);
                    accumulate(&mut grads, mode, pool, *b, gb);
                    accumulate(&mut grads, mode, pool, *s, Tensor::from_vec(1, 1, vec![gs]));
                }
                Op::MaskedLogSoftmax(a, mask) => {
                    // d logp_i / d x_j = δ_ij − p_j (valid j).
                    let mut gsum = 0.0f32;
                    for (i, &gi) in g.data().iter().enumerate() {
                        if mask[i] {
                            gsum += gi;
                        }
                    }
                    let (n, m) = node.value.shape();
                    let mut ga = zeroed(mode, pool, n, m);
                    for i in 0..mask.len() {
                        if mask[i] {
                            let p = node.value.data()[i].exp();
                            ga.data_mut()[i] = g.data()[i] - p * gsum;
                        }
                    }
                    accumulate(&mut grads, mode, pool, *a, ga);
                    recycle(mode, pool, g);
                }
                Op::Linear(x, w, b) => {
                    // Exactly the decomposed add_row + matmul backward flow,
                    // over the live rows of `g` (only the fast lane records
                    // this op): gb = colsum(g), gx = g·wᵀ, gw = xᵀ·g.
                    let rows = live.scan(&g);
                    let gb = kernels::col_sum_rows(pool, &g, rows);
                    let gx = kernels::matmul_t_rows(pool, &g, &self.nodes[w.index()].value, rows);
                    let gw = kernels::t_matmul_rows(pool, &self.nodes[x.index()].value, &g, rows);
                    accumulate(&mut grads, mode, pool, *x, gx);
                    accumulate(&mut grads, mode, pool, *w, gw);
                    accumulate(&mut grads, mode, pool, *b, gb);
                    recycle(mode, pool, g);
                }
                Op::Linear2(x, wx, h, wh, b) => {
                    // The decomposed add_row + add + two-matmul backward flow.
                    let gb = kernels::col_sum(mode, pool, &g);
                    let gx = kernels::matmul_t(mode, pool, &g, &self.nodes[wx.index()].value);
                    let gwx = kernels::t_matmul(mode, pool, &self.nodes[x.index()].value, &g);
                    let gh = kernels::matmul_t(mode, pool, &g, &self.nodes[wh.index()].value);
                    let gwh = kernels::t_matmul(mode, pool, &self.nodes[h.index()].value, &g);
                    accumulate(&mut grads, mode, pool, *x, gx);
                    accumulate(&mut grads, mode, pool, *wx, gwx);
                    accumulate(&mut grads, mode, pool, *h, gh);
                    accumulate(&mut grads, mode, pool, *wh, gwh);
                    accumulate(&mut grads, mode, pool, *b, gb);
                    recycle(mode, pool, g);
                }
            }
        }
        rl_ccd_obs::counter!("nn.tape.backward_rows", live.seen);
        rl_ccd_obs::counter!("nn.tape.backward_rows_live", live.live);
        Gradients { grads }
    }
}

/// The live rows of the gradient entering one `Linear` / `Spmm` backward
/// (see [`kernels::live_rows`]), plus the pass's running tally of rows
/// seen and rows live for the `nn.tape.backward_rows{,_live}` counters.
#[derive(Default)]
struct LiveRows {
    rows: Vec<u32>,
    seen: usize,
    live: usize,
}

impl LiveRows {
    fn scan(&mut self, g: &Tensor) -> &[u32] {
        kernels::live_rows(g, &mut self.rows);
        self.seen += g.rows();
        self.live += self.rows.len();
        &self.rows
    }
}

fn accumulate(
    grads: &mut [Option<Tensor>],
    mode: KernelMode,
    pool: &mut BufferPool,
    v: Var,
    g: Tensor,
) {
    match &mut grads[v.index()] {
        Some(existing) => {
            existing.add_assign(&g);
            recycle(mode, pool, g);
        }
        slot @ None => *slot = Some(g),
    }
}

/// The forward op set shared by the training [`Tape`] and the inference
/// [`NoGradTape`]. Model code written against `T: TapeOps` runs unchanged
/// on either executor. An executor implements the first four methods;
/// every op method hands its [`Op`] to [`TapeOps::apply`], and both
/// executors evaluate it through the same kernel call, so the computed
/// values are bit-identical.
pub trait TapeOps {
    /// Records an input/parameter tensor.
    fn leaf(&mut self, value: Tensor) -> Var;
    /// The value of a recorded variable.
    fn value(&self, v: Var) -> &Tensor;
    /// Which kernel implementation this executor runs.
    fn kernel_mode(&self) -> KernelMode;
    /// Evaluates `op` on the recorded values and records the result.
    fn apply(&mut self, op: Op) -> Var;

    /// Dense matrix product `a · b`.
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::Matmul(a, b))
    }
    /// Sparse × dense product `csr · a`.
    fn spmm(&mut self, csr: &SharedCsr, a: Var) -> Var {
        self.apply(Op::Spmm(Arc::clone(csr), a))
    }
    /// Elementwise sum of two same-shape tensors.
    fn add(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::Add(a, b))
    }
    /// Adds a 1×m row vector to every row of an n×m matrix.
    fn add_row(&mut self, a: Var, row: Var) -> Var {
        self.apply(Op::AddRow(a, row))
    }
    /// Elementwise (Hadamard) product.
    fn mul(&mut self, a: Var, b: Var) -> Var {
        self.apply(Op::Mul(a, b))
    }
    /// Multiplies by a constant.
    fn scale(&mut self, a: Var, k: f32) -> Var {
        self.apply(Op::Scale(a, k))
    }
    /// Multiplies a tensor by a trainable 1×1 scalar.
    fn scalar_mul(&mut self, s: Var, a: Var) -> Var {
        self.apply(Op::ScalarMul(s, a))
    }
    /// Fused gated interpolation `s·a + (1−s)·b` with a trainable 1×1 gate
    /// `s` (EP-GNN's Eq. 2 mixing in one op instead of four).
    fn mix(&mut self, s: Var, a: Var, b: Var) -> Var {
        self.apply(Op::Mix(s, a, b))
    }
    /// Elementwise affine map `k·x + c`.
    fn affine(&mut self, a: Var, k: f32, c: f32) -> Var {
        self.apply(Op::Affine(a, k, c))
    }
    /// Elementwise logistic sigmoid.
    fn sigmoid(&mut self, a: Var) -> Var {
        self.apply(Op::Sigmoid(a))
    }
    /// Elementwise tanh.
    fn tanh(&mut self, a: Var) -> Var {
        self.apply(Op::Tanh(a))
    }
    /// Elementwise ReLU.
    fn relu(&mut self, a: Var) -> Var {
        self.apply(Op::Relu(a))
    }
    /// Gathers the given rows of `a` into a new (k×m) tensor.
    fn gather_rows(&mut self, a: Var, rows: Arc<Vec<u32>>) -> Var {
        self.apply(Op::GatherRows(a, rows))
    }
    /// Extracts element `(r, c)` as a 1×1 tensor.
    fn pick(&mut self, a: Var, r: usize, c: usize) -> Var {
        self.apply(Op::Pick(a, r, c))
    }
    /// Masked log-softmax over all elements of `a` (treated flat, e.g. an
    /// n×1 score vector). Masked-out entries get `-∞` log-probability and
    /// receive zero gradient.
    ///
    /// # Panics
    /// Panics if the mask length differs from the element count or no entry
    /// is valid.
    fn masked_log_softmax(&mut self, a: Var, mask: Arc<Vec<bool>>) -> Var {
        self.apply(Op::MaskedLogSoftmax(a, mask))
    }
    /// Fused dense layer `x·w + b`: one op instead of the matmul + add_row
    /// pair, bit-identical to that pair. In scalar reference mode the
    /// decomposed pair is recorded instead, so the baseline tape matches
    /// the pre-fusion implementation op for op.
    fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        if self.kernel_mode() == KernelMode::Scalar {
            let h = self.matmul(x, w);
            return self.add_row(h, b);
        }
        self.apply(Op::Linear(x, w, b))
    }
    /// Fused gate pre-activation `x·wx + h·wh + b` — the LSTM/GRU gate
    /// body as one op instead of four (two matmuls, add, add_row),
    /// bit-identical to the decomposition (which scalar reference mode
    /// records instead).
    fn linear2(&mut self, x: Var, wx: Var, h: Var, wh: Var, b: Var) -> Var {
        if self.kernel_mode() == KernelMode::Scalar {
            let xs = self.matmul(x, wx);
            let hs = self.matmul(h, wh);
            let s = self.add(xs, hs);
            return self.add_row(s, b);
        }
        self.apply(Op::Linear2(x, wx, h, wh, b))
    }
}

impl TapeOps for Tape {
    fn leaf(&mut self, value: Tensor) -> Var {
        Tape::leaf(self, value)
    }
    fn value(&self, v: Var) -> &Tensor {
        Tape::value(self, v)
    }
    fn kernel_mode(&self) -> KernelMode {
        self.mode
    }
    fn apply(&mut self, op: Op) -> Var {
        let nodes = &self.nodes;
        let value = eval(self.mode, &mut self.pool, |v| &nodes[v.index()].value, &op);
        self.push(value, Some(op))
    }
}

/// Inference-only executor: runs the forward op set while storing nothing
/// but the computed values — no op records, no gradient machinery, and an
/// explicit [`NoGradTape::truncate`] so a session serving many requests
/// drops each finished request's values instead of growing without bound.
/// Truncated values return their storage to the internal buffer pool for
/// the next request's ops.
#[derive(Debug, Default)]
pub struct NoGradTape {
    values: Vec<Tensor>,
    mode: KernelMode,
    pool: BufferPool,
}

impl NoGradTape {
    /// An empty executor running the fast kernels.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty executor running the original scalar loops (the pinned
    /// reference implementation; see [`Tape::scalar_reference`]).
    pub fn scalar_reference() -> Self {
        Self {
            mode: KernelMode::Scalar,
            ..Self::default()
        }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been computed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Drops every value recorded after position `len`, invalidating their
    /// [`Var`] handles and recycling their storage through the buffer pool
    /// (fast mode). The caller must re-[`leaf`](TapeOps::leaf) any tensor
    /// it still needs.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.values.len() {
            return;
        }
        // Parked last-recorded-first, so the pool hands buffers back in
        // recording order: the next request's k-th op reuses the k-th op's
        // buffer, and a dense encode never inherits a step's small one.
        for value in self.values.drain(len..).rev() {
            if self.mode == KernelMode::Fast {
                self.pool.give_tensor(value);
            }
        }
    }

    fn push(&mut self, value: Tensor) -> Var {
        self.values.push(value);
        Var(self.values.len() - 1)
    }

    /// Records a value that arrived with storage of its own. It retires
    /// the buffer parked for its position, so pool and tape stay one to
    /// one across [`NoGradTape::truncate`]: a session's pool does not grow
    /// by a leaf per request, and a leaf does not shift every later op
    /// onto a buffer sized for another.
    fn push_owned(&mut self, value: Tensor) -> Var {
        drop(self.pool.take_zeroed(0));
        self.push(value)
    }
}

impl TapeOps for NoGradTape {
    fn leaf(&mut self, value: Tensor) -> Var {
        self.push_owned(value)
    }
    fn value(&self, v: Var) -> &Tensor {
        &self.values[v.index()]
    }
    fn kernel_mode(&self) -> KernelMode {
        self.mode
    }
    fn apply(&mut self, op: Op) -> Var {
        let values = &self.values;
        let value = eval(self.mode, &mut self.pool, |v| &values[v.index()], &op);
        // A pick's 1×1 result is not drawn from the pool.
        match op {
            Op::Pick(..) => self.push_owned(value),
            _ => self.push(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Csr;

    /// Central-difference gradient check for a scalar function of one leaf.
    fn grad_check(input: Tensor, f: impl Fn(&mut Tape, Var) -> Var, tol: f32) {
        let mut tape = Tape::new();
        let x = tape.leaf(input.clone());
        let loss = f(&mut tape, x);
        let grads = tape.backward(loss);
        let g = grads.get(x).expect("input must receive gradient").clone();
        let eps = 1e-2;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut tp = Tape::new();
            let xp = tp.leaf(plus);
            let vp = f(&mut tp, xp);
            let lp = tp.value(vp).data()[0];
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let mut tm = Tape::new();
            let xm = tm.leaf(minus);
            let vm = f(&mut tm, xm);
            let lm = tm.value(vm).data()[0];
            let num = (lp - lm) / (2.0 * eps);
            let ana = g.data()[i];
            assert!(
                (num - ana).abs() < tol * (1.0 + num.abs().max(ana.abs())),
                "element {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn matmul_chain_gradient() {
        let w = Tensor::from_vec(3, 2, vec![0.3, -0.2, 0.5, 0.7, -0.4, 0.1]);
        grad_check(
            Tensor::from_vec(1, 3, vec![0.5, -1.0, 2.0]),
            move |t, x| {
                let wv = t.leaf(w.clone());
                let h = t.matmul(x, wv);
                let h = t.tanh(h);
                let ones = t.leaf(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
                t.matmul(h, ones)
            },
            1e-2,
        );
    }

    #[test]
    fn sigmoid_mul_add_gradient() {
        let b = Tensor::from_vec(1, 4, vec![0.1, 0.2, -0.3, 0.4]);
        grad_check(
            Tensor::from_vec(1, 4, vec![0.5, -1.0, 2.0, 0.0]),
            move |t, x| {
                let bv = t.leaf(b.clone());
                let s = t.sigmoid(x);
                let m = t.mul(s, bv);
                let m = t.affine(m, 2.0, 0.25);
                let ones = t.leaf(Tensor::from_vec(4, 1, vec![1.0; 4]));
                t.matmul(m, ones)
            },
            1e-2,
        );
    }

    #[test]
    fn scalar_gate_gradient() {
        // loss = sum(sigmoid(s) * x): check grad w.r.t. the scalar gate.
        let x = Tensor::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        grad_check(
            Tensor::from_vec(1, 1, vec![0.3]),
            move |t, s| {
                let xv = t.leaf(x.clone());
                let sg = t.sigmoid(s);
                let y = t.scalar_mul(sg, xv);
                let ones = t.leaf(Tensor::from_vec(3, 1, vec![1.0; 3]));
                t.matmul(y, ones)
            },
            1e-2,
        );
    }

    #[test]
    fn spmm_gradient() {
        let csr: SharedCsr = Arc::new(Csr::new(
            2,
            3,
            vec![0, 2, 3],
            vec![0, 2, 1],
            vec![0.5, 2.0, -1.0],
        ));
        grad_check(
            Tensor::from_vec(3, 2, vec![1.0, 2.0, -0.5, 0.3, 0.7, -1.2]),
            move |t, x| {
                let y = t.spmm(&csr, x);
                let y = t.tanh(y);
                let ones = t.leaf(Tensor::from_vec(2, 1, vec![1.0; 2]));
                let col = t.matmul(y, ones);
                let onesr = t.leaf(Tensor::from_vec(1, 2, vec![1.0; 2]));
                t.matmul(onesr, col)
            },
            1e-2,
        );
    }

    #[test]
    fn masked_log_softmax_gradient() {
        let mask = Arc::new(vec![true, false, true, true]);
        grad_check(
            Tensor::from_vec(4, 1, vec![0.2, 9.0, -0.5, 1.0]),
            move |t, x| {
                let lp = t.masked_log_softmax(x, Arc::clone(&mask));
                t.pick(lp, 2, 0)
            },
            1e-2,
        );
    }

    #[test]
    fn masked_entries_have_zero_probability_and_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(3, 1, vec![1.0, 100.0, 2.0]));
        let mask = Arc::new(vec![true, false, true]);
        let lp = tape.masked_log_softmax(x, mask);
        assert_eq!(tape.value(lp).at(1, 0), f32::NEG_INFINITY);
        // Valid entries normalize.
        let p: f32 = [0, 2].iter().map(|&i| tape.value(lp).at(i, 0).exp()).sum();
        assert!((p - 1.0).abs() < 1e-5);
        let loss = tape.pick(lp, 0, 0);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).expect("grad").at(1, 0), 0.0);
    }

    #[test]
    fn gather_and_addrow_gradient() {
        let rows = Arc::new(vec![2u32, 0u32]);
        let bias = Tensor::from_vec(1, 2, vec![0.3, -0.1]);
        grad_check(
            Tensor::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
            move |t, x| {
                let g = t.gather_rows(x, Arc::clone(&rows));
                let bv = t.leaf(bias.clone());
                let g = t.add_row(g, bv);
                let g = t.relu(g);
                let ones = t.leaf(Tensor::from_vec(2, 1, vec![1.0; 2]));
                let col = t.matmul(g, ones);
                let onesr = t.leaf(Tensor::from_vec(1, 2, vec![1.0; 2]));
                t.matmul(onesr, col)
            },
            1e-2,
        );
    }

    #[test]
    fn linear_ops_gradient() {
        // Fused linear: loss = sum(linear(x, w, b)); check grad w.r.t. x.
        let w = Tensor::from_vec(3, 2, vec![0.3, -0.2, 0.5, 0.7, -0.4, 0.1]);
        let b = Tensor::from_vec(1, 2, vec![0.25, -0.5]);
        grad_check(
            Tensor::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.1, 0.3, -0.7]),
            {
                let (w, b) = (w.clone(), b.clone());
                move |t, x| {
                    let wv = t.leaf(w.clone());
                    let bv = t.leaf(b.clone());
                    let h = t.linear(x, wv, bv);
                    let h = t.tanh(h);
                    let ones = t.leaf(Tensor::from_vec(2, 1, vec![1.0; 2]));
                    let col = t.matmul(h, ones);
                    let onesr = t.leaf(Tensor::from_vec(1, 2, vec![1.0; 2]));
                    t.matmul(onesr, col)
                }
            },
            1e-2,
        );
        // Fused linear2: check grad w.r.t. the recurrent input h.
        let wh = Tensor::from_vec(2, 2, vec![0.6, -0.3, 0.2, 0.9]);
        let x = Tensor::from_vec(1, 3, vec![0.4, -0.8, 1.2]);
        grad_check(
            Tensor::from_vec(1, 2, vec![0.3, -0.6]),
            move |t, h| {
                let xv = t.leaf(x.clone());
                let wxv = t.leaf(w.clone());
                let whv = t.leaf(wh.clone());
                let bv = t.leaf(b.clone());
                let g = t.linear2(xv, wxv, h, whv, bv);
                let g = t.sigmoid(g);
                let ones = t.leaf(Tensor::from_vec(2, 1, vec![1.0; 2]));
                t.matmul(g, ones)
            },
            1e-2,
        );
    }

    #[test]
    fn fused_linear_matches_decomposition_bitwise() {
        // Same graph through a fast tape (fused single nodes) and a scalar
        // reference tape (decomposed ops): values AND gradients must agree
        // bit-for-bit.
        fn run(mut t: Tape) -> (Vec<f32>, Vec<f32>, Vec<f32>, usize) {
            let x = t.leaf(Tensor::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.1, 0.3, -0.7]));
            let w = t.leaf(Tensor::from_vec(3, 2, vec![0.3, -0.2, 0.5, 0.7, -0.4, 0.1]));
            let b = t.leaf(Tensor::from_vec(1, 2, vec![0.25, -0.5]));
            let wh = t.leaf(Tensor::from_vec(2, 2, vec![0.6, -0.3, 0.2, 0.9]));
            let h0 = t.linear(x, w, b);
            let h1 = t.tanh(h0);
            let g = t.linear2(x, w, h1, wh, b);
            let g = t.sigmoid(g);
            let ones = t.leaf(Tensor::from_vec(2, 1, vec![1.0; 2]));
            let col = t.matmul(g, ones);
            let onesr = t.leaf(Tensor::from_vec(1, 2, vec![1.0; 2]));
            let loss = t.matmul(onesr, col);
            let out = t.value(g).data().to_vec();
            let grads = t.backward(loss);
            let gx = grads.get(x).expect("gx").data().to_vec();
            let gw = grads.get(w).expect("gw").data().to_vec();
            (out, gx, gw, t.len())
        }
        let (fo, fx, fw, flen) = run(Tape::new());
        let (so, sx, sw, slen) = run(Tape::scalar_reference());
        assert_eq!(fo, so, "fused forward diverged");
        assert_eq!(fx, sx, "fused x-gradient diverged");
        assert_eq!(fw, sw, "fused w-gradient diverged");
        assert!(flen < slen, "fusion should record fewer nodes");
    }

    #[test]
    fn mix_gradient() {
        // loss = sum(mix(sigmoid(s), a, b)); check grads w.r.t. the gate.
        let a = Tensor::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        let b = Tensor::from_vec(1, 3, vec![-0.5, 1.5, 2.0]);
        grad_check(
            Tensor::from_vec(1, 1, vec![0.2]),
            move |t, s| {
                let sg = t.sigmoid(s);
                let av = t.leaf(a.clone());
                let bv = t.leaf(b.clone());
                let y = t.mix(sg, av, bv);
                let ones = t.leaf(Tensor::from_vec(3, 1, vec![1.0; 3]));
                t.matmul(y, ones)
            },
            1e-2,
        );
        // And w.r.t. the interpolated operands.
        let s = Tensor::from_vec(1, 1, vec![0.3]);
        let b2 = Tensor::from_vec(1, 3, vec![-0.5, 1.5, 2.0]);
        grad_check(
            Tensor::from_vec(1, 3, vec![1.0, -2.0, 0.5]),
            move |t, a| {
                let sv = t.leaf(s.clone());
                let bv = t.leaf(b2.clone());
                let y = t.mix(sv, a, bv);
                let ones = t.leaf(Tensor::from_vec(3, 1, vec![1.0; 3]));
                t.matmul(y, ones)
            },
            1e-2,
        );
    }

    #[test]
    fn mix_agrees_with_decomposed_form() {
        let mut tape = Tape::new();
        let s = tape.leaf(Tensor::from_vec(1, 1, vec![0.37]));
        let a = tape.leaf(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = tape.leaf(Tensor::from_vec(2, 2, vec![-1.0, 0.5, 0.0, 2.0]));
        let fused = tape.mix(s, a, b);
        // Decomposed: s·a + b − s·b.
        let sa = tape.scalar_mul(s, a);
        let sb = tape.scalar_mul(s, b);
        let nsb = tape.scale(sb, -1.0);
        let part = tape.add(b, nsb);
        let slow = tape.add(sa, part);
        for i in 0..4 {
            assert!((tape.value(fused).data()[i] - tape.value(slow).data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn no_grad_matches_tape_bit_for_bit() {
        fn chain<T: TapeOps>(t: &mut T) -> Var {
            let x = t.leaf(Tensor::from_vec(2, 3, vec![0.3, -1.2, 2.0, 0.7, -0.1, 0.9]));
            let w = t.leaf(Tensor::from_vec(
                3,
                2,
                vec![0.5, -0.25, 1.5, 0.75, -0.5, 0.1],
            ));
            let h = t.matmul(x, w);
            let b = t.leaf(Tensor::from_vec(1, 2, vec![0.05, -0.1]));
            let h = t.add_row(h, b);
            let lin = t.linear(x, w, b);
            let h = t.add(h, lin);
            let s = t.sigmoid(h);
            let th = t.tanh(h);
            let m = t.mul(s, th);
            let g = t.leaf(Tensor::from_vec(1, 1, vec![0.37]));
            let mixed = t.mix(g, m, h);
            let scaled = t.affine(mixed, 1.3, -0.2);
            let r = t.relu(scaled);
            let rows = Arc::new(vec![1u32]);
            let picked_row = t.gather_rows(r, rows);
            let mask = Arc::new(vec![true, false]);
            let col = t.leaf(Tensor::from_vec(2, 1, vec![1.0, -1.0]));
            let scores = t.matmul(picked_row, col);
            // scores is 1×1; build a 2×1 vector for the softmax instead.
            let two = t.leaf(Tensor::from_vec(2, 1, vec![0.2, 5.0]));
            let sm = t.masked_log_softmax(two, mask);
            let p = t.pick(sm, 0, 0);
            let sum = t.add(p, scores);
            t.scale(sum, 2.0)
        }
        let mut tape = Tape::new();
        let a = chain(&mut tape);
        let mut ng = NoGradTape::new();
        let b = chain(&mut ng);
        assert_eq!(
            tape.value(a).data(),
            ng.value(b).data(),
            "no-grad forward diverged from the training tape"
        );
        // And both fast executors agree with the scalar references.
        let mut st = Tape::scalar_reference();
        let c = chain(&mut st);
        assert_eq!(tape.value(a).data(), st.value(c).data());
        let mut sng = NoGradTape::scalar_reference();
        let d = chain(&mut sng);
        assert_eq!(ng.value(b).data(), sng.value(d).data());
    }

    #[test]
    fn no_grad_truncate_reclaims_and_releafs() {
        let mut t = NoGradTape::new();
        let w = t.leaf(Tensor::from_vec(1, 1, vec![2.0]));
        let base = t.len();
        let mut carry = t.leaf(Tensor::from_vec(1, 1, vec![1.0]));
        for _ in 0..5 {
            let next = t.mul(carry, w);
            let v = t.value(next).clone();
            t.truncate(base);
            assert_eq!(t.len(), base);
            carry = t.leaf(v);
        }
        assert_eq!(t.value(carry).data()[0], 32.0);
        assert!(!t.is_empty());
    }

    #[test]
    fn fan_out_accumulates_gradients() {
        // y = x + x → dy/dx = 2.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(1, 1, vec![3.0]));
        let y = tape.add(x, x);
        let grads = tape.backward(y);
        assert_eq!(grads.get(x).expect("grad").data()[0], 2.0);
        assert_eq!(tape.len(), 2);
        assert!(!tape.is_empty());
    }
}
