//! Property-based parity pinning of the fast kernels against the scalar
//! reference: every fast kernel must produce **bit-identical** output to
//! [`KernelMode::Scalar`] (the pre-rewrite code, kept verbatim) over
//! random values and awkward shapes — empty matrices, 1×1, widths that
//! are not a multiple of the SIMD lane count. The fast paths are built to
//! preserve the scalar accumulation order exactly, so the assertion is
//! `to_bits() == to_bits()`, not approximate closeness; any reassociation
//! regression fails here before it can break the serve/dist bit-parity
//! suites downstream.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rl_ccd_nn::kernels::{self, BufferPool, KernelMode};
use rl_ccd_nn::{Csr, NoGradTape, Tape, TapeOps, Tensor, Var};
use std::fmt::Debug;
use std::sync::Arc;

/// Shape-dependent sampling (the vendored proptest has no `prop_flat_map`):
/// wraps a closure that draws a value straight from the RNG stream.
struct SampleFn<T, F: Fn(&mut StdRng) -> T>(F);

impl<T: Debug, F: Fn(&mut StdRng) -> T> Strategy for SampleFn<T, F> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        (self.0)(rng)
    }
}

/// Random tensor with some exact zeros mixed in, so the kernels'
/// `a == 0.0` skip paths execute alongside the dense quad paths.
fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(
        (-1.5f32..1.5).prop_map(|x| if x.abs() < 0.2 { 0.0 } else { x }),
        rows * cols,
    )
    .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

/// A dimension crossing the interesting kernel boundaries: 0 (empty),
/// 1 (no row pairing), below a quad, below the lane width, exactly one
/// lane, lane + tail, and a larger round size.
fn dim(rng: &mut StdRng) -> usize {
    [0usize, 1, 2, 3, 5, 8, 13, 32][(0..8usize).sample(rng)]
}

/// Nonzero variant for dimensions a shape can't legally collapse.
fn dim_nz(rng: &mut StdRng) -> usize {
    dim(rng).max(1)
}

fn tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    arb_tensor(rows, cols).sample(rng)
}

/// `(a: m×k, b: k×n, g: m×n)` — one dense layer's operands (forward
/// input/weight plus the upstream gradient) at boundary-crossing shapes.
fn arb_layer_operands() -> impl Strategy<Value = (Tensor, Tensor, Tensor)> {
    SampleFn(|rng: &mut StdRng| {
        let (m, k, n) = (dim(rng), dim_nz(rng), dim_nz(rng));
        (tensor(rng, m, k), tensor(rng, k, n), tensor(rng, m, n))
    })
}

/// Two same-shape tensors at a random boundary-crossing shape.
fn arb_same_shape_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    SampleFn(|rng: &mut StdRng| {
        let (m, n) = (dim(rng), dim_nz(rng));
        (tensor(rng, m, n), tensor(rng, m, n))
    })
}

/// One nonempty tensor at a random boundary-crossing shape.
fn arb_nonempty_tensor() -> impl Strategy<Value = Tensor> {
    SampleFn(|rng: &mut StdRng| {
        let (m, n) = (dim_nz(rng), dim_nz(rng));
        tensor(rng, m, n)
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Asserts the two tensors are bit-identical (shape and every element).
macro_rules! assert_bit_eq {
    ($fast:expr, $scalar:expr, $what:expr) => {{
        let (f, s) = (&$fast, &$scalar);
        prop_assert_eq!(f.shape(), s.shape(), "{}: shape mismatch", $what);
        prop_assert_eq!(
            bits(f),
            bits(s),
            "{}: bits diverge at shape {:?}",
            $what,
            f.shape()
        );
    }};
}

fn check_matmul_family(a: &Tensor, b: &Tensor, g: &Tensor) -> TestCaseResult {
    let mut pool = BufferPool::new();
    // Forward product and all three backward products of a dense layer.
    assert_bit_eq!(
        kernels::matmul(KernelMode::Fast, &mut pool, a, b),
        kernels::matmul(KernelMode::Scalar, &mut pool, a, b),
        "matmul"
    );
    assert_bit_eq!(
        kernels::matmul_t(KernelMode::Fast, &mut pool, g, b),
        kernels::matmul_t(KernelMode::Scalar, &mut pool, g, b),
        "matmul_t"
    );
    assert_bit_eq!(
        kernels::t_matmul(KernelMode::Fast, &mut pool, a, g),
        kernels::t_matmul(KernelMode::Scalar, &mut pool, a, g),
        "t_matmul"
    );
    assert_bit_eq!(
        kernels::col_sum(KernelMode::Fast, &mut pool, g),
        kernels::col_sum(KernelMode::Scalar, &mut pool, g),
        "col_sum"
    );
    Ok(())
}

fn check_fused_layers(x: &Tensor, w: &Tensor, h: &Tensor, bias_seed: f32) -> TestCaseResult {
    let n = w.cols();
    let bias = Tensor::from_vec(1, n, (0..n).map(|j| bias_seed + j as f32 * 0.17).collect());
    let wh = Tensor::from_vec(
        n,
        n,
        (0..n * n).map(|j| (j as f32 * 0.23 - 1.0).sin()).collect(),
    );
    let mut pool = BufferPool::new();
    assert_bit_eq!(
        kernels::linear(KernelMode::Fast, &mut pool, x, w, &bias),
        kernels::linear(KernelMode::Scalar, &mut pool, x, w, &bias),
        "linear"
    );
    assert_bit_eq!(
        kernels::linear2(KernelMode::Fast, &mut pool, x, w, h, &wh, &bias),
        kernels::linear2(KernelMode::Scalar, &mut pool, x, w, h, &wh, &bias),
        "linear2"
    );
    Ok(())
}

fn check_elementwise(a: &Tensor, b: &Tensor, k: f32, c: f32) -> TestCaseResult {
    let s = Tensor::from_vec(1, 1, vec![k * 0.3]);
    let n = a.cols();
    let row = Tensor::from_vec(1, n, (0..n).map(|j| c + j as f32 * 0.11).collect());
    let mut pool = BufferPool::new();
    for (name, fast, scalar) in [
        (
            "add",
            kernels::add(KernelMode::Fast, &mut pool, a, b),
            kernels::add(KernelMode::Scalar, &mut pool, a, b),
        ),
        (
            "mul",
            kernels::mul(KernelMode::Fast, &mut pool, a, b),
            kernels::mul(KernelMode::Scalar, &mut pool, a, b),
        ),
        (
            "scale",
            kernels::scale(KernelMode::Fast, &mut pool, a, k),
            kernels::scale(KernelMode::Scalar, &mut pool, a, k),
        ),
        (
            "affine",
            kernels::affine(KernelMode::Fast, &mut pool, a, k, c),
            kernels::affine(KernelMode::Scalar, &mut pool, a, k, c),
        ),
        (
            "scalar_mul",
            kernels::scalar_mul(KernelMode::Fast, &mut pool, &s, a),
            kernels::scalar_mul(KernelMode::Scalar, &mut pool, &s, a),
        ),
        (
            "mix",
            kernels::mix(KernelMode::Fast, &mut pool, &s, a, b),
            kernels::mix(KernelMode::Scalar, &mut pool, &s, a, b),
        ),
        (
            "sigmoid",
            kernels::sigmoid(KernelMode::Fast, &mut pool, a),
            kernels::sigmoid(KernelMode::Scalar, &mut pool, a),
        ),
        (
            "tanh",
            kernels::tanh(KernelMode::Fast, &mut pool, a),
            kernels::tanh(KernelMode::Scalar, &mut pool, a),
        ),
        (
            "relu",
            kernels::relu(KernelMode::Fast, &mut pool, a),
            kernels::relu(KernelMode::Scalar, &mut pool, a),
        ),
    ] {
        assert_bit_eq!(fast, scalar, name);
    }
    assert_bit_eq!(
        kernels::add_row(KernelMode::Fast, &mut pool, a, &row),
        kernels::add_row(KernelMode::Scalar, &mut pool, a, &row),
        "add_row"
    );
    Ok(())
}

fn check_gather_softmax_sparse(a: &Tensor, mask_seed: u32) -> TestCaseResult {
    let (m, n) = a.shape();
    let mut pool = BufferPool::new();

    // gather_rows: repeated and out-of-order indices.
    let rows: Vec<u32> = (0..m.min(5)).map(|i| ((i * 7 + 3) % m) as u32).collect();
    assert_bit_eq!(
        kernels::gather_rows(KernelMode::Fast, &mut pool, a, &rows),
        kernels::gather_rows(KernelMode::Scalar, &mut pool, a, &rows),
        "gather_rows"
    );

    // masked_log_softmax: random mask with at least one survivor.
    let mut mask: Vec<bool> = (0..m * n)
        .map(|i| (mask_seed >> (i % 31)) & 1 == 1)
        .collect();
    mask[0] = true;
    assert_bit_eq!(
        kernels::masked_log_softmax(KernelMode::Fast, &mut pool, a, &mask),
        kernels::masked_log_softmax(KernelMode::Scalar, &mut pool, a, &mask),
        "masked_log_softmax"
    );

    // spmm / spmm_t against a small fixed sparse matrix over `a`.
    let csr = Arc::new(Csr::new(
        2,
        m,
        vec![0, 1, 2],
        vec![0, m as u32 - 1],
        vec![1.25, -0.75],
    ));
    assert_bit_eq!(
        kernels::spmm(KernelMode::Fast, &mut pool, &csr, a),
        kernels::spmm(KernelMode::Scalar, &mut pool, &csr, a),
        "spmm"
    );
    let g = Tensor::from_vec(
        2,
        n,
        (0..2 * n).map(|j| (j as f32 * 0.31 - 0.4).cos()).collect(),
    );
    assert_bit_eq!(
        kernels::spmm_t(KernelMode::Fast, &mut pool, &csr, &g),
        kernels::spmm_t(KernelMode::Scalar, &mut pool, &csr, &g),
        "spmm_t"
    );
    Ok(())
}

/// Whole-graph parity: a random small network run forward+backward on a
/// fast [`Tape`] and on [`Tape::scalar_reference`] must agree on the loss
/// **and every gradient**, bit for bit. This is the contract the
/// serve-parity and distributed bit-parity suites stand on.
fn check_whole_graph(x: &Tensor, w: &Tensor, b: &Tensor, mask: &[bool]) -> TestCaseResult {
    let run = |tape: &mut Tape| -> (f32, Vec<(Var, Vec<u32>)>) {
        let xv = tape.leaf(x.clone());
        let wv = tape.leaf(w.clone());
        let bv = tape.leaf(b.clone());
        let h = tape.linear(xv, wv, bv);
        let h = tape.tanh(h);
        let ones = tape.leaf(Tensor::from_vec(3, 1, vec![1.0; 3]));
        let scores = tape.matmul(h, ones);
        let lp = tape.masked_log_softmax(scores, Arc::new(mask.to_vec()));
        let idx = mask.iter().position(|&v| v).expect("one valid");
        let picked = tape.pick(lp, idx, 0);
        let loss = tape.value(picked).data()[0];
        let grads = tape.backward(picked);
        let got: Vec<(Var, Vec<u32>)> = [xv, wv, bv]
            .into_iter()
            .filter_map(|v| grads.get(v).map(|g| (v, bits(g))))
            .collect();
        (loss, got)
    };
    let (fast_loss, fast_grads) = run(&mut Tape::new());
    let (scalar_loss, scalar_grads) = run(&mut Tape::scalar_reference());
    prop_assert_eq!(fast_loss.to_bits(), scalar_loss.to_bits(), "loss bits");
    prop_assert_eq!(fast_grads, scalar_grads, "gradient bits diverge");
    Ok(())
}

/// Operands for one forward graph that uses every op of [`TapeOps`]:
/// `x` (n×k), `w` (k×h), `b` (1×h), `wh` (h×h), a 1×1 `gate`, an n×n
/// `csr`, row picks into n-row values, and an n-long softmax mask with at
/// least one valid entry.
#[derive(Debug)]
struct ForwardGraph {
    x: Tensor,
    w: Tensor,
    b: Tensor,
    wh: Tensor,
    gate: Tensor,
    csr: Arc<Csr>,
    rows: Vec<u32>,
    mask: Vec<bool>,
    k: f32,
    c: f32,
}

fn arb_forward_graph() -> impl Strategy<Value = ForwardGraph> {
    SampleFn(|rng: &mut StdRng| {
        let (n, k, h) = (dim_nz(rng), dim_nz(rng), dim_nz(rng));
        let (mut indptr, mut indices, mut values) = (vec![0u32], Vec::new(), Vec::new());
        for _ in 0..n {
            for c in 0..n {
                if rng.gen_bool(0.3) {
                    indices.push(c as u32);
                    values.push(rng.gen_range(-1.5f32..1.5));
                }
            }
            indptr.push(indices.len() as u32);
        }
        let mut mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
        mask[rng.gen_range(0..n)] = true;
        ForwardGraph {
            x: tensor(rng, n, k),
            w: tensor(rng, k, h),
            b: tensor(rng, 1, h),
            wh: tensor(rng, h, h),
            gate: Tensor::from_vec(1, 1, vec![rng.gen_range(-2.0f32..2.0)]),
            csr: Arc::new(Csr::new(n, n, indptr, indices, values)),
            rows: (0..dim_nz(rng))
                .map(|_| rng.gen_range(0..n) as u32)
                .collect(),
            mask,
            k: rng.gen_range(-2.0f32..2.0),
            c: rng.gen_range(-1.0f32..1.0),
        }
    })
}

/// The no-grad (serve) tape must agree with the training tape's forward
/// pass bit for bit — same kernels, same order — on a graph that uses all
/// 17 ops, and both must agree with their scalar references. The fused
/// ops record one node on the fast lane and their decompositions (2 and
/// 4 nodes) on the scalar lane.
fn check_no_grad_forward(d: &ForwardGraph) -> TestCaseResult {
    fn graph<T: TapeOps>(
        t: &mut T,
        len: fn(&T) -> usize,
        d: &ForwardGraph,
    ) -> (Vec<Vec<u32>>, [usize; 2]) {
        let [x, w, b, wh, gate] = [&d.x, &d.w, &d.b, &d.wh, &d.gate].map(|v| t.leaf(v.clone()));
        let h0 = t.matmul(x, w);
        let h0 = t.add_row(h0, b);
        let before = len(t);
        let lin = t.linear(x, w, b);
        let linear_nodes = len(t) - before;
        let sum = t.add(h0, lin);
        let sg = t.sigmoid(sum);
        let th = t.tanh(sum);
        let m = t.mul(sg, th);
        let before = len(t);
        let gate_pre = t.linear2(x, w, m, wh, b);
        let linear2_nodes = len(t) - before;
        let neigh = t.spmm(&d.csr, gate_pre);
        let scaled = t.scalar_mul(gate, neigh);
        let mixed = t.mix(gate, scaled, m);
        let aff = t.affine(mixed, d.k, d.c);
        let r = t.relu(aff);
        let neg = t.scale(r, -0.5);
        let gathered = t.gather_rows(neg, Arc::new(d.rows.clone()));
        let ones = t.leaf(Tensor::from_vec(d.w.cols(), 1, vec![1.0; d.w.cols()]));
        let scores = t.matmul(neg, ones);
        let lp = t.masked_log_softmax(scores, Arc::new(d.mask.clone()));
        let valid = d.mask.iter().position(|&v| v).expect("one valid");
        let picked = t.pick(lp, valid, 0);
        let outs = [
            h0, lin, sum, sg, th, m, gate_pre, neigh, scaled, mixed, aff, r, neg, gathered, scores,
            lp, picked,
        ];
        (
            outs.iter().map(|&v| bits(t.value(v))).collect(),
            [linear_nodes, linear2_nodes],
        )
    }
    let (full, full_nodes) = graph(&mut Tape::new(), Tape::len, d);
    let (no_grad, no_grad_nodes) = graph(&mut NoGradTape::new(), NoGradTape::len, d);
    let (scalar_full, scalar_full_nodes) = graph(&mut Tape::scalar_reference(), Tape::len, d);
    let (scalar, scalar_nodes) = graph(&mut NoGradTape::scalar_reference(), NoGradTape::len, d);
    prop_assert_eq!(&full, &no_grad, "Tape vs NoGradTape diverge");
    prop_assert_eq!(&full, &scalar_full, "fast vs scalar Tape diverge");
    prop_assert_eq!(&full, &scalar, "fast vs scalar NoGradTape diverge");
    prop_assert_eq!(full_nodes, [1, 1], "fused ops on the fast Tape");
    prop_assert_eq!(no_grad_nodes, [1, 1], "fused ops on the fast NoGradTape");
    prop_assert_eq!(scalar_full_nodes, [2, 4], "fused ops on the scalar Tape");
    prop_assert_eq!(scalar_nodes, [2, 4], "fused ops on the scalar NoGradTape");
    Ok(())
}

/// One EP-GNN-shaped layer whose gradients have dead rows: `Linear →
/// Spmm → Linear → Mix → Sigmoid`, with the loss read from `picked` rows
/// only, so every gradient entering a `Linear` / `Spmm` backward is +0 or
/// −0 outside the picked rows (and their graph neighbours). Some rows of
/// `x` are all zero and some of its entries are −0.0.
#[derive(Debug)]
struct DeadRowGraph {
    x: Tensor,
    w1: Tensor,
    b1: Tensor,
    csr: Arc<Csr>,
    w2: Tensor,
    b2: Tensor,
    gate: Tensor,
    picked: Vec<u32>,
}

fn arb_dead_row_graph() -> impl Strategy<Value = DeadRowGraph> {
    SampleFn(|rng: &mut StdRng| {
        let (n, k, h) = (dim_nz(rng), dim_nz(rng), dim_nz(rng));
        let mut x = tensor(rng, n, k);
        for r in 0..n {
            let zero_row = rng.gen_bool(0.25);
            for v in &mut x.data_mut()[r * k..(r + 1) * k] {
                if zero_row || rng.gen_bool(0.1) {
                    *v = if rng.gen_bool(0.5) { -0.0 } else { 0.0 };
                }
            }
        }
        let (mut indptr, mut indices, mut values) = (vec![0u32], Vec::new(), Vec::new());
        for _ in 0..n {
            for c in 0..n {
                if rng.gen_bool(0.3) {
                    indices.push(c as u32);
                    values.push(rng.gen_range(-1.5f32..1.5));
                }
            }
            indptr.push(indices.len() as u32);
        }
        // Anywhere from one row to all of them, in random order.
        let mut picked: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            picked.swap(i, rng.gen_range(0..=i));
        }
        picked.truncate(rng.gen_range(1..=n));
        DeadRowGraph {
            x,
            w1: tensor(rng, k, h),
            b1: tensor(rng, 1, h),
            csr: Arc::new(Csr::new(n, n, indptr, indices, values)),
            w2: tensor(rng, h, h),
            b2: tensor(rng, 1, h),
            gate: Tensor::from_vec(1, 1, vec![rng.gen_range(-2.0f32..2.0)]),
            picked,
        }
    })
}

/// The fast lane skips the dead rows of every `Linear` / `Spmm` gradient;
/// every leaf gradient must still equal the scalar reference's bit for
/// bit, −0.0 included.
fn check_dead_row_graph(d: &DeadRowGraph) -> TestCaseResult {
    let run = |tape: &mut Tape| -> Vec<Option<Vec<u32>>> {
        let leaves = [&d.x, &d.w1, &d.b1, &d.w2, &d.b2, &d.gate].map(|t| tape.leaf(t.clone()));
        let [x, w1, b1, w2, b2, gate] = leaves;
        let h1 = tape.linear(x, w1, b1);
        let neigh = tape.spmm(&d.csr, h1);
        let h2 = tape.linear(neigh, w2, b2);
        let mixed = tape.mix(gate, h1, h2);
        let y = tape.sigmoid(mixed);
        let read = tape.gather_rows(y, Arc::new(d.picked.clone()));
        let h = d.w1.cols();
        let ones_c = tape.leaf(Tensor::from_vec(h, 1, vec![1.0; h]));
        let ones_r = tape.leaf(Tensor::from_vec(
            1,
            d.picked.len(),
            vec![1.0; d.picked.len()],
        ));
        let col = tape.matmul(read, ones_c);
        let loss = tape.matmul(ones_r, col);
        let grads = tape.backward(loss);
        leaves.iter().map(|&v| grads.get(v).map(bits)).collect()
    };
    let fast = run(&mut Tape::new());
    let scalar = run(&mut Tape::scalar_reference());
    prop_assert_eq!(fast, scalar, "leaf gradient bits diverge");
    Ok(())
}

/// No row of `g` is live (every element ±0): the row-skipping fast lane
/// computes nothing, and every backward product is the +0 the dense
/// scalar loops compute.
#[test]
fn no_live_row_gives_positive_zero_gradients() {
    let g = Tensor::from_vec(
        5,
        3,
        (0..15)
            .map(|i| if i % 2 == 0 { -0.0 } else { 0.0 })
            .collect(),
    );
    let w = Tensor::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.37 - 2.0).collect());
    let x = Tensor::from_vec(5, 4, (0..20).map(|i| i as f32 * 0.21 - 1.9).collect());
    let csr = Arc::new(Csr::new(
        5,
        2,
        vec![0, 1, 2, 3, 4, 6],
        vec![0, 1, 0, 1, 0, 1],
        vec![0.5; 6],
    ));
    let mut pool = BufferPool::new();
    let mut rows = vec![7];
    kernels::live_rows(&g, &mut rows);
    assert!(rows.is_empty(), "no row of g is live");
    for mode in [KernelMode::Fast, KernelMode::Scalar] {
        for (what, out) in [
            ("matmul_t", kernels::matmul_t(mode, &mut pool, &g, &w)),
            ("t_matmul", kernels::t_matmul(mode, &mut pool, &x, &g)),
            ("col_sum", kernels::col_sum(mode, &mut pool, &g)),
            ("spmm_t", kernels::spmm_t(mode, &mut pool, &csr, &g)),
        ] {
            assert!(
                out.data().iter().all(|v| v.to_bits() == 0),
                "{what} ({mode:?}) is not all +0"
            );
        }
    }
    // Through the tape: a loss that multiplies the layer by −0.0 sends an
    // all-±0 gradient into the fused `Linear`, whose `gx` must be +0.
    let mut tape = Tape::new();
    let (xv, wv) = (tape.leaf(x.clone()), tape.leaf(w.clone()));
    let bv = tape.leaf(Tensor::zeros(1, 3));
    let y = tape.linear(xv, wv, bv);
    let dead = tape.scale(y, -0.0);
    let ones_c = tape.leaf(Tensor::from_vec(3, 1, vec![1.0; 3]));
    let ones_r = tape.leaf(Tensor::from_vec(1, 5, vec![1.0; 5]));
    let col = tape.matmul(dead, ones_c);
    let loss = tape.matmul(ones_r, col);
    let grads = tape.backward(loss);
    let gx = grads.get(xv).expect("x receives a gradient");
    assert!(
        gx.data().iter().all(|v| v.to_bits() == 0),
        "gx is not all +0"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_family_is_bit_identical(ops in arb_layer_operands()) {
        let (a, b, g) = &ops;
        check_matmul_family(a, b, g)?;
    }

    #[test]
    fn fused_layers_match_their_decompositions(
        ops in arb_layer_operands(),
        bias_seed in -1.0f32..1.0,
    ) {
        let (x, w, h) = &ops;
        check_fused_layers(x, w, h, bias_seed)?;
    }

    #[test]
    fn elementwise_kernels_are_bit_identical(
        pair in arb_same_shape_pair(),
        k in -2.0f32..2.0,
        c in -1.0f32..1.0,
    ) {
        let (a, b) = &pair;
        check_elementwise(a, b, k, c)?;
    }

    #[test]
    fn gather_softmax_and_sparse_are_bit_identical(
        a in arb_nonempty_tensor(),
        mask_seed in any::<u32>(),
    ) {
        check_gather_softmax_sparse(&a, mask_seed)?;
    }

    #[test]
    fn whole_graph_forward_backward_parity(
        x in arb_tensor(4, 6),
        w in arb_tensor(6, 3),
        b in arb_tensor(1, 3),
        mask in proptest::collection::vec(any::<bool>(), 4)
            .prop_filter("one valid", |m| m.iter().any(|&v| v)),
    ) {
        check_whole_graph(&x, &w, &b, &mask)?;
    }

    #[test]
    fn no_grad_forward_matches_tape(d in arb_forward_graph()) {
        check_no_grad_forward(&d)?;
    }

    #[test]
    fn dead_row_gradients_match_the_scalar_lane(d in arb_dead_row_graph()) {
        check_dead_row_graph(&d)?;
    }
}
