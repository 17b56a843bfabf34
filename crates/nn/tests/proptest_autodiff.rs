//! Property-based verification of the autodiff engine: analytic gradients
//! of randomly-built computations must match central finite differences,
//! and the tensor algebra must satisfy its identities.

use proptest::prelude::*;
use rl_ccd_nn::{Csr, Tape, TapeOps, Tensor, Var};
use std::sync::Arc;

fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-1.5f32..1.5, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

/// A randomly chosen scalar-valued computation over a 2×3 input.
#[derive(Clone, Debug)]
enum Program {
    TanhChain(Tensor),      // sum(tanh(x·W))
    SigmoidMul(Tensor),     // sum(sigmoid(x) ⊙ M)
    SpmmRelu,               // sum(relu(S·x))
    SoftmaxPick(Vec<bool>), // logsoftmax over flattened x, pick first valid
    GateMix(Tensor),        // sum(s·x + (1−s)·M) with trainable scalar path
}

fn arb_program() -> impl Strategy<Value = Program> {
    prop_oneof![
        arb_tensor(3, 2).prop_map(Program::TanhChain),
        arb_tensor(2, 3).prop_map(Program::SigmoidMul),
        Just(Program::SpmmRelu),
        proptest::collection::vec(any::<bool>(), 6)
            .prop_filter("at least one valid", |m| m.iter().any(|&b| b))
            .prop_map(Program::SoftmaxPick),
        arb_tensor(2, 3).prop_map(Program::GateMix),
    ]
}

fn sum_all(tape: &mut Tape, v: Var) -> Var {
    let (r, c) = tape.value(v).shape();
    let ones_c = tape.leaf(Tensor::from_vec(c, 1, vec![1.0; c]));
    let col = tape.matmul(v, ones_c);
    let ones_r = tape.leaf(Tensor::from_vec(1, r, vec![1.0; r]));
    tape.matmul(ones_r, col)
}

fn run(program: &Program, input: &Tensor) -> (f32, Option<Tensor>) {
    let mut tape = Tape::new();
    let x = tape.leaf(input.clone());
    let out = match program {
        Program::TanhChain(w) => {
            let wv = tape.leaf(w.clone());
            let h = tape.matmul(x, wv);
            let h = tape.tanh(h);
            sum_all(&mut tape, h)
        }
        Program::SigmoidMul(m) => {
            let mv = tape.leaf(m.clone());
            let s = tape.sigmoid(x);
            let p = tape.mul(s, mv);
            sum_all(&mut tape, p)
        }
        Program::SpmmRelu => {
            let csr = Arc::new(Csr::new(
                2,
                2,
                vec![0, 2, 3],
                vec![0, 1, 0],
                vec![0.7, -1.3, 2.0],
            ));
            let y = tape.spmm(&csr, x);
            let y = tape.relu(y);
            sum_all(&mut tape, y)
        }
        Program::SoftmaxPick(mask) => {
            let lp = tape.masked_log_softmax(x, Arc::new(mask.clone()));
            let idx = mask.iter().position(|&b| b).expect("one valid");
            let (r, c) = (idx / input.cols(), idx % input.cols());
            tape.pick(lp, r, c)
        }
        Program::GateMix(m) => {
            let s = tape.leaf(Tensor::from_vec(1, 1, vec![0.4]));
            let sg = tape.sigmoid(s);
            let mv = tape.leaf(m.clone());
            let a = tape.scalar_mul(sg, x);
            let b1 = tape.scalar_mul(sg, mv);
            let nb = tape.scale(b1, -1.0);
            let b2 = tape.leaf(m.clone());
            let rest = tape.add(b2, nb);
            let y = tape.add(a, rest);
            sum_all(&mut tape, y)
        }
    };
    let value = tape.value(out).data()[0];
    let grads = tape.backward(out);
    (value, grads.get(x).cloned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gradients_match_finite_differences(
        program in arb_program(),
        input in arb_tensor(2, 3),
    ) {
        // ReLU is non-differentiable at 0: skip inputs that place any
        // pre-activation close enough to the kink for the central
        // difference to straddle it.
        if let Program::SpmmRelu = program {
            let csr = Csr::new(
                2,
                2,
                vec![0, 2, 3],
                vec![0, 1, 0],
                vec![0.7, -1.3, 2.0],
            );
            let pre = csr.matmul(&input);
            prop_assume!(pre.data().iter().all(|&v| v.abs() > 0.05));
        }
        let (_, grad) = run(&program, &input);
        let grad = grad.expect("input participates");
        let eps = 1e-2f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let (fp, _) = run(&program, &plus);
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let (fm, _) = run(&program, &minus);
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = grad.data()[i];
            prop_assert!(
                (numeric - analytic).abs() < 0.03 * (1.0 + numeric.abs().max(analytic.abs())),
                "{program:?} elem {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn matmul_transpose_identities(a in arb_tensor(3, 4), b in arb_tensor(3, 5)) {
        // aᵀ·b computed directly equals the explicit transpose product.
        let t = a.t_matmul(&b);
        prop_assert_eq!(t.shape(), (4, 5));
        for i in 0..4 {
            for j in 0..5 {
                let mut acc = 0.0f32;
                for k in 0..3 {
                    acc += a.at(k, i) * b.at(k, j);
                }
                prop_assert!((t.at(i, j) - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in arb_tensor(2, 3),
        b in arb_tensor(2, 3),
        w in arb_tensor(3, 2),
    ) {
        // (a+b)·w == a·w + b·w
        let mut sum = a.clone();
        sum.add_assign(&b);
        let lhs = sum.matmul(&w);
        let mut rhs = a.matmul(&w);
        rhs.add_assign(&b.matmul(&w));
        for i in 0..lhs.len() {
            prop_assert!((lhs.data()[i] - rhs.data()[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn spmm_agrees_with_dense_multiply(x in arb_tensor(3, 4)) {
        let csr = Csr::new(2, 3, vec![0, 1, 3], vec![2, 0, 1], vec![1.5, -0.5, 2.0]);
        let dense = Tensor::from_vec(
            2,
            3,
            vec![0.0, 0.0, 1.5, -0.5, 2.0, 0.0],
        );
        let sparse_out = csr.matmul(&x);
        let dense_out = dense.matmul(&x);
        for i in 0..sparse_out.len() {
            prop_assert!((sparse_out.data()[i] - dense_out.data()[i]).abs() < 1e-4);
        }
    }
}
