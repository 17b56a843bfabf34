//! The fast kernels earn their keep: on the policy's dense-layer shapes
//! they run at least [`MIN_SPEEDUP`]× the pinned scalar reference.
//!
//! The suite is the forward+backward op set of one dense layer — `x·w`,
//! then `g·wᵀ`, `xᵀ·g` and the bias column-sum, which is what
//! [`rl_ccd_nn::Tape::backward`] executes per `Linear` — at the four shapes
//! the policy runs: the decoder's attention projection and scores over the
//! endpoint pool, and the LSTM encoder's input and recurrent products, with
//! widths from [`RlConfig::default`]. The two lanes alternate in blocks
//! and each is scored by its best block: steal time and frequency drift
//! only ever inflate a block, so the minimum converges on the machine's
//! steady-state rate for both lanes. A ratio of two rates taken in one
//! process on one machine transfers across machines where absolute rates
//! do not, which is why this is the one timing this workspace asserts.
//! Bit-parity of the two lanes is `crates/nn/tests/proptest_kernels.rs`'s
//! job, not this test's.
//!
//! A timing assertion, so ignored by default; run it in release:
//! `cargo test --release -p rl-ccd --test kernel_speedup -- --ignored`.

use rl_ccd::RlConfig;
use rl_ccd_nn::kernels::{self, BufferPool, KernelMode};
use rl_ccd_nn::Tensor;
use std::time::Instant;

/// The fast lane must beat the scalar lane by at least this factor.
const MIN_SPEEDUP: f64 = 3.0;

/// Endpoint-pool rows of the attention shapes.
const ENDPOINTS: usize = 96;

/// Alternating timing blocks per lane.
const BLOCKS: usize = 10;

/// Suite passes per block.
const REPS: usize = 200;

/// Deterministic dense test tensor (no zeros, so the kernels' zero-skip
/// takes its common path).
fn filled(r: usize, c: usize, seed: u64) -> Tensor {
    let mut t = Tensor::zeros(r, c);
    for (i, x) in t.data_mut().iter_mut().enumerate() {
        *x = (((i as u64).wrapping_mul(2_654_435_761).wrapping_add(seed) % 997) as f32 - 498.0)
            * 0.002
            + 0.001;
    }
    t
}

/// One dense layer's forward+backward operands at an `m×k · k×n` shape.
struct LayerShape {
    x: Tensor,
    w: Tensor,
    g: Tensor,
}

impl LayerShape {
    fn new(m: usize, k: usize, n: usize, seed: u64) -> Self {
        Self {
            x: filled(m, k, seed),
            w: filled(k, n, seed + 1),
            g: filled(m, n, seed + 2),
        }
    }

    /// Runs the four ops once in `mode`. Fast outputs recycle through
    /// `pool`; scalar outputs drop, as the scalar lane never pools.
    fn pass(&self, mode: KernelMode, pool: &mut BufferPool) {
        let y = kernels::matmul(mode, pool, &self.x, &self.w);
        let gx = kernels::matmul_t(mode, pool, &self.g, &self.w);
        let gw = kernels::t_matmul(mode, pool, &self.x, &self.g);
        let gb = kernels::col_sum(mode, pool, &self.g);
        for t in [y, gx, gw, gb] {
            let t = std::hint::black_box(t);
            if mode == KernelMode::Fast {
                pool.give_tensor(t);
            }
        }
    }
}

/// Seconds per suite pass of the fast and the scalar lane, each its best
/// of [`BLOCKS`] blocks, the lanes alternating so both see the same
/// machine.
fn best_blocks(suite: &[LayerShape], pool: &mut BufferPool) -> (f64, f64) {
    let time = |mode: KernelMode, pool: &mut BufferPool| {
        let started = Instant::now();
        for _ in 0..REPS {
            for shape in suite {
                shape.pass(mode, pool);
            }
        }
        started.elapsed().as_secs_f64() / REPS as f64
    };
    let (mut fast, mut scalar) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..BLOCKS {
        fast = fast.min(time(KernelMode::Fast, pool));
        scalar = scalar.min(time(KernelMode::Scalar, pool));
    }
    (fast, scalar)
}

#[test]
#[ignore = "timing assertion; run in release with --ignored"]
fn fast_kernels_beat_the_scalar_reference_threefold() {
    let cfg = RlConfig::default();
    let suite = [
        LayerShape::new(ENDPOINTS, cfg.embed_dim, cfg.attn_dim, 11), // W1·F
        LayerShape::new(ENDPOINTS, cfg.attn_dim, 1, 22),             // tanh(…)·v
        LayerShape::new(1, cfg.embed_dim, cfg.lstm_hidden, 33),      // x·Wx
        LayerShape::new(1, cfg.lstm_hidden, cfg.lstm_hidden, 44),    // h·Wh
    ];
    let mut pool = BufferPool::new();
    for shape in &suite {
        shape.pass(KernelMode::Fast, &mut pool);
        shape.pass(KernelMode::Scalar, &mut pool);
    }
    let (fast_s, scalar_s) = best_blocks(&suite, &mut pool);
    let speedup = scalar_s / fast_s;
    println!(
        "kernel suite: fast {:.0} passes/s, scalar {:.0} passes/s — {speedup:.2}×",
        1.0 / fast_s,
        1.0 / scalar_s
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "fast kernels run {speedup:.2}× the scalar reference, below {MIN_SPEEDUP}×"
    );
}
