//! Optimizers: Adam (the workhorse) and plain SGD.

use crate::module::{GradSet, ParamSet};
use crate::tensor::Tensor;
use std::collections::BTreeMap;

/// Adam optimizer with per-parameter first/second moment state.
#[derive(Clone, Debug, PartialEq)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    m: BTreeMap<String, Tensor>,
    v: BTreeMap<String, Tensor>,
    t: u64,
}

impl Adam {
    /// Adam with the canonical hyper-parameters and the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: BTreeMap::new(),
            v: BTreeMap::new(),
            t: 0,
        }
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Multiplies the learning rate by `factor` (0 < factor ≤ 1). The
    /// trainer calls this after a divergent update is rolled back so a
    /// persistently bad loss landscape cannot destroy the run.
    pub fn decay_lr(&mut self, factor: f32) {
        debug_assert!(factor > 0.0 && factor <= 1.0, "bad decay factor {factor}");
        self.lr *= factor;
    }

    /// Whether every moment estimate is finite. Non-finite moments mean a
    /// poisoned gradient reached the optimizer and the state must be
    /// restored from the last good snapshot.
    pub fn state_is_finite(&self) -> bool {
        self.m.values().all(Tensor::all_finite) && self.v.values().all(Tensor::all_finite)
    }

    /// Writes the optimizer state (step count + moment estimates) so a
    /// training run can be resumed exactly.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "rl-ccd-adam v1 {} {} {} {} {}",
            self.t, self.lr, self.beta1, self.beta2, self.eps
        )?;
        let mut m = ParamSet::new();
        for (k, v) in &self.m {
            m.insert(k.clone(), v.clone());
        }
        m.save(&mut w)?;
        let mut v = ParamSet::new();
        for (k, t) in &self.v {
            v.insert(k.clone(), t.clone());
        }
        v.save(&mut w)
    }

    /// Restores an optimizer saved with [`Adam::save`].
    ///
    /// # Errors
    /// Returns an error on malformed content.
    pub fn load<R: std::io::BufRead>(mut r: R) -> Result<Self, Box<dyn std::error::Error>> {
        let mut header = String::new();
        r.read_line(&mut header)?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("rl-ccd-adam") || parts.next() != Some("v1") {
            return Err("bad adam header".into());
        }
        let t: u64 = parts.next().ok_or("missing t")?.parse()?;
        let lr: f32 = parts.next().ok_or("missing lr")?.parse()?;
        let beta1: f32 = parts.next().ok_or("missing beta1")?.parse()?;
        let beta2: f32 = parts.next().ok_or("missing beta2")?.parse()?;
        let eps: f32 = parts.next().ok_or("missing eps")?.parse()?;
        let m_set = ParamSet::load(&mut r)?;
        let v_set = ParamSet::load(&mut r)?;
        let mut m = BTreeMap::new();
        for (k, t) in m_set.iter() {
            m.insert(k.to_string(), t.clone());
        }
        let mut v = BTreeMap::new();
        for (k, t) in v_set.iter() {
            v.insert(k.to_string(), t.clone());
        }
        Ok(Self {
            lr,
            beta1,
            beta2,
            eps,
            m,
            v,
            t,
        })
    }

    /// Applies one update to `params` from averaged `grads`. Parameters
    /// without a gradient are left untouched.
    pub fn step(&mut self, params: &mut ParamSet, grads: &GradSet) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (name, g) in grads.iter() {
            let Some(p) = params.get_mut(name) else {
                continue;
            };
            let m = self
                .m
                .entry(name.to_string())
                .or_insert_with(|| Tensor::zeros(g.rows(), g.cols()));
            let v = self
                .v
                .entry(name.to_string())
                .or_insert_with(|| Tensor::zeros(g.rows(), g.cols()));
            for i in 0..g.len() {
                let gi = g.data()[i];
                let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * gi;
                let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * gi * gi;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                p.data_mut()[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// Plain stochastic gradient descent (used by tests and ablations).
#[derive(Clone, Copy, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }

    /// Applies `params -= lr · grads`.
    pub fn step(&self, params: &mut ParamSet, grads: &GradSet) {
        for (name, g) in grads.iter() {
            if let Some(p) = params.get_mut(name) {
                for i in 0..g.len() {
                    p.data_mut()[i] -= self.lr * g.data()[i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{Tape, TapeOps};

    /// Minimizes ‖x − target‖² and checks convergence.
    fn quadratic_descent(optim: &mut Adam, iters: usize) -> f32 {
        let target = [1.5f32, -2.0, 0.5];
        let mut params = ParamSet::new();
        params.insert("x", Tensor::zeros(1, 3));
        for _ in 0..iters {
            let mut tape = Tape::new();
            let binding = params.bind(&mut tape);
            let x = binding.var("x");
            let t = tape.leaf(Tensor::from_vec(1, 3, target.to_vec()));
            let nt = tape.scale(t, -1.0);
            let diff = tape.add(x, nt);
            let sq = tape.mul(diff, diff);
            let ones = tape.leaf(Tensor::from_vec(3, 1, vec![1.0; 3]));
            let loss = tape.matmul(sq, ones);
            let mut grads = tape.backward(loss);
            let mut gs = GradSet::new();
            gs.accumulate(&binding, &mut grads);
            optim.step(&mut params, &gs);
        }
        let x = params.get("x").expect("x");
        target
            .iter()
            .enumerate()
            .map(|(i, t)| (x.data()[i] - t).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.1);
        let err = quadratic_descent(&mut adam, 300);
        assert!(err < 0.05, "residual error {err}");
        assert_eq!(adam.steps(), 300);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let target = 2.0f32;
        let mut params = ParamSet::new();
        params.insert("x", Tensor::zeros(1, 1));
        let sgd = Sgd::new(0.1);
        for _ in 0..100 {
            let mut tape = Tape::new();
            let binding = params.bind(&mut tape);
            let x = binding.var("x");
            let t = tape.leaf(Tensor::from_vec(1, 1, vec![-target]));
            let diff = tape.add(x, t);
            let loss = tape.mul(diff, diff);
            let mut grads = tape.backward(loss);
            let mut gs = GradSet::new();
            gs.accumulate(&binding, &mut grads);
            sgd.step(&mut params, &gs);
        }
        assert!((params.get("x").expect("x").data()[0] - target).abs() < 1e-2);
    }

    #[test]
    fn adam_state_roundtrips_and_resumes_identically() {
        // Train a few steps, save, keep training both the original and the
        // restored copy: they must stay bit-identical.
        let target = [1.5f32, -2.0, 0.5];
        let mut params = ParamSet::new();
        params.insert("x", Tensor::zeros(1, 3));
        let mut adam = Adam::new(0.1);
        let step_once = |adam: &mut Adam, params: &mut ParamSet| {
            let mut tape = Tape::new();
            let binding = params.bind(&mut tape);
            let x = binding.var("x");
            let t = tape.leaf(Tensor::from_vec(1, 3, target.to_vec()));
            let nt = tape.scale(t, -1.0);
            let diff = tape.add(x, nt);
            let sq = tape.mul(diff, diff);
            let ones = tape.leaf(Tensor::from_vec(3, 1, vec![1.0; 3]));
            let loss = tape.matmul(sq, ones);
            let mut grads = tape.backward(loss);
            let mut gs = GradSet::new();
            gs.accumulate(&binding, &mut grads);
            adam.step(params, &gs);
        };
        for _ in 0..5 {
            step_once(&mut adam, &mut params);
        }
        let mut buf = Vec::new();
        adam.save(&mut buf).expect("save to memory");
        let mut restored = Adam::load(&buf[..]).expect("load");
        assert_eq!(restored.steps(), adam.steps());
        let mut params_restored = params.clone();
        for _ in 0..5 {
            step_once(&mut adam, &mut params);
            step_once(&mut restored, &mut params_restored);
        }
        assert_eq!(params, params_restored, "resume must be exact");
    }

    #[test]
    fn step_ignores_unknown_parameters() {
        let mut params = ParamSet::new();
        params.insert("known", Tensor::zeros(1, 1));
        let mut gs = GradSet::new();
        // Manually forge a grad set with an unknown name via merge.
        let mut other = GradSet::new();
        {
            // Build a rollout against a different param set.
            let mut donor = ParamSet::new();
            donor.insert("unknown", Tensor::zeros(1, 1));
            let mut tape = Tape::new();
            let binding = donor.bind(&mut tape);
            let x = binding.var("unknown");
            let loss = tape.mul(x, x);
            let mut grads = tape.backward(loss);
            other.accumulate(&binding, &mut grads);
        }
        gs.merge(other);
        let mut adam = Adam::new(0.1);
        adam.step(&mut params, &gs); // must not panic
        assert_eq!(params.get("known").expect("known").data()[0], 0.0);
    }
}
