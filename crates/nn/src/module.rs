//! Named parameter sets: persistent storage, gradient accumulation across
//! rollouts/workers, and text serialization (transfer learning reloads
//! pre-trained EP-GNN weights from these files).

use crate::tape::{Gradients, TapeOps, Var};
use crate::tensor::Tensor;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, Write};

/// A named collection of parameter tensors that outlives any single tape.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParamSet {
    params: BTreeMap<String, Tensor>,
}

/// Accumulated gradients per parameter name.
#[derive(Clone, Debug, Default)]
pub struct GradSet {
    grads: BTreeMap<String, Tensor>,
    /// Number of rollouts accumulated (used for averaging).
    count: usize,
}

/// Error produced when loading a parameter file fails.
#[derive(Debug)]
pub struct LoadParamsError {
    message: String,
}

impl fmt::Display for LoadParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid parameter file: {}", self.message)
    }
}

impl std::error::Error for LoadParamsError {}

impl LoadParamsError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

/// Writes one `name rows cols v…` line per tensor — the body both
/// [`ParamSet::save`] and [`GradSet::save`] put under their own header.
fn write_tensors<W: Write>(mut w: W, tensors: &BTreeMap<String, Tensor>) -> std::io::Result<()> {
    for (name, t) in tensors {
        write!(w, "{} {} {}", name, t.rows(), t.cols())?;
        for v in t.data() {
            write!(w, " {v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Reads the next line of a parameter or gradient text.
fn next_line<R: BufRead>(lines: &mut std::io::Lines<R>) -> Result<String, LoadParamsError> {
    lines
        .next()
        .ok_or_else(|| LoadParamsError::new("truncated text"))?
        .map_err(|e| LoadParamsError::new(e.to_string()))
}

/// Reads `count` lines written by [`write_tensors`].
fn read_tensors<R: BufRead>(
    lines: &mut std::io::Lines<R>,
    count: usize,
) -> Result<BTreeMap<String, Tensor>, LoadParamsError> {
    let mut tensors = BTreeMap::new();
    for _ in 0..count {
        let line = next_line(lines)?;
        let mut parts = line.split_whitespace();
        let name = parts
            .next()
            .ok_or_else(|| LoadParamsError::new("missing name"))?;
        let mut dim = |what| {
            parts
                .next()
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| LoadParamsError::new(format!("tensor {name}: missing {what}")))
        };
        let (rows, cols) = (dim("rows")?, dim("cols")?);
        let data: Vec<f32> = parts
            .map(|s| s.parse::<f32>())
            .collect::<Result<_, _>>()
            .map_err(|e| LoadParamsError::new(e.to_string()))?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(LoadParamsError::new(format!(
                "tensor {name}: {rows}x{cols} does not hold {} values",
                data.len()
            )));
        }
        tensors.insert(name.to_string(), Tensor::from_vec(rows, cols, data));
    }
    Ok(tensors)
}

impl ParamSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a parameter.
    pub fn insert(&mut self, name: impl Into<String>, tensor: Tensor) {
        self.params.insert(name.into(), tensor);
    }

    /// Borrow a parameter by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.params.get(name)
    }

    /// Mutable borrow of a parameter by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Tensor> {
        self.params.get_mut(name)
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all tensors.
    pub fn scalar_count(&self) -> usize {
        self.params.values().map(Tensor::len).sum()
    }

    /// Iterates parameters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.params.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Copies the subset of parameters whose names start with `prefix` from
    /// `other` into `self` (the transfer-learning reload: EP-GNN weights
    /// carry over, encoder/decoder start fresh). Returns how many tensors
    /// were copied.
    pub fn adopt_prefixed(&mut self, other: &ParamSet, prefix: &str) -> usize {
        let mut n = 0;
        for (name, tensor) in &other.params {
            if name.starts_with(prefix) {
                self.params.insert(name.clone(), tensor.clone());
                n += 1;
            }
        }
        n
    }

    /// Whether every scalar in every tensor is finite (no NaN or ±Inf).
    /// Training uses this as a post-update divergence guard.
    pub fn all_finite(&self) -> bool {
        self.params.values().all(Tensor::all_finite)
    }

    /// Records every parameter as a leaf on `tape` (the training [`Tape`](crate::Tape)
    /// or the inference [`crate::NoGradTape`] — anything implementing
    /// [`TapeOps`]), returning the handle map used by the forward pass and
    /// by [`GradSet::accumulate`].
    pub fn bind<T: TapeOps>(&self, tape: &mut T) -> ParamBinding {
        let mut vars = BTreeMap::new();
        for (name, tensor) in &self.params {
            vars.insert(name.clone(), tape.leaf(tensor.clone()));
        }
        ParamBinding { vars }
    }

    /// Writes the set to a plain-text stream (name, shape, values per line).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "rl-ccd-params v1 {}", self.params.len())?;
        write_tensors(w, &self.params)
    }

    /// Reads a set previously written by [`ParamSet::save`].
    ///
    /// # Errors
    /// Returns [`LoadParamsError`] on malformed content.
    pub fn load<R: BufRead>(r: R) -> Result<Self, LoadParamsError> {
        let mut lines = r.lines();
        let header = next_line(&mut lines)?;
        let mut hp = header.split_whitespace();
        if hp.next() != Some("rl-ccd-params") || hp.next() != Some("v1") {
            return Err(LoadParamsError::new("bad header"));
        }
        let count: usize = hp
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| LoadParamsError::new("bad count"))?;
        Ok(Self {
            params: read_tensors(&mut lines, count)?,
        })
    }
}

/// Tape handles of a bound [`ParamSet`].
#[derive(Clone, Debug)]
pub struct ParamBinding {
    vars: BTreeMap<String, Var>,
}

impl ParamBinding {
    /// The tape variable of parameter `name`.
    ///
    /// # Panics
    /// Panics if the parameter was not bound.
    pub fn var(&self, name: &str) -> Var {
        *self
            .vars
            .get(name)
            .unwrap_or_else(|| panic!("parameter {name} not bound"))
    }

    /// Iterates (name, var) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Var)> {
        self.vars.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

impl GradSet {
    /// An empty gradient accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates the gradients of one rollout into the set.
    pub fn accumulate(&mut self, binding: &ParamBinding, grads: &mut Gradients) {
        for (name, var) in binding.iter() {
            if let Some(g) = grads.take(var) {
                match self.grads.get_mut(name) {
                    Some(acc) => acc.add_assign(&g),
                    None => {
                        self.grads.insert(name.to_string(), g);
                    }
                }
            }
        }
        self.count += 1;
    }

    /// Merges another accumulator (e.g. from a worker thread) into this one.
    pub fn merge(&mut self, other: GradSet) {
        for (name, g) in other.grads {
            match self.grads.get_mut(&name) {
                Some(acc) => acc.add_assign(&g),
                None => {
                    self.grads.insert(name, g);
                }
            }
        }
        self.count += other.count;
    }

    /// Number of accumulated rollouts.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Gradient for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.grads.get(name)
    }

    /// Divides all gradients by the rollout count, producing the mini-batch
    /// average used by the optimizer. No-op when empty.
    pub fn average(&mut self) {
        if self.count > 1 {
            let k = 1.0 / self.count as f32;
            for g in self.grads.values_mut() {
                g.scale_assign(k);
            }
            self.count = 1;
        }
    }

    /// Multiplies every gradient by `k` (REINFORCE weights a trajectory's
    /// gradient by its advantage).
    pub fn scale(&mut self, k: f32) {
        for g in self.grads.values_mut() {
            g.scale_assign(k);
        }
    }

    /// Global L2 norm across all gradients.
    pub fn global_norm(&self) -> f32 {
        self.grads
            .values()
            .map(|g| {
                let n = g.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let n = self.global_norm();
        if n > max_norm && n > 0.0 {
            let k = max_norm / n;
            for g in self.grads.values_mut() {
                g.scale_assign(k);
            }
        }
    }

    /// Iterates (name, grad) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.grads.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether every gradient element is finite (no NaN or ±Inf). A rollout
    /// whose gradients fail this check must be quarantined, not merged.
    pub fn all_finite(&self) -> bool {
        self.grads.values().all(Tensor::all_finite)
    }

    /// Inserts or replaces one raw gradient tensor without touching the
    /// rollout count (fault injection and tests; normal accumulation goes
    /// through [`GradSet::accumulate`]).
    pub fn set(&mut self, name: impl Into<String>, g: Tensor) {
        self.grads.insert(name.into(), g);
    }

    /// Writes the accumulator to a plain-text stream — the [`ParamSet::save`]
    /// line format, with the rollout count in the header so a transported
    /// gradient behaves identically under [`GradSet::average`]. Rust's
    /// shortest-roundtrip float formatting makes the text round-trip
    /// bit-exact, which the distributed trainer relies on.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "rl-ccd-grads v1 {} {}", self.grads.len(), self.count)?;
        write_tensors(w, &self.grads)
    }

    /// Reads a set previously written by [`GradSet::save`].
    ///
    /// # Errors
    /// Returns [`LoadParamsError`] on malformed content.
    pub fn load<R: BufRead>(r: R) -> Result<Self, LoadParamsError> {
        let mut lines = r.lines();
        let header = next_line(&mut lines)?;
        let mut hp = header.split_whitespace();
        if hp.next() != Some("rl-ccd-grads") || hp.next() != Some("v1") {
            return Err(LoadParamsError::new("bad gradient header"));
        }
        let mut number = |what| {
            hp.next()
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| LoadParamsError::new(format!("bad gradient {what} count")))
        };
        let (tensors, count) = (number("tensor")?, number("rollout")?);
        Ok(Self {
            grads: read_tensors(&mut lines, tensors)?,
            count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    fn demo_params() -> ParamSet {
        let mut p = ParamSet::new();
        p.insert("gnn.w1", Tensor::from_vec(2, 2, vec![1.0, -2.0, 0.5, 3.0]));
        p.insert("dec.v", Tensor::from_vec(1, 2, vec![0.25, -0.75]));
        p
    }

    #[test]
    fn save_load_roundtrip() {
        let p = demo_params();
        let mut buf = Vec::new();
        p.save(&mut buf).expect("write to memory");
        let loaded = ParamSet::load(&buf[..]).expect("parse");
        assert_eq!(p, loaded);
        assert_eq!(loaded.scalar_count(), 6);
    }

    #[test]
    fn gradset_save_load_roundtrip_preserves_count() {
        let p = demo_params();
        let mut tape = Tape::new();
        let binding = p.bind(&mut tape);
        let picks: Vec<Var> = binding.iter().map(|(_, v)| v).collect();
        let mut sum = tape.pick(picks[0], 0, 0);
        for &v in &picks[1..] {
            let p = tape.pick(v, 0, 0);
            sum = tape.add(sum, p);
        }
        let mut grads = tape.backward(sum);
        let mut gs = GradSet::new();
        gs.accumulate(&binding, &mut grads);
        assert_eq!(gs.count(), 1);
        let mut buf = Vec::new();
        gs.save(&mut buf).expect("write to memory");
        let loaded = GradSet::load(&buf[..]).expect("parse");
        assert_eq!(loaded.count(), gs.count());
        for (name, g) in gs.iter() {
            assert_eq!(loaded.get(name).map(|t| t.data()), Some(g.data()));
        }
        assert!(GradSet::load(&b"rl-ccd-grads v1 1\nw 1 1 0.5\n"[..]).is_err());
        assert!(GradSet::load(&b"nope"[..]).is_err());
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(ParamSet::load(&b"nope"[..]).is_err());
        assert!(ParamSet::load(&b"rl-ccd-params v1 1\nw 2 2 1.0\n"[..]).is_err());
        let err = ParamSet::load(&b""[..]).expect_err("empty");
        assert!(err.to_string().contains("invalid parameter file"));
    }

    #[test]
    fn adopt_prefixed_copies_subset() {
        let donor = demo_params();
        let mut target = ParamSet::new();
        target.insert("dec.v", Tensor::zeros(1, 2));
        let n = target.adopt_prefixed(&donor, "gnn.");
        assert_eq!(n, 1);
        assert_eq!(target.get("gnn.w1"), donor.get("gnn.w1"));
        // dec.v untouched.
        assert_eq!(target.get("dec.v"), Some(&Tensor::zeros(1, 2)));
    }

    #[test]
    fn binding_and_grad_accumulation() {
        let p = demo_params();
        let run = |scale: f32| {
            let mut tape = Tape::new();
            let binding = p.bind(&mut tape);
            let w = binding.var("gnn.w1");
            let x = tape.leaf(Tensor::from_vec(1, 2, vec![scale, 1.0]));
            let h = tape.matmul(x, w);
            let ones = tape.leaf(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
            let loss = tape.matmul(h, ones);
            let grads = tape.backward(loss);
            (binding, grads)
        };
        let mut acc = GradSet::new();
        let (b1, mut g1) = run(1.0);
        acc.accumulate(&b1, &mut g1);
        let (b2, mut g2) = run(3.0);
        let mut acc2 = GradSet::new();
        acc2.accumulate(&b2, &mut g2);
        acc.merge(acc2);
        assert_eq!(acc.count(), 2);
        acc.average();
        // d loss/d w1 = xᵀ·1: averaged over scale 1 and 3 → x ≈ (2, 1).
        let g = acc.get("gnn.w1").expect("grad");
        assert!((g.at(0, 0) - 2.0).abs() < 1e-5);
        assert!((g.at(1, 0) - 1.0).abs() < 1e-5);
        assert!(acc.global_norm() > 0.0);
        let before = acc.global_norm();
        acc.clip_global_norm(before / 2.0);
        assert!((acc.global_norm() - before / 2.0).abs() < 1e-4);
    }
}
