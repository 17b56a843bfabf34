//! Incremental EP-GNN encode: one dense pass, then a patch per selection.
//!
//! Algorithm 1 re-encodes the netlist after every selection because the
//! "RL masked" flag of a few cells flipped. Three mean-aggregation layers
//! carry a flipped flag at most three hops, so almost every row of every
//! layer — and almost every endpoint readout — is unchanged from the step
//! before. [`IncrementalEncoder`] runs [`EpGnn`]'s dense pass once on the
//! unflagged features, keeps the three layer outputs, and on each
//! [`IncrementalEncoder::flag`] recomputes only the dirty frontier
//! `D1 ⊆ D2 ⊆ D3` (flagged cells grown one hop per layer through the
//! adjacency) and the endpoints `DE` whose cone readout touches `D3`.
//!
//! **Bit-exactness.** Every kernel of a layer (`linear`, `spmm`, `mix`,
//! `sigmoid`) computes an output row from its own input rows alone, with a
//! fixed in-row accumulation order. A dirty row is recomputed by the same
//! kernels over a compact matrix holding exactly the rows it reads
//! ([`Csr::row_subset`] keeps each sparse row's column order), so it is
//! the dense row bit for bit; a row outside the frontier reads nothing
//! that changed, so its cached value *is* the dense row. The dense pass
//! ([`EpGnn::forward`] on `features.with_flags(all flagged)`) is the
//! oracle `tests/proptest_incremental_encoder.rs` compares every step
//! against, the way `proptest_incremental` pins the incremental timer.
//!
//! **In place.** The encoder owns its tensors: the feature matrix with
//! the current flags, the three layer outputs and the endpoint embeddings.
//! A patch reads the rows `D ∪ N(D)` of the layer below as one tape leaf,
//! runs `EpGnn::layer` / `EpGnn::embed` over [`Csr::row_subset`], and
//! writes the recomputed rows back over the old ones. Nothing on the tape
//! refers to a patched tensor, so a patch is not differentiable: the
//! training tapes keep the dense per-step encode.
//!
//! **Encode once per (θ, design).** The same property makes the dense
//! pass storable: [`IncrementalEncoder::encode`] copies its outputs off the
//! tape as a [`StoredEncode`], and [`IncrementalEncoder::resume`] starts a
//! trajectory from a copy of it — the dense pass's own values, copied, not
//! recomputed. A patch writes that copy, never the stored encode, so one
//! stored encode serves any number of trajectories.

use crate::epgnn::EpGnn;
use crate::features::MASKED_COL;
use rl_ccd_nn::{Csr, ParamBinding, SharedCsr, TapeOps, Tensor, Var};
use std::sync::Arc;

/// The two EP-GNN graphs of one design with their transposes, which answer
/// the frontier's questions: which rows aggregate cell `c`
/// (`adjacency_t.row(c)`), which endpoints pool it (`readout_t.row(c)`).
#[derive(Clone, Debug)]
pub struct EpGraph {
    adjacency: SharedCsr,
    readout: SharedCsr,
    adjacency_t: Csr,
    readout_t: Csr,
}

impl EpGraph {
    /// Indexes the mean-normalized adjacency (V×V) and the cone-readout
    /// matrix (E×V).
    pub fn new(adjacency: SharedCsr, readout: SharedCsr) -> Self {
        assert_eq!(adjacency.cols(), readout.cols(), "graphs cover one design");
        Self {
            adjacency_t: transpose(&adjacency),
            readout_t: transpose(&readout),
            adjacency,
            readout,
        }
    }

    /// Mean-normalized message-passing adjacency (V×V).
    pub fn adjacency(&self) -> &SharedCsr {
        &self.adjacency
    }

    /// Cone-readout matrix (E×V).
    pub fn readout(&self) -> &SharedCsr {
        &self.readout
    }
}

fn transpose(m: &Csr) -> Csr {
    let mut indptr = vec![0u32; m.cols() + 1];
    for r in 0..m.rows() {
        for &c in m.row(r).0 {
            indptr[c as usize + 1] += 1;
        }
    }
    for c in 0..m.cols() {
        indptr[c + 1] += indptr[c];
    }
    let mut next = indptr.clone();
    let mut indices = vec![0u32; m.nnz()];
    let mut values = vec![0.0f32; m.nnz()];
    for r in 0..m.rows() {
        let (cols, weights) = m.row(r);
        for (&c, &w) in cols.iter().zip(weights) {
            let at = next[c as usize] as usize;
            indices[at] = r as u32;
            values[at] = w;
            next[c as usize] += 1;
        }
    }
    Csr::new(m.cols(), m.rows(), indptr, indices, values)
}

/// `out` plus every column the rows `rows` of `m` store, ascending and
/// without repeats.
fn columns_of(m: &Csr, rows: &[u32], mut out: Vec<u32>) -> Vec<u32> {
    for &r in rows {
        out.extend_from_slice(m.row(r as usize).0);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// What one [`IncrementalEncoder::flag`] recomputed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Frontier {
    /// `layers[l]` is `D_{l+1}`: the rows of layer `l + 1`'s output that
    /// were recomputed, ascending. Every other row kept its value.
    pub layers: [Vec<u32>; 3],
    /// `DE`: the endpoints whose embedding was recomputed, ascending.
    pub endpoints: Vec<u32>,
}

/// The rows `rows` of `t`, in order, as a new tensor.
fn rows_of(t: &Tensor, rows: &[u32]) -> Tensor {
    let mut data = Vec::with_capacity(rows.len() * t.cols());
    for &r in rows {
        data.extend_from_slice(t.row(r as usize));
    }
    Tensor::from_vec(rows.len(), t.cols(), data)
}

/// Overwrites row `rows[i]` of `t` with row `i` of `from`.
fn write_rows(t: &mut Tensor, rows: &[u32], from: &Tensor) {
    let m = t.cols();
    for (i, &r) in rows.iter().enumerate() {
        let at = r as usize * m;
        t.data_mut()[at..at + m].copy_from_slice(from.row(i));
    }
}

/// EP-GNN embeddings of one design kept current across flag flips: the
/// state of one selection trajectory (see the module docs).
#[derive(Debug)]
pub struct IncrementalEncoder<'a> {
    gnn: &'a EpGnn,
    graph: &'a EpGraph,
    gates: [Var; 3],
    /// `layers[0]` is the feature matrix with the current flags;
    /// `layers[l]` is layer `l`'s output.
    layers: [Tensor; 4],
    /// The current endpoint embeddings (E×embed).
    embeddings: Tensor,
}

/// The dense pass's outputs — the three layer outputs (V×hidden each) and
/// the endpoint embeddings (E×embed) — copied off the tape as plain
/// tensors. Nothing is flagged yet, so they are a pure function of
/// (parameters, design): every trajectory of one model on one design can
/// start from one copy ([`IncrementalEncoder::resume`]).
#[derive(Clone, Debug)]
pub struct StoredEncode {
    layers: [Tensor; 3],
    embeddings: Tensor,
}

impl StoredEncode {
    /// Bytes of `f32` storage held: `(3·V·hidden + E·embed)·4`.
    pub fn bytes(&self) -> usize {
        let floats: usize = self.layers.iter().map(|t| t.data().len()).sum();
        (floats + self.embeddings.data().len()) * std::mem::size_of::<f32>()
    }
}

impl<'a> IncrementalEncoder<'a> {
    /// The dense pass over the unflagged features `base` (V×13) — the ops
    /// of [`EpGnn::forward`] — with the layer outputs copied off the tape.
    pub fn start<T: TapeOps>(
        gnn: &'a EpGnn,
        tape: &mut T,
        binding: &ParamBinding,
        graph: &'a EpGraph,
        base: &Tensor,
    ) -> Self {
        let _span = rl_ccd_obs::span!("core.incremental.encode0", cells = base.rows());
        let gates = [0, 1, 2].map(|l| gnn.gate(tape, binding, l));
        let mut below = tape.leaf(base.clone());
        let h = [0, 1, 2].map(|l| {
            below = gnn.layer(tape, binding, l, gates[l], below, &graph.adjacency, below);
            below
        });
        let embeddings = gnn.embed(tape, binding, &graph.readout, below);
        let [h1, h2, h3] = h.map(|v| tape.value(v).clone());
        Self {
            gnn,
            graph,
            gates,
            layers: [base.clone(), h1, h2, h3],
            embeddings: tape.value(embeddings).clone(),
        }
    }

    /// The dense pass of [`IncrementalEncoder::start`], kept as what
    /// [`IncrementalEncoder::resume`] starts from.
    pub fn encode<T: TapeOps>(
        gnn: &EpGnn,
        tape: &mut T,
        binding: &ParamBinding,
        graph: &EpGraph,
        base: &Tensor,
    ) -> StoredEncode {
        let encoder = IncrementalEncoder::start(gnn, tape, binding, graph, base);
        let [_, h1, h2, h3] = encoder.layers;
        StoredEncode {
            layers: [h1, h2, h3],
            embeddings: encoder.embeddings,
        }
    }

    /// [`IncrementalEncoder::start`] without the dense pass: the encoder
    /// holds copies of `stored`'s tensors, so it is in the state `start`
    /// leaves it in, value for value. `stored` must come from
    /// [`IncrementalEncoder::encode`] on the same parameters, graph and
    /// features.
    pub fn resume<T: TapeOps>(
        gnn: &'a EpGnn,
        tape: &mut T,
        binding: &ParamBinding,
        graph: &'a EpGraph,
        base: &Tensor,
        stored: &StoredEncode,
    ) -> Self {
        assert!(
            stored.layers.iter().all(|t| t.rows() == base.rows())
                && stored.embeddings.rows() == graph.readout.rows(),
            "stored encode is of another design"
        );
        let [h1, h2, h3] = stored.layers.clone();
        Self {
            gnn,
            graph,
            gates: [0, 1, 2].map(|l| gnn.gate(tape, binding, l)),
            layers: [base.clone(), h1, h2, h3],
            embeddings: stored.embeddings.clone(),
        }
    }

    /// Sets the "RL masked" flag of `cells` (repeats and already-flagged
    /// cells are harmless), recomputes the rows and endpoints that can see
    /// them, and reports which those were.
    pub fn flag<T: TapeOps>(
        &mut self,
        tape: &mut T,
        binding: &ParamBinding,
        cells: &[u32],
    ) -> Frontier {
        let mut frontier = Frontier::default();
        let mut dirty = cells.to_vec();
        dirty.sort_unstable();
        dirty.dedup();
        if dirty.is_empty() {
            return frontier;
        }
        let mut span = rl_ccd_obs::span!("core.incremental.patch");
        for &c in &dirty {
            self.layers[0].set(c as usize, MASKED_COL, 1.0);
        }
        let adjacency = &self.graph.adjacency;
        for l in 0..3 {
            // Layer l+1 moves where it reads a moved row of layer l: on
            // that row itself and on the rows that aggregate it.
            dirty = columns_of(&self.graph.adjacency_t, &dirty, dirty.clone());
            let reads = columns_of(adjacency, &dirty, dirty.clone());
            let all = tape.leaf(rows_of(&self.layers[l], &reads));
            let at = |r| reads.binary_search(r).expect("reads holds dirty") as u32;
            let own = tape.gather_rows(all, Arc::new(dirty.iter().map(at).collect()));
            let sub = Arc::new(adjacency.row_subset(&dirty, &reads));
            let h = self
                .gnn
                .layer(tape, binding, l, self.gates[l], own, &sub, all);
            write_rows(&mut self.layers[l + 1], &dirty, tape.value(h));
            frontier.layers[l] = dirty.clone();
        }
        let readout = &self.graph.readout;
        let touched = columns_of(&self.graph.readout_t, &dirty, Vec::new());
        if !touched.is_empty() {
            let reads = columns_of(readout, &touched, Vec::new());
            let all = tape.leaf(rows_of(&self.layers[3], &reads));
            let sub = Arc::new(readout.row_subset(&touched, &reads));
            let embeddings = self.gnn.embed(tape, binding, &sub, all);
            write_rows(&mut self.embeddings, &touched, tape.value(embeddings));
        }
        span.record("rows", dirty.len());
        span.record("endpoints", touched.len());
        frontier.endpoints = touched;
        frontier
    }

    /// The current endpoint embeddings (E×embed), as a leaf of `tape`.
    pub fn embeddings<T: TapeOps>(&self, tape: &mut T) -> Var {
        tape.leaf(self.embeddings.clone())
    }

    /// The current value of row `row` of layer `layer`'s output (layer 0
    /// is the feature matrix).
    pub fn layer_row(&self, layer: usize, row: usize) -> &[f32] {
        self.layers[layer].row(row)
    }
}
