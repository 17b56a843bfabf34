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
//! **Provenance, not mutation.** Nothing is updated in place. For every
//! layer row and every endpoint the encoder records which `(Var, row)`
//! currently holds its value; a patch records new compact variables and
//! repoints the rows it recomputed. Rows are read back through the one
//! multi-source gather [`TapeOps::gather_from`], whose backward pass
//! scatters into each source — so the same code is differentiable on a
//! gradient [`rl_ccd_nn::Tape`] and every value a backward pass could need
//! is still on the tape.
//!
//! **Encode once per (θ, design).** The same property makes the dense
//! pass storable: [`IncrementalEncoder::encode`] copies its outputs off the
//! tape as a [`StoredEncode`], and [`IncrementalEncoder::resume`] starts a
//! trajectory from such a copy — the tensors become leaves, the values are
//! the dense pass's own (copied, not recomputed), and since a patch never
//! writes a row, one stored encode serves any number of trajectories.

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

fn repoint(rows: &mut [(Var, u32)], dirty: &[u32], to: Var) {
    for (i, &r) in dirty.iter().enumerate() {
        rows[r as usize] = (to, i as u32);
    }
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

/// EP-GNN embeddings of one design kept current across flag flips: the
/// state of one selection trajectory (see the module docs).
#[derive(Debug)]
pub struct IncrementalEncoder<'a> {
    gnn: &'a EpGnn,
    graph: &'a EpGraph,
    base: &'a Tensor,
    gates: [Var; 3],
    /// `layers[l][r]` is the `(Var, row)` holding row `r` of layer `l`'s
    /// output; layer 0 is the feature matrix.
    layers: [Vec<(Var, u32)>; 4],
    /// `endpoints[e]` is the `(Var, row)` holding endpoint `e`'s embedding.
    endpoints: Vec<(Var, u32)>,
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

/// The dense pass over the unflagged features `base` (V×13) — the ops of
/// [`EpGnn::forward`] — with every layer's variable kept: the gates, the
/// feature leaf, the three layer outputs, the endpoint embeddings.
fn dense_pass<T: TapeOps>(
    gnn: &EpGnn,
    tape: &mut T,
    binding: &ParamBinding,
    graph: &EpGraph,
    base: &Tensor,
) -> ([Var; 3], Var, [Var; 3], Var) {
    let gates = [0, 1, 2].map(|l| gnn.gate(tape, binding, l));
    let x = tape.leaf(base.clone());
    let (mut h, mut below) = ([x; 3], x);
    for l in 0..3 {
        below = gnn.layer(tape, binding, l, gates[l], below, &graph.adjacency, below);
        h[l] = below;
    }
    let embeddings = gnn.embed(tape, binding, &graph.readout, below);
    (gates, x, h, embeddings)
}

impl<'a> IncrementalEncoder<'a> {
    /// The dense pass over the unflagged features `base` (V×13) — the ops
    /// of [`EpGnn::forward`] — with the layer outputs kept.
    pub fn start<T: TapeOps>(
        gnn: &'a EpGnn,
        tape: &mut T,
        binding: &ParamBinding,
        graph: &'a EpGraph,
        base: &'a Tensor,
    ) -> Self {
        let (gates, x, h, embeddings) = dense_pass(gnn, tape, binding, graph, base);
        Self::over(gnn, graph, base, gates, x, h, embeddings)
    }

    /// The dense pass of [`IncrementalEncoder::start`] with its outputs
    /// copied off the tape — what [`IncrementalEncoder::resume`] starts
    /// from.
    pub fn encode<T: TapeOps>(
        gnn: &EpGnn,
        tape: &mut T,
        binding: &ParamBinding,
        graph: &EpGraph,
        base: &Tensor,
    ) -> StoredEncode {
        let (_, _, h, embeddings) = dense_pass(gnn, tape, binding, graph, base);
        StoredEncode {
            layers: h.map(|v| tape.value(v).clone()),
            embeddings: tape.value(embeddings).clone(),
        }
    }

    /// [`IncrementalEncoder::start`] without the dense pass: `stored`'s
    /// tensors become leaves of `tape` and every row points at them, so the
    /// encoder is in the state `start` leaves it in, value for value.
    /// `stored` must come from [`IncrementalEncoder::encode`] on the same
    /// parameters, graph and features; it is read, never written — a patch
    /// repoints rows to new variables and leaves these alone.
    pub fn resume<T: TapeOps>(
        gnn: &'a EpGnn,
        tape: &mut T,
        binding: &ParamBinding,
        graph: &'a EpGraph,
        base: &'a Tensor,
        stored: &StoredEncode,
    ) -> Self {
        assert!(
            stored.layers.iter().all(|t| t.rows() == base.rows())
                && stored.embeddings.rows() == graph.readout.rows(),
            "stored encode is of another design"
        );
        let gates = [0, 1, 2].map(|l| gnn.gate(tape, binding, l));
        let x = tape.leaf(base.clone());
        let h = stored.layers.each_ref().map(|t| tape.leaf(t.clone()));
        let embeddings = tape.leaf(stored.embeddings.clone());
        Self::over(gnn, graph, base, gates, x, h, embeddings)
    }

    /// The state right after a dense pass: every row of every layer is
    /// held by that layer's one variable.
    fn over(
        gnn: &'a EpGnn,
        graph: &'a EpGraph,
        base: &'a Tensor,
        gates: [Var; 3],
        x: Var,
        h: [Var; 3],
        embeddings: Var,
    ) -> Self {
        let whole = |v: Var, n: usize| (0..n as u32).map(|r| (v, r)).collect::<Vec<_>>();
        let cells = base.rows();
        Self {
            gnn,
            graph,
            base,
            gates,
            layers: [x, h[0], h[1], h[2]].map(|v| whole(v, cells)),
            endpoints: whole(embeddings, graph.readout.rows()),
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
        let width = self.base.cols();
        let mut x = Vec::with_capacity(dirty.len() * width);
        for &c in &dirty {
            let at = x.len();
            x.extend_from_slice(self.base.row(c as usize));
            x[at + MASKED_COL] = 1.0;
        }
        let x = tape.leaf(Tensor::from_vec(dirty.len(), width, x));
        repoint(&mut self.layers[0], &dirty, x);
        let adjacency = &self.graph.adjacency;
        for l in 0..3 {
            // Layer l+1 moves where it reads a moved row of layer l: on
            // that row itself and on the rows that aggregate it.
            dirty = columns_of(&self.graph.adjacency_t, &dirty, dirty.clone());
            let reads = columns_of(adjacency, &dirty, dirty.clone());
            let all = self.gather(tape, l, &reads);
            let at = |r| reads.binary_search(r).expect("reads holds dirty") as u32;
            let own = tape.gather_rows(all, Arc::new(dirty.iter().map(at).collect()));
            let sub = Arc::new(adjacency.row_subset(&dirty, &reads));
            let h = self
                .gnn
                .layer(tape, binding, l, self.gates[l], own, &sub, all);
            repoint(&mut self.layers[l + 1], &dirty, h);
            frontier.layers[l] = dirty.clone();
        }
        let readout = &self.graph.readout;
        let touched = columns_of(&self.graph.readout_t, &dirty, Vec::new());
        if !touched.is_empty() {
            let reads = columns_of(readout, &touched, Vec::new());
            let all = self.gather(tape, 3, &reads);
            let sub = Arc::new(readout.row_subset(&touched, &reads));
            let embeddings = self.gnn.embed(tape, binding, &sub, all);
            repoint(&mut self.endpoints, &touched, embeddings);
        }
        frontier.endpoints = touched;
        frontier
    }

    /// The current endpoint embeddings (E×embed), assembled from wherever
    /// each endpoint was last computed.
    pub fn embeddings<T: TapeOps>(&self, tape: &mut T) -> Var {
        tape.gather_from(&self.endpoints)
    }

    /// The current value of row `row` of layer `layer`'s output (layer 0
    /// is the feature matrix), read where it was last computed.
    pub fn layer_row<'t, T: TapeOps>(&self, tape: &'t T, layer: usize, row: usize) -> &'t [f32] {
        let (var, at) = self.layers[layer][row];
        tape.value(var).row(at as usize)
    }

    fn gather<T: TapeOps>(&self, tape: &mut T, layer: usize, rows: &[u32]) -> Var {
        let picks: Vec<(Var, u32)> = rows
            .iter()
            .map(|&r| self.layers[layer][r as usize])
            .collect();
        tape.gather_from(&picks)
    }
}
