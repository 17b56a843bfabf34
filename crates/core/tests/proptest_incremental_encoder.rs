//! Parity pin of the incremental EP-GNN encoder against the dense pass, in
//! the `IncrementalTimer` tradition (`crates/sta/tests/proptest_incremental`):
//! the dense encode is the oracle, the incremental encode must reproduce it
//! **bit for bit** at every step of every trajectory, on both executors and
//! both kernel modes. A second property pins the stored step-0 encode: an
//! encoder resumed from one executor's copied-off dense pass is, on every
//! executor, a freshly started one.
//!
//! One `u64` pins a whole case (design, technology, ρ, fan-out cap, widths,
//! trajectory kind, executor), which keeps failures reproducible under the
//! vendored proptest (no shrinking).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_ccd::{
    select_endpoints, CcdEnv, EpGnn, EpGraph, Frontier, IncrementalEncoder, RlCcd, RlConfig,
    SelectionMask, StoredEncode, FEATURE_DIM,
};
use rl_ccd_flow::FlowRecipe;
use rl_ccd_netlist::{generate, DesignSpec, EndpointId, TechNode};
use rl_ccd_nn::{Csr, NoGradTape, ParamSet, Tape, TapeOps, Tensor};
use std::sync::Arc;

fn env_for(cells: usize, tech: TechNode, seed: u64, fanout_cap: usize) -> CcdEnv {
    let d = generate(&DesignSpec::new("pinc", cells, tech, seed));
    CcdEnv::new(d, FlowRecipe::default(), fanout_cap)
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

fn local(env: &CcdEnv, selected: &[EndpointId]) -> Vec<usize> {
    selected
        .iter()
        .map(|e| env.pool().iter().position(|p| p == e).expect("in pool"))
        .collect()
}

fn cells_of(env: &CcdEnv, pool_indices: &[usize]) -> Vec<u32> {
    pool_indices
        .iter()
        .map(|&i| env.pool_cells()[i].index() as u32)
        .collect()
}

/// Every layer row and every endpoint embedding an encoder currently
/// holds, as bits: `[features, h1, h2, h3, embeddings]`.
fn snapshot<T: TapeOps>(
    enc: &IncrementalEncoder<'_>,
    tape: &mut T,
    cells: usize,
) -> Vec<Vec<Vec<u32>>> {
    let mut all: Vec<Vec<Vec<u32>>> = (0..4)
        .map(|l| (0..cells).map(|r| bits(enc.layer_row(l, r))).collect())
        .collect();
    let e = enc.embeddings(tape);
    let e = tape.value(e);
    all.push((0..e.rows()).map(|r| bits(e.row(r))).collect());
    all
}

/// Drives `enc` through the flag sets `steps` on one executor. After every
/// flag: the incremental embeddings equal [`EpGnn::forward`] on the fully
/// flagged features, every layer row equals a fresh dense pass's, and the
/// frontier is sound — a row the patch did not recompute is bit-equal
/// between the dense passes of this step and the one before.
fn check_against_dense<T: TapeOps>(
    tape: &mut T,
    params: &ParamSet,
    graph: &EpGraph,
    base: &Tensor,
    steps: &[Vec<u32>],
) -> Result<Vec<Frontier>, TestCaseError> {
    let gnn = EpGnn::attach(params);
    let binding = params.bind(tape);
    let cells = base.rows();
    let mut enc = IncrementalEncoder::start(&gnn, tape, &binding, graph, base);
    let mut flagged = base.clone();
    let dense = IncrementalEncoder::start(&gnn, tape, &binding, graph, &flagged);
    let mut before = snapshot(&dense, tape, cells);
    prop_assert_eq!(&snapshot(&enc, tape, cells), &before, "step-0 encode");
    let mut frontiers = Vec::new();
    for (t, step) in steps.iter().enumerate() {
        let frontier = enc.flag(tape, &binding, step);
        for &c in step {
            flagged.set(c as usize, rl_ccd::MASKED_COL, 1.0);
        }
        // The oracle named by the contract: the plain dense forward.
        let x = tape.leaf(flagged.clone());
        let oracle = gnn.forward(tape, &binding, x, graph.adjacency(), graph.readout());
        let oracle: Vec<Vec<u32>> = {
            let o = tape.value(oracle);
            (0..o.rows()).map(|r| bits(o.row(r))).collect()
        };
        let now = snapshot(&enc, tape, cells);
        prop_assert_eq!(&now[4], &oracle, "embeddings diverge at step {}", t);
        // The same dense pass with its layers kept.
        let dense = IncrementalEncoder::start(&gnn, tape, &binding, graph, &flagged);
        let dense = snapshot(&dense, tape, cells);
        for l in 0..5 {
            prop_assert_eq!(&now[l], &dense[l], "layer {} diverges at step {}", l, t);
        }
        for (l, recomputed) in frontier.layers.iter().enumerate() {
            for r in (0..cells).filter(|&r| recomputed.binary_search(&(r as u32)).is_err()) {
                prop_assert_eq!(
                    &dense[l + 1][r],
                    &before[l + 1][r],
                    "row {} of layer {} moved outside the frontier at step {}",
                    r,
                    l + 1,
                    t
                );
            }
        }
        for e in
            (0..oracle.len()).filter(|&e| frontier.endpoints.binary_search(&(e as u32)).is_err())
        {
            prop_assert_eq!(&dense[4][e], &before[4][e], "endpoint {} at step {}", e, t);
        }
        before = dense;
        frontiers.push(frontier);
    }
    Ok(frontiers)
}

/// The flag sets of one trajectory: per step, the action's cell then the
/// cells of the endpoints it masked.
fn flag_steps(env: &CcdEnv, rho: f32, actions: &[usize]) -> Vec<Vec<u32>> {
    let mut mask = SelectionMask::new(env.pool().len(), rho);
    actions
        .iter()
        .map(|&a| {
            let mut flagged = vec![a];
            flagged.extend(mask.select(a, env.cones()));
            cells_of(env, &flagged)
        })
        .collect()
}

fn uniform_actions(env: &CcdEnv, rho: f32, rng: &mut StdRng) -> Vec<usize> {
    let mut mask = SelectionMask::new(env.pool().len(), rho);
    let mut actions = Vec::new();
    while mask.any_valid() {
        let valid: Vec<usize> = (0..mask.len()).filter(|&i| mask.valid_mask()[i]).collect();
        let a = valid[rng.gen_range(0..valid.len())];
        mask.select(a, env.cones());
        actions.push(a);
    }
    actions
}

/// [`check_against_dense`] on one of the four executors: no-grad or
/// gradient tape, fast or scalar-reference kernels.
fn check_on(
    executor: u32,
    params: &ParamSet,
    graph: &EpGraph,
    base: &Tensor,
    steps: &[Vec<u32>],
) -> Result<Vec<Frontier>, TestCaseError> {
    match executor {
        0 => check_against_dense(&mut NoGradTape::new(), params, graph, base, steps),
        1 => check_against_dense(
            &mut NoGradTape::scalar_reference(),
            params,
            graph,
            base,
            steps,
        ),
        2 => check_against_dense(&mut Tape::new(), params, graph, base, steps),
        _ => check_against_dense(&mut Tape::scalar_reference(), params, graph, base, steps),
    }
}

fn on_every_executor(
    params: &ParamSet,
    graph: &EpGraph,
    base: &Tensor,
    steps: &[Vec<u32>],
) -> Result<Vec<Frontier>, TestCaseError> {
    let first = check_on(0, params, graph, base, steps)?;
    for executor in 1..4 {
        let again = check_on(executor, params, graph, base, steps)?;
        prop_assert_eq!(&again, &first, "frontiers depend on the executor");
    }
    Ok(first)
}

/// The dense pass's outputs copied off executor `executor`.
fn stored_on(executor: u32, params: &ParamSet, graph: &EpGraph, base: &Tensor) -> StoredEncode {
    fn encode<T: TapeOps>(
        tape: &mut T,
        params: &ParamSet,
        graph: &EpGraph,
        base: &Tensor,
    ) -> StoredEncode {
        let binding = params.bind(tape);
        IncrementalEncoder::encode(&EpGnn::attach(params), tape, &binding, graph, base)
    }
    match executor {
        0 => encode(&mut NoGradTape::new(), params, graph, base),
        1 => encode(&mut NoGradTape::scalar_reference(), params, graph, base),
        2 => encode(&mut Tape::new(), params, graph, base),
        _ => encode(&mut Tape::scalar_reference(), params, graph, base),
    }
}

/// Drives an encoder resumed from `stored` and a freshly started one
/// through `steps` side by side on one executor: the same frontier and the
/// same bits in every layer row and every embedding, at step 0 and after
/// every flag.
fn check_resumed<T: TapeOps>(
    tape: &mut T,
    params: &ParamSet,
    graph: &EpGraph,
    base: &Tensor,
    stored: &StoredEncode,
    steps: &[Vec<u32>],
) -> Result<(), TestCaseError> {
    let gnn = EpGnn::attach(params);
    let binding = params.bind(tape);
    let cells = base.rows();
    let mut fresh = IncrementalEncoder::start(&gnn, tape, &binding, graph, base);
    let mut resumed = IncrementalEncoder::resume(&gnn, tape, &binding, graph, base, stored);
    let want = snapshot(&fresh, tape, cells);
    prop_assert_eq!(&snapshot(&resumed, tape, cells), &want, "step-0 encode");
    for (t, step) in steps.iter().enumerate() {
        let frontier = fresh.flag(tape, &binding, step);
        prop_assert_eq!(&resumed.flag(tape, &binding, step), &frontier, "step {}", t);
        let want = snapshot(&fresh, tape, cells);
        prop_assert_eq!(&snapshot(&resumed, tape, cells), &want, "step {}", t);
    }
    Ok(())
}

/// One generated case: a design, a model, one trajectory's flag sets and
/// the executor to run them on.
struct Case {
    env: CcdEnv,
    params: ParamSet,
    steps: Vec<Vec<u32>>,
    executor: u32,
}

fn generate_case(case: u64) -> Case {
    let rng = &mut StdRng::seed_from_u64(case);
    let cells = rng.gen_range(300usize..=1200);
    let tech = [TechNode::N5, TechNode::N7, TechNode::N12][rng.gen_range(0..3usize)];
    let rho = [0.1f32, 0.3, 0.6][rng.gen_range(0..3usize)];
    let fanout_cap = [4usize, 24][rng.gen_range(0..2usize)];
    let env = env_for(cells, tech, rng.gen_range(0u64..1000), fanout_cap);
    // Widths on and off the kernels' lane and quad boundaries.
    let mut cfg = RlConfig::fast();
    cfg.rho = rho;
    cfg.gnn_hidden = [8usize, 11, 32][rng.gen_range(0..3usize)];
    cfg.embed_dim = [4usize, 7][rng.gen_range(0..2usize)];
    cfg.seed = rng.gen_range(0u64..1000);
    let (model, params) = RlCcd::init(cfg);
    let actions = match rng.gen_range(0..3u32) {
        0 => {
            let mut sampler = StdRng::seed_from_u64(rng.gen_range(0u64..1000));
            local(&env, &model.rollout(&params, &env, &mut sampler).selected)
        }
        1 => local(&env, &model.rollout_greedy(&params, &env).selected),
        _ => uniform_actions(&env, rho, rng),
    };
    let steps = flag_steps(&env, rho, &actions);
    let executor = rng.gen_range(0..4u32);
    Case {
        env,
        params,
        steps,
        executor,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn incremental_encode_is_the_dense_encode_at_every_step(case in any::<u64>()) {
        let c = generate_case(case);
        check_on(c.executor, &c.params, c.env.graph(), c.env.features().base(), &c.steps)?;
    }

    /// The store cannot change an answer: whichever executor wrote the
    /// stored encode, every executor that resumes from it holds what it
    /// would have computed itself.
    #[test]
    fn an_encoder_resumed_from_a_stored_encode_is_a_freshly_started_one(case in any::<u64>()) {
        let c = generate_case(case);
        let (params, graph, base) = (&c.params, c.env.graph(), c.env.features().base());
        let stored = &stored_on(c.executor, params, graph, base);
        let steps = &c.steps;
        check_resumed(&mut NoGradTape::new(), params, graph, base, stored, steps)?;
        check_resumed(&mut NoGradTape::scalar_reference(), params, graph, base, stored, steps)?;
        check_resumed(&mut Tape::new(), params, graph, base, stored, steps)?;
        check_resumed(&mut Tape::scalar_reference(), params, graph, base, stored, steps)?;
    }
}

/// 3 nodes in a line (0-1-2), both endpoints read node 2 + cone {1} — the
/// graphs of `epgnn.rs`'s unit tests.
fn tiny_graph() -> EpGraph {
    let adj = Csr::new(
        3,
        3,
        vec![0, 1, 3, 4],
        vec![1, 0, 2, 1],
        vec![1.0, 0.5, 0.5, 1.0],
    );
    let readout = Csr::new(2, 3, vec![0, 2, 3], vec![2, 1, 2], vec![1.0, 1.0, 1.0]);
    EpGraph::new(Arc::new(adj), Arc::new(readout))
}

fn tiny_features() -> Tensor {
    let mut x = Tensor::zeros(3, FEATURE_DIM);
    for r in 0..3 {
        for c in 1..FEATURE_DIM {
            x.set(r, c, ((r * FEATURE_DIM + c) as f32 * 0.37).sin());
        }
    }
    x
}

#[test]
fn tiny_graph_dirties_every_row_and_repeated_cells_are_harmless() {
    let (_, params) = RlCcd::init(RlConfig::fast());
    let (graph, x) = (tiny_graph(), tiny_features());
    // Node 2 is read by node 1, which nodes 0 and 2 read: two hops cover
    // the graph, so layers 2 and 3 are recomputed whole.
    let frontiers = on_every_executor(&params, &graph, &x, &[vec![2]]).expect("parity");
    assert_eq!(
        frontiers[0].layers,
        [vec![1, 2], vec![0, 1, 2], vec![0, 1, 2]]
    );
    assert_eq!(frontiers[0].endpoints, vec![0, 1]);
    // A flag set naming a cell twice, a cell flagged again later, and an
    // empty set patch the same rows to the same bits.
    let again =
        on_every_executor(&params, &graph, &x, &[vec![2, 2], vec![2, 0], vec![]]).expect("parity");
    assert_eq!(again[0], frontiers[0]);
    assert_eq!(again[2], Frontier::default());
}

/// Rebuilds `env`'s design at a relaxed period under which exactly `want`
/// endpoints still violate.
fn env_with_pool_of(want: usize) -> CcdEnv {
    let design = generate(&DesignSpec::new("pinc_small", 300, TechNode::N7, 5));
    let (mut lo, mut hi) = (design.period_ps, design.period_ps * 8.0);
    for _ in 0..60 {
        let mut d = design.clone();
        d.period_ps = 0.5 * (lo + hi);
        let env = CcdEnv::new(d, FlowRecipe::default(), 24);
        match env.pool().len() {
            n if n == want => return env,
            n if n > want => lo = 0.5 * (lo + hi),
            _ => hi = 0.5 * (lo + hi),
        }
    }
    panic!("no period leaves exactly {want} violating endpoints");
}

#[test]
fn pools_of_one_and_zero() {
    let (model, params) = RlCcd::init(RlConfig::fast());
    let one = env_with_pool_of(1);
    let selection = select_endpoints(&model, &params, &one);
    assert_eq!(selection, model.rollout_greedy(&params, &one).selected);
    assert_eq!(selection.len(), 1);
    let steps = flag_steps(&one, 0.3, &[0]);
    on_every_executor(&params, one.graph(), one.features().base(), &steps).expect("parity");
    // No violating endpoint: nothing to select, and an encoder with no
    // endpoints to embed still patches its layers like the dense pass.
    let none = env_with_pool_of(0);
    assert!(select_endpoints(&model, &params, &none).is_empty());
    let frontiers = on_every_executor(
        &params,
        none.graph(),
        none.features().base(),
        &[vec![0], vec![7, 3]],
    )
    .expect("parity");
    assert!(frontiers.iter().all(|f| f.endpoints.is_empty()));
}

#[test]
fn a_step_that_masks_nothing_flags_only_its_action() {
    // No overlap ratio exceeds ρ = 1: every step flags exactly one cell.
    let env = env_for(400, TechNode::N12, 17, 24);
    let (_, params) = RlCcd::init(RlConfig::fast());
    let actions: Vec<usize> = (0..env.pool().len().min(5)).collect();
    let steps = flag_steps(&env, 1.0, &actions);
    assert!(steps.iter().all(|s| s.len() == 1));
    on_every_executor(&params, env.graph(), env.features().base(), &steps).expect("parity");
}
