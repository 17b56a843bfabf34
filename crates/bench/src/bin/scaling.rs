//! **Scaling study**: how every pipeline stage grows with design size.
//!
//! The paper notes RL's runtime "may be prohibitive" and answers with
//! transfer learning; this harness quantifies where our reproduction's time
//! goes — STA pass, full default flow, one GNN forward, one training
//! rollout (dense re-encode per step), the same trajectory through the
//! inference path (one dense encode, then a dirty-frontier patch per step)
//! and again through a session holding the stored encode (a served query
//! that hits the encode store: four tensor copies, then the patches) —
//! across a size sweep.
//!
//! Usage:
//! ```text
//! scaling [--max-cells 8000] [--csv scaling.csv] [--trace-out run.jsonl]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd::{sample_endpoints, CcdEnv, InferSession, RlCcd, RlConfig};
use rl_ccd_bench::{write_csv, Cli};
use rl_ccd_flow::FlowRecipe;
use rl_ccd_netlist::{generate, DesignSpec, TechNode};
use rl_ccd_sta::{analyze, Constraints, EndpointMargins, TimingGraph};
use std::sync::Arc;
use std::time::Instant;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn main() -> Result<(), rl_ccd::Error> {
    let cli = Cli::from_env();
    let _obs = cli.attach();
    let max_cells: usize = cli.value("--max-cells", 8000);
    let csv = cli.csv("scaling.csv");

    println!(
        "{:>8} {:>8} {:>8} | {:>10} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "cells",
        "nets",
        "pool",
        "sta (ms)",
        "flow (ms)",
        "gnn (ms)",
        "rollout (ms)",
        "infer (ms)",
        "warm (ms)"
    );
    let mut csv_rows = Vec::new();
    let mut cells = 500usize;
    while cells <= max_cells {
        let d = generate(&DesignSpec::new("scale", cells, TechNode::N7, 7));
        let n_cells = d.netlist.cell_count();
        let n_nets = d.netlist.net_count();

        // STA pass.
        let graph = TimingGraph::new(&d.netlist);
        let recipe = FlowRecipe::default();
        let clocks = recipe.clock_schedule(&d.netlist, d.period_ps);
        let cons = Constraints::with_period(d.period_ps);
        let margins = EndpointMargins::zero(&d.netlist);
        let t = Instant::now();
        for _ in 0..5 {
            let _ = analyze(&d.netlist, &graph, &cons, &clocks, &margins);
        }
        let sta_ms = ms(t) / 5.0;

        // Full default flow.
        let t = Instant::now();
        let _ = recipe.run(&d, &[]);
        let flow_ms = ms(t);

        // GNN forward + one rollout.
        let env = CcdEnv::new(d, recipe, 24);
        let (model, params) = RlCcd::init(RlConfig::default());
        let t = Instant::now();
        {
            let mut tape = rl_ccd_nn::Tape::new();
            let binding = params.bind(&mut tape);
            let x = tape.leaf(env.features().with_flags(&[]));
            let _ = model.gnn_forward(&mut tape, &binding, x, env.adjacency(), env.readout());
        }
        let gnn_ms = ms(t);
        // The inference path first (one dense encode, then patches), then
        // the training rollout on the same seed: same selection. In this
        // order the allocator is not yet holding the rollout's tape.
        let t = Instant::now();
        let inferred = sample_endpoints(&model, &params, &env, &mut StdRng::seed_from_u64(1));
        let infer_ms = ms(t);
        // The same seed as a query that hits the encode store answers it:
        // a session that holds the stored step-0 encode (stored outside
        // the timer) copies it in and patches.
        let (warm, infer_warm_ms) = {
            let mut session = InferSession::new(&model, &params);
            let stored = Arc::new(session.encode(&env));
            session.hold(stored);
            let t = Instant::now();
            let warm = session.sample(&env, &mut StdRng::seed_from_u64(1));
            (warm, ms(t))
        };
        assert_eq!(warm, inferred, "a stored encode changed the answer");
        let t = Instant::now();
        let ro = model.rollout(&params, &env, &mut StdRng::seed_from_u64(1));
        let rollout_ms = ms(t);
        assert_eq!(inferred, ro.selected, "inference diverged from the rollout");

        println!(
            "{:>8} {:>8} {:>8} | {:>10.2} {:>10.1} {:>10.2} {:>12.1} {:>10.2} {:>10.2}",
            n_cells,
            n_nets,
            env.pool().len(),
            sta_ms,
            flow_ms,
            gnn_ms,
            rollout_ms,
            infer_ms,
            infer_warm_ms
        );
        csv_rows.push(format!(
            "{n_cells},{n_nets},{},{sta_ms:.3},{flow_ms:.2},{gnn_ms:.3},{rollout_ms:.2},{},{infer_ms:.3},{infer_warm_ms:.3}",
            env.pool().len(),
            ro.steps()
        ));
        cells *= 2;
    }
    write_csv(
        &csv,
        "cells,nets,pool,sta_ms,flow_ms,gnn_forward_ms,rollout_ms,trajectory_steps,infer_ms,infer_warm_ms",
        &csv_rows,
    )?;
    println!("wrote {csv}");
    cli.finish()
}
