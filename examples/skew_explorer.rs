//! Explore the useful-skew engine: run it with and without endpoint
//! margins, inspect the skew histogram, and trace the worst path before and
//! after — a tour of the substrate under the RL agent.
//!
//! ```text
//! cargo run --release --example skew_explorer
//! ```

use rl_ccd_flow::{
    prioritization_margins, run_useful_skew, skew_histogram, FlowRecipe, MarginMode, UsefulSkewOpts,
};
use rl_ccd_netlist::{generate, DesignSpec, EndpointId, TechNode};
use rl_ccd_sta::{
    analyze, full_report, Constraints, EndpointMargins, IncrementalTimer, TimingGraph,
};

fn main() {
    let design = generate(&DesignSpec::new("explorer", 1000, TechNode::N12, 5));
    let recipe = FlowRecipe::default();
    let graph = TimingGraph::new(&design.netlist);
    let cons = Constraints::with_period(design.period_ps);
    let zero = EndpointMargins::zero(&design.netlist);

    // Before: balanced clock tree.
    let mut clocks = recipe.clock_schedule(&design.netlist, design.period_ps);
    let before = analyze(&design.netlist, &graph, &cons, &clocks, &zero);
    println!("=== before useful skew ===");
    println!("{}", full_report(&design.netlist, &before, &clocks, 2));

    // Plain run.
    let mut timer = IncrementalTimer::new(&design.netlist, &cons, &clocks, &zero);
    let out = run_useful_skew(
        &design.netlist,
        &mut clocks,
        &mut timer,
        &UsefulSkewOpts::default(),
    );
    println!(
        "=== after useful skew ({} sweeps, {} moves) ===",
        out.sweeps, out.moves
    );
    println!("{}", full_report(&design.netlist, &out.report, &clocks, 2));

    let (edges, counts) = skew_histogram(&clocks, 6);
    println!("skew histogram:");
    for i in 0..counts.len() {
        println!(
            "  [{:>7.1}, {:>7.1}) {:>4} {}",
            edges[i],
            edges[i + 1],
            counts[i],
            "#".repeat(counts[i].min(60))
        );
    }

    // Margined run: worsen the five mildest violations to WNS and watch the
    // engine redirect its effort (this is RL-CCD's lever).
    let mildest: Vec<EndpointId> = before
        .violating_endpoints()
        .into_iter()
        .rev()
        .take(5)
        .map(EndpointId::new)
        .collect();
    let margins = prioritization_margins(
        &before,
        &mildest,
        MarginMode::OverFixToWns,
        EndpointMargins::zero(&design.netlist),
    );
    let mut clocks2 = recipe.clock_schedule(&design.netlist, design.period_ps);
    let mut timer = IncrementalTimer::new(&design.netlist, &cons, &clocks2, &margins);
    run_useful_skew(
        &design.netlist,
        &mut clocks2,
        &mut timer,
        &UsefulSkewOpts::default(),
    );
    let after2 = analyze(&design.netlist, &graph, &cons, &clocks2, &zero);
    println!("=== margined run: prioritizing the 5 mildest violations ===");
    for &e in &mildest {
        println!(
            "  endpoint e{}: slack {:>8.1} ps → {:>8.1} ps (over-fixed by the engine)",
            e.index(),
            before.endpoint_slack(e.index()),
            after2.endpoint_slack(e.index()),
        );
    }
    println!(
        "plain TNS {:.1} ps vs margined TNS {:.1} ps",
        out.report.tns(),
        after2.tns()
    );
}
