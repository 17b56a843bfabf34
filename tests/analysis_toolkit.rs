//! Integration of the analysis toolkit around the core flow: histograms,
//! K-worst paths, QoR deltas, and serialization working together on the
//! same design.

use rl_ccd_flow::{run_useful_skew, FlowRecipe, UsefulSkewOpts};
use rl_ccd_netlist::{generate, read_netlist, write_netlist, DesignSpec, TechNode};
use rl_ccd_sta::{
    analyze, qor_delta, worst_paths, Constraints, EndpointMargins, IncrementalTimer,
    SlackHistogram, TimingGraph,
};

#[test]
fn toolkit_agrees_on_one_design() {
    let d = generate(&DesignSpec::new("toolkit", 900, TechNode::N7, 64));
    let recipe = FlowRecipe::default();
    let graph = TimingGraph::new(&d.netlist);
    let cons = Constraints::with_period(d.period_ps);
    let clocks = recipe.clock_schedule(&d.netlist, d.period_ps);
    let report = analyze(
        &d.netlist,
        &graph,
        &cons,
        &clocks,
        &EndpointMargins::zero(&d.netlist),
    );

    // Histogram totals = endpoint count; violating mass matches NVE.
    let hist = SlackHistogram::new(&report, -2.0 * d.period_ps, 2.0 * d.period_ps, 16);
    assert_eq!(hist.total(), d.netlist.endpoints().len());
    let negative_mass: usize = hist
        .counts()
        .iter()
        .zip(hist.edges().windows(2))
        .filter(|(_, e)| e[1] <= 0.0)
        .map(|(c, _)| c)
        .sum::<usize>()
        + hist.underflow();
    assert!(negative_mass <= report.nve() + hist.counts()[7].max(1));

    // K-worst paths agree with STA on the top path of the worst violators.
    let violators = report.violating_endpoints();
    assert_eq!(violators.len(), report.nve());
    assert!(!violators.is_empty(), "the design must violate somewhere");
    for &endpoint in violators.iter().take(3) {
        let paths = worst_paths(&d.netlist, &report, endpoint, 2);
        assert!((paths[0].arrival - report.endpoint_arrival(endpoint)).abs() < 0.5);
    }
}

#[test]
fn flow_then_useful_skew_then_delta() {
    let d = generate(&DesignSpec::new("tk2", 700, TechNode::N12, 65));
    let recipe = FlowRecipe::default();
    let (result, trace) = recipe.run_traced(&d, &[]);
    assert_eq!(trace.len(), 5);

    // Rebuild the post-begin state and run useful skew on the raw design.
    let graph = TimingGraph::new(&d.netlist);
    let cons = Constraints::with_period(d.period_ps);
    let mut clocks = recipe.clock_schedule(&d.netlist, d.period_ps);
    let zero = EndpointMargins::zero(&d.netlist);
    let before = analyze(&d.netlist, &graph, &cons, &clocks, &zero);
    let mut timer = IncrementalTimer::new(&d.netlist, &cons, &clocks, &zero);
    let out = run_useful_skew(
        &d.netlist,
        &mut clocks,
        &mut timer,
        &UsefulSkewOpts::default(),
    );
    // QoR delta machinery reports a consistent endpoint partition.
    let delta = qor_delta(&before, &out.report, 0.5);
    assert_eq!(
        delta.improved + delta.regressed + delta.unchanged,
        d.netlist.endpoints().len()
    );
    assert_eq!(delta.tns_delta_ps, out.report.tns() - before.tns());
    // And the full flow still reports sane numbers on the original design.
    assert!(result.final_qor.tns_ps >= result.begin.tns_ps);
}

#[test]
fn serialized_design_flows_identically() {
    let d = generate(&DesignSpec::new("tk3", 600, TechNode::N5, 66));
    let mut buf = Vec::new();
    write_netlist(&d.netlist, &mut buf).expect("serialize");
    let loaded = read_netlist(&buf[..]).expect("parse");
    let mut d2 = d.clone();
    d2.netlist = loaded;
    let recipe = FlowRecipe::default();
    let a = recipe.run(&d, &[]);
    let b = recipe.run(&d2, &[]);
    assert_eq!(a.final_qor.tns_ps, b.final_qor.tns_ps);
    assert_eq!(a.final_qor.nve, b.final_qor.nve);
    assert_eq!(a.skews, b.skews);
}
