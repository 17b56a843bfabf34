//! Cross-crate contracts between the netlist, STA, and flow substrates.

use rl_ccd_flow::{optimize_datapath, recover_power, DatapathOpts, FlowRecipe};
use rl_ccd_netlist::{analyze_power, generate, ClusterClass, DesignSpec, TechNode};
use rl_ccd_sta::{analyze, Constraints, EndpointMargins, IncrementalTimer, TimingGraph};

#[test]
fn datapath_mutations_keep_netlist_and_sta_consistent() {
    let d = generate(&DesignSpec::new("mut", 800, TechNode::N7, 17));
    let mut netlist = d.netlist.clone();
    let recipe = FlowRecipe::default();
    let clocks = recipe.clock_schedule(&netlist, d.period_ps);
    let cons = Constraints::with_period(d.period_ps);
    let margins = EndpointMargins::zero(&netlist);
    let before_cells = netlist.cell_count();
    let mut timer = IncrementalTimer::new(&netlist, &cons, &clocks, &margins);
    let (stats, report) = optimize_datapath(&mut netlist, &mut timer, &DatapathOpts::default());
    assert!(stats.total() > 0);
    // Structural invariants hold after all mutations.
    assert!(netlist.check().is_empty(), "{:?}", netlist.check());
    // Buffer insertion may add cells but never endpoints.
    assert!(netlist.cell_count() >= before_cells);
    assert_eq!(netlist.endpoints().len(), d.netlist.endpoints().len());
    // The returned report covers the mutated netlist.
    for i in 0..netlist.endpoints().len() {
        assert!(report.endpoint_slack(i).is_finite());
    }
    // Power recovery afterwards cannot break structure either.
    let (_, rep2) = recover_power(&mut netlist, &mut timer, 40.0);
    assert!(netlist.check().is_empty());
    assert!(rep2.tns() <= 0.0);
}

#[test]
fn flow_improves_all_three_cluster_classes_or_leaves_them() {
    let d = generate(&DesignSpec::new("classes", 1000, TechNode::N7, 19));
    let recipe = FlowRecipe::default();
    let res = recipe.run(&d, &[]);
    // Flow improves TNS overall.
    assert!(res.final_qor.tns_ps >= res.begin.tns_ps);
    // All three classes exist in a default-spec design.
    for class in [
        ClusterClass::Normal,
        ClusterClass::Deep,
        ClusterClass::Chain,
    ] {
        assert!(
            d.endpoint_class.contains(&class),
            "{class:?} missing from generated design"
        );
    }
    assert_eq!(d.endpoint_class.len(), d.netlist.endpoints().len());
}

#[test]
fn power_report_tracks_flow_mutations() {
    let d = generate(&DesignSpec::new("pwr", 700, TechNode::N5, 23));
    let recipe = FlowRecipe::default();
    // The flow seeds the power model's PI activities with the recipe seed.
    let before = analyze_power(&d.netlist, d.period_ps, recipe.seed).total();
    let res = recipe.run(&d, &[]);
    // The flow's begin power matches an independent analysis.
    assert!((res.begin.power_mw - before).abs() < 1e-9);
    // Final power differs (sizing happened) but stays in a sane band.
    assert!(res.final_qor.power_mw > 0.0);
    assert!(res.final_qor.power_mw < before * 3.0);
}

#[test]
fn skew_schedules_are_bounded_after_the_full_flow() {
    let d = generate(&DesignSpec::new("bounds", 700, TechNode::N12, 29));
    let recipe = FlowRecipe::default();
    let res = recipe.run(&d, &[]);
    let bound = recipe.skew_bound_frac * d.period_ps;
    for &s in &res.skews {
        assert!(s.abs() <= bound + 1e-3, "skew {s} exceeds bound {bound}");
    }
    assert_eq!(res.skews.len(), d.netlist.flops().len());
}

#[test]
fn begin_state_immune_to_selection() {
    let d = generate(&DesignSpec::new("begin", 600, TechNode::N7, 31));
    let recipe = FlowRecipe::default();
    let graph = TimingGraph::new(&d.netlist);
    let clocks = recipe.clock_schedule(&d.netlist, d.period_ps);
    let rep = analyze(
        &d.netlist,
        &graph,
        &Constraints::with_period(d.period_ps),
        &clocks,
        &EndpointMargins::zero(&d.netlist),
    );
    let sel: Vec<_> = rep
        .violating_endpoints()
        .into_iter()
        .take(3)
        .map(rl_ccd_netlist::EndpointId::new)
        .collect();
    let a = recipe.run(&d, &[]);
    let b = recipe.run(&d, &sel);
    assert_eq!(a.begin.tns_ps, b.begin.tns_ps);
    assert_eq!(a.begin.nve, b.begin.nve);
    assert_eq!(a.begin.power_mw, b.begin.power_mw);
}
