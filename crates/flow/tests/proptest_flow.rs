//! Property-based tests of the flow substrate: the engines must respect
//! their budgets and guards on arbitrary designs and option settings.

use proptest::prelude::*;
use rl_ccd_flow::{
    optimize_datapath, prioritization_margins, run_useful_skew, DatapathOpts, FlowRecipe,
    MarginMode, UsefulSkewOpts,
};
use rl_ccd_netlist::{generate, DesignSpec, EndpointId, TechNode};
use rl_ccd_sta::{analyze, Constraints, EndpointMargins, IncrementalTimer, TimingGraph};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn useful_skew_never_worsens_tns_or_hold(
        seed in 0u64..300,
        budget in 0.05f32..1.0,
        serves in 0.02f32..0.3,
        rate in 0.3f32..1.0,
    ) {
        let d = generate(&DesignSpec::new("pflow", 500, TechNode::N7, seed));
        let graph = TimingGraph::new(&d.netlist);
        let cons = Constraints::with_period(d.period_ps);
        let recipe = FlowRecipe::default();
        let mut clocks = recipe.clock_schedule(&d.netlist, d.period_ps);
        let zero = EndpointMargins::zero(&d.netlist);
        let before = analyze(&d.netlist, &graph, &cons, &clocks, &zero);
        let opts = UsefulSkewOpts {
            move_budget_frac: budget,
            serves_per_sweep_frac: serves,
            rate,
            ..UsefulSkewOpts::default()
        };
        let mut timer = IncrementalTimer::new(&d.netlist, &cons, &clocks, &zero);
        let out = run_useful_skew(&d.netlist, &mut clocks, &mut timer, &opts);
        // Without margins the engine must not lose TNS beyond a small
        // tolerance (both-side balancing can shift slack onto a register
        // with several violating downstream endpoints).
        prop_assert!(
            out.report.tns() >= before.tns() * 1.05 - 10.0,
            "TNS regressed {} -> {}",
            before.tns(),
            out.report.tns()
        );
        // …never break hold where it was positive…
        for i in 0..d.netlist.endpoints().len() {
            let h = out.report.endpoint_hold_slack(i);
            if h.is_finite() && before.endpoint_hold_slack(i) > 0.0 {
                prop_assert!(h > -1e-2, "hold violated at endpoint {i}: {h}");
            }
        }
        // …and must respect the move budget (violating regs ≤ all regs).
        let cap = ((d.netlist.flops().len() as f32 * budget).ceil() as usize).max(1);
        prop_assert!(out.moves <= cap);
    }

    #[test]
    fn datapath_budget_and_structure_hold(
        seed in 0u64..300,
        ops in 5usize..200,
        per_ep in 1usize..8,
    ) {
        let d = generate(&DesignSpec::new("pdp", 500, TechNode::N7, seed));
        let mut netlist = d.netlist.clone();
        let graph = TimingGraph::new(&netlist);
        let cons = Constraints::with_period(d.period_ps);
        let recipe = FlowRecipe::default();
        let clocks = recipe.clock_schedule(&netlist, d.period_ps);
        let zero = EndpointMargins::zero(&netlist);
        let opts = DatapathOpts {
            passes: 2,
            ops_per_pass: ops,
            ops_per_endpoint: per_ep,
            ..DatapathOpts::default()
        };
        let before = analyze(&netlist, &graph, &cons, &clocks, &zero);
        let mut timer = IncrementalTimer::new(&netlist, &cons, &clocks, &zero);
        let (stats, after) = optimize_datapath(&mut netlist, &mut timer, &opts);
        prop_assert!(stats.total() <= 2 * ops, "budget exceeded: {stats:?}");
        prop_assert!(netlist.check().is_empty(), "{:?}", netlist.check());
        prop_assert!(after.tns() >= before.tns() * 1.05 - 10.0, "datapath regressed TNS");
    }

    #[test]
    fn flow_is_deterministic_for_any_selection(seed in 0u64..300, take in 0usize..10) {
        let d = generate(&DesignSpec::new("pdet", 450, TechNode::N12, seed));
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
        let sel: Vec<EndpointId> = rep
            .violating_endpoints()
            .into_iter()
            .take(take)
            .map(EndpointId::new)
            .collect();
        let a = recipe.run(&d, &sel);
        let b = recipe.run(&d, &sel);
        prop_assert_eq!(a.final_qor.tns_ps, b.final_qor.tns_ps);
        prop_assert_eq!(a.final_qor.nve, b.final_qor.nve);
        prop_assert_eq!(a.skews, b.skews);
        prop_assert!(a.final_qor.tns_ps >= a.begin.tns_ps);
    }

    #[test]
    fn overfix_margins_are_nonnegative_and_bounded(seed in 0u64..300) {
        let d = generate(&DesignSpec::new("pm", 450, TechNode::N7, seed));
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
        let sel: Vec<EndpointId> = rep
            .violating_endpoints()
            .into_iter()
            .map(EndpointId::new)
            .collect();
        prop_assume!(!sel.is_empty());
        let margins = prioritization_margins(
            &rep,
            &sel,
            MarginMode::OverFixToWns,
            EndpointMargins::zero(&d.netlist),
        );
        let span = rep.endpoint_slacks().iter().cloned().fold(0.0f32, f32::max) - rep.wns();
        for e in &sel {
            let m = margins.get(e.index());
            prop_assert!(m >= 0.0, "negative over-fix margin");
            prop_assert!(m <= span + 1e-3, "margin {m} exceeds slack span {span}");
        }
    }
}
