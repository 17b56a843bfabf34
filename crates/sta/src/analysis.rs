//! Full-design static timing analysis: forward arrival/slew propagation,
//! backward required-time propagation, and the QoR metrics (WNS/TNS/NVE)
//! the paper optimizes.

use crate::clock::ClockSchedule;
use crate::constraints::{Constraints, EndpointMargins};
use crate::delay::{cell_delay, edge_timing, output_slew};
use rl_ccd_netlist::{topological_comb, CellId, Endpoint, GateKind, Netlist};

/// Precomputed structural data for timing analysis; rebuild after netlist
/// mutations that add cells (buffer insertion).
#[derive(Clone, Debug)]
pub struct TimingGraph {
    topo: Vec<CellId>,
    /// Endpoint index per register index (every register has a D endpoint).
    endpoint_of_flop: Vec<u32>,
}

impl TimingGraph {
    /// Builds the timing graph (topological order + index maps).
    pub fn new(netlist: &Netlist) -> Self {
        let topo = topological_comb(netlist);
        let mut endpoint_of_flop = vec![u32::MAX; netlist.flops().len()];
        for (ei, ep) in netlist.endpoints().iter().enumerate() {
            if let Endpoint::FlopD(cell) = ep {
                let r = netlist
                    .flop_index(*cell)
                    .expect("FlopD endpoint cell is a register");
                endpoint_of_flop[r] = ei as u32;
            }
        }
        debug_assert!(endpoint_of_flop.iter().all(|&e| e != u32::MAX));
        Self {
            topo,
            endpoint_of_flop,
        }
    }

    /// Endpoint index of register `r`'s D pin.
    pub fn endpoint_of_flop(&self, r: usize) -> usize {
        self.endpoint_of_flop[r] as usize
    }

    /// The cached topological order over combinational cells.
    pub fn topo(&self) -> &[CellId] {
        &self.topo
    }
}

/// Results of one full STA pass. All times in ps. The default is the
/// report of a design with no endpoints and no cells.
///
/// Fields are `pub(crate)` so the incremental engine
/// ([`crate::incremental::IncrementalTimer`]) can maintain the same report
/// in place instead of rebuilding it per edit.
#[derive(Clone, Debug, Default)]
pub struct TimingReport {
    pub(crate) endpoint_slack: Vec<f32>,
    pub(crate) endpoint_hold_slack: Vec<f32>,
    pub(crate) endpoint_arrival: Vec<f32>,
    pub(crate) cell_slack: Vec<f32>,
    pub(crate) out_arrival: Vec<f32>,
    pub(crate) out_slew: Vec<f32>,
    pub(crate) worst_in_slew: Vec<f32>,
    pub(crate) downstream_hold: Vec<f32>,
    pub(crate) wns: f32,
    pub(crate) tns: f64,
    pub(crate) nve: usize,
}

impl TimingReport {
    /// Setup slack of endpoint `i`, ps (negative = violating).
    pub fn endpoint_slack(&self, i: usize) -> f32 {
        self.endpoint_slack[i]
    }

    /// All endpoint setup slacks, ps.
    pub fn endpoint_slacks(&self) -> &[f32] {
        &self.endpoint_slack
    }

    /// Hold slack of endpoint `i`, ps (`+∞` for primary outputs).
    pub fn endpoint_hold_slack(&self, i: usize) -> f32 {
        self.endpoint_hold_slack[i]
    }

    /// Data arrival time at endpoint `i`, ps.
    pub fn endpoint_arrival(&self, i: usize) -> f32 {
        self.endpoint_arrival[i]
    }

    /// Worst setup slack of paths *through* a cell (at its output pin), ps.
    /// `+∞` for cells without an output, and for cells added to the netlist
    /// after this analysis ran.
    pub fn cell_slack(&self, cell: CellId) -> f32 {
        self.cell_slack
            .get(cell.index())
            .copied()
            .unwrap_or(f32::INFINITY)
    }

    /// Arrival time at a cell's output pin, ps. Cells added to the netlist
    /// after this analysis ran report `-∞` (they are never the worst driver).
    pub fn out_arrival(&self, cell: CellId) -> f32 {
        self.out_arrival
            .get(cell.index())
            .copied()
            .unwrap_or(f32::NEG_INFINITY)
    }

    /// Output transition of a cell, ps (0 for cells added after analysis).
    pub fn out_slew(&self, cell: CellId) -> f32 {
        self.out_slew.get(cell.index()).copied().unwrap_or(0.0)
    }

    /// Worst transition among a cell's input pins, ps (0 for cells added
    /// after analysis).
    pub fn worst_in_slew(&self, cell: CellId) -> f32 {
        self.worst_in_slew.get(cell.index()).copied().unwrap_or(0.0)
    }

    /// Smallest hold slack among endpoints downstream of this cell's output,
    /// ps (`+∞` when no register endpoint is reachable). Advancing a
    /// launching register's clock by δ erodes this headroom by exactly δ, so
    /// the useful-skew engine uses it to guard negative shifts.
    pub fn downstream_hold_slack(&self, cell: CellId) -> f32 {
        self.downstream_hold
            .get(cell.index())
            .copied()
            .unwrap_or(f32::INFINITY)
    }

    /// Worst negative slack over all endpoints, ps (0 if clean).
    pub fn wns(&self) -> f32 {
        self.wns
    }

    /// Total negative slack: sum of negative endpoint slacks, ps (≤ 0).
    pub fn tns(&self) -> f64 {
        self.tns
    }

    /// Number of violating endpoints.
    pub fn nve(&self) -> usize {
        self.nve
    }

    /// Indices of all violating endpoints, worst first.
    pub fn violating_endpoints(&self) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.endpoint_slack.len())
            .filter(|&i| self.endpoint_slack[i] < 0.0)
            .collect();
        v.sort_by(|&a, &b| self.endpoint_slack[a].total_cmp(&self.endpoint_slack[b]));
        v
    }
}

/// Runs a full setup+hold STA pass.
///
/// Forward pass propagates max/min arrival and slew through the
/// combinational network from startpoints (register clock arrivals come
/// from `clocks`); backward pass propagates required times from endpoint
/// checks (period, capture clock arrival, setup, uncertainty, and any
/// endpoint `margins`).
pub fn analyze(
    netlist: &Netlist,
    graph: &TimingGraph,
    constraints: &Constraints,
    clocks: &ClockSchedule,
    margins: &EndpointMargins,
) -> TimingReport {
    full_pass(
        netlist,
        graph,
        constraints,
        |r| clocks.arrival(r),
        |ei| margins.get(ei),
    )
    .report
}

/// Everything one full pass computes: the report, plus the intermediate
/// arrays the incremental timer keeps so it can re-time edits in place.
pub(crate) struct FullPass {
    pub(crate) report: TimingReport,
    pub(crate) load: Vec<f32>,
    pub(crate) out_arrival_min: Vec<f32>,
    pub(crate) endpoint_required: Vec<f32>,
    pub(crate) required_out: Vec<f32>,
}

/// The one full STA pass, behind both [`analyze`] and
/// [`IncrementalTimer::full_recompute`](crate::IncrementalTimer::full_recompute).
/// `clock_arrival(r)` is register `r`'s clock arrival and `margin(ei)`
/// endpoint `ei`'s margin, ps.
pub(crate) fn full_pass(
    netlist: &Netlist,
    graph: &TimingGraph,
    constraints: &Constraints,
    clock_arrival: impl Fn(usize) -> f32,
    margin: impl Fn(usize) -> f32,
) -> FullPass {
    let lib = netlist.library();
    let n = netlist.cell_count();
    let mut out_arrival = vec![0.0f32; n];
    let mut out_arrival_min = vec![0.0f32; n];
    let mut out_slew = vec![0.0f32; n];
    let mut worst_in_slew = vec![0.0f32; n];

    // Cache loads (they depend on current sizing/placement).
    let mut load = vec![0.0f32; n];
    for id in netlist.cell_ids() {
        if let Some(net) = netlist.cell(id).output {
            load[id.index()] = netlist.net_load(net);
        }
    }

    // --- Forward: sources -------------------------------------------------
    for id in netlist.cell_ids() {
        let lc = lib.cell(netlist.cell(id).lib);
        match lc.kind {
            GateKind::Input => {
                let a = constraints.input_delay + lc.resistance * load[id.index()];
                out_arrival[id.index()] = a;
                out_arrival_min[id.index()] = a;
                out_slew[id.index()] = output_slew(lc, load[id.index()]);
            }
            GateKind::Dff => {
                let r = netlist.flop_index(id).expect("flop has register index");
                let a = clock_arrival(r) + lc.intrinsic + lc.resistance * load[id.index()];
                out_arrival[id.index()] = a;
                out_arrival_min[id.index()] = a;
                out_slew[id.index()] = output_slew(lc, load[id.index()]);
            }
            _ => {}
        }
    }

    // --- Forward: combinational cells -------------------------------------
    let late = constraints.derate_late;
    let early = constraints.derate_early;
    for &id in graph.topo() {
        let cell = netlist.cell(id);
        let lc = lib.cell(cell.lib);
        let my_load = load[id.index()];
        let mut max_a = f32::NEG_INFINITY;
        let mut min_a = f32::INFINITY;
        let mut wslew = 0.0f32;
        for (pin, &net) in cell.inputs.iter().enumerate() {
            let drv = netlist.net(net).driver;
            let et = edge_timing(netlist, net, id, out_slew[drv.index()]);
            let d = cell_delay(lib, lc, pin as u8, my_load, et.pin_slew);
            max_a = max_a.max(out_arrival[drv.index()] + late * (et.wire_delay + d));
            min_a = min_a.min(out_arrival_min[drv.index()] + early * (et.wire_delay + d));
            wslew = wslew.max(et.pin_slew);
        }
        out_arrival[id.index()] = max_a;
        out_arrival_min[id.index()] = min_a;
        out_slew[id.index()] = output_slew(lc, my_load);
        worst_in_slew[id.index()] = wslew;
    }

    // --- Endpoint checks ---------------------------------------------------
    let eps = netlist.endpoints();
    let mut endpoint_slack = vec![0.0f32; eps.len()];
    let mut endpoint_hold_slack = vec![f32::INFINITY; eps.len()];
    let mut endpoint_arrival = vec![0.0f32; eps.len()];
    let mut endpoint_required = vec![0.0f32; eps.len()];
    for (ei, ep) in eps.iter().enumerate() {
        let cell = ep.cell();
        let net = netlist.cell(cell).inputs[0];
        let drv = netlist.net(net).driver;
        let et = edge_timing(netlist, net, cell, out_slew[drv.index()]);
        let arr = out_arrival[drv.index()] + late * et.wire_delay;
        let arr_min = out_arrival_min[drv.index()] + early * et.wire_delay;
        worst_in_slew[cell.index()] = worst_in_slew[cell.index()].max(et.pin_slew);
        let required = match ep {
            Endpoint::FlopD(f) => {
                let r = netlist.flop_index(*f).expect("register");
                let lc = lib.cell(netlist.cell(*f).lib);
                let req = constraints.period + clock_arrival(r)
                    - lc.setup
                    - constraints.uncertainty
                    - margin(ei);
                endpoint_hold_slack[ei] = arr_min - (clock_arrival(r) + lc.hold);
                req
            }
            Endpoint::PrimaryOut(_) => constraints.period - constraints.output_delay - margin(ei),
        };
        endpoint_arrival[ei] = arr;
        endpoint_required[ei] = required;
        endpoint_slack[ei] = required - arr;
    }

    // --- Backward: required times ------------------------------------------
    let mut required_out = vec![f32::INFINITY; n];
    for (ei, ep) in eps.iter().enumerate() {
        let cell = ep.cell();
        let net = netlist.cell(cell).inputs[0];
        let drv = netlist.net(net).driver;
        let et = edge_timing(netlist, net, cell, out_slew[drv.index()]);
        let r = endpoint_required[ei] - late * et.wire_delay;
        if r < required_out[drv.index()] {
            required_out[drv.index()] = r;
        }
    }
    for &id in graph.topo().iter().rev() {
        let req_here = required_out[id.index()];
        if req_here == f32::INFINITY {
            continue;
        }
        let cell = netlist.cell(id);
        let lc = lib.cell(cell.lib);
        let my_load = load[id.index()];
        for (pin, &net) in cell.inputs.iter().enumerate() {
            let drv = netlist.net(net).driver;
            let et = edge_timing(netlist, net, id, out_slew[drv.index()]);
            let d = cell_delay(lib, lc, pin as u8, my_load, et.pin_slew);
            let r = req_here - late * (d + et.wire_delay);
            if r < required_out[drv.index()] {
                required_out[drv.index()] = r;
            }
        }
    }
    let mut cell_slack = vec![f32::INFINITY; n];
    for id in netlist.cell_ids() {
        if netlist.cell(id).output.is_some() && required_out[id.index()] < f32::INFINITY {
            cell_slack[id.index()] = required_out[id.index()] - out_arrival[id.index()];
        }
    }

    // --- Backward: downstream hold headroom ---------------------------------
    // Hold slack erodes 1:1 when a launcher's clock advances, so plain
    // min-propagation (no delay arithmetic) suffices.
    let mut downstream_hold = vec![f32::INFINITY; n];
    for (ei, ep) in eps.iter().enumerate() {
        if endpoint_hold_slack[ei].is_finite() {
            let cell = ep.cell();
            let net = netlist.cell(cell).inputs[0];
            let drv = netlist.net(net).driver;
            let h = endpoint_hold_slack[ei];
            if h < downstream_hold[drv.index()] {
                downstream_hold[drv.index()] = h;
            }
        }
    }
    for &id in graph.topo().iter().rev() {
        let h = downstream_hold[id.index()];
        if h == f32::INFINITY {
            continue;
        }
        for &net in &netlist.cell(id).inputs {
            let drv = netlist.net(net).driver;
            if h < downstream_hold[drv.index()] {
                downstream_hold[drv.index()] = h;
            }
        }
    }

    // --- QoR ----------------------------------------------------------------
    let mut wns = 0.0f32;
    let mut tns = 0.0f64;
    let mut nve = 0usize;
    for &s in &endpoint_slack {
        if s < 0.0 {
            nve += 1;
            tns += s as f64;
            if s < wns {
                wns = s;
            }
        }
    }

    FullPass {
        report: TimingReport {
            endpoint_slack,
            endpoint_hold_slack,
            endpoint_arrival,
            cell_slack,
            out_arrival,
            out_slew,
            worst_in_slew,
            downstream_hold,
            wns,
            tns,
            nve,
        },
        load,
        out_arrival_min,
        endpoint_required,
        required_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_ccd_netlist::{
        generate, DesignSpec, Drive, GateKind as GK, Library, NetlistBuilder, Point, TechNode,
    };

    fn two_stage() -> Netlist {
        // pi -> buf -> f1 ; f1 -> inv -> f2 ; f2 -> po
        let mut b = NetlistBuilder::new("two", Library::new(TechNode::N7));
        let pi = b.input(Point::new(0.0, 0.0));
        let g0 = b.gate(GK::Buf, Drive::X1, Point::new(5.0, 0.0));
        let f1 = b.flop(Drive::X1, Point::new(10.0, 0.0));
        let g1 = b.gate(GK::Inv, Drive::X1, Point::new(20.0, 0.0));
        let f2 = b.flop(Drive::X1, Point::new(30.0, 0.0));
        let po = b.output(Point::new(40.0, 0.0));
        b.drive(pi, g0);
        b.drive(g0, f1);
        b.drive(f1, g1);
        b.drive(g1, f2);
        b.drive(f2, po);
        b.finish().expect("valid")
    }

    fn run(nl: &Netlist, period: f32) -> (TimingGraph, ClockSchedule, TimingReport) {
        let graph = TimingGraph::new(nl);
        let clocks = ClockSchedule::balanced(nl, 100.0, 0.0, 50.0, 1);
        let cons = Constraints::with_period(period);
        let margins = EndpointMargins::zero(nl);
        let rep = analyze(nl, &graph, &cons, &clocks, &margins);
        (graph, clocks, rep)
    }

    #[test]
    fn nan_margin_does_not_panic_reporting() {
        // Regression: the violating-endpoint sort used
        // `partial_cmp().expect(...)`, which panics the moment a NaN slack
        // reaches it. A poisoned margin (NaN from an upstream divide) makes
        // that endpoint's slack NaN; reporting must survive it.
        let d = generate(&DesignSpec::new("nanm", 300, TechNode::N7, 5));
        let graph = TimingGraph::new(&d.netlist);
        let clocks = ClockSchedule::balanced(&d.netlist, 60.0, 3.0, 200.0, 1);
        let cons = Constraints::with_period(d.period_ps);
        let mut margins = EndpointMargins::zero(&d.netlist);
        margins.set(0, f32::NAN);
        let rep = analyze(&d.netlist, &graph, &cons, &clocks, &margins);
        assert!(rep.endpoint_slack(0).is_nan());
        // The NaN endpoint never counts as violating, and the sorted
        // report, aggregates, and path walker all stay well-defined.
        let viol = rep.violating_endpoints();
        assert!(!viol.contains(&0));
        assert_eq!(viol.len(), rep.nve());
        assert!(rep.wns().is_finite());
        assert!(rep.tns().is_finite());
        if let Some(&worst) = viol.first() {
            assert!(!crate::report::worst_path(&d.netlist, &rep, worst).is_empty());
        }
        // Every other endpoint is untouched by the poisoned margin.
        let clean = analyze(
            &d.netlist,
            &graph,
            &cons,
            &clocks,
            &EndpointMargins::zero(&d.netlist),
        );
        for i in 1..d.netlist.endpoints().len() {
            assert_eq!(rep.endpoint_slack(i), clean.endpoint_slack(i));
        }
    }

    #[test]
    fn generous_period_meets_timing() {
        let nl = two_stage();
        let (_, _, rep) = run(&nl, 5000.0);
        assert_eq!(rep.nve(), 0);
        assert_eq!(rep.wns(), 0.0);
        assert_eq!(rep.tns(), 0.0);
        for i in 0..nl.endpoints().len() {
            assert!(rep.endpoint_slack(i) > 0.0);
            assert!(rep.endpoint_arrival(i) > 0.0);
        }
    }

    #[test]
    fn tight_period_violates() {
        let nl = two_stage();
        let (_, _, rep) = run(&nl, 30.0);
        assert!(rep.nve() > 0);
        assert!(rep.wns() < 0.0);
        assert!(rep.tns() < 0.0);
        let v = rep.violating_endpoints();
        assert_eq!(v.len(), rep.nve());
        // Worst first.
        for w in v.windows(2) {
            assert!(rep.endpoint_slack(w[0]) <= rep.endpoint_slack(w[1]));
        }
    }

    #[test]
    fn capture_skew_increases_setup_slack_of_d_endpoint() {
        let nl = two_stage();
        let graph = TimingGraph::new(&nl);
        let cons = Constraints::with_period(200.0);
        let margins = EndpointMargins::zero(&nl);
        let mut clocks = ClockSchedule::balanced(&nl, 100.0, 0.0, 50.0, 1);
        let before = analyze(&nl, &graph, &cons, &clocks, &margins);
        // Delay clock of register 1 (capture of f1->f2 path).
        clocks.adjust(1, 20.0);
        let after = analyze(&nl, &graph, &cons, &clocks, &margins);
        let e_f2 = graph.endpoint_of_flop(1);
        assert!(
            after.endpoint_slack(e_f2) > before.endpoint_slack(e_f2),
            "capture skew should add setup slack"
        );
        // And the hold slack at that endpoint shrinks.
        assert!(after.endpoint_hold_slack(e_f2) < before.endpoint_hold_slack(e_f2));
    }

    #[test]
    fn launch_skew_decreases_downstream_slack() {
        let nl = two_stage();
        let graph = TimingGraph::new(&nl);
        let cons = Constraints::with_period(200.0);
        let margins = EndpointMargins::zero(&nl);
        let mut clocks = ClockSchedule::balanced(&nl, 100.0, 0.0, 50.0, 1);
        let before = analyze(&nl, &graph, &cons, &clocks, &margins);
        // Delaying register 0's clock hurts the f1→f2 path it launches.
        clocks.adjust(0, 20.0);
        let after = analyze(&nl, &graph, &cons, &clocks, &margins);
        let e_f2 = graph.endpoint_of_flop(1);
        assert!(after.endpoint_slack(e_f2) < before.endpoint_slack(e_f2));
    }

    #[test]
    fn margins_worsen_endpoint_slack() {
        let nl = two_stage();
        let graph = TimingGraph::new(&nl);
        let cons = Constraints::with_period(200.0);
        let clocks = ClockSchedule::balanced(&nl, 100.0, 0.0, 50.0, 1);
        let mut margins = EndpointMargins::zero(&nl);
        let before = analyze(&nl, &graph, &cons, &clocks, &margins);
        margins.set(0, 15.0);
        let after = analyze(&nl, &graph, &cons, &clocks, &margins);
        assert!((before.endpoint_slack(0) - after.endpoint_slack(0) - 15.0).abs() < 1e-3);
        // Other endpoints unaffected.
        assert_eq!(before.endpoint_slack(1), after.endpoint_slack(1));
    }

    #[test]
    fn cell_slack_matches_endpoint_on_single_path() {
        let nl = two_stage();
        let (graph, _, rep) = run(&nl, 200.0);
        // The inverter (only cell on the f1→f2 path) has the same slack as
        // the f2 endpoint.
        let inv = nl
            .cell_ids()
            .find(|&c| nl.kind(c) == GK::Inv)
            .expect("has inverter");
        let e_f2 = graph.endpoint_of_flop(1);
        assert!((rep.cell_slack(inv) - rep.endpoint_slack(e_f2)).abs() < 1e-3);
        assert!(rep.out_slew(inv) > 0.0);
        assert!(rep.worst_in_slew(inv) > 0.0);
        assert!(rep.out_arrival(inv) > 0.0);
    }

    #[test]
    fn ocv_derates_shift_checks_the_right_way() {
        let nl = two_stage();
        let graph = TimingGraph::new(&nl);
        let clocks = ClockSchedule::balanced(&nl, 100.0, 0.0, 50.0, 1);
        let margins = EndpointMargins::zero(&nl);
        let plain = Constraints::with_period(200.0);
        let derated = Constraints::with_period(200.0).with_ocv(1.1, 0.9);
        let a = analyze(&nl, &graph, &plain, &clocks, &margins);
        let b = analyze(&nl, &graph, &derated, &clocks, &margins);
        for i in 0..nl.endpoints().len() {
            // Late derate → later arrivals → smaller-or-equal setup slack.
            assert!(b.endpoint_slack(i) <= a.endpoint_slack(i) + 1e-4);
            // Early derate → earlier min arrivals → smaller-or-equal hold
            // slack.
            if a.endpoint_hold_slack(i).is_finite() {
                assert!(b.endpoint_hold_slack(i) <= a.endpoint_hold_slack(i) + 1e-4);
            }
        }
        assert!(b.tns() <= a.tns());
    }

    #[test]
    #[should_panic(expected = "late derate must be")]
    fn backwards_ocv_panics() {
        let _ = Constraints::with_period(100.0).with_ocv(0.9, 0.9);
    }

    #[test]
    fn generated_design_analyzes_cleanly() {
        let d = generate(&DesignSpec::new("a", 800, TechNode::N7, 3));
        let graph = TimingGraph::new(&d.netlist);
        let clocks = ClockSchedule::balanced(&d.netlist, 80.0, 4.0, 0.12 * d.period_ps, 5);
        let cons = Constraints::with_period(d.period_ps);
        let rep = analyze(
            &d.netlist,
            &graph,
            &cons,
            &clocks,
            &EndpointMargins::zero(&d.netlist),
        );
        // Roughly the calibrated fraction of endpoints violates.
        let frac = rep.nve() as f32 / d.netlist.endpoints().len() as f32;
        assert!(frac > 0.05 && frac < 0.95, "violation fraction {frac}");
        // Every endpoint has a finite slack, every arrival is finite.
        for i in 0..d.netlist.endpoints().len() {
            assert!(rep.endpoint_slack(i).is_finite());
            assert!(rep.endpoint_arrival(i).is_finite());
        }
    }
}
