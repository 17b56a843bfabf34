//! Synthetic design generation.
//!
//! The paper evaluates on 19 confidential industrial designs; this module
//! generates seeded synthetic analogues with the structural properties the
//! RL agent's decision problem depends on:
//!
//! * **Cluster structure** — cells are grouped into placed regions whose
//!   endpoints share logic (overlapping fan-in cones), so the paper's
//!   cone-overlap masking has real work to do.
//! * **Endpoint heterogeneity** — clusters come in three flavours, chosen so
//!   that the criticality order the native tool serves *disagrees* with the
//!   fixability order (the disagreement the paper exploits):
//!   - *chain*: balanced register-to-register pipelines with weak drives and
//!     long wires — the **worst** violations, but skewing a chain register
//!     steals exactly the slack it grants (zero-sum for skew) while sizing
//!     and buffering work. The native skew engine wastes its
//!     criticality-ordered effort here; data-path optimization is the right
//!     tool. RL should *not* prioritize these.
//!   - *deep*: moderately-violating, drive-saturated logic captured by
//!     registers with idle launch sides — data-path optimization is nearly
//!     exhausted but a clock shift fixes them for free. The native flow
//!     never reaches them (they rank below the chains); RL *should*
//!     prioritize them.
//!   - *normal*: shallow logic that mostly meets timing.
//! * **Calibrated clock period** — chosen so a target fraction of endpoints
//!   violate after global placement, like the "begin" columns of Table II.

use crate::builder::NetlistBuilder;
use crate::cell::{Drive, GateKind, Point};
use crate::graph::Netlist;
use crate::ids::CellId;
use crate::library::{Library, TechNode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for one synthetic design.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignSpec {
    /// Design name (e.g. "block11").
    pub name: String,
    /// Approximate total cell count (gates + registers + ports).
    pub target_cells: usize,
    /// Technology node.
    pub tech: TechNode,
    /// RNG seed; everything about the design is deterministic given this.
    pub seed: u64,
    /// Fraction of cells that are flip-flops.
    pub flop_frac: f32,
    /// Typical combinational depth of a normal cluster.
    pub base_depth: usize,
    /// Fraction of clusters that are deep (2× depth, saturated drives).
    pub deep_frac: f32,
    /// Fraction of clusters that are balanced register chains.
    pub chain_frac: f32,
    /// Target fraction of endpoints violating at the calibrated period.
    pub viol_frac: f32,
    /// Side length of one placement region in µm.
    pub region_um: f32,
}

impl DesignSpec {
    /// A reasonable default spec for a given size and seed.
    pub fn new(name: impl Into<String>, target_cells: usize, tech: TechNode, seed: u64) -> Self {
        Self {
            name: name.into(),
            target_cells,
            tech,
            seed,
            flop_frac: 0.13,
            base_depth: 7,
            deep_frac: 0.30,
            chain_frac: 0.25,
            viol_frac: 0.45,
            region_um: 60.0,
        }
    }
}

/// Which cluster flavour a cell or endpoint was generated in. Exposed for
/// analysis and tests; the RL agent never sees it (it must learn the
/// distinction from Table I features).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClusterClass {
    /// Shallow logic, mostly meeting timing.
    Normal,
    /// Drive-saturated, moderately-violating, clock-fixable logic.
    Deep,
    /// Weak-drive, long-wire register chains: worst violations, data-fixable.
    Chain,
}

/// A generated design: the placed netlist plus its calibrated clock period.
#[derive(Clone, Debug)]
pub struct GeneratedDesign {
    /// The placed netlist.
    pub netlist: Netlist,
    /// Clock period in ps, calibrated so ≈`viol_frac` of endpoints violate.
    pub period_ps: f32,
    /// The spec used to generate the design.
    pub spec: DesignSpec,
    /// Ground-truth cluster class per endpoint (diagnostics only).
    pub endpoint_class: Vec<ClusterClass>,
}

impl GeneratedDesign {
    /// Endpoint counts per cluster class `(normal, deep, chain)`.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        let mut n = (0, 0, 0);
        for c in &self.endpoint_class {
            match c {
                ClusterClass::Normal => n.0 += 1,
                ClusterClass::Deep => n.1 += 1,
                ClusterClass::Chain => n.2 += 1,
            }
        }
        n
    }
}

type ClusterKind = ClusterClass;

/// Weighted random gate function for logic levels.
fn random_gate(rng: &mut StdRng) -> GateKind {
    const TABLE: [(GateKind, f32); 10] = [
        (GateKind::Nand2, 0.20),
        (GateKind::Inv, 0.15),
        (GateKind::And2, 0.12),
        (GateKind::Nor2, 0.10),
        (GateKind::Or2, 0.10),
        (GateKind::Xor2, 0.08),
        (GateKind::Aoi21, 0.08),
        (GateKind::Oai21, 0.06),
        (GateKind::Mux2, 0.06),
        (GateKind::Buf, 0.05),
    ];
    let mut x: f32 = rng.gen_range(0.0..1.0);
    for (kind, w) in TABLE {
        if x < w {
            return kind;
        }
        x -= w;
    }
    GateKind::Nand2
}

struct ClusterPlan {
    kind: ClusterKind,
    center: Point,
    flops: usize,
    gates: usize,
    pis: usize,
    depth: usize,
}

/// The smallest `target_cells` [`generate`] accepts: a smaller design
/// cannot host one cluster.
pub const MIN_TARGET_CELLS: usize = 60;

/// Generates a placed synthetic design per `spec`.
///
/// # Panics
/// Panics if `target_cells` is below [`MIN_TARGET_CELLS`].
pub fn generate(spec: &DesignSpec) -> GeneratedDesign {
    assert!(
        spec.target_cells >= MIN_TARGET_CELLS,
        "target_cells too small for a structured design"
    );
    let _obs_span = rl_ccd_obs::span!(
        "netlist.generate",
        target_cells = spec.target_cells,
        seed = spec.seed,
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let lib = Library::new(spec.tech);
    let mut b = NetlistBuilder::new(spec.name.clone(), lib);

    let n_flops = ((spec.target_cells as f32 * spec.flop_frac) as usize).max(8);
    let flops_per_cluster = 6usize;
    let n_clusters = (n_flops / flops_per_cluster).max(2);
    let n_gates = spec
        .target_cells
        .saturating_sub(n_flops)
        .max(n_clusters * 10);
    let gates_per_cluster = n_gates / n_clusters;
    let grid = (n_clusters as f32).sqrt().ceil() as usize;

    // Plan clusters.
    let mut plans = Vec::with_capacity(n_clusters);
    for c in 0..n_clusters {
        let r: f32 = rng.gen_range(0.0..1.0);
        let kind = if r < spec.deep_frac {
            ClusterKind::Deep
        } else if r < spec.deep_frac + spec.chain_frac {
            ClusterKind::Chain
        } else {
            ClusterKind::Normal
        };
        let gx = (c % grid) as f32;
        let gy = (c / grid) as f32;
        plans.push(ClusterPlan {
            kind,
            center: Point::new((gx + 0.5) * spec.region_um, (gy + 0.5) * spec.region_um),
            flops: flops_per_cluster,
            gates: gates_per_cluster,
            pis: 2,
            depth: match kind {
                // Deep clusters: drive-saturated (fast per level) but ~2.5×
                // as deep, so intrinsic delay dominates and sizing cannot
                // help. Depth is tuned so their arrivals land moderately
                // above the period (most captures violate by a margin a
                // single clock move can erase) yet *below* the chains' — the
                // native worst-first skew queue must reach the chains before
                // the deep endpoints for prioritization to have an edge.
                ClusterKind::Deep => spec.base_depth * 5 / 2,
                // Chains: weak drives and zig-zag wires make each level
                // slow, and a couple of extra levels per stage push them to
                // the worst arrivals in the design.
                ClusterKind::Chain => spec.base_depth + 3,
                ClusterKind::Normal => spec.base_depth,
            },
        });
    }

    // Build clusters; collect cross-cluster tap points (outputs of earlier
    // clusters available as extra inputs) and tag endpoints by class.
    //
    // Chain clusters are built first so deep clusters can pair with them
    // into "districts": the deep lanes tap the chain's shared spine. The
    // spine then sits in both cone families with asymmetric ratios —
    // selecting a deep endpoint masks the district's chain endpoints
    // (spine dominates their small stage cones) while selecting a chain
    // endpoint does *not* mask the deep ones (the spine is a sliver of
    // their long lanes). This asymmetry is the decision structure the
    // paper's agent learns to exploit.
    let mut cross_taps: Vec<CellId> = Vec::new();
    let mut all_unused: Vec<CellId> = Vec::new();
    let mut endpoint_class = vec![ClusterClass::Normal; 0];
    let mut spine_tails: Vec<(CellId, Point)> = Vec::new();
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|&i| match plans[i].kind {
        ClusterKind::Chain => 0,
        ClusterKind::Deep => 1,
        ClusterKind::Normal => 2,
    });
    for &pi in &order {
        let plan = &plans[pi];
        let before = b.as_netlist().endpoints().len();
        // Deep clusters pair with the *nearest* unclaimed chain spine; a
        // far-away tap would add a die-spanning wire that dominates the
        // lane delay instead of a small cone overlap.
        let spine_tap = if plan.kind == ClusterKind::Deep {
            let nearest = spine_tails
                .iter()
                .enumerate()
                .min_by(|(_, (_, a)), (_, (_, b))| {
                    a.manhattan(plan.center)
                        .total_cmp(&b.manhattan(plan.center))
                })
                .map(|(i, (_, c))| (i, c.manhattan(plan.center)));
            match nearest {
                Some((i, dist)) if dist < 2.5 * spec.region_um => {
                    Some(spine_tails.swap_remove(i).0)
                }
                _ => None,
            }
        } else {
            None
        };
        let tail = build_cluster(
            &mut b,
            plan,
            spec,
            &mut rng,
            &mut cross_taps,
            &mut all_unused,
            spine_tap,
        );
        if let Some(t) = tail {
            spine_tails.push((t, plan.center));
        }
        let after = b.as_netlist().endpoints().len();
        endpoint_class.extend(std::iter::repeat_n(plan.kind, after - before));
    }

    // Still-unused outputs are left dangling (unconstrained), like logic a
    // real block exports but the current timing context does not constrain.
    // Constraining them as critical primary outputs would flood the design
    // with violations no clock optimization could ever touch.
    drop(all_unused);

    let netlist = b.finish().expect("generator must produce a valid netlist");
    debug_assert_eq!(endpoint_class.len(), netlist.endpoints().len());
    let period_ps = calibrate_period(&netlist, spec.viol_frac);
    GeneratedDesign {
        netlist,
        period_ps,
        spec: spec.clone(),
        endpoint_class,
    }
}

fn jitter(p: Point, r: f32, rng: &mut StdRng) -> Point {
    Point::new(p.x + rng.gen_range(-r..=r), p.y + rng.gen_range(-r..=r))
}

fn cluster_loc(plan: &ClusterPlan, depth_pos: f32, region: f32, rng: &mut StdRng) -> Point {
    // Paths flow left→right within the region; depth_pos in [0,1]. Deep
    // clusters are packed tight (short wires: buffering cannot help them);
    // the others spread across the region.
    let (span, y_spread) = match plan.kind {
        ClusterKind::Deep => (0.4, 0.15),
        _ => (0.8, 0.4),
    };
    let x = plan.center.x + (depth_pos - 0.5) * region * span + rng.gen_range(-3.0..3.0);
    let y = plan.center.y + rng.gen_range(-region * y_spread..region * y_spread);
    Point::new(x, y)
}

/// Chain-cluster gate placement: a zig-zag across the region so every logic
/// level crosses a long wire — the violations buffering is made for.
fn chain_loc(
    plan: &ClusterPlan,
    depth_pos: f32,
    level: usize,
    region: f32,
    rng: &mut StdRng,
) -> Point {
    let zig = if level.is_multiple_of(2) { -0.4 } else { 0.4 };
    let x = plan.center.x + (depth_pos - 0.5) * region * 1.6 + rng.gen_range(-3.0..3.0);
    let y = plan.center.y + zig * region + rng.gen_range(-4.0..4.0);
    Point::new(x, y)
}

/// Random drive strength; deep clusters are fully saturated (X8, the top of
/// the library) so sizing has *no* headroom, chains start weakest (maximal
/// sizing headroom).
fn random_drive(kind: ClusterKind, rng: &mut StdRng) -> Drive {
    match kind {
        ClusterKind::Deep => Drive::X8,
        ClusterKind::Chain => Drive::X1,
        ClusterKind::Normal => {
            if rng.gen_bool(0.7) {
                Drive::X1
            } else {
                Drive::X2
            }
        }
    }
}

/// Builds one cluster. Chain clusters return their spine tail so a deep
/// cluster can pair with them into a district; deep clusters consume
/// `spine_tap` (the partner's spine tail) as an extra lane input.
fn build_cluster(
    b: &mut NetlistBuilder,
    plan: &ClusterPlan,
    spec: &DesignSpec,
    rng: &mut StdRng,
    cross_taps: &mut Vec<CellId>,
    all_unused: &mut Vec<CellId>,
    spine_tap: Option<CellId>,
) -> Option<CellId> {
    match plan.kind {
        ClusterKind::Chain => Some(build_chain_cluster(
            b, plan, spec, rng, cross_taps, all_unused,
        )),
        _ => {
            build_dag_cluster(b, plan, spec, rng, cross_taps, all_unused, spine_tap);
            None
        }
    }
}

/// Picks an input driver: prefer unused outputs of the previous level, then
/// any lower level, then startpoints, then (rarely) a cross-cluster tap.
fn pick_input(
    rng: &mut StdRng,
    prev_unused: &mut Vec<CellId>,
    lower: &[CellId],
    starts: &[CellId],
    cross_taps: &[CellId],
) -> CellId {
    if !prev_unused.is_empty() && rng.gen_bool(0.65) {
        let i = rng.gen_range(0..prev_unused.len());
        return prev_unused.swap_remove(i);
    }
    let roll: f32 = rng.gen_range(0.0..1.0);
    if roll < 0.12 && !cross_taps.is_empty() {
        return cross_taps[rng.gen_range(0..cross_taps.len())];
    }
    if roll < 0.55 && !lower.is_empty() {
        return lower[rng.gen_range(0..lower.len())];
    }
    starts[rng.gen_range(0..starts.len())]
}

/// Builds one strictly-layered logic lane: every input comes from the
/// immediately previous level, so min-path ≈ max-path — the property that
/// keeps deep capture registers hold-safe (genuinely clock-fixable).
/// Returns the last level's cells.
#[allow(clippy::too_many_arguments)]
fn build_strict_lane(
    b: &mut NetlistBuilder,
    plan: &ClusterPlan,
    rng: &mut StdRng,
    starts: &[CellId],
    first_input: Option<CellId>,
    depth: usize,
    per_level: usize,
    region: f32,
    all_unused: &mut Vec<CellId>,
) -> Vec<CellId> {
    let mut prev_level: Vec<CellId> = starts.to_vec();
    let mut prev_unused: Vec<CellId> = starts.to_vec();
    let mut first_input = first_input;
    let mut last = Vec::new();
    for level in 0..depth {
        let mut this_level = Vec::with_capacity(per_level);
        let depth_pos = (level + 1) as f32 / (depth + 1) as f32;
        for _ in 0..per_level {
            // No inverters or buffers in a deep lane: an INV behind a
            // NAND/NOR is a restructuring target (absorbing it removes a
            // level), which would hand the data-path engine exactly the
            // foothold deep lanes must not offer.
            let kind = loop {
                let k = random_gate(rng);
                if !matches!(k, GateKind::Inv | GateKind::Buf) {
                    break k;
                }
            };
            let loc = cluster_loc(plan, depth_pos, region, rng);
            let g = b.gate(kind, random_drive(plan.kind, rng), loc);
            for pin in 0..kind.input_count() {
                // Guarantee the mandated first input (the district spine
                // tail) lands in the lane's cone.
                if pin == 0 {
                    if let Some(tap) = first_input.take() {
                        b.drive(tap, g);
                        continue;
                    }
                }
                let drv = if !prev_unused.is_empty() {
                    let i = rng.gen_range(0..prev_unused.len());
                    prev_unused.swap_remove(i)
                } else {
                    prev_level[rng.gen_range(0..prev_level.len())]
                };
                b.drive(drv, g);
            }
            this_level.push(g);
        }
        all_unused.extend(prev_unused.iter().copied());
        prev_unused = this_level.clone();
        prev_level = this_level.clone();
        last = this_level;
    }
    last
}

/// A shared-DAG cluster.
///
/// *Normal* clusters: half the flops launch into one shared DAG, half
/// capture from its top — their fan-in cones overlap heavily, so selecting
/// one masks its siblings (rich masking dynamics, moderate timing).
///
/// *Deep* clusters: a small number of capture registers, each fed by its
/// **own** strictly-layered lane — cones are disjoint, so deep endpoints
/// never mask each other: each one must be individually prioritized, which
/// is exactly the structure that rewards intelligent selection.
fn build_dag_cluster(
    b: &mut NetlistBuilder,
    plan: &ClusterPlan,
    spec: &DesignSpec,
    rng: &mut StdRng,
    cross_taps: &mut Vec<CellId>,
    all_unused: &mut Vec<CellId>,
    spine_tap: Option<CellId>,
) {
    let region = spec.region_um;
    let n_capture = match plan.kind {
        ClusterKind::Deep => 2.min(plan.flops - 1),
        _ => plan.flops / 2,
    };
    let n_launch = plan.flops - n_capture;
    let mut launchers = Vec::with_capacity(n_launch);
    for _ in 0..n_launch {
        let loc = cluster_loc(plan, 0.0, region, rng);
        launchers.push(b.flop(random_drive(plan.kind, rng), loc));
    }
    let mut starts = launchers.clone();
    for _ in 0..plan.pis {
        let loc = cluster_loc(plan, 0.0, region, rng);
        starts.push(b.input(loc));
    }

    // Registered interfaces are only tapped from nearby clusters: real
    // placement keeps connectivity local, and unbounded taps would create
    // die-spanning wires that dominate timing as the design grows.
    let near_taps: Vec<CellId> = cross_taps
        .iter()
        .copied()
        .filter(|&c| b.as_netlist().cell(c).loc.manhattan(plan.center) < 2.5 * region)
        .collect();

    let depth = plan.depth.max(2);
    let mut capture_drivers: Vec<CellId> = Vec::new();
    if plan.kind == ClusterKind::Deep {
        // One private strict lane per capture register. When the cluster is
        // paired with a chain district, every lane starts from the chain's
        // spine tail: the spine joins the lane cone as a small fraction
        // (< ρ, so chains never mask deep endpoints) while dominating the
        // chain stages' cones (> ρ, so a deep selection masks the chains).
        let per_level = (plan.gates / (depth * n_capture)).max(1);
        for _ in 0..n_capture {
            let top = build_strict_lane(
                b, plan, rng, &starts, spine_tap, depth, per_level, region, all_unused,
            );
            capture_drivers.push(top[rng.gen_range(0..top.len())]);
        }
    } else {
        // One shared loosely-layered DAG; captures read its top level.
        let per_level = (plan.gates / depth).max(1);
        let mut lower: Vec<CellId> = Vec::new();
        let mut prev_unused: Vec<CellId> = starts.clone();
        let mut top: Vec<CellId> = Vec::new();
        for level in 0..depth {
            let mut this_level = Vec::with_capacity(per_level);
            let depth_pos = (level + 1) as f32 / (depth + 1) as f32;
            for _ in 0..per_level {
                let kind = random_gate(rng);
                let loc = cluster_loc(plan, depth_pos, region, rng);
                let g = b.gate(kind, random_drive(plan.kind, rng), loc);
                for _ in 0..kind.input_count() {
                    let drv = pick_input(rng, &mut prev_unused, &lower, &starts, &near_taps);
                    b.drive(drv, g);
                }
                this_level.push(g);
            }
            lower.extend(prev_unused.iter().copied());
            prev_unused = this_level.clone();
            if level == depth - 1 {
                top = this_level;
            }
        }
        all_unused.extend(lower.iter().copied().filter(|&c| {
            b.as_netlist()
                .net(b.output_net(c).expect("has output"))
                .sinks
                .is_empty()
        }));
        for i in 0..n_capture {
            let drv = if !top.is_empty() {
                top[i % top.len()]
            } else {
                starts[i % starts.len()]
            };
            capture_drivers.push(drv);
        }
        all_unused.extend(top.iter().copied().filter(|c| !capture_drivers.contains(c)));
    }

    // Capture flops: Q drives only a light buffer→PO side load, so their
    // launch side has headroom to donate to useful skew.
    for drv in capture_drivers {
        let loc = cluster_loc(plan, 1.0, region, rng);
        let f = b.flop(random_drive(ClusterKind::Normal, rng), loc);
        b.drive(drv, f);
        let buf_loc = jitter(loc, 2.0, rng);
        let buf = b.gate(GateKind::Buf, Drive::X1, buf_loc);
        b.drive(f, buf);
        let po = b.output(jitter(buf_loc, 2.0, rng));
        b.drive(buf, po);
    }

    // Launcher flop D inputs: short side paths (1 gate from a PI/top tap),
    // so launchers are launch-dominated.
    for &f in &launchers {
        let loc = b.as_netlist().cell(f).loc;
        let g = b.gate(GateKind::Buf, Drive::X2, jitter(loc, 2.0, rng));
        let drv = starts[rng.gen_range(launchers.len()..starts.len())]; // a PI
        b.drive(drv, g);
        b.drive(g, f);
    }

    // Expose *registered* interfaces to later clusters: tapping a launcher's
    // Q pin adds load and cross-cluster skew coupling without chaining
    // combinational delay across clusters (real blocks register their
    // interfaces).
    cross_taps.extend(launchers.iter().copied());
    // Keep cross_taps bounded.
    if cross_taps.len() > 256 {
        let excess = cross_taps.len() - 256;
        cross_taps.drain(0..excess);
    }
}

/// A balanced register chain: R0 → logic → R1 → logic → … → Rk. Stage
/// delays are similar, so delaying one register's clock helps its input
/// stage exactly as much as it hurts its output stage — skew is zero-sum,
/// and data-path optimization (unsaturated drives) is the right fix.
fn build_chain_cluster(
    b: &mut NetlistBuilder,
    plan: &ClusterPlan,
    spec: &DesignSpec,
    rng: &mut StdRng,
    cross_taps: &mut Vec<CellId>,
    all_unused: &mut Vec<CellId>,
) -> CellId {
    let region = spec.region_um;
    let stages = plan.flops.max(2);
    let gates_per_stage = (plan.gates / stages).max(2);
    // Stage depth: same for all stages (balanced → skew is zero-sum).
    let depth = plan.depth;
    let per_level = (gates_per_stage / depth).max(1);

    let pi = b.input(cluster_loc(plan, 0.0, region, rng));

    // Shared spine: a buffer chain from the PI whose tail every stage taps.
    // It puts the same combinational cells into every stage's fan-in cone,
    // which is what gives chain endpoints the high cone overlap that lets
    // one selection mask the whole cluster (paper Fig. 3 dynamics).
    // Sized so the spine dominates a stage cone (ratio ≈ 0.4 > ρ = 0.3)
    // yet stays a sliver of a district-paired deep lane, whose size is
    // ≈ 3× a stage (ratio ≈ 0.19 < ρ) — proportional, so the asymmetry
    // survives any design scale.
    // The spine is saturated (X8 buffers): it sits in every stage cone *and*
    // every district-paired deep lane, so if sizing could speed it up, the
    // data-path engine tuning it for the chains would silently erase the
    // deep clusters' violations as a side effect — the decision structure
    // only survives if the shared cells are untunable.
    let spine_len = (gates_per_stage * 7 / 10).max(6);
    let mut spine_tail = pi;
    for i in 0..spine_len {
        let pos = i as f32 / spine_len as f32;
        let g = b.gate(
            GateKind::Buf,
            Drive::X8,
            cluster_loc(plan, pos, region, rng),
        );
        b.drive(spine_tail, g);
        spine_tail = g;
    }

    let mut prev_q: CellId = pi; // source feeding the first stage
    let mut flops = Vec::new();
    // One extra stage seals the chain tail: the last register launches into
    // a full logic stage before the PO, so the tail endpoint violates like
    // every interior stage. Without it the last flop drives the PO through a
    // bare wire, and that ~half-period of slack is a reservoir the skew
    // engine can cascade the whole chain's violations into (shift every
    // register progressively later, retiring each stage's deficit into the
    // idle tail) — chains would be clock-fixable after all.
    for s in 0..=stages {
        let frac = s as f32 / (stages + 1) as f32;
        // Stage wiring keeps the stages *balanced* (the property that makes
        // skew zero-sum on a chain): every gate's first pin continues the
        // chain from the previous level, side pins return to the stage
        // source, and the spine enters the cone exactly once. Tapping
        // random lower cells or cross-cluster interfaces here would give
        // mid-chain cells unpredictable fanout load on their weak drives,
        // spreading stage delays so far apart that chains grow harvestable
        // launch headroom and stop being the skew trap they document.
        let mut prev_level: Vec<CellId> = vec![prev_q];
        let mut prev_unused: Vec<CellId> = vec![prev_q];
        let mut lower: Vec<CellId> = Vec::new();
        let mut spine_pin_pending = true;
        let mut last_level: Vec<CellId> = Vec::new();
        for level in 0..depth {
            let mut this_level = Vec::with_capacity(per_level);
            let pos = frac + (level as f32 / depth as f32) / stages as f32;
            for _ in 0..per_level {
                let kind = random_gate(rng);
                let g = b.gate(
                    kind,
                    random_drive(ClusterKind::Chain, rng),
                    chain_loc(plan, pos, level, region, rng),
                );
                for pin in 0..kind.input_count() {
                    let drv = if pin == 0 {
                        if !prev_unused.is_empty() {
                            let i = rng.gen_range(0..prev_unused.len());
                            prev_unused.swap_remove(i)
                        } else {
                            prev_level[rng.gen_range(0..prev_level.len())]
                        }
                    } else if spine_pin_pending {
                        spine_pin_pending = false;
                        spine_tail
                    } else {
                        prev_q
                    };
                    b.drive(drv, g);
                }
                this_level.push(g);
            }
            lower.extend(prev_unused.iter().copied());
            prev_unused = this_level.clone();
            prev_level = this_level.clone();
            last_level = this_level;
        }
        // Endpoint capturing this stage: a register for interior stages, the
        // sealed PO for the tail stage.
        let drv = last_level[rng.gen_range(0..last_level.len())];
        if s < stages {
            let f = b.flop(
                random_drive(ClusterKind::Chain, rng),
                cluster_loc(plan, (s + 1) as f32 / (stages + 1) as f32, region, rng),
            );
            b.drive(drv, f);
            flops.push(f);
            prev_q = f;
        } else {
            let po = b.output(cluster_loc(plan, 1.0, region, rng));
            b.drive(drv, po);
        }
        // Unused outputs of this stage.
        let unused: Vec<CellId> = lower
            .iter()
            .chain(last_level.iter())
            .copied()
            .filter(|&c| {
                c != drv
                    && b.as_netlist()
                        .net(b.output_net(c).expect("gate output"))
                        .sinks
                        .is_empty()
            })
            .collect();
        all_unused.extend(unused);
    }
    cross_taps.extend(flops.last().copied());
    spine_tail
}

/// Nominal (slew-free) longest-path arrival estimate at every endpoint, used
/// only for period calibration. The real timing engine lives in the `sta`
/// crate; this estimator intentionally uses the same delay structure
/// (intrinsic + resistance·load + wire) without slew so the two agree
/// closely.
fn endpoint_arrivals(netlist: &Netlist) -> Vec<f32> {
    let lib = netlist.library();
    let order = crate::power::topological_comb(netlist);
    let mut out_arrival = vec![0.0f32; netlist.cell_count()];
    // Launch points.
    for id in netlist.cell_ids() {
        out_arrival[id.index()] = match netlist.kind(id) {
            GateKind::Dff => lib.cell(netlist.cell(id).lib).intrinsic,
            GateKind::Input => 0.0,
            _ => 0.0,
        };
    }
    let arrival_at = |netlist: &Netlist, out_arrival: &[f32], cell: CellId| -> f32 {
        let mut worst = 0.0f32;
        for &net in &netlist.cell(cell).inputs {
            let drv = netlist.net(net).driver;
            let seg = netlist.segment_length(net, cell);
            let wire = lib
                .wire()
                .delay(seg, lib.cell(netlist.cell(cell).lib).input_cap);
            let a = out_arrival[drv.index()] + wire;
            worst = worst.max(a);
        }
        worst
    };
    for id in order {
        let lc = lib.cell(netlist.cell(id).lib);
        let load = netlist
            .cell(id)
            .output
            .map(|n| netlist.net_load(n))
            .unwrap_or(0.0);
        let in_arr = arrival_at(netlist, &out_arrival, id);
        out_arrival[id.index()] = in_arr + lc.intrinsic + lc.resistance * load;
    }
    netlist
        .endpoints()
        .iter()
        .map(|ep| {
            let cell = ep.cell();
            let lc = lib.cell(netlist.cell(cell).lib);
            arrival_at(netlist, &out_arrival, cell) + lc.setup
        })
        .collect()
}

/// Chooses the clock period so ≈`viol_frac` of the *constrained* endpoints
/// violate at the nominal-delay estimate.
///
/// Designs contain a mass of trivially-met endpoints (registered interfaces,
/// port-side registers); including them in the quantile would park the
/// period at interface-logic scale and make real paths violate by multiples
/// of the period. The quantile is therefore taken over the endpoints whose
/// estimated arrival exceeds 35 % of the design maximum.
fn calibrate_period(netlist: &Netlist, viol_frac: f32) -> f32 {
    let arrivals = endpoint_arrivals(netlist);
    let max = arrivals.iter().copied().fold(0.0f32, f32::max);
    if max <= 0.0 {
        return 1000.0;
    }
    let mut tail: Vec<f32> = arrivals
        .iter()
        .copied()
        .filter(|&a| a > 0.35 * max)
        .collect();
    tail.sort_by(f32::total_cmp);
    let q = (1.0 - viol_frac.clamp(0.01, 0.95)) as f64;
    let idx = ((tail.len() - 1) as f64 * q).round() as usize;
    // Slew effects (ignored by the estimate) add delay, so bias slightly up.
    (tail[idx] * 1.02).max(1.0)
}

/// The 19-block benchmark suite mirroring Table II's designs, scaled down
/// ~100× in cell count (the paper's blocks are 84 K–1.3 M cells).
///
/// `scale` further multiplies the cell counts; `1.0` gives the default
/// ~800–13 000-cell designs. Relative size ordering, technology mix, and
/// violation-severity profile follow the paper's begin columns.
pub fn block_suite(scale: f32) -> Vec<DesignSpec> {
    // (name, paper cells, tech, viol_frac, deep_frac, chain_frac)
    let rows: [(&str, usize, TechNode, f32, f32, f32); 19] = [
        ("block1", 5770, TechNode::N5, 0.55, 0.30, 0.20),
        ("block2", 13000, TechNode::N5, 0.30, 0.15, 0.35),
        ("block3", 3530, TechNode::N7, 0.60, 0.35, 0.20),
        ("block4", 3700, TechNode::N7, 0.60, 0.35, 0.15),
        ("block5", 1940, TechNode::N7, 0.55, 0.35, 0.20),
        ("block6", 1950, TechNode::N12, 0.50, 0.30, 0.25),
        ("block7", 4160, TechNode::N12, 0.45, 0.20, 0.35),
        ("block8", 1350, TechNode::N5, 0.60, 0.30, 0.25),
        ("block9", 1620, TechNode::N7, 0.20, 0.20, 0.40),
        ("block10", 840, TechNode::N7, 0.65, 0.35, 0.20),
        ("block11", 1800, TechNode::N7, 0.40, 0.25, 0.30),
        ("block12", 2430, TechNode::N12, 0.55, 0.30, 0.25),
        ("block13", 5070, TechNode::N5, 0.35, 0.20, 0.35),
        ("block14", 8160, TechNode::N5, 0.40, 0.20, 0.30),
        ("block15", 8210, TechNode::N7, 0.30, 0.20, 0.35),
        ("block16", 4320, TechNode::N7, 0.35, 0.25, 0.30),
        ("block17", 5070, TechNode::N12, 0.30, 0.25, 0.30),
        ("block18", 4120, TechNode::N5, 0.55, 0.25, 0.25),
        ("block19", 9220, TechNode::N7, 0.30, 0.25, 0.30),
    ];
    rows.iter()
        .enumerate()
        .map(|(i, &(name, cells, tech, viol, deep, chain))| {
            let mut spec = DesignSpec::new(
                name,
                ((cells as f32 * scale) as usize).max(120),
                tech,
                0xCC_D0 + i as u64,
            );
            spec.viol_frac = viol;
            spec.deep_frac = deep;
            spec.chain_frac = chain;
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(seed: u64) -> DesignSpec {
        DesignSpec::new("t", 600, TechNode::N7, seed)
    }

    #[test]
    fn generated_design_is_structurally_valid() {
        let d = generate(&small_spec(1));
        assert!(d.netlist.check().is_empty(), "{:?}", d.netlist.check());
        assert!(d.period_ps > 0.0);
        // Size lands in the right ballpark.
        let n = d.netlist.cell_count();
        assert!((400..=1200).contains(&n), "cell count {n}");
        assert!(!d.netlist.flops().is_empty());
        assert!(!d.netlist.endpoints().is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small_spec(42));
        let b = generate(&small_spec(42));
        assert_eq!(a.netlist.cell_count(), b.netlist.cell_count());
        assert_eq!(a.netlist.net_count(), b.netlist.net_count());
        assert_eq!(a.period_ps, b.period_ps);
        // Spot-check a location.
        let id = CellId::new(a.netlist.cell_count() / 2);
        assert_eq!(a.netlist.cell(id).loc, b.netlist.cell(id).loc);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_spec(1));
        let b = generate(&small_spec(2));
        assert!(
            a.netlist.cell_count() != b.netlist.cell_count() || a.period_ps != b.period_ps,
            "designs should differ"
        );
    }

    #[test]
    fn most_nets_have_sinks_and_flops_capture() {
        let d = generate(&small_spec(5));
        let dangling = d
            .netlist
            .net_ids()
            .filter(|&n| d.netlist.net(n).sinks.is_empty())
            .count();
        // Unused exports exist but must stay a small minority.
        assert!(
            (dangling as f32) < 0.35 * d.netlist.net_count() as f32,
            "{dangling} of {} nets dangling",
            d.netlist.net_count()
        );
        // Every flop D input is driven.
        for &f in d.netlist.flops() {
            assert_eq!(d.netlist.cell(f).inputs.len(), 1);
        }
    }

    #[test]
    fn violation_fraction_near_target_on_constrained_tail() {
        let mut spec = small_spec(9);
        spec.target_cells = 1500;
        spec.viol_frac = 0.4;
        let d = generate(&spec);
        let arr = super::endpoint_arrivals(&d.netlist);
        let max = arr.iter().copied().fold(0.0f32, f32::max);
        let tail: Vec<f32> = arr.iter().copied().filter(|&a| a > 0.35 * max).collect();
        let viol = tail.iter().filter(|&&a| a > d.period_ps).count() as f32;
        let frac = viol / tail.len() as f32;
        assert!(
            (frac - 0.4).abs() < 0.2,
            "violation fraction {frac} far from 0.4"
        );
    }

    #[test]
    fn suite_has_19_blocks_with_paper_ordering() {
        let suite = block_suite(1.0);
        assert_eq!(suite.len(), 19);
        assert_eq!(suite[0].name, "block1");
        assert_eq!(suite[18].name, "block19");
        // block2 is the largest, block10 the smallest (paper: 1.3M vs 84K).
        let sizes: Vec<usize> = suite.iter().map(|s| s.target_cells).collect();
        assert_eq!(
            *sizes.iter().max().expect("nonempty"),
            suite[1].target_cells
        );
        assert_eq!(
            *sizes.iter().min().expect("nonempty"),
            suite[9].target_cells
        );
        // Scaling shrinks.
        let small = block_suite(0.25);
        assert!(small[0].target_cells < suite[0].target_cells);
    }

    #[test]
    fn class_counts_cover_all_endpoints() {
        let d = generate(&small_spec(3));
        let (n, deep, chain) = d.class_counts();
        assert_eq!(n + deep + chain, d.netlist.endpoints().len());
        assert!(deep > 0 && chain > 0, "default spec mixes all classes");
    }

    #[test]
    fn deep_clusters_saturate_drives() {
        let mut spec = small_spec(11);
        spec.deep_frac = 1.0;
        spec.chain_frac = 0.0;
        let deep = generate(&spec);
        let strong = deep
            .netlist
            .cell_ids()
            .filter(|&c| deep.netlist.kind(c).is_combinational())
            .filter(|&c| deep.netlist.library().cell(deep.netlist.cell(c).lib).drive >= Drive::X4)
            .count();
        let total = deep
            .netlist
            .cell_ids()
            .filter(|&c| deep.netlist.kind(c).is_combinational())
            .count();
        assert!(
            strong as f32 / total as f32 > 0.5,
            "deep clusters should be drive-saturated ({strong}/{total})"
        );
    }
}
