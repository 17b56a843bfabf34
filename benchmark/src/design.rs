//! Inputs, all derived from `--seed`: which generated designs a workload
//! runs on and the order of the requests it sends. The product only ever
//! sees the resulting design keys and requests.
//!
//! A design's generator seed comes from the seed stream, but a workload is
//! defined at a *stated input size*: the agent's work per rollout is
//! cells × decode steps, and both swing by 2× between generator seeds. So
//! candidates are drawn from the stream until one lands on the workload's
//! stated cell count and trajectory length. That keeps every seed's run the
//! same amount of work — a throughput can be compared across seeds — while
//! the netlists themselves still differ with the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_ccd::{CcdEnv, SelectionMask};
use rl_ccd_exp::build_env;
use rl_ccd_serve::{DesignKey, Mode};

/// Mixes a workload-local stream id into the run seed (SplitMix64 step), so
/// design picking, request order and model init never share a stream.
pub fn substream(seed: u64, stream: u64) -> StdRng {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// The stated input size of one design slot of a workload.
#[derive(Clone, Copy, Debug)]
pub struct SizeSpec {
    /// Generator target (`DesignKey::cells`); the netlist comes out larger.
    pub spec_cells: usize,
    pub tech: &'static str,
    /// Cell count the generated netlist must land on, within `TOLERANCE`.
    pub cells: usize,
    /// Mean decode steps of a uniform-random trajectory, within `TOLERANCE`.
    pub steps: f64,
}

/// Half-width of the accepted band around a [`SizeSpec`] target.
pub const TOLERANCE: f64 = 0.025;
/// Uniform trajectories averaged per candidate.
const STEP_TRIALS: usize = 64;
/// Candidates tried before the spec is declared unreachable. Acceptance is
/// a few percent, so this is never approached unless the generator changed.
const MAX_CANDIDATES: usize = 20_000;

/// Mean length of a uniform-random selection trajectory on `env`: the
/// number of decode steps an untrained policy takes, found from the
/// cone-overlap mask alone (no network evaluation). A pure function of the
/// environment: the trial stream is fixed.
pub fn uniform_steps(env: &CcdEnv, rho: f32) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x57E9_5EED);
    let mut total = 0usize;
    for _ in 0..STEP_TRIALS {
        let mut mask = SelectionMask::new(env.pool().len(), rho);
        loop {
            let valid: Vec<usize> = mask
                .valid_mask()
                .iter()
                .enumerate()
                .filter_map(|(i, &v)| v.then_some(i))
                .collect();
            if valid.is_empty() {
                break;
            }
            mask.select(valid[rng.gen_range(0..valid.len())], env.cones());
            total += 1;
        }
    }
    total as f64 / STEP_TRIALS as f64
}

/// A picked design with its built environment and measured size.
#[derive(Debug)]
pub struct Picked {
    pub key: DesignKey,
    pub env: CcdEnv,
    pub cells: usize,
    pub uniform_steps: f64,
    pub candidates_tried: usize,
}

fn within(value: f64, target: f64) -> bool {
    (value - target).abs() <= TOLERANCE * target
}

/// Draws generator seeds from `rng` until a design meets `size`.
///
/// # Panics
/// When `MAX_CANDIDATES` candidates all miss: the generator no longer
/// produces the stated size and the workload constants need re-deriving.
pub fn pick(rng: &mut StdRng, name: &str, size: &SizeSpec, rho: f32, fanout_cap: usize) -> Picked {
    for tried in 1..=MAX_CANDIDATES {
        let key = DesignKey {
            name: name.to_string(),
            cells: size.spec_cells,
            tech: size.tech.to_string(),
            // 32 bits keep the key's decimal text short on the wire.
            seed: rng.next_u64() >> 32,
        };
        let env = build_env(&key, fanout_cap).expect("workload tech nodes exist");
        let cells = env.design().netlist.cell_count();
        if !within(cells as f64, size.cells as f64) {
            continue;
        }
        let steps = uniform_steps(&env, rho);
        if within(steps, size.steps) {
            return Picked {
                key,
                env,
                cells,
                uniform_steps: steps,
                candidates_tried: tried,
            };
        }
    }
    panic!("no generated design met {size:?} in {MAX_CANDIDATES} candidates");
}

/// One query a client sends: which design (index into the workload's
/// design list) and how the policy decodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    pub design: usize,
    pub mode: Mode,
}

/// The hot mix of one tenant: every third query `Greedy` (a selection-cache
/// hit), the others `Sample` drawn from `seeds_per_design` fixed seeds per
/// design, designs chosen at random. Not half and half: the two modes cost
/// different amounts, and the median of an even two-cluster mix falls in
/// the gap between the clusters, where it is not a stable number. A pure
/// function of its arguments.
pub fn hot_requests(
    seed: u64,
    client: usize,
    designs: usize,
    seeds_per_design: u64,
    count: usize,
) -> Vec<Query> {
    let mut rng = substream(seed, 0x4801 + client as u64);
    (0..count)
        .map(|i| {
            let design = rng.gen_range(0..designs);
            let mode = if i % 3 == 0 {
                Mode::Greedy
            } else {
                Mode::Sample(hot_sample_seed(design, rng.gen_range(0..seeds_per_design)))
            };
            Query { design, mode }
        })
        .collect()
}

/// The `slot`-th fixed sample seed of a hot design.
pub fn hot_sample_seed(design: usize, slot: u64) -> u64 {
    (design as u64) << 16 | slot
}

/// The cold mix of one client: `Sample` only, every seed distinct across
/// the whole run, designs drawn uniformly from a working set larger than
/// the env cache (so about cache/designs of the lookups hit).
pub fn cold_requests(
    seed: u64,
    client: usize,
    clients: usize,
    designs: usize,
    count: usize,
) -> Vec<Query> {
    let mut rng = substream(seed, 0xC01D + client as u64);
    (0..count)
        .map(|i| Query {
            design: rng.gen_range(0..designs),
            mode: Mode::Sample(((i * clients + client) as u64) << 20 | (rng.next_u64() & 0xF_FFFF)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn requests_are_a_pure_function_of_the_seed() {
        assert_eq!(
            hot_requests(11, 0, 4, 16, 64),
            hot_requests(11, 0, 4, 16, 64)
        );
        assert_ne!(
            hot_requests(11, 0, 4, 16, 64),
            hot_requests(12, 0, 4, 16, 64)
        );
        assert_ne!(
            hot_requests(11, 0, 4, 16, 64),
            hot_requests(11, 1, 4, 16, 64)
        );
        assert_eq!(
            cold_requests(11, 1, 2, 12, 64),
            cold_requests(11, 1, 2, 12, 64)
        );
        assert_ne!(
            cold_requests(11, 1, 2, 12, 64),
            cold_requests(12, 1, 2, 12, 64)
        );
    }

    #[test]
    fn hot_mix_is_one_third_greedy_and_stays_inside_the_fixed_seed_set() {
        let reqs = hot_requests(3, 0, 4, 16, 200);
        let mut samples = BTreeSet::new();
        for (i, q) in reqs.iter().enumerate() {
            assert!(q.design < 4);
            match q.mode {
                Mode::Greedy => assert_eq!(i % 3, 0),
                Mode::Sample(s) => {
                    assert_ne!(i % 3, 0);
                    assert_eq!(s >> 16, q.design as u64);
                    assert!(s & 0xFFFF < 16);
                    samples.insert(s);
                }
            }
        }
        assert!(samples.len() <= 4 * 16);
    }

    #[test]
    fn cold_mix_never_repeats_a_seed_and_sweeps_every_design() {
        let mut seeds = BTreeSet::new();
        let mut designs = BTreeSet::new();
        for client in 0..2 {
            for q in cold_requests(5, client, 2, 12, 300) {
                let Mode::Sample(s) = q.mode else {
                    panic!("cold mix is sample-only")
                };
                assert!(seeds.insert(s), "seed {s} repeated");
                designs.insert(q.design);
            }
        }
        assert_eq!(designs.len(), 12);
    }

    #[test]
    fn picked_designs_meet_the_stated_size_and_follow_the_seed() {
        let size = SizeSpec {
            spec_cells: 300,
            tech: "7nm",
            cells: 380,
            steps: 3.8,
        };
        let a = pick(&mut substream(11, 1), "t", &size, 0.3, 24);
        let b = pick(&mut substream(11, 1), "t", &size, 0.3, 24);
        let c = pick(&mut substream(12, 1), "t", &size, 0.3, 24);
        assert_eq!(a.key, b.key);
        assert_ne!(a.key, c.key);
        for p in [&a, &c] {
            assert!(within(p.cells as f64, 380.0), "{}", p.cells);
            assert!(within(p.uniform_steps, 3.8), "{}", p.uniform_steps);
            assert_eq!(uniform_steps(&p.env, 0.3), p.uniform_steps);
        }
    }
}
