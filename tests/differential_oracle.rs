//! All-pairs differential oracle: every way this workspace can produce a
//! selection for one (parameters, design, seed) gives the **same**
//! selection and the same log-probabilities, bit for bit, in one test.
//!
//! The paths: the training rollout (dense EP-GNN re-encode per step, on a
//! gradient tape, fast and scalar-reference kernels), the one-shot
//! inference functions and a reused [`InferSession`] (incremental encode on
//! a no-grad tape, both kernel modes), a query through an in-process
//! server — computed cold (the query that runs and stores the step-0
//! encode) and warm (a later one that starts from the stored copy), with
//! the log-probabilities the experience hook saw — and a teacher-forced
//! replay of the result. The pairwise pins
//! live beside each path (`infer.rs`, `tests/serve_parity.rs`,
//! `agent.rs`); this is the one place where a change to any of them has to
//! agree with all the others at once. Distributed training runs the
//! training loop unchanged; its pins are in `tests/dist_fault_tolerance.rs`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd::{sample_endpoints, select_endpoints, CcdEnv, InferSession, RlCcd, RlConfig, Rollout};
use rl_ccd_flow::FlowRecipe;
use rl_ccd_netlist::{generate, DesignSpec, EndpointId, Library};
use rl_ccd_nn::Tape;
use rl_ccd_serve::{
    DesignKey, ExperienceEvent, ExperienceHook, Mode, ModelRegistry, QueryRequest, Response,
    ServeConfig, Server,
};
use std::sync::{Arc, Mutex};

const MODEL: &str = "oracle";
const SEED: u64 = 20_230_709;

fn key() -> DesignKey {
    DesignKey {
        name: "oracle".into(),
        cells: 420,
        tech: "7nm".into(),
        seed: 13,
    }
}

/// The env for a key exactly the way the server's cache builds it.
fn build_env(key: &DesignKey, fanout_cap: usize) -> CcdEnv {
    let tech = Library::parse_tech(&key.tech).expect("known tech");
    let design = generate(&DesignSpec::new(
        key.name.clone(),
        key.cells,
        tech,
        key.seed,
    ));
    CcdEnv::new(design, FlowRecipe::default(), fanout_cap)
}

fn total_bits(ro: &Rollout) -> u32 {
    ro.tape.value(ro.total_log_prob).data()[0].to_bits()
}

fn served(server: &Server, mode: Mode) -> Vec<EndpointId> {
    let request = QueryRequest {
        model: MODEL.into(),
        design: key(),
        mode,
        deadline_ms: None,
        auth: None,
    };
    match server.handle().query(request) {
        Response::Ok(reply) => reply.selection.into_iter().map(EndpointId::new).collect(),
        other => panic!("query was not answered: {other:?}"),
    }
}

/// Keeps every event the server hands the experience hook.
#[derive(Debug, Default)]
struct Capture(Mutex<Vec<ExperienceEvent>>);

impl ExperienceHook for Capture {
    fn on_sample(&self, event: ExperienceEvent) {
        self.0.lock().expect("capture lock").push(event);
    }
}

/// The store leg: one logging server asked the same sampled query and the
/// same greedy query twice each. The first sampled query runs the dense
/// encode and stores it; every later computed one starts from the stored
/// copy. All of them must give the routes' one selection, and both logged
/// trajectories the session's per-step log-prob bits.
fn cold_then_warm(
    registry: ModelRegistry,
    fanout_cap: usize,
    sampled: (&[EndpointId], &[f32]),
    greedy: &[EndpointId],
) {
    let hook = Arc::new(Capture::default());
    let server = Server::start(
        registry,
        ServeConfig {
            fanout_cap,
            experience: Some(hook.clone() as Arc<dyn ExperienceHook>),
            ..ServeConfig::default()
        },
    );
    for temperature in ["cold", "warm"] {
        assert_eq!(
            served(&server, Mode::Sample(SEED)),
            sampled.0,
            "{temperature} served sample"
        );
    }
    for temperature in ["warm", "memoized"] {
        assert_eq!(
            served(&server, Mode::Greedy),
            greedy,
            "{temperature} served greedy"
        );
    }
    let stats = server.shutdown().stats;
    assert_eq!(
        (stats.encode_misses, stats.encode_hits),
        (1, 2),
        "one dense encode under three computed queries: {stats}"
    );
    let bits = |lp: &[f32]| lp.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let events = hook.0.lock().expect("capture lock");
    assert_eq!(events.len(), 2, "one event per sampled query");
    for (event, temperature) in events.iter().zip(["cold", "warm"]) {
        assert_eq!(event.selection, sampled.0, "{temperature} event");
        assert_eq!(
            bits(&event.log_probs),
            bits(sampled.1),
            "{temperature} event log-probs"
        );
    }
}

#[test]
fn every_path_gives_one_selection_and_one_log_prob() {
    let config = RlConfig::fast();
    let (rho, fanout_cap) = (config.rho, config.fanout_cap);
    let (model, params) = RlCcd::init(config);
    let env = build_env(&key(), fanout_cap);

    let registry = ModelRegistry::new();
    registry
        .insert_params(MODEL, params.clone(), rho)
        .expect("register");
    let server = Server::start(
        registry,
        ServeConfig {
            fanout_cap,
            ..ServeConfig::default()
        },
    );

    // Sampled.
    let rng = || StdRng::seed_from_u64(SEED);
    let reference = model.rollout(&params, &env, &mut rng());
    assert!(reference.steps() >= 2, "a one-step trajectory pins little");
    let want = &reference.selected;
    let scalar = model.rollout_with_tape(&params, &env, Some(&mut rng()), Tape::scalar_reference());
    assert_eq!(&scalar.selected, want, "scalar-reference rollout");
    assert_eq!(total_bits(&scalar), total_bits(&reference));
    assert_eq!(
        &sample_endpoints(&model, &params, &env, &mut rng()),
        want,
        "sample_endpoints"
    );
    for (name, mut session) in [
        ("fast", InferSession::new(&model, &params)),
        ("scalar", InferSession::scalar_reference(&model, &params)),
    ] {
        let (selected, log_probs) = session.sample_logged(&env, &mut rng());
        assert_eq!(&selected, want, "{name} session");
        // Folded in tape order: ((lp₀ + lp₁) + lp₂) + …
        let folded = log_probs.into_iter().reduce(|a, b| a + b).expect("steps");
        assert_eq!(
            folded.to_bits(),
            total_bits(&reference),
            "{name} session log-probs"
        );
    }
    assert_eq!(&served(&server, Mode::Sample(SEED)), want, "served sample");
    let replayed = model
        .replay_trajectory(&params, &env, want)
        .expect("the selection replays");
    assert_eq!(&replayed.selected, want, "replay");
    assert_eq!(total_bits(&replayed), total_bits(&reference), "replay");

    // Greedy.
    let reference = model.rollout_greedy(&params, &env);
    let want = &reference.selected;
    let scalar = model.rollout_with_tape(&params, &env, None, Tape::scalar_reference());
    assert_eq!(&scalar.selected, want, "scalar-reference greedy rollout");
    assert_eq!(total_bits(&scalar), total_bits(&reference));
    assert_eq!(
        &select_endpoints(&model, &params, &env),
        want,
        "select_endpoints"
    );
    assert_eq!(&InferSession::new(&model, &params).select(&env), want);
    assert_eq!(
        &InferSession::scalar_reference(&model, &params).select(&env),
        want
    );
    assert_eq!(&served(&server, Mode::Greedy), want, "served greedy");
    let replayed = model
        .replay_trajectory(&params, &env, want)
        .expect("the greedy selection replays");
    assert_eq!(
        total_bits(&replayed),
        total_bits(&reference),
        "greedy replay"
    );

    assert_eq!(server.shutdown().dropped(), 0);

    // Cold and warm through the encode store, against everything above.
    let (sampled, log_probs) = InferSession::new(&model, &params).sample_logged(&env, &mut rng());
    let folded = log_probs
        .iter()
        .copied()
        .reduce(|a, b| a + b)
        .expect("steps");
    let reference = model.rollout(&params, &env, &mut rng());
    assert_eq!(sampled, reference.selected);
    assert_eq!(folded.to_bits(), total_bits(&reference));
    let registry = ModelRegistry::new();
    registry
        .insert_params(MODEL, params.clone(), rho)
        .expect("register");
    cold_then_warm(registry, fanout_cap, (&sampled, &log_probs), want);
}
