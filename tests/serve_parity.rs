//! Serving parity: concurrent batched inference answers are bit-identical
//! to the sequential offline path.
//!
//! The contract under test: for any batch makeup, any thread
//! interleaving, and any cache state (including active eviction),
//! a greedy query equals `evaluate_policy`'s `greedy_selection` and a
//! seeded sample query equals `sample_endpoints` with the same seed — the
//! server may batch and cache, but never change an answer. The suite also
//! pins graceful drain: every accepted request is answered, zero dropped.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd::{evaluate_policy, sample_endpoints, CcdEnv, RlCcd, RlConfig};
use rl_ccd_flow::FlowRecipe;
use rl_ccd_netlist::{generate, DesignSpec, EndpointId, Library};
use rl_ccd_serve::{
    DesignKey, Mode, ModelRegistry, QueryReply, QueryRequest, Response, ServeConfig, Server,
};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

const MODEL: &str = "default";
const SAMPLE_SEEDS: [u64; 3] = [0, 7, 1234];

fn design_keys() -> Vec<DesignKey> {
    vec![
        DesignKey {
            name: "parity_a".into(),
            cells: 220,
            tech: "7nm".into(),
            seed: 3,
        },
        DesignKey {
            name: "parity_b".into(),
            cells: 260,
            tech: "12nm".into(),
            seed: 9,
        },
    ]
}

/// Builds the env for a key exactly the way the server's cache does.
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

/// The sequential reference: greedy plus per-seed sampled selections for
/// every design, computed without any server in the picture.
fn indices(selection: &[EndpointId]) -> Vec<usize> {
    selection.iter().map(|e| e.index()).collect()
}

fn reference(
    model: &RlCcd,
    params: &rl_ccd_nn::ParamSet,
    keys: &[DesignKey],
    fanout_cap: usize,
) -> HashMap<(String, Option<u64>), Vec<usize>> {
    let mut expected = HashMap::new();
    for key in keys {
        let env = build_env(key, fanout_cap);
        let eval = evaluate_policy(model, params, &env, 1, 0);
        expected.insert((key.to_string(), None), indices(&eval.greedy_selection));
        for seed in SAMPLE_SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let selected = sample_endpoints(model, params, &env, &mut rng);
            expected.insert((key.to_string(), Some(seed)), indices(&selected));
        }
    }
    expected
}

#[test]
fn concurrent_batched_answers_match_sequential_inference() {
    let config = RlConfig::fast();
    let rho = config.rho;
    let (model, params) = RlCcd::init(config);
    let keys = design_keys();

    // env_cache capacity 1 with 2 designs in rotation: every cross-design
    // batch forces an eviction and a rebuild, so parity is also checked
    // against freshly rebuilt environments mid-run.
    let serve_config = ServeConfig {
        max_batch: 4,
        queue_capacity: 256,
        workers: 2,
        env_cache: 1,
        fanout_cap: RlConfig::fast().fanout_cap,
        ..ServeConfig::default()
    };
    let expected = reference(&model, &params, &keys, serve_config.fanout_cap);

    let registry = ModelRegistry::new();
    registry
        .insert_params(MODEL, params.clone(), rho)
        .expect("register");
    let server = Server::start(registry, serve_config.clone());
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let handle = server.handle();
            let keys = keys.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for r in 0..6 {
                    let key = &keys[(t + r) % keys.len()];
                    let (mode, seed) = if (t + r) % 2 == 0 {
                        (Mode::Greedy, None)
                    } else {
                        let s = SAMPLE_SEEDS[(t * 7 + r) % SAMPLE_SEEDS.len()];
                        (Mode::Sample(s), Some(s))
                    };
                    let reply = expect_ok(handle.query(request(key, mode)));
                    let want = &expected[&(key.to_string(), seed)];
                    assert_eq!(
                        &reply.selection, want,
                        "thread {t} req {r}: served selection diverged from \
                         sequential inference on {key}"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let report = server.shutdown();
    assert_eq!(report.dropped(), 0, "drain left requests unanswered");
    assert!(
        report.stats.completed >= 48,
        "expected all 48 requests answered"
    );

    // Backlog leg: every query below is submitted while the only worker
    // is busy on a cold design, so they leave the queue as multi-query
    // batches (mixed designs, greedy and sampled) that must still answer
    // exactly as sequential inference does.
    let registry = ModelRegistry::new();
    registry
        .insert_params(MODEL, params.clone(), rho)
        .expect("register");
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 1,
            ..serve_config
        },
    );
    let handle = server.handle();
    let cold = DesignKey {
        name: "parity_cold".into(),
        cells: 4000,
        tech: "7nm".into(),
        seed: 5,
    };
    let (tx, busy) = mpsc::channel();
    handle.submit(request(&cold, Mode::Greedy), move |r| {
        let _ = tx.send(r);
    });
    while handle.health().queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut pending = Vec::new();
    for key in &keys {
        let modes = std::iter::once((Mode::Greedy, None))
            .chain(SAMPLE_SEEDS.map(|s| (Mode::Sample(s), Some(s))));
        for (mode, seed) in modes {
            let (tx, rx) = mpsc::channel();
            handle.submit(request(key, mode), move |r| {
                let _ = tx.send(r);
            });
            pending.push((key.to_string(), seed, rx));
        }
    }
    expect_ok(busy.recv().expect("cold reply"));
    for (key, seed, rx) in pending {
        let reply = expect_ok(rx.recv().expect("backlog reply"));
        assert_eq!(
            reply.selection,
            expected[&(key.clone(), seed)],
            "backlog: served selection diverged from sequential inference on \
             {key} (seed {seed:?})"
        );
    }
    let report = server.shutdown();
    assert_eq!(
        report.dropped(),
        0,
        "backlog: drain left requests unanswered"
    );
    assert!(
        report.stats.batches.keys().any(|&size| size >= 2),
        "backlog: no batch held two requests: {:?}",
        report.stats.batches
    );
}

fn request(key: &DesignKey, mode: Mode) -> QueryRequest {
    QueryRequest {
        model: MODEL.into(),
        design: key.clone(),
        mode,
        deadline_ms: None,
        auth: None,
    }
}

fn expect_ok(response: Response) -> QueryReply {
    match response {
        Response::Ok(reply) => reply,
        Response::Err { kind, msg } => panic!("rejected ({kind}): {msg}"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn cache_eviction_churn_preserves_greedy_answers() {
    let config = RlConfig::fast();
    let rho = config.rho;
    let (model, params) = RlCcd::init(config);
    let keys = design_keys();
    let fanout_cap = RlConfig::fast().fanout_cap;

    let registry = ModelRegistry::new();
    registry
        .insert_params(MODEL, params.clone(), rho)
        .expect("register");
    // Both caches capacity 1: every alternating query evicts the other
    // design's env *and* memoized selection.
    let server = Server::start(
        registry,
        ServeConfig {
            max_batch: 1,
            env_cache: 1,
            selection_cache: 1,
            workers: 1,
            fanout_cap,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();

    let expected: Vec<Vec<usize>> = keys
        .iter()
        .map(|k| {
            let env = build_env(k, fanout_cap);
            indices(&evaluate_policy(&model, &params, &env, 0, 0).greedy_selection)
        })
        .collect();

    for round in 0..3 {
        for (i, key) in keys.iter().enumerate() {
            let resp = handle.query(QueryRequest {
                model: MODEL.into(),
                design: key.clone(),
                mode: Mode::Greedy,
                deadline_ms: None,
                auth: None,
            });
            match resp {
                Response::Ok(reply) => assert_eq!(
                    reply.selection, expected[i],
                    "round {round}: eviction churn changed the greedy answer for {key}"
                ),
                Response::Err { kind, msg } => panic!("round {round}: rejected ({kind}): {msg}"),
                other => panic!("round {round}: unexpected {other:?}"),
            }
        }
    }
    let report = server.shutdown();
    assert_eq!(report.dropped(), 0);
}

/// Health probes expose the registry's live identities: name, checkpoint
/// version, and fingerprint for every entry, updating as models are
/// hot-loaded — what the daemon's status and zero-downtime checks key on.
#[test]
fn health_reports_every_active_model_version() {
    let config = RlConfig::fast();
    let rho = config.rho;
    let (_, params) = RlCcd::init(config);
    let registry = ModelRegistry::new();
    let entry = registry
        .insert_params(MODEL, params.clone(), rho)
        .expect("register");
    let fingerprint = entry.fingerprint;
    let server = Server::start(registry, ServeConfig::default());

    let health = server.handle().health();
    assert!(health.ready);
    assert_eq!(health.models, 1);
    assert_eq!(health.active.len(), 1);
    assert_eq!(health.active[0].name, MODEL);
    assert_eq!(health.active[0].version, 0, "insert_params registers v0");
    assert_eq!(health.active[0].fingerprint, fingerprint);

    // A model hot-loaded while the server runs shows up in the next
    // probe, sorted by name alongside the first.
    server
        .registry()
        .insert_params("challenger", params, rho)
        .expect("hot load");
    let health = server.handle().health();
    assert_eq!(health.models, 2);
    let names: Vec<&str> = health.active.iter().map(|v| v.name.as_str()).collect();
    assert_eq!(names, ["challenger", MODEL], "sorted registry identities");
    assert!(
        health.active.iter().all(|v| v.fingerprint == fingerprint),
        "identical weights share a fingerprint in the probe"
    );
    let report = server.shutdown();
    assert_eq!(report.dropped(), 0);
}
