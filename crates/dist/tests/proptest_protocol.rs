//! Property tests: every `rl-ccd-dist v1` message round-trips the codec
//! exactly — recipes and configs with floats far from 1.0, arbitrary
//! pair/inject lists, gradient payloads with preserved rollout counts, and
//! fault records with free-form detail text — and the framing layer
//! rejects truncated and oversized frames instead of misparsing them.
//!
//! Cases are generated from a seeded RNG rather than nested strategies:
//! one `u64` pins the whole case, which keeps failures reproducible under
//! the vendored proptest (no shrinking).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_ccd::{EncoderKind, FaultKind, RlConfig, RolloutFault};
use rl_ccd_dist::{
    decode_request, decode_response, encode_request, encode_response, read_message, write_message,
    BatchResponse, InitRequest, Inject, Request, Response, RolloutItem, RunRequest,
    DIST_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use rl_ccd_flow::{DatapathOpts, FlowRecipe, MarginMode, UsefulSkewOpts};
use rl_ccd_nn::{GradSet, ParamSet, Tensor};

fn wild_f32(rng: &mut StdRng) -> f32 {
    let mantissa = rng.gen_range(-1.0f32..1.0);
    let exp = rng.gen_range(0u32..12) as i32 - 6;
    mantissa * 10f32.powi(exp)
}

fn wild_f64(rng: &mut StdRng) -> f64 {
    let mantissa = rng.gen_range(-1.0f64..1.0);
    let exp = rng.gen_range(0u32..16) as i32 - 8;
    mantissa * 10f64.powi(exp)
}

fn random_skew(rng: &mut StdRng) -> UsefulSkewOpts {
    UsefulSkewOpts {
        sweeps: rng.gen_range(0usize..40),
        rate: wild_f32(rng),
        hold_floor: wild_f32(rng),
        launch_floor: wild_f32(rng),
        tolerance: wild_f32(rng),
        move_budget_frac: wild_f32(rng),
        serves_per_sweep_frac: wild_f32(rng),
    }
}

fn random_datapath(rng: &mut StdRng) -> DatapathOpts {
    DatapathOpts {
        passes: rng.gen_range(0usize..10),
        ops_per_pass: rng.gen_range(0usize..1000),
        ops_per_kcell: wild_f32(rng),
        ops_per_endpoint: rng.gen_range(0usize..20),
        buffer_min_len: wild_f32(rng),
        min_gain: wild_f32(rng),
    }
}

fn random_recipe(rng: &mut StdRng) -> FlowRecipe {
    FlowRecipe {
        skew: random_skew(rng),
        skew_touchup: random_skew(rng),
        pre_datapath: random_datapath(rng),
        main_datapath: random_datapath(rng),
        recovery_slack: wild_f32(rng),
        margin_mode: if rng.gen_bool(0.5) {
            MarginMode::OverFixToWns
        } else {
            MarginMode::UnderFix
        },
        clock_insertion_frac: wild_f32(rng),
        clock_variation_frac: wild_f32(rng),
        skew_bound_frac: wild_f32(rng),
        legalize_disp: wild_f32(rng),
        seed: rng.gen_range(0u64..u64::MAX),
    }
}

fn random_config(rng: &mut StdRng) -> RlConfig {
    RlConfig {
        gnn_hidden: rng.gen_range(1usize..64),
        embed_dim: rng.gen_range(1usize..32),
        lstm_hidden: rng.gen_range(1usize..64),
        attn_dim: rng.gen_range(1usize..64),
        rho: wild_f32(rng),
        learning_rate: wild_f32(rng),
        grad_clip: wild_f32(rng),
        workers: rng.gen_range(1usize..16),
        max_iterations: rng.gen_range(1usize..100),
        patience: rng.gen_range(1usize..10),
        fanout_cap: rng.gen_range(1usize..64),
        seed: rng.gen_range(0u64..u64::MAX),
        encoder: match rng.gen_range(0u32..3) {
            0 => EncoderKind::Lstm,
            1 => EncoderKind::Gru,
            _ => EncoderKind::None,
        },
        quorum: if rng.gen_bool(0.5) {
            None
        } else {
            Some(rng.gen_range(0usize..16))
        },
    }
}

fn random_params(rng: &mut StdRng) -> ParamSet {
    let mut params = ParamSet::new();
    for i in 0..rng.gen_range(0usize..4) {
        let rows = rng.gen_range(1usize..4);
        let cols = rng.gen_range(1usize..5);
        let data = (0..rows * cols).map(|_| wild_f32(rng)).collect();
        params.insert(format!("layer{i}.w"), Tensor::from_vec(rows, cols, data));
    }
    params
}

fn random_grads(rng: &mut StdRng) -> GradSet {
    let mut grads = GradSet::new();
    for i in 0..rng.gen_range(1usize..4) {
        let rows = rng.gen_range(1usize..3);
        let cols = rng.gen_range(1usize..4);
        let data = (0..rows * cols).map(|_| wild_f32(rng)).collect();
        grads.set(format!("g{i}"), Tensor::from_vec(rows, cols, data));
    }
    grads
}

fn random_fault(rng: &mut StdRng) -> RolloutFault {
    let kinds = [
        FaultKind::WorkerPanic,
        FaultKind::NonFiniteReward,
        FaultKind::NonFiniteGradient,
        FaultKind::NonFiniteUpdate,
        FaultKind::EmptyBatch,
        FaultKind::WorkerLost,
    ];
    let details = [
        "plain detail",
        "detail with = signs and key=value lookalikes",
        "unicode détail — ∇Σ",
        "",
    ];
    RolloutFault {
        iteration: rng.gen_range(0usize..100),
        worker: rng.gen_range(0usize..16),
        seed: rng.gen_range(0u64..u64::MAX),
        kind: kinds[rng.gen_range(0..kinds.len())],
        detail: details[rng.gen_range(0..details.len())].to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn init_requests_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lines = rng.gen_range(0usize..6);
        let netlist_text = (0..lines)
            .map(|i| format!("line {i} with tokens {}\n", rng.gen_range(0u32..u32::MAX)))
            .collect::<String>();
        let req = Request::Init(InitRequest {
            period_ps: wild_f32(&mut rng),
            recipe: random_recipe(&mut rng),
            config: random_config(&mut rng),
            netlist_text,
        });
        let back = decode_request(&encode_request(&req)).unwrap();
        prop_assert_eq!(back, req);
    }

    #[test]
    fn run_requests_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = (0..rng.gen_range(0usize..10))
            .map(|_| (rng.gen_range(0usize..32), rng.gen_range(0u64..u64::MAX)))
            .collect();
        let injects = (0..rng.gen_range(0usize..5))
            .map(|_| match rng.gen_range(0u32..6) {
                0 => Inject::Drop,
                1 => Inject::Torn,
                2 => Inject::SleepMs(rng.gen_range(0u64..100_000)),
                3 => Inject::Panic(rng.gen_range(0usize..32)),
                4 => Inject::NanReward(rng.gen_range(0usize..32)),
                _ => Inject::Poison(rng.gen_range(0usize..32)),
            })
            .collect();
        let req = Request::Run(RunRequest {
            iteration: rng.gen_range(0usize..1000),
            req_id: rng.gen_range(0u64..u64::MAX),
            budget_ms: if rng.gen_bool(0.5) {
                Some(rng.gen_range(0u64..1_000_000))
            } else {
                None
            },
            pairs,
            injects,
            params: random_params(&mut rng),
        });
        let back = decode_request(&encode_request(&req)).unwrap();
        prop_assert_eq!(back, req);
    }

    #[test]
    fn batch_responses_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let items = (0..rng.gen_range(0usize..4))
            .map(|slot| RolloutItem {
                slot,
                seed: rng.gen_range(0u64..u64::MAX),
                steps: rng.gen_range(0usize..40),
                reward: wild_f64(&mut rng),
                selection: (0..rng.gen_range(0usize..8))
                    .map(|_| rng.gen_range(0usize..500))
                    .collect(),
                grads: random_grads(&mut rng),
            })
            .collect();
        let faults = (0..rng.gen_range(0usize..4))
            .map(|_| random_fault(&mut rng))
            .collect();
        let resp = Response::Batch(BatchResponse { items, faults });
        let encoded = encode_response(&resp);
        let back = decode_response(&encoded).unwrap();
        // GradSet has no PartialEq; bit-exactness holds iff the canonical
        // re-encoding is byte-identical.
        prop_assert_eq!(encode_response(&back), encoded);
        let (Response::Batch(orig), Response::Batch(round)) = (&resp, &back) else {
            panic!("decode changed the message kind");
        };
        prop_assert_eq!(orig.items.len(), round.items.len());
        prop_assert_eq!(orig.faults.len(), round.faults.len());
        for (a, b) in orig.faults.iter().zip(&round.faults) {
            prop_assert_eq!(a, b);
        }
        for (a, b) in orig.items.iter().zip(&round.items) {
            prop_assert_eq!(a.slot, b.slot);
            prop_assert_eq!(a.seed, b.seed);
            prop_assert_eq!(a.steps, b.steps);
            prop_assert_eq!(a.reward, b.reward);
            prop_assert_eq!(&a.selection, &b.selection);
            prop_assert_eq!(a.grads.count(), b.grads.count());
        }
    }

    #[test]
    fn ack_and_err_responses_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ack = Response::InitAck {
            endpoints: rng.gen_range(0usize..10_000),
            pool: rng.gen_range(0usize..10_000),
        };
        match decode_response(&encode_response(&ack)).unwrap() {
            Response::InitAck { endpoints, pool } => {
                if let Response::InitAck { endpoints: e0, pool: p0 } = ack {
                    prop_assert_eq!(endpoints, e0);
                    prop_assert_eq!(pool, p0);
                }
            }
            other => panic!("expected init-ack, got {other:?}"),
        }
        let message = format!("failure_{}", rng.gen_range(0u32..u32::MAX));
        let err = Response::Err { message: message.clone() };
        match decode_response(&encode_response(&err)).unwrap() {
            Response::Err { message: back } => prop_assert_eq!(back, message),
            other => panic!("expected err, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_rejected(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = encode_request(&Request::Run(RunRequest {
            iteration: 1,
            req_id: 0,
            budget_ms: None,
            pairs: vec![(0, rng.gen_range(0u64..u64::MAX))],
            injects: vec![],
            params: random_params(&mut rng),
        }));
        let mut framed = Vec::new();
        write_message(&mut framed, &payload).unwrap();
        // Cut anywhere strictly inside the frame: header or payload.
        let cut = rng.gen_range(0..framed.len());
        framed.truncate(cut);
        let err = read_message(&mut &framed[..]).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frames_are_rejected(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(DIST_MAX_FRAME_LEN as u64 + 1..u32::MAX as u64 + 1) as u32;
        let forged = len.to_be_bytes();
        let err = read_message(&mut &forged[..]).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}

fn golden_params() -> ParamSet {
    let mut params = ParamSet::new();
    params.insert("dec.v", Tensor::from_vec(1, 2, vec![0.25, -0.75]));
    params.insert("gnn.w1", Tensor::from_vec(2, 2, vec![1.0, -2.0, 0.5, 3e-7]));
    params
}

fn golden_grads() -> GradSet {
    let mut grads = GradSet::new();
    grads.set("g", Tensor::from_vec(2, 2, vec![1.0, 2.5, -3.0, 4e9]));
    grads
}

/// One instance of every variant and the exact payload it has always had
/// on the wire (captured from the encoders before they moved onto
/// `rl_ccd_wire::fields`).
#[test]
fn golden_bytes() {
    let requests: [(Request, &str); 5] = [
        (
            Request::Init(InitRequest {
                period_ps: 812.25,
                recipe: FlowRecipe::default(),
                config: RlConfig::fast(),
                netlist_text: "netlist body line 1\nline 2 without newline".into(),
            }),
            "rl-ccd-dist v1\ninit period_ps=812.25 skew.sweeps=12 skew.rate=0.9 skew.hold_floor=2 skew.launch_floor=12 skew.tolerance=0.05 skew.move_budget=0.7 skew.serves=0.15 touchup.sweeps=2 touchup.rate=0.9 touchup.hold_floor=2 touchup.launch_floor=12 touchup.tolerance=0.05 touchup.move_budget=0.02 touchup.serves=0.15 pre.passes=1 pre.ops_per_pass=0 pre.ops_per_kcell=80 pre.ops_per_ep=3 pre.buffer_min_len=30 pre.min_gain=0.5 main.passes=5 main.ops_per_pass=0 main.ops_per_kcell=160 main.ops_per_ep=6 main.buffer_min_len=30 main.min_gain=0.5 recovery_slack=40 margin_mode=overfix clock_insertion=0.1 clock_variation=0.015 skew_bound=0.45 legalize_disp=1 flow_seed=3856 cfg.gnn_hidden=8 cfg.embed_dim=4 cfg.lstm_hidden=8 cfg.attn_dim=8 cfg.rho=0.3 cfg.lr=0.003 cfg.grad_clip=5 cfg.workers=2 cfg.max_iterations=3 cfg.patience=3 cfg.fanout_cap=24 cfg.seed=3277 cfg.encoder=lstm cfg.quorum=none\nnetlist body line 1\nline 2 without newline",
        ),
        (
            Request::Run(RunRequest {
                iteration: 7,
                req_id: 99,
                budget_ms: Some(1_500),
                pairs: vec![(0, 9001), (3, 42)],
                injects: vec![
                    Inject::Drop,
                    Inject::Torn,
                    Inject::SleepMs(1500),
                    Inject::Panic(2),
                    Inject::NanReward(0),
                    Inject::Poison(1),
                ],
                params: golden_params(),
            }),
            "rl-ccd-dist v1\nrun iteration=7 req_id=99 budget_ms=1500 pairs=0:9001,3:42 inject=drop,torn,sleep:1500,panic:2,nan:0,poison:1\nrl-ccd-params v1 2\ndec.v 1 2 0.25 -0.75\ngnn.w1 2 2 1 -2 0.5 0.0000003\n",
        ),
        (
            Request::Run(RunRequest {
                iteration: 0,
                req_id: 0,
                budget_ms: None,
                pairs: vec![],
                injects: vec![],
                params: ParamSet::new(),
            }),
            "rl-ccd-dist v1\nrun iteration=0 pairs=\nrl-ccd-params v1 0\n",
        ),
        (Request::Health, "rl-ccd-dist v1\nhealth\n"),
        (Request::Shutdown, "rl-ccd-dist v1\nshutdown\n"),
    ];
    for (req, bytes) in requests {
        assert_eq!(
            String::from_utf8(encode_request(&req)).unwrap(),
            bytes,
            "{req:?}"
        );
        assert_eq!(decode_request(bytes.as_bytes()), Ok(req));
    }
    let responses: [(Response, &str); 5] = [
        (
            Response::InitAck {
                endpoints: 120,
                pool: 17,
            },
            "rl-ccd-dist v1\ninit-ack endpoints=120 pool=17\n",
        ),
        (
            Response::Batch(BatchResponse {
                items: vec![
                    RolloutItem {
                        slot: 1,
                        seed: 77,
                        steps: 3,
                        reward: -1234.5678901,
                        selection: vec![3, 1, 4],
                        grads: golden_grads(),
                    },
                    RolloutItem {
                        slot: 2,
                        seed: 78,
                        steps: 0,
                        reward: 0.0,
                        selection: vec![],
                        grads: GradSet::new(),
                    },
                ],
                faults: vec![RolloutFault {
                    iteration: 2,
                    worker: 1,
                    seed: 55,
                    kind: FaultKind::WorkerPanic,
                    detail: "panic with spaces, = signs\nand detail=lookalikes".into(),
                }],
            }),
            "rl-ccd-dist v1\nbatch items=2 faults=1\nitem slot=1 seed=77 steps=3 reward=-1234.5678901 selection=3,1,4\nrl-ccd-grads v1 1 0\ng 2 2 1 2.5 -3 4000000000\nitem slot=2 seed=78 steps=0 reward=0 selection=\nrl-ccd-grads v1 0 0\nfault iteration=2 worker=1 seed=55 kind=worker-panic detail=panic with spaces, = signs and detail=lookalikes\n",
        ),
        (Response::Batch(BatchResponse::default()), "rl-ccd-dist v1\nbatch items=0 faults=0\n"),
        (Response::HealthAck { ready: true }, "rl-ccd-dist v1\nhealth-ack ready=1\n"),
        (
            Response::Err {
                message: "no environment: send init first\n".into(),
            },
            "rl-ccd-dist v1\nerr message=no_environment:_send_init_first_\n",
        ),
    ];
    for (resp, bytes) in responses {
        assert_eq!(
            String::from_utf8(encode_response(&resp)).unwrap(),
            bytes,
            "{resp:?}"
        );
        // (Free text is flattened and `GradSet` has no `PartialEq`, so
        // compare bytes.)
        let decoded = decode_response(bytes.as_bytes()).unwrap();
        assert_eq!(String::from_utf8(encode_response(&decoded)).unwrap(), bytes);
    }
}

/// An `init` from a coordinator that still sends the retired
/// `cfg.tape_budget` and `cfg.div_lr_decay` keys decodes to the same
/// request: the field layer ignores keys a schema does not ask for, so the
/// protocol version did not move when they went.
#[test]
fn init_with_retired_config_keys_still_decodes() {
    let req = Request::Init(InitRequest {
        period_ps: 812.25,
        recipe: FlowRecipe::default(),
        config: RlConfig::fast(),
        netlist_text: "netlist body\n".into(),
    });
    let current = String::from_utf8(encode_request(&req)).unwrap();
    let old = current.replacen(
        " cfg.quorum=none\n",
        " cfg.tape_budget=6442450944 cfg.quorum=none cfg.div_lr_decay=0.5\n",
        1,
    );
    assert_ne!(old, current, "the config line moved");
    assert_eq!(decode_request(old.as_bytes()), Ok(req));
}

/// The malformed lines every protocol on the field layer rejects alike —
/// in a head and in a body line.
#[test]
fn repeated_keys_naked_tokens_and_non_binary_flags_are_rejected() {
    let decode = |text: &str| decode_response(format!("{PROTOCOL_VERSION}\n{text}\n").as_bytes());
    assert!(decode("health-ack ready=1").is_ok());
    assert!(decode("health-ack ready=yes").is_err());
    assert!(decode("health-ack ready=2").is_err());
    assert!(decode("health-ack ready=1 ready=1").is_err());
    assert!(decode("health-ack ready=1 naked").is_err());
    let item = "slot=0 seed=1 steps=0 reward=0 selection=";
    let grads = "rl-ccd-grads v1 0 0";
    assert!(decode(&format!("batch items=1 faults=0\nitem {item}\n{grads}")).is_ok());
    assert!(decode(&format!(
        "batch items=1 faults=0\nitem {item} naked\n{grads}"
    ))
    .is_err());
    assert!(decode(&format!(
        "batch items=1 faults=0\nitem {item} slot=0\n{grads}"
    ))
    .is_err());
    let run = |head: &str| {
        decode_request(format!("{PROTOCOL_VERSION}\n{head}\nrl-ccd-params v1 0\n").as_bytes())
    };
    assert!(run("run iteration=3 pairs=0:11").is_ok());
    assert!(run("run iteration=3 iteration=4 pairs=0:11").is_err());
    assert!(run("run iteration=3 pairs=0:11 naked").is_err());
    let crowd: String = (0..200).map(|i| format!(" x{i}=1")).collect();
    let err = run(&format!("run iteration=3 pairs=0:11{crowd}")).unwrap_err();
    assert!(err.contains("more than 128 fields"), "{err}");
}

/// Where the tail rules move bytes the parent would have written: a `\r`
/// in a fault's `detail` is flattened like a `\n` (the parent left it
/// raw), and text past 4 KiB is clipped.
#[test]
fn the_fault_detail_flattens_carriage_returns_and_is_clipped() {
    let fault = |detail: &str| {
        let fault = RolloutFault {
            iteration: 2,
            worker: 1,
            seed: 55,
            kind: FaultKind::WorkerPanic,
            detail: detail.into(),
        };
        encode_response(&Response::Batch(BatchResponse {
            items: vec![],
            faults: vec![fault],
        }))
    };
    assert_eq!(
        String::from_utf8(fault("a\r\nb\r")).unwrap(),
        "rl-ccd-dist v1\nbatch items=0 faults=1\nfault iteration=2 worker=1 seed=55 kind=worker-panic detail=a  b \n"
    );
    let huge = fault(&"p".repeat(1 << 20));
    assert!(huge.len() < 4096 + 128, "{} bytes", huge.len());
    match decode_response(&huge).unwrap() {
        Response::Batch(b) => assert!(b.faults[0].detail.ends_with('…')),
        other => panic!("expected batch, got {other:?}"),
    }
}
