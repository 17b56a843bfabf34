//! Property tests and golden bytes for the `rl-ccd-serve v1` codec: every
//! message variant round-trips, arbitrary and mutated payloads decode to
//! `Ok` or `Err` (never a panic), whatever decodes re-encodes to bytes
//! that decode to the same value, and one literal payload per variant
//! pins the bytes on the wire.
//!
//! Cases are generated from a seeded RNG rather than nested strategies:
//! one `u64` pins the whole case, which keeps failures reproducible under
//! the vendored proptest (no shrinking).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_ccd_serve::{
    Credentials, DesignKey, HealthReply, Mode, ModelVersion, QueryReply, QueryRequest, RejectKind,
    Request, Response, PROTOCOL_VERSION,
};

/// A non-empty token: no whitespace, no `:`/`@`/`,` (the separators of the
/// compound values it is embedded in), `=` allowed.
fn token(rng: &mut StdRng) -> String {
    const ALPHABET: &[char] = &['a', 'Z', '0', '9', '_', '-', '.', '/', '=', 'é', '∇'];
    (0..rng.gen_range(1usize..12))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

/// Free text for a tail field: spaces, `=` and `key=value` lookalikes,
/// but no line breaks (the writer flattens those).
fn free_text(rng: &mut StdRng) -> String {
    const WORDS: &[&str] = &[
        "queue",
        "full",
        "(64)",
        "kind=busy",
        "msg=",
        "=",
        " ",
        "  ",
        "détail",
        "∇Σ",
        "a=b=c",
    ];
    (0..rng.gen_range(0usize..6))
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

fn random_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0u32..6) {
        0 => Request::Health,
        1 => Request::Shutdown,
        _ => Request::Query(QueryRequest {
            model: token(rng),
            design: DesignKey {
                name: token(rng),
                cells: rng.gen_range(0usize..1 << 20),
                tech: token(rng),
                seed: rng.gen_range(0u64..u64::MAX),
            },
            mode: if rng.gen_bool(0.5) {
                Mode::Greedy
            } else {
                Mode::Sample(rng.gen_range(0u64..u64::MAX))
            },
            deadline_ms: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..1_000_000)),
            auth: rng.gen_bool(0.5).then(|| Credentials {
                tenant: token(rng),
                token: token(rng),
            }),
        }),
    }
}

fn random_model_version(rng: &mut StdRng) -> ModelVersion {
    ModelVersion {
        name: token(rng),
        version: rng.gen_range(0usize..10_000),
        fingerprint: rng.gen_range(0u64..u64::MAX),
    }
}

fn random_response(rng: &mut StdRng) -> Response {
    const KINDS: [RejectKind; 7] = [
        RejectKind::Busy,
        RejectKind::Deadline,
        RejectKind::ShuttingDown,
        RejectKind::BadRequest,
        RejectKind::UnknownModel,
        RejectKind::Denied,
        RejectKind::Internal,
    ];
    match rng.gen_range(0u32..5) {
        0 => {
            let selection: Vec<usize> = (0..rng.gen_range(0usize..12))
                .map(|_| rng.gen_range(0usize..5_000))
                .collect();
            Response::Ok(QueryReply {
                model: token(rng),
                version: rng.gen_range(0usize..10_000),
                steps: selection.len(),
                batch: rng.gen_range(0usize..64),
                cached: rng.gen_bool(0.5),
                selection,
            })
        }
        1 => Response::Overloaded {
            retry_after_ms: rng.gen_range(0u64..u64::MAX),
        },
        2 => Response::QuotaExceeded {
            retry_after_ms: rng.gen_range(0u64..u64::MAX),
        },
        3 => Response::Health(HealthReply {
            ready: rng.gen_bool(0.5),
            queue_depth: rng.gen_range(0usize..1_000),
            queue_capacity: rng.gen_range(0usize..1_000),
            models: rng.gen_range(0usize..8),
            active: (0..rng.gen_range(0usize..4))
                .map(|_| random_model_version(rng))
                .collect(),
        }),
        _ => Response::reject(KINDS[rng.gen_range(0..KINDS.len())], free_text(rng)),
    }
}

/// Flips, drops, duplicates or splices bytes of a valid payload.
fn mutate(rng: &mut StdRng, payload: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1usize..6) {
        if payload.is_empty() {
            return;
        }
        let at = rng.gen_range(0..payload.len());
        match rng.gen_range(0u32..5) {
            0 => payload[at] = rng.gen_range(0u32..256) as u8,
            1 => {
                payload.remove(at);
            }
            2 => payload.insert(at, b" =\n,:@"[rng.gen_range(0usize..6)]),
            3 => payload.truncate(at),
            _ => {
                let end = rng.gen_range(at..payload.len());
                let copy = payload[at..=end].to_vec();
                payload.splice(at..at, copy);
            }
        }
    }
}

fn arbitrary_payload(rng: &mut StdRng) -> Vec<u8> {
    let mut payload = Vec::new();
    if rng.gen_bool(0.7) {
        payload.extend_from_slice(PROTOCOL_VERSION.as_bytes());
        payload.push(b'\n');
    }
    const HEADS: &[&str] = &[
        "query ",
        "ok ",
        "err ",
        "health ",
        "overloaded ",
        "quota_exceeded ",
        "shutdown",
        "",
    ];
    payload.extend_from_slice(HEADS[rng.gen_range(0..HEADS.len())].as_bytes());
    for _ in 0..rng.gen_range(0usize..200) {
        payload.push(match rng.gen_range(0u32..4) {
            0 => b" =\n,:@"[rng.gen_range(0usize..6)],
            1 => rng.gen_range(0u32..256) as u8,
            _ => rng.gen_range(b'a' as u32..b'z' as u32 + 1) as u8,
        });
    }
    payload
}

/// Decoding must not panic; what does decode must be a fixed point of
/// encode ∘ decode.
fn check_request_bytes(payload: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(req) = Request::decode(payload) {
        prop_assert_eq!(Request::decode(&req.encode()), Ok(req));
    }
    Ok(())
}

fn check_response_bytes(payload: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(resp) = Response::decode(payload) {
        prop_assert_eq!(Response::decode(&resp.encode()), Ok(resp));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = random_request(&mut rng);
        prop_assert_eq!(Request::decode(&req.encode()), Ok(req));
    }

    #[test]
    fn responses_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let resp = random_response(&mut rng);
        prop_assert_eq!(Response::decode(&resp.encode()), Ok(resp));
    }

    #[test]
    fn mutated_payloads_never_panic_and_decode_canonically(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut payload = random_request(&mut rng).encode();
        mutate(&mut rng, &mut payload);
        check_request_bytes(&payload)?;
        check_response_bytes(&payload)?;
        let mut payload = random_response(&mut rng).encode();
        mutate(&mut rng, &mut payload);
        check_request_bytes(&payload)?;
        check_response_bytes(&payload)?;
    }

    #[test]
    fn arbitrary_payloads_never_panic_and_decode_canonically(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = arbitrary_payload(&mut rng);
        check_request_bytes(&payload)?;
        check_response_bytes(&payload)?;
    }
}

fn demo_key() -> DesignKey {
    DesignKey {
        name: "demo".into(),
        cells: 400,
        tech: "7nm".into(),
        seed: 7,
    }
}

/// One instance of every variant and the exact payload it has always had
/// on the wire (captured from the encoders before they moved onto
/// `rl_ccd_wire::fields`).
#[test]
fn golden_bytes() {
    let requests: [(Request, &str); 4] = [
        (
            Request::Query(QueryRequest {
                model: "default".into(),
                design: demo_key(),
                mode: Mode::Greedy,
                deadline_ms: None,
                auth: None,
            }),
            "rl-ccd-serve v1\nquery model=default design=demo:400:7nm:7 mode=greedy\n",
        ),
        (
            Request::Query(QueryRequest {
                model: "champion".into(),
                design: demo_key(),
                mode: Mode::Sample(99),
                deadline_ms: Some(250),
                auth: Some(Credentials {
                    tenant: "acme".into(),
                    token: "s3cret".into(),
                }),
            }),
            "rl-ccd-serve v1\nquery model=champion design=demo:400:7nm:7 mode=sample:99 deadline_ms=250 tenant=acme token=s3cret\n",
        ),
        (Request::Health, "rl-ccd-serve v1\nhealth\n"),
        (Request::Shutdown, "rl-ccd-serve v1\nshutdown\n"),
    ];
    for (req, bytes) in requests {
        assert_eq!(String::from_utf8(req.encode()).unwrap(), bytes, "{req:?}");
        assert_eq!(Request::decode(bytes.as_bytes()), Ok(req));
    }
    let responses: [(Response, &str); 7] = [
        (
            Response::Ok(QueryReply {
                model: "default".into(),
                version: 12,
                steps: 3,
                batch: 4,
                cached: true,
                selection: vec![5, 0, 17],
            }),
            "rl-ccd-serve v1\nok model=default version=12 steps=3 batch=4 cached=1\nselection=5,0,17\n",
        ),
        (
            Response::Ok(QueryReply {
                model: "default".into(),
                version: 0,
                steps: 0,
                batch: 1,
                cached: false,
                selection: vec![],
            }),
            "rl-ccd-serve v1\nok model=default version=0 steps=0 batch=1 cached=0\nselection=\n",
        ),
        (Response::Overloaded { retry_after_ms: 12 }, "rl-ccd-serve v1\noverloaded retry_after_ms=12\n"),
        (
            Response::QuotaExceeded {
                retry_after_ms: 86_400_000,
            },
            "rl-ccd-serve v1\nquota_exceeded retry_after_ms=86400000\n",
        ),
        (
            Response::Health(HealthReply {
                ready: true,
                queue_depth: 3,
                queue_capacity: 64,
                models: 2,
                active: vec![
                    ModelVersion {
                        name: "challenger".into(),
                        version: 41,
                        fingerprint: 0xdead_beef,
                    },
                    ModelVersion {
                        name: "champion".into(),
                        version: 40,
                        fingerprint: 0x1234_5678_9abc_def0,
                    },
                ],
            }),
            "rl-ccd-serve v1\nhealth ready=1 queue=3 capacity=64 models=2 active=challenger@41@00000000deadbeef,champion@40@123456789abcdef0\n",
        ),
        (
            Response::Health(HealthReply {
                ready: false,
                queue_depth: 0,
                queue_capacity: 64,
                models: 0,
                active: vec![],
            }),
            "rl-ccd-serve v1\nhealth ready=0 queue=0 capacity=64 models=0\n",
        ),
        (
            Response::reject(RejectKind::Busy, "queue full (64)\nkind=deadline msg=x"),
            "rl-ccd-serve v1\nerr kind=busy msg=queue full (64) kind=deadline msg=x\n",
        ),
    ];
    for (resp, bytes) in responses {
        assert_eq!(String::from_utf8(resp.encode()).unwrap(), bytes, "{resp:?}");
        // (The last instance's line break is flattened, so compare bytes.)
        let decoded = Response::decode(bytes.as_bytes()).unwrap();
        assert_eq!(String::from_utf8(decoded.encode()).unwrap(), bytes);
    }
}

/// The malformed heads every protocol on the field layer rejects alike.
#[test]
fn repeated_keys_naked_tokens_and_non_binary_flags_are_rejected() {
    let decode_req =
        |head: &str| Request::decode(format!("{PROTOCOL_VERSION}\n{head}\n").as_bytes());
    let decode_resp = |head: &str| {
        Response::decode(format!("{PROTOCOL_VERSION}\n{head}\nselection=\n").as_bytes())
    };
    assert!(decode_req("query model=m design=d:10:7nm:1 mode=greedy").is_ok());
    assert!(decode_req("query model=m model=n design=d:10:7nm:1 mode=greedy").is_err());
    assert!(decode_req("query model=m design=d:10:7nm:1 mode=greedy naked").is_err());
    assert!(decode_resp("health ready=1 queue=0 capacity=1 models=0").is_ok());
    assert!(decode_resp("health ready=yes queue=0 capacity=1 models=0").is_err());
    assert!(decode_resp("ok model=m version=1 steps=0 batch=1 cached=0").is_ok());
    assert!(decode_resp("ok model=m version=1 steps=0 batch=1 cached=no").is_err());
    assert!(decode_resp("ok model=m version=1 version=2 steps=0 batch=1 cached=0").is_err());
    let crowd: String = (0..200).map(|i| format!(" x{i}=1")).collect();
    let err = decode_req(&format!(
        "query model=m design=d:10:7nm:1 mode=greedy{crowd}"
    ));
    assert!(err.unwrap_err().contains("more than 128 fields"));
}

/// Where the tail rules move bytes the parent would have written: a `\r`
/// in `msg` is flattened like a `\n` (the parent left it raw, and a
/// trailing one did not survive the decode), and text past 4 KiB is
/// clipped so a rejection that echoes a frame-sized value still fits a
/// frame. Everything shorter and `\r`-free is the golden table's business.
#[test]
fn the_err_tail_flattens_carriage_returns_and_is_clipped() {
    let reject = Response::reject(RejectKind::Internal, "a\r\nb\r");
    let bytes = "rl-ccd-serve v1\nerr kind=internal msg=a  b \n";
    assert_eq!(String::from_utf8(reject.encode()).unwrap(), bytes);
    assert_eq!(
        Response::decode(bytes.as_bytes()).unwrap(),
        Response::reject(RejectKind::Internal, "a  b ")
    );
    let huge = Response::reject(RejectKind::UnknownModel, "A".repeat(1 << 20)).encode();
    assert!(huge.len() < 4096 + 64, "{} bytes", huge.len());
    match Response::decode(&huge).unwrap() {
        Response::Err { kind, msg } => {
            assert_eq!(kind, RejectKind::UnknownModel);
            assert!(msg.starts_with("AAAA") && msg.ends_with('…'));
        }
        other => panic!("expected err, got {other:?}"),
    }
}
