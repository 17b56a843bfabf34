//! Property tests and golden bytes for the `rl-ccd-admin v1` codec: every
//! command and reply round-trips, arbitrary and mutated payloads decode
//! to `Ok` or `Err` (never a panic), whatever decodes re-encodes to bytes
//! that decode to the same value, and one literal payload per variant
//! pins the bytes on the wire.
//!
//! Cases are generated from a seeded RNG rather than nested strategies:
//! one `u64` pins the whole case, which keeps failures reproducible under
//! the vendored proptest (no shrinking).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_ccd_daemon::{
    AdminReply, AdminRequest, DaemonStatus, TenantSummary, TenantUsage, ADMIN_PROTOCOL_VERSION,
};
use rl_ccd_serve::ModelVersion;

/// A non-empty token: no whitespace, no `@` (the separator of the slot
/// identities it is embedded in), `=` and `:` allowed.
fn token(rng: &mut StdRng) -> String {
    const ALPHABET: &[char] = &['a', 'Z', '0', '9', '_', '-', '.', '/', '=', ':', 'é', '∇'];
    (0..rng.gen_range(1usize..12))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

/// Free text for a tail field: spaces, `=` and `key=value` lookalikes,
/// but no line breaks (the writer flattens those).
fn free_text(rng: &mut StdRng) -> String {
    const WORDS: &[&str] = &[
        "promoted", "gate", "failed:", "info=", "msg=x", "=", " ", "  ", "détail", "∇Σ", "a=b=c",
    ];
    (0..rng.gen_range(0usize..6))
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

fn wild_f64(rng: &mut StdRng) -> f64 {
    let mantissa = rng.gen_range(-1.0f64..1.0);
    let exp = rng.gen_range(0u32..16) as i32 - 8;
    mantissa * 10f64.powi(exp)
}

fn random_request(rng: &mut StdRng) -> AdminRequest {
    match rng.gen_range(0u32..11) {
        0 => AdminRequest::Status,
        1 => AdminRequest::Load {
            slot: token(rng),
            dir: token(rng),
            rho: wild_f64(rng) as f32,
        },
        2 => AdminRequest::Gate,
        3 => AdminRequest::Promote {
            force: rng.gen_bool(0.5),
        },
        4 => AdminRequest::Rollback,
        5 => AdminRequest::Canary {
            fraction: wild_f64(rng),
        },
        6 => AdminRequest::TenantAdd { spec: token(rng) },
        7 => AdminRequest::TenantDel { id: token(rng) },
        8 => AdminRequest::TenantList,
        9 => AdminRequest::Retrain {
            base: token(rng),
            log: token(rng),
            out: token(rng),
            seed: rng.gen_range(0u64..u64::MAX),
            steps: rng.gen_range(0usize..10_000),
        },
        _ => AdminRequest::Drain,
    }
}

fn random_slot(rng: &mut StdRng) -> Option<ModelVersion> {
    rng.gen_bool(0.6).then(|| ModelVersion {
        name: token(rng).replace(':', "_"),
        version: rng.gen_range(0usize..10_000),
        fingerprint: rng.gen_range(0u64..u64::MAX),
    })
}

fn random_reply(rng: &mut StdRng) -> AdminReply {
    match rng.gen_range(0u32..4) {
        0 => AdminReply::Ok {
            info: free_text(rng),
        },
        1 => AdminReply::Err {
            msg: free_text(rng),
        },
        2 => AdminReply::Status(DaemonStatus {
            ready: rng.gen_bool(0.5),
            queue_depth: rng.gen_range(0usize..1_000),
            champion: random_slot(rng),
            challenger: random_slot(rng),
            canary: wild_f64(rng),
            tenants: rng.gen_range(0usize..100),
        }),
        _ => AdminReply::Tenants(
            (0..rng.gen_range(0usize..5))
                .map(|_| TenantSummary {
                    id: token(rng),
                    rate_per_sec: wild_f64(rng),
                    burst: wild_f64(rng),
                    monthly_quota: rng.gen_range(0u64..u64::MAX),
                    usage: TenantUsage {
                        accepted: rng.gen_range(0u64..u64::MAX),
                        denied: rng.gen_range(0u64..1_000),
                        throttled: rng.gen_range(0u64..1_000),
                        used_in_window: rng.gen_range(0u64..1_000_000),
                    },
                })
                .collect(),
        ),
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
        payload.extend_from_slice(ADMIN_PROTOCOL_VERSION.as_bytes());
        payload.push(b'\n');
    }
    const HEADS: &[&str] = &[
        "load ",
        "promote ",
        "retrain ",
        "status ",
        "tenants ",
        "tenants\ntenant ",
        "ok ",
        "err ",
        "drain",
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
/// encode ∘ decode. (`f32`/`f64` fields may hold NaN, which is not equal
/// to itself, so the fixed point is checked on the bytes.)
fn check_bytes(payload: &[u8]) -> Result<(), TestCaseError> {
    if let Ok((req, token)) = AdminRequest::decode(payload) {
        let bytes = req.encode(token.as_deref());
        let (again, token_again) = AdminRequest::decode(&bytes).expect("re-decode");
        prop_assert_eq!(again.encode(token_again.as_deref()), bytes);
    }
    if let Ok(reply) = AdminReply::decode(payload) {
        let bytes = reply.encode();
        prop_assert_eq!(
            AdminReply::decode(&bytes).expect("re-decode").encode(),
            bytes
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_roundtrip_with_and_without_a_token(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = random_request(&mut rng);
        let token = rng.gen_bool(0.5).then(|| token(&mut rng));
        let decoded = AdminRequest::decode(&req.encode(token.as_deref()));
        prop_assert_eq!(decoded, Ok((req, token)));
    }

    #[test]
    fn replies_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reply = random_reply(&mut rng);
        prop_assert_eq!(AdminReply::decode(&reply.encode()), Ok(reply));
    }

    #[test]
    fn mutated_payloads_never_panic_and_decode_canonically(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut payload = random_request(&mut rng).encode(Some("hunter2"));
        mutate(&mut rng, &mut payload);
        check_bytes(&payload)?;
        let mut payload = random_reply(&mut rng).encode();
        mutate(&mut rng, &mut payload);
        check_bytes(&payload)?;
    }

    #[test]
    fn arbitrary_payloads_never_panic_and_decode_canonically(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_bytes(&arbitrary_payload(&mut rng))?;
    }
}

/// One instance of every variant and the exact payload it has always had
/// on the wire (captured from the encoders before they moved onto
/// `rl_ccd_wire::fields`).
#[test]
fn golden_bytes() {
    let requests: [(AdminRequest, Option<&str>, &str); 12] = [
        (AdminRequest::Status, None, "rl-ccd-admin v1\nstatus\n"),
        (
            AdminRequest::Load {
                slot: "challenger".into(),
                dir: "ckpt/run7".into(),
                rho: 0.3,
            },
            Some("hunter2"),
            "rl-ccd-admin v1\nload slot=challenger dir=ckpt/run7 rho=0.3 token=hunter2\n",
        ),
        (AdminRequest::Gate, None, "rl-ccd-admin v1\ngate\n"),
        (AdminRequest::Promote { force: false }, None, "rl-ccd-admin v1\npromote force=0\n"),
        (AdminRequest::Promote { force: true }, Some("hunter2"), "rl-ccd-admin v1\npromote force=1 token=hunter2\n"),
        (AdminRequest::Rollback, None, "rl-ccd-admin v1\nrollback\n"),
        (AdminRequest::Canary { fraction: 0.25 }, None, "rl-ccd-admin v1\ncanary fraction=0.25\n"),
        (
            AdminRequest::TenantAdd {
                spec: "acme:tok:2:5:1000".into(),
            },
            None,
            "rl-ccd-admin v1\ntenant_add spec=acme:tok:2:5:1000\n",
        ),
        (AdminRequest::TenantDel { id: "acme".into() }, None, "rl-ccd-admin v1\ntenant_del id=acme\n"),
        (AdminRequest::TenantList, None, "rl-ccd-admin v1\ntenant_list\n"),
        (
            AdminRequest::Retrain {
                base: "ckpt/base".into(),
                log: "exp.jsonl".into(),
                out: "ckpt/retrained".into(),
                seed: 0xE1,
                steps: 4,
            },
            None,
            "rl-ccd-admin v1\nretrain base=ckpt/base log=exp.jsonl out=ckpt/retrained seed=225 steps=4\n",
        ),
        (AdminRequest::Drain, Some("hunter2"), "rl-ccd-admin v1\ndrain token=hunter2\n"),
    ];
    for (req, token, bytes) in requests {
        assert_eq!(
            String::from_utf8(req.encode(token)).unwrap(),
            bytes,
            "{req:?}"
        );
        let decoded = AdminRequest::decode(bytes.as_bytes());
        assert_eq!(decoded, Ok((req, token.map(str::to_string))));
    }
    let replies: [(AdminReply, &str); 5] = [
        (
            AdminReply::Ok {
                info: "promoted champion@12@00000000deadbeef\r\nnext line".into(),
            },
            "rl-ccd-admin v1\nok info=promoted champion@12@00000000deadbeef  next line\n",
        ),
        (
            AdminReply::Err {
                msg: "gate failed: fail: challenger -120 vs champion -80".into(),
            },
            "rl-ccd-admin v1\nerr msg=gate failed: fail: challenger -120 vs champion -80\n",
        ),
        (
            AdminReply::Status(DaemonStatus {
                ready: true,
                queue_depth: 3,
                champion: Some(ModelVersion {
                    name: "champion".into(),
                    version: 12,
                    fingerprint: 0xdead_beef,
                }),
                challenger: None,
                canary: 0.25,
                tenants: 2,
            }),
            "rl-ccd-admin v1\nstatus ready=1 queue=3 champion=champion@12@00000000deadbeef challenger=- canary=0.25 tenants=2\n",
        ),
        (
            AdminReply::Tenants(vec![
                TenantSummary {
                    id: "acme".into(),
                    rate_per_sec: 2.5,
                    burst: 10.0,
                    monthly_quota: 1000,
                    usage: TenantUsage {
                        accepted: 7,
                        denied: 1,
                        throttled: 2,
                        used_in_window: 7,
                    },
                },
                TenantSummary {
                    id: "globex".into(),
                    rate_per_sec: 1.0,
                    burst: 1.0,
                    monthly_quota: 0,
                    usage: TenantUsage::default(),
                },
            ]),
            "rl-ccd-admin v1\ntenants count=2\ntenant id=acme rate=2.5 burst=10 quota=1000 used=7 accepted=7 denied=1 throttled=2\ntenant id=globex rate=1 burst=1 quota=0 used=0 accepted=0 denied=0 throttled=0\n",
        ),
        (AdminReply::Tenants(vec![]), "rl-ccd-admin v1\ntenants count=0\n"),
    ];
    for (reply, bytes) in replies {
        assert_eq!(
            String::from_utf8(reply.encode()).unwrap(),
            bytes,
            "{reply:?}"
        );
        // (The first instance's line breaks are flattened, so compare bytes.)
        let decoded = AdminReply::decode(bytes.as_bytes()).unwrap();
        assert_eq!(String::from_utf8(decoded.encode()).unwrap(), bytes);
    }
}

/// The malformed heads every protocol on the field layer rejects alike.
#[test]
fn repeated_keys_naked_tokens_and_non_binary_flags_are_rejected() {
    let decode_req =
        |head: &str| AdminRequest::decode(format!("{ADMIN_PROTOCOL_VERSION}\n{head}\n").as_bytes());
    let decode_reply =
        |head: &str| AdminReply::decode(format!("{ADMIN_PROTOCOL_VERSION}\n{head}\n").as_bytes());
    assert!(decode_req("promote force=1 token=t").is_ok());
    assert!(decode_req("promote force=1 force=0").is_err());
    assert!(decode_req("promote force=yes").is_err());
    assert!(decode_req("promote force=1 naked").is_err());
    let status = "queue=0 champion=- challenger=- canary=0 tenants=0";
    assert!(decode_reply(&format!("status ready=1 {status}")).is_ok());
    assert!(decode_reply(&format!("status ready=yes {status}")).is_err());
    assert!(decode_reply(&format!("status ready=1 ready=1 {status}")).is_err());
    assert!(decode_reply(&format!("status ready=1 {status} naked")).is_err());
    let crowd: String = (0..200).map(|i| format!(" x{i}=1")).collect();
    let err = decode_req(&format!("promote force=1{crowd}")).unwrap_err();
    assert!(err.contains("more than 128 fields"), "{err}");
}

/// An answer that echoes a frame-sized request value still fits a frame:
/// the `info`/`msg` tail is clipped at 4 KiB.
#[test]
fn ok_and_err_tails_are_clipped() {
    let text = "d".repeat(1 << 20);
    for reply in [
        AdminReply::Ok { info: text.clone() },
        AdminReply::Err { msg: text },
    ] {
        let bytes = reply.encode();
        assert!(bytes.len() < 4096 + 64, "{} bytes", bytes.len());
        match AdminReply::decode(&bytes).unwrap() {
            AdminReply::Ok { info: t } | AdminReply::Err { msg: t } => {
                assert!(t.starts_with("dddd") && t.ends_with('…'));
            }
            other => panic!("expected ok/err, got {other:?}"),
        }
    }
}
