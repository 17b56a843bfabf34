//! Property tests for the `rl-ccd-exp v1` record codec: randomized
//! records survive an encode → parse round trip exactly, re-encoding is
//! a fixed point, and malformed lines (truncated, oversized, tampered)
//! are rejected instead of misparsing.
//!
//! Cases are generated from a seeded RNG rather than nested strategies:
//! one `u64` pins the whole case, which keeps failures reproducible under
//! the vendored proptest (no shrinking).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_ccd_exp::{ExpRecord, MAX_LINE_BYTES};

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

fn random_record(rng: &mut StdRng) -> ExpRecord {
    let techs = ["7nm", "16nm", "28nm"];
    let design = format!(
        "d{}:{}:{}:{}",
        rng.gen_range(0u32..1000),
        rng.gen_range(1u32..4096),
        techs[rng.gen_range(0usize..techs.len())],
        rng.gen_range(0u64..1000),
    );
    let steps = rng.gen_range(1usize..32);
    let selection: Vec<u32> = (0..steps).map(|_| rng.gen_range(0u32..100_000)).collect();
    let log_probs: Vec<f32> = (0..steps).map(|_| -wild_f32(rng).abs()).collect();
    ExpRecord {
        design,
        feat_fp: rng.gen_range(0u64..u64::MAX),
        model: format!("m{}", rng.gen_range(0u32..100)),
        policy_version: rng.gen_range(0usize..1_000_000),
        policy_fp: rng.gen_range(0u64..u64::MAX),
        rho: rng.gen_range(0.01f32..1.0),
        fanout_cap: rng.gen_range(1usize..256),
        seed: rng.gen_range(0u64..u64::MAX),
        selection,
        log_probs,
        reward_tns_ps: wild_f64(rng),
        base_tns_ps: wild_f64(rng),
        wns_delta_ps: wild_f64(rng),
    }
}

/// The content id hashes the canonical bytes, and those run through the
/// workspace's shared JSON escaper: a record whose strings need every
/// kind of escape must keep the id (and the line) it had when `exp`
/// carried its own copy, or every log written before would fail `parse`.
#[test]
fn escaped_strings_keep_their_pinned_content_id() {
    let record = ExpRecord {
        design: "q\"uote\\back\nline\ttab\u{1}ctl:360:7nm:5".into(),
        feat_fp: 0x0123_4567_89ab_cdef,
        model: "m\r\u{1f}é".into(),
        policy_version: 7,
        policy_fp: 0xfeed_face_cafe_beef,
        rho: 0.3,
        fanout_cap: 24,
        seed: 42,
        selection: vec![3, 1, 4],
        log_probs: vec![-0.5, -1.25, -2.0],
        reward_tns_ps: -12.5,
        base_tns_ps: -20.0,
        wns_delta_ps: 0.75,
    };
    assert_eq!(record.content_id(), 0xa162_252a_e318_bf7e);
    let line = record.to_jsonl();
    assert!(
        line.contains(r#""design":"q\"uote\\back\nline\ttab\u0001ctl:360:7nm:5""#)
            && line.contains(r#""model":"m\r\u001fé""#),
        "{line}"
    );
    assert_eq!(ExpRecord::parse(&line).expect("own encoding"), record);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_parse_round_trips_exactly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let record = random_record(&mut rng);
        let line = record.to_jsonl();
        let parsed = ExpRecord::parse(&line).expect("own encoding must parse");
        prop_assert_eq!(&parsed, &record);
        prop_assert_eq!(parsed.content_id(), record.content_id());
        // Re-encoding is byte-stable (canonical form is a fixed point).
        prop_assert_eq!(parsed.to_jsonl(), line);
    }

    #[test]
    fn truncations_never_parse_as_the_same_record(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let record = random_record(&mut rng);
        let line = record.to_jsonl();
        let cut = rng.gen_range(1usize..line.len());
        let truncated: String = line.chars().take(line.chars().count() - cut).collect();
        if let Ok(parsed) = ExpRecord::parse(&truncated) {
            prop_assert_ne!(parsed, record);
        }
    }

    #[test]
    fn oversized_lines_are_rejected(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut line = random_record(&mut rng).to_jsonl();
        line.push_str(&" ".repeat(MAX_LINE_BYTES));
        prop_assert!(ExpRecord::parse(&line).is_err());
    }

    #[test]
    fn digit_tampering_is_caught_or_semantically_inert(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let record = random_record(&mut rng);
        let line = record.to_jsonl();
        let mut tampered = line.clone().into_bytes();
        let digit_positions: Vec<usize> = tampered
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        let idx = digit_positions[rng.gen_range(0..digit_positions.len())];
        tampered[idx] = if tampered[idx] == b'9' { b'8' } else { tampered[idx] + 1 };
        let tampered = String::from_utf8(tampered).expect("still utf-8");
        // A flipped digit either breaks validation (usually the content-id
        // check) or — if it landed somewhere inert like a float's trailing
        // precision that still parses to the same value — re-canonicalizes
        // to the *original* bytes, proving nothing was silently altered.
        match ExpRecord::parse(&tampered) {
            Err(_) => {}
            Ok(parsed) => prop_assert_eq!(parsed.to_jsonl(), line),
        }
    }
}
