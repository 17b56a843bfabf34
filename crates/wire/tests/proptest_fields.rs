//! The field layer's adversarial suite: the grammar every `key=value`
//! protocol shares is specified and attacked once, here.
//!
//! 1. arbitrary bytes never panic the reader, and every error it returns
//!    is bounded however large the input;
//! 2. a naked token, a repeated key, too many fields, a non-`0|1` flag, a
//!    non-hex `hex16` and a bad list element are the errors the module
//!    documents, and a frame-sized line of distinct keys is refused in
//!    linear time;
//! 3. the tail is opaque: `=`, spaces and would-be duplicate keys inside
//!    it are text; the writer flattens `\n` and `\r` in it and clips it;
//! 4. whatever the writer emits, the reader returns.
//!
//! Cases are generated from a seeded RNG rather than nested strategies:
//! one `u64` pins the whole case, which keeps failures reproducible under
//! the vendored proptest (no shrinking).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_ccd_wire::fields::{
    hex16, quote, split_verb, FieldError, Fields, Writer, MAX_FIELDS, QUOTE_MAX, TAIL_MAX,
};
use rl_ccd_wire::{split_versioned, MAX_FRAME_LEN};
use std::time::{Duration, Instant};

const VERSION: &str = "proto v1";

/// A token character: anything but whitespace (keys additionally avoid `=`).
fn token(rng: &mut StdRng, allow_eq: bool) -> String {
    const ALPHABET: &[char] = &['a', 'Z', '0', '_', '-', '.', ':', '@', ',', 'é', '∇', '='];
    let n = if allow_eq {
        ALPHABET.len()
    } else {
        ALPHABET.len() - 1
    };
    (0..rng.gen_range(1usize..10))
        .map(|_| ALPHABET[rng.gen_range(0..n)])
        .collect()
}

fn free_text(rng: &mut StdRng) -> String {
    const WORDS: &[&str] = &[
        "a=b",
        "=",
        " ",
        "  ",
        "k0=dup",
        "tail=again",
        "détail",
        "∇Σ",
        "x",
    ];
    (0..rng.gen_range(0usize..8))
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect()
}

fn arbitrary_line(rng: &mut StdRng) -> String {
    let bytes: Vec<u8> = (0..rng.gen_range(0usize..300))
        .map(|_| match rng.gen_range(0u32..4) {
            0 => b" =\t,:\r"[rng.gen_range(0usize..6)],
            1 => rng.gen_range(0u32..256) as u8,
            _ => rng.gen_range(b'a' as u32..b'z' as u32 + 1) as u8,
        })
        .collect();
    String::from_utf8_lossy(&bytes).replace('\n', " ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_lines_never_panic_and_errors_stay_small(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = arbitrary_line(&mut rng);
        let tail = rng.gen_bool(0.5).then_some("m");
        let (_verb, rest) = split_verb(&line);
        match Fields::read("line", rest, tail) {
            Ok(f) => {
                // Every typed reader is total on whatever was tokenised.
                for key in ["a", "m", "zz", ""] {
                    let _ = (f.opt(key), f.get(key), f.parse::<u64>(key), f.parse_opt::<f32>(key));
                    let _ = (f.flag(key), f.list(key, str::parse::<usize>));
                    let _ = f.list_opt(key, str::parse::<usize>);
                }
            }
            Err(e) => prop_assert!(e.to_string().len() < 16 * QUOTE_MAX, "{e}"),
        }
    }

    #[test]
    fn what_the_writer_emits_the_reader_returns(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let verb = token(&mut rng, false);
        let pairs: Vec<(String, String)> = (0..rng.gen_range(0usize..8))
            .map(|i| (format!("k{i}{}", token(&mut rng, false)), token(&mut rng, true)))
            .collect();
        let list: Vec<u32> = (0..rng.gen_range(0usize..6)).map(|_| rng.gen_range(0u32..1000)).collect();
        let flag = rng.gen_bool(0.5);
        let id = rng.gen_range(0u64..u64::MAX);
        let tail = rng.gen_bool(0.7).then(|| free_text(&mut rng));
        let body = arbitrary_line(&mut rng);

        let mut w = pairs.iter().fold(Writer::new(VERSION, &verb), |w, (k, v)| w.kv(k, v));
        w = w.list("list", &list).kv("flag", u8::from(flag)).kv("id", format_args!("{id:016x}"));
        if let Some(text) = &tail {
            w = w.tail("tail", text);
        }
        w = w.line("").list("also", &list);
        w.body().extend_from_slice(body.as_bytes());
        let payload = w.finish();

        let (head, rest) = split_versioned(&payload, VERSION).expect("envelope");
        let (read_verb, fields) = split_verb(head);
        prop_assert_eq!(read_verb, verb.as_str());
        let f = Fields::read("head", fields, Some("tail")).expect("head");
        for (k, v) in &pairs {
            prop_assert_eq!(f.get(k), Ok(v.as_str()));
        }
        prop_assert_eq!(f.list("list", str::parse::<u32>), Ok(list.clone()));
        prop_assert_eq!(f.flag("flag"), Ok(flag));
        prop_assert_eq!(f.get("id").map(hex16), Ok(Some(id)));
        prop_assert_eq!(f.opt("tail"), tail.as_deref());
        let (second, streamed) = rest.split_once('\n').expect("body line");
        let g = Fields::read("body", second, None).expect("body line");
        prop_assert_eq!(g.list("also", str::parse::<u32>), Ok(list));
        prop_assert_eq!(streamed.strip_suffix('\n').unwrap_or(streamed), body.trim_end_matches('\n'));
    }

    #[test]
    fn a_corrupted_head_is_a_typed_error_or_a_different_value(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tokens: Vec<String> = (0..rng.gen_range(1usize..6))
            .map(|i| format!("k{i}={}", token(&mut rng, true)))
            .collect();
        let at = rng.gen_range(0..tokens.len());
        let naked = rng.gen_bool(0.5);
        if naked {
            tokens.insert(at, token(&mut rng, false));
        } else {
            let dup = tokens[at].clone();
            tokens.push(dup);
        }
        let err = Fields::read("head", &tokens.join(" "), None).unwrap_err();
        prop_assert!(err.to_string().starts_with("head: "), "{err}");
        let expected = if naked { "is not key=value" } else { "appears twice" };
        prop_assert!(err.to_string().ends_with(expected), "{err}");
    }
}

fn rejected(r: Result<impl std::fmt::Debug, FieldError>) -> FieldError {
    r.expect_err("must be rejected")
}

#[test]
fn a_line_reads_as_typed_fields() {
    let f = Fields::read("demo", " a=1  b=two c=3.5 on=1 off=0 l=4,5 e= ", None).unwrap();
    assert_eq!(f.get("b"), Ok("two"));
    assert_eq!(f.opt("zzz"), None);
    assert_eq!(f.parse::<u32>("a"), Ok(1));
    assert_eq!(f.parse_opt::<f32>("c"), Ok(Some(3.5)));
    assert_eq!(f.parse_opt::<f32>("zzz"), Ok(None));
    assert_eq!((f.flag("on"), f.flag("off")), (Ok(true), Ok(false)));
    assert_eq!(f.list("l", str::parse::<u8>), Ok(vec![4, 5]));
    assert_eq!(f.list("e", str::parse::<u8>), Ok(vec![]));
    assert_eq!(f.get("zzz").unwrap_err().to_string(), "demo missing zzz=");
    let missing = rejected(f.list("zzz", str::parse::<u8>));
    assert_eq!(missing.to_string(), "demo missing zzz=");
    assert_eq!(f.list_opt("zzz", str::parse::<u8>), Ok(vec![]));
    assert_eq!(f.list_opt("l", str::parse::<u8>), Ok(vec![4, 5]));
    assert!(Fields::read("demo", "", None).unwrap().opt("a").is_none());
    assert_eq!(split_verb("load slot=a dir=b"), ("load", "slot=a dir=b"));
    assert_eq!(split_verb("drain"), ("drain", ""));
}

#[test]
fn each_violation_is_a_typed_error_that_names_it() {
    assert_eq!(
        rejected(Fields::read("demo", "a=1 naked", None)).to_string(),
        "demo: field \"naked\" is not key=value"
    );
    assert_eq!(
        rejected(Fields::read("demo", "a=1 b=2 a=3", None)).to_string(),
        "demo: key \"a\" appears twice"
    );
    let f = Fields::read("demo", "ready=yes two=2 l=1,,2 l2=1,x", None).unwrap();
    for bad in [f.flag("ready"), f.flag("two")] {
        let message = rejected(bad).to_string();
        assert!(message.ends_with(": a flag is 0 or 1"), "{message}");
    }
    // A list error quotes the element, not the list.
    let message = rejected(f.list("l2", str::parse::<u8>)).to_string();
    assert!(message.starts_with("demo: bad l2=\"x\": "), "{message}");
    assert!(
        f.list("l", str::parse::<u8>).is_err(),
        "an empty element is not a number"
    );
    assert!(f.list_opt("l2", str::parse::<u8>).is_err());
    assert!(f
        .parse::<u8>("ready")
        .unwrap_err()
        .to_string()
        .starts_with("demo: bad ready=\"yes\": "));
}

/// The repeated-key check looks at every earlier key, so the field count
/// is capped: a frame-sized line of distinct keys — read on the reactor
/// thread, before any authentication — is refused after `MAX_FIELDS`
/// tokens instead of costing quadratic time (16 s for 1 MiB, uncapped).
#[test]
fn a_frame_of_distinct_keys_is_refused_in_linear_time() {
    let numbered = |n: usize| (0..n).map(|i| format!("{i}=1 ")).collect::<String>();
    assert!(Fields::read("demo", &numbered(MAX_FIELDS), None).is_ok());
    let mut line = String::with_capacity(MAX_FRAME_LEN + 16);
    for i in 0.. {
        if line.len() >= MAX_FRAME_LEN {
            break;
        }
        line.push_str(&format!("{i}=1 "));
    }
    // Same-length keys, so every comparison has to look at the bytes.
    let long_keys: String = (0..200)
        .map(|i| format!("{}{i:03}=1 ", "k".repeat(5000)))
        .collect();
    for junk in [line, long_keys] {
        let started = Instant::now();
        let err = rejected(Fields::read("demo", &junk, None)).to_string();
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "{:?}",
            started.elapsed()
        );
        assert_eq!(err, format!("demo: more than {MAX_FIELDS} fields"));
    }
}

#[test]
fn the_tail_is_the_rest_of_the_line() {
    let line = "kind=busy msg= full (64) kind=x msg=y naked ";
    let f = Fields::read("demo", line, Some("msg")).unwrap();
    assert_eq!(f.get("kind"), Ok("busy"));
    assert_eq!(f.get("msg"), Ok(" full (64) kind=x msg=y naked "));
    assert_eq!(
        Fields::read("demo", "msg=", Some("msg"))
            .unwrap()
            .get("msg"),
        Ok("")
    );
    // A would-be duplicate key inside the tail is text; without the tail
    // the same line is a repeated key.
    let f = Fields::read("demo", "a=1 msg=a=2 a=3", Some("msg")).unwrap();
    assert_eq!((f.get("a"), f.get("msg")), (Ok("1"), Ok("a=2 a=3")));
    let untailed = rejected(Fields::read("demo", "a=1 msg=a=2 a=3", None));
    assert!(
        untailed.to_string().ends_with("appears twice"),
        "{untailed}"
    );
    // The tail ends the line: fields past the cap are text too.
    let many = (0..MAX_FIELDS - 1)
        .map(|i| format!("{i}=1 "))
        .collect::<String>();
    let line = format!("{many}msg=x 1=1 2=2");
    assert!(Fields::read("demo", &line, Some("msg")).is_ok());
    assert!(Fields::read("demo", &line, None).is_err());
}

#[test]
fn the_writer_flattens_and_clips_the_tail() {
    let tail = |text: &str| {
        let payload = Writer::new(VERSION, "err")
            .kv("kind", "x")
            .tail("msg", text)
            .finish();
        let (head, _) = split_versioned(&payload, VERSION).expect("envelope");
        let f = Fields::read("head", split_verb(head).1, Some("msg")).expect("head");
        f.get("msg").expect("msg").to_string()
    };
    // `\r` too: `str::lines` would eat one left at the end of a line.
    assert_eq!(tail("a\r\nb\rc\n"), "a  b c ");
    assert_eq!(tail(&"x".repeat(TAIL_MAX)), "x".repeat(TAIL_MAX));
    let clipped = tail(&"é\n".repeat(MAX_FRAME_LEN / 3));
    assert!(
        clipped.len() <= TAIL_MAX + '…'.len_utf8(),
        "{}",
        clipped.len()
    );
    assert!(
        clipped.starts_with("é é ") && clipped.ends_with('…'),
        "{}",
        &clipped[..16]
    );
}

#[test]
fn errors_quote_at_most_quote_max_bytes() {
    let junk = "é".repeat(1 << 19);
    let err = Fields::read("demo", &junk, None).unwrap_err().to_string();
    assert!(err.len() < 4 * QUOTE_MAX, "{} bytes", err.len());
    assert!(err.contains('…'), "{err}");
    let line = format!("n={junk}");
    let f = Fields::read("demo", &line, None).unwrap();
    assert!(f.parse::<u64>("n").unwrap_err().to_string().len() < 6 * QUOTE_MAX);
    let version = split_versioned(format!("{junk}\nhead\n").as_bytes(), VERSION).unwrap_err();
    assert!(version.len() < 6 * QUOTE_MAX, "{} bytes", version.len());
    assert_eq!(quote("short"), "\"short\"");
}

#[test]
fn hex16_is_exactly_sixteen_digits() {
    assert_eq!(hex16("00000000deadbeef"), Some(0xdead_beef));
    assert_eq!(hex16("00000000DEADBEEF"), Some(0xdead_beef));
    for bad in [
        "deadbeef",
        "+0000000deadbeef",
        "00000000deadbeeg",
        "",
        "00000000deadbeef0",
    ] {
        assert_eq!(hex16(bad), None, "{bad:?}");
    }
}

#[test]
fn the_writer_emits_version_head_lines_and_body() {
    let w = Writer::new(VERSION, "ok").kv("model", "m").kv("cached", 1);
    let w = w.line("").list("selection", [5, 0, 17]);
    assert_eq!(
        w.finish(),
        b"proto v1\nok model=m cached=1\nselection=5,0,17\n"
    );
    let mut w = Writer::new(VERSION, "batch").kv("items", 1);
    w = w.line("item").list("selection", [0u8; 0]);
    w.body().extend_from_slice(b"block 1\n");
    w = w.line("fault").kv("seed", 7).tail("detail", "a=b\r\nc ");
    assert_eq!(
        w.finish(),
        b"proto v1\nbatch items=1\nitem selection=\nblock 1\nfault seed=7 detail=a=b  c \n"
    );
    assert_eq!(
        Writer::new(VERSION, "health").finish(),
        b"proto v1\nhealth\n"
    );
}
