//! The `rl-ccd-exp v1` experience record: one JSONL line per completed
//! sampled query, content-addressed with FNV-1a 64.
//!
//! Schema contract (DESIGN.md §18): every line is one JSON object whose
//! `v` field is the literal schema token. The `id` field is the 16-hex
//! FNV-1a 64 digest of the record's *canonical body* — the line as
//! written with every field except `id`, in fixed key order — so two
//! records with the same content have the same id no matter who wrote
//! them, and a flipped byte is caught at parse time. Unknown keys are
//! ignored (additions bump nothing); removing or renaming a key, or
//! changing a type, bumps the version token. All 64-bit identifiers
//! (`id`, `feat_fp`, `policy_fp`, `seed`) travel as 16-hex strings
//! because JSON numbers lose precision past 2⁵³.

use rl_ccd::fnv1a64;
use rl_ccd_obs::escape_json;
use std::collections::BTreeMap;
use std::io::BufRead;

use crate::ExpError;

/// Version token carried in every record's `v` field.
pub const EXP_SCHEMA: &str = "rl-ccd-exp v1";

/// Longest accepted line, in bytes. A record is a selection plus its
/// log-probs — kilobytes — so anything near this bound is corrupt, and
/// rejecting it keeps a truncated/garbage file from ballooning memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Longest accepted selection (and log-prob vector).
pub const MAX_SELECTION: usize = 4096;

/// One logged interaction: the design, the policy that served it, the
/// sampled selection with its behavior log-probs, and the realized
/// quality-of-result delta.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpRecord {
    /// Design key in its canonical `name:cells:tech:seed` form (fully
    /// pins the environment).
    pub design: String,
    /// FNV-1a 64 fingerprint of the design's unflagged feature matrix —
    /// the snapshot check that a rebuilt environment matches the one the
    /// selection was served against.
    pub feat_fp: u64,
    /// Registry name of the serving model.
    pub model: String,
    /// Checkpoint version of the serving policy (its training iteration).
    pub policy_version: usize,
    /// FNV-1a 64 fingerprint of the serving policy's checkpoint bytes.
    pub policy_fp: u64,
    /// Cone-overlap threshold the policy served with.
    pub rho: f32,
    /// Fanout cap the environment was built with.
    pub fanout_cap: usize,
    /// Client-supplied sampling seed.
    pub seed: u64,
    /// Sampled endpoints as global endpoint indices, in selection order.
    pub selection: Vec<u32>,
    /// Behavior log-probability of each selected action.
    pub log_probs: Vec<f32>,
    /// Realized TNS (ps) after running the flow with this selection —
    /// the REINFORCE reward (≤ 0, higher is better).
    pub reward_tns_ps: f64,
    /// TNS (ps) of the default flow on the same design (the baseline the
    /// reward is an improvement over).
    pub base_tns_ps: f64,
    /// Realized WNS minus default-flow WNS, in ps.
    pub wns_delta_ps: f64,
}

impl ExpRecord {
    /// The canonical body: every field except `id`, fixed key order.
    /// Hashing these bytes is what makes records content-addressed.
    fn canonical_body(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("\"v\":\"");
        s.push_str(EXP_SCHEMA);
        s.push_str("\",\"design\":\"");
        s.push_str(&escape_json(&self.design));
        s.push_str(&format!("\",\"feat_fp\":\"{:016x}\"", self.feat_fp));
        s.push_str(",\"model\":\"");
        s.push_str(&escape_json(&self.model));
        s.push_str(&format!("\",\"policy_version\":{}", self.policy_version));
        s.push_str(&format!(",\"policy_fp\":\"{:016x}\"", self.policy_fp));
        s.push_str(&format!(",\"rho\":{}", self.rho));
        s.push_str(&format!(",\"fanout_cap\":{}", self.fanout_cap));
        s.push_str(&format!(",\"seed\":\"{:016x}\"", self.seed));
        s.push_str(",\"selection\":[");
        for (i, v) in self.selection.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&v.to_string());
        }
        s.push_str("],\"log_probs\":[");
        for (i, v) in self.log_probs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&v.to_string());
        }
        s.push_str(&format!("],\"reward_tns_ps\":{}", self.reward_tns_ps));
        s.push_str(&format!(",\"base_tns_ps\":{}", self.base_tns_ps));
        s.push_str(&format!(",\"wns_delta_ps\":{}", self.wns_delta_ps));
        s
    }

    /// FNV-1a 64 digest of the canonical body — the record's identity.
    pub fn content_id(&self) -> u64 {
        fnv1a64(self.canonical_body().as_bytes())
    }

    /// Renders the record as one JSONL line (no trailing newline), with
    /// the content id up front.
    ///
    /// # Panics
    /// Panics if any float field is non-finite (JSON cannot carry those;
    /// the sink filters them before construction) or the selection and
    /// log-prob lengths disagree.
    pub fn to_jsonl(&self) -> String {
        assert_eq!(
            self.selection.len(),
            self.log_probs.len(),
            "selection/log_probs length mismatch"
        );
        let finite = self.rho.is_finite()
            && self.reward_tns_ps.is_finite()
            && self.base_tns_ps.is_finite()
            && self.wns_delta_ps.is_finite()
            && self.log_probs.iter().all(|v| v.is_finite());
        assert!(finite, "experience record has non-finite fields");
        format!(
            "{{\"id\":\"{:016x}\",{}}}",
            self.content_id(),
            self.canonical_body()
        )
    }

    /// Parses one JSONL line, verifying the schema token, field types,
    /// size bounds, and that the carried `id` matches the recomputed
    /// content digest. Unknown keys are ignored.
    ///
    /// # Errors
    /// A human-readable message describing the first problem found
    /// (truncated JSON, oversized line, wrong schema, type mismatch,
    /// length mismatch, non-finite float, id mismatch).
    pub fn parse(line: &str) -> Result<ExpRecord, String> {
        if line.len() > MAX_LINE_BYTES {
            return Err(format!(
                "oversized record: {} bytes (max {MAX_LINE_BYTES})",
                line.len()
            ));
        }
        let value = rl_ccd_obs::Json::parse(line)?;
        let rl_ccd_obs::Json::Obj(map) = value else {
            return Err("record is not a JSON object".into());
        };
        let get_str = |key: &str| -> Result<&str, String> {
            match map.get(key) {
                Some(rl_ccd_obs::Json::Str(s)) => Ok(s.as_str()),
                Some(_) => Err(format!("field {key:?} is not a string")),
                None => Err(format!("missing field {key:?}")),
            }
        };
        let get_num = |key: &str| -> Result<f64, String> {
            match map.get(key) {
                Some(rl_ccd_obs::Json::Num(n)) => Ok(*n),
                Some(_) => Err(format!("field {key:?} is not a number")),
                None => Err(format!("missing field {key:?}")),
            }
        };
        let get_hex = |key: &str| -> Result<u64, String> {
            let s = get_str(key)?;
            u64::from_str_radix(s, 16).map_err(|_| format!("field {key:?} is not 16-hex"))
        };
        let get_usize = |key: &str| -> Result<usize, String> {
            let n = get_num(key)?;
            if n.fract() != 0.0 || !(0.0..=9.007_199_254_740_992e15).contains(&n) {
                return Err(format!("field {key:?} is not a non-negative integer"));
            }
            Ok(n as usize)
        };
        let v = get_str("v")?;
        if v != EXP_SCHEMA {
            return Err(format!("schema token {v:?}, expected {EXP_SCHEMA:?}"));
        }
        let selection = match map.get("selection") {
            Some(rl_ccd_obs::Json::Arr(items)) => items
                .iter()
                .map(|item| match item {
                    rl_ccd_obs::Json::Num(n)
                        if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(n) =>
                    {
                        Ok(*n as u32)
                    }
                    _ => Err("selection entries must be u32 indices".to_string()),
                })
                .collect::<Result<Vec<u32>, String>>()?,
            Some(_) => return Err("field \"selection\" is not an array".into()),
            None => return Err("missing field \"selection\"".into()),
        };
        let log_probs = match map.get("log_probs") {
            Some(rl_ccd_obs::Json::Arr(items)) => items
                .iter()
                .map(|item| match item {
                    rl_ccd_obs::Json::Num(n) if n.is_finite() => Ok(*n as f32),
                    _ => Err("log_probs entries must be finite numbers".to_string()),
                })
                .collect::<Result<Vec<f32>, String>>()?,
            Some(_) => return Err("field \"log_probs\" is not an array".into()),
            None => return Err("missing field \"log_probs\"".into()),
        };
        if selection.is_empty() {
            return Err("empty selection".into());
        }
        if selection.len() > MAX_SELECTION {
            return Err(format!(
                "oversized selection: {} endpoints (max {MAX_SELECTION})",
                selection.len()
            ));
        }
        if selection.len() != log_probs.len() {
            return Err(format!(
                "selection has {} entries but log_probs has {}",
                selection.len(),
                log_probs.len()
            ));
        }
        let rho = get_num("rho")? as f32;
        let reward_tns_ps = get_num("reward_tns_ps")?;
        let base_tns_ps = get_num("base_tns_ps")?;
        let wns_delta_ps = get_num("wns_delta_ps")?;
        if !rho.is_finite()
            || !reward_tns_ps.is_finite()
            || !base_tns_ps.is_finite()
            || !wns_delta_ps.is_finite()
        {
            return Err("non-finite float field".into());
        }
        let record = ExpRecord {
            design: get_str("design")?.to_string(),
            feat_fp: get_hex("feat_fp")?,
            model: get_str("model")?.to_string(),
            policy_version: get_usize("policy_version")?,
            policy_fp: get_hex("policy_fp")?,
            rho,
            fanout_cap: get_usize("fanout_cap")?,
            seed: get_hex("seed")?,
            selection,
            log_probs,
            reward_tns_ps,
            base_tns_ps,
            wns_delta_ps,
        };
        let carried = get_hex("id")?;
        let computed = record.content_id();
        if carried != computed {
            return Err(format!(
                "content id mismatch: line says {carried:016x}, body hashes to {computed:016x}"
            ));
        }
        Ok(record)
    }

    /// Sum of the behavior log-probs: log π_b(τ) for the whole
    /// trajectory, the denominator of the importance weight.
    pub fn behavior_log_prob(&self) -> f32 {
        self.log_probs.iter().sum()
    }
}

/// What a valid experience file contained (the `rlccd exp-validate`
/// report).
#[derive(Clone, Debug, Default)]
pub struct ExpSummary {
    /// Parsed records (lines).
    pub records: usize,
    /// Distinct content ids.
    pub unique: usize,
    /// Records whose content id was already seen.
    pub duplicates: usize,
    /// policy version → record count.
    pub versions: BTreeMap<usize, usize>,
    /// Distinct designs.
    pub designs: usize,
    /// Total selection steps across all records.
    pub total_steps: usize,
}

impl ExpSummary {
    /// Unique records over total records; 1.0 for an empty or fully
    /// duplicate-free file.
    pub fn dedup_ratio(&self) -> f64 {
        if self.records == 0 {
            1.0
        } else {
            self.unique as f64 / self.records as f64
        }
    }
}

/// Schema-checks an `rl-ccd-exp v1` JSONL stream line by line (the single
/// source of truth behind `rlccd exp-validate` and the tests). An empty
/// stream is a valid, empty log.
///
/// # Errors
/// [`ExpError::Parse`] naming the first offending line, or
/// [`ExpError::Io`] if reading fails.
pub fn validate_exp_jsonl<R: BufRead>(reader: R) -> Result<ExpSummary, ExpError> {
    let mut summary = ExpSummary::default();
    let mut seen = std::collections::BTreeSet::new();
    let mut designs = std::collections::BTreeSet::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(ExpError::Io)?;
        if line.is_empty() {
            continue;
        }
        let record = ExpRecord::parse(&line).map_err(|message| ExpError::Parse {
            line: idx + 1,
            message,
        })?;
        summary.records += 1;
        summary.total_steps += record.selection.len();
        *summary.versions.entry(record.policy_version).or_insert(0) += 1;
        designs.insert(record.design.clone());
        if seen.insert(record.content_id()) {
            summary.unique += 1;
        } else {
            summary.duplicates += 1;
        }
    }
    summary.designs = designs.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_record() -> ExpRecord {
        ExpRecord {
            design: "gate_a:360:7nm:5".into(),
            feat_fp: 0xdead_beef_cafe_f00d,
            model: "champion".into(),
            policy_version: 3,
            policy_fp: 0x0123_4567_89ab_cdef,
            rho: 0.3,
            fanout_cap: 24,
            seed: 42,
            selection: vec![7, 1, 12],
            log_probs: vec![-0.5, -1.25, -0.125],
            reward_tns_ps: -123.5,
            base_tns_ps: -220.25,
            wns_delta_ps: 3.5,
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let rec = sample_record();
        let line = rec.to_jsonl();
        assert!(line.starts_with("{\"id\":\""));
        assert!(line.contains("\"v\":\"rl-ccd-exp v1\""));
        let back = ExpRecord::parse(&line).expect("roundtrip");
        assert_eq!(back, rec);
    }

    #[test]
    fn content_id_is_stable_and_content_sensitive() {
        let a = sample_record();
        let mut b = sample_record();
        assert_eq!(a.content_id(), b.content_id());
        b.seed += 1;
        assert_ne!(a.content_id(), b.content_id());
    }

    #[test]
    fn tampered_line_is_rejected_by_the_id_check() {
        let line = sample_record().to_jsonl();
        let tampered = line.replace("\"policy_version\":3", "\"policy_version\":4");
        assert_ne!(line, tampered);
        let err = ExpRecord::parse(&tampered).unwrap_err();
        assert!(err.contains("content id mismatch"), "{err}");
    }

    #[test]
    fn truncated_and_oversized_lines_are_rejected() {
        let line = sample_record().to_jsonl();
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(
                ExpRecord::parse(&line[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        let oversized = format!("{}{}", " ".repeat(MAX_LINE_BYTES), line);
        let err = ExpRecord::parse(&oversized).unwrap_err();
        assert!(err.contains("oversized record"), "{err}");
    }

    #[test]
    fn length_mismatch_and_empty_selection_are_rejected() {
        let mut rec = sample_record();
        rec.log_probs.pop();
        // Hand-build the line since to_jsonl asserts the invariant.
        let line = format!(
            "{{\"id\":\"{:016x}\",{}}}",
            rec.content_id(),
            rec.canonical_body()
        );
        let err = ExpRecord::parse(&line).unwrap_err();
        assert!(err.contains("entries"), "{err}");
        let mut empty = sample_record();
        empty.selection.clear();
        empty.log_probs.clear();
        let line = format!(
            "{{\"id\":\"{:016x}\",{}}}",
            empty.content_id(),
            empty.canonical_body()
        );
        let err = ExpRecord::parse(&line).unwrap_err();
        assert!(err.contains("empty selection"), "{err}");
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let line = sample_record().to_jsonl();
        let extended = line.replacen('{', "{\"future_key\":true,", 1);
        let rec = ExpRecord::parse(&extended).expect("forward compatible");
        assert_eq!(rec, sample_record());
    }

    #[test]
    fn validate_reports_counts_dedup_and_version_histogram() {
        let a = sample_record();
        let mut b = sample_record();
        b.policy_version = 4;
        let mut file = String::new();
        file.push_str(&a.to_jsonl());
        file.push('\n');
        file.push_str(&a.to_jsonl());
        file.push('\n');
        file.push_str(&b.to_jsonl());
        file.push('\n');
        let sum = validate_exp_jsonl(file.as_bytes()).expect("valid file");
        assert_eq!(sum.records, 3);
        assert_eq!(sum.unique, 2);
        assert_eq!(sum.duplicates, 1);
        assert_eq!(sum.versions.get(&3), Some(&2));
        assert_eq!(sum.versions.get(&4), Some(&1));
        assert_eq!(sum.designs, 1);
        assert!((sum.dedup_ratio() - 2.0 / 3.0).abs() < 1e-12);
        // Empty stream: valid, empty.
        let empty = validate_exp_jsonl(&b""[..]).expect("empty ok");
        assert_eq!(empty.records, 0);
        assert_eq!(empty.dedup_ratio(), 1.0);
        // A corrupt line names its line number.
        let bad = format!("{}\nnot json\n", a.to_jsonl());
        let err = validate_exp_jsonl(bad.as_bytes()).unwrap_err();
        let ExpError::Parse { line, .. } = err else {
            panic!("expected parse error, got {err:?}")
        };
        assert_eq!(line, 2);
    }
}
