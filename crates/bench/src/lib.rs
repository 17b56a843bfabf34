//! Benchmark harness shared by the table/figure regeneration binaries.
//!
//! Every table and figure of the paper's evaluation section has a binary in
//! `src/bin` built on these helpers:
//!
//! * `table2` — Table II: default tool flow vs. RL-CCD on the 19-block suite;
//! * `fig5` — histogram of clock-arrival adjustments (block11 analogue);
//! * `fig6` — transfer-learning convergence on block19;
//! * `ablation_rho` — sweep of the overlap-masking threshold ρ;
//! * `ablation_overfix` — over-fix vs. under-fix margin modes (§III-A).
//!
//! Binaries print aligned text tables and write CSV files next to the
//! working directory for plotting.

#![warn(missing_docs)]

pub mod cli;

pub use cli::Cli;

use rl_ccd::{Error, RlConfig, Session, TrainOutcome, TrainSession};
use rl_ccd_flow::FlowResult;
use rl_ccd_netlist::{generate, DesignSpec, GeneratedDesign};
use rl_ccd_obs::escape_json;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// One row of the Table II reproduction.
#[derive(Clone, Debug)]
pub struct BlockRow {
    /// Design name.
    pub name: String,
    /// Cell count of the generated block.
    pub cells: usize,
    /// Technology name.
    pub tech: &'static str,
    /// Default tool flow result (begin snapshot inside).
    pub default: FlowResult,
    /// RL-CCD enhanced result (best training outcome).
    pub rl: FlowResult,
    /// Endpoints the agent prioritized.
    pub prioritized: usize,
    /// Training iterations executed.
    pub iterations: usize,
    /// RL-CCD wall-clock divided by the default flow's (the paper's
    /// normalized runtime column).
    pub runtime_ratio: f64,
}

/// Builds a single spec'd design (for the figure binaries).
pub fn build_block(spec: &DesignSpec) -> GeneratedDesign {
    generate(spec)
}

/// Trains RL-CCD on one design and assembles the Table II row.
pub fn run_block(design: GeneratedDesign, config: &RlConfig) -> (BlockRow, TrainOutcome) {
    run_block_with(design, config, TrainSession::default())
        .expect("fault-free benchmark run must not fail")
}

/// [`run_block`] with full runtime control: when `session.checkpoint_dir`
/// is set, the block resumes from any committed state there and keeps
/// checkpointing, so an interrupted suite re-run skips straight to where
/// it stopped.
///
/// # Errors
/// Propagates [`rl_ccd::Error`] from training (quorum loss, checkpoint
/// I/O).
pub fn run_block_with(
    design: GeneratedDesign,
    config: &RlConfig,
    session: TrainSession,
) -> Result<(BlockRow, TrainOutcome), Error> {
    let name = design.spec.name.clone();
    let cells = design.netlist.cell_count();
    let tech = design.spec.tech.name();
    let mut builder = Session::builder()
        .design(design)
        .rl_config(config.clone())
        .fault_plan(session.fault_plan);
    if let Some(dir) = session.checkpoint_dir {
        builder = builder.checkpoint(dir, session.checkpoint_every);
    }
    if let Some(params) = session.initial {
        builder = builder.initial_params(params);
    }
    let rl = builder.build()?;
    let t_default = Instant::now();
    let default = rl.env().default_flow();
    let default_secs = t_default.elapsed().as_secs_f64().max(1e-6);
    let t_rl = Instant::now();
    let outcome = rl.train()?;
    let rl_secs = t_rl.elapsed().as_secs_f64();
    let row = BlockRow {
        name,
        cells,
        tech,
        default,
        rl: outcome.best_result.clone(),
        prioritized: outcome.best_selection.len(),
        iterations: outcome.history.len(),
        runtime_ratio: rl_secs / default_secs,
    };
    Ok((row, outcome))
}

/// Formats the Table II header.
pub fn table2_header() -> String {
    format!(
        "{:<10} {:>7} {:>5} | {:>8} {:>10} {:>6} {:>8} | {:>8} {:>10} {:>6} {:>8} | {:>8} {:>18} {:>6} {:>8} {:>6} {:>5}\n{}",
        "design",
        "cells",
        "tech",
        "WNSb",
        "TNSb",
        "NVEb",
        "PWRb",
        "WNSd",
        "TNSd",
        "NVEd",
        "PWRd",
        "WNSr",
        "TNSr(goal)",
        "NVEr",
        "PWRr",
        "#prio",
        "rt",
        "-".repeat(152)
    )
}

/// Formats one Table II row (times in ns, power in mW, like the paper).
pub fn table2_row(r: &BlockRow) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{:<10} {:>7} {:>5} | {:>8.3} {:>10.2} {:>6} {:>8.2} | {:>8.3} {:>10.2} {:>6} {:>8.2} | {:>8.3} {:>9.2} ({:>+5.1}%) {:>6} {:>8.2} {:>6} {:>4.0}x",
        r.name,
        r.cells,
        r.tech,
        r.default.begin.wns_ns(),
        r.default.begin.tns_ns(),
        r.default.begin.nve,
        r.default.begin.power_mw,
        r.default.final_qor.wns_ns(),
        r.default.final_qor.tns_ns(),
        r.default.final_qor.nve,
        r.default.final_qor.power_mw,
        r.rl.final_qor.wns_ns(),
        r.rl.final_qor.tns_ns(),
        r.rl.tns_gain_over(&r.default),
        r.rl.final_qor.nve,
        r.rl.final_qor.power_mw,
        r.prioritized,
        r.runtime_ratio,
    );
    s
}

/// Summary line: average TNS / NVE / power deltas (the paper's last row).
pub fn table2_summary(rows: &[BlockRow]) -> String {
    let n = rows.len().max(1) as f64;
    let tns: f64 = rows
        .iter()
        .map(|r| r.rl.tns_gain_over(&r.default))
        .sum::<f64>()
        / n;
    let nve: f64 = rows
        .iter()
        .map(|r| {
            let d = r.default.final_qor.nve.max(1) as f64;
            (1.0 - r.rl.final_qor.nve as f64 / d) * 100.0
        })
        .sum::<f64>()
        / n;
    let pwr: f64 = rows
        .iter()
        .map(|r| {
            let d = r.default.final_qor.power_mw.max(1e-9);
            (1.0 - r.rl.final_qor.power_mw / d) * 100.0
        })
        .sum::<f64>()
        / n;
    format!(
        "avg TNS gain {tns:+.1}% | avg NVE gain {nve:+.1}% | avg power gain {pwr:+.2}% (paper: 24%, 19.4%, 0.2%)"
    )
}

/// A minimal JSON value for machine-readable benchmark results — enough
/// structure for a dashboard to ingest without pulling a serializer into
/// the workspace. Numbers render through Rust's shortest-roundtrip
/// `Display`, so written values parse back bit-exact.
#[derive(Clone, Debug)]
pub enum Json {
    /// A finite number (integers render without a fraction).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object fields.
    pub fn field(key: &str, value: Json) -> (String, Json) {
        (key.to_string(), value)
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 9.0e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape_json(s));
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).render_into(out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes a [`Json`] value to `path` with a trailing newline,
/// **atomically**: the text lands in a `.tmp` sibling first and is renamed
/// into place, so a run killed mid-write can never leave a torn file for
/// its reader to choke on.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_json(path: &str, value: &Json) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, format!("{}\n", value.render()))?;
    std::fs::rename(&tmp, path)
}

impl Json {
    /// Parses compact or whitespace-separated JSON text (the subset
    /// [`Json::render`] emits: objects, arrays, strings with the standard
    /// escapes, numbers, `null` → NaN, plus `true`/`false` rendered as 1/0
    /// for completeness).
    ///
    /// # Errors
    /// Returns a message describing the first malformed construct.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (multibyte sequences pass
                        // through untouched).
                        let start = *pos;
                        let mut end = start + 1;
                        while end < bytes.len() && (bytes[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        s.push_str(
                            std::str::from_utf8(&bytes[start..end]).map_err(|e| e.to_string())?,
                        );
                        *pos = end;
                    }
                }
            }
        }
        Some(_) if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Num(f64::NAN))
        }
        Some(_) if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Num(1.0))
        }
        Some(_) if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Num(0.0))
        }
        Some(_) => {
            let start = *pos;
            while let Some(&b) = bytes.get(*pos) {
                if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                    *pos += 1;
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

/// Writes rows as a CSV file.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_csv(path: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    Ok(())
}

/// Parses `--key value` style CLI arguments with a default.
pub fn arg_value<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_ccd_netlist::TechNode;

    #[test]
    fn run_block_produces_consistent_row() {
        let design = build_block(&DesignSpec::new("rowtest", 400, TechNode::N7, 5));
        let mut cfg = RlConfig::fast();
        cfg.max_iterations = 2;
        cfg.patience = 2;
        let (row, outcome) = run_block(design, &cfg);
        assert_eq!(row.name, "rowtest");
        assert!(row.cells > 0);
        assert_eq!(row.iterations, outcome.history.len());
        assert!(row.runtime_ratio > 1.0, "RL must cost more than one flow");
        let line = table2_row(&row);
        assert!(line.contains("rowtest"));
        assert!(table2_header().contains("TNSr"));
        assert!(table2_summary(std::slice::from_ref(&row)).contains("avg TNS gain"));
    }

    #[test]
    fn run_block_with_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join(format!("rl-ccd-bench-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = RlConfig::fast();
        cfg.max_iterations = 2;
        cfg.patience = 2;
        let spec = DesignSpec::new("ckpt", 400, TechNode::N7, 5);
        let (row, outcome) = run_block_with(
            build_block(&spec),
            &cfg,
            TrainSession::checkpointed(&dir, 1),
        )
        .expect("checkpointed run");
        assert!(rl_ccd::training_state_exists(&dir), "state committed");
        // Re-running the same block resumes from the exhausted state and
        // reproduces the same champion without re-training.
        let (row2, outcome2) = run_block_with(
            build_block(&spec),
            &cfg,
            TrainSession::checkpointed(&dir, 1),
        )
        .expect("resumed run");
        assert_eq!(outcome.best_selection, outcome2.best_selection);
        assert_eq!(row.prioritized, row2.prioritized);
        assert_eq!(outcome.history, outcome2.history);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_renders_escapes_and_number_forms() {
        let v = Json::Obj(vec![
            Json::field("bench", Json::Str("dist\"scale\"\n".into())),
            Json::field("count", Json::Num(4.0)),
            Json::field("p99_ms", Json::Num(1.25)),
            Json::field("bad", Json::Num(f64::NAN)),
            Json::field("rows", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"bench":"dist\"scale\"\n","count":4,"p99_ms":1.25,"bad":null,"rows":[1,2.5]}"#
        );
    }

    #[test]
    fn json_parse_roundtrips_render() {
        let v = Json::Obj(vec![
            Json::field("bench", Json::Str("serve \"load\"\n".into())),
            Json::field("count", Json::Num(4.0)),
            Json::field("bad", Json::Num(f64::NAN)),
            Json::field(
                "fleets",
                Json::Arr(vec![Json::Obj(vec![Json::field(
                    "throughput_rps",
                    Json::Num(123.5),
                )])]),
            ),
        ]);
        let parsed = Json::parse(&v.render()).expect("roundtrip");
        assert_eq!(parsed.render(), v.render());
        let Json::Obj(fields) = &parsed else {
            panic!("an object parses to an object: {parsed:?}")
        };
        assert_eq!(fields[1].1.as_num(), Some(4.0));
        // null renders from NaN and parses back to NaN.
        assert!(fields[2].1.as_num().expect("num").is_nan());
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
    }

    #[test]
    fn write_json_is_atomic_and_leaves_no_tmp() {
        let path = std::env::temp_dir().join(format!("rl-ccd-bench-json-{}", std::process::id()));
        let path = path.to_str().expect("utf8 path").to_string();
        let v = Json::Obj(vec![Json::field("x", Json::Num(1.0))]);
        write_json(&path, &v).expect("write");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"x\":1}\n");
        assert!(
            !std::path::Path::new(&format!("{path}.tmp")).exists(),
            "tmp file must be renamed away"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn arg_parsing_defaults_and_overrides() {
        let args: Vec<String> = ["--scale", "0.5", "--iters", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--scale", 1.0f32), 0.5);
        assert_eq!(arg_value(&args, "--iters", 10usize), 7);
        assert_eq!(arg_value(&args, "--missing", 3usize), 3);
    }
}
