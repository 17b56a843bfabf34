//! The `run`, `trace` and `check` commands: re-execute this binary once per
//! workload (own process, so peak RSS is per workload), gather what each
//! child printed into one results file, and compare two such files.

use crate::metrics::{field, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workload::{clients, RUN_SECONDS, WORKLOADS};
use rl_ccd_bench::{write_json, Json};
use std::process::{Command, ExitCode, Stdio};

/// Lines a workload process prints for its parent, by prefix.
pub const DETAIL: &str = "detail: ";
pub const LEDGERS: &str = "ledgers: ";
pub const SPANS: &str = "spans: ";

/// What `run`/`trace` were asked to do.
#[derive(Debug)]
pub struct Plan {
    pub traced: bool,
    pub seed: u64,
    pub reps: usize,
    pub quick: bool,
    pub out: String,
}

/// `BENCHMARK.json` as the registry defines it (`perf_ledger manifest`):
/// the file at the repo root is this text, and a unit test keeps it so.
pub fn manifest() -> String {
    let entry = |fields: Vec<(String, Json)>| format!("    {}", Json::Obj(fields).render());
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            entry(vec![
                Json::field("name", Json::Str(w.name.into())),
                Json::field("why", Json::Str(w.why.into())),
            ])
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            entry(vec![
                Json::field("name", Json::Str(m.name.into())),
                Json::field("unit", Json::Str(m.unit.into())),
                Json::field("better", Json::Str(m.better.as_str().into())),
                Json::field("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            entry(vec![
                Json::field("name", Json::Str(m.name.into())),
                Json::field("unit", Json::Str(m.unit.into())),
                Json::field("better", Json::Str(m.better.as_str().into())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bin\", \"perf_ledger\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// One child's parsed output.
struct Child {
    result: Json,
    detail: Json,
    ledgers: Json,
    spans: Json,
}

fn run_child(workload: &str, plan: &Plan, seconds: f64) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if plan.traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut child = Child {
        result: Json::Obj(vec![]),
        detail: Json::Obj(vec![]),
        ledgers: Json::Arr(vec![]),
        spans: Json::Arr(vec![]),
    };
    for line in stdout.lines() {
        let parsed = |rest: &str| Json::parse(rest).map_err(|e| format!("{workload}: {e}"));
        if let Some(rest) = line.strip_prefix(DETAIL) {
            child.detail = parsed(rest)?;
        } else if let Some(rest) = line.strip_prefix(LEDGERS) {
            child.ledgers = parsed(rest)?;
        } else if let Some(rest) = line.strip_prefix(SPANS) {
            child.spans = parsed(rest)?;
        } else {
            println!("{line}");
        }
    }
    let last = stdout.lines().last().unwrap_or_default();
    child.result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    Ok(child)
}

/// Runs every workload `plan.reps` times and writes the results file.
/// Fails when any run failed a check.
pub fn run(plan: &Plan) -> ExitCode {
    let seconds = if plan.quick {
        RUN_SECONDS / 10.0
    } else {
        RUN_SECONDS
    };
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let mut runs = Vec::new();
        for rep in 0..plan.reps {
            println!("== {} ({}/{})", w.name, rep + 1, plan.reps);
            match run_child(w.name, plan, seconds) {
                Ok(child) => {
                    ok &= field(&child.result, "correct").and_then(Json::as_num) == Some(1.0);
                    let mut fields = match child.result {
                        Json::Obj(fields) => fields,
                        _ => vec![],
                    };
                    fields.push(Json::field("detail", child.detail));
                    if plan.traced {
                        fields.push(Json::field("ledgers", child.ledgers));
                        fields.push(Json::field("spans", child.spans));
                    }
                    runs.push(Json::Obj(fields));
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        workloads.push(Json::Obj(vec![
            Json::field("name", Json::Str(w.name.into())),
            Json::field("why", Json::Str(w.why.into())),
            Json::field("runs", Json::Arr(runs)),
        ]));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Json::Obj(vec![
        Json::field(
            "schema",
            Json::Str(format!(
                "perf_ledger {} v1",
                if plan.traced { "trace" } else { "run" }
            )),
        ),
        Json::field("seed", Json::Num(plan.seed as f64)),
        Json::field("seconds", Json::Num(seconds)),
        Json::field(
            "comparable",
            Json::Str(if plan.quick {
                "no: --quick runs a tenth of the counts".into()
            } else {
                "yes".to_string()
            }),
        ),
        Json::field(
            "machine",
            Json::Obj(vec![
                Json::field("nproc", Json::Num(nproc as f64)),
                Json::field("clients", Json::Num(clients() as f64)),
                Json::field("rustc", Json::Str(rustc_version())),
            ]),
        ),
        Json::field("workloads", Json::Arr(workloads)),
        // No gain is claimed by the change that defines the benchmark.
        Json::field("claim", Json::Num(f64::NAN)),
    ]);
    if plan.traced && ok {
        compare_with_untraced(&report, &plan.out);
    }
    match write_json(&plan.out, &report) {
        Ok(()) => println!("wrote {}", plan.out),
        Err(e) => {
            eprintln!("{}: {e}", plan.out);
            ok = false;
        }
    }
    if plan.quick {
        println!("--quick: checks ran, numbers are NOT comparable with a full run");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf_ledger: at least one run failed a check");
        ExitCode::FAILURE
    }
}

/// Prints the traced run's medians beside `latest.json`'s, when that file
/// sits next to the trace output: the difference is what tracing costs.
fn compare_with_untraced(trace: &Json, out: &str) {
    let latest = std::path::Path::new(out).with_file_name("latest.json");
    let Some(latest) = std::fs::read_to_string(&latest)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
    else {
        return;
    };
    if field(&latest, "seed").and_then(Json::as_num) != field(trace, "seed").and_then(Json::as_num)
        || field(&latest, "seconds").and_then(Json::as_num)
            != field(trace, "seconds").and_then(Json::as_num)
    {
        return;
    }
    println!("traced vs untraced medians (latest.json, same seed):");
    for w in WORKLOADS {
        for key in ["train.iter_p50_ms", "query.p50_ms"] {
            let of = |report: &Json| {
                let values: Vec<f64> = runs_of(report, w.name)
                    .iter()
                    .filter_map(|run| field(field(run, "detail")?, key)?.as_num())
                    .collect();
                median(&values)
            };
            let (traced, plain) = (of(trace), of(&latest));
            println!(
                "  {:<12} {key:<20} traced {traced:>10.3}  untraced {plain:>10.3}  ({:+.2} %)",
                w.name,
                100.0 * (traced - plain) / plain
            );
        }
    }
}

fn runs_of<'a>(report: &'a Json, workload: &str) -> &'a [Json] {
    let Some(Json::Arr(workloads)) = field(report, "workloads") else {
        return &[];
    };
    workloads
        .iter()
        .find(|w| matches!(field(w, "name"), Some(Json::Str(n)) if n == workload))
        .and_then(|w| match field(w, "runs") {
            Some(Json::Arr(runs)) => Some(runs.as_slice()),
            _ => None,
        })
        .unwrap_or(&[])
}

fn values_of(report: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(report, workload)
        .iter()
        .filter_map(|run| field(field(field(run, "metrics")?, metric)?, "value")?.as_num())
        .collect()
}

/// The verdict on one (metric, workload) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the medians cannot tell "unchanged" from "regressed".
    Unresolved,
    Missing,
}

/// Compares `after` against `before` for one metric: regressed when the
/// median is worse by more than `bound`; unresolved when either side's
/// spread (needs four runs) exceeds the bound.
pub fn verdict(
    better: crate::metrics::Better,
    bound: f64,
    before: &[f64],
    after: &[f64],
) -> Verdict {
    if before.is_empty() || after.is_empty() {
        return Verdict::Missing;
    }
    let wide = |values: &[f64]| values.len() >= 4 && spread(values).is_some_and(|s| s > bound);
    if wide(before) || wide(after) {
        return Verdict::Unresolved;
    }
    if better.worsening(median(before), median(after)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `check a.json b.json`: one row per (metric, workload). Fails on any
/// regressed, unresolved or missing row, or when either file has a run
/// that failed a check.
pub fn check(before_path: &str, after_path: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| eprintln!("{path}: {e}"))
            .ok()
    };
    let (Some(before), Some(after)) = (load(before_path), load(after_path)) else {
        return ExitCode::FAILURE;
    };
    let mut bad = 0usize;
    for (label, report) in [(before_path, &before), (after_path, &after)] {
        if matches!(field(report, "comparable"), Some(Json::Str(s)) if s != "yes") {
            eprintln!("{label}: not comparable (a --quick run)");
            bad += 1;
        }
    }
    println!(
        "{:<12} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "before", "after", "change", "bound"
    );
    for w in WORKLOADS {
        for run in runs_of(&before, w.name)
            .iter()
            .chain(runs_of(&after, w.name))
        {
            if field(run, "correct").and_then(Json::as_num) != Some(1.0) {
                println!("{:<12} a run failed its output checks", w.name);
                bad += 1;
            }
        }
        for m in END_TO_END {
            let (b, a) = (
                values_of(&before, w.name, m.name),
                values_of(&after, w.name, m.name),
            );
            let v = verdict(m.better, m.bound, &b, &a);
            let (mb, ma) = (median(&b), median(&a));
            println!(
                "{:<12} {:<24} {mb:>14.4} {ma:>14.4} {:>+8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                100.0 * m.better.worsening(mb, ma),
                100.0 * m.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Missing => "missing",
                }
            );
            bad += usize::from(v != Verdict::Ok);
        }
        for key in ["train.params_fp", "train.reward_fp", "retrain.state_fp"] {
            let of = |report: &Json| {
                runs_of(report, w.name)
                    .first()
                    .and_then(|run| field(field(run, "detail")?, key).cloned())
            };
            let same = match (of(&before), of(&after)) {
                (Some(Json::Str(x)), Some(Json::Str(y))) => x == y,
                _ => false,
            };
            println!(
                "{:<12} {key:<24} {}",
                w.name,
                if same {
                    "identical"
                } else {
                    "differs (arithmetic or inputs changed)"
                }
            );
        }
    }
    println!("change is by how much `after` is worse (+) or better (-) than `before`");
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        let slower = [115.0, 116.0, 114.0, 115.5, 115.0];
        assert_eq!(verdict(Better::Lower, 0.10, &steady, &steady), Verdict::Ok);
        assert_eq!(
            verdict(Better::Lower, 0.10, &steady, &slower),
            Verdict::Regressed
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(verdict(Better::Higher, 0.10, &steady, &slower), Verdict::Ok);
        assert_eq!(
            verdict(Better::Higher, 0.10, &slower, &steady),
            Verdict::Regressed
        );
        let noisy = [80.0, 120.0, 95.0, 130.0, 70.0];
        assert_eq!(
            verdict(Better::Lower, 0.10, &noisy, &steady),
            Verdict::Unresolved
        );
        assert_eq!(verdict(Better::Lower, 0.10, &[], &steady), Verdict::Missing);
        // A single run per side has no spread: decided on the values alone.
        assert_eq!(
            verdict(Better::Lower, 0.10, &[100.0], &[105.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, &[100.0], &[111.0]),
            Verdict::Regressed
        );
    }
}
