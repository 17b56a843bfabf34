//! `perf_ledger`: the repo's single performance benchmark.
//!
//! ```text
//! perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perf_ledger run   [--seed 11] [--reps 1] [--quick] [--out benchmark/results/latest.json]
//! perf_ledger trace [--seed 11] [--quick]  [--out benchmark/results/trace.json]
//! perf_ledger check <before.json> <after.json>
//! perf_ledger manifest | glossary
//! ```
//!
//! The first form is one workload in this process (what `BENCHMARK.json`'s
//! command runs): it prints every metric by name with its unit, checks the
//! program's outputs, and ends with one JSON result line. `run` and `trace`
//! execute that form once per workload in a child process and write a
//! results file; `check` compares two `run` files against the bounds.
//! See `benchmark/README.md`.

mod design;
mod ledger;
mod metrics;
mod report;
mod retrain;
mod serve;
mod stats;
mod train;
mod workload;

use rl_ccd_bench::Json;
use std::process::ExitCode;

fn flag<T: std::str::FromStr>(args: &[String], key: &str) -> Option<T> {
    let at = args.iter().position(|a| a == key)?;
    args.get(at + 1)?.parse().ok()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf_ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perf_ledger run   [--seed 11] [--reps 1] [--quick] [--out PATH]\n       \
         perf_ledger trace [--seed 11] [--quick] [--out PATH]\n       \
         perf_ledger check <before.json> <after.json>\n       \
         perf_ledger manifest    (prints BENCHMARK.json from the metric registry)\n       \
         perf_ledger glossary    (prints every metric with what it measures or should move)",
        workload::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::FAILURE
}

/// One workload in this process; the driver's form.
fn one_workload(args: &[String]) -> ExitCode {
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        flag::<String>(args, "--workload"),
        flag::<u64>(args, "--seed"),
        flag::<f64>(args, "--seconds"),
        flag::<u8>(args, "--trace"),
    ) else {
        return usage();
    };
    let Some(w) = workload::find(&name) else {
        eprintln!("unknown workload {name:?}");
        return usage();
    };
    if !(seconds.is_finite() && seconds > 0.0) || trace > 1 {
        return usage();
    }
    // Scratch files live beside the executable: inside the build directory,
    // so inside the checkout and ignored by git.
    let work = match std::env::current_exe() {
        Ok(exe) => exe
            .parent()
            .expect("an executable has a directory")
            .join("perf_ledger_work")
            .join(std::process::id().to_string()),
        Err(e) => {
            eprintln!("own path: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traced = trace == 1;
    let outcome = workload::run(w, seed, seconds, traced, &work);
    let _ = std::fs::remove_dir_all(&work);

    let registry = if traced {
        metrics::per_layer_units()
    } else {
        metrics::end_to_end_units()
    };
    outcome.metrics.print(&registry);
    for ledger in &outcome.ledgers {
        ledger.print();
    }
    println!("{}{}", report::DETAIL, outcome.detail.render());
    if traced {
        let ledgers = Json::Arr(
            outcome
                .ledgers
                .iter()
                .map(ledger::Ledger::to_json)
                .collect(),
        );
        println!("{}{}", report::LEDGERS, ledgers.render());
        println!("{}{}", report::SPANS, outcome.spans.render());
    }
    println!(
        "  attempted {} failed {} correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    // The shared Json has no boolean, so the envelope is written by hand.
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json(&registry).render()
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace")) => {
            let traced = cmd == "trace";
            let default_out = if traced {
                "benchmark/results/trace.json"
            } else {
                "benchmark/results/latest.json"
            };
            report::run(&report::Plan {
                traced,
                seed: flag(&args, "--seed").unwrap_or(11),
                reps: flag(&args, "--reps").unwrap_or(1usize).max(1),
                quick: args.iter().any(|a| a == "--quick"),
                out: flag(&args, "--out").unwrap_or_else(|| default_out.to_string()),
            })
        }
        Some("check") if args.len() == 3 => report::check(&args[1], &args[2]),
        Some("manifest") => {
            print!("{}", report::manifest());
            ExitCode::SUCCESS
        }
        Some("glossary") => {
            metrics::print_glossary();
            ExitCode::SUCCESS
        }
        Some(_) if args.iter().any(|a| a == "--workload") => one_workload(&args),
        _ => usage(),
    }
}
