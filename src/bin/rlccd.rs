//! `rlccd` — command-line front end for the RL-CCD reproduction.
//!
//! ```text
//! rlccd generate --cells 1200 --tech 7nm --seed 42 --out design.nl
//! rlccd report   --in design.nl [--paths 3]
//! rlccd flow     --in design.nl [--period <ps>] [--trace-out run.jsonl]
//! rlccd train    --in design.nl [--iters 12] [--workers 8] [--params out.txt]
//!                [--checkpoint DIR] [--checkpoint-every K] [--resume DIR]
//!                [--trace-out run.jsonl]
//! rlccd train    --in design.nl --workers host:port,host:port [--slots 8]
//!                [--deadline-s S] [--retries N] [--chaos-plan SPEC]
//!                [--inject-worker-drop IT:PROC] …
//! rlccd worker   [--port 7401] [--chaos-plan SPEC] [--conn-base N]
//! rlccd transfer --in design.nl --params donor.txt [--iters 12] [--trace-out run.jsonl]
//! rlccd baseline --in design.nl [--period <ps>]
//! rlccd verilog  --in design.nl --out design.v [--period <ps>]
//! rlccd suite    [--scale 0.5]
//! rlccd trace-validate --in run.jsonl
//! rlccd serve    --checkpoint DIR [--model NAME] [--port P] [--max-batch N]
//!                [--queue N] [--serve-workers N] [--rho R]
//! rlccd query    --design name:cells:tech:seed [--addr HOST:PORT] [--model NAME]
//!                [--mode greedy|sample] [--seed S] [--count N] [--threads T]
//!                [--deadline-ms MS] [--retries N] [--chaos-plan SPEC]
//!                [--tenant ID --token SECRET] | --shutdown
//! rlccd probe    --addr HOST:PORT | --workers host:port,host:port [--timeout-ms MS]
//! rlccd daemon   --checkpoint DIR [--port P] [--admin-port P] [--tenants SPEC,SPEC]
//!                [--rho R] [--admin-token T] [--audit-out FILE] [--usage-out FILE]
//!                [--usage-flush-ms MS] [--exp-out FILE]
//!                [--gate-seed S] [--max-batch N] [--queue N]
//! rlccd admin    <status|load|gate|promote|rollback|canary|tenant-add|tenant-del|
//!                 tenant-list|retrain|drain> [--addr HOST:PORT] [--admin-token T] [options]
//! rlccd exp-validate --in exp.jsonl
//! rlccd retrain  --base DIR --log exp.jsonl --out DIR [--seed S] [--steps N]
//!                [--batch N] [--max-staleness N] [--w-max F] [--lr F] [--grad-clip F]
//! ```
//!
//! `daemon` is the multi-tenant production front-end: queries must carry
//! `--tenant`/`--token` credentials (a tenant spec is
//! `id:token:rate:burst:quota`), checkpoints hot-reload through the admin
//! port, and champion/challenger promotion is gated on a held-out eval
//! set — see `rlccd admin promote`.
//!
//! The closed learning loop: `daemon --exp-out exp.jsonl` logs every
//! sampled query as a content-addressed `rl-ccd-exp v1` record
//! (`exp-validate` schema-checks a log); `retrain` replays the log with
//! importance-weighted offline REINFORCE into a fresh checkpoint
//! (bit-reproducible for a fixed `--seed`); `admin retrain` does the same
//! on the daemon and stages the result in the challenger slot, where only
//! `admin gate`/`admin promote` can put it in front of tenants.
//!
//! `generate` writes the plain-text netlist format of
//! [`rl_ccd_netlist::serialize`]; the clock period is embedded as a comment
//! convention-free sidecar (printed, and recalibrated on load via
//! `--period`).
//!
//! `--trace-out FILE` records hierarchical spans and metrics from STA, the
//! flow, and the training loop into a versioned JSONL trace;
//! `trace-validate` checks one against the schema. Every subcommand exits
//! through the unified [`rl_ccd::Error`] instead of ad-hoc panics.
//!
//! `--chaos-plan SPEC` arms deterministic wire-fault injection for `train`
//! (dist mode) and `query`: a comma-separated list of
//! `delay:CONN:FRAME:MS`, `seg:CONN:FRAME:BYTES`, `torn:CONN:FRAME`,
//! `reset:CONN:FRAME`, and `stall:CONN:FRAME:MS` entries, where `CONN` is
//! the worker/shard index and `FRAME` the per-connection frame counter.
//! Paired with `--retries N` it exercises the retry/reconnect paths
//! end-to-end; `probe` health-checks a serve endpoint or worker fleet.

use rl_ccd::{save_params, with_pretrained_gnn, Baseline, Error, RlConfig, Session, TrainOutcome};
use rl_ccd_daemon::{
    AdminClient, AdminReply, AdminRequest, Daemon, DaemonConfig, SystemClock, TenantConfig,
    CHAMPION,
};
use rl_ccd_flow::FlowRecipe;
use rl_ccd_netlist::{
    block_suite, generate, read_netlist, write_netlist, DesignSpec, DesignStats, GeneratedDesign,
    Library, Netlist, TechNode,
};
use rl_ccd_obs::Recorder;
use rl_ccd_serve::{
    Credentials, DesignKey, Mode, ModelRegistry, QueryRequest, Response, ServeClient, ServeConfig,
    Server,
};
use rl_ccd_sta::{analyze, full_report, Constraints, EndpointMargins, TimingGraph};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::process::ExitCode;

/// The value after `key`, parsed; `None` when the flag is absent.
///
/// # Errors
/// `Error::Config` when the value is missing or does not parse — a typo
/// must not silently run with the default.
fn arg<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, Error> {
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| Error::Config(format!("{key} needs a value")))?;
    let unreadable = |_| Error::Config(format!("{key}: cannot read {value:?}"));
    value.parse().map(Some).map_err(unreadable)
}

/// Rejects a `--flag` that `cmd`'s usage line does not name: the usage
/// table is the one list of what each subcommand reads.
fn check_flags(cmd: &str, args: &[String]) -> Result<(), Error> {
    let Some((_, usage)) = USAGE_TABLE.iter().find(|(name, _)| *name == cmd) else {
        return Ok(());
    };
    let known = |flag: &str| {
        usage.match_indices(flag).any(|(at, _)| {
            !usage[at + flag.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
        })
    };
    match args.iter().find(|a| a.starts_with("--") && !known(a)) {
        Some(flag) => Err(Error::Config(format!("{cmd} has no flag {flag}"))),
        None => Ok(()),
    }
}

/// (subcommand, usage line) table — one source of truth for both the
/// global usage screen and the per-subcommand usage printed when that
/// subcommand's arguments fail to parse.
const USAGE_TABLE: &[(&str, &str)] = &[
    (
        "generate",
        "generate --cells N --tech <5nm|7nm|12nm> --seed S [--out FILE]",
    ),
    ("report", "report   --in FILE [--period PS] [--paths K]"),
    (
        "flow",
        "flow     --in FILE [--period PS] [--trace-out FILE]",
    ),
    (
        "train",
        "train    --in FILE [--period PS] [--iters N] [--workers N] [--params FILE]\n\
         \u{20}         [--checkpoint DIR] [--checkpoint-every K] [--resume DIR]\n\
         \u{20}         [--trace-out FILE]\n\
         \u{20}         [--workers HOST:PORT,HOST:PORT [--slots N] [--deadline-s S]\n\
         \u{20}         [--retries N] [--chaos-plan SPEC] [--inject-worker-drop IT:PROC]]",
    ),
    (
        "worker",
        "worker   [--port 7401] [--chaos-plan SPEC] [--conn-base N]",
    ),
    (
        "transfer",
        "transfer --in FILE --params FILE [--period PS] [--iters N] [--trace-out FILE]",
    ),
    (
        "baseline",
        "baseline --in FILE [--period PS] [--trace-out FILE]",
    ),
    ("verilog", "verilog  --in FILE --out FILE [--period PS]"),
    ("suite", "suite    [--scale F]"),
    ("trace-validate", "trace-validate --in FILE"),
    (
        "serve",
        "serve    --checkpoint DIR [--model NAME] [--port P] [--max-batch N]\n\
         \u{20}         [--queue N] [--serve-workers N] [--env-cache N]\n\
         \u{20}         [--rho R] [--fanout-cap N] [--trace-out FILE]",
    ),
    (
        "query",
        "query    --design name:cells:tech:seed [--addr HOST:PORT] [--model NAME]\n\
         \u{20}         [--mode greedy|sample] [--seed S] [--count N] [--threads T]\n\
         \u{20}         [--deadline-ms MS] [--retries N] [--chaos-plan SPEC]\n\
         \u{20}         [--tenant ID --token SECRET]\n\
         \u{20}         | query --shutdown [--addr HOST:PORT]",
    ),
    (
        "probe",
        "probe    --addr HOST:PORT | probe --workers HOST:PORT,HOST:PORT\n\
         \u{20}         [--timeout-ms MS]",
    ),
    (
        "daemon",
        "daemon   --checkpoint DIR [--port P] [--admin-port P] [--tenants SPEC,SPEC]\n\
         \u{20}         [--rho R] [--admin-token T] [--audit-out FILE] [--usage-out FILE]\n\
         \u{20}         [--usage-flush-ms MS] [--exp-out FILE]\n\
         \u{20}         [--gate-seed S] [--max-batch N]\n\
         \u{20}         [--queue N] [--serve-workers N] [--env-cache N] [--fanout-cap N]\n\
         \u{20}         [--trace-out FILE] (a tenant SPEC is id:token:rate:burst:quota)",
    ),
    (
        "admin",
        "admin    <action> [--addr HOST:PORT] [--admin-token T]\n\
         \u{20}         status | tenant-list | gate | rollback | drain\n\
         \u{20}         | load --slot champion|challenger --dir DIR [--rho R]\n\
         \u{20}         | promote [--force] | canary --fraction F\n\
         \u{20}         | tenant-add --spec id:token:rate:burst:quota | tenant-del --id ID\n\
         \u{20}         | retrain --base DIR --log FILE --out DIR [--seed S] [--steps N]",
    ),
    ("exp-validate", "exp-validate --in exp.jsonl"),
    (
        "retrain",
        "retrain  --base DIR --log exp.jsonl --out DIR [--seed S] [--steps N]\n\
         \u{20}         [--batch N] [--max-staleness N] [--w-max F] [--lr F] [--grad-clip F]",
    ),
];

fn usage() -> ExitCode {
    eprintln!("usage: rlccd <generate|report|flow|train|transfer|baseline|verilog|suite|trace-validate|serve|query|probe|daemon|admin|exp-validate|retrain> [options]\n");
    for (_, line) in USAGE_TABLE {
        eprintln!("{line}");
    }
    ExitCode::FAILURE
}

/// Prints the usage line of one subcommand (the arg-error path: a bad
/// `rlccd train --iters x` or `rlccd serve --reactor` shows how to call
/// that subcommand, not a bare error).
fn usage_for(cmd: &str) {
    if let Some((_, line)) = USAGE_TABLE.iter().find(|(name, _)| *name == cmd) {
        eprintln!("usage: rlccd {line}");
    }
}

/// The recorder requested by `--trace-out`, plus where to write it.
struct Trace {
    recorder: Recorder,
    path: PathBuf,
}

fn trace_from(args: &[String]) -> Result<Option<Trace>, Error> {
    Ok(arg::<String>(args, "--trace-out")?.map(|path| Trace {
        recorder: Recorder::new(),
        path: PathBuf::from(path),
    }))
}

impl Trace {
    fn finish(&self) -> Result<(), Error> {
        self.recorder.write_jsonl_to_path(&self.path)?;
        println!("\n{}", self.recorder.summary());
        println!("wrote trace {}", self.path.display());
        Ok(())
    }
}

fn load_design(args: &[String]) -> Result<GeneratedDesign, Error> {
    let path: String =
        arg(args, "--in")?.ok_or_else(|| Error::Config("missing --in FILE".into()))?;
    let file = File::open(&path)?;
    let netlist: Netlist =
        read_netlist(BufReader::new(file)).map_err(|e| Error::Config(format!("{path}: {e}")))?;
    // Period: explicit, or recalibrated from the netlist structure.
    if let Some(p) = arg::<f32>(args, "--period")? {
        if p.is_nan() || p <= 0.0 {
            return Err(Error::Config(format!(
                "--period must be a positive number of ps, got {p}"
            )));
        }
    }
    let period = arg::<f32>(args, "--period")?.unwrap_or_else(|| {
        // Reuse the generator's calibration on the loaded structure by
        // regenerating a spec-shaped estimate: simplest robust choice is a
        // fresh STA-based quantile.
        let graph = TimingGraph::new(&netlist);
        let clocks = rl_ccd_sta::ClockSchedule::balanced(&netlist, 0.0, 0.0, 0.0, 0);
        let unconstrained = Constraints {
            input_delay: 0.0,
            output_delay: 0.0,
            uncertainty: 0.0,
            ..Constraints::with_period(1.0e9)
        };
        let rep = analyze(
            &netlist,
            &graph,
            &unconstrained,
            &clocks,
            &EndpointMargins::zero(&netlist),
        );
        let mut arr: Vec<f32> = (0..netlist.endpoints().len())
            .map(|i| rep.endpoint_arrival(i))
            .collect();
        arr.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let max = arr.last().copied().unwrap_or(1000.0);
        let tail: Vec<f32> = arr.into_iter().filter(|&a| a > 0.35 * max).collect();
        let idx = (tail.len().saturating_sub(1)) * 55 / 100;
        tail.get(idx).copied().unwrap_or(1000.0)
    });
    let spec = DesignSpec::new(
        netlist.name().to_string(),
        netlist.cell_count(),
        netlist.library().tech(),
        0,
    );
    let endpoint_class = vec![rl_ccd_netlist::ClusterClass::Normal; netlist.endpoints().len()];
    Ok(GeneratedDesign {
        netlist,
        period_ps: period,
        spec,
        endpoint_class,
    })
}

fn cmd_generate(args: &[String]) -> Result<(), Error> {
    let cells: usize = arg(args, "--cells")?.unwrap_or(1200);
    let tech_name: String = arg(args, "--tech")?.unwrap_or_else(|| "7nm".into());
    let tech: TechNode = Library::parse_tech(&tech_name)
        .ok_or_else(|| Error::Config(format!("unknown --tech {tech_name}")))?;
    let seed: u64 = arg(args, "--seed")?.unwrap_or(42);
    let out: String = arg(args, "--out")?.unwrap_or_else(|| "design.nl".into());
    let d = generate(&DesignSpec::new("cli", cells, tech, seed));
    let file = File::create(&out)?;
    write_netlist(&d.netlist, BufWriter::new(file))?;
    println!("{}", DesignStats::of(&d.netlist));
    println!(
        "calibrated period: {:.1} ps (pass via --period when loading)",
        d.period_ps
    );
    println!("wrote {out}");
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), Error> {
    let d = load_design(args)?;
    let paths: usize = arg(args, "--paths")?.unwrap_or(3);
    let recipe = FlowRecipe::default();
    let graph = TimingGraph::new(&d.netlist);
    let clocks = recipe.clock_schedule(&d.netlist, d.period_ps);
    let rep = analyze(
        &d.netlist,
        &graph,
        &Constraints::with_period(d.period_ps),
        &clocks,
        &EndpointMargins::zero(&d.netlist),
    );
    println!("{}", DesignStats::of(&d.netlist));
    println!("period {:.1} ps", d.period_ps);
    print!("{}", full_report(&d.netlist, &rep, &clocks, paths));
    Ok(())
}

fn cmd_flow(args: &[String]) -> Result<(), Error> {
    let d = load_design(args)?;
    let trace = trace_from(args)?;
    let mut builder = Session::builder().design(d);
    if let Some(t) = &trace {
        builder = builder.recorder(t.recorder.clone());
    }
    let session = builder.build()?;
    let res = session.run_flow()?;
    println!(
        "begin: WNS {:.3} ns TNS {:.2} ns NVE {} power {:.2} mW",
        res.begin.wns_ns(),
        res.begin.tns_ns(),
        res.begin.nve,
        res.begin.power_mw
    );
    println!(
        "final: WNS {:.3} ns TNS {:.2} ns NVE {} power {:.2} mW ({} datapath ops, {} downsizes, {:.2}s)",
        res.final_qor.wns_ns(),
        res.final_qor.tns_ns(),
        res.final_qor.nve,
        res.final_qor.power_mw,
        res.op_stats.total(),
        res.downsizes,
        res.runtime_s
    );
    if let Some(t) = &trace {
        t.finish()?;
    }
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), Error> {
    let d = load_design(args)?;
    // `--workers` is overloaded: a bare number is the rollout slot count
    // (the paper's parallel workers); a `host:port,…` list shards the
    // rollouts over those worker processes (slot count then comes from
    // `--slots`). Parsed as a raw string first — `arg::<usize>` would
    // silently drop an address list.
    let workers_raw = arg::<String>(args, "--workers")?;
    let (slots, dist_addrs) = match workers_raw {
        Some(w) if w.contains(':') => {
            let addrs: Vec<String> = w
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            (arg(args, "--slots")?.unwrap_or(8), Some(addrs))
        }
        Some(w) => (
            w.parse::<usize>().map_err(|_| {
                Error::Config(format!(
                    "--workers takes a count or a HOST:PORT list, got {w:?}"
                ))
            })?,
            None,
        ),
        None => (8, None),
    };
    let config = RlConfig {
        max_iterations: arg(args, "--iters")?.unwrap_or(12),
        workers: slots,
        ..RlConfig::default()
    };
    let trace = trace_from(args)?;
    // --resume DIR continues an interrupted run (or starts one that
    // checkpoints into DIR); --checkpoint DIR starts fresh but writes
    // resumable state every --checkpoint-every iterations.
    let resume_dir = arg::<String>(args, "--resume")?;
    let checkpoint_dir = resume_dir.clone().or(arg::<String>(args, "--checkpoint")?);
    let mut builder = Session::builder().design(d).rl_config(config);
    if let Some(t) = &trace {
        builder = builder.recorder(t.recorder.clone());
    }
    if let Some(dir) = &checkpoint_dir {
        let every = arg(args, "--checkpoint-every")?.unwrap_or(5);
        builder = builder.checkpoint(dir, every);
        if resume_dir.is_some() && rl_ccd::training_state_exists(dir) {
            println!("resuming from checkpoint in {dir}");
        }
    }
    if let Some(addrs) = &dist_addrs {
        let mut executor = rl_ccd_dist::DistExecutor::connect(addrs)
            .map_err(|e| Error::Config(format!("--workers {}: {e}", addrs.join(","))))?;
        if let Some(secs) = arg::<u64>(args, "--deadline-s")? {
            executor = executor.with_deadline(std::time::Duration::from_secs(secs.max(1)));
        }
        if let Some(n) = arg::<u32>(args, "--retries")? {
            executor =
                executor.with_retry(rl_ccd_wire::RetryPolicy::seeded(0).with_attempts(n.max(1)));
        }
        // Wire-level chaos drill: inject deterministic transport faults
        // into the coordinator↔worker connections (connection id =
        // worker index) and let retry/re-queue recover.
        if let Some(plan) = parse_chaos_plan(args)? {
            println!("chaos plan armed: {} wire fault(s)", plan.len());
            executor = executor.with_chaos(plan);
        }
        println!(
            "sharding rollouts over {} worker(s): {}",
            addrs.len(),
            addrs.join(", ")
        );
        builder = builder.executor(Box::new(executor));
    }
    // CI smoke hook: kill worker process PROC mid-batch at iteration IT and
    // assert the run still completes (re-queued onto the survivors).
    if let Some(spec) = arg::<String>(args, "--inject-worker-drop")? {
        let (it, proc) = spec
            .split_once(':')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .ok_or_else(|| {
                Error::Config(format!("--inject-worker-drop takes IT:PROC, got {spec:?}"))
            })?;
        builder = builder.fault_plan(rl_ccd::FaultPlan::none().with_worker_drop(it, proc));
        println!("injecting worker-drop at iteration {it}, worker process {proc}");
    }
    let session = builder.build()?;
    let default = session.env().default_flow();
    println!(
        "default flow TNS {:.2} ns | training on {} violating endpoints…",
        default.final_qor.tns_ns(),
        session.env().pool().len()
    );
    let outcome: TrainOutcome = session.train()?;
    for h in &outcome.history {
        println!(
            "iter {:>3}: mean {:>10.0}  greedy {:>10.0}  best {:>10.0} ps",
            h.iteration, h.mean_reward, h.greedy_reward, h.best_so_far
        );
    }
    println!(
        "RL-CCD TNS {:.2} ns ({:+.1}% vs default), {} endpoints prioritized",
        outcome.best_result.final_qor.tns_ns(),
        outcome.best_result.tns_gain_over(&default),
        outcome.best_selection.len()
    );
    if !outcome.faults.is_empty() {
        println!("{} rollout fault(s) quarantined:", outcome.faults.len());
        for f in &outcome.faults {
            println!("  {f}");
        }
    }
    if let Some(path) = arg::<String>(args, "--params")? {
        save_params(&outcome.params, &path)?;
        println!("saved parameters to {path}");
    }
    if let Some(t) = &trace {
        t.finish()?;
    }
    Ok(())
}

fn cmd_transfer(args: &[String]) -> Result<(), Error> {
    let d = load_design(args)?;
    let donor_path: String =
        arg(args, "--params")?.ok_or_else(|| Error::Config("missing --params FILE".into()))?;
    let donor = rl_ccd::load_params(&donor_path)
        .map_err(|e| Error::Config(format!("{donor_path}: {e}")))?;
    let config = RlConfig {
        max_iterations: arg(args, "--iters")?.unwrap_or(12),
        ..RlConfig::default()
    };
    let trace = trace_from(args)?;
    let (_, params, adopted) = with_pretrained_gnn(config.clone(), &donor);
    println!("adopted {adopted} EP-GNN tensors from {donor_path}");
    let mut builder = Session::builder()
        .design(d)
        .rl_config(config)
        .initial_params(params);
    if let Some(t) = &trace {
        builder = builder.recorder(t.recorder.clone());
    }
    let session = builder.build()?;
    let default = session.env().default_flow();
    let outcome = session.train()?;
    println!(
        "transfer run: TNS {:.2} ns ({:+.1}% vs default) in {} iterations",
        outcome.best_result.final_qor.tns_ns(),
        outcome.best_result.tns_gain_over(&default),
        outcome.history.len()
    );
    if let Some(t) = &trace {
        t.finish()?;
    }
    Ok(())
}

fn cmd_baseline(args: &[String]) -> Result<(), Error> {
    let d = load_design(args)?;
    let trace = trace_from(args)?;
    let mut builder = Session::builder().design(d);
    if let Some(t) = &trace {
        builder = builder.recorder(t.recorder.clone());
    }
    let session = builder.build()?;
    // The baseline evaluations go through the env directly, outside the
    // Session entry points — attach the recorder for the whole scan.
    let _obs = trace.as_ref().map(|t| rl_ccd_obs::attach(&t.recorder));
    let env = session.env();
    let default = env.default_flow();
    println!(
        "default flow TNS {:.2} ns over {} violating endpoints",
        default.final_qor.tns_ns(),
        env.pool().len()
    );
    for b in Baseline::all() {
        if b == Baseline::Native {
            continue;
        }
        let sel = b.select(env, RlConfig::default().rho, 7);
        let r = env.evaluate(&sel);
        println!(
            "{:<16} {:>4} selected  TNS {:>9.2} ns ({:>+6.1}%)",
            b.name(),
            sel.len(),
            r.final_qor.tns_ns(),
            r.tns_gain_over(&default)
        );
    }
    if let Some(t) = &trace {
        t.finish()?;
    }
    Ok(())
}

fn cmd_verilog(args: &[String]) -> Result<(), Error> {
    let d = load_design(args)?;
    let out: String = arg(args, "--out")?.unwrap_or_else(|| "design.v".into());
    let file = File::create(&out)?;
    rl_ccd_netlist::write_verilog(&d.netlist, BufWriter::new(file))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_suite(args: &[String]) -> Result<(), Error> {
    let scale: f32 = arg(args, "--scale")?.unwrap_or(0.5);
    println!(
        "{:<10} {:>8} {:>6} {:>9} {:>6}",
        "block", "cells", "tech", "period", "EPs"
    );
    for spec in block_suite(scale) {
        let d = generate(&spec);
        println!(
            "{:<10} {:>8} {:>6} {:>7.0}ps {:>6}",
            spec.name,
            d.netlist.cell_count(),
            spec.tech.name(),
            d.period_ps,
            d.netlist.endpoints().len()
        );
    }
    Ok(())
}

fn cmd_trace_validate(args: &[String]) -> Result<(), Error> {
    let path: String =
        arg(args, "--in")?.ok_or_else(|| Error::Config("missing --in FILE".into()))?;
    let file = File::open(&path)?;
    let summary = rl_ccd_obs::validate_jsonl(BufReader::new(file))?;
    println!(
        "{path}: valid rl-ccd-trace v{} — {} spans, {} metrics",
        summary.version, summary.spans, summary.metrics
    );
    println!("span names:   {}", summary.span_names.join(", "));
    println!("metric names: {}", summary.metric_names.join(", "));
    Ok(())
}

fn cmd_exp_validate(args: &[String]) -> Result<(), Error> {
    let path: String =
        arg(args, "--in")?.ok_or_else(|| Error::Config("missing --in FILE".into()))?;
    let file = File::open(&path)?;
    let summary = rl_ccd_exp::validate_exp_jsonl(BufReader::new(file))
        .map_err(|e| Error::Config(format!("{path}: {e}")))?;
    println!(
        "{path}: valid {} — {} records, {} unique ({} duplicates, dedup ratio {:.3})",
        rl_ccd_exp::EXP_SCHEMA,
        summary.records,
        summary.unique,
        summary.duplicates,
        summary.dedup_ratio()
    );
    println!(
        "designs: {}, total selection steps: {}",
        summary.designs, summary.total_steps
    );
    println!("policy-version histogram:");
    for (version, count) in &summary.versions {
        println!("  v{version:<6} {count}");
    }
    Ok(())
}

fn cmd_retrain(args: &[String]) -> Result<(), Error> {
    let base: String =
        arg(args, "--base")?.ok_or_else(|| Error::Config("missing --base DIR".into()))?;
    let log: String =
        arg(args, "--log")?.ok_or_else(|| Error::Config("missing --log FILE".into()))?;
    let out: String =
        arg(args, "--out")?.ok_or_else(|| Error::Config("missing --out DIR".into()))?;
    let defaults = rl_ccd_exp::RetrainConfig::default();
    let cfg = rl_ccd_exp::RetrainConfig {
        seed: arg(args, "--seed")?.unwrap_or(defaults.seed),
        steps: arg(args, "--steps")?.unwrap_or(defaults.steps),
        batch: arg(args, "--batch")?.unwrap_or(defaults.batch),
        max_staleness: arg(args, "--max-staleness")?.unwrap_or(defaults.max_staleness),
        w_max: arg(args, "--w-max")?.unwrap_or(defaults.w_max),
        learning_rate: arg(args, "--lr")?,
        grad_clip: arg(args, "--grad-clip")?.unwrap_or(defaults.grad_clip),
    };
    let report = rl_ccd_exp::retrain(
        std::path::Path::new(&base),
        std::path::Path::new(&log),
        std::path::Path::new(&out),
        &cfg,
    )
    .map_err(|e| Error::Config(e.to_string()))?;
    println!(
        "retrained v{} -> v{} into {out} ({} offline steps, {} guarded)",
        report.base_version, report.new_version, report.steps_taken, report.guarded_steps
    );
    println!(
        "records: {} loaded, {} duplicates, {} unknown-version, {} stale, \
         {} config-mismatched, {} replay failures",
        report.records_loaded,
        report.duplicates,
        report.unknown_version,
        report.stale,
        report.config_mismatch,
        report.replay_failures
    );
    println!(
        "mean importance weight: {:.4} (effective sample size {:.2}, clamped share {:.3})",
        report.mean_importance_weight, report.effective_sample_size, report.clamped_share
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), Error> {
    let dir: String = arg(args, "--checkpoint")?
        .ok_or_else(|| Error::Config("missing --checkpoint DIR".into()))?;
    let model: String = arg(args, "--model")?.unwrap_or_else(|| "default".into());
    let port: u16 = arg(args, "--port")?.unwrap_or(7878);
    let rho: f32 = arg(args, "--rho")?.unwrap_or_else(|| RlConfig::default().rho);
    let config = ServeConfig {
        max_batch: arg(args, "--max-batch")?.unwrap_or(8),
        queue_capacity: arg(args, "--queue")?.unwrap_or(64),
        workers: arg(args, "--serve-workers")?.unwrap_or(2),
        env_cache: arg(args, "--env-cache")?.unwrap_or(4),
        fanout_cap: arg(args, "--fanout-cap")?.unwrap_or_else(|| RlConfig::default().fanout_cap),
        ..ServeConfig::default()
    };
    let trace = trace_from(args)?;
    let _obs = trace.as_ref().map(|t| rl_ccd_obs::attach(&t.recorder));
    let registry = ModelRegistry::new();
    let entry = registry
        .load(&model, &dir, rho)
        .map_err(|e| Error::Config(format!("{dir}: {e}")))?;
    println!(
        "loaded model {:?} v{} (fingerprint {:016x}) from {dir}",
        entry.name, entry.version, entry.fingerprint
    );
    let mut server = Server::start(registry, config);
    let bind_addr = format!("127.0.0.1:{port}");
    let addr = server.bind(&bind_addr)?;
    println!("serving on {addr} — stop with `rlccd query --shutdown --addr {addr}`");
    while !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let report = server.shutdown();
    println!("drained: {}", report.stats);
    if let Some(t) = &trace {
        t.finish()?;
    }
    if report.dropped() > 0 {
        return Err(Error::Config(format!(
            "drain dropped {} in-flight request(s)",
            report.dropped()
        )));
    }
    Ok(())
}

/// `--chaos-plan SPEC`: a deterministic wire-fault plan in the
/// [`rl_ccd_wire::NetFaultPlan::parse`] format, e.g.
/// `delay:0:1:50,reset:1:0,stall:0:3:2000,torn:1:2,seg:0:0:3`.
fn parse_chaos_plan(
    args: &[String],
) -> Result<Option<std::sync::Arc<rl_ccd_wire::NetFaultPlan>>, Error> {
    arg::<String>(args, "--chaos-plan")?
        .map(|spec| {
            rl_ccd_wire::NetFaultPlan::parse(&spec)
                .map(std::sync::Arc::new)
                .map_err(|e| Error::Config(format!("--chaos-plan: {e}")))
        })
        .transpose()
}

fn serve_connect(addr: &str) -> Result<ServeClient, Error> {
    ServeClient::connect(addr)
        .map_err(|e| Error::Config(format!("cannot reach server at {addr}: {e}")))
}

fn run_queries(
    addr: &str,
    requests: Vec<QueryRequest>,
    retries: u32,
    chaos: Option<(std::sync::Arc<rl_ccd_wire::NetFaultPlan>, u64)>,
) -> Result<Vec<Response>, Error> {
    let mut builder = ServeClient::builder()
        .addr(addr)
        .retry(rl_ccd_wire::RetryPolicy::seeded(0).with_attempts(retries.max(1)));
    if let Some((plan, conn)) = chaos {
        builder = builder.chaos(plan, conn);
    }
    let mut client = builder
        .connect()
        .map_err(|e| Error::Config(format!("cannot reach server at {addr}: {e}")))?;
    requests
        .into_iter()
        .map(|r| {
            client
                .query(r)
                .map_err(|e| Error::Config(format!("query failed: {e}")))
        })
        .collect()
}

fn cmd_query(args: &[String]) -> Result<(), Error> {
    let addr: String = arg(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7878".into());
    if args.iter().any(|a| a == "--shutdown") {
        let mut client = serve_connect(&addr)?;
        client
            .shutdown()
            .map_err(|e| Error::Config(format!("shutdown failed: {e}")))?;
        println!("server at {addr} is draining");
        return Ok(());
    }
    let design: DesignKey = arg::<String>(args, "--design")?
        .ok_or_else(|| Error::Config("missing --design name:cells:tech:seed".into()))?
        .parse()
        .map_err(Error::Config)?;
    let model: String = arg(args, "--model")?.unwrap_or_else(|| "default".into());
    let mode_name: String = arg(args, "--mode")?.unwrap_or_else(|| "greedy".into());
    let seed: u64 = arg(args, "--seed")?.unwrap_or(0);
    let mode = match mode_name.as_str() {
        "greedy" => Mode::Greedy,
        "sample" => Mode::Sample(seed),
        other => {
            return Err(Error::Config(format!(
                "--mode must be greedy or sample, got {other}"
            )))
        }
    };
    let count: usize = arg(args, "--count")?.unwrap_or(1);
    let threads: usize = arg(args, "--threads")?.unwrap_or(1).max(1);
    let deadline_ms: Option<u64> = arg(args, "--deadline-ms")?;
    let retries: u32 = arg(args, "--retries")?.unwrap_or(3);
    let chaos_plan = parse_chaos_plan(args)?;
    // Tenant credentials travel as a pair (the daemon port requires them;
    // a bare serve endpoint ignores them).
    let auth = match (
        arg::<String>(args, "--tenant")?,
        arg::<String>(args, "--token")?,
    ) {
        (Some(tenant), Some(token)) => Some(Credentials { tenant, token }),
        (None, None) => None,
        _ => {
            return Err(Error::Config(
                "--tenant and --token must be given together".into(),
            ))
        }
    };
    let request = |k: u64| QueryRequest {
        model: model.clone(),
        design: design.clone(),
        mode: match mode {
            Mode::Greedy => Mode::Greedy,
            Mode::Sample(s) => Mode::Sample(s.wrapping_add(k)),
        },
        deadline_ms,
        auth: auth.clone(),
    };
    let mut responses = Vec::new();
    if threads == 1 {
        let chaos = chaos_plan.clone().map(|p| (p, 0));
        responses = run_queries(
            &addr,
            (0..count as u64).map(request).collect(),
            retries,
            chaos,
        )?;
    } else {
        // Round-robin the requests over `threads` connections; each
        // connection is its own chaos-plan connection id.
        let mut shards: Vec<Vec<QueryRequest>> = vec![Vec::new(); threads];
        for k in 0..count as u64 {
            shards[k as usize % threads].push(request(k));
        }
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(conn, shard)| {
                let addr = addr.clone();
                let chaos = chaos_plan.clone().map(|p| (p, conn as u64));
                std::thread::spawn(move || run_queries(&addr, shard, retries, chaos))
            })
            .collect();
        for h in handles {
            responses.extend(h.join().expect("query thread panicked")?);
        }
    }
    let mut failed = 0usize;
    for resp in &responses {
        match resp {
            Response::Ok(r) => {
                let sel: Vec<String> = r.selection.iter().map(|e| e.to_string()).collect();
                println!(
                    "{} v{} [batch {} cached {}] {} endpoints: {}",
                    r.model,
                    r.version,
                    r.batch,
                    u8::from(r.cached),
                    r.steps,
                    sel.join(",")
                );
            }
            Response::Err { kind, msg } => {
                failed += 1;
                eprintln!("rejected ({kind}): {msg}");
            }
            Response::Overloaded { retry_after_ms } => {
                failed += 1;
                eprintln!("shed by the server (overloaded, retry after {retry_after_ms} ms)");
            }
            Response::QuotaExceeded { retry_after_ms } => {
                failed += 1;
                eprintln!("tenant quota exceeded (retry after {retry_after_ms} ms)");
            }
            Response::Health(h) => {
                // Queries never produce health replies; a server that
                // answers one here is misbehaving.
                failed += 1;
                eprintln!("unexpected health reply: ready={}", h.ready);
            }
        }
    }
    if failed > 0 {
        return Err(Error::Config(format!(
            "{failed}/{} request(s) rejected",
            responses.len()
        )));
    }
    Ok(())
}

/// Health-checks a serve endpoint (`--addr`) or a fleet of dist workers
/// (`--workers`). Exits non-zero when anything is unreachable or not
/// ready, so scripts can gate on it.
fn cmd_probe(args: &[String]) -> Result<(), Error> {
    let timeout =
        std::time::Duration::from_millis(arg::<u64>(args, "--timeout-ms")?.unwrap_or(5_000).max(1));
    if let Some(w) = arg::<String>(args, "--workers")? {
        let addrs: Vec<String> = w
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if addrs.is_empty() {
            return Err(Error::Config("--workers takes a HOST:PORT list".into()));
        }
        let mut unhealthy = 0usize;
        for addr in &addrs {
            match probe_dist_worker(addr, timeout) {
                Ok(ready) => println!(
                    "worker {addr}: alive, {}",
                    if ready {
                        "initialized"
                    } else {
                        "awaiting init"
                    }
                ),
                Err(why) => {
                    unhealthy += 1;
                    println!("worker {addr}: UNHEALTHY ({why})");
                }
            }
        }
        if unhealthy > 0 {
            return Err(Error::Config(format!(
                "{unhealthy}/{} worker(s) unhealthy",
                addrs.len()
            )));
        }
        return Ok(());
    }
    let addr: String = arg(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7878".into());
    let mut client = serve_connect(&addr)?;
    client.set_timeout(Some(timeout));
    let h = client
        .health()
        .map_err(|e| Error::Config(format!("probe of {addr} failed: {e}")))?;
    println!(
        "serve {addr}: ready={} queue={}/{} models={}",
        u8::from(h.ready),
        h.queue_depth,
        h.queue_capacity,
        h.models
    );
    for v in &h.active {
        println!("  active: {v}");
    }
    if !h.ready {
        return Err(Error::Config(format!("server at {addr} is not ready")));
    }
    Ok(())
}

/// One dist health probe over a dedicated connection. Deliberately not
/// [`rl_ccd_dist::DistExecutor`]: its drop sends `Shutdown`, and a probe
/// must never stop the worker it checks.
fn probe_dist_worker(addr: &str, timeout: std::time::Duration) -> Result<bool, String> {
    use std::net::ToSocketAddrs;
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve: {e}"))?
        .next()
        .ok_or_else(|| "resolved to no address".to_string())?;
    let mut conn = std::net::TcpStream::connect_timeout(&sock, timeout)
        .map_err(|e| format!("connect: {e}"))?;
    conn.set_read_timeout(Some(timeout)).ok();
    conn.set_write_timeout(Some(timeout)).ok();
    let payload = rl_ccd_dist::encode_request(&rl_ccd_dist::Request::Health);
    rl_ccd_dist::write_message(&mut conn, &payload).map_err(|e| format!("send: {e}"))?;
    let reply = rl_ccd_dist::read_message(&mut conn).map_err(|e| format!("receive: {e}"))?;
    match rl_ccd_dist::decode_response(&reply).map_err(|e| format!("decode: {e}"))? {
        rl_ccd_dist::Response::HealthAck { ready } => Ok(ready),
        other => Err(format!("wrong answer to a health probe: {other:?}")),
    }
}

/// Serves rollout requests for distributed training: loads the design and
/// parameters a coordinator sends over `rl-ccd-dist v1`, then answers
/// `run` requests until told to shut down.
fn cmd_worker(args: &[String]) -> Result<(), Error> {
    let port: u16 = arg(args, "--port")?.unwrap_or(7401);
    let listener = std::net::TcpListener::bind(("0.0.0.0", port))?;
    println!("rl-ccd worker serving on {}", listener.local_addr()?);
    // Chaos on the *accept* path: every accepted connection is wrapped,
    // numbered from --conn-base in accept order.
    let mut net = rl_ccd_dist::WorkerNet::default();
    if let Some(plan) = parse_chaos_plan(args)? {
        println!("chaos plan armed: {} wire fault(s)", plan.len());
        net.chaos = Some(plan);
        net.conn_base = arg(args, "--conn-base")?.unwrap_or(0);
    }
    rl_ccd_dist::serve_worker_with(listener, net)?;
    println!("worker shut down");
    Ok(())
}

/// Runs the multi-tenant daemon until an admin sends `drain`.
fn cmd_daemon(args: &[String]) -> Result<(), Error> {
    let dir: String = arg(args, "--checkpoint")?
        .ok_or_else(|| Error::Config("missing --checkpoint DIR".into()))?;
    let port: u16 = arg(args, "--port")?.unwrap_or(7791);
    let admin_port: u16 = arg(args, "--admin-port")?.unwrap_or(7792);
    let rho: f32 = arg(args, "--rho")?.unwrap_or_else(|| RlConfig::default().rho);
    let serve = ServeConfig {
        max_batch: arg(args, "--max-batch")?.unwrap_or(8),
        queue_capacity: arg(args, "--queue")?.unwrap_or(64),
        workers: arg(args, "--serve-workers")?.unwrap_or(2),
        env_cache: arg(args, "--env-cache")?.unwrap_or(4),
        fanout_cap: arg(args, "--fanout-cap")?.unwrap_or_else(|| RlConfig::default().fanout_cap),
        ..ServeConfig::default()
    };
    let gate = rl_ccd::GateSpec::quick(arg(args, "--gate-seed")?.unwrap_or(0xCCD));
    let config = DaemonConfig {
        serve,
        rho,
        gate,
        admin_token: arg(args, "--admin-token")?,
        audit_path: arg::<String>(args, "--audit-out")?.map(PathBuf::from),
        usage_path: arg::<String>(args, "--usage-out")?.map(PathBuf::from),
        usage_flush_ms: arg(args, "--usage-flush-ms")?.unwrap_or(0),
        experience_path: arg::<String>(args, "--exp-out")?.map(PathBuf::from),
    };
    let trace = trace_from(args)?;
    let _obs = trace.as_ref().map(|t| rl_ccd_obs::attach(&t.recorder));
    let registry = ModelRegistry::new();
    let entry = registry
        .load(CHAMPION, &dir, rho)
        .map_err(|e| Error::Config(format!("{dir}: {e}")))?;
    println!(
        "loaded champion v{} (fingerprint {:016x}) from {dir}",
        entry.version, entry.fingerprint
    );
    let mut daemon = Daemon::start(registry, config, std::sync::Arc::new(SystemClock));
    if let Some(specs) = arg::<String>(args, "--tenants")? {
        for spec in specs.split(',').filter(|s| !s.is_empty()) {
            let tenant: TenantConfig = spec.parse().map_err(Error::Config)?;
            println!(
                "tenant {}: {}/s, burst {}, quota {}/30d",
                tenant.id, tenant.rate_per_sec, tenant.burst, tenant.monthly_quota
            );
            daemon.tenants().add(tenant);
        }
    }
    let query_addr = daemon.bind_query(&format!("127.0.0.1:{port}"))?;
    let admin_addr = daemon.bind_admin(&format!("127.0.0.1:{admin_port}"))?;
    println!(
        "tenant port {query_addr}, admin port {admin_addr} — stop with \
         `rlccd admin drain --addr {admin_addr}`"
    );
    while !daemon.drain_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let report = daemon.shutdown();
    println!("drained: {}", report.drain.stats);
    for t in &report.tenants {
        println!(
            "tenant {}: {} accepted, {} denied, {} throttled, {}/{} of quota used",
            t.id,
            t.usage.accepted,
            t.usage.denied,
            t.usage.throttled,
            t.usage.used_in_window,
            t.monthly_quota
        );
    }
    if let Some(t) = &trace {
        t.finish()?;
    }
    if report.drain.dropped() > 0 {
        return Err(Error::Config(format!(
            "drain dropped {} in-flight request(s)",
            report.drain.dropped()
        )));
    }
    Ok(())
}

/// Sends one admin command to a running daemon and prints the answer.
fn cmd_admin(args: &[String]) -> Result<(), Error> {
    use std::net::ToSocketAddrs;
    let action = args
        .first()
        .ok_or_else(|| Error::Config("missing admin action".into()))?
        .clone();
    let rest = &args[1..];
    let addr: String = arg(rest, "--addr")?.unwrap_or_else(|| "127.0.0.1:7792".into());
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| Error::Config(format!("--addr {addr}: {e}")))?
        .next()
        .ok_or_else(|| Error::Config(format!("--addr {addr} resolved to nothing")))?;
    let request = match action.as_str() {
        "status" => AdminRequest::Status,
        "load" => AdminRequest::Load {
            slot: arg(rest, "--slot")?.unwrap_or_else(|| "challenger".into()),
            dir: arg(rest, "--dir")?.ok_or_else(|| Error::Config("load needs --dir DIR".into()))?,
            rho: arg(rest, "--rho")?.unwrap_or(0.0), // 0 = daemon's default
        },
        "gate" => AdminRequest::Gate,
        "promote" => AdminRequest::Promote {
            force: rest.iter().any(|a| a == "--force"),
        },
        "rollback" => AdminRequest::Rollback,
        "canary" => AdminRequest::Canary {
            fraction: arg(rest, "--fraction")?
                .ok_or_else(|| Error::Config("canary needs --fraction F".into()))?,
        },
        "tenant-add" => AdminRequest::TenantAdd {
            spec: arg(rest, "--spec")?
                .ok_or_else(|| Error::Config("tenant-add needs --spec".into()))?,
        },
        "tenant-del" => AdminRequest::TenantDel {
            id: arg(rest, "--id")?.ok_or_else(|| Error::Config("tenant-del needs --id".into()))?,
        },
        "tenant-list" => AdminRequest::TenantList,
        "retrain" => {
            let defaults = rl_ccd_exp::RetrainConfig::default();
            AdminRequest::Retrain {
                base: arg(rest, "--base")?
                    .ok_or_else(|| Error::Config("retrain needs --base DIR".into()))?,
                log: arg(rest, "--log")?
                    .ok_or_else(|| Error::Config("retrain needs --log FILE".into()))?,
                out: arg(rest, "--out")?
                    .ok_or_else(|| Error::Config("retrain needs --out DIR".into()))?,
                seed: arg(rest, "--seed")?.unwrap_or(defaults.seed),
                steps: arg(rest, "--steps")?.unwrap_or(defaults.steps),
            }
        }
        "drain" => AdminRequest::Drain,
        other => return Err(Error::Config(format!("unknown admin action {other:?}"))),
    };
    let client = AdminClient::new(sock, arg(rest, "--admin-token")?);
    match client.call(&request).map_err(Error::Config)? {
        AdminReply::Ok { info } => println!("{info}"),
        AdminReply::Status(s) => {
            println!(
                "ready={} queue={} canary={} tenants={}",
                u8::from(s.ready),
                s.queue_depth,
                s.canary,
                s.tenants
            );
            let slot = |v: &Option<rl_ccd_serve::ModelVersion>| {
                v.as_ref().map_or("(empty)".to_string(), |m| m.to_string())
            };
            println!("champion:   {}", slot(&s.champion));
            println!("challenger: {}", slot(&s.challenger));
        }
        AdminReply::Tenants(list) => {
            println!(
                "{:<12} {:>8} {:>6} {:>10} {:>8} {:>8} {:>8} {:>9}",
                "tenant", "rate/s", "burst", "quota/30d", "used", "accepted", "denied", "throttled"
            );
            for t in list {
                println!(
                    "{:<12} {:>8} {:>6} {:>10} {:>8} {:>8} {:>8} {:>9}",
                    t.id,
                    t.rate_per_sec,
                    t.burst,
                    t.monthly_quota,
                    t.usage.used_in_window,
                    t.usage.accepted,
                    t.usage.denied,
                    t.usage.throttled
                );
            }
        }
        AdminReply::Err { msg } => return Err(Error::Config(msg)),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let flags = check_flags(cmd, rest);
    let result = match cmd.as_str() {
        _ if flags.is_err() => flags,
        "generate" => cmd_generate(rest),
        "report" => cmd_report(rest),
        "flow" => cmd_flow(rest),
        "train" => cmd_train(rest),
        "transfer" => cmd_transfer(rest),
        "baseline" => cmd_baseline(rest),
        "verilog" => cmd_verilog(rest),
        "suite" => cmd_suite(rest),
        "trace-validate" => cmd_trace_validate(rest),
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "probe" => cmd_probe(rest),
        "worker" => cmd_worker(rest),
        "daemon" => cmd_daemon(rest),
        "admin" => cmd_admin(rest),
        "exp-validate" => cmd_exp_validate(rest),
        "retrain" => cmd_retrain(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // Argument errors additionally show how to call the failing
            // subcommand (I/O and training failures do not).
            if matches!(e, Error::Config(_)) {
                usage_for(cmd);
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `--flag` a usage line names.
    fn named_flags(usage: &str) -> Vec<String> {
        usage
            .match_indices("--")
            .map(|(at, _)| {
                let name: String = usage[at + 2..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                format!("--{name}")
            })
            .collect()
    }

    #[test]
    fn every_flag_in_a_usage_line_is_accepted_by_its_subcommand() {
        for (cmd, usage) in USAGE_TABLE {
            for flag in named_flags(usage) {
                let args = [flag.clone(), "1".to_string()];
                if let Err(e) = check_flags(cmd, &args) {
                    panic!("{cmd} refuses its own {flag}: {e}");
                }
            }
        }
    }

    #[test]
    fn unnamed_flags_and_prefixes_of_named_ones_are_refused() {
        for (cmd, flag) in [
            ("serve", "--window-ms"),
            ("daemon", "--window-ms"),
            ("train", "--tape-budget-gib"),
            ("train", "--iter"),
            ("serve", "--reactor"),
        ] {
            let args = [flag.to_string(), "2".to_string()];
            let err = check_flags(cmd, &args).expect_err(flag).to_string();
            assert!(
                err.contains(&format!("{cmd} has no flag {flag}")),
                "{cmd} {flag}: {err}"
            );
        }
    }
}
