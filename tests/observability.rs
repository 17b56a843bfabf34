//! The observability layer end to end: a traced run emits a schema-valid
//! JSONL stream covering spans and metrics from STA, the flow, and the
//! training loop; a detached recorder sees nothing; and instrumentation
//! never changes the numbers.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd::{CcdEnv, InferSession, RlCcd, RlConfig, Session};
use rl_ccd_flow::FlowRecipe;
use rl_ccd_netlist::{generate, DesignSpec, GeneratedDesign, TechNode};
use rl_ccd_obs::Recorder;
use std::path::PathBuf;
use std::sync::Arc;

fn tiny_design() -> GeneratedDesign {
    generate(&DesignSpec::new("obs-e2e", 500, TechNode::N7, 23))
}

fn fast_cfg() -> RlConfig {
    let mut cfg = RlConfig::fast();
    cfg.workers = 3;
    cfg.max_iterations = 2;
    cfg.patience = 2;
    cfg
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rl-ccd-obs-{name}-{}.jsonl", std::process::id()))
}

/// The schema snapshot: a tiny deterministic flow + training run must emit
/// a valid `rl-ccd-trace` v1 stream whose span and metric names cover the
/// instrumented layers (sta, flow, core).
#[test]
fn traced_run_emits_schema_valid_jsonl_covering_all_layers() {
    let recorder = Recorder::new();
    recorder.set_meta("design", "obs-e2e");
    let session = Session::builder()
        .design(tiny_design())
        .rl_config(fast_cfg())
        .recorder(recorder.clone())
        .build()
        .expect("session");
    session.run_flow().expect("flow");
    session.train().expect("train");

    let path = tmp("snapshot");
    session.write_trace(&path).expect("trace written");
    let text = std::fs::read_to_string(&path).expect("trace file");
    let summary = rl_ccd_obs::validate_jsonl(text.as_bytes()).expect("schema-valid trace");
    let _ = std::fs::remove_file(&path);

    assert_eq!(summary.version, rl_ccd_obs::TRACE_SCHEMA_VERSION);
    assert_eq!(
        summary.meta.get("design").map(String::as_str),
        Some("obs-e2e")
    );
    assert!(summary.spans > 0 && summary.metrics > 0);

    // Spans from every instrumented layer.
    for span in [
        "sta.full_recompute",
        "flow.run",
        "flow.useful_skew",
        "flow.signoff",
        "train.run",
        "train.iteration",
        "train.rollout",
        "train.greedy_eval",
    ] {
        assert!(
            summary.span_names.iter().any(|n| n == span),
            "span {span} missing from {:?}",
            summary.span_names
        );
    }
    // Metrics from every instrumented layer.
    for metric in [
        "sta.incremental.moves",
        "sta.incremental.frontier_cells",
        "flow.useful_skew.sweeps",
        "flow.useful_skew.moves",
        "nn.tape.backward_passes",
        "train.rollout.reward",
        "train.iterations",
    ] {
        assert!(
            summary.metric_names.iter().any(|n| n == metric),
            "metric {metric} missing from {:?}",
            summary.metric_names
        );
    }
}

/// A recorder that is never attached collects nothing, even while the
/// instrumented hot paths run.
#[test]
fn detached_recorder_sees_nothing() {
    let recorder = Recorder::new();
    let session = Session::builder()
        .design(tiny_design())
        .build()
        .expect("session");
    session.run_flow().expect("flow");
    assert!(recorder.is_empty(), "detached recorder must stay empty");
    assert!(session.recorder().is_none());
    assert!(session.summary().is_none());
}

/// Instrumentation is observational only: the same design produces
/// bit-identical QoR with and without a recorder attached.
#[test]
fn instrumented_and_uninstrumented_flows_agree() {
    let design = tiny_design();
    let plain = Session::builder()
        .design(design.clone())
        .build()
        .expect("session")
        .run_flow()
        .expect("flow");
    let traced_session = Session::builder()
        .design(design)
        .recorder(Recorder::new())
        .build()
        .expect("session");
    let traced = traced_session.run_flow().expect("flow");

    assert_eq!(plain.final_qor.wns_ps, traced.final_qor.wns_ps);
    assert_eq!(plain.final_qor.tns_ps, traced.final_qor.tns_ps);
    assert_eq!(plain.final_qor.nve, traced.final_qor.nve);
    assert_eq!(plain.final_qor.power_mw, traced.final_qor.power_mw);
    // And the traced run did record the flow.
    let rec = traced_session.recorder().expect("recorder present");
    assert!(!rec.is_empty());
    assert!(rec.spans().iter().any(|s| s.name == "flow.run"));
}

/// Training with a recorder attached matches training without one —
/// rollout seeds and update order are untouched by span collection.
#[test]
fn instrumented_and_uninstrumented_training_agree() {
    let design = tiny_design();
    let cfg = fast_cfg();
    let plain = Session::builder()
        .design(design.clone())
        .rl_config(cfg.clone())
        .build()
        .expect("session")
        .train()
        .expect("train");
    let traced = Session::builder()
        .design(design)
        .rl_config(cfg)
        .recorder(Recorder::new())
        .build()
        .expect("session")
        .train()
        .expect("train");

    assert_eq!(plain.best_selection, traced.best_selection);
    assert_eq!(
        plain.best_result.final_qor.tns_ps,
        traced.best_result.final_qor.tns_ps
    );
    assert_eq!(plain.history, traced.history);
}

/// The backward pass reports how many rows of the gradients entering its
/// `Linear` / `Spmm` ops carried any gradient: on a ~2k-cell design most
/// do not (only the endpoints' fan-in cones and their neighbours do), and
/// the fast lane skips those.
#[test]
fn backward_reports_its_live_rows() {
    let mut cfg = RlConfig::fast();
    cfg.workers = 2;
    cfg.max_iterations = 1;
    let recorder = Recorder::new();
    Session::builder()
        .design(generate(&DesignSpec::new(
            "obs-rows",
            2000,
            TechNode::N7,
            24,
        )))
        .rl_config(cfg)
        .recorder(recorder.clone())
        .build()
        .expect("session")
        .train()
        .expect("train");
    let metrics = recorder.metrics();
    let rows = metrics.counter("nn.tape.backward_rows").get();
    let live = metrics.counter("nn.tape.backward_rows_live").get();
    assert!(0 < live && live < rows, "live {live} of {rows} rows");
}

/// A query served from a held encode runs no dense encode and patches the
/// encoder once between consecutive selections: k − 1 patches for k
/// steps, none after the last. Each patch reports its frontier size.
#[test]
fn a_held_encode_query_patches_between_selections_only() {
    let design = generate(&DesignSpec::new("obs-patch", 600, TechNode::N7, 33));
    let env = CcdEnv::new(design, FlowRecipe::default(), 24);
    let (model, params) = RlCcd::init(RlConfig::fast());
    let mut session = InferSession::new(&model, &params);
    let stored = Arc::new(session.encode(&env));
    session.hold(stored);
    let recorder = Recorder::new();
    let selected = {
        let _obs = rl_ccd_obs::attach(&recorder);
        session.sample(&env, &mut StdRng::seed_from_u64(3))
    };
    assert!(selected.len() >= 2, "{} steps", selected.len());
    let spans = recorder.spans();
    let encodes = spans
        .iter()
        .filter(|s| s.name == "core.incremental.encode0");
    assert_eq!(encodes.count(), 0);
    let patches: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "core.incremental.patch")
        .collect();
    assert_eq!(patches.len(), selected.len() - 1);
    for span in patches {
        let keys: Vec<&str> = span.fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["rows", "endpoints"]);
    }
}
