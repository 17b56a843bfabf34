//! No recorder outlives the session that attached it. `rl_ccd_obs`'s
//! enabled flag is process-global, so this is the only test in its binary:
//! a recorder attached by any other test would read as a leak here.

use rl_ccd::{RlConfig, Session};
use rl_ccd_netlist::{generate, DesignSpec, TechNode};
use rl_ccd_obs::Recorder;

/// A traced flow and a three-worker training run (each rollout thread
/// re-attaches the recorder) leave the disabled fast path in place once
/// the session is gone.
#[test]
fn a_traced_session_leaves_no_recorder_attached() {
    assert!(!rl_ccd_obs::enabled(), "nothing is attached at start");
    let mut cfg = RlConfig::fast();
    cfg.workers = 3;
    cfg.max_iterations = 1;
    let recorder = Recorder::new();
    let session = Session::builder()
        .design(generate(&DesignSpec::new(
            "obs-detach",
            500,
            TechNode::N7,
            23,
        )))
        .rl_config(cfg)
        .recorder(recorder.clone())
        .build()
        .expect("session");
    session.run_flow().expect("flow");
    session.train().expect("train");
    drop(session);
    assert!(
        recorder.spans().iter().any(|s| s.name == "train.rollout"),
        "the rollout threads recorded"
    );
    assert!(!rl_ccd_obs::enabled(), "no recorder may leak in");
}
