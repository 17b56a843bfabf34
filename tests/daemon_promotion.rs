//! Daemon promotion acceptance: zero-downtime hot swap, gated
//! champion/challenger promotion, and rollback.
//!
//! The contracts under test:
//!
//! - continuous tenant traffic across `load` → eval-gate → `promote` →
//!   `rollback` drops nothing and every single response is **whole
//!   version**: its selection equals the sequential reference for the
//!   version the reply claims, never a mix of old and new weights;
//! - per connection the observed version sequence switches atomically —
//!   champion's version, then the challenger's, then (after rollback)
//!   the champion's again, with no other transitions;
//! - promoting a **bit-identical** checkpoint leaves greedy selections
//!   byte-for-byte unchanged, before, during, and after the swap;
//! - the hot swap stays whole-version under injected network chaos
//!   (latency, torn frames, a connection reset) on the streaming client.

use rl_ccd::gate::GateSpec;
use rl_ccd::{evaluate_policy, save_training_state, RlCcd, RlConfig, TrainingState};
use rl_ccd_daemon::{
    AdminClient, AdminReply, AdminRequest, Daemon, DaemonConfig, SystemClock, CHALLENGER, CHAMPION,
};
use rl_ccd_flow::FlowRecipe;
use rl_ccd_netlist::{generate, DesignSpec, Library, TechNode};
use rl_ccd_serve::{
    Credentials, DesignKey, Mode, ModelRegistry, QueryRequest, Response, ServeClient, ServeConfig,
};
use rl_ccd_wire::{NetFaultPlan, RetryPolicy};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TENANT: &str = "acme";
const TOKEN: &str = "s3cret";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rl_ccd_daemon_promotion_{tag}"));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Saves a deterministic checkpoint: `seed` pins the weights,
/// `next_iteration` becomes the served version.
fn save_ckpt(dir: &Path, seed: u64, next_iteration: usize) {
    let config = RlConfig {
        seed,
        ..RlConfig::fast()
    };
    let (_, params) = RlCcd::init(config.clone());
    let state = TrainingState {
        next_iteration,
        seed_base: config.seed,
        best_reward: -1.0,
        best_mean: -2.0,
        stale: 0,
        best_selection: vec![],
        params,
        adam: rl_ccd_nn::Adam::new(config.learning_rate),
        history: vec![],
        faults: vec![],
    };
    save_training_state(&state, dir).expect("save checkpoint");
}

fn design_key() -> DesignKey {
    DesignKey {
        name: "hotswap".into(),
        cells: 220,
        tech: "7nm".into(),
        seed: 3,
    }
}

/// The sequential reference for a checkpoint dir, assembled exactly the
/// way the registry assembles it (config inferred from shapes).
fn reference_selection(dir: &Path, rho: f32, key: &DesignKey, fanout_cap: usize) -> Vec<usize> {
    let entry = ModelRegistry::prepare("ref", dir, rho).expect("prepare reference");
    let tech = Library::parse_tech(&key.tech).expect("known tech");
    let design = generate(&DesignSpec::new(
        key.name.clone(),
        key.cells,
        tech,
        key.seed,
    ));
    let env = rl_ccd::CcdEnv::new(design, FlowRecipe::default(), fanout_cap);
    evaluate_policy(&entry.model, &entry.params, &env, 0, 0)
        .greedy_selection
        .iter()
        .map(|e| e.index())
        .collect()
}

/// A one-design, infinitely lax gate: still runs (and is audited), but
/// never blocks the promotions these tests choreograph.
fn lax_gate() -> GateSpec {
    GateSpec {
        designs: vec![DesignSpec::new("gate_tiny", 200, TechNode::N7, 1)],
        fanout_cap: 24,
        tolerance: f64::INFINITY,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 2,
        workers: 2,
        fanout_cap: RlConfig::fast().fanout_cap,
        ..ServeConfig::default()
    }
}

fn creds() -> Option<Credentials> {
    Some(Credentials {
        tenant: TENANT.into(),
        token: TOKEN.into(),
    })
}

fn champion_query() -> QueryRequest {
    QueryRequest {
        model: CHAMPION.into(),
        design: design_key(),
        mode: Mode::Greedy,
        deadline_ms: Some(30_000),
        auth: creds(),
    }
}

fn start_daemon(champ_dir: &Path, rho: f32) -> Daemon {
    let registry = ModelRegistry::new();
    registry
        .load(CHAMPION, champ_dir, rho)
        .expect("load champion");
    let mut daemon = Daemon::start(
        registry,
        DaemonConfig {
            serve: serve_config(),
            rho,
            gate: lax_gate(),
            ..DaemonConfig::default()
        },
        Arc::new(SystemClock),
    );
    daemon.tenants().add(
        format!("{TENANT}:{TOKEN}:100000:100000:100000000")
            .parse()
            .unwrap(),
    );
    daemon.bind_query("127.0.0.1:0").expect("bind query");
    daemon.bind_admin("127.0.0.1:0").expect("bind admin");
    daemon
}

/// Counts version transitions in one connection's observed sequence.
fn transitions(seq: &[usize]) -> usize {
    seq.windows(2).filter(|w| w[0] != w[1]).count()
}

/// The headline acceptance run: four streaming tenants ride straight
/// through load → gate → promote → rollback. Nothing is dropped, every
/// response is whole-version against the sequential reference for the
/// version it claims, and each connection sees at most the two real
/// transitions (promote, rollback) — the swap is atomic.
#[test]
fn promotion_is_zero_downtime_and_every_response_is_whole_version() {
    let rho = 0.3;
    let champ_dir = tmp_dir("zero_champ");
    let chall_dir = tmp_dir("zero_chall");
    save_ckpt(&champ_dir, 5, 1);
    save_ckpt(&chall_dir, 99, 2); // different weights AND version
    let key = design_key();
    let fanout_cap = serve_config().fanout_cap;
    let expected: HashMap<usize, Vec<usize>> = HashMap::from([
        (1, reference_selection(&champ_dir, rho, &key, fanout_cap)),
        (2, reference_selection(&chall_dir, rho, &key, fanout_cap)),
    ]);
    assert_ne!(
        expected[&1], expected[&2],
        "the two checkpoints must answer differently for the \
         whole-version check to mean anything"
    );

    let daemon = start_daemon(&champ_dir, rho);
    let query_addr = daemon.query_addr().unwrap();
    let admin = AdminClient::new(daemon.admin_addr().unwrap(), None);

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let stop = stop.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(query_addr).expect("connect");
                let mut versions = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    let resp = client.query(champion_query()).expect("transport");
                    let Response::Ok(reply) = resp else {
                        panic!("streaming query rejected mid-swap: {resp:?}")
                    };
                    let want = expected
                        .get(&reply.version)
                        .unwrap_or_else(|| panic!("unknown version {}", reply.version));
                    assert_eq!(
                        &reply.selection, want,
                        "version {} reply does not match that version's \
                         sequential reference: torn swap",
                        reply.version
                    );
                    versions.push(reply.version);
                }
                versions
            })
        })
        .collect();

    // Let traffic establish on the champion, then run the promotion
    // choreography over the admin port while the clients stream.
    std::thread::sleep(Duration::from_millis(100));
    let r = admin
        .call(&AdminRequest::Load {
            slot: CHALLENGER.into(),
            dir: chall_dir.to_string_lossy().into_owned(),
            rho,
        })
        .unwrap();
    assert!(matches!(r, AdminReply::Ok { .. }), "{r:?}");
    let r = admin.call(&AdminRequest::Gate).unwrap();
    let AdminReply::Ok { info } = r else {
        panic!("gate dry run failed: {r:?}")
    };
    assert!(info.contains("pass"), "lax gate passes: {info}");
    let r = admin.call(&AdminRequest::Promote { force: false }).unwrap();
    assert!(matches!(r, AdminReply::Ok { .. }), "{r:?}");
    // The challenger's weights now answer the champion slot.
    let mut probe = ServeClient::connect(query_addr).expect("connect probe");
    let Response::Ok(reply) = probe.query(champion_query()).unwrap() else {
        panic!("probe after promote")
    };
    assert_eq!(
        reply.version, 2,
        "champion slot serves the promoted version"
    );
    std::thread::sleep(Duration::from_millis(100));
    let r = admin.call(&AdminRequest::Rollback).unwrap();
    assert!(matches!(r, AdminReply::Ok { .. }), "{r:?}");
    let Response::Ok(reply) = probe.query(champion_query()).unwrap() else {
        panic!("probe after rollback")
    };
    assert_eq!(reply.version, 1, "rollback restored the old champion");
    std::thread::sleep(Duration::from_millis(100));

    stop.store(true, Ordering::SeqCst);
    let mut total = 0usize;
    for client in clients {
        let versions = client.join().expect("client thread");
        assert!(!versions.is_empty(), "client streamed zero queries");
        assert_eq!(versions[0], 1, "traffic started on the champion");
        assert!(
            transitions(&versions) <= 2,
            "a connection may see exactly the promote and rollback \
             transitions, nothing else: {versions:?}"
        );
        total += versions.len();
    }
    let report = daemon.shutdown();
    assert_eq!(report.drain.dropped(), 0, "zero downtime means zero drops");
    assert_eq!(
        report.tenants[0].usage.accepted as usize,
        total + 2,
        "every streamed query (plus the two probes) was admitted"
    );
}

/// Promoting a checkpoint with identical bytes is invisible: greedy
/// selections are bit-identical before, after, and after rollback, and
/// the gate scores the two checkpoints exactly equal.
#[test]
fn promoting_an_identical_checkpoint_keeps_selections_bit_identical() {
    let rho = 0.3;
    let champ_dir = tmp_dir("ident_champ");
    let chall_dir = tmp_dir("ident_chall");
    save_ckpt(&champ_dir, 5, 1);
    save_ckpt(&chall_dir, 5, 1); // same seed, same iteration: same bytes

    let daemon = start_daemon(&champ_dir, rho);
    let query_addr = daemon.query_addr().unwrap();
    let admin = AdminClient::new(daemon.admin_addr().unwrap(), None);

    let mut client = ServeClient::connect(query_addr).expect("connect");
    let Response::Ok(before) = client.query(champion_query()).unwrap() else {
        panic!("pre-promotion query")
    };

    let r = admin
        .call(&AdminRequest::Load {
            slot: CHALLENGER.into(),
            dir: chall_dir.to_string_lossy().into_owned(),
            rho,
        })
        .unwrap();
    assert!(matches!(r, AdminReply::Ok { .. }), "{r:?}");
    // Identical bytes share a fingerprint: the status report proves the
    // two slots hold the same checkpoint.
    let AdminReply::Status(status) = admin.call(&AdminRequest::Status).unwrap() else {
        panic!("status")
    };
    let champ_fp = status.champion.as_ref().unwrap().fingerprint;
    let chall_fp = status.challenger.as_ref().unwrap().fingerprint;
    assert_eq!(champ_fp, chall_fp, "identical checkpoint bytes");

    let r = admin.call(&AdminRequest::Promote { force: false }).unwrap();
    let AdminReply::Ok { info } = r else {
        panic!("identical checkpoints must pass the gate: {r:?}")
    };
    assert!(info.contains("pass"), "{info}");

    let Response::Ok(after) = client.query(champion_query()).unwrap() else {
        panic!("post-promotion query")
    };
    assert_eq!(
        before.selection, after.selection,
        "promoting identical bytes changed an answer"
    );
    assert_eq!(
        before.version, after.version,
        "identical state, same version"
    );

    let r = admin.call(&AdminRequest::Rollback).unwrap();
    assert!(matches!(r, AdminReply::Ok { .. }), "{r:?}");
    let Response::Ok(restored) = client.query(champion_query()).unwrap() else {
        panic!("post-rollback query")
    };
    assert_eq!(before.selection, restored.selection);

    let report = daemon.shutdown();
    assert_eq!(report.drain.dropped(), 0);
}

/// S3 chaos variant: the streaming client weathers injected latency,
/// adversarial frame segmentation, and a mid-stream connection reset
/// while the daemon promotes underneath it — and still sees only
/// whole-version responses.
#[test]
fn hot_swap_stays_whole_version_under_client_chaos() {
    let rho = 0.3;
    let champ_dir = tmp_dir("chaos_champ");
    let chall_dir = tmp_dir("chaos_chall");
    save_ckpt(&champ_dir, 5, 1);
    save_ckpt(&chall_dir, 99, 2);
    let key = design_key();
    let fanout_cap = serve_config().fanout_cap;
    let expected: HashMap<usize, Vec<usize>> = HashMap::from([
        (1, reference_selection(&champ_dir, rho, &key, fanout_cap)),
        (2, reference_selection(&chall_dir, rho, &key, fanout_cap)),
    ]);

    let daemon = start_daemon(&champ_dir, rho);
    let query_addr = daemon.query_addr().unwrap();
    let admin = AdminClient::new(daemon.admin_addr().unwrap(), None);
    let r = admin
        .call(&AdminRequest::Load {
            slot: CHALLENGER.into(),
            dir: chall_dir.to_string_lossy().into_owned(),
            rho,
        })
        .unwrap();
    assert!(matches!(r, AdminReply::Ok { .. }), "{r:?}");

    // Frames on the client connection interleave write/read per query:
    // delay the second query's request, tear the third's reply into
    // 3-byte segments, reset the socket on the fourth's request (the
    // retry policy reconnects and re-issues; frame numbering resumes, so
    // the reset cannot re-fire).
    let plan = Arc::new(
        NetFaultPlan::none()
            .with_delay(0, 2, 20)
            .with_segmented(0, 5, 3)
            .with_reset(0, 6),
    );
    let promoted = Arc::new(AtomicBool::new(false));
    let streamer = {
        let plan = Arc::clone(&plan);
        let promoted = Arc::clone(&promoted);
        let expected = expected.clone();
        std::thread::spawn(move || {
            let mut client = ServeClient::builder()
                .addr(query_addr)
                .retry(RetryPolicy::seeded(13))
                .chaos(plan, 0)
                .connect()
                .expect("connect chaos client");
            let mut versions = Vec::new();
            // Keep streaming until we have seen traffic on both sides of
            // the promotion (bounded: the promote flag plus 3 more).
            let mut after_promote = 0usize;
            while after_promote < 3 {
                let resp = client.query(champion_query()).expect("chaos transport");
                let Response::Ok(reply) = resp else {
                    panic!("chaos stream rejected: {resp:?}")
                };
                assert_eq!(
                    &reply.selection, &expected[&reply.version],
                    "torn response under chaos (version {})",
                    reply.version
                );
                versions.push(reply.version);
                if promoted.load(Ordering::SeqCst) {
                    after_promote += 1;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            (versions, client.reconnects())
        })
    };

    std::thread::sleep(Duration::from_millis(60));
    let r = admin.call(&AdminRequest::Promote { force: false }).unwrap();
    assert!(matches!(r, AdminReply::Ok { .. }), "{r:?}");
    promoted.store(true, Ordering::SeqCst);

    let (versions, reconnects) = streamer.join().expect("chaos streamer");
    assert!(plan.fired() >= 2, "chaos coordinates were actually hit");
    assert!(reconnects >= 1, "the reset forced a reconnect");
    assert_eq!(
        *versions.last().unwrap(),
        2,
        "the stream ended on the promoted version: {versions:?}"
    );
    assert!(
        transitions(&versions) <= 1,
        "one promote, at most one transition: {versions:?}"
    );
    let report = daemon.shutdown();
    assert_eq!(report.drain.dropped(), 0);
}
