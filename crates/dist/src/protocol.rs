//! The `rl-ccd-dist v1` wire protocol: what the training coordinator and
//! rollout workers exchange over TCP.
//!
//! The format is the shared [`rl_ccd_wire`] two-layer scheme — length-
//! prefixed frames around a versioned text envelope whose `key=value`
//! grammar is [`rl_ccd_wire::fields`] — with a larger frame
//! cap ([`DIST_MAX_FRAME_LEN`]) because init frames carry a serialized
//! netlist and run frames carry the full parameter set. Everything is
//! plain text: Rust's shortest-roundtrip float formatting makes every
//! value bit-exact across the wire, which the determinism contract of
//! [`rl_ccd::RolloutExecutor`] depends on.
//!
//! A session is: one [`Request::Init`] (design + recipe + config, so the
//! worker can rebuild the environment and model the trainer holds), then
//! one [`Request::Run`] per training iteration carrying the current
//! parameters and this worker's `(slot, seed)` share of the batch, each
//! answered by a [`Response::Batch`] of lean rollouts — selection, reward
//! and `∇ Σ log π` only; the trainer recomputes the champion's flow result
//! locally — plus quarantine records.

use rl_ccd::{EncoderKind, FaultKind, RlConfig, RolloutFault};
use rl_ccd_flow::{DatapathOpts, FlowRecipe, MarginMode, UsefulSkewOpts};
use rl_ccd_nn::{GradSet, ParamSet};
use rl_ccd_wire::fields::{quote, split_verb, Fields, Writer};
use rl_ccd_wire::{read_frame_limited, split_versioned, write_frame_limited};
use std::fmt;
use std::io::{self, Read, Write};

/// Version token on line 1 of every dist payload.
pub const PROTOCOL_VERSION: &str = "rl-ccd-dist v1";

/// Frame cap for dist messages (256 MiB): init frames carry a full
/// serialized netlist and run frames a full parameter set, far past the
/// control-message default of [`rl_ccd_wire::MAX_FRAME_LEN`].
pub const DIST_MAX_FRAME_LEN: usize = 256 << 20;

/// Writes one dist-capped frame.
///
/// # Errors
/// Propagates I/O errors; `InvalidInput` past [`DIST_MAX_FRAME_LEN`].
pub fn write_message<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    write_frame_limited(w, payload, DIST_MAX_FRAME_LEN)
}

/// Reads one dist-capped frame.
///
/// # Errors
/// Propagates I/O errors; `InvalidData` on an oversized length prefix and
/// `UnexpectedEof` on a torn frame.
pub fn read_message<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    read_frame_limited(r, DIST_MAX_FRAME_LEN)
}

/// A coordinator → worker message.
// `Init` dwarfs the other variants, but exactly one is ever alive per
// worker connection — boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Load a design and build the environment and model once, before any
    /// rollouts.
    Init(InitRequest),
    /// Run one iteration's share of rollouts.
    Run(RunRequest),
    /// Liveness/readiness probe: answered inline, never touches the
    /// rollout path, legal before `Init`.
    Health,
    /// Stop serving and exit the accept loop.
    Shutdown,
}

/// A worker → coordinator message.
#[derive(Clone, Debug)]
pub enum Response {
    /// The worker finished building its environment.
    InitAck {
        /// Total endpoints in the rebuilt design.
        endpoints: usize,
        /// Size of the violating-endpoint pool (must match the
        /// coordinator's, or the designs diverged).
        pool: usize,
    },
    /// One iteration's surviving rollouts plus quarantine records.
    Batch(BatchResponse),
    /// Answer to a [`Request::Health`] probe.
    HealthAck {
        /// Whether the worker has an initialized environment and can
        /// serve `Run` requests (`false` before `Init` — still alive).
        ready: bool,
    },
    /// The worker could not serve the request.
    Err {
        /// Human-readable reason.
        message: String,
    },
}

/// Body of [`Request::Init`].
#[derive(Clone, Debug, PartialEq)]
pub struct InitRequest {
    /// Clock period of the design, ps (carried beside the netlist text —
    /// the netlist format does not store it).
    pub period_ps: f32,
    /// The flow recipe every rollout evaluation runs.
    pub recipe: FlowRecipe,
    /// The RL configuration (the worker rebuilds the model from its seed
    /// and widths).
    pub config: RlConfig,
    /// The design netlist in [`rl_ccd_netlist::write_netlist`] text form.
    pub netlist_text: String,
}

/// Body of [`Request::Run`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunRequest {
    /// Training iteration index.
    pub iteration: usize,
    /// Coordinator-unique request id. Retried dispatches re-use the id,
    /// so a worker that already served it can replay its cached reply
    /// instead of recomputing (idempotent re-issue). 0 means "no id".
    pub req_id: u64,
    /// Remaining deadline budget at send time, ms. The worker uses it to
    /// bound its reply write — a coordinator that has already given up is
    /// not worth blocking on. Absent means unbounded.
    pub budget_ms: Option<u64>,
    /// This worker's `(slot, seed)` share of the iteration's batch.
    pub pairs: Vec<(usize, u64)>,
    /// Test-only fault injections the worker should apply.
    pub injects: Vec<Inject>,
    /// Current policy parameters.
    pub params: ParamSet,
}

/// A fault injection carried to a worker (test harness and chaos drills
/// only; the empty list is the production path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Die mid-batch: close the connection without replying and stop
    /// serving.
    Drop,
    /// Write a torn frame (length prefix promising more bytes than
    /// follow), then die.
    Torn,
    /// Stall this many milliseconds before replying — past the
    /// coordinator's deadline, so the reply lands on an abandoned socket.
    SleepMs(u64),
    /// Panic the rollout at this slot (quarantined in-worker).
    Panic(usize),
    /// Replace the reward of the rollout at this slot with NaN.
    NanReward(usize),
    /// Poison one gradient element of the rollout at this slot.
    Poison(usize),
}

impl fmt::Display for Inject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inject::Drop => write!(f, "drop"),
            Inject::Torn => write!(f, "torn"),
            Inject::SleepMs(ms) => write!(f, "sleep:{ms}"),
            Inject::Panic(slot) => write!(f, "panic:{slot}"),
            Inject::NanReward(slot) => write!(f, "nan:{slot}"),
            Inject::Poison(slot) => write!(f, "poison:{slot}"),
        }
    }
}

impl Inject {
    fn decode(tok: &str) -> Result<Self, String> {
        let (kind, arg) = match tok.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (tok, None),
        };
        let num = |what: &str| -> Result<u64, String> {
            arg.ok_or_else(|| format!("inject {what} needs an argument"))?
                .parse::<u64>()
                .map_err(|e| format!("bad inject argument: {e}"))
        };
        Ok(match kind {
            "drop" => Inject::Drop,
            "torn" => Inject::Torn,
            "sleep" => Inject::SleepMs(num("sleep")?),
            "panic" => Inject::Panic(num("panic")? as usize),
            "nan" => Inject::NanReward(num("nan")? as usize),
            "poison" => Inject::Poison(num("poison")? as usize),
            _ => return Err("unknown inject token".into()),
        })
    }
}

/// One executed rollout as it crosses the wire — lean: no flow result.
#[derive(Clone, Debug)]
pub struct RolloutItem {
    /// Worker slot within the iteration.
    pub slot: usize,
    /// The rollout's sampling seed.
    pub seed: u64,
    /// Trajectory length.
    pub steps: usize,
    /// Trajectory reward (final TNS, ps).
    pub reward: f64,
    /// Selected endpoint indices, in selection order.
    pub selection: Vec<usize>,
    /// `∇ Σ log π` for the trajectory (count preserved, so averaging on
    /// the coordinator matches the single-process path).
    pub grads: GradSet,
}

/// Body of [`Response::Batch`].
#[derive(Clone, Debug, Default)]
pub struct BatchResponse {
    /// Surviving rollouts.
    pub items: Vec<RolloutItem>,
    /// Quarantine records for rollouts that faulted in-worker.
    pub faults: Vec<RolloutFault>,
}

// ---------------------------------------------------------------------------
// recipe and config codecs

fn encode_skew(w: Writer, prefix: &str, o: &UsefulSkewOpts) -> Writer {
    w.kv(&format!("{prefix}.sweeps"), o.sweeps)
        .kv(&format!("{prefix}.rate"), o.rate)
        .kv(&format!("{prefix}.hold_floor"), o.hold_floor)
        .kv(&format!("{prefix}.launch_floor"), o.launch_floor)
        .kv(&format!("{prefix}.tolerance"), o.tolerance)
        .kv(&format!("{prefix}.move_budget"), o.move_budget_frac)
        .kv(&format!("{prefix}.serves"), o.serves_per_sweep_frac)
}

fn decode_skew(f: &Fields<'_>, prefix: &str) -> Result<UsefulSkewOpts, String> {
    Ok(UsefulSkewOpts {
        sweeps: f.parse(&format!("{prefix}.sweeps"))?,
        rate: f.parse(&format!("{prefix}.rate"))?,
        hold_floor: f.parse(&format!("{prefix}.hold_floor"))?,
        launch_floor: f.parse(&format!("{prefix}.launch_floor"))?,
        tolerance: f.parse(&format!("{prefix}.tolerance"))?,
        move_budget_frac: f.parse(&format!("{prefix}.move_budget"))?,
        serves_per_sweep_frac: f.parse(&format!("{prefix}.serves"))?,
    })
}

fn encode_datapath(w: Writer, prefix: &str, o: &DatapathOpts) -> Writer {
    w.kv(&format!("{prefix}.passes"), o.passes)
        .kv(&format!("{prefix}.ops_per_pass"), o.ops_per_pass)
        .kv(&format!("{prefix}.ops_per_kcell"), o.ops_per_kcell)
        .kv(&format!("{prefix}.ops_per_ep"), o.ops_per_endpoint)
        .kv(&format!("{prefix}.buffer_min_len"), o.buffer_min_len)
        .kv(&format!("{prefix}.min_gain"), o.min_gain)
}

fn decode_datapath(f: &Fields<'_>, prefix: &str) -> Result<DatapathOpts, String> {
    Ok(DatapathOpts {
        passes: f.parse(&format!("{prefix}.passes"))?,
        ops_per_pass: f.parse(&format!("{prefix}.ops_per_pass"))?,
        ops_per_kcell: f.parse(&format!("{prefix}.ops_per_kcell"))?,
        ops_per_endpoint: f.parse(&format!("{prefix}.ops_per_ep"))?,
        buffer_min_len: f.parse(&format!("{prefix}.buffer_min_len"))?,
        min_gain: f.parse(&format!("{prefix}.min_gain"))?,
    })
}

fn encode_recipe(w: Writer, r: &FlowRecipe) -> Writer {
    let w = encode_skew(w, "skew", &r.skew);
    let w = encode_skew(w, "touchup", &r.skew_touchup);
    let w = encode_datapath(w, "pre", &r.pre_datapath);
    let w = encode_datapath(w, "main", &r.main_datapath);
    let mode = match r.margin_mode {
        MarginMode::OverFixToWns => "overfix",
        MarginMode::UnderFix => "underfix",
    };
    w.kv("recovery_slack", r.recovery_slack)
        .kv("margin_mode", mode)
        .kv("clock_insertion", r.clock_insertion_frac)
        .kv("clock_variation", r.clock_variation_frac)
        .kv("skew_bound", r.skew_bound_frac)
        .kv("legalize_disp", r.legalize_disp)
        .kv("flow_seed", r.seed)
}

fn decode_recipe(f: &Fields<'_>) -> Result<FlowRecipe, String> {
    Ok(FlowRecipe {
        skew: decode_skew(f, "skew")?,
        skew_touchup: decode_skew(f, "touchup")?,
        pre_datapath: decode_datapath(f, "pre")?,
        main_datapath: decode_datapath(f, "main")?,
        recovery_slack: f.parse("recovery_slack")?,
        margin_mode: match f.get("margin_mode")? {
            "overfix" => MarginMode::OverFixToWns,
            "underfix" => MarginMode::UnderFix,
            other => return Err(format!("unknown margin_mode {}", quote(other))),
        },
        clock_insertion_frac: f.parse("clock_insertion")?,
        clock_variation_frac: f.parse("clock_variation")?,
        skew_bound_frac: f.parse("skew_bound")?,
        legalize_disp: f.parse("legalize_disp")?,
        seed: f.parse("flow_seed")?,
    })
}

fn encode_config(w: Writer, c: &RlConfig) -> Writer {
    let enc = match c.encoder {
        EncoderKind::Lstm => "lstm",
        EncoderKind::Gru => "gru",
        EncoderKind::None => "none",
    };
    let w = w
        .kv("cfg.gnn_hidden", c.gnn_hidden)
        .kv("cfg.embed_dim", c.embed_dim)
        .kv("cfg.lstm_hidden", c.lstm_hidden)
        .kv("cfg.attn_dim", c.attn_dim)
        .kv("cfg.rho", c.rho)
        .kv("cfg.lr", c.learning_rate)
        .kv("cfg.grad_clip", c.grad_clip)
        .kv("cfg.workers", c.workers)
        .kv("cfg.max_iterations", c.max_iterations)
        .kv("cfg.patience", c.patience)
        .kv("cfg.fanout_cap", c.fanout_cap)
        .kv("cfg.seed", c.seed)
        .kv("cfg.encoder", enc);
    match c.quorum {
        Some(q) => w.kv("cfg.quorum", q),
        None => w.kv("cfg.quorum", "none"),
    }
}

fn decode_config(f: &Fields<'_>) -> Result<RlConfig, String> {
    Ok(RlConfig {
        gnn_hidden: f.parse("cfg.gnn_hidden")?,
        embed_dim: f.parse("cfg.embed_dim")?,
        lstm_hidden: f.parse("cfg.lstm_hidden")?,
        attn_dim: f.parse("cfg.attn_dim")?,
        rho: f.parse("cfg.rho")?,
        learning_rate: f.parse("cfg.lr")?,
        grad_clip: f.parse("cfg.grad_clip")?,
        workers: f.parse("cfg.workers")?,
        max_iterations: f.parse("cfg.max_iterations")?,
        patience: f.parse("cfg.patience")?,
        fanout_cap: f.parse("cfg.fanout_cap")?,
        seed: f.parse("cfg.seed")?,
        encoder: match f.get("cfg.encoder")? {
            "lstm" => EncoderKind::Lstm,
            "gru" => EncoderKind::Gru,
            "none" => EncoderKind::None,
            other => return Err(format!("unknown encoder {}", quote(other))),
        },
        quorum: match f.get("cfg.quorum")? {
            "none" => None,
            _ => Some(f.parse("cfg.quorum")?),
        },
    })
}

// ---------------------------------------------------------------------------
// request codec

/// Encodes a request into a framed-payload byte string.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let start = |verb| Writer::new(PROTOCOL_VERSION, verb);
    match req {
        Request::Init(init) => {
            let w = start("init").kv("period_ps", init.period_ps);
            let w = encode_config(encode_recipe(w, &init.recipe), &init.config);
            // The netlist is the rest of the payload, byte for byte.
            let mut payload = w.finish();
            payload.extend_from_slice(init.netlist_text.as_bytes());
            payload
        }
        Request::Run(run) => {
            let mut w = start("run").kv("iteration", run.iteration);
            if run.req_id != 0 {
                w = w.kv("req_id", run.req_id);
            }
            if let Some(ms) = run.budget_ms {
                w = w.kv("budget_ms", ms);
            }
            let pairs = run.pairs.iter();
            w = w.list("pairs", pairs.map(|(slot, seed)| format!("{slot}:{seed}")));
            if !run.injects.is_empty() {
                w = w.list("inject", &run.injects);
            }
            run.params.save(w.body()).expect("in-memory write");
            w.finish()
        }
        Request::Health => start("health").finish(),
        Request::Shutdown => start("shutdown").finish(),
    }
}

/// Decodes a request payload.
///
/// # Errors
/// A human-readable reason on a version mismatch or malformed message.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let (head, body) = split_versioned(payload, PROTOCOL_VERSION)?;
    let (verb, rest) = split_verb(head);
    let fields = Fields::read("request", rest, None)?;
    match verb {
        "init" => Ok(Request::Init(InitRequest {
            period_ps: fields.parse("period_ps")?,
            recipe: decode_recipe(&fields)?,
            config: decode_config(&fields)?,
            netlist_text: body.to_string(),
        })),
        "run" => Ok(Request::Run(RunRequest {
            iteration: fields.parse("iteration")?,
            // req_id and budget_ms are optional: older coordinators omit
            // them and get the pre-idempotency behavior.
            req_id: fields.parse_opt("req_id")?.unwrap_or(0),
            budget_ms: fields.parse_opt("budget_ms")?,
            pairs: fields.list("pairs", |tok| {
                let (slot, seed) = tok.split_once(':').ok_or("not slot:seed")?;
                let slot = slot.parse::<usize>().map_err(|_| "bad pair slot")?;
                let seed = seed.parse::<u64>().map_err(|_| "bad pair seed")?;
                Ok::<_, &str>((slot, seed))
            })?,
            injects: fields.list_opt("inject", Inject::decode)?,
            params: ParamSet::load(body.as_bytes()).map_err(|e| format!("bad params body: {e}"))?,
        })),
        "health" => Ok(Request::Health),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request verb {}", quote(other))),
    }
}

// ---------------------------------------------------------------------------
// response codec

/// Encodes a response into a framed-payload byte string.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let start = |verb| Writer::new(PROTOCOL_VERSION, verb);
    let w = match resp {
        Response::InitAck { endpoints, pool } => start("init-ack")
            .kv("endpoints", endpoints)
            .kv("pool", pool),
        Response::Batch(batch) => {
            let mut w = start("batch")
                .kv("items", batch.items.len())
                .kv("faults", batch.faults.len());
            for item in &batch.items {
                w = w
                    .line("item")
                    .kv("slot", item.slot)
                    .kv("seed", item.seed)
                    .kv("steps", item.steps)
                    .kv("reward", item.reward)
                    .list("selection", &item.selection);
                item.grads.save(w.body()).expect("in-memory write");
            }
            batch.faults.iter().fold(w, |w, fault| {
                w.line("fault")
                    .kv("iteration", fault.iteration)
                    .kv("worker", fault.worker)
                    .kv("seed", fault.seed)
                    .kv("kind", fault.kind.as_str())
                    .tail("detail", &fault.detail)
            })
        }
        Response::HealthAck { ready } => start("health-ack").kv("ready", u8::from(*ready)),
        // Not a tail field: the one free text that travels as a token,
        // underscore-mangled. Kept because its bytes may not move.
        Response::Err { message } => start("err").kv("message", message.replace(['\n', ' '], "_")),
    };
    w.finish()
}

/// Takes one `verb key=value…` line off the front of the body cursor and
/// returns what follows the verb.
fn next_line<'a>(body: &mut &'a [u8], verb: &str) -> Result<&'a str, String> {
    if body.is_empty() {
        return Err(format!("batch body truncated ({verb} line)"));
    }
    let end = body.iter().position(|&b| b == b'\n').unwrap_or(body.len());
    let (line, rest) = body.split_at(end);
    *body = rest.get(1..).unwrap_or_default();
    let line = std::str::from_utf8(line).map_err(|_| format!("{verb} line is not UTF-8"))?;
    match split_verb(line) {
        (found, fields) if found == verb => Ok(fields),
        _ => Err(format!("expected a batch {verb} line, got {}", quote(line))),
    }
}

/// Decodes a response payload.
///
/// # Errors
/// A human-readable reason on a version mismatch or malformed message.
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let (head, body) = split_versioned(payload, PROTOCOL_VERSION)?;
    let (verb, rest) = split_verb(head);
    let fields = Fields::read("response", rest, None)?;
    match verb {
        "init-ack" => Ok(Response::InitAck {
            endpoints: fields.parse("endpoints")?,
            pool: fields.parse("pool")?,
        }),
        "batch" => {
            let n_items: usize = fields.parse("items")?;
            let n_faults: usize = fields.parse("faults")?;
            // A cursor over the body: each gradient block delimits itself,
            // so `GradSet::load` takes exactly its lines off the front.
            let mut body = body.as_bytes();
            let mut items = Vec::new();
            for _ in 0..n_items {
                let f = Fields::read("batch item", next_line(&mut body, "item")?, None)?;
                items.push(RolloutItem {
                    slot: f.parse("slot")?,
                    seed: f.parse("seed")?,
                    steps: f.parse("steps")?,
                    reward: f.parse("reward")?,
                    selection: f.list("selection", str::parse::<usize>)?,
                    grads: GradSet::load(&mut body)
                        .map_err(|e| format!("bad gradient block: {e}"))?,
                });
            }
            let mut faults = Vec::new();
            for _ in 0..n_faults {
                let line = next_line(&mut body, "fault")?;
                let f = Fields::read("batch fault", line, Some("detail"))?;
                let kind_tok = f.get("kind")?;
                faults.push(RolloutFault {
                    iteration: f.parse("iteration")?,
                    worker: f.parse("worker")?,
                    seed: f.parse("seed")?,
                    kind: FaultKind::parse(kind_tok)
                        .ok_or_else(|| format!("unknown fault kind {}", quote(kind_tok)))?,
                    detail: f.get("detail")?.to_string(),
                });
            }
            Ok(Response::Batch(BatchResponse { items, faults }))
        }
        "health-ack" => Ok(Response::HealthAck {
            ready: fields.flag("ready")?,
        }),
        "err" => Ok(Response::Err {
            message: fields.get("message")?.to_string(),
        }),
        other => Err(format!("unknown response verb {}", quote(other))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_roundtrip_preserves_recipe_and_config() {
        let req = Request::Init(InitRequest {
            period_ps: 812.25,
            recipe: FlowRecipe::default(),
            config: RlConfig::fast(),
            netlist_text: "netlist body line 1\nline 2\n".into(),
        });
        let back = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn run_roundtrip_preserves_pairs_injects_and_params() {
        let mut params = ParamSet::new();
        params.insert(
            "w",
            rl_ccd_nn::Tensor::from_vec(1, 3, vec![0.5, -1.25, 3.0]),
        );
        let req = Request::Run(RunRequest {
            iteration: 7,
            req_id: 99,
            budget_ms: Some(1_500),
            pairs: vec![(0, 9001), (3, 42)],
            injects: vec![
                Inject::Drop,
                Inject::Torn,
                Inject::SleepMs(1500),
                Inject::Panic(2),
                Inject::NanReward(0),
                Inject::Poison(1),
            ],
            params,
        });
        let back = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn shutdown_and_empty_run_roundtrip() {
        let back = decode_request(&encode_request(&Request::Shutdown)).unwrap();
        assert_eq!(back, Request::Shutdown);
        let req = Request::Run(RunRequest {
            iteration: 0,
            req_id: 0,
            budget_ms: None,
            pairs: vec![],
            injects: vec![],
            params: ParamSet::new(),
        });
        let back = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn health_roundtrips_and_run_defaults_cover_old_coordinators() {
        let back = decode_request(&encode_request(&Request::Health)).unwrap();
        assert_eq!(back, Request::Health);
        for ready in [true, false] {
            let resp = Response::HealthAck { ready };
            match decode_response(&encode_response(&resp)).unwrap() {
                Response::HealthAck { ready: r } => assert_eq!(r, ready),
                other => panic!("expected health-ack, got {other:?}"),
            }
        }
        // A run head without req_id/budget_ms (the pre-idempotency wire
        // shape) decodes with the no-id defaults.
        let payload =
            format!("{PROTOCOL_VERSION}\nrun iteration=3 pairs=0:11\nrl-ccd-params v1 0\n");
        match decode_request(payload.as_bytes()).unwrap() {
            Request::Run(run) => {
                assert_eq!(run.req_id, 0);
                assert_eq!(run.budget_ms, None);
                assert_eq!(run.pairs, vec![(0, 11)]);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn batch_roundtrip_preserves_items_and_faults() {
        let mut grads = GradSet::new();
        grads.set(
            "g",
            rl_ccd_nn::Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]),
        );
        let resp = Response::Batch(BatchResponse {
            items: vec![RolloutItem {
                slot: 1,
                seed: 77,
                steps: 9,
                reward: -1234.5678901,
                selection: vec![3, 1, 4],
                grads,
            }],
            faults: vec![RolloutFault {
                iteration: 2,
                worker: 1,
                seed: 55,
                kind: FaultKind::WorkerPanic,
                detail: "panic with spaces and = signs".into(),
            }],
        });
        let back = decode_response(&encode_response(&resp)).unwrap();
        match back {
            Response::Batch(b) => {
                assert_eq!(b.items.len(), 1);
                let item = &b.items[0];
                assert_eq!(item.slot, 1);
                assert_eq!(item.seed, 77);
                assert_eq!(item.steps, 9);
                assert_eq!(item.reward, -1234.5678901);
                assert_eq!(item.selection, vec![3, 1, 4]);
                assert_eq!(item.grads.count(), 0);
                assert_eq!(
                    item.grads.get("g").unwrap().data(),
                    &[1.0, 2.0, 3.0, 4.0][..]
                );
                assert_eq!(b.faults.len(), 1);
                assert_eq!(b.faults[0].kind, FaultKind::WorkerPanic);
                assert_eq!(b.faults[0].detail, "panic with spaces and = signs");
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let payload = b"rl-ccd-serve v1\nshutdown\n";
        assert!(decode_request(payload).is_err());
    }
}
