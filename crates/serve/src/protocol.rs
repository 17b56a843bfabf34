//! The inference-service protocol: versioned text payloads over the
//! shared [`rl_ccd_wire`] frame format.
//!
//! Framing and the versioned-envelope rules live in [`rl_ccd_wire`]
//! (shared with the distributed-training protocol); [`write_frame`],
//! [`read_frame`] and [`MAX_FRAME_LEN`] are re-exported here so existing
//! callers keep working. Line 1 of every payload is the version token
//! [`PROTOCOL_VERSION`]; line 2 is the message head (`query …` /
//! `shutdown` / `ok …` / `err …`); `ok` responses carry the selection on
//! line 3. The `key=value` grammar is [`rl_ccd_wire::fields`]; this
//! module is the schema over it.

use rl_ccd_wire::fields::{hex16, quote, split_verb, Fields, Writer};
use std::fmt;
use std::str::FromStr;

pub use rl_ccd_wire::{read_frame, write_frame, MAX_FRAME_LEN};

/// Version token on the first line of every payload.
pub const PROTOCOL_VERSION: &str = "rl-ccd-serve v1";

/// Identity of a design the server can synthesize an environment for:
/// the generator is deterministic, so `name:cells:tech:seed` fully pins
/// the netlist, its timing report, features, and cone-overlap masks —
/// which is exactly what the design cache keys on.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DesignKey {
    /// Design name (no `:` allowed).
    pub name: String,
    /// Target cell count.
    pub cells: usize,
    /// Technology node display name (e.g. "7nm").
    pub tech: String,
    /// Generator seed.
    pub seed: u64,
}

impl fmt::Display for DesignKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}:{}",
            self.name, self.cells, self.tech, self.seed
        )
    }
}

impl FromStr for DesignKey {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 4 {
            return Err(format!("design {} is not name:cells:tech:seed", quote(s)));
        }
        let cells = parts[1]
            .parse()
            .map_err(|_| format!("bad cell count {}", quote(parts[1])))?;
        let seed = parts[3]
            .parse()
            .map_err(|_| format!("bad seed {}", quote(parts[3])))?;
        if parts[0].is_empty() {
            return Err("empty design name".into());
        }
        Ok(Self {
            name: parts[0].to_string(),
            cells,
            tech: parts[2].to_string(),
            seed,
        })
    }
}

/// How the policy turns embeddings into a selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Deterministic argmax trajectory.
    Greedy,
    /// Stochastic trajectory from this RNG seed.
    Sample(u64),
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Greedy => write!(f, "greedy"),
            Mode::Sample(seed) => write!(f, "sample:{seed}"),
        }
    }
}

impl FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "greedy" {
            return Ok(Mode::Greedy);
        }
        if let Some(seed) = s.strip_prefix("sample:") {
            return seed
                .parse()
                .map(Mode::Sample)
                .map_err(|_| format!("bad sample seed {}", quote(seed)));
        }
        Err(format!(
            "mode {} is neither greedy nor sample:<seed>",
            quote(s)
        ))
    }
}

/// Tenant credentials carried on a query when the endpoint enforces
/// tenancy (the daemon front-end). Both fields are opaque tokens without
/// whitespace; the serve core ignores them entirely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Credentials {
    /// Tenant identity the request is billed to.
    pub tenant: String,
    /// The tenant's secret auth token.
    pub token: String,
}

/// One endpoint-selection query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// Registry name of the model to answer with.
    pub model: String,
    /// The design to select endpoints on.
    pub design: DesignKey,
    /// Greedy or seeded-sample decoding.
    pub mode: Mode,
    /// Give up (typed `deadline` error) if not dispatched within this many
    /// milliseconds of submission.
    pub deadline_ms: Option<u64>,
    /// Tenant credentials; `None` against a bare serve endpoint.
    pub auth: Option<Credentials>,
}

/// A decoded client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Endpoint-selection query.
    Query(QueryRequest),
    /// Health/readiness probe: answered inline by the connection handler
    /// (never queued), so it reflects liveness even when the scheduler is
    /// saturated.
    Health,
    /// Admin: drain and stop the server.
    Shutdown,
}

impl Request {
    /// Serializes to a protocol payload.
    pub fn encode(&self) -> Vec<u8> {
        let start = |verb| Writer::new(PROTOCOL_VERSION, verb);
        let w = match self {
            Request::Query(q) => {
                let mut w = start("query")
                    .kv("model", &q.model)
                    .kv("design", &q.design)
                    .kv("mode", q.mode);
                if let Some(ms) = q.deadline_ms {
                    w = w.kv("deadline_ms", ms);
                }
                if let Some(auth) = &q.auth {
                    w = w.kv("tenant", &auth.tenant).kv("token", &auth.token);
                }
                w
            }
            Request::Health => start("health"),
            Request::Shutdown => start("shutdown"),
        };
        w.finish()
    }

    /// Parses a protocol payload.
    ///
    /// # Errors
    /// A human-readable description of the first violation (bad version,
    /// unknown head, missing or malformed field).
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let (head, _body) = rl_ccd_wire::split_versioned(payload, PROTOCOL_VERSION)?;
        let (verb, fields) = split_verb(head);
        let f = Fields::read("request", fields, None)?;
        match verb {
            "shutdown" => Ok(Request::Shutdown),
            "health" => Ok(Request::Health),
            "query" => {
                // Credentials travel as a pair; half a pair is a malformed
                // request (a lone tenant= would silently bill nobody).
                let auth = match (f.opt("tenant"), f.opt("token")) {
                    (Some(tenant), Some(token)) => Some(Credentials {
                        tenant: tenant.to_string(),
                        token: token.to_string(),
                    }),
                    (None, None) => None,
                    _ => return Err("tenant= and token= must be sent together".into()),
                };
                Ok(Request::Query(QueryRequest {
                    model: f.get("model")?.to_string(),
                    design: f.parse("design")?,
                    mode: f.parse("mode")?,
                    deadline_ms: f.parse_opt("deadline_ms")?,
                    auth,
                }))
            }
            other => Err(format!("unknown request {}", quote(other))),
        }
    }
}

/// Typed rejection categories — every error a client can receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectKind {
    /// The bounded request queue is full (backpressure); retry later.
    Busy,
    /// The request's deadline passed before a worker dispatched it.
    Deadline,
    /// The server is draining; no new requests are accepted.
    ShuttingDown,
    /// The request was malformed.
    BadRequest,
    /// No model with that name in the registry.
    UnknownModel,
    /// Tenancy rejection: unknown tenant, bad token, or an operation the
    /// endpoint does not allow (e.g. shutdown on the tenant port).
    Denied,
    /// Unexpected server-side failure.
    Internal,
}

impl RejectKind {
    fn as_str(self) -> &'static str {
        match self {
            RejectKind::Busy => "busy",
            RejectKind::Deadline => "deadline",
            RejectKind::ShuttingDown => "shutting_down",
            RejectKind::BadRequest => "bad_request",
            RejectKind::UnknownModel => "unknown_model",
            RejectKind::Denied => "denied",
            RejectKind::Internal => "internal",
        }
    }
}

impl fmt::Display for RejectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for RejectKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "busy" => Ok(RejectKind::Busy),
            "deadline" => Ok(RejectKind::Deadline),
            "shutting_down" => Ok(RejectKind::ShuttingDown),
            "bad_request" => Ok(RejectKind::BadRequest),
            "unknown_model" => Ok(RejectKind::UnknownModel),
            "denied" => Ok(RejectKind::Denied),
            "internal" => Ok(RejectKind::Internal),
            _ => Err(format!("unknown reject kind {}", quote(s))),
        }
    }
}

/// A successful selection answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryReply {
    /// Model that answered.
    pub model: String,
    /// Model version (the checkpoint's next training iteration).
    pub version: usize,
    /// Trajectory length (`selection.len()`).
    pub steps: usize,
    /// Number of requests in the batch this one was dispatched with.
    pub batch: usize,
    /// Whether the selection came from the memoized-selection cache.
    pub cached: bool,
    /// Selected endpoint indices, in selection order.
    pub selection: Vec<usize>,
}

/// One registry entry's identity, as reported by a health probe: enough
/// to know *what* is serving, not just that something is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelVersion {
    /// Registry name clients address the model by.
    pub name: String,
    /// Checkpoint version (the training iteration it would resume at).
    pub version: usize,
    /// FNV-1a 64 checksum of the verified checkpoint bytes.
    pub fingerprint: u64,
}

impl fmt::Display for ModelVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}@{:016x}",
            self.name, self.version, self.fingerprint
        )
    }
}

impl FromStr for ModelVersion {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('@').collect();
        if parts.len() != 3 || parts[0].is_empty() {
            return Err(format!("active entry {} is not name@version@fp", quote(s)));
        }
        Ok(Self {
            name: parts[0].to_string(),
            version: parts[1]
                .parse()
                .map_err(|_| format!("bad version {}", quote(parts[1])))?,
            fingerprint: hex16(parts[2])
                .ok_or_else(|| format!("bad fingerprint {}", quote(parts[2])))?,
        })
    }
}

/// A health-probe answer: a point-in-time view of the server's capacity
/// to accept work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthReply {
    /// Whether the server is accepting queries (false while draining).
    pub ready: bool,
    /// Requests currently queued for dispatch.
    pub queue_depth: usize,
    /// The bounded queue's capacity.
    pub queue_capacity: usize,
    /// Number of models in the registry.
    pub models: usize,
    /// The registry's live entries — name, version, fingerprint — sorted
    /// by name. Empty when probing a pre-v9 server that does not report
    /// the field.
    pub active: Vec<ModelVersion>,
}

/// A decoded server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The selection.
    Ok(QueryReply),
    /// Load shed: the scheduler queue is full. Distinct from
    /// [`Response::Err`] so clients can machine-read the backoff hint
    /// instead of pattern-matching a `busy` message.
    Overloaded {
        /// Server's estimate of when capacity will free up; clients
        /// should back off at least this long before retrying.
        retry_after_ms: u64,
    },
    /// Tenancy throttle: the tenant's token bucket is empty or its
    /// monthly quota is spent. Machine-readable like
    /// [`Response::Overloaded`] so the same client backoff path composes
    /// — the hint is the bucket's refill horizon (small) or the quota
    /// window's remainder (large).
    QuotaExceeded {
        /// How long until the tenant may retry.
        retry_after_ms: u64,
    },
    /// Answer to a [`Request::Health`] probe.
    Health(HealthReply),
    /// A typed rejection.
    Err {
        /// Rejection category.
        kind: RejectKind,
        /// Human-readable detail.
        msg: String,
    },
}

impl Response {
    /// Convenience constructor for error responses.
    pub fn reject(kind: RejectKind, msg: impl Into<String>) -> Self {
        Response::Err {
            kind,
            msg: msg.into(),
        }
    }

    /// Serializes to a protocol payload.
    pub fn encode(&self) -> Vec<u8> {
        let start = |verb| Writer::new(PROTOCOL_VERSION, verb);
        let w = match self {
            Response::Ok(r) => start("ok")
                .kv("model", &r.model)
                .kv("version", r.version)
                .kv("steps", r.steps)
                .kv("batch", r.batch)
                .kv("cached", u8::from(r.cached))
                .line("")
                .list("selection", &r.selection),
            Response::Overloaded { retry_after_ms } => {
                start("overloaded").kv("retry_after_ms", retry_after_ms)
            }
            Response::QuotaExceeded { retry_after_ms } => {
                start("quota_exceeded").kv("retry_after_ms", retry_after_ms)
            }
            Response::Health(h) => {
                let w = start("health")
                    .kv("ready", u8::from(h.ready))
                    .kv("queue", h.queue_depth)
                    .kv("capacity", h.queue_capacity)
                    .kv("models", h.models);
                if h.active.is_empty() {
                    w
                } else {
                    w.list("active", &h.active)
                }
            }
            Response::Err { kind, msg } => start("err").kv("kind", kind).tail("msg", msg),
        };
        w.finish()
    }

    /// Parses a protocol payload.
    ///
    /// # Errors
    /// A human-readable description of the first violation.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let (head, body) = rl_ccd_wire::split_versioned(payload, PROTOCOL_VERSION)?;
        let (verb, fields) = split_verb(head);
        let f = Fields::read("response", fields, (verb == "err").then_some("msg"))?;
        match verb {
            "ok" => {
                let selection = body.lines().next().unwrap_or("");
                let selection = Fields::read("ok response", selection, None)?;
                Ok(Response::Ok(QueryReply {
                    model: f.get("model")?.to_string(),
                    version: f.parse("version")?,
                    steps: f.parse("steps")?,
                    batch: f.parse("batch")?,
                    cached: f.flag("cached")?,
                    selection: selection.list("selection", str::parse::<usize>)?,
                }))
            }
            "overloaded" => Ok(Response::Overloaded {
                retry_after_ms: f.parse("retry_after_ms")?,
            }),
            "quota_exceeded" => Ok(Response::QuotaExceeded {
                retry_after_ms: f.parse("retry_after_ms")?,
            }),
            "health" => Ok(Response::Health(HealthReply {
                ready: f.flag("ready")?,
                queue_depth: f.parse("queue")?,
                queue_capacity: f.parse("capacity")?,
                models: f.parse("models")?,
                // Absent from a pre-v9 server and from an empty registry.
                active: f.list_opt("active", str::parse::<ModelVersion>)?,
            })),
            "err" => Ok(Response::Err {
                kind: f.parse("kind")?,
                msg: f.opt("msg").unwrap_or("").to_string(),
            }),
            other => Err(format!("unknown response {}", quote(other))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> DesignKey {
        DesignKey {
            name: "demo".into(),
            cells: 400,
            tech: "7nm".into(),
            seed: 7,
        }
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Query(QueryRequest {
                model: "default".into(),
                design: key(),
                mode: Mode::Greedy,
                deadline_ms: None,
                auth: None,
            }),
            Request::Query(QueryRequest {
                model: "m2".into(),
                design: key(),
                mode: Mode::Sample(99),
                deadline_ms: Some(250),
                auth: None,
            }),
            Request::Query(QueryRequest {
                model: "default".into(),
                design: key(),
                mode: Mode::Greedy,
                deadline_ms: Some(100),
                auth: Some(Credentials {
                    tenant: "acme".into(),
                    token: "s3cret".into(),
                }),
            }),
            Request::Health,
            Request::Shutdown,
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn half_a_credential_pair_is_rejected() {
        let payload =
            format!("{PROTOCOL_VERSION}\nquery model=m design=d:10:7nm:1 mode=greedy tenant=a\n");
        let err = Request::decode(payload.as_bytes()).unwrap_err();
        assert!(err.contains("together"), "{err}");
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Ok(QueryReply {
                model: "default".into(),
                version: 12,
                steps: 3,
                batch: 4,
                cached: true,
                selection: vec![5, 0, 17],
            }),
            Response::Ok(QueryReply {
                model: "default".into(),
                version: 0,
                steps: 0,
                batch: 1,
                cached: false,
                selection: vec![],
            }),
            Response::reject(RejectKind::Busy, "queue full (64)"),
            Response::reject(RejectKind::Deadline, ""),
            Response::reject(RejectKind::Denied, "unknown tenant"),
            Response::Overloaded { retry_after_ms: 12 },
            Response::QuotaExceeded {
                retry_after_ms: 86_400_000,
            },
            Response::Health(HealthReply {
                ready: true,
                queue_depth: 3,
                queue_capacity: 64,
                models: 2,
                active: vec![
                    ModelVersion {
                        name: "challenger".into(),
                        version: 41,
                        fingerprint: 0xdead_beef,
                    },
                    ModelVersion {
                        name: "champion".into(),
                        version: 40,
                        fingerprint: 0x1234_5678_9abc_def0,
                    },
                ],
            }),
            Response::Health(HealthReply {
                ready: false,
                queue_depth: 0,
                queue_capacity: 64,
                models: 0,
                active: vec![],
            }),
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn overloaded_and_health_reject_malformed_heads() {
        let payload = format!("{PROTOCOL_VERSION}\noverloaded after=5\n");
        assert!(Response::decode(payload.as_bytes())
            .unwrap_err()
            .contains("retry_after_ms"));
        let payload = format!("{PROTOCOL_VERSION}\nhealth ready=1 queue=2\n");
        assert!(Response::decode(payload.as_bytes())
            .unwrap_err()
            .contains("capacity"));
    }

    #[test]
    fn version_mismatch_is_rejected_before_parsing() {
        let err = Request::decode(b"rl-ccd-serve v2\nshutdown\n").unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn unknown_fields_are_ignored_for_forward_compatibility() {
        let payload =
            format!("{PROTOCOL_VERSION}\nquery model=m design=d:10:7nm:1 mode=greedy future=x\n");
        assert!(matches!(
            Request::decode(payload.as_bytes()).unwrap(),
            Request::Query(_)
        ));
    }

    #[test]
    fn design_key_rejects_malformed_strings() {
        assert!("a:b:c".parse::<DesignKey>().is_err());
        assert!("a:ten:7nm:1".parse::<DesignKey>().is_err());
        assert!(":10:7nm:1".parse::<DesignKey>().is_err());
        let k: DesignKey = "demo:400:7nm:7".parse().unwrap();
        assert_eq!(k, key());
    }
}
