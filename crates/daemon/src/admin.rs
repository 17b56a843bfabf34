//! The admin control protocol: `rl-ccd-admin v1` framed text over TCP.
//!
//! Same envelope discipline as the serve protocol — 4-byte BE length
//! frames ([`rl_ccd_wire`]), line 1 the version token, line 2 a head whose
//! `key=value` grammar is [`rl_ccd_wire::fields`]; this module is the
//! schema over it.
//! The admin port is separate from the tenant port: operators load
//! checkpoints, run the gate, promote/roll back, manage tenants, and
//! drain — none of which a tenant credential can reach.

use crate::tenant::{TenantSummary, TenantUsage};
use rl_ccd_serve::ModelVersion;
use rl_ccd_wire::fields::{quote, split_verb, Fields, Writer};
use rl_ccd_wire::{read_frame, write_frame};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Version token on the first line of every admin payload.
pub const ADMIN_PROTOCOL_VERSION: &str = "rl-ccd-admin v1";

/// One admin command.
#[derive(Clone, Debug, PartialEq)]
pub enum AdminRequest {
    /// Point-in-time daemon status.
    Status,
    /// Verify + warm the checkpoint in `dir` into a registry slot
    /// (`champion` or `challenger`), off the request path.
    Load {
        /// Target slot name.
        slot: String,
        /// Checkpoint directory (no whitespace).
        dir: String,
        /// Cone-overlap threshold the checkpoint does not store.
        rho: f32,
    },
    /// Run the eval gate without promoting (a dry run).
    Gate,
    /// Gate (unless forced) and atomically promote the challenger.
    Promote {
        /// Promote even if the gate fails or there is no champion.
        force: bool,
    },
    /// Restore the champion evicted by the last promote.
    Rollback,
    /// Set the tenant-stable canary fraction.
    Canary {
        /// Fraction of tenants routed to the challenger, `0.0..=1.0`.
        fraction: f64,
    },
    /// Add or replace a tenant from its `id:token:rate:burst:quota` spec.
    TenantAdd {
        /// The spec string.
        spec: String,
    },
    /// Remove a tenant.
    TenantDel {
        /// Tenant id.
        id: String,
    },
    /// List tenants and their usage (tokens never travel back).
    TenantList,
    /// Retrain offline from an experience log and stage the result in the
    /// challenger slot: the closed learning loop's admin hook. The
    /// retrained checkpoint reaches tenants only through `gate`/`promote`.
    Retrain {
        /// Base checkpoint directory (the policy the log was served by).
        base: String,
        /// `rl-ccd-exp v1` experience log path (no whitespace).
        log: String,
        /// Output checkpoint directory for the retrained state.
        out: String,
        /// Seed for the deterministic replay order.
        seed: u64,
        /// Offline update steps.
        steps: usize,
    },
    /// Ask the daemon to drain and exit.
    Drain,
}

impl AdminRequest {
    /// Serializes with an optional admin token on the head line.
    pub fn encode(&self, token: Option<&str>) -> Vec<u8> {
        let start = |verb| Writer::new(ADMIN_PROTOCOL_VERSION, verb);
        let w = match self {
            AdminRequest::Status => start("status"),
            AdminRequest::Load { slot, dir, rho } => {
                start("load").kv("slot", slot).kv("dir", dir).kv("rho", rho)
            }
            AdminRequest::Gate => start("gate"),
            AdminRequest::Promote { force } => start("promote").kv("force", u8::from(*force)),
            AdminRequest::Rollback => start("rollback"),
            AdminRequest::Canary { fraction } => start("canary").kv("fraction", fraction),
            AdminRequest::TenantAdd { spec } => start("tenant_add").kv("spec", spec),
            AdminRequest::TenantDel { id } => start("tenant_del").kv("id", id),
            AdminRequest::TenantList => start("tenant_list"),
            AdminRequest::Retrain {
                base,
                log,
                out,
                seed,
                steps,
            } => start("retrain")
                .kv("base", base)
                .kv("log", log)
                .kv("out", out)
                .kv("seed", seed)
                .kv("steps", steps),
            AdminRequest::Drain => start("drain"),
        };
        match token {
            Some(token) => w.kv("token", token).finish(),
            None => w.finish(),
        }
    }

    /// Parses a payload into the command and the token it carried.
    ///
    /// # Errors
    /// A human-readable description of the first violation.
    pub fn decode(payload: &[u8]) -> Result<(Self, Option<String>), String> {
        let (head, _body) = rl_ccd_wire::split_versioned(payload, ADMIN_PROTOCOL_VERSION)?;
        let (verb, fields) = split_verb(head);
        let f = Fields::read("admin request", fields, None)?;
        let request = match verb {
            "status" => AdminRequest::Status,
            "load" => AdminRequest::Load {
                slot: f.get("slot")?.to_string(),
                dir: f.get("dir")?.to_string(),
                rho: f.parse("rho")?,
            },
            "gate" => AdminRequest::Gate,
            "promote" => AdminRequest::Promote {
                force: f.opt("force").is_some() && f.flag("force")?,
            },
            "rollback" => AdminRequest::Rollback,
            "canary" => AdminRequest::Canary {
                fraction: f.parse("fraction")?,
            },
            "tenant_add" => AdminRequest::TenantAdd {
                spec: f.get("spec")?.to_string(),
            },
            "tenant_del" => AdminRequest::TenantDel {
                id: f.get("id")?.to_string(),
            },
            "tenant_list" => AdminRequest::TenantList,
            "retrain" => {
                let defaults = rl_ccd_exp::RetrainConfig::default();
                AdminRequest::Retrain {
                    base: f.get("base")?.to_string(),
                    log: f.get("log")?.to_string(),
                    out: f.get("out")?.to_string(),
                    seed: f.parse_opt("seed")?.unwrap_or(defaults.seed),
                    steps: f.parse_opt("steps")?.unwrap_or(defaults.steps),
                }
            }
            "drain" => AdminRequest::Drain,
            other => return Err(format!("unknown admin request {}", quote(other))),
        };
        Ok((request, f.opt("token").map(str::to_string)))
    }
}

/// A point-in-time view of the daemon, answered to `status`.
#[derive(Clone, Debug, PartialEq)]
pub struct DaemonStatus {
    /// Whether the daemon is accepting tenant queries.
    pub ready: bool,
    /// Requests queued in the serving scheduler.
    pub queue_depth: usize,
    /// The champion slot's identity, if loaded.
    pub champion: Option<ModelVersion>,
    /// The challenger slot's identity, if loaded.
    pub challenger: Option<ModelVersion>,
    /// Canary fraction in `0.0..=1.0`.
    pub canary: f64,
    /// Registered tenants.
    pub tenants: usize,
}

/// A decoded admin answer.
#[derive(Clone, Debug, PartialEq)]
pub enum AdminReply {
    /// The command succeeded; `info` is a one-line human summary.
    Ok {
        /// What happened.
        info: String,
    },
    /// Status snapshot.
    Status(DaemonStatus),
    /// Tenant listing.
    Tenants(Vec<TenantSummary>),
    /// The command failed.
    Err {
        /// Why.
        msg: String,
    },
}

fn slot_field(v: &Option<ModelVersion>) -> String {
    v.as_ref().map_or("-".to_string(), ModelVersion::to_string)
}

fn parse_slot(value: &str) -> Result<Option<ModelVersion>, String> {
    if value == "-" {
        Ok(None)
    } else {
        value.parse().map(Some)
    }
}

impl AdminReply {
    /// Serializes to an admin payload.
    pub fn encode(&self) -> Vec<u8> {
        let start = |verb| Writer::new(ADMIN_PROTOCOL_VERSION, verb);
        let w = match self {
            AdminReply::Ok { info } => start("ok").tail("info", info),
            AdminReply::Status(s) => start("status")
                .kv("ready", u8::from(s.ready))
                .kv("queue", s.queue_depth)
                .kv("champion", slot_field(&s.champion))
                .kv("challenger", slot_field(&s.challenger))
                .kv("canary", s.canary)
                .kv("tenants", s.tenants),
            AdminReply::Tenants(list) => {
                let head = start("tenants").kv("count", list.len());
                list.iter().fold(head, |w, t| {
                    w.line("tenant")
                        .kv("id", &t.id)
                        .kv("rate", t.rate_per_sec)
                        .kv("burst", t.burst)
                        .kv("quota", t.monthly_quota)
                        .kv("used", t.usage.used_in_window)
                        .kv("accepted", t.usage.accepted)
                        .kv("denied", t.usage.denied)
                        .kv("throttled", t.usage.throttled)
                })
            }
            AdminReply::Err { msg } => start("err").tail("msg", msg),
        };
        w.finish()
    }

    /// Parses an admin payload.
    ///
    /// # Errors
    /// A human-readable description of the first violation.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let (head, body) = rl_ccd_wire::split_versioned(payload, ADMIN_PROTOCOL_VERSION)?;
        let (verb, fields) = split_verb(head);
        let tail = match verb {
            "ok" => Some("info"),
            "err" => Some("msg"),
            _ => None,
        };
        let f = Fields::read("admin reply", fields, tail)?;
        let text = |key| f.opt(key).unwrap_or("").to_string();
        match verb {
            "ok" => Ok(AdminReply::Ok { info: text("info") }),
            "err" => Ok(AdminReply::Err { msg: text("msg") }),
            "status" => Ok(AdminReply::Status(DaemonStatus {
                ready: f.flag("ready")?,
                queue_depth: f.parse("queue")?,
                champion: parse_slot(f.get("champion")?)?,
                challenger: parse_slot(f.get("challenger")?)?,
                canary: f.parse("canary")?,
                tenants: f.parse("tenants")?,
            })),
            "tenants" => {
                let mut list = Vec::new();
                for line in body.lines().filter(|l| !l.is_empty()) {
                    let (verb, fields) = split_verb(line);
                    if verb != "tenant" {
                        return Err(format!("bad tenant line {}", quote(line)));
                    }
                    let f = Fields::read("tenant line", fields, None)?;
                    list.push(TenantSummary {
                        id: f.get("id")?.to_string(),
                        rate_per_sec: f.parse("rate")?,
                        burst: f.parse("burst")?,
                        monthly_quota: f.parse("quota")?,
                        usage: TenantUsage {
                            used_in_window: f.parse("used")?,
                            accepted: f.parse("accepted")?,
                            denied: f.parse("denied")?,
                            throttled: f.parse("throttled")?,
                        },
                    });
                }
                Ok(AdminReply::Tenants(list))
            }
            other => Err(format!("unknown admin reply {}", quote(other))),
        }
    }
}

/// A blocking TCP client for the admin port. Each call opens a fresh
/// connection — admin traffic is rare and tiny, and a connection per
/// command keeps the client free of session state.
#[derive(Clone, Debug)]
pub struct AdminClient {
    addr: SocketAddr,
    token: Option<String>,
    timeout: Duration,
}

impl AdminClient {
    /// A client for the daemon's admin port.
    pub fn new(addr: SocketAddr, token: Option<String>) -> Self {
        Self {
            addr,
            token,
            timeout: Duration::from_secs(30),
        }
    }

    /// Sends one command and decodes the answer.
    ///
    /// # Errors
    /// Transport failures and protocol violations, as strings; an
    /// [`AdminReply::Err`] is a *successful* call.
    pub fn call(&self, request: &AdminRequest) -> Result<AdminReply, String> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_read_timeout(Some(self.timeout)).ok();
        stream.set_write_timeout(Some(self.timeout)).ok();
        let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut reader = stream;
        write_frame(&mut writer, &request.encode(self.token.as_deref()))
            .map_err(|e| format!("send: {e}"))?;
        let payload = read_frame(&mut reader).map_err(|e| format!("recv: {e}"))?;
        AdminReply::decode(&payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_with_and_without_tokens() {
        let requests = [
            AdminRequest::Status,
            AdminRequest::Load {
                slot: "challenger".into(),
                dir: "ckpt/run7".into(),
                rho: 0.3,
            },
            AdminRequest::Gate,
            AdminRequest::Promote { force: false },
            AdminRequest::Promote { force: true },
            AdminRequest::Rollback,
            AdminRequest::Canary { fraction: 0.25 },
            AdminRequest::TenantAdd {
                spec: "acme:tok:2:5:1000".into(),
            },
            AdminRequest::TenantDel { id: "acme".into() },
            AdminRequest::TenantList,
            AdminRequest::Retrain {
                base: "ckpt/base".into(),
                log: "exp.jsonl".into(),
                out: "ckpt/retrained".into(),
                seed: 0xE1,
                steps: 4,
            },
            AdminRequest::Drain,
        ];
        for req in requests {
            let (decoded, token) = AdminRequest::decode(&req.encode(None)).unwrap();
            assert_eq!(decoded, req);
            assert_eq!(token, None);
            let (decoded, token) = AdminRequest::decode(&req.encode(Some("hunter2"))).unwrap();
            assert_eq!(decoded, req);
            assert_eq!(token.as_deref(), Some("hunter2"));
        }
    }

    #[test]
    fn replies_roundtrip() {
        let replies = [
            AdminReply::Ok {
                info: "promoted champion@12@00000000deadbeef".into(),
            },
            AdminReply::Err {
                msg: "gate failed: fail: challenger -120 vs champion -80".into(),
            },
            AdminReply::Status(DaemonStatus {
                ready: true,
                queue_depth: 3,
                champion: Some(ModelVersion {
                    name: "champion".into(),
                    version: 12,
                    fingerprint: 0xdead_beef,
                }),
                challenger: None,
                canary: 0.25,
                tenants: 2,
            }),
            AdminReply::Tenants(vec![
                TenantSummary {
                    id: "acme".into(),
                    rate_per_sec: 2.5,
                    burst: 10.0,
                    monthly_quota: 1000,
                    usage: TenantUsage {
                        accepted: 7,
                        denied: 1,
                        throttled: 2,
                        used_in_window: 7,
                    },
                },
                TenantSummary {
                    id: "globex".into(),
                    rate_per_sec: 1.0,
                    burst: 1.0,
                    monthly_quota: 0,
                    usage: TenantUsage::default(),
                },
            ]),
            AdminReply::Tenants(vec![]),
        ];
        for reply in replies {
            assert_eq!(AdminReply::decode(&reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn version_and_verb_violations_are_rejected() {
        assert!(AdminRequest::decode(b"rl-ccd-admin v2\nstatus\n")
            .unwrap_err()
            .contains("version"));
        let payload = format!("{ADMIN_PROTOCOL_VERSION}\nreboot now=1\n");
        assert!(AdminRequest::decode(payload.as_bytes())
            .unwrap_err()
            .contains("unknown admin request"));
        let payload = format!("{ADMIN_PROTOCOL_VERSION}\nload slot=champion\n");
        assert!(AdminRequest::decode(payload.as_bytes())
            .unwrap_err()
            .contains("dir="));
    }

    #[test]
    fn unknown_fields_are_ignored_for_forward_compatibility() {
        let payload = format!("{ADMIN_PROTOCOL_VERSION}\npromote force=1 future=x\n");
        let (req, _) = AdminRequest::decode(payload.as_bytes()).unwrap();
        assert_eq!(req, AdminRequest::Promote { force: true });
    }
}
