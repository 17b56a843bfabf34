//! Champion/challenger promotion: canary routing, the eval gate, and a
//! versioned audit trail.
//!
//! The daemon serves production traffic from the `"champion"` registry
//! slot. A new checkpoint is loaded into `"challenger"`, optionally
//! canaried to a tenant-stable fraction of traffic, scored against the
//! champion on the held-out eval gate, and — only if the gate passes (or
//! an operator forces it) — promoted: the challenger's weights are
//! installed under the champion name in one atomic registry swap, with
//! the previous champion retained for instant rollback. Every promote,
//! rollback, and canary change appends a versioned JSONL audit record.

use crate::clock::Clock;
use rl_ccd::gate::{run_eval_gate, GateSpec, GateVerdict};
use rl_ccd_obs::escape_json;
use rl_ccd_serve::{ModelRegistry, ModelVersion, ServeModel};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Registry slot production traffic is answered from.
pub const CHAMPION: &str = "champion";
/// Registry slot a candidate checkpoint is staged in.
pub const CHALLENGER: &str = "challenger";

/// Basis points in a whole: canary fractions are stored as `0..=10_000`.
const CANARY_SCALE: u32 = 10_000;

/// Whether `tenant` falls inside a canary fraction of `bp` basis points.
///
/// The decision hashes only the tenant id, so it is *stable*: a tenant is
/// either in the canary or out of it for as long as the fraction holds,
/// rather than flapping between model versions per request. 0 routes
/// nobody, 10 000 routes everybody.
pub fn in_canary(tenant: &str, bp: u32) -> bool {
    (rl_ccd::fnv1a64(tenant.as_bytes()) % CANARY_SCALE as u64) < bp as u64
}

/// One audit-trail entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monotone sequence number (1-based).
    pub seq: u64,
    /// Epoch milliseconds the action happened at.
    pub at_ms: u64,
    /// What happened: `load`, `promote`, `rollback`, `canary`.
    pub action: String,
    /// Human-readable detail (gate verdict, versions, fractions).
    pub detail: String,
}

impl AuditRecord {
    /// The versioned JSONL form, one line.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"v\":\"rl-ccd-audit v1\",\"seq\":{},\"at_ms\":{},\"action\":\"{}\",\"detail\":\"{}\"}}",
            self.seq,
            self.at_ms,
            escape_json(&self.action),
            escape_json(&self.detail)
        )
    }
}

#[derive(Debug, Default)]
struct AuditLog {
    seq: u64,
    records: Vec<AuditRecord>,
    path: Option<PathBuf>,
}

impl AuditLog {
    fn append(&mut self, at_ms: u64, action: &str, detail: String) {
        self.seq += 1;
        let record = AuditRecord {
            seq: self.seq,
            at_ms,
            action: action.to_string(),
            detail,
        };
        if let Some(path) = &self.path {
            use std::io::Write;
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = writeln!(f, "{}", record.to_jsonl());
            }
        }
        self.records.push(record);
    }
}

/// The promotion state machine. All methods take `&self`; internal state
/// is locked, so the admin port and tests can drive it concurrently with
/// traffic.
#[derive(Debug)]
pub struct Promoter {
    gate: GateSpec,
    clock: Arc<dyn Clock>,
    canary_bp: AtomicU32,
    /// The champion evicted by the last promote, kept for rollback.
    previous: Mutex<Option<Arc<ServeModel>>>,
    audit: Mutex<AuditLog>,
}

impl Promoter {
    /// A promoter gating with `gate`, optionally appending audit records
    /// to the JSONL file at `audit_path`.
    pub fn new(gate: GateSpec, clock: Arc<dyn Clock>, audit_path: Option<PathBuf>) -> Self {
        Self {
            gate,
            clock,
            canary_bp: AtomicU32::new(0),
            previous: Mutex::new(None),
            audit: Mutex::new(AuditLog {
                path: audit_path,
                ..AuditLog::default()
            }),
        }
    }

    /// Current canary fraction in `0.0..=1.0`.
    pub fn canary_fraction(&self) -> f64 {
        f64::from(self.canary_bp.load(Ordering::SeqCst)) / f64::from(CANARY_SCALE)
    }

    /// Sets the canary fraction (audited).
    ///
    /// # Errors
    /// When `fraction` is not a finite value in `0.0..=1.0`.
    pub fn set_canary(&self, fraction: f64) -> Result<(), String> {
        if !(fraction.is_finite() && (0.0..=1.0).contains(&fraction)) {
            return Err(format!("canary fraction {fraction} is not in 0.0..=1.0"));
        }
        let bp = (fraction * f64::from(CANARY_SCALE)).round() as u32;
        self.canary_bp.store(bp, Ordering::SeqCst);
        self.note("canary", format!("fraction={fraction} bp={bp}"));
        Ok(())
    }

    /// Whether `tenant`'s champion-slot traffic should be answered by the
    /// challenger under the current canary fraction.
    pub fn routes_to_challenger(&self, tenant: &str) -> bool {
        let bp = self.canary_bp.load(Ordering::SeqCst);
        bp > 0 && in_canary(tenant, bp)
    }

    /// Runs the eval gate: challenger scored against champion on the
    /// held-out designs. Does not mutate anything — `promote` calls this
    /// itself, but admins can ask for a dry run.
    ///
    /// # Errors
    /// When either slot is empty.
    pub fn run_gate(&self, registry: &ModelRegistry) -> Result<GateVerdict, String> {
        let champion = registry
            .get(CHAMPION)
            .ok_or_else(|| format!("no {CHAMPION:?} in the registry"))?;
        let challenger = registry
            .get(CHALLENGER)
            .ok_or_else(|| format!("no {CHALLENGER:?} loaded"))?;
        Ok(run_eval_gate(
            (&champion.model, &champion.params),
            (&challenger.model, &challenger.params),
            &self.gate,
        ))
    }

    /// Promotes the challenger: runs the gate (unless `force`), then
    /// atomically installs the challenger's weights under the champion
    /// name. In-flight batches finish on the old champion; the evicted
    /// entry is retained for [`Promoter::rollback`]. Returns the gate
    /// verdict (`None` when forced past a missing champion) and the new
    /// champion's identity.
    ///
    /// # Errors
    /// No challenger loaded, or the gate failed and `force` was not set.
    pub fn promote(
        &self,
        registry: &ModelRegistry,
        force: bool,
    ) -> Result<(Option<GateVerdict>, ModelVersion), String> {
        let challenger = registry
            .get(CHALLENGER)
            .ok_or_else(|| format!("no {CHALLENGER:?} loaded"))?;
        let verdict = match registry.get(CHAMPION) {
            Some(champion) => Some(run_eval_gate(
                (&champion.model, &champion.params),
                (&challenger.model, &challenger.params),
                &self.gate,
            )),
            None if force => None,
            None => return Err(format!("no {CHAMPION:?} to gate against (use force)")),
        };
        if let Some(v) = &verdict {
            if !v.passed && !force {
                self.note("promote", format!("refused: {}", v.summary()));
                return Err(format!("gate failed: {}", v.summary()));
            }
        }
        // Same weights, champion name: the registry swap is atomic, and
        // the identical fingerprint keeps the selection cache (keyed on
        // it) serving bit-identical answers for bit-identical weights.
        let promoted = Arc::new(ServeModel {
            name: CHAMPION.to_string(),
            version: challenger.version,
            fingerprint: challenger.fingerprint,
            model: challenger.model.clone(),
            params: challenger.params.clone(),
        });
        let identity = ModelVersion {
            name: promoted.name.clone(),
            version: promoted.version,
            fingerprint: promoted.fingerprint,
        };
        let evicted = registry.install(promoted);
        *self.previous.lock().expect("previous lock") = evicted;
        let gate_note = verdict
            .as_ref()
            .map_or("no champion (forced)".to_string(), GateVerdict::summary);
        self.note(
            "promote",
            format!("now {identity}; gate: {gate_note}; force={force}"),
        );
        Ok((verdict, identity))
    }

    /// Reinstalls the champion evicted by the last promote (audited).
    ///
    /// # Errors
    /// When there is nothing to roll back to.
    pub fn rollback(&self, registry: &ModelRegistry) -> Result<ModelVersion, String> {
        let previous = self
            .previous
            .lock()
            .expect("previous lock")
            .take()
            .ok_or("nothing to roll back to")?;
        let identity = ModelVersion {
            name: previous.name.clone(),
            version: previous.version,
            fingerprint: previous.fingerprint,
        };
        registry.install(previous);
        self.note("rollback", format!("restored {identity}"));
        Ok(identity)
    }

    /// Appends a free-form audit record (the daemon notes loads here).
    pub fn note(&self, action: &str, detail: String) {
        let at_ms = self.clock.now_ms();
        self.audit
            .lock()
            .expect("audit lock")
            .append(at_ms, action, detail);
    }

    /// The in-memory audit trail, oldest first.
    pub fn audit_records(&self) -> Vec<AuditRecord> {
        self.audit.lock().expect("audit lock").records.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use rl_ccd::{RlCcd, RlConfig};

    fn promoter() -> Promoter {
        Promoter::new(GateSpec::quick(3), Arc::new(ManualClock::at(1_000)), None)
    }

    fn registry_with(slots: &[&str]) -> ModelRegistry {
        let (_, params) = RlCcd::init(RlConfig::fast());
        let reg = ModelRegistry::new();
        for slot in slots {
            reg.insert_params(*slot, params.clone(), 0.3)
                .expect("insert");
        }
        reg
    }

    #[test]
    fn canary_boundaries_route_nobody_and_everybody() {
        for tenant in ["acme", "globex", "initech", "t0", "t1", "t2"] {
            assert!(!in_canary(tenant, 0), "{tenant} routed at fraction 0.0");
            assert!(
                in_canary(tenant, 10_000),
                "{tenant} skipped at fraction 1.0"
            );
        }
        // Stability: the same tenant hashes the same way every time.
        assert_eq!(in_canary("acme", 5_000), in_canary("acme", 5_000));
    }

    #[test]
    fn canary_fraction_is_validated_and_audited() {
        let p = promoter();
        assert!(p.set_canary(1.5).is_err());
        assert!(p.set_canary(-0.1).is_err());
        assert!(p.set_canary(f64::NAN).is_err());
        p.set_canary(0.0).unwrap();
        assert!(!p.routes_to_challenger("anyone"));
        p.set_canary(1.0).unwrap();
        assert!(p.routes_to_challenger("anyone"));
        assert_eq!(p.canary_fraction(), 1.0);
        let audit = p.audit_records();
        assert_eq!(audit.len(), 2);
        assert_eq!(audit[1].action, "canary");
        assert_eq!(audit[1].seq, 2);
    }

    #[test]
    fn promote_swaps_weights_and_rollback_restores_them() {
        let p = promoter();
        let reg = registry_with(&[CHAMPION, CHALLENGER]);
        let old_champion = reg.get(CHAMPION).unwrap();
        let (verdict, identity) = p.promote(&reg, false).expect("identical weights pass");
        assert!(verdict.expect("gated").passed);
        assert_eq!(identity.name, CHAMPION);
        let now = reg.get(CHAMPION).unwrap();
        assert!(!Arc::ptr_eq(&now, &old_champion), "entry was swapped");
        assert_eq!(now.fingerprint, old_champion.fingerprint, "same weights");
        let restored = p.rollback(&reg).expect("previous champion retained");
        assert_eq!(restored.fingerprint, old_champion.fingerprint);
        assert!(Arc::ptr_eq(&reg.get(CHAMPION).unwrap(), &old_champion));
        assert!(p.rollback(&reg).is_err(), "rollback is one level deep");
        let records = p.audit_records();
        let actions: Vec<&str> = records.iter().map(|r| r.action.as_str()).collect();
        assert_eq!(actions, ["promote", "rollback"]);
    }

    #[test]
    fn promote_without_a_challenger_or_champion_is_typed() {
        let p = promoter();
        let empty = ModelRegistry::new();
        assert!(p.promote(&empty, false).unwrap_err().contains("challenger"));
        let only_challenger = registry_with(&[CHALLENGER]);
        assert!(p
            .promote(&only_challenger, false)
            .unwrap_err()
            .contains("force"));
        let (verdict, identity) = p.promote(&only_challenger, true).expect("forced");
        assert!(verdict.is_none(), "nothing to gate against");
        assert_eq!(identity.name, CHAMPION);
        assert!(only_challenger.get(CHAMPION).is_some());
    }

    #[test]
    fn audit_records_serialize_as_versioned_jsonl() {
        let record = AuditRecord {
            seq: 7,
            at_ms: 42,
            action: "promote".into(),
            detail: "said \"ok\"\nnewline".into(),
        };
        let line = record.to_jsonl();
        assert!(line.starts_with("{\"v\":\"rl-ccd-audit v1\""), "{line}");
        assert!(line.contains("\\\"ok\\\""), "{line}");
        assert!(line.contains("\\n"), "{line}");
        assert!(!line.contains('\n'), "one line per record");
    }

    #[test]
    fn audit_log_appends_to_the_jsonl_file() {
        let dir = std::env::temp_dir().join("rl_ccd_daemon_audit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.jsonl");
        std::fs::remove_file(&path).ok();
        let p = Promoter::new(
            GateSpec::quick(3),
            Arc::new(ManualClock::at(9)),
            Some(path.clone()),
        );
        p.set_canary(0.25).unwrap();
        p.note("load", "challenger staged".into());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"action\":\"canary\""));
        assert!(lines[1].contains("\"seq\":2"));
        assert!(lines[1].contains("\"at_ms\":9"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
