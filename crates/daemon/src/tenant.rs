//! Tenancy: authentication, token-bucket rate limits, monthly quotas,
//! per-tenant usage accounting.
//!
//! Every query on the daemon's tenant port carries [`Credentials`]; the
//! [`TenantBook`] admits or rejects it before the request touches the
//! serving queue. Token comparison is constant-time (no early exit a
//! timing probe could learn a prefix from), and unknown tenants get the
//! same "invalid credentials" answer as a bad token so the endpoint is
//! not a tenant-existence oracle.
//!
//! Rate limiting is a classic token bucket (capacity `burst`, refill
//! `rate_per_sec`); the monthly quota counts admitted requests in fixed
//! 30-day windows from the epoch. Both run off an injected [`Clock`], so
//! tests step time explicitly instead of sleeping.

use crate::clock::Clock;
use rl_ccd_serve::Credentials;
use rl_ccd_wire::fields::quote;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

/// Length of one quota window: 30 days in milliseconds.
pub const QUOTA_WINDOW_MS: u64 = 30 * 24 * 60 * 60 * 1000;

/// Longest tenant id a spec may carry, in bytes. Ids travel back in every
/// `tenant_list` reply, so an unbounded one could make that reply too
/// large to frame.
const MAX_ID_LEN: usize = 64;

/// Constant-time byte-string equality: scans both inputs fully whatever
/// the outcome, so response timing does not leak how much of a token
/// matched.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    let n = a.len().max(b.len());
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= (x ^ y) as usize;
    }
    diff == 0
}

/// One tenant's declared identity and limits.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantConfig {
    /// Tenant identity (no `:` or whitespace, at most 64 bytes).
    pub id: String,
    /// Secret auth token (no `:` or whitespace).
    pub token: String,
    /// Token-bucket refill rate, requests per second.
    pub rate_per_sec: f64,
    /// Token-bucket capacity: how many requests may burst at once.
    pub burst: f64,
    /// Admitted requests allowed per 30-day window. 0 means the tenant
    /// may authenticate but never query (a disabled account).
    pub monthly_quota: u64,
}

impl fmt::Display for TenantConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}:{}:{}",
            self.id, self.token, self.rate_per_sec, self.burst, self.monthly_quota
        )
    }
}

impl FromStr for TenantConfig {
    type Err = String;

    /// Parses the CLI/admin spec form `id:token:rate:burst:quota`. Errors
    /// quote at most [`rl_ccd_wire::fields::QUOTE_MAX`] bytes of any input.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 5 {
            return Err(format!(
                "tenant spec {} is not id:token:rate:burst:quota",
                quote(s)
            ));
        }
        if parts[0].is_empty() || parts[0].contains(char::is_whitespace) {
            return Err(format!("bad tenant id {}", quote(parts[0])));
        }
        if parts[0].len() > MAX_ID_LEN {
            return Err(format!(
                "tenant id {} is longer than {MAX_ID_LEN} bytes",
                quote(parts[0])
            ));
        }
        if parts[1].is_empty() || parts[1].contains(char::is_whitespace) {
            return Err(format!("bad tenant token for {:?}", parts[0]));
        }
        let rate_per_sec: f64 = parts[2]
            .parse()
            .map_err(|_| format!("bad rate {}", quote(parts[2])))?;
        let burst: f64 = parts[3]
            .parse()
            .map_err(|_| format!("bad burst {}", quote(parts[3])))?;
        let monthly_quota = parts[4]
            .parse()
            .map_err(|_| format!("bad quota {}", quote(parts[4])))?;
        if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) {
            return Err(format!("rate must be positive, got {rate_per_sec}"));
        }
        if !(burst.is_finite() && burst >= 1.0) {
            return Err(format!("burst must be at least 1, got {burst}"));
        }
        Ok(Self {
            id: parts[0].to_string(),
            token: parts[1].to_string(),
            rate_per_sec,
            burst,
            monthly_quota,
        })
    }
}

/// Outcome of admitting one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Authenticated and within limits; one bucket token was consumed
    /// and the quota counter advanced.
    Granted,
    /// Authentication failed or the operation is not allowed.
    Denied(String),
    /// Authenticated, but the bucket is empty or the quota is spent;
    /// retry after the hinted delay (the bucket's refill horizon, or the
    /// remainder of the quota window).
    Throttled {
        /// Milliseconds until the tenant may retry.
        retry_after_ms: u64,
    },
}

/// Lifetime usage counters for one tenant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Requests admitted.
    pub accepted: u64,
    /// Requests rejected for a bad token.
    pub denied: u64,
    /// Requests throttled by the bucket or quota.
    pub throttled: u64,
    /// Admitted requests in the current quota window.
    pub used_in_window: u64,
}

/// A tenant's configuration and usage, as reported to admins.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSummary {
    /// Tenant identity.
    pub id: String,
    /// Token-bucket refill rate (requests/second).
    pub rate_per_sec: f64,
    /// Token-bucket capacity.
    pub burst: f64,
    /// Requests allowed per 30-day window.
    pub monthly_quota: u64,
    /// Usage counters.
    pub usage: TenantUsage,
}

#[derive(Debug)]
struct TenantState {
    config: TenantConfig,
    /// Fractional tokens currently in the bucket.
    tokens: f64,
    /// Last refill instant (epoch ms).
    refilled_ms: u64,
    /// Quota window index (`now_ms / QUOTA_WINDOW_MS`) the counter is for.
    window: u64,
    usage: TenantUsage,
}

impl TenantState {
    fn new(config: TenantConfig, now_ms: u64) -> Self {
        Self {
            tokens: config.burst,
            refilled_ms: now_ms,
            window: now_ms / QUOTA_WINDOW_MS,
            config,
            usage: TenantUsage::default(),
        }
    }
}

/// The live tenant table: admit requests, mutate tenants, report usage.
#[derive(Debug)]
pub struct TenantBook {
    clock: Arc<dyn Clock>,
    tenants: Mutex<BTreeMap<String, TenantState>>,
}

impl TenantBook {
    /// An empty book running on `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self {
            clock,
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// Adds (or replaces) a tenant; returns whether a previous entry with
    /// that id was replaced. A replaced tenant's bucket, window, and
    /// usage counters start fresh.
    pub fn add(&self, config: TenantConfig) -> bool {
        let now = self.clock.now_ms();
        let mut tenants = self.tenants.lock().expect("tenant lock");
        tenants
            .insert(config.id.clone(), TenantState::new(config, now))
            .is_some()
    }

    /// Removes a tenant; returns whether it existed.
    pub fn remove(&self, id: &str) -> bool {
        self.tenants
            .lock()
            .expect("tenant lock")
            .remove(id)
            .is_some()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.lock().expect("tenant lock").len()
    }

    /// Whether no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.lock().expect("tenant lock").is_empty()
    }

    /// Admits or rejects one request for `creds`, consuming a bucket
    /// token and advancing the quota counter on success.
    pub fn admit(&self, creds: &Credentials) -> Admission {
        let now = self.clock.now_ms();
        let mut tenants = self.tenants.lock().expect("tenant lock");
        let Some(state) = tenants.get_mut(&creds.tenant) else {
            // Burn comparable time to a real comparison so an unknown id
            // is not distinguishable from a bad token by latency alone,
            // and reuse the same message (no tenant-existence oracle).
            let _ = constant_time_eq(creds.token.as_bytes(), creds.token.as_bytes());
            return Admission::Denied("invalid credentials".into());
        };
        if !constant_time_eq(creds.token.as_bytes(), state.config.token.as_bytes()) {
            state.usage.denied += 1;
            return Admission::Denied("invalid credentials".into());
        }
        // Quota windows are fixed 30-day slots from the epoch; crossing
        // into a new slot resets the counter.
        let window = now / QUOTA_WINDOW_MS;
        if window != state.window {
            state.window = window;
            state.usage.used_in_window = 0;
        }
        if state.usage.used_in_window >= state.config.monthly_quota {
            state.usage.throttled += 1;
            let window_end = (window + 1) * QUOTA_WINDOW_MS;
            return Admission::Throttled {
                retry_after_ms: window_end.saturating_sub(now).max(1),
            };
        }
        // Token bucket: refill for the elapsed time, capped at burst.
        let elapsed_ms = now.saturating_sub(state.refilled_ms);
        state.tokens = (state.tokens + state.config.rate_per_sec * elapsed_ms as f64 / 1e3)
            .min(state.config.burst);
        state.refilled_ms = now;
        if state.tokens < 1.0 {
            state.usage.throttled += 1;
            let deficit = 1.0 - state.tokens;
            let horizon_ms = (deficit / state.config.rate_per_sec * 1e3).ceil() as u64;
            return Admission::Throttled {
                retry_after_ms: horizon_ms.max(1),
            };
        }
        state.tokens -= 1.0;
        state.usage.used_in_window += 1;
        state.usage.accepted += 1;
        Admission::Granted
    }

    /// Every tenant's configuration and usage, sorted by id. Tokens are
    /// deliberately absent — this is what `tenant-list` shows admins.
    pub fn summaries(&self) -> Vec<TenantSummary> {
        self.tenants
            .lock()
            .expect("tenant lock")
            .values()
            .map(|s| TenantSummary {
                id: s.config.id.clone(),
                rate_per_sec: s.config.rate_per_sec,
                burst: s.config.burst,
                monthly_quota: s.config.monthly_quota,
                usage: s.usage,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn creds(tenant: &str, token: &str) -> Credentials {
        Credentials {
            tenant: tenant.into(),
            token: token.into(),
        }
    }

    fn book_with(spec: &str, clock: &ManualClock) -> TenantBook {
        let book = TenantBook::new(Arc::new(clock.clone()));
        book.add(spec.parse().expect("spec"));
        book
    }

    #[test]
    fn spec_roundtrips_and_rejects_malformed_forms() {
        let spec: TenantConfig = "acme:s3cret:2.5:10:1000".parse().unwrap();
        assert_eq!(spec.id, "acme");
        assert_eq!(spec.rate_per_sec, 2.5);
        assert_eq!(spec.burst, 10.0);
        assert_eq!(spec.monthly_quota, 1000);
        assert_eq!(spec.to_string().parse::<TenantConfig>().unwrap(), spec);
        let long_id = format!("{}:t:1:1:1", "a".repeat(65));
        for bad in [
            "acme:s3cret:2.5:10", // missing quota
            ":s3cret:1:1:1",      // empty id
            long_id.as_str(),     // id over 64 bytes
            "acme::1:1:1",        // empty token
            "acme:t:0:1:1",       // zero rate
            "acme:t:1:0.5:1",     // burst below one request
            "acme:t:nope:1:1",    // unparsable rate
        ] {
            assert!(bad.parse::<TenantConfig>().is_err(), "{bad}");
        }
    }

    #[test]
    fn constant_time_eq_matches_plain_equality() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(!constant_time_eq(b"", b"x"));
        assert!(constant_time_eq(b"", b""));
    }

    #[test]
    fn unknown_tenant_and_bad_token_get_the_same_answer() {
        let clock = ManualClock::at(0);
        let book = book_with("acme:s3cret:10:5:100", &clock);
        let unknown = book.admit(&creds("ghost", "s3cret"));
        let wrong = book.admit(&creds("acme", "guess"));
        assert_eq!(unknown, wrong, "no tenant-existence oracle");
        assert!(matches!(unknown, Admission::Denied(_)));
        assert_eq!(book.summaries()[0].usage.denied, 1);
    }

    #[test]
    fn bucket_drains_at_burst_and_refills_with_the_clock() {
        let clock = ManualClock::at(0);
        // 2 req/s, burst of 3.
        let book = book_with("acme:tok:2:3:1000000", &clock);
        for _ in 0..3 {
            assert_eq!(book.admit(&creds("acme", "tok")), Admission::Granted);
        }
        let Admission::Throttled { retry_after_ms } = book.admit(&creds("acme", "tok")) else {
            panic!("bucket should be empty");
        };
        // Refill horizon for one token at 2/s is 500 ms.
        assert_eq!(retry_after_ms, 500);
        // Honoring the hint admits exactly one more.
        clock.advance(retry_after_ms);
        assert_eq!(book.admit(&creds("acme", "tok")), Admission::Granted);
        assert!(matches!(
            book.admit(&creds("acme", "tok")),
            Admission::Throttled { .. }
        ));
        // A long idle refills to burst, never beyond.
        clock.advance(60_000);
        for _ in 0..3 {
            assert_eq!(book.admit(&creds("acme", "tok")), Admission::Granted);
        }
        assert!(matches!(
            book.admit(&creds("acme", "tok")),
            Admission::Throttled { .. }
        ));
        let usage = book.summaries()[0].usage;
        assert_eq!(usage.accepted, 7);
        assert_eq!(usage.throttled, 3);
    }

    #[test]
    fn zero_quota_tenant_authenticates_but_never_queries() {
        let clock = ManualClock::at(12_345);
        let book = book_with("frozen:tok:10:5:0", &clock);
        let Admission::Throttled { retry_after_ms } = book.admit(&creds("frozen", "tok")) else {
            panic!("zero quota must throttle, not grant or deny");
        };
        // The hint is the remainder of the 30-day window — far beyond any
        // bucket horizon, so clients surface it instead of sleeping.
        assert_eq!(retry_after_ms, QUOTA_WINDOW_MS - 12_345);
        // A bad token is still a denial, proving auth ran first.
        assert!(matches!(
            book.admit(&creds("frozen", "wrong")),
            Admission::Denied(_)
        ));
    }

    #[test]
    fn quota_resets_when_the_window_rolls_over() {
        let clock = ManualClock::at(0);
        let book = book_with("acme:tok:1000:1000:2", &clock);
        assert_eq!(book.admit(&creds("acme", "tok")), Admission::Granted);
        assert_eq!(book.admit(&creds("acme", "tok")), Admission::Granted);
        let Admission::Throttled { retry_after_ms } = book.admit(&creds("acme", "tok")) else {
            panic!("quota spent");
        };
        assert_eq!(retry_after_ms, QUOTA_WINDOW_MS);
        clock.advance(QUOTA_WINDOW_MS);
        assert_eq!(
            book.admit(&creds("acme", "tok")),
            Admission::Granted,
            "new window, fresh quota"
        );
        assert_eq!(book.summaries()[0].usage.used_in_window, 1);
    }

    #[test]
    fn replacing_a_tenant_resets_its_limits() {
        let clock = ManualClock::at(0);
        let book = book_with("acme:tok:1:1:10", &clock);
        assert_eq!(book.admit(&creds("acme", "tok")), Admission::Granted);
        assert!(matches!(
            book.admit(&creds("acme", "tok")),
            Admission::Throttled { .. }
        ));
        assert!(book.add("acme:newtok:1:1:10".parse().unwrap()));
        assert!(matches!(
            book.admit(&creds("acme", "tok")),
            Admission::Denied(_)
        ));
        assert_eq!(book.admit(&creds("acme", "newtok")), Admission::Granted);
        assert!(book.remove("acme"));
        assert!(!book.remove("acme"));
        assert!(book.is_empty());
    }
}
