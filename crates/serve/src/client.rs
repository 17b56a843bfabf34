//! Blocking TCP client for the framed serve protocol (`rlccd query`
//! speaks through this).
//!
//! Connections are configured through [`ClientBuilder`] (address, retry
//! policy, deadline cap, chaos plan) and ride on
//! [`rl_ccd_wire::transport`]'s [`FramedTcp`] — the same connection type
//! the dist coordinator and workers use — so chaos wrapping, reconnect frame
//! numbering, and deadline arming behave identically everywhere.
//!
//! The client is hardened against a hostile network:
//!
//! * **No read can hang forever.** Every socket operation runs under a
//!   timeout: the request's deadline budget when one is set, else
//!   [`ServeClient::DEFAULT_TIMEOUT`].
//! * **Deadline budgets propagate.** A request's `deadline_ms` is treated
//!   as a total budget for the roundtrip including retries; the value
//!   sent on the wire is the budget *remaining* at send time, so the
//!   server's queue-deadline check and the client's socket timeouts agree.
//! * **Retries are idempotent.** Selections are pure functions of
//!   (model, design, mode), so a failed roundtrip is safely re-issued on
//!   a fresh connection after a seeded exponential backoff. A typed
//!   [`Response::Overloaded`] is retried after the server's
//!   `retry_after_ms` hint (or the backoff, whichever is longer).

use crate::protocol::{HealthReply, QueryRequest, Request, Response, MAX_FRAME_LEN};
use rl_ccd_wire::{roundtrip, DeadlineBudget, Endpoint, FramedTcp, NetFaultPlan, RetryPolicy};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Duration;

/// Configures and dials a [`ServeClient`], collapsing the old
/// constructor sprawl (`connect` + `with_retry` + `with_chaos` +
/// `set_timeout`) into one place, mirroring the core `Session` builder.
///
/// ```no_run
/// use rl_ccd_serve::ServeClient;
/// use rl_ccd_wire::RetryPolicy;
///
/// let client = ServeClient::builder()
///     .addr("127.0.0.1:7878")
///     .retry(RetryPolicy::seeded(1).with_attempts(3))
///     .connect()?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct ClientBuilder {
    endpoint: Option<io::Result<Endpoint>>,
    retry: RetryPolicy,
    timeout: Option<Duration>,
    chaos: Option<(Arc<NetFaultPlan>, u64)>,
}

impl Default for ClientBuilder {
    fn default() -> Self {
        ClientBuilder {
            endpoint: None,
            retry: RetryPolicy::none(),
            timeout: Some(ServeClient::DEFAULT_TIMEOUT),
            chaos: None,
        }
    }
}

impl ClientBuilder {
    /// The server address to dial (e.g. `"127.0.0.1:7878"`). Required.
    /// Resolution happens here; a resolution failure surfaces from
    /// [`ClientBuilder::connect`].
    #[must_use]
    pub fn addr(mut self, addr: impl ToSocketAddrs) -> Self {
        self.endpoint = Some(Endpoint::resolve(addr));
        self
    }

    /// Retry-with-backoff (and reconnect) policy for queries. Defaults to
    /// [`RetryPolicy::none`]: fail on the first error.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Caps how long a single socket operation may block when the request
    /// carries no deadline budget. Defaults to
    /// [`ServeClient::DEFAULT_TIMEOUT`]; `None` removes the cap (the
    /// socket can block indefinitely — test use only).
    #[must_use]
    pub fn timeout(mut self, timeout: impl Into<Option<Duration>>) -> Self {
        self.timeout = timeout.into();
        self
    }

    /// Attaches a chaos plan, addressing this client's connection as
    /// `conn`. Reconnects resume the old connection's frame numbering, so
    /// plan coordinates stay stable across retries.
    #[must_use]
    pub fn chaos(mut self, plan: Arc<NetFaultPlan>, conn: u64) -> Self {
        self.chaos = Some((plan, conn));
        self
    }

    /// Dials the configured endpoint.
    ///
    /// # Errors
    /// `InvalidInput` when no address was set, plus resolution and
    /// connection failures.
    pub fn connect(self) -> io::Result<ServeClient> {
        let mut endpoint = self.endpoint.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "ClientBuilder needs an addr")
        })??;
        if let Some((plan, conn)) = self.chaos {
            endpoint = endpoint.with_chaos(plan, conn);
        }
        Ok(ServeClient {
            transport: endpoint.connect(None)?,
            retry: self.retry,
            timeout: self.timeout,
            retries: 0,
            reconnects: 0,
        })
    }
}

/// One connection to a serve endpoint. Requests are pipelined one at a
/// time: send a frame, read a frame.
#[derive(Debug)]
pub struct ServeClient {
    transport: FramedTcp,
    retry: RetryPolicy,
    timeout: Option<Duration>,
    retries: u64,
    reconnects: u64,
}

impl ServeClient {
    /// Fallback cap on any single socket operation when the request
    /// carries no deadline — a silent peer costs this much, not forever.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

    /// Largest `retry_after_ms` hint the retry loop will sleep on. A
    /// hint above this (a spent monthly quota's horizon) is returned to
    /// the caller as the typed response instead.
    pub const MAX_RETRYABLE_HINT_MS: u64 = 10_000;

    /// Starts configuring a client: address, retry policy, deadline cap,
    /// chaos plan.
    #[must_use]
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`) with the builder's
    /// defaults: no retries ([`RetryPolicy::none`]) and the
    /// [`ServeClient::DEFAULT_TIMEOUT`] socket-operation cap.
    ///
    /// # Errors
    /// Propagates resolution and connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::builder().addr(addr).connect()
    }

    /// Caps how long a single socket operation may block when the request
    /// carries no deadline budget. `None` removes the cap (the socket can
    /// block indefinitely again — test use only).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// Transport retries performed so far (failed roundtrips re-issued
    /// plus overload backoffs honored).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reconnections performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sends one query and blocks for the response, retrying per the
    /// retry policy. The request's `deadline_ms` is the total budget for
    /// all attempts.
    ///
    /// # Errors
    /// I/O failures after retries are exhausted, `TimedOut` when the
    /// deadline budget runs out, or `InvalidData` when the server's
    /// payload does not parse.
    pub fn query(&mut self, request: QueryRequest) -> io::Result<Response> {
        let budget = match request.deadline_ms {
            Some(ms) => DeadlineBudget::from_ms(ms),
            None => DeadlineBudget::unbounded(),
        };
        let key = self
            .transport
            .endpoint()
            .chaos()
            .map_or(0, |(_, conn)| conn);
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let result = self.attempt_query(&request, &budget);
            match result {
                // A shed or a *short* tenancy throttle (a token bucket
                // refilling) is worth waiting out; a long QuotaExceeded
                // hint (a spent monthly quota) is surfaced to the caller
                // instead of sleeping until next month.
                Ok(
                    Response::Overloaded { retry_after_ms }
                    | Response::QuotaExceeded { retry_after_ms },
                ) if attempt < self.retry.max_attempts
                    && retry_after_ms <= Self::MAX_RETRYABLE_HINT_MS =>
                {
                    // The server shed us; honor its backoff hint (or our
                    // own schedule, whichever is longer) within budget.
                    let backoff = self
                        .retry
                        .backoff(key, attempt)
                        .max(Duration::from_millis(retry_after_ms));
                    self.sleep_within(&budget, backoff)?;
                    self.retries += 1;
                    rl_ccd_obs::counter!("serve.client.retries", 1);
                }
                Ok(response) => return Ok(response),
                Err(e) if attempt < self.retry.max_attempts && retriable(&e) => {
                    self.sleep_within(&budget, self.retry.backoff(key, attempt))?;
                    self.reconnect(&budget)?;
                    self.retries += 1;
                    rl_ccd_obs::counter!("serve.client.retries", 1);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Probes the server's health (never queued server-side; retried like
    /// a query).
    ///
    /// # Errors
    /// Same as [`ServeClient::query`], plus `InvalidData` when the server
    /// answers a probe with anything but a health reply.
    pub fn health(&mut self) -> io::Result<HealthReply> {
        let budget = DeadlineBudget::unbounded();
        match self.roundtrip(&Request::Health, &budget)? {
            Response::Health(h) => Ok(h),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("health probe answered with {other:?}"),
            )),
        }
    }

    /// Sends the admin shutdown request; the server acknowledges and
    /// begins draining. Never retried.
    ///
    /// # Errors
    /// Same as [`ServeClient::query`].
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.roundtrip(&Request::Shutdown, &DeadlineBudget::unbounded())
    }

    /// One send/receive under the budget, with the remaining budget
    /// re-encoded onto the wire.
    fn attempt_query(
        &mut self,
        request: &QueryRequest,
        budget: &DeadlineBudget,
    ) -> io::Result<Response> {
        let mut send = request.clone();
        if request.deadline_ms.is_some() {
            send.deadline_ms = budget.remaining_ms()?;
        }
        self.roundtrip(&Request::Query(send), budget)
    }

    fn roundtrip(&mut self, request: &Request, budget: &DeadlineBudget) -> io::Result<Response> {
        let payload = roundtrip(
            &mut self.transport,
            &request.encode(),
            MAX_FRAME_LEN,
            budget,
            self.timeout,
        )?;
        Response::decode(&payload).map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))
    }

    /// Sleeps `backoff`, but never past the deadline budget.
    fn sleep_within(&self, budget: &DeadlineBudget, backoff: Duration) -> io::Result<()> {
        let sleep = match budget.remaining()? {
            // Leave a sliver of budget for the retry itself.
            Some(left) if left <= backoff => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "deadline budget too low to cover the retry backoff",
                ));
            }
            _ => backoff,
        };
        std::thread::sleep(sleep);
        Ok(())
    }

    /// Replaces the transport with a fresh connection, carrying the chaos
    /// plan and frame numbering over.
    fn reconnect(&mut self, budget: &DeadlineBudget) -> io::Result<()> {
        let connect_timeout = budget.remaining()?.or(self.timeout);
        self.transport.reconnect(connect_timeout)?;
        self.reconnects += 1;
        rl_ccd_obs::counter!("serve.client.reconnects", 1);
        Ok(())
    }
}

/// Whether a roundtrip failure is worth a reconnect + re-issue: transport
/// deaths and timeouts are; protocol violations (`InvalidData`) are not.
fn retriable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}
