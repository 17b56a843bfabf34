//! Shared wire format for RL-CCD network services.
//!
//! Both the inference server (`rl-ccd-serve`) and the distributed training
//! runtime (`rl-ccd-dist`) speak the same two-layer format, implemented
//! once here so the codecs cannot drift apart:
//!
//! # Framing
//!
//! Every message — request or response — is one frame: a 4-byte big-endian
//! payload length followed by that many payload bytes. Frames are capped
//! (default [`MAX_FRAME_LEN`]; services carrying parameter sets use
//! [`write_frame_limited`]/[`read_frame_limited`] with a larger cap) so a
//! corrupt or hostile length prefix cannot force a huge allocation.
//! Length-prefix framing keeps the stream self-delimiting: a reader never
//! has to scan for terminators, and pipelined messages on one connection
//! cannot bleed into each other.
//!
//! # Envelope
//!
//! The payload is UTF-8 text. Line 1 is always a protocol version token
//! (e.g. `rl-ccd-serve v1`); mismatched versions are rejected before any
//! field is parsed, so each format can evolve by bumping its token. Line 2
//! is the message head — a verb and `key=value` fields; the remaining
//! lines are the message body. [`fields`] holds that grammar once: the
//! reader and the writer every protocol's codec is a schema over.
//!
//! # Failure machinery
//!
//! Three companion modules pin the transport's behavior under a hostile
//! network: [`chaos`] (a deterministic fault-injecting stream wrapper
//! driven by a [`NetFaultPlan`]), [`retry`] (seeded
//! exponential-backoff-with-jitter policies), and [`deadline`]
//! (remaining-budget deadlines that convert into socket timeouts at every
//! blocking boundary).
//!
//! # Transports and the reactor
//!
//! The [`transport`] module unifies how services hold a connection: the
//! blocking [`FramedTcp`] (frame ops + deadline arming) dialed from an
//! [`Endpoint`], and the [`FramedListener`] that chaos-wraps accepted
//! (server-side) sockets.
//! Every listening port except the dist worker's is [`front`]: one
//! accept/read/write/drain loop parameterised by a frame handler. It is
//! built from the [`reactor`] module's epoll readiness loop ([`Poller`] +
//! [`Waker`]), [`timer`]'s hashed timer wheel for per-connection stall
//! deadlines, and [`frames`]' non-blocking framed state machine
//! ([`FramedConn`]) that incrementally decodes the same frames the
//! blocking calls speak.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod deadline;
pub mod fields;
pub mod frames;
pub mod front;
pub mod reactor;
pub mod retry;
pub mod timer;
pub mod transport;

pub use chaos::{ChaosTransport, NetFault, NetFaultPlan};
pub use deadline::DeadlineBudget;
pub use frames::{FramedConn, RecvBuf, SendBuf};
pub use reactor::{Poller, Waker};
pub use retry::RetryPolicy;
pub use timer::{TimerId, TimerWheel};
pub use transport::{connect_any, roundtrip, Endpoint, FramedListener, FramedTcp};

use std::io::{self, Read, Write};

/// Default hard cap on a frame's payload length (1 MiB) — enough for
/// control messages and selections, small enough that a corrupt prefix is
/// harmless.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Writes one length-prefixed frame under the default [`MAX_FRAME_LEN`].
///
/// # Errors
/// `InvalidInput` when the payload exceeds the cap; otherwise propagates
/// I/O errors.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    write_frame_limited(w, payload, MAX_FRAME_LEN)
}

/// Reads one length-prefixed frame under the default [`MAX_FRAME_LEN`].
///
/// # Errors
/// `InvalidData` when the length prefix exceeds the cap; otherwise
/// propagates I/O errors (including `UnexpectedEof` on a torn frame).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    read_frame_limited(r, MAX_FRAME_LEN)
}

/// Writes one length-prefixed frame with an explicit payload cap
/// (services shipping parameter sets or netlists need more than the
/// default control-message cap).
///
/// # Errors
/// `InvalidInput` when the payload exceeds `max_len`; otherwise propagates
/// I/O errors.
pub fn write_frame_limited<W: Write>(w: &mut W, payload: &[u8], max_len: usize) -> io::Result<()> {
    if payload.len() > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {max_len}-byte cap",
                payload.len()
            ),
        ));
    }
    // Prefix and payload leave in one write: two small writes on a socket
    // without TCP_NODELAY stall the second behind the peer's delayed ACK.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame with an explicit payload cap.
///
/// # Errors
/// `InvalidData` when the length prefix exceeds `max_len`; otherwise
/// propagates I/O errors (including `UnexpectedEof` on a torn frame).
pub fn read_frame_limited<R: Read>(r: &mut R, max_len: usize) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {max_len}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Checks the version line of a payload against `version` and returns
/// `(head, body)`: the second line and everything after it.
///
/// # Errors
/// A human-readable description when the payload is not UTF-8, has no
/// version line, or carries a different version token.
pub fn split_versioned<'a>(payload: &'a [u8], version: &str) -> Result<(&'a str, &'a str), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let (found, rest) = text
        .split_once('\n')
        .ok_or_else(|| "payload has no version line".to_string())?;
    if found != version {
        return Err(format!(
            "protocol version {}, this endpoint speaks {version:?}",
            fields::quote(found)
        ));
    }
    let (head, rest) = rest.split_once('\n').unwrap_or((rest, ""));
    Ok((head, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err(), "stream exhausted");
    }

    #[test]
    fn oversized_frames_are_rejected_both_ways() {
        let mut buf = Vec::new();
        let too_big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(write_frame(&mut buf, &too_big).is_err());
        let forged = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        assert!(read_frame(&mut &forged[..]).is_err());
    }

    #[test]
    fn limited_variants_honor_their_own_cap() {
        let mut buf = Vec::new();
        let payload = vec![7u8; MAX_FRAME_LEN + 1];
        write_frame_limited(&mut buf, &payload, MAX_FRAME_LEN * 2).unwrap();
        // The default reader refuses it; a matching cap accepts it.
        assert!(read_frame(&mut &buf[..]).is_err());
        assert_eq!(
            read_frame_limited(&mut &buf[..], MAX_FRAME_LEN * 2).unwrap(),
            payload
        );
        // A writer under a small cap refuses what the default allows.
        assert!(write_frame_limited(&mut buf, b"abcd", 3).is_err());
    }

    #[test]
    fn torn_frame_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"complete").unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn split_versioned_checks_token_and_splits_head() {
        let (head, body) = split_versioned(b"proto v1\nhello a=1\nbody\nlines\n", "proto v1")
            .expect("valid payload");
        assert_eq!(head, "hello a=1");
        assert_eq!(body, "body\nlines\n");
        let err = split_versioned(b"proto v2\nhello\n", "proto v1").unwrap_err();
        assert!(err.contains("version"), "{err}");
        assert!(split_versioned(&[0xFF, 0xFE], "proto v1").is_err());
        assert!(split_versioned(b"no newline", "proto v1").is_err());
    }
}
