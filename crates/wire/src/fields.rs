//! The `key=value` field layer: the one reader and the one writer behind
//! the `rl-ccd-serve v1`, `rl-ccd-admin v1` and `rl-ccd-dist v1` text
//! envelopes (`version\nverb key=value…\nbody`). The protocols are
//! schemas over it — which keys, which types, which are optional.
//!
//! A line is whitespace-separated tokens. Its first token may be a verb
//! ([`split_verb`]); every other token is `key=value`, split at its first
//! `=`. A token without `=` and a key that appears twice are errors; a key
//! the schema does not ask for is ignored, so fields can be added without
//! a version bump. A line may name one *tail* key: its value is the rest
//! of the line, spaces and `=` included, so it is always written last.
//! Flags are `0|1`, a [`hex16`] is exactly sixteen hex digits, a list is
//! comma-separated and the empty value is the empty list. Errors quote at
//! most [`QUOTE_MAX`] bytes of the input that caused them, so a reply that
//! carries one is bounded however large the offending frame was.

use std::fmt::{self, Display};
use std::io::Write as _;
use std::str::FromStr;

/// Most bytes of offending input an error message quotes.
pub const QUOTE_MAX: usize = 64;

/// `{s:?}` of at most the first [`QUOTE_MAX`] bytes of `s`; `…` marks a cut.
pub fn quote(s: &str) -> String {
    if s.len() <= QUOTE_MAX {
        return format!("{s:?}");
    }
    let mut end = QUOTE_MAX;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{:?}…", &s[..end])
}

/// Parses exactly sixteen hex digits — the `{:016x}` form fingerprints and
/// ids travel in.
pub fn hex16(s: &str) -> Option<u64> {
    let digits = s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit());
    digits.then(|| u64::from_str_radix(s, 16).ok()).flatten()
}

/// Splits a line into its verb (the first token) and the fields after it.
pub fn split_verb(line: &str) -> (&str, &str) {
    line.split_once(char::is_whitespace).unwrap_or((line, ""))
}

/// Why a line did not read as the fields its schema asks for; each variant
/// carries the bounded, human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldError {
    /// A token has no `=`.
    NotKeyValue(String),
    /// A key appears twice on one line.
    Repeated(String),
    /// A required key is absent.
    Missing(String),
    /// A value is not what its key requires.
    Bad(String),
}

impl Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use FieldError::{Bad, Missing, NotKeyValue, Repeated};
        let (NotKeyValue(message) | Repeated(message) | Missing(message) | Bad(message)) = self;
        f.write_str(message)
    }
}

impl std::error::Error for FieldError {}

impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.to_string()
    }
}

/// The `key=value` fields of one head or body line.
#[derive(Clone, Debug)]
pub struct Fields<'a> {
    what: &'static str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Tokenises `line` (its verb, if any, already split off). `what`
    /// names the line in errors; `tail` names the key, if any, whose value
    /// is the rest of the line. Fails on a token without `=` and on a
    /// repeated key.
    pub fn read(what: &'static str, line: &'a str, tail: Option<&str>) -> Result<Self, FieldError> {
        let mut pairs: Vec<(&str, &str)> = Vec::with_capacity(8);
        let mut rest = line.trim_start();
        while !rest.is_empty() {
            let mut end = rest.find(char::is_whitespace).unwrap_or(rest.len());
            let token = &rest[..end];
            let Some((key, mut value)) = token.split_once('=') else {
                let token = quote(token);
                return Err(FieldError::NotKeyValue(format!(
                    "{what}: field {token} is not key=value"
                )));
            };
            if pairs.iter().any(|(k, _)| *k == key) {
                let key = quote(key);
                return Err(FieldError::Repeated(format!(
                    "{what}: key {key} appears twice"
                )));
            }
            if tail == Some(key) {
                end = rest.len();
                value = &rest[key.len() + 1..];
            }
            pairs.push((key, value));
            rest = rest[end..].trim_start();
        }
        Ok(Fields { what, pairs })
    }

    fn bad(&self, key: &str, value: &str, why: impl Display) -> FieldError {
        let (what, value) = (self.what, quote(value));
        FieldError::Bad(format!("{what}: bad {key}={value}: {why}"))
    }

    /// The value of an optional key.
    pub fn opt(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// The value of a required key.
    pub fn get(&self, key: &str) -> Result<&'a str, FieldError> {
        self.opt(key)
            .ok_or_else(|| FieldError::Missing(format!("{} missing {key}=", self.what)))
    }

    /// A required key's value through its `FromStr`.
    pub fn parse<T: FromStr>(&self, key: &str) -> Result<T, FieldError>
    where
        T::Err: Display,
    {
        let value = self.get(key)?;
        value.parse().map_err(|e| self.bad(key, value, e))
    }

    /// [`Fields::parse`] for an optional key: `None` when it is absent.
    pub fn parse_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, FieldError>
    where
        T::Err: Display,
    {
        self.opt(key).map(|_| self.parse(key)).transpose()
    }

    /// A required `0|1` flag.
    pub fn flag(&self, key: &str) -> Result<bool, FieldError> {
        match self.get(key)? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(self.bad(key, other, "a flag is 0 or 1")),
        }
    }

    /// A required [`hex16`] value.
    pub fn hex16(&self, key: &str) -> Result<u64, FieldError> {
        let value = self.get(key)?;
        hex16(value).ok_or_else(|| self.bad(key, value, "not sixteen hex digits"))
    }

    /// A required comma-separated list, each element through `item`; the
    /// empty value is the empty list. An error quotes the element `item`
    /// refused, not the list.
    pub fn list<T, E: Display>(
        &self,
        key: &str,
        item: impl Fn(&'a str) -> Result<T, E>,
    ) -> Result<Vec<T>, FieldError> {
        let value = self.get(key)?;
        let elements = value.split(',').filter(|_| !value.is_empty());
        elements
            .map(|element| item(element).map_err(|e| self.bad(key, element, e)))
            .collect()
    }
}

/// Writes one envelope into the buffer that becomes the frame payload.
#[derive(Clone, Debug)]
#[must_use]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a payload: the version line, then the head's verb.
    pub fn new(version: &str, verb: &str) -> Self {
        let mut buf = Vec::with_capacity(128);
        buf.extend_from_slice(version.as_bytes());
        buf.push(b'\n');
        buf.extend_from_slice(verb.as_bytes());
        Writer { buf }
    }

    /// Appends one `key=value` field (no leading space at a line's start).
    pub fn kv(mut self, key: &str, value: impl Display) -> Self {
        if !self.buf.ends_with(b"\n") {
            self.buf.push(b' ');
        }
        self.buf.extend_from_slice(key.as_bytes());
        self.buf.push(b'=');
        write!(self.buf, "{value}").expect("in-memory write");
        self
    }

    /// Appends one `key=a,b,c` list field.
    pub fn list<T: Display>(mut self, key: &str, items: impl IntoIterator<Item = T>) -> Self {
        self = self.kv(key, "");
        for (i, item) in items.into_iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            write!(self.buf, "{comma}{item}").expect("in-memory write");
        }
        self
    }

    /// Appends the line's tail field: free text to the end of the line,
    /// line breaks flattened to spaces so it cannot forge another line.
    pub fn tail(self, key: &str, text: &str) -> Self {
        self.kv(key, text.replace(['\n', '\r'], " "))
    }

    /// Ends the current line and starts a body line with `verb` (`""` for
    /// a line that is fields only).
    pub fn line(mut self, verb: &str) -> Self {
        self.body().extend_from_slice(verb.as_bytes());
        self
    }

    /// Ends the current line and hands out the frame buffer, so a body
    /// that delimits itself is streamed in place rather than copied in.
    pub fn body(&mut self) -> &mut Vec<u8> {
        if !self.buf.ends_with(b"\n") {
            self.buf.push(b'\n');
        }
        &mut self.buf
    }

    /// Ends the current line and returns the payload.
    pub fn finish(mut self) -> Vec<u8> {
        self.body();
        self.buf
    }
}
