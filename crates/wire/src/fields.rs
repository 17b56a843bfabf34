//! The `key=value` field layer: the one reader and the one writer behind
//! the `rl-ccd-serve v1`, `rl-ccd-admin v1` and `rl-ccd-dist v1` text
//! envelopes (`version\nverb key=value…\nbody`). The protocols are
//! schemas over it — which keys, which types, which are optional.
//!
//! A line is whitespace-separated tokens. Its first token may be a verb
//! ([`split_verb`]); every other token is `key=value`, split at its first
//! `=`. A token without `=`, a key that appears twice and a line of more
//! than [`MAX_FIELDS`] fields are errors; a key the schema does not ask for
//! is ignored, so fields can be added without a version bump. A line may
//! name one *tail* key: its value is the rest of the line, spaces and `=`
//! included, so it is always written last; the writer flattens its line
//! breaks and clips it to [`TAIL_MAX`] bytes. Flags are `0|1`, a [`hex16`]
//! is exactly sixteen hex digits, a list is comma-separated and the empty
//! value is the empty list. Errors quote at most [`QUOTE_MAX`] bytes of the
//! input that caused them; with the tail clip, a reply that carries an
//! error or echoes a request value is bounded however large the offending
//! frame was, and reading a line costs time linear in its length.

use std::fmt::{self, Display};
use std::io::Write as _;
use std::str::FromStr;

/// Most bytes of offending input an error message quotes.
pub const QUOTE_MAX: usize = 64;

/// Most fields one line may carry. The widest schema (dist `init`) has 48;
/// the cap keeps the repeated-key check, and so a junk frame read on the
/// reactor thread, linear in the line's length.
pub const MAX_FIELDS: usize = 128;

/// Most bytes of free text a tail field carries.
pub const TAIL_MAX: usize = 4096;

/// The longest prefix of `s` within `max` bytes, and `…` if that cut it.
fn clip(s: &str, max: usize) -> (&str, &'static str) {
    if s.len() <= max {
        return (s, "");
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    (&s[..end], "…")
}

/// `{s:?}` of at most the first [`QUOTE_MAX`] bytes of `s`; `…` marks a cut.
pub fn quote(s: &str) -> String {
    let (s, cut) = clip(s, QUOTE_MAX);
    format!("{s:?}{cut}")
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

/// Why a line did not read as the fields its schema asks for: a bounded,
/// human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldError(String);

impl Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FieldError {}

impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.0
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
    /// is the rest of the line. Fails on a token without `=`, on a
    /// repeated key and past [`MAX_FIELDS`] fields.
    pub fn read(what: &'static str, line: &'a str, tail: Option<&str>) -> Result<Self, FieldError> {
        let mut pairs: Vec<(&str, &str)> = Vec::with_capacity(8);
        let mut rest = line.trim_start();
        while !rest.is_empty() {
            let mut end = rest.find(char::is_whitespace).unwrap_or(rest.len());
            let token = &rest[..end];
            let Some((key, mut value)) = token.split_once('=') else {
                let token = quote(token);
                return Err(FieldError(format!(
                    "{what}: field {token} is not key=value"
                )));
            };
            if pairs.iter().any(|(k, _)| *k == key) {
                let key = quote(key);
                return Err(FieldError(format!("{what}: key {key} appears twice")));
            }
            if pairs.len() == MAX_FIELDS {
                return Err(FieldError(format!("{what}: more than {MAX_FIELDS} fields")));
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
        FieldError(format!("{what}: bad {key}={value}: {why}"))
    }

    /// The value of an optional key.
    pub fn opt(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// The value of a required key.
    pub fn get(&self, key: &str) -> Result<&'a str, FieldError> {
        self.opt(key)
            .ok_or_else(|| FieldError(format!("{} missing {key}=", self.what)))
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

    /// A required comma-separated list, each element through `item`; the
    /// empty value is the empty list. An error quotes the element `item`
    /// refused, not the list.
    pub fn list<T, E: Display>(
        &self,
        key: &str,
        item: impl Fn(&'a str) -> Result<T, E>,
    ) -> Result<Vec<T>, FieldError> {
        let value = self.get(key)?;
        if value.is_empty() {
            return Ok(Vec::new());
        }
        let mut list = Vec::with_capacity(value.bytes().filter(|&b| b == b',').count() + 1);
        for element in value.split(',') {
            list.push(item(element).map_err(|e| self.bad(key, element, e))?);
        }
        Ok(list)
    }

    /// [`Fields::list`] for an optional key: the empty list when it is absent.
    pub fn list_opt<T, E: Display>(
        &self,
        key: &str,
        item: impl Fn(&'a str) -> Result<T, E>,
    ) -> Result<Vec<T>, FieldError> {
        self.opt(key)
            .map_or(Ok(Vec::new()), |_| self.list(key, item))
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
    /// line breaks flattened to spaces so it cannot forge another line,
    /// clipped to [`TAIL_MAX`] bytes so a reply that echoes what it was
    /// sent still fits a frame.
    pub fn tail(mut self, key: &str, text: &str) -> Self {
        self = self.kv(key, "");
        let (text, cut) = clip(text, TAIL_MAX);
        let flat = text
            .bytes()
            .map(|b| if matches!(b, b'\n' | b'\r') { b' ' } else { b });
        self.buf.extend(flat);
        self.buf.extend_from_slice(cut.as_bytes());
        self
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
