//! A minimal, strict, serde-free JSON parser for the wire protocol.
//!
//! The repo renders JSON lines without serde (`splitting_api`'s
//! `to_json_line` family); this module is the matching ingest half. It is
//! deliberately strict — no trailing commas, no comments, no `NaN` /
//! `Infinity` tokens, a hard nesting-depth cap — because every accepted
//! frame must round-trip through the renderer byte-for-byte.
//!
//! Entry points:
//!
//! * [`parse`] — full recursive parse into a [`Json`] tree;
//! * [`scan_frame`] — the ingest scan: a cheap single pass that splits
//!   one client frame into `(key, raw-value-slice)` pairs without
//!   building values, harvesting a canonically spelled instance on the
//!   way. Everything downstream parses from those slices;
//! * [`scan_top_level`] — the same scan without the harvest, for reply
//!   frames and embedded objects (clients and tests extract payloads
//!   byte-exactly with it);
//! * [`parse_edge_pairs`] / [`scan_edge_pairs`] — the strict and the
//!   zero-copy edge-list parsers.

use std::fmt;

/// Maximum nesting depth accepted by the parser and the scanner. Frames
/// in this protocol nest at most ~4 levels; the cap only guards stack
/// safety against adversarial input.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (see [`Number`] for integer-exactness guarantees).
    Number(Number),
    /// A string, with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source field order (duplicate keys are rejected at
    /// parse time).
    Object(Vec<(String, Json)>),
}

/// A JSON number. Unsigned and signed integers that fit in 64 bits are
/// kept exact (the protocol's `seed` field spans all of `u64`); anything
/// else falls back to `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer ≤ `u64::MAX`, exact.
    Unsigned(u64),
    /// A negative integer ≥ `i64::MIN`, exact.
    Signed(i64),
    /// Everything else (fractions, exponents, out-of-range integers).
    Float(f64),
}

impl Number {
    /// The value as `f64` (lossy for huge integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Unsigned(u) => u as f64,
            Number::Signed(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as `u64`, if it is exactly a non-negative integer.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::Unsigned(u) => Some(u),
            Number::Signed(_) => None,
            // `u64::MAX as f64` rounds up to 2^64 exactly, so the bound
            // must be strict: `f as u64` would silently saturate any
            // float in [2^64 - 1, 2^64] to u64::MAX.
            Number::Float(f) if f >= 0.0 && f < u64::MAX as f64 && f.fract() == 0.0 => {
                Some(f as u64)
            }
            Number::Float(_) => None,
        }
    }

    /// The value as `usize`, if it is exactly a non-negative integer in
    /// range.
    pub fn as_usize(self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }

    /// The value as `u32`, if it is exactly a non-negative integer in
    /// range.
    pub fn as_u32(self) -> Option<u32> {
        self.as_u64().and_then(|u| u32::try_from(u).ok())
    }
}

impl Json {
    /// The string contents, when this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this value is one.
    pub fn as_number(&self) -> Option<Number> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The bool, when this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(xs) => Some(xs),
            _ => None,
        }
    }

    /// The fields, when this value is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up a field by key, when this value is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// A short name for the value's type (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, reason: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            reason: reason.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!(
                "expected '{}', found {}",
                b as char,
                self.found_desc()
            ))
        }
    }

    fn found_desc(&self) -> String {
        match self.peek() {
            Some(b) if b.is_ascii_graphic() => format!("'{}'", b as char),
            Some(b) => format!("byte 0x{b:02x}"),
            None => "end of input".into(),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => Ok(Json::Number(self.number()?)),
            _ => self.err(format!("expected a value, found {}", self.found_desc())),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.err(format!("expected '{text}'"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return self.err(format!("duplicate key \"{key}\""));
            }
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return self.err(format!("expected ',' or '}}', found {}", self.found_desc())),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return self.err(format!("expected ',' or ']', found {}", self.found_desc())),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // surrogate pairs: a high surrogate must be
                            // followed by \uXXXX with a low surrogate
                            if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return self.err("unpaired surrogate");
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return self.err("unpaired surrogate");
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                match char::from_u32(c) {
                                    Some(c) => out.push(c),
                                    None => return self.err("invalid surrogate pair"),
                                }
                            } else {
                                match char::from_u32(cp) {
                                    Some(c) => out.push(c),
                                    None => return self.err("invalid \\u escape"),
                                }
                            }
                        }
                        _ => return self.err(format!("invalid escape '\\{}'", esc as char)),
                    }
                }
                0x00..=0x1f => return self.err("unescaped control character in string"),
                _ => {
                    // multi-byte UTF-8: the input is already a valid &str,
                    // so reassemble the char from its leading byte
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    self.pos = start + len;
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .expect("input is valid UTF-8");
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return self.err("truncated \\u escape");
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return self.err("invalid \\u escape digit"),
            };
            cp = cp * 16 + digit;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Number, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // integer part: one zero, or a nonzero digit followed by digits
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return self.err("malformed number"),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("malformed number: digits required after '.'");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("malformed number: digits required in exponent");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Number::Signed(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::Unsigned(u));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Number::Float(f)),
            _ => self.err("number out of range"),
        }
    }
}

fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after the value");
    }
    Ok(v)
}

// ----------------------------------------------------------- skip scanner

/// Splits one top-level JSON object into `(key, raw-value)` pairs without
/// building any values — nested payloads are brace-matched and returned
/// as input slices. This is the cheap path ingest takes to read a frame's
/// envelope (a few small fields) without parsing a multi-megabyte
/// instance, and the byte-exact path tests take to extract embedded
/// sub-objects.
///
/// The scanner validates structure (string escapes, balanced nesting,
/// comma placement, depth) but not the grammar inside skipped values —
/// number-only arrays in particular are skipped by a byte-class loop
/// that checks bracket balance alone, so comma placement inside them is
/// only judged when the value is used. Anything the server goes on to
/// use is re-parsed strictly with [`parse`] or the edge parsers.
///
/// # Errors
///
/// [`ParseError`] when the input is not a single top-level object.
pub fn scan_top_level(input: &str) -> Result<Vec<(&str, &str)>, ParseError> {
    scan_top_level_impl(input, None)
}

/// A fused scan's harvest of the `"instance"` object: its own
/// `(key, raw-value)` pairs and its canonically spelled edge pairs.
pub type InstanceScan<'a> = (Vec<(&'a str, &'a str)>, Vec<(usize, usize)>);

/// One-pass scan of a client frame: the top-level fields, plus — when
/// the `"instance"` value is an object the fused grammar fully served —
/// that object's own fields and its parsed edge pairs. The ingest
/// thread uses this so the per-frame envelope scan it must do anyway
/// also harvests everything the frame's body parse would otherwise
/// re-scan.
#[derive(Debug)]
pub struct FrameScan<'a> {
    /// Top-level `(key, raw-value)` pairs, exactly as [`scan_top_level`].
    pub fields: Vec<(&'a str, &'a str)>,
    /// The instance harvest, when the fused scan served the whole object
    /// (canonical edge spelling, no structural surprises) — it is
    /// all-or-nothing. `None` means the body parse scans the instance
    /// slice itself; behavior is byte-identical either way.
    pub instance: Option<InstanceScan<'a>>,
}

/// [`scan_top_level`] fused with instance-object and edge-list capture
/// — see [`FrameScan`]. Accepts and rejects byte-identically to
/// [`scan_top_level`]: capture is a side harvest, never a grammar
/// change.
///
/// # Errors
///
/// Exactly the [`ParseError`]s of [`scan_top_level`].
pub fn scan_frame(input: &str) -> Result<FrameScan<'_>, ParseError> {
    let mut instance = None;
    let fields = scan_top_level_impl(input, Some(&mut instance))?;
    Ok(FrameScan { fields, instance })
}

fn scan_top_level_impl<'a>(
    input: &'a str,
    mut capture: Option<&mut Option<InstanceScan<'a>>>,
) -> Result<Vec<(&'a str, &'a str)>, ParseError> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields: Vec<(&str, &str)> = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key_start = p.pos;
            skip_string(&mut p)?;
            // raw key contents, escapes unresolved — protocol keys are
            // plain ASCII identifiers, so escaped keys simply fail the
            // exact-match lookups downstream (reported as unknown fields)
            let key = &input[key_start + 1..p.pos - 1];
            if fields.iter().any(|(k, _)| *k == key) {
                return p.err(format!("duplicate key \"{key}\""));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value_start = p.pos;
            // fused capture: consume the target value while locating its
            // end; a bail rewinds `pos` and the generic skip handles the
            // value like any other
            let mut skipped = false;
            match &mut capture {
                Some(cap) if key == "instance" && p.peek() == Some(b'{') => {
                    match try_scan_object_with_edges(input, &mut p) {
                        Some(inner) => {
                            **cap = Some(inner);
                            skipped = true;
                        }
                        None => p.pos = value_start,
                    }
                }
                _ => {}
            }
            if !skipped {
                skip_value(&mut p, 0)?;
            }
            let raw = &input[value_start..p.pos];
            fields.push((key, raw));
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                _ => {
                    return p.err(format!("expected ',' or '}}', found {}", p.found_desc()));
                }
            }
        }
    }
    p.skip_ws();
    if p.pos != bytes.len() {
        return p.err("trailing characters after the object");
    }
    Ok(fields)
}

fn skip_string(p: &mut Parser<'_>) -> Result<(), ParseError> {
    p.expect(b'"')?;
    loop {
        match p.peek() {
            None => return p.err("unterminated string"),
            Some(b'"') => {
                p.pos += 1;
                return Ok(());
            }
            Some(b'\\') => {
                p.pos += 1;
                if p.peek().is_none() {
                    return p.err("unterminated escape");
                }
                p.pos += 1;
            }
            Some(_) => p.pos += 1,
        }
    }
}

/// Byte classes for the numeric-array skip: 0 = body byte (digit,
/// separator, sign, exponent marker, dot, JSON whitespace), 1 = `[`,
/// 2 = `]`, 3 = anything else (string, object, literal — bail).
static NUMERIC_CLASS: [u8; 256] = {
    let mut table = [3u8; 256];
    let mut b = 0usize;
    while b < 256 {
        table[b] = match b as u8 {
            b'[' => 1,
            b']' => 2,
            b'0'..=b'9'
            | b','
            | b'-'
            | b'+'
            | b'.'
            | b'e'
            | b'E'
            | b' '
            | b'\t'
            | b'\n'
            | b'\r' => 0,
            _ => 3,
        };
        b += 1;
    }
    table
};

/// Attempts to skip an array whose bytes are all numbers, separators,
/// nested brackets, or whitespace, in one tight byte-class loop (a
/// single table lookup per byte, no bounds checks). Returns `false`
/// (with `p.pos` clobbered — the caller rewinds) on any other byte, on
/// nesting past [`MAX_DEPTH`], or on end of input, so exotic or
/// malformed content falls back to [`skip_value`]'s general loop.
fn skip_numeric_array(p: &mut Parser<'_>, depth: usize) -> bool {
    let mut open = 1usize;
    for (i, &b) in p.bytes[p.pos + 1..].iter().enumerate() {
        match NUMERIC_CLASS[b as usize] {
            0 => {}
            1 => {
                open += 1;
                if depth + open > MAX_DEPTH {
                    return false;
                }
            }
            2 => {
                open -= 1;
                if open == 0 {
                    p.pos += i + 2;
                    return true;
                }
            }
            _ => return false,
        }
    }
    false
}

/// Attempts to scan one object value (cursor on `{`) collecting its
/// `(key, raw-value)` pairs and fast-parsing its `"edges"` array, in
/// the same traversal that locates the object's end. Returns `None`
/// (with `p.pos` clobbered — the caller rewinds) on any structural
/// anomaly, duplicate key, exotic edge spelling, or missing edges key:
/// the generic [`skip_value`] then handles the value, and whoever
/// parses the slice later reproduces today's exact error or fallback.
fn try_scan_object_with_edges<'a>(input: &'a str, p: &mut Parser<'a>) -> Option<InstanceScan<'a>> {
    let bytes = p.bytes;
    p.pos += 1;
    let mut fields: Vec<(&'a str, &'a str)> = Vec::new();
    let mut pairs: Option<Vec<(usize, usize)>> = None;
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
        return None; // an empty object has no edges to capture
    }
    loop {
        p.skip_ws();
        let key_start = p.pos;
        if skip_string(p).is_err() {
            return None;
        }
        let key = &input[key_start + 1..p.pos - 1];
        if fields.iter().any(|(k, _)| *k == key) {
            return None;
        }
        p.skip_ws();
        if p.peek() != Some(b':') {
            return None;
        }
        p.pos += 1;
        p.skip_ws();
        let value_start = p.pos;
        if key == "edges" {
            let mut end = p.pos;
            match fast_pairs_core(bytes, &mut end) {
                Some(got) => {
                    pairs = Some(got);
                    p.pos = end;
                }
                // exotic spelling: bail the whole capture so the strict
                // fallback path (and its fallback counter) runs as today
                None => return None,
            }
        } else if skip_value(p, 1).is_err() {
            return None;
        }
        fields.push((key, &input[value_start..p.pos]));
        p.skip_ws();
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => {
                p.pos += 1;
                break;
            }
            _ => return None,
        }
    }
    Some((fields, pairs?))
}

fn skip_value(p: &mut Parser<'_>, depth: usize) -> Result<(), ParseError> {
    if depth > MAX_DEPTH {
        return p.err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    p.skip_ws();
    match p.peek() {
        Some(b'"') => skip_string(p),
        Some(b'{') => {
            p.pos += 1;
            p.skip_ws();
            if p.peek() == Some(b'}') {
                p.pos += 1;
                return Ok(());
            }
            loop {
                p.skip_ws();
                skip_string(p)?;
                p.skip_ws();
                p.expect(b':')?;
                skip_value(p, depth + 1)?;
                p.skip_ws();
                match p.peek() {
                    Some(b',') => p.pos += 1,
                    Some(b'}') => {
                        p.pos += 1;
                        return Ok(());
                    }
                    _ => return p.err(format!("expected ',' or '}}', found {}", p.found_desc())),
                }
            }
        }
        Some(b'[') => {
            // fast path for number-only arrays — the shape of instance
            // edge lists, which dominate request frames by bytes. A
            // byte-class loop tracks only bracket depth; anything that
            // is not a number/separator/whitespace byte (strings,
            // objects, literals) rewinds and takes the general loop.
            // Grammar inside either skip stays unvalidated, per this
            // scanner's contract — downstream strict parses decide.
            let start = p.pos;
            if skip_numeric_array(p, depth) {
                return Ok(());
            }
            p.pos = start;
            p.pos += 1;
            p.skip_ws();
            if p.peek() == Some(b']') {
                p.pos += 1;
                return Ok(());
            }
            loop {
                skip_value(p, depth + 1)?;
                p.skip_ws();
                match p.peek() {
                    Some(b',') => p.pos += 1,
                    Some(b']') => {
                        p.pos += 1;
                        return Ok(());
                    }
                    _ => return p.err(format!("expected ',' or ']', found {}", p.found_desc())),
                }
            }
        }
        Some(_) => {
            // literal or number: consume until a structural delimiter
            let start = p.pos;
            while let Some(b) = p.peek() {
                if matches!(b, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r') {
                    break;
                }
                p.pos += 1;
            }
            if p.pos == start {
                return p.err("expected a value");
            }
            Ok(())
        }
        None => p.err("expected a value, found end of input"),
    }
}

/// Parses a JSON array of `[u, v]` integer pairs directly into endpoint
/// tuples — the hot path for instance edge lists, which dominate request
/// frames by bytes. Strict: every element must be a two-element array of
/// non-negative integers.
///
/// # Errors
///
/// [`ParseError`] on anything that is not exactly a pair list.
pub fn parse_edge_pairs(input: &str) -> Result<Vec<(usize, usize)>, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let mut out = Vec::new();
    p.skip_ws();
    p.expect(b'[')?;
    p.skip_ws();
    if p.peek() == Some(b']') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            p.expect(b'[')?;
            p.skip_ws();
            let u = pair_int(&mut p)?;
            p.skip_ws();
            p.expect(b',')?;
            p.skip_ws();
            let v = pair_int(&mut p)?;
            p.skip_ws();
            p.expect(b']')?;
            out.push((u, v));
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b']') => {
                    p.pos += 1;
                    break;
                }
                _ => return p.err(format!("expected ',' or ']', found {}", p.found_desc())),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after the edge list");
    }
    Ok(out)
}

fn pair_int(p: &mut Parser<'_>) -> Result<usize, ParseError> {
    let n = p.number()?;
    match n.as_usize() {
        Some(u) => Ok(u),
        None => p.err("edge endpoints must be non-negative integers"),
    }
}

// ------------------------------------------------------ zero-copy scanner

/// Parses an edge list with a zero-copy fast path: one tight byte loop
/// over the canonical shape `[[a,b],[c,d],...]` (plain decimal integers,
/// optional JSON whitespace) writing straight into a preallocated vector
/// — no `Json` tree, no per-number text slice. Anything outside that
/// shape — leading zeros, signs, fractions, exponents, out-of-range
/// endpoints, structural surprises — bails out and re-runs the strict
/// [`parse_edge_pairs`], so acceptance, rejection, and error offsets are
/// byte-identical to the strict parser by construction.
///
/// Returns the pairs plus `true` when the fast path served the input
/// (`false` means the strict fallback ran; the server counts those).
///
/// # Errors
///
/// Exactly the [`ParseError`]s of [`parse_edge_pairs`].
pub fn scan_edge_pairs(input: &str) -> Result<(Vec<(usize, usize)>, bool), ParseError> {
    match fast_edge_pairs(input) {
        Some(pairs) => Ok((pairs, true)),
        None => parse_edge_pairs(input).map(|pairs| (pairs, false)),
    }
}

/// The fast-path grammar: a strict subset of [`parse_edge_pairs`]'s.
/// `None` means "not in the subset" — the caller re-parses strictly,
/// which either accepts (float-typed integral endpoints like `2.0`) or
/// produces the canonical error. Never accepts anything strict rejects.
fn fast_edge_pairs(input: &str) -> Option<Vec<(usize, usize)>> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    fast_skip_ws(bytes, &mut pos);
    let out = fast_pairs_core(bytes, &mut pos)?;
    fast_skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return None;
    }
    Some(out)
}

#[inline]
fn fast_skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

/// Parses one `[[a,b],...]` array of canonical decimal pairs starting at
/// `*pos` (which must point at the opening `[`), consuming exactly
/// through the matching `]`. Shared by the standalone fast path and the
/// fused object scan, so both accept the identical grammar subset.
fn fast_pairs_core(bytes: &[u8], pos: &mut usize) -> Option<Vec<(usize, usize)>> {
    #[inline]
    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        fast_skip_ws(bytes, pos);
    }
    #[inline]
    fn int(bytes: &[u8], pos: &mut usize) -> Option<usize> {
        let first = *bytes.get(*pos)?;
        if !first.is_ascii_digit() {
            return None;
        }
        *pos += 1;
        if first == b'0' {
            // a second digit would be a leading zero, which the strict
            // grammar rejects — bail so the error comes from there
            if bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                return None;
            }
            return Some(0);
        }
        let mut val = usize::from(first - b'0');
        while let Some(&b) = bytes.get(*pos) {
            if !b.is_ascii_digit() {
                break;
            }
            val = val.checked_mul(10)?.checked_add(usize::from(b - b'0'))?;
            *pos += 1;
        }
        Some(val)
    }

    let mut i = *pos;
    if *bytes.get(i)? != b'[' {
        return None;
    }
    i += 1;
    // canonical renderings spend ≥ 6 bytes per pair (`[a,b],`), so this
    // preallocation never reallocates on the hot path
    let mut out = Vec::with_capacity((bytes.len() - i) / 6 + 1);
    skip_ws(bytes, &mut i);
    if bytes.get(i) == Some(&b']') {
        i += 1;
    } else {
        loop {
            skip_ws(bytes, &mut i);
            if *bytes.get(i)? != b'[' {
                return None;
            }
            i += 1;
            skip_ws(bytes, &mut i);
            let u = int(bytes, &mut i)?;
            skip_ws(bytes, &mut i);
            if *bytes.get(i)? != b',' {
                return None;
            }
            i += 1;
            skip_ws(bytes, &mut i);
            let v = int(bytes, &mut i)?;
            skip_ws(bytes, &mut i);
            if *bytes.get(i)? != b']' {
                return None;
            }
            i += 1;
            out.push((u, v));
            skip_ws(bytes, &mut i);
            match *bytes.get(i)? {
                b',' => i += 1,
                b']' => {
                    i += 1;
                    break;
                }
                _ => return None,
            }
        }
    }
    *pos = i;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_scans_agree_with_the_plain_scanner() {
        let line = r#"{"v":1,"type":"request","id":"r","problem":{"name":"mis","base_degree":3},"instance":{"kind":"bipartite","left":3,"right":3,"edges":[[0,1],[2,0]]}}"#;
        let scan = scan_frame(line).unwrap();
        assert_eq!(scan.fields, scan_top_level(line).unwrap());
        let instance = scan
            .fields
            .iter()
            .find(|(k, _)| *k == "instance")
            .unwrap()
            .1;
        assert_eq!(
            scan.instance,
            Some((scan_top_level(instance).unwrap(), vec![(0, 1), (2, 0)]))
        );

        // exotic spelling: capture bails all-or-nothing, fields unchanged
        let exotic = line.replace("[2,0]", "[2,0.0]");
        let scan = scan_frame(&exotic).unwrap();
        assert_eq!(scan.fields, scan_top_level(&exotic).unwrap());
        assert!(scan.instance.is_none());

        // a duplicate key inside the instance bails capture but scans
        // (the plain scanner never dup-checks nested objects either)
        let dup = r#"{"instance":{"edges":[[0,1]],"edges":[[0,2]]}}"#;
        let scan = scan_frame(dup).unwrap();
        assert_eq!(scan.fields, scan_top_level(dup).unwrap());
        assert!(scan.instance.is_none());

        // malformed input errors identically
        let bad = r#"{"instance":{"kind":}}"#;
        assert_eq!(
            scan_frame(bad).unwrap_err(),
            scan_top_level(bad).unwrap_err()
        );
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("42").unwrap(), Json::Number(Number::Unsigned(42)));
        assert_eq!(parse("-7").unwrap(), Json::Number(Number::Signed(-7)));
        assert_eq!(parse("1.5e3").unwrap(), Json::Number(Number::Float(1500.0)));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::String("a\nb".into()));
    }

    #[test]
    fn u64_seeds_stay_exact() {
        let v = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_number().unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn objects_keep_order_and_reject_duplicates() {
        let v = parse(r#"{"b":1,"a":[2,3],"c":{"d":null}}"#).unwrap();
        let fields = v.as_object().unwrap();
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Null));
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "nul",
            "NaN",
            "Infinity",
            "01",
            "1.",
            "+1",
            "\"unterminated",
            "\"bad\\q\"",
            "{\"a\":1}x",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_cap_holds() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        assert!(scan_top_level(&format!("{{\"a\":{deep}}}")).is_err());
    }

    #[test]
    fn unicode_and_surrogates() {
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Json::String("é".into()));
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::String("😀".into())
        );
        assert!(parse("\"\\ud83d\"").is_err());
        assert_eq!(parse("\"héllo\"").unwrap(), Json::String("héllo".into()));
    }

    #[test]
    fn scanner_returns_raw_slices() {
        let line = r#"{"v":1,"type":"request","instance":{"kind":"host","edges":[[0,1]]}}"#;
        let fields = scan_top_level(line).unwrap();
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0], ("v", "1"));
        assert_eq!(fields[1], ("type", "\"request\""));
        assert_eq!(
            fields[2],
            ("instance", r#"{"kind":"host","edges":[[0,1]]}"#)
        );
    }

    #[test]
    fn scanner_rejects_garbage() {
        for bad in ["", "[]", "{\"a\" 1}", "{\"a\":1} trailing", "{\"a\":{}"] {
            assert!(scan_top_level(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integer_accessors_hold_at_the_u64_boundary() {
        // `u64::MAX as f64` rounds up to 2^64; both it and the issue's
        // decimal form must be rejected, not saturated to u64::MAX
        let two64 = u64::MAX as f64;
        assert_eq!(Number::Float(two64).as_u64(), None);
        assert_eq!(Number::Float(two64).as_usize(), None);
        let n = parse("1.8446744073709552e19").unwrap().as_number().unwrap();
        assert_eq!(n.as_u64(), None);
        // u64::MAX itself is not f64-representable: its float spelling
        // also rounds to 2^64 and must be rejected on the float path
        let n = parse("18446744073709551615.0")
            .unwrap()
            .as_number()
            .unwrap();
        assert_eq!(n.as_u64(), None);
        // ...while the integer spelling stays exact
        let n = parse("18446744073709551615").unwrap().as_number().unwrap();
        assert_eq!(n.as_u64(), Some(u64::MAX));
        // MAX+1 overflows u64 and lands in the float branch → rejected
        let n = parse("18446744073709551616").unwrap().as_number().unwrap();
        assert_eq!(n.as_u64(), None);
        // nearest representable float below 2^64 is 2^64 - 2048: in range
        let below = 18_446_744_073_709_549_568.0_f64;
        assert!(below < two64);
        assert_eq!(
            Number::Float(below).as_u64(),
            Some(18_446_744_073_709_549_568)
        );
        // MAX-1 as integer stays exact
        let n = parse("18446744073709551614").unwrap().as_number().unwrap();
        assert_eq!(n.as_u64(), Some(u64::MAX - 1));
        // non-integers and negatives never pass
        assert_eq!(Number::Float(1.5).as_u64(), None);
        assert_eq!(Number::Float(-1.0).as_u64(), None);
        // as_u32 narrows with the same exactness
        assert_eq!(
            Number::Unsigned(u64::from(u32::MAX)).as_u32(),
            Some(u32::MAX)
        );
        assert_eq!(Number::Unsigned(u64::from(u32::MAX) + 1).as_u32(), None);
        assert_eq!(Number::Float(4_294_967_295.0).as_u32(), Some(u32::MAX));
        assert_eq!(Number::Float(4_294_967_296.0).as_u32(), None);
    }

    #[test]
    fn exponent_extremes_are_pinned() {
        // overflow to ±inf violates the strict contract: typed rejection
        for bad in ["1e999", "-1e999", "2e308", "123e100000"] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.reason, "number out of range", "{bad}");
        }
        // underflow rounds to 0.0 and is accepted
        assert_eq!(parse("1e-999").unwrap(), Json::Number(Number::Float(0.0)));
        // `-0` stays an exact signed integer, and signed numbers are
        // never valid edge endpoints
        assert_eq!(parse("-0").unwrap(), Json::Number(Number::Signed(0)));
        assert_eq!(Number::Signed(0).as_u64(), None);
        assert!(parse_edge_pairs("[[-0,1]]").is_err());
        // `-0.0` is a float equal to zero (IEEE) and converts to 0
        let n = parse("-0.0").unwrap().as_number().unwrap();
        assert_eq!(n, Number::Float(-0.0));
        assert_eq!(n.as_u64(), Some(0));
    }

    #[test]
    fn edge_pairs_fast_path() {
        assert_eq!(parse_edge_pairs("[]").unwrap(), vec![]);
        assert_eq!(
            parse_edge_pairs("[[0,1],[2, 3]]").unwrap(),
            vec![(0, 1), (2, 3)]
        );
        for bad in [
            "[[0]]",
            "[[0,1,2]]",
            "[[0,-1]]",
            "[[0,1.5]]",
            "[0,1]",
            "[[0,1]],",
        ] {
            assert!(parse_edge_pairs(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn fast_edge_scan_matches_the_strict_parser() {
        let cases = [
            "[]",
            "[[0,1]]",
            "[[0,1],[2, 3]]",
            " [ [ 12 , 7 ] ] ",
            "[[18446744073709551615,0]]",
            "[[18446744073709551616,0]]",
            "[[01,2]]",
            "[[+1,2]]",
            "[[1,2.0]]",
            "[[1,2e1]]",
            "[[-0,1]]",
            "[[1,2],]",
            "[[1]]",
            "[[1,2,3]]",
            "[1,2]",
            "[[1,2]]x",
            "[[1,2]",
            "",
            "[",
            "[[",
        ];
        for case in cases {
            let strict = parse_edge_pairs(case);
            let fast = scan_edge_pairs(case);
            match (&strict, &fast) {
                (Ok(a), Ok((b, _))) => assert_eq!(a, b, "{case:?}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "{case:?}"),
                _ => panic!("{case:?}: strict {strict:?} vs fast {fast:?}"),
            }
        }
        // the canonical rendering must ride the fast path...
        assert!(scan_edge_pairs("[[0,1],[2,3]]").unwrap().1);
        assert!(scan_edge_pairs("[]").unwrap().1);
        // ...and anything fancy falls back (still accepted, via strict)
        assert!(!scan_edge_pairs("[[0,1],[2,3.0]]").unwrap().1);
        assert!(!scan_edge_pairs("[[0,1],[2,2e1]]").unwrap().1);
    }
}
