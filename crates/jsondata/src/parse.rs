//! A from-scratch JSON text parser for the paper's fragment, with two
//! construction targets sharing one lexer and one syntax driver.
//!
//! ## The two entry points
//!
//! * [`parse`] / [`parse_with_limits`] produce an owned [`Json`] **value** —
//!   use these when the document will be inspected or transformed as a
//!   value (schema inference, filter constants, witnesses, serialization).
//! * [`parse_to_tree`] / [`parse_to_tree_with_limits`] /
//!   [`parse_to_tree_into`] produce a [`JsonTree`] **directly** — the fused
//!   path for the dominant build-then-query pipeline. Lexing, interning and
//!   CSR assembly happen in one pass: keys and string atoms are interned the
//!   moment they are lexed and nodes stream into the tree's arena, so the
//!   intermediate `Json` (one heap allocation per node plus owned strings)
//!   is never materialised. `parse_to_tree(s)` is guaranteed to be
//!   [`JsonTree::identical`] to `JsonTree::build(&parse(s)?)` — both reduce
//!   to the same event core — and returns the same [`ParseError`] on every
//!   malformed input; `tests/parse_fusion.rs` asserts both properties
//!   differentially.
//!
//! [`parse_to_tree_into`] additionally starts the parse from a base
//! [`Interner`], so a batch of documents, each parsed on the previous
//! tree's table, assigns the same [`Sym`](crate::Sym) to the same string
//! across all of their trees. A tree shares its base table until the
//! document brings a new string; the base itself is never written, so a
//! parse error leaves it exactly as it was.
//!
//! ## Shape
//!
//! The lexer recognises the complete RFC 8259 grammar so that
//! out-of-fragment constructs (`null`, `true`, `false`, negative or
//! fractional numbers) are reported with precise, targeted errors instead of
//! generic syntax noise. The syntax driver (`parse_document`) is a single
//! iterative loop over an explicit container stack — document depth never
//! becomes call-stack depth — parameterised by a `Sink` that receives the
//! document-order event stream: `JsonSink` folds events into a [`Json`],
//! and [`TreeBuilder`](crate::tree) (the same core [`JsonTree::build`]
//! replays values through) assembles CSR arrays. Nesting depth is limited by
//! [`ParseLimits`] (default 512).

use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{ParseError, ParseErrorKind, Position};
use crate::fxhash::{FxHashSet, FxHasher};
use crate::intern::Interner;
use crate::jstr::JStr;
use crate::tree::{JsonTree, TreeBuilder};
use crate::value::{Json, ObjectRepr, SMALL_OBJECT};

/// Resource limits applied while parsing.
#[derive(Debug, Clone, Copy)]
pub struct ParseLimits {
    /// Maximum object/array nesting depth.
    pub max_depth: usize,
    /// Maximum input size in bytes, checked before any parsing work —
    /// the serving edge's cheap first line of defence against oversized
    /// documents. Unlimited by default.
    pub max_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_depth: 512,
            max_bytes: usize::MAX,
        }
    }
}

impl ParseLimits {
    /// Limits with the given depth cap and no size cap.
    pub fn depth(max_depth: usize) -> ParseLimits {
        ParseLimits {
            max_depth,
            ..ParseLimits::default()
        }
    }
}

/// Parses a complete JSON document with default limits.
///
/// ```
/// use jsondata::{parse, Json};
/// assert_eq!(parse("42").unwrap(), Json::Num(42));
/// assert_eq!(parse(r#""hi""#).unwrap(), Json::str("hi"));
/// assert!(parse("null").is_err()); // outside the paper's fragment
/// ```
pub fn parse(input: &str) -> Result<Json, ParseError> {
    parse_with_limits(input, ParseLimits::default())
}

/// Parses with explicit [`ParseLimits`].
pub fn parse_with_limits(input: &str, limits: ParseLimits) -> Result<Json, ParseError> {
    let mut sink = JsonSink::default();
    parse_document(input, limits, &mut sink)?;
    Ok(sink.out.take().expect("driver completed a document"))
}

/// Parses a complete JSON document straight into a [`JsonTree`] (default
/// limits) — the fused single-pass path: no intermediate [`Json`] is built.
///
/// ```
/// use jsondata::parse_to_tree;
/// let tree = parse_to_tree(r#"{"name": {"first": "John"}, "age": 32}"#).unwrap();
/// let name = tree.child_by_key(tree.root(), "name").unwrap();
/// let first = tree.child_by_key(name, "first").unwrap();
/// assert_eq!(tree.str_value(first), Some("John"));
/// ```
pub fn parse_to_tree(input: &str) -> Result<JsonTree, ParseError> {
    parse_to_tree_with_limits(input, ParseLimits::default())
}

/// [`parse_to_tree`] with explicit [`ParseLimits`]. Limit and error
/// semantics match [`parse_with_limits`] exactly (same error kind at the
/// same position on every malformed input).
pub fn parse_to_tree_with_limits(input: &str, limits: ParseLimits) -> Result<JsonTree, ParseError> {
    parse_to_tree_into(input, limits, &Arc::default())
}

/// [`parse_to_tree_with_limits`] interning on top of a `base` table — the
/// batch-loading form: parsing each document on the previous tree's table
/// assigns the same [`Sym`](crate::Sym) to the same string across the
/// batch, so symbols are comparable across the resulting trees. The tree
/// shares `base` when the document brings no new string; otherwise it
/// holds an extended copy (cost `O(symbols)`, paid at the first new
/// string). `base` is never written, so an error leaves it unchanged.
pub fn parse_to_tree_into(
    input: &str,
    limits: ParseLimits,
    base: &Arc<Interner>,
) -> Result<JsonTree, ParseError> {
    let mut builder = TreeBuilder::for_text(Arc::clone(base), input.len());
    parse_document(input, limits, &mut builder)?;
    Ok(builder.finish())
}

/// Receiver of the document-order parse event stream. Exactly one value is
/// produced at the top level; containers arrive as balanced begin/end pairs
/// with member keys preceding member values.
pub(crate) trait Sink {
    fn num(&mut self, n: u64);
    fn str_atom(&mut self, s: &str);
    fn begin_object(&mut self);
    /// Records a member key of the innermost open object; `false` reports a
    /// duplicate (the driver raises [`ParseErrorKind::DuplicateKey`]).
    fn object_key(&mut self, key: &str) -> bool;
    fn end_object(&mut self);
    fn begin_array(&mut self);
    fn end_array(&mut self);
}

impl Sink for TreeBuilder {
    fn num(&mut self, n: u64) {
        TreeBuilder::num(self, n);
    }
    fn str_atom(&mut self, s: &str) {
        TreeBuilder::str_atom(self, s);
    }
    fn begin_object(&mut self) {
        TreeBuilder::begin_object(self);
    }
    fn object_key(&mut self, key: &str) -> bool {
        TreeBuilder::object_key(self, key)
    }
    fn end_object(&mut self) {
        TreeBuilder::end_object(self);
    }
    fn begin_array(&mut self) {
        TreeBuilder::begin_array(self);
    }
    fn end_array(&mut self) {
        TreeBuilder::end_array(self);
    }
}

/// Folds parse events into an owned [`Json`] value.
#[derive(Default)]
struct JsonSink {
    stack: Vec<JsonFrame>,
    pending_key: Option<JStr>,
    out: Option<Json>,
}

enum JsonFrame {
    Obj {
        /// The member key this object attaches under in its parent object
        /// (captured at `begin_object`, before the object's own keys start
        /// overwriting the pending slot).
        key: Option<JStr>,
        pairs: Vec<(JStr, Json)>,
        /// Duplicate-key detection past [`SMALL_OBJECT`] keys: a set of key
        /// *hashes* keeps the probe allocation-free and the whole object
        /// near-linear (a hash hit — in practice only a true duplicate —
        /// is confirmed by one scan, so an adversarial collision degrades
        /// a single key to O(n), never the silent acceptance of a
        /// duplicate).
        seen: FxHashSet<u64>,
    },
    Arr {
        /// The member key this array attaches under, as above.
        key: Option<JStr>,
        items: Vec<Json>,
    },
}

impl JsonSink {
    /// Attaches a completed value: under `key` in the innermost open
    /// object, positionally in the innermost open array, or as the result.
    fn complete(&mut self, v: Json, key: Option<JStr>) {
        match self.stack.last_mut() {
            Some(JsonFrame::Obj { pairs, .. }) => {
                pairs.push((key.expect("member key before value"), v));
            }
            Some(JsonFrame::Arr { items, .. }) => items.push(v),
            None => self.out = Some(v),
        }
    }
}

impl Sink for JsonSink {
    fn num(&mut self, n: u64) {
        let key = self.pending_key.take();
        self.complete(Json::Num(n), key);
    }

    fn str_atom(&mut self, s: &str) {
        let key = self.pending_key.take();
        self.complete(Json::str(s), key);
    }

    fn begin_object(&mut self) {
        self.stack.push(JsonFrame::Obj {
            key: self.pending_key.take(),
            pairs: Vec::new(),
            seen: FxHashSet::default(),
        });
    }

    fn object_key(&mut self, key: &str) -> bool {
        let Some(JsonFrame::Obj { pairs, seen, .. }) = self.stack.last_mut() else {
            unreachable!("object_key outside an object");
        };
        let hash = |k: &str| {
            let mut h = FxHasher::default();
            k.hash(&mut h);
            h.finish()
        };
        if pairs.len() == SMALL_OBJECT {
            seen.extend(pairs.iter().map(|(k, _)| hash(k)));
        }
        let fresh = pairs.len() >= SMALL_OBJECT && seen.insert(hash(key));
        if !fresh && pairs.iter().any(|(k, _)| k == key) {
            return false;
        }
        self.pending_key = Some(key.into());
        true
    }

    fn end_object(&mut self) {
        let Some(JsonFrame::Obj { key, pairs, .. }) = self.stack.pop() else {
            unreachable!("end_object without begin_object");
        };
        // Duplicates were rejected key by key in `object_key`.
        self.complete(Json::Object(ObjectRepr::from_distinct(pairs)), key);
    }

    fn begin_array(&mut self) {
        self.stack.push(JsonFrame::Arr {
            key: self.pending_key.take(),
            items: Vec::new(),
        });
    }

    fn end_array(&mut self) {
        let Some(JsonFrame::Arr { key, items }) = self.stack.pop() else {
            unreachable!("end_array without begin_array");
        };
        self.complete(Json::Array(items), key);
    }
}

/// An enclosing container on the driver's explicit stack.
enum Frame {
    Obj,
    Arr,
}

/// The single syntax driver both construction targets run through: one
/// iterative loop, one error policy, one depth-limit policy — which is what
/// guarantees the fused and two-pass paths agree error-for-error.
fn parse_document<S: Sink>(
    input: &str,
    limits: ParseLimits,
    sink: &mut S,
) -> Result<(), ParseError> {
    let mut p = Parser::new(input, limits);
    if input.len() > p.limits.max_bytes {
        return Err(p.err(ParseErrorKind::TooLarge(p.limits.max_bytes)));
    }
    let mut frames: Vec<Frame> = Vec::new();
    p.skip_ws();
    'value: loop {
        // -- parse one value (containers descend instead of recursing) --
        if frames.len() > p.limits.max_depth {
            return Err(p.err(ParseErrorKind::TooDeep(p.limits.max_depth)));
        }
        match p.peek() {
            None => return Err(p.err(ParseErrorKind::UnexpectedEof)),
            Some(b'{') => {
                p.bump();
                sink.begin_object();
                p.skip_ws();
                if p.peek() == Some(b'}') {
                    p.bump();
                    sink.end_object();
                } else {
                    frames.push(Frame::Obj);
                    p.member_key(sink)?;
                    continue 'value;
                }
            }
            Some(b'[') => {
                p.bump();
                sink.begin_array();
                p.skip_ws();
                if p.peek() == Some(b']') {
                    p.bump();
                    sink.end_array();
                } else {
                    frames.push(Frame::Arr);
                    continue 'value;
                }
            }
            Some(b'"') => {
                let s = p.lex_string()?;
                sink.str_atom(&s);
            }
            Some(b'0'..=b'9') => {
                let n = p.lex_number()?;
                sink.num(n);
            }
            Some(b'-') => return Err(p.err(ParseErrorKind::NegativeNumber)),
            Some(b't') => return Err(p.reject_literal("true")),
            Some(b'f') => return Err(p.reject_literal("false")),
            Some(b'n') => return Err(p.reject_literal("null")),
            Some(b) => {
                let c = p.current_char(b);
                return Err(p.err(ParseErrorKind::UnexpectedChar(c)));
            }
        }
        // -- a value just finished; separators close or continue containers --
        loop {
            let Some(top) = frames.last() else {
                break 'value;
            };
            p.skip_ws();
            match (top, p.peek()) {
                (_, None) => return Err(p.err(ParseErrorKind::UnexpectedEof)),
                (Frame::Obj, Some(b',')) => {
                    p.bump();
                    p.skip_ws();
                    p.member_key(sink)?;
                    continue 'value;
                }
                (Frame::Obj, Some(b'}')) => {
                    p.bump();
                    sink.end_object();
                    frames.pop();
                }
                (Frame::Arr, Some(b',')) => {
                    p.bump();
                    p.skip_ws();
                    continue 'value;
                }
                (Frame::Arr, Some(b']')) => {
                    p.bump();
                    sink.end_array();
                    frames.pop();
                }
                (_, Some(b)) => {
                    let c = p.current_char(b);
                    return Err(p.err(ParseErrorKind::UnexpectedChar(c)));
                }
            }
        }
    }
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err(ParseErrorKind::TrailingContent));
    }
    Ok(())
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    limits: ParseLimits,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, limits: ParseLimits) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            limits,
        }
    }

    fn position(&self) -> Position {
        Position {
            line: self.line,
            col: self.col,
            offset: self.pos,
        }
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            position: self.position(),
            kind,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Advances one byte, maintaining line/column. Only call when the byte at
    /// `pos` is ASCII; multi-byte characters go through `bump_char`.
    fn bump(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn bump_char(&mut self, c: char) {
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += c.len_utf8();
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.bump(),
                _ => break,
            }
        }
    }

    fn current_char(&self, first: u8) -> char {
        if first.is_ascii() {
            first as char
        } else {
            self.src[self.pos..].chars().next().unwrap_or('\u{fffd}')
        }
    }

    fn reject_literal(&mut self, lit: &'static str) -> ParseError {
        if self.src[self.pos..].starts_with(lit) {
            self.err(ParseErrorKind::UnsupportedLiteral(lit))
        } else {
            let b = self.bytes[self.pos];
            self.err(ParseErrorKind::UnexpectedChar(b as char))
        }
    }

    /// Lexes one `"..."` member key plus the `:` separator, reporting it to
    /// the sink. Callers have already skipped leading whitespace.
    fn member_key<S: Sink>(&mut self, sink: &mut S) -> Result<(), ParseError> {
        if self.peek() != Some(b'"') {
            return Err(match self.peek() {
                None => self.err(ParseErrorKind::UnexpectedEof),
                Some(b) => {
                    let c = self.current_char(b);
                    self.err(ParseErrorKind::UnexpectedChar(c))
                }
            });
        }
        let key_pos = self.position();
        let key = self.lex_string()?;
        if !sink.object_key(&key) {
            return Err(ParseError {
                position: key_pos,
                kind: ParseErrorKind::DuplicateKey(key.into_owned()),
            });
        }
        self.skip_ws();
        match self.peek() {
            Some(b':') => self.bump(),
            None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            Some(b) => {
                let c = self.current_char(b);
                return Err(self.err(ParseErrorKind::UnexpectedChar(c)));
            }
        }
        self.skip_ws();
        Ok(())
    }

    /// Lexes one string token (the opening `"` is at `pos`). Escape-free
    /// strings — the overwhelmingly common case — borrow straight from the
    /// source; the first `\` switches to an owned buffer.
    fn lex_string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.bump(); // consume '"'
        let start = self.pos;
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err(ParseErrorKind::UnexpectedEof));
            };
            match b {
                b'"' => {
                    let s = &self.src[start..self.pos];
                    self.bump();
                    return Ok(Cow::Borrowed(s));
                }
                b'\\' => break,
                0x00..=0x1f => {
                    return Err(self.err(ParseErrorKind::ControlCharInString(b as char)));
                }
                _ if b.is_ascii() => self.bump(),
                _ => {
                    let c = self.src[self.pos..]
                        .chars()
                        .next()
                        .ok_or_else(|| self.err(ParseErrorKind::InvalidUtf8))?;
                    self.bump_char(c);
                }
            }
        }
        // Escaped string: copy the clean prefix, then decode escapes.
        let mut out = String::with_capacity(self.pos - start + 16);
        out.push_str(&self.src[start..self.pos]);
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err(ParseErrorKind::UnexpectedEof));
            };
            match b {
                b'"' => {
                    self.bump();
                    return Ok(Cow::Owned(out));
                }
                b'\\' => {
                    self.bump();
                    self.parse_escape(&mut out)?;
                }
                0x00..=0x1f => {
                    return Err(self.err(ParseErrorKind::ControlCharInString(b as char)));
                }
                _ if b.is_ascii() => {
                    out.push(b as char);
                    self.bump();
                }
                _ => {
                    let c = self.src[self.pos..]
                        .chars()
                        .next()
                        .ok_or_else(|| self.err(ParseErrorKind::InvalidUtf8))?;
                    out.push(c);
                    self.bump_char(c);
                }
            }
        }
    }

    fn parse_escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let Some(b) = self.peek() else {
            return Err(self.err(ParseErrorKind::UnexpectedEof));
        };
        let simple = match b {
            b'"' => Some('"'),
            b'\\' => Some('\\'),
            b'/' => Some('/'),
            b'b' => Some('\u{0008}'),
            b'f' => Some('\u{000c}'),
            b'n' => Some('\n'),
            b'r' => Some('\r'),
            b't' => Some('\t'),
            _ => None,
        };
        if let Some(c) = simple {
            out.push(c);
            self.bump();
            return Ok(());
        }
        if b != b'u' {
            return Err(self.err(ParseErrorKind::BadEscape((b as char).to_string())));
        }
        self.bump(); // consume 'u'
        let first = self.parse_hex4()?;
        let c = if (0xD800..=0xDBFF).contains(&first) {
            // High surrogate: a low surrogate escape must follow.
            if self.peek() == Some(b'\\') {
                self.bump();
                if self.peek() != Some(b'u') {
                    return Err(self.err(ParseErrorKind::BadUnicodeEscape(format!(
                        "\\u{first:04X} not followed by low surrogate"
                    ))));
                }
                self.bump();
                let second = self.parse_hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(self.err(ParseErrorKind::BadUnicodeEscape(format!(
                        "\\u{first:04X}\\u{second:04X} is not a surrogate pair"
                    ))));
                }
                let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                char::from_u32(cp).ok_or_else(|| {
                    self.err(ParseErrorKind::BadUnicodeEscape(format!("U+{cp:X}")))
                })?
            } else {
                return Err(self.err(ParseErrorKind::BadUnicodeEscape(format!(
                    "unpaired high surrogate \\u{first:04X}"
                ))));
            }
        } else if (0xDC00..=0xDFFF).contains(&first) {
            return Err(self.err(ParseErrorKind::BadUnicodeEscape(format!(
                "unpaired low surrogate \\u{first:04X}"
            ))));
        } else {
            char::from_u32(first)
                .ok_or_else(|| self.err(ParseErrorKind::BadUnicodeEscape(format!("U+{first:X}"))))?
        };
        out.push(c);
        Ok(())
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err(ParseErrorKind::UnexpectedEof));
            };
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => {
                    return Err(self.err(ParseErrorKind::BadUnicodeEscape((b as char).to_string())))
                }
            };
            v = (v << 4) | d;
            self.bump();
        }
        Ok(v)
    }

    fn lex_number(&mut self) -> Result<u64, ParseError> {
        let start = self.pos;
        let first = self.bytes[self.pos];
        self.bump();
        while let Some(b @ b'0'..=b'9') = self.peek() {
            let _ = b;
            self.bump();
        }
        // The full JSON grammar allows fraction/exponent; the fragment
        // doesn't. Detect and report them specifically.
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(self.err(ParseErrorKind::NonNaturalNumber));
        }
        let text = &self.src[start..self.pos];
        if first == b'0' && text.len() > 1 {
            return Err(self.err(ParseErrorKind::LeadingZero));
        }
        text.parse::<u64>()
            .map_err(|_| self.err(ParseErrorKind::NumberOverflow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseErrorKind::*;

    fn kind(s: &str) -> ParseErrorKind {
        parse(s).unwrap_err().kind
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("0").unwrap(), Json::Num(0));
        assert_eq!(parse("1234567890").unwrap(), Json::Num(1234567890));
        assert_eq!(parse(r#""x\ny""#).unwrap(), Json::str("x\ny"));
        assert_eq!(parse(r#""""#).unwrap(), Json::str(""));
    }

    #[test]
    fn parses_nested_structures() {
        let j = parse(r#"{"a": [1, {"b": "c"}, []], "d": {}}"#).unwrap();
        assert_eq!(
            j.get("a").unwrap().index(1).unwrap().get("b"),
            Some(&Json::str("c"))
        );
        assert_eq!(j.get("d"), Some(&Json::empty_object()));
    }

    #[test]
    fn figure1_document() {
        let j = parse(
            r#"{
                "name": {"first": "John", "last": "Doe"},
                "age": 32,
                "hobbies": ["fishing", "yoga"]
            }"#,
        )
        .unwrap();
        assert_eq!(j.node_count(), 8);
        assert_eq!(j.get("hobbies").unwrap().index(1), Some(&Json::str("yoga")));
    }

    #[test]
    fn rejects_out_of_fragment_literals() {
        assert_eq!(kind("null"), UnsupportedLiteral("null"));
        assert_eq!(kind("true"), UnsupportedLiteral("true"));
        assert_eq!(kind("false"), UnsupportedLiteral("false"));
        assert_eq!(kind("-3"), NegativeNumber);
        assert_eq!(kind("3.5"), NonNaturalNumber);
        assert_eq!(kind("3e2"), NonNaturalNumber);
    }

    #[test]
    fn rejects_leading_zero_and_overflow() {
        assert_eq!(kind("012"), LeadingZero);
        assert_eq!(kind("99999999999999999999999"), NumberOverflow);
    }

    #[test]
    fn rejects_duplicate_keys_with_position() {
        let e = parse(r#"{"a":1, "a":2}"#).unwrap_err();
        assert!(matches!(e.kind, DuplicateKey(ref k) if k == "a"));
        assert_eq!(e.position.line, 1);
    }

    #[test]
    fn wide_object_duplicate_check_is_near_linear() {
        // 50k distinct keys: the per-key duplicate probe must be a hash-set
        // lookup, not a scan of all previous pairs (the old O(n²) check did
        // ~1.25e9 string compares here and took minutes in debug builds).
        let n = 50_000usize;
        let mut src = String::with_capacity(n * 12);
        src.push('{');
        for i in 0..n {
            if i > 0 {
                src.push(',');
            }
            src.push_str(&format!("\"key{i}\":{i}"));
        }
        src.push('}');
        let doc = parse(&src).unwrap();
        assert_eq!(doc.as_object().unwrap().len(), n);
        // The same object with one duplicate appended is still rejected,
        // with the position of the *second* occurrence.
        let dup = format!("{}, \"key0\": 0}}", &src[..src.len() - 1]);
        let e = parse(&dup).unwrap_err();
        assert!(matches!(e.kind, DuplicateKey(ref k) if k == "key0"));
        assert_eq!(e.position.offset, dup.len() - 10);
    }

    #[test]
    fn rejects_trailing_content() {
        assert_eq!(kind("1 2"), TrailingContent);
        assert_eq!(kind("{} {}"), TrailingContent);
    }

    #[test]
    fn rejects_truncated_documents() {
        assert_eq!(kind("{\"a\": "), UnexpectedEof);
        assert_eq!(kind("[1, 2"), UnexpectedEof);
        assert_eq!(kind("\"abc"), UnexpectedEof);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::str("A"));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::str("😀"));
        assert_eq!(
            parse(r#""\\\"\/\b\f\n\r\t""#).unwrap(),
            Json::str("\\\"/\u{8}\u{c}\n\r\t")
        );
        assert!(matches!(kind(r#""\ud800""#), BadUnicodeEscape(_)));
        assert!(matches!(kind(r#""\udc00""#), BadUnicodeEscape(_)));
        assert!(matches!(kind(r#""\q""#), BadEscape(_)));
    }

    #[test]
    fn escape_after_clean_prefix_keeps_both_halves() {
        assert_eq!(parse(r#""abc\ndef""#).unwrap(), Json::str("abc\ndef"));
        assert_eq!(parse(r#""čšAž""#).unwrap(), Json::str("čšAž"));
        assert_eq!(parse(r#""😀 ok""#).unwrap(), Json::str("\u{1F600} ok"));
    }

    #[test]
    fn unescaped_control_char_rejected() {
        assert!(matches!(kind("\"a\u{0001}b\""), ControlCharInString(_)));
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(parse("\"čšž — 中文\"").unwrap(), Json::str("čšž — 中文"));
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(600) + &"]".repeat(600);
        assert!(matches!(kind(&deep), TooDeep(512)));
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
        let custom = parse_with_limits(&ok, ParseLimits::depth(10));
        assert!(matches!(custom.unwrap_err().kind, TooDeep(10)));
    }

    #[test]
    fn size_limit_enforced_before_parsing() {
        let limits = ParseLimits {
            max_bytes: 16,
            ..ParseLimits::default()
        };
        let small = parse_with_limits("[1, 2, 3]", limits);
        assert!(small.is_ok());
        let big = parse_with_limits(&format!("[{}]", "1,".repeat(100)), limits);
        assert!(matches!(big.unwrap_err().kind, TooLarge(16)));
        // The fused path enforces the same limit with the same error.
        let fused = parse_to_tree_with_limits(&"9".repeat(100), limits);
        assert!(matches!(fused.unwrap_err().kind, TooLarge(16)));
    }

    #[test]
    fn error_positions_track_lines() {
        let e = parse("{\n  \"a\": null\n}").unwrap_err();
        assert_eq!(e.position.line, 2);
        assert_eq!(e.kind, UnsupportedLiteral("null"));
    }

    #[test]
    fn whitespace_everywhere() {
        let j = parse(" \t\r\n{ \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(j.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    // ---- fused path smoke tests (the differential suite lives in
    // crates/json-foundations/tests/parse_fusion.rs) ----

    #[test]
    fn fused_parse_matches_two_pass_on_figure1() {
        let src = r#"{
            "name": {"first": "John", "last": "Doe"},
            "age": 32,
            "hobbies": ["fishing", "yoga"]
        }"#;
        let fused = parse_to_tree(src).unwrap();
        let two_pass = JsonTree::build(&parse(src).unwrap());
        assert!(fused.identical(&two_pass));
        assert_eq!(fused.to_json(), parse(src).unwrap());
    }

    #[test]
    fn fused_parse_errors_match_value_parse() {
        for bad in [
            "",
            "null",
            "{\"a\":1, \"a\":2}",
            "[1, 2",
            "{} {}",
            "012",
            "\"a\u{0001}\"",
        ] {
            assert_eq!(
                parse(bad).unwrap_err(),
                parse_to_tree(bad).unwrap_err(),
                "input {bad:?}"
            );
        }
    }

    #[test]
    fn fused_depth_limit_matches() {
        let deep = "[".repeat(600) + &"]".repeat(600);
        assert_eq!(parse(&deep).unwrap_err(), parse_to_tree(&deep).unwrap_err());
        let scalar_at_limit = parse_to_tree_with_limits("7", ParseLimits::depth(0));
        assert!(scalar_at_limit.is_ok());
        let nested = parse_to_tree_with_limits("[7]", ParseLimits::depth(0));
        assert!(matches!(nested.unwrap_err().kind, TooDeep(0)));
    }

    #[test]
    fn shared_interner_keeps_symbols_stable() {
        let limits = ParseLimits::default();
        let t1 = parse_to_tree_into(r#"{"k": "v"}"#, limits, &Arc::default()).unwrap();
        let t2 = parse_to_tree_into(r#"{"v": "k", "w": 1}"#, limits, t1.interner()).unwrap();
        assert_eq!(t1.sym("k"), t2.sym("k"));
        assert_eq!(t1.sym("v"), t2.sym("v"));
        assert_eq!(t1.sym("w"), None, "t1's table predates \"w\"");
        assert_eq!(t2.interner().lookup("w"), t2.sym("w"));
        assert!(t2.sym("w").is_some());
        // A document of known strings only shares its base table.
        let t3 = parse_to_tree_into(r#"["k", {"w": "v"}]"#, limits, t2.interner()).unwrap();
        assert!(Arc::ptr_eq(t2.interner(), t3.interner()));
    }
}
