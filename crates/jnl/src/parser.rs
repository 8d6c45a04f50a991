//! A concrete syntax for JNL formulas, matching the `Display`
//! implementations in [`crate::ast`].
//!
//! ```text
//! unary  := or                          binary := seq (';' seq)*
//! or     := and ('|' and)*              seq    := atom '*'*
//! and    := not ('&' not)*              atom   := 'eps'
//! not    := '!' not | atom                      | '<' unary '>'
//! atom   := 'true'                               | '(' binary ')'
//!         | '(' unary ')'                        | '@' step
//!         | '[' binary ']'              step   := '"' key '"'     (X_w)
//!         | 'eqdoc(' binary ',' json ')'        | '-'? digits     (X_i)
//!         | 'eqpair(' binary ',' binary ')'     | '/' regex '/'   (X_e)
//!                                               | '[' i ':' (j|'*') ']'
//! ```
//!
//! ```
//! use jnl::parse_unary;
//! let phi = parse_unary(r#"[@"name" ; @"first"] & !eqdoc(@"age", 31)"#).unwrap();
//! assert!(phi.fragment().is_deterministic());
//! ```

use std::fmt;

use relex::Regex;

use crate::ast::{Binary, Unary};

/// A JNL syntax error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JnlParseError {
    /// Byte offset into the source.
    pub offset: usize,
    /// Message.
    pub message: String,
}

impl fmt::Display for JnlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JNL syntax error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JnlParseError {}

/// Parses a unary JNL formula.
pub fn parse_unary(src: &str) -> Result<Unary, JnlParseError> {
    let mut p = P::new(src);
    p.ws();
    let u = p.unary()?;
    p.ws();
    if !p.done() {
        return Err(p.err("trailing content"));
    }
    Ok(u)
}

/// Parses a binary JNL formula.
pub fn parse_binary(src: &str) -> Result<Binary, JnlParseError> {
    let mut p = P::new(src);
    p.ws();
    let b = p.binary()?;
    p.ws();
    if !p.done() {
        return Err(p.err("trailing content"));
    }
    Ok(b)
}

struct P<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn new(src: &'a str) -> P<'a> {
        P { src, pos: 0 }
    }

    fn err(&self, msg: &str) -> JnlParseError {
        JnlParseError {
            offset: self.pos,
            message: msg.to_owned(),
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), JnlParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{token}`")))
        }
    }

    fn unary(&mut self) -> Result<Unary, JnlParseError> {
        let mut branches = vec![self.and()?];
        loop {
            self.ws();
            if self.eat("|") {
                self.ws();
                branches.push(self.and()?);
            } else {
                break;
            }
        }
        Ok(Unary::or(branches))
    }

    fn and(&mut self) -> Result<Unary, JnlParseError> {
        let mut parts = vec![self.not()?];
        loop {
            self.ws();
            if self.eat("&") {
                self.ws();
                parts.push(self.not()?);
            } else {
                break;
            }
        }
        Ok(Unary::and(parts))
    }

    fn not(&mut self) -> Result<Unary, JnlParseError> {
        self.ws();
        if self.eat("!") {
            Ok(Unary::not(self.not()?))
        } else {
            self.uatom()
        }
    }

    fn uatom(&mut self) -> Result<Unary, JnlParseError> {
        self.ws();
        if self.eat("true") {
            return Ok(Unary::True);
        }
        if self.eat("eqdoc") {
            self.ws();
            self.expect("(")?;
            let a = self.binary()?;
            self.ws();
            self.expect(",")?;
            self.ws();
            let doc = self.json_literal()?;
            self.ws();
            self.expect(")")?;
            return Ok(Unary::eq_doc(a, doc));
        }
        if self.eat("eqpair") {
            self.ws();
            self.expect("(")?;
            let a = self.binary()?;
            self.ws();
            self.expect(",")?;
            let b = self.binary()?;
            self.ws();
            self.expect(")")?;
            return Ok(Unary::eq_pair(a, b));
        }
        if self.eat("(") {
            let u = self.unary()?;
            self.ws();
            self.expect(")")?;
            return Ok(u);
        }
        if self.eat("[") {
            let b = self.binary()?;
            self.ws();
            self.expect("]")?;
            return Ok(Unary::exists(b));
        }
        Err(self.err("expected a unary formula"))
    }

    fn binary(&mut self) -> Result<Binary, JnlParseError> {
        self.ws();
        let mut parts = vec![self.seq()?];
        loop {
            self.ws();
            if self.eat(";") {
                self.ws();
                parts.push(self.seq()?);
            } else {
                break;
            }
        }
        Ok(Binary::compose(parts))
    }

    fn seq(&mut self) -> Result<Binary, JnlParseError> {
        let mut b = self.batom()?;
        loop {
            self.ws();
            if self.eat("*") {
                b = Binary::star(b);
            } else {
                break;
            }
        }
        Ok(b)
    }

    fn batom(&mut self) -> Result<Binary, JnlParseError> {
        self.ws();
        if self.eat("eps") {
            return Ok(Binary::Epsilon);
        }
        if self.eat("<") {
            let u = self.unary()?;
            self.ws();
            self.expect(">")?;
            return Ok(Binary::test(u));
        }
        if self.eat("(") {
            let b = self.binary()?;
            self.ws();
            self.expect(")")?;
            return Ok(b);
        }
        if self.eat("@") {
            return self.step();
        }
        Err(self.err("expected a binary formula"))
    }

    fn step(&mut self) -> Result<Binary, JnlParseError> {
        match self.peek() {
            Some('"') => {
                let s = self.quoted_string()?;
                Ok(Binary::Key(s))
            }
            Some('/') => {
                self.pos += 1;
                let start = self.pos;
                let mut escaped = false;
                loop {
                    let Some(c) = self.peek() else {
                        return Err(self.err("unterminated regex step"));
                    };
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '/' {
                        break;
                    }
                    self.pos += c.len_utf8();
                }
                let raw = &self.src[start..self.pos];
                self.pos += 1; // closing '/'
                let unescaped = raw.replace("\\/", "/");
                let e = Regex::parse(&unescaped)
                    .map_err(|e| self.err(&format!("bad regex in step: {e}")))?;
                Ok(Binary::KeyRegex(e))
            }
            Some('[') => {
                self.pos += 1;
                self.ws();
                let i = self.nat()?;
                self.ws();
                self.expect(":")?;
                self.ws();
                let j = if self.eat("*") {
                    None
                } else {
                    Some(self.nat()?)
                };
                self.ws();
                self.expect("]")?;
                if let Some(j) = j {
                    if j < i {
                        return Err(self.err("range step with j < i"));
                    }
                }
                Ok(Binary::Range(i, j))
            }
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let neg = self.eat("-");
                let n = self.nat()?;
                let v = n as i64;
                Ok(Binary::Index(if neg { -v } else { v }))
            }
            _ => Err(self.err("expected a step after `@`")),
        }
    }

    fn nat(&mut self) -> Result<u64, JnlParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some('0'..='9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("number too large"))
    }

    fn quoted_string(&mut self) -> Result<String, JnlParseError> {
        // Delegate to the JSON string parser for escapes.
        let start = self.pos;
        debug_assert_eq!(self.peek(), Some('"'));
        self.pos += 1;
        let mut escaped = false;
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += c.len_utf8();
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                break;
            }
        }
        let slice = &self.src[start..self.pos];
        match jsondata::parse(slice) {
            Ok(jsondata::Json::Str(s)) => Ok(s.into()),
            _ => Err(self.err("invalid string literal")),
        }
    }

    fn json_literal(&mut self) -> Result<jsondata::Json, JnlParseError> {
        // Scan the JSON extent (balanced braces/brackets, strings aware),
        // then hand it to the JSON parser.
        let start = self.pos;
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        while let Some(c) = self.peek() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                self.pos += c.len_utf8();
                continue;
            }
            match c {
                '"' => {
                    in_str = true;
                    self.pos += 1;
                }
                '{' | '[' => {
                    depth += 1;
                    self.pos += 1;
                }
                '}' | ']' => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                    self.pos += 1;
                }
                ',' | ')' if depth == 0 => break,
                _ => self.pos += c.len_utf8(),
            }
        }
        let slice = self.src[start..self.pos].trim();
        jsondata::parse(slice).map_err(|e| JnlParseError {
            offset: start,
            message: format!("invalid JSON document in formula: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Binary as B, Unary as U};

    #[test]
    fn parses_deterministic_formulas() {
        let phi = parse_unary(r#"[@"name" ; @"first"]"#).unwrap();
        assert_eq!(
            phi,
            U::exists(B::compose(vec![B::key("name"), B::key("first")]))
        );
        let phi = parse_unary(r#"eqdoc(@"age", 32)"#).unwrap();
        assert_eq!(phi, U::eq_doc(B::key("age"), jsondata::Json::Num(32)));
        let phi = parse_unary(r#"eqpair(@0, @-1)"#).unwrap();
        assert_eq!(phi, U::eq_pair(B::index(0), B::index(-1)));
    }

    #[test]
    fn parses_boolean_structure() {
        let phi = parse_unary(r#"true & ![@"a"] | [@"b"]"#).unwrap();
        // & binds tighter than |
        assert_eq!(
            phi,
            U::or(vec![
                U::and(vec![U::True, U::not(U::exists(B::key("a")))]),
                U::exists(B::key("b")),
            ])
        );
    }

    #[test]
    fn parses_nondeterministic_and_recursive() {
        let phi = parse_unary(r#"[(@/a(b|c)a/ ; @[0:*])*]"#).unwrap();
        let f = phi.fragment();
        assert!(f.nondeterministic && f.recursive);
        let phi = parse_unary(r#"[@[2:5]]"#).unwrap();
        assert_eq!(phi, U::exists(B::range(2, Some(5))));
    }

    #[test]
    fn parses_tests_and_eps() {
        let phi = parse_unary(r#"[<[@"x"]> ; eps ; @"x"]"#).unwrap();
        assert_eq!(
            phi,
            U::exists(B::compose(vec![
                B::test(U::exists(B::key("x"))),
                B::key("x"),
            ]))
        );
    }

    #[test]
    fn parses_json_documents_in_eqdoc() {
        let phi = parse_unary(r#"eqdoc(@"p", {"a": [1, 2], "b": "x,y"})"#).unwrap();
        match phi {
            U::EqDoc(_, doc) => {
                assert_eq!(doc, jsondata::parse(r#"{"a":[1,2],"b":"x,y"}"#).unwrap())
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn display_parse_round_trip() {
        let sources = [
            r#"[@"name" ; @"first"]"#,
            r#"eqdoc(@"hobbies" ; @-1, "yoga")"#,
            r#"!([@"a"] & [@"b"]) | true"#,
            r#"[(@/x+/)* ; @[1:*]]"#,
            r#"eqpair(<true> ; @"l", @"r")"#,
        ];
        for src in sources {
            let phi = parse_unary(src).unwrap();
            let round = parse_unary(&phi.to_string())
                .unwrap_or_else(|e| panic!("reparse of {} failed: {e}", phi));
            assert_eq!(phi, round, "source {src}");
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "[",
            r#"[@"a" ;]"#,
            "eqdoc(@1)",
            "@\"a\"", // binary where unary expected
            "true true",
            "[@[5:2]]",
            "[@/(/]",
        ] {
            assert!(parse_unary(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn parse_binary_entry_point() {
        let b = parse_binary(r#"(@"a")* ; @0"#).unwrap();
        assert_eq!(b, B::compose(vec![B::star(B::key("a")), B::index(0)]));
    }
}
