//! A minimal JSON toolkit: syntax checker, string escaper, and a small
//! tree codec.
//!
//! The workspace has no serde; the trace exporter renders JSON by hand
//! and the CI gate needs to prove the result actually parses. `validate`
//! is a full RFC 8259 syntax validator (values, nesting, strings with
//! escapes, numbers) that accepts or rejects without building a tree.
//! [`Value`] / [`parse`] / [`Value::render`] add the tree form used by
//! the persistent summary cache: integers only (the cache codec never
//! emits floats — `parse` rejects fractions and exponents so a corrupted
//! entry fails loudly instead of rounding silently).

/// Escapes `s` for inclusion inside a JSON string literal.
///
/// Every byte that needs an escape is ASCII, so it never sits inside a
/// multi-byte UTF-8 sequence: the runs between escapes are copied whole.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out
}

/// Validates that `s` is one complete JSON value.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn validate(s: &str) -> Result<(), String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        lenient: false,
    };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(())
}

/// A parsed JSON value.
///
/// Numbers are restricted to `i64`: the summary-cache codec encodes u64
/// hashes as hex strings and never writes floats, so any fraction or
/// exponent in an input marks the document as foreign/corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the only number form the codec reads or writes).
    Int(i64),
    /// A non-integer number, kept as its source lexeme. Only
    /// [`parse_lenient`] produces this: the BENCH_*.json reports carry
    /// speedup ratios and scaling exponents, and preserving the lexeme
    /// keeps [`Value`] `Eq` and re-rendering byte-faithful.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (rendering preserves insertion order).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, for `Int` and `Num` alike.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(lexeme) => lexeme.parse().ok(),
            _ => None,
        }
    }

    /// The bool payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an `Obj`.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up `key` in an `Obj` (first match wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Renders this value as compact JSON (no whitespace). Object field
    /// order is preserved, so rendering is deterministic for a fixed
    /// tree — equal trees render to byte-identical documents.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Num(lexeme) => out.push_str(lexeme),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses `s` into a [`Value`] tree.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
/// Fractional or exponent numbers are errors (see [`Value`]).
pub fn parse(s: &str) -> Result<Value, String> {
    parse_with(s, false)
}

/// Parses `s` into a [`Value`] tree, accepting non-integer numbers as
/// lexeme-preserving [`Value::Num`] nodes.
///
/// The strict [`parse`] guards the summary cache, where a float marks a
/// foreign document; the BENCH_*.json reports legitimately carry speedup
/// ratios and scaling exponents, and `bench_report` reads those with
/// this variant instead.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse_lenient(s: &str) -> Result<Value, String> {
    parse_with(s, true)
}

fn parse_with(s: &str, lenient: bool) -> Result<Value, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        lenient,
    };
    p.skip_ws();
    let v = p.tree_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    lenient: bool,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                                    return Err(format!(
                                        "bad \\u escape at byte {}",
                                        self.pos
                                    ));
                                }
                                self.pos += 1;
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !self.digits()? {
            return Err(format!("expected a digit at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits()? {
                return Err(format!("expected a fraction digit at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits()? {
                return Err(format!("expected an exponent digit at byte {}", self.pos));
            }
        }
        Ok(())
    }

    fn digits(&mut self) -> Result<bool, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(self.pos > start)
    }

    // -- tree-building variants (used by `parse`) --

    fn tree_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.tree_object(),
            Some(b'[') => self.tree_array(),
            Some(b'"') => self.tree_string().map(Value::Str),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.tree_int(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn tree_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.tree_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.tree_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn tree_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.tree_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn tree_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let mut code: u32 = 0;
                            for _ in 0..4 {
                                let Some(d) =
                                    self.peek().and_then(|b| (b as char).to_digit(16))
                                else {
                                    return Err(format!("bad \\u escape at byte {}", self.pos));
                                };
                                code = code * 16 + d;
                                self.pos += 1;
                            }
                            // Lone surrogates cannot form a `char`; the
                            // codec never emits them, so reject.
                            let Some(c) = char::from_u32(code) else {
                                return Err(format!(
                                    "unpaired surrogate \\u escape at byte {}",
                                    self.pos
                                ));
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Consume the whole run of plain bytes in one step.
                    // The terminators (`"`, `\`, control bytes) are ASCII
                    // and never UTF-8 continuation bytes, so the run ends
                    // on a char boundary and the slice is valid UTF-8
                    // (the input arrived as a &str).
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(s);
                }
            }
        }
    }

    fn tree_int(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !self.digits()? {
            return Err(format!("expected a digit at byte {}", self.pos));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            if !self.lenient {
                return Err(format!(
                    "non-integer number at byte {start} (the cache codec is integer-only)"
                ));
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                if !self.digits()? {
                    return Err(format!("expected a fraction digit at byte {}", self.pos));
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                if !self.digits()? {
                    return Err(format!("expected an exponent digit at byte {}", self.pos));
                }
            }
            let lexeme =
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
            return Ok(Value::Num(lexeme.to_string()));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("integer out of range at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_wellformed_documents() {
        for doc in [
            "null",
            "true",
            "-12.5e+3",
            "\"a \\\"quoted\\\" string\\u00e9\"",
            "[]",
            "{}",
            "{\"a\": [1, 2, {\"b\": null}], \"c\": \"d\"}",
            "  [1, 2.0, -3]  ",
        ] {
            assert!(validate(doc).is_ok(), "should accept {doc:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "\"unterminated",
            "nul",
            "1 2",
            "{\"a\": 01x}",
            "\"bad \\q escape\"",
        ] {
            assert!(validate(doc).is_err(), "should reject {doc:?}");
        }
    }

    #[test]
    fn escape_roundtrips_through_validate() {
        let tricky = "name \"with\" \\ slashes\nand\tcontrol\u{1}chars";
        let doc = format!("{{\"k\": \"{}\"}}", escape(tricky));
        assert!(validate(&doc).is_ok(), "{doc}");
    }

    #[test]
    fn parse_builds_the_expected_tree() {
        let v = parse("{\"a\": [1, -2, null], \"b\": {\"c\": true}, \"d\": \"x\\ny\"}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Value::Int(-2));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d").unwrap().as_str(), Some("x\ny"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_unescapes_strings() {
        let v = parse("\"q\\\" b\\\\ s\\/ u\\u00e9 t\\t\"").unwrap();
        assert_eq!(v.as_str(), Some("q\" b\\ s/ u\u{e9} t\t"));
    }

    #[test]
    fn parse_rejects_floats_and_garbage() {
        for doc in ["1.5", "1e3", "-2.0", "{", "[1,]", "nul", "1 2", "\"\\ud800\""] {
            assert!(parse(doc).is_err(), "should reject {doc:?}");
        }
    }

    #[test]
    fn parse_lenient_preserves_float_lexemes() {
        let v = parse_lenient("{\"speedup\": 3.10, \"exp\": 1.5e-2, \"n\": 7}").unwrap();
        assert_eq!(
            v.get("speedup").unwrap(),
            &Value::Num("3.10".to_string())
        );
        assert_eq!(v.get("speedup").unwrap().as_f64(), Some(3.10));
        assert_eq!(v.get("exp").unwrap().as_f64(), Some(0.015));
        assert_eq!(v.get("n").unwrap(), &Value::Int(7));
        // Re-rendering keeps the original lexeme, trailing zero and all.
        assert_eq!(v.render(), "{\"speedup\":3.10,\"exp\":1.5e-2,\"n\":7}");
    }

    #[test]
    fn parse_lenient_still_rejects_malformed_numbers() {
        for doc in ["1.", "1e", "1.5.2", "-.5", "01.5x"] {
            assert!(parse_lenient(doc).is_err(), "should reject {doc:?}");
        }
    }

    #[test]
    fn render_parse_roundtrip_is_identity() {
        let tree = Value::Obj(vec![
            ("version".to_string(), Value::Int(1)),
            (
                "items".to_string(),
                Value::Arr(vec![
                    Value::Null,
                    Value::Bool(false),
                    Value::Str("tricky \"\\\n\t".to_string()),
                    Value::Int(i64::MIN),
                    Value::Int(i64::MAX),
                ]),
            ),
            ("empty_obj".to_string(), Value::Obj(Vec::new())),
            ("empty_arr".to_string(), Value::Arr(Vec::new())),
        ]);
        let doc = tree.render();
        assert!(validate(&doc).is_ok(), "{doc}");
        assert_eq!(parse(&doc).unwrap(), tree);
        // Rendering is deterministic: a second render is byte-identical.
        assert_eq!(tree.render(), doc);
    }
}
