//! Hand-rolled JSON string escaping, shared by every JSON emitter in
//! the workspace.
//!
//! The workspace is hermetic (no serde), so JSON is assembled by hand.
//! Escaping lived in `modelfinder::harness` before this crate existed;
//! it now lives here so the harness, the stats exporters, and the bench
//! emitters all agree, and so the inverse ([`unescape`]) can round-trip
//! test the encoder against arbitrary strings — including control
//! characters, quotes, and backslashes in test names and paths.

/// Appends `value` to `out` as a JSON string literal, surrounding
/// quotes included. Escapes `"` and `\`, uses the short escapes for
/// `\n`, `\r`, `\t`, and `\uXXXX` for the remaining control characters
/// (U+0000–U+001F). Everything else is emitted verbatim as UTF-8,
/// which is valid JSON.
pub fn escape_into(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap());
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// [`escape_into`] as a fresh `String`.
pub fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    escape_into(&mut out, value);
    out
}

/// Parses a JSON string literal (surrounding quotes included, exactly
/// the form [`escape`] produces and any standard JSON emitter may
/// produce) back to its value. Accepts all standard escapes, including
/// `\uXXXX` with surrogate pairs. Returns `None` on malformed input.
pub fn unescape(literal: &str) -> Option<String> {
    let mut chars = literal.chars();
    if chars.next() != Some('"') {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => {
                // Closing quote must end the literal.
                return if chars.next().is_none() {
                    Some(out)
                } else {
                    None
                };
            }
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'b' => out.push('\u{0008}'),
                'f' => out.push('\u{000c}'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hi = hex4(&mut chars)?;
                    let code = if (0xd800..0xdc00).contains(&hi) {
                        // High surrogate: a \uXXXX low surrogate must follow.
                        if chars.next() != Some('\\') || chars.next() != Some('u') {
                            return None;
                        }
                        let lo = hex4(&mut chars)?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return None;
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        hi
                    };
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c if (c as u32) < 0x20 => return None, // raw control char
            c => out.push(c),
        }
    }
}

fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    let mut code = 0u32;
    for _ in 0..4 {
        code = code * 16 + chars.next()?.to_digit(16)?;
    }
    Some(code)
}

/// A parsed JSON value.
///
/// Objects preserve key order as a `Vec` of pairs (duplicate keys keep
/// the first occurrence on [`Value::get`]); numbers are `f64`, which
/// covers every value the workspace's emitters produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks a key up in an object (first occurrence); `None` on
    /// non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if this is a non-negative number
    /// with no fractional part.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, so the comparison must
            // be strict to keep the cast in range.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(vs) => Some(vs),
            _ => None,
        }
    }
}

/// Maximum container nesting [`parse`] accepts, so adversarial input
/// (`[[[[…`) cannot overflow the stack of a recursive parse.
const MAX_DEPTH: usize = 64;

/// Parses one complete JSON value from `text` (leading and trailing
/// whitespace allowed, nothing else). Returns `None` on malformed
/// input, trailing garbage, or nesting deeper than [`MAX_DEPTH`] — the
/// callers are servers reading untrusted lines, so there are no panics.
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn literal(&mut self, word: &str) -> Option<()> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Some(())
        } else {
            None
        }
    }

    /// Scans a string literal (cursor on the opening quote) and
    /// delegates to [`unescape`], the workspace's one string decoder.
    fn string(&mut self) -> Option<String> {
        let start = self.pos;
        self.eat(b'"')?;
        loop {
            match self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    let literal = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                    return unescape(literal);
                }
                b'\\' => self.pos += 2,
                _ => self.pos += 1,
            }
        }
    }

    fn value(&mut self, depth: usize) -> Option<Value> {
        if depth > MAX_DEPTH {
            return None;
        }
        match self.bytes.get(self.pos)? {
            b'n' => self.literal("null").map(|()| Value::Null),
            b't' => self.literal("true").map(|()| Value::Bool(true)),
            b'f' => self.literal("false").map(|()| Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => {
                self.pos += 1;
                let mut vs = Vec::new();
                self.skip_ws();
                if self.eat(b']').is_some() {
                    return Some(Value::Arr(vs));
                }
                loop {
                    self.skip_ws();
                    vs.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']').is_some() {
                        return Some(Value::Arr(vs));
                    }
                    self.eat(b',')?;
                }
            }
            b'{' => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.eat(b'}').is_some() {
                    return Some(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    pairs.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(b'}').is_some() {
                        return Some(Value::Obj(pairs));
                    }
                    self.eat(b',')?;
                }
            }
            _ => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let tok = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                tok.parse::<f64>()
                    .ok()
                    .filter(|n| n.is_finite())
                    .map(Value::Num)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials_and_controls() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("a\\b"), "\"a\\\\b\"");
        assert_eq!(escape("a\nb\rc\td"), "\"a\\nb\\rc\\td\"");
        assert_eq!(
            escape("\u{0000}\u{0001}\u{001f}"),
            "\"\\u0000\\u0001\\u001f\""
        );
        // Non-ASCII passes through verbatim.
        assert_eq!(escape("π/2 ≤ 𝛕"), "\"π/2 ≤ 𝛕\"");
    }

    #[test]
    fn unescape_inverts_escape() {
        for s in [
            "",
            "plain",
            "quote\" backslash\\ slash/",
            "line\nfeed\r tab\t",
            "ctrl\u{0001}\u{001f}\u{0000}done",
            "unicode π 𝛕 \u{10348}",
        ] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s), "round-trip {s:?}");
        }
    }

    #[test]
    fn unescape_accepts_standard_escapes_we_never_emit() {
        assert_eq!(unescape("\"a\\/b\"").as_deref(), Some("a/b"));
        assert_eq!(unescape("\"\\b\\f\"").as_deref(), Some("\u{0008}\u{000c}"));
        // BMP \u escape and a surrogate pair (U+1D40C).
        assert_eq!(unescape("\"\\u03c0\"").as_deref(), Some("π"));
        assert_eq!(unescape("\"\\ud835\\udd0c\"").as_deref(), Some("\u{1d50c}"));
    }

    #[test]
    fn parse_accepts_the_workspace_shapes() {
        let v = parse(r#"{"id":7,"op":"run","ok":true,"wall":0.25,"xs":[1,2,3],"n":null}"#)
            .expect("valid object");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("op").and_then(Value::as_str), Some("run"));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("wall").and_then(Value::as_f64), Some(0.25));
        assert_eq!(
            v.get("xs").and_then(Value::as_arr).map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(v.get("n"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("  [ ]  "), Some(Value::Arr(vec![])));
        assert_eq!(parse("{}"), Some(Value::Obj(vec![])));
        assert_eq!(parse("-12.5e2"), Some(Value::Num(-1250.0)));
        assert_eq!(parse("-1.5e2"), Some(Value::Num(-150.0)));
        assert_eq!(parse("null"), Some(Value::Null));
        assert_eq!(parse(" true "), Some(Value::Bool(true)));
        let nested = parse(r#"{"a":[1,{"b":[]}],"c":{}}"#).expect("nested document");
        let a = nested.get("a").and_then(Value::as_arr).expect("array");
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b"), Some(&Value::Arr(vec![])));
        assert_eq!(nested.get("c"), Some(&Value::Obj(vec![])));
        assert_eq!(
            parse(r#""a\nb""#).as_ref().and_then(Value::as_str),
            Some("a\nb")
        );
    }

    #[test]
    fn parse_round_trips_escaped_strings() {
        for s in ["plain", "quote\" backslash\\", "line\nfeed", "π 𝛕"] {
            let v = parse(&escape(s)).expect("escaped string parses");
            assert_eq!(v.as_str(), Some(s));
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "   ",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "nul",
            "nulll",
            "[1] trailing",
            "1 2",
            "{} {}",
            "'single'",
            "NaN",
            "Infinity",
            "\"unterminated",
            "{\"a\":1,}",
            "[1,]",
        ] {
            assert_eq!(parse(bad), None, "should reject {bad:?}");
        }
        // Nesting deeper than MAX_DEPTH is rejected, not a stack overflow.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(parse(&deep), None);
        let shallow = "[".repeat(10) + &"]".repeat(10);
        assert!(parse(&shallow).is_some());
    }

    #[test]
    fn as_u64_guards_fractions_and_sign() {
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), None); // rounds past u64::MAX
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("4096").unwrap().as_u64(), Some(4096));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn unescape_rejects_malformed() {
        for bad in [
            "noquotes",
            "\"unterminated",
            "\"trailing\"x",
            "\"bad escape \\q\"",
            "\"raw control \u{0001}\"",
            "\"short hex \\u12\"",
            "\"lone high surrogate \\ud835\"",
            "\"high then not-low \\ud835\\u0041\"",
            "\"lone low surrogate \\udd0c ok\"",
        ] {
            assert_eq!(unescape(bad), None, "should reject {bad:?}");
        }
    }
}
