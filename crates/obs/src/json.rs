//! Hand-rolled JSON primitives: escaping for the exporters and one
//! strict parser ([`parse`]) that the trace analyzer uses to load JSONL
//! traces back in and the exporter tests use to [`validate`] output (this crate takes no external dependencies, so there is no
//! serde_json to lean on).

use std::collections::BTreeMap;

/// Append `s` to `out` as a JSON string literal (with quotes).
pub fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a finite-safe JSON number for `v` (`null` for NaN/±inf, which
/// JSON cannot represent).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-roundtrip Display for finite f64 is valid JSON.
        out.push_str(&format!("{v}"));
        // `1` displays as "1": still valid JSON (integer form).
    } else {
        out.push_str("null");
    }
}

/// Strict whole-input JSON validation: [`parse`] without the tree.
/// Returns `Err(description)` if `s` is not exactly one JSON value
/// (plus surrounding whitespace).
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

/// A parsed JSON value (enough of one to load a JSONL trace line).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; trace integers fit exactly up
    /// to 2⁵³, far beyond any event count and precise enough for
    /// nanosecond stamps within a run).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (key order not preserved).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

/// Parse exactly one JSON value (plus surrounding whitespace) into a
/// [`Value`] tree.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let p = skip_ws(b, 0);
    let (v, p) = parse_value(b, p)?;
    let p = skip_ws(b, p);
    if p != b.len() {
        return Err(format!("trailing garbage at byte {p}"));
    }
    Ok(v)
}

fn parse_value(b: &[u8], p: usize) -> Result<(Value, usize), String> {
    match b.get(p) {
        None => Err(format!("unexpected end of input at byte {p}")),
        Some(b'{') => {
            let mut m = BTreeMap::new();
            let mut q = skip_ws(b, p + 1);
            if b.get(q) == Some(&b'}') {
                return Ok((Value::Obj(m), q + 1));
            }
            loop {
                let (k, after_key) = parse_string(b, skip_ws(b, q))?;
                let q2 = skip_ws(b, after_key);
                if b.get(q2) != Some(&b':') {
                    return Err(format!("expected ':' at byte {q2}"));
                }
                let (v, after_val) = parse_value(b, skip_ws(b, q2 + 1))?;
                m.insert(k, v);
                q = skip_ws(b, after_val);
                match b.get(q) {
                    Some(b',') => q = skip_ws(b, q + 1),
                    Some(b'}') => return Ok((Value::Obj(m), q + 1)),
                    _ => return Err(format!("expected ',' or '}}' at byte {q}")),
                }
            }
        }
        Some(b'[') => {
            let mut items = Vec::new();
            let mut q = skip_ws(b, p + 1);
            if b.get(q) == Some(&b']') {
                return Ok((Value::Arr(items), q + 1));
            }
            loop {
                let (v, after) = parse_value(b, skip_ws(b, q))?;
                items.push(v);
                q = skip_ws(b, after);
                match b.get(q) {
                    Some(b',') => q = skip_ws(b, q + 1),
                    Some(b']') => return Ok((Value::Arr(items), q + 1)),
                    _ => return Err(format!("expected ',' or ']' at byte {q}")),
                }
            }
        }
        Some(b'"') => {
            let (s, q) = parse_string(b, p)?;
            Ok((Value::Str(s), q))
        }
        Some(b't') => literal(b, p, b"true").map(|q| (Value::Bool(true), q)),
        Some(b'f') => literal(b, p, b"false").map(|q| (Value::Bool(false), q)),
        Some(b'n') => literal(b, p, b"null").map(|q| (Value::Null, q)),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let q = number(b, p)?;
            let text = std::str::from_utf8(&b[p..q]).expect("digits are UTF-8");
            let n: f64 = text.parse().map_err(|e| format!("bad number {text:?}: {e}"))?;
            Ok((Value::Num(n), q))
        }
        Some(c) => Err(format!("unexpected byte {c:?} at {p}")),
    }
}

fn parse_string(b: &[u8], p: usize) -> Result<(String, usize), String> {
    let end = string(b, p)?; // strict validation first
    let inner = &b[p + 1..end - 1];
    let mut out = String::with_capacity(inner.len());
    let mut i = 0;
    while i < inner.len() {
        if inner[i] == b'\\' {
            match inner[i + 1] {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = std::str::from_utf8(&inner[i + 2..i + 6]).expect("validated hex");
                    let cp = u32::from_str_radix(hex, 16).expect("validated hex");
                    out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    i += 6;
                    continue;
                }
                _ => unreachable!("validated escape"),
            }
            i += 2;
        } else {
            // Copy the longest run of plain bytes in one go.
            let start = i;
            while i < inner.len() && inner[i] != b'\\' {
                i += 1;
            }
            out.push_str(std::str::from_utf8(&inner[start..i]).expect("exporter emits UTF-8"));
        }
    }
    Ok((out, end))
}

fn skip_ws(b: &[u8], mut p: usize) -> usize {
    while p < b.len() && matches!(b[p], b' ' | b'\t' | b'\n' | b'\r') {
        p += 1;
    }
    p
}

fn literal(b: &[u8], p: usize, lit: &[u8]) -> Result<usize, String> {
    if b.len() >= p + lit.len() && &b[p..p + lit.len()] == lit {
        Ok(p + lit.len())
    } else {
        Err(format!("bad literal at byte {p}"))
    }
}

fn string(b: &[u8], p: usize) -> Result<usize, String> {
    if b.get(p) != Some(&b'"') {
        return Err(format!("expected string at byte {p}"));
    }
    let mut p = p + 1;
    while let Some(&c) = b.get(p) {
        match c {
            b'"' => return Ok(p + 1),
            b'\\' => match b.get(p + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => p += 2,
                Some(b'u') => {
                    let hex = b.get(p + 2..p + 6).ok_or(format!("short \\u escape at {p}"))?;
                    if !hex.iter().all(|h| h.is_ascii_hexdigit()) {
                        return Err(format!("bad \\u escape at byte {p}"));
                    }
                    p += 6;
                }
                _ => return Err(format!("bad escape at byte {p}")),
            },
            0x00..=0x1f => return Err(format!("raw control byte in string at {p}")),
            _ => p += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], mut p: usize) -> Result<usize, String> {
    let start = p;
    if b.get(p) == Some(&b'-') {
        p += 1;
    }
    let int_digits = eat_digits(b, p);
    if int_digits == p {
        return Err(format!("bad number at byte {start}"));
    }
    // No leading zeros (JSON): "0" ok, "01" not.
    if b[p] == b'0' && int_digits > p + 1 {
        return Err(format!("leading zero at byte {p}"));
    }
    p = int_digits;
    if b.get(p) == Some(&b'.') {
        let frac = eat_digits(b, p + 1);
        if frac == p + 1 {
            return Err(format!("bad fraction at byte {p}"));
        }
        p = frac;
    }
    if matches!(b.get(p), Some(b'e' | b'E')) {
        p += 1;
        if matches!(b.get(p), Some(b'+' | b'-')) {
            p += 1;
        }
        let exp = eat_digits(b, p);
        if exp == p {
            return Err(format!("bad exponent at byte {p}"));
        }
        p = exp;
    }
    Ok(p)
}

fn eat_digits(b: &[u8], mut p: usize) -> usize {
    while p < b.len() && b[p].is_ascii_digit() {
        p += 1;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            " 0 ",
            "-1.5e-7",
            r#""a\"bé""#,
            r#"{"a":[1,2,{"b":null}],"c":"\n"}"#,
        ] {
            assert!(validate(ok).is_ok(), "{ok}: {:?}", validate(ok));
        }
    }

    #[test]
    fn rejects_invalid_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "\"unterminated",
            "nul",
            "[1] trailing",
            "\"raw\ncontrol\"",
            "NaN",
        ] {
            assert!(validate(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn escaping_roundtrips_through_validation() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode é 日本";
        let mut out = String::new();
        push_str_literal(&mut out, nasty);
        assert!(validate(&out).is_ok(), "{out}");
    }

    #[test]
    fn parse_roundtrips_values() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":"x\ny","c":true,"d":null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Value::Arr(vec![Value::Num(1.0), Value::Num(2.5), Value::Num(-300.0)])
        );
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_resolves_escapes_and_unicode() {
        let v = parse(r#""quote\" tab\t \u0041 é 日本""#).unwrap();
        assert_eq!(v.as_str(), Some("quote\" tab\t A é 日本"));
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        for bad in ["", "{", "[1,]", "01", "nul", "[1] x"] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn parse_u64_integers_are_exact() {
        let v = parse("{\"ts_ns\":1234567890123}").unwrap();
        assert_eq!(v.get("ts_ns").and_then(Value::as_u64), Some(1234567890123));
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn f64_formatting_is_valid_json() {
        for v in [0.0, -1.0, 1.5e300, 1e-300, 123456789.123, f64::NAN, f64::INFINITY] {
            let mut out = String::new();
            push_f64(&mut out, v);
            assert!(validate(&out).is_ok(), "{v} -> {out}");
        }
    }
}
