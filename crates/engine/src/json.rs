//! A minimal JSON value type for the cache codec.
//!
//! Scope is exactly what the cache needs and nothing more, except that
//! the parser accepts any JSON value (arrays, booleans, `null`): cache
//! files come from outside the program, so every line is parsed in full
//! before it is judged. Properties:
//!
//! * **Integers and floats are distinct.** `u64`s (counters, seeds,
//!   ids) render as integer digits and round-trip exactly; `f64`s render
//!   in Rust's shortest round-trip `{:?}` form, so
//!   `parse(render(x)) == x` bit-for-bit. Non-finite floats render as
//!   `NaN` / `inf` (as the cache format always has) and are accepted
//!   back by the parser — a deliberate departure from strict JSON kept
//!   for cache-file compatibility.
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a
//!   map), so encoded lines are byte-stable across runs.
//! * **Rendering is compact** — no whitespace — one value per line.
//!
//! This is not a general-purpose JSON library; it has no escape hatches
//! for streaming, comments, or duplicate-key policy (last one wins via
//! linear `get`, first match).

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, rendered as digits.
    Int(u64),
    /// Any other number, rendered in shortest round-trip form.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value (trailing whitespace allowed,
    /// trailing garbage not). `None` on any malformed input.
    pub(crate) fn parse(text: &str) -> Option<Json> {
        let mut chars = text.chars().peekable();
        let value = parse_value(&mut chars)?;
        skip_ws(&mut chars);
        chars.peek().is_none().then_some(value)
    }

    /// Render compactly (no whitespace, no trailing newline).
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x) => out.push_str(&format!("{x:?}")),
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(key, out);
                    out.push_str("\":");
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Field lookup on an object (first match); `None` on other shapes.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`: integers directly, floats only when whole
    /// and in range (cache files written before the integer/float split
    /// carry counters as floats).
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn skip_ws(chars: &mut Chars<'_>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_value(chars: &mut Chars<'_>) -> Option<Json> {
    skip_ws(chars);
    match chars.peek()? {
        '"' => {
            chars.next();
            Some(Json::Str(read_string_tail(chars)?))
        }
        '{' => {
            chars.next();
            let mut fields = Vec::new();
            skip_ws(chars);
            if chars.peek() == Some(&'}') {
                chars.next();
                return Some(Json::Obj(fields));
            }
            loop {
                skip_ws(chars);
                if chars.next()? != '"' {
                    return None;
                }
                let key = read_string_tail(chars)?;
                skip_ws(chars);
                if chars.next()? != ':' {
                    return None;
                }
                fields.push((key, parse_value(chars)?));
                skip_ws(chars);
                match chars.next()? {
                    ',' => {}
                    '}' => return Some(Json::Obj(fields)),
                    _ => return None,
                }
            }
        }
        '[' => {
            chars.next();
            let mut items = Vec::new();
            skip_ws(chars);
            if chars.peek() == Some(&']') {
                chars.next();
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(chars)?);
                skip_ws(chars);
                match chars.next()? {
                    ',' => {}
                    ']' => return Some(Json::Arr(items)),
                    _ => return None,
                }
            }
        }
        _ => {
            // Bare token: literal or number (including the non-standard
            // NaN / inf spellings `{:?}` produces for f64).
            let mut tok = String::new();
            while let Some(&c) = chars.peek() {
                if c == ',' || c == ']' || c == '}' || c.is_whitespace() {
                    break;
                }
                tok.push(c);
                chars.next();
            }
            match tok.as_str() {
                "null" => Some(Json::Null),
                "true" => Some(Json::Bool(true)),
                "false" => Some(Json::Bool(false)),
                "" => None,
                t if !t.starts_with('-') && !t.contains(['.', 'e', 'E']) => {
                    match t.parse::<u64>() {
                        Ok(n) => Some(Json::Int(n)),
                        Err(_) => t.parse::<f64>().ok().map(Json::Num),
                    }
                }
                t => t.parse::<f64>().ok().map(Json::Num),
            }
        }
    }
}

/// Read a JSON string after its opening quote, consuming the closing one.
fn read_string_tail(chars: &mut Chars<'_>) -> Option<String> {
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'u' => {
                    let code: String = (0..4).filter_map(|_| chars.next()).collect();
                    out.push(char::from_u32(u32::from_str_radix(&code, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let v = Json::Obj(vec![
            ("a".to_string(), Json::Int(18_446_744_073_709_551_615)),
            ("b".to_string(), Json::Num(0.1 + 0.2)),
            ("c".to_string(), Json::Str("q\"\\\n".to_string())),
            (
                "d".to_string(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
            ),
            ("e".to_string(), Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.render()), Some(v));
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for x in [0.05, 1.0 / 3.0, f64::MAX, 5e-324, -0.0, f64::NAN, f64::INFINITY] {
            let back = Json::parse(&Json::Num(x).render()).unwrap();
            let y = back.as_f64().unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{x:?} -> {back:?}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"1}", "{\"a\":1} extra", "tru", "nul"] {
            assert_eq!(Json::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn whole_floats_read_back_as_u64() {
        // Pre-split cache lines carry counters as floats ("42.0").
        assert_eq!(Json::parse("42.0").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }
}
