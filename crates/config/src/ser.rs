//! JSON serialization: compact and pretty printers, and the one integer
//! and one string writer every output format shares.

use std::fmt::Write;

use crate::value::Value;

/// `"00" "01" … "99"` back to back: [`push_uint`] emits two digits per
/// division. A `str`, so a pair is appended without re-validating it.
const DIGIT_PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends the decimal form of `n` to `out`, byte-identical to
/// `n.to_string()` but without the formatting machinery or an
/// allocation. Every text output of a run — the sample log, span log,
/// flit trace, time series, and [`Value::Int`] in JSON — writes its
/// integers through this one function.
///
/// # Example
///
/// ```
/// let mut s = String::from("tick ");
/// supersim_config::push_uint(&mut s, 1_000_042);
/// assert_eq!(s, "tick 1000042");
/// ```
pub fn push_uint(out: &mut String, mut n: u64) {
    // Pairs come out least significant first; `u64::MAX` has ten.
    let mut low = [0u8; 10];
    let mut pairs = 0;
    while n >= 100 {
        low[pairs] = (n % 100) as u8;
        n /= 100;
        pairs += 1;
    }
    if n >= 10 {
        let at = 2 * n as usize;
        out.push_str(&DIGIT_PAIRS[at..at + 2]);
    } else {
        out.push(char::from(b'0' + n as u8));
    }
    for &pair in low[..pairs].iter().rev() {
        let at = 2 * usize::from(pair);
        out.push_str(&DIGIT_PAIRS[at..at + 2]);
    }
}

impl Value {
    /// Serializes to compact JSON (no whitespace).
    ///
    /// # Example
    ///
    /// ```
    /// # use supersim_config::{obj, Value};
    /// let v = obj! { "a" => 1i64, "b" => vec![true, false] };
    /// assert_eq!(v.to_json(), r#"{"a":1,"b":[true,false]}"#);
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Serializes to human-readable JSON with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out.push('\n');
        out
    }
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            if *i < 0 {
                out.push('-');
            }
            push_uint(out, i.unsigned_abs());
        }
        Value::Float(x) => write_float(out, *x),
        Value::Str(s) => push_json_str(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                push_json_str(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * level) {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        if x == x.trunc() && x.abs() < 1e15 {
            // Keep a trailing ".0" so the value round-trips as a float.
            write!(out, "{x:.1}").expect("writing to String cannot fail");
        } else {
            write!(out, "{x}").expect("writing to String cannot fail");
        }
    } else {
        // JSON has no NaN/Infinity; emit null like most serializers.
        out.push_str("null");
    }
}

/// Appends `s` to `out` as a quoted JSON string literal, escaping
/// quotes, backslashes and control characters. The one JSON string
/// writer: [`Value::Str`] and object keys go through it, and so do the
/// labels of the host trace.
///
/// # Example
///
/// ```
/// let mut s = String::new();
/// supersim_config::push_json_str(&mut s, "a \"b\"\n");
/// assert_eq!(s, r#""a \"b\"\n""#);
/// ```
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use crate::{obj, parse, Value};

    #[test]
    fn compact_round_trip() {
        let src = r#"{"a":[1,2.5,"x"],"b":{"c":null,"d":true}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_json(), src);
    }

    #[test]
    fn pretty_round_trip() {
        let v = obj! { "net" => obj!{ "radix" => 16u64 }, "arr" => vec![1i64, 2] };
        let pretty = v.to_json_pretty();
        assert!(pretty.contains("\n  \"arr\": [\n    1,\n    2\n  ]"));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn float_formatting_round_trips() {
        assert_eq!(Value::Float(2.0).to_json(), "2.0");
        assert_eq!(parse("2.0").unwrap().to_json(), "2.0");
        assert_eq!(Value::Float(0.25).to_json(), "0.25");
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn string_escaping() {
        let v = Value::from("a\"b\\c\nd\te\u{0001}");
        assert_eq!(v.to_json(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Value::object().to_json(), "{}");
        assert_eq!(Value::Array(vec![]).to_json(), "[]");
        assert_eq!(Value::object().to_json_pretty(), "{}\n");
    }

    fn uint_text(n: u64) -> String {
        let mut s = String::new();
        super::push_uint(&mut s, n);
        s
    }

    #[test]
    fn push_uint_matches_to_string() {
        let mut edges = vec![0, u64::MAX];
        let mut p = 1u64;
        for _ in 0..20 {
            edges.extend([p - 1, p, p + 1]);
            match p.checked_mul(10) {
                Some(next) => p = next,
                None => break,
            }
        }
        for n in edges {
            assert_eq!(uint_text(n), n.to_string(), "{n}");
        }
        let mut rng = supersim_des::Rng::new(0x5EED_D161);
        for _ in 0..10_000 {
            // Shift by a random width so every digit count is drawn.
            let n = rng.gen_u64() >> (rng.gen_u64() % 64);
            assert_eq!(uint_text(n), n.to_string(), "{n}");
        }
        let mut s = String::from("x=");
        super::push_uint(&mut s, 42);
        assert_eq!(s, "x=42", "appends, never overwrites");
    }

    #[test]
    fn int_extremes_serialize_as_before() {
        assert_eq!(Value::Int(i64::MIN).to_json(), "-9223372036854775808");
        assert_eq!(Value::Int(i64::MAX).to_json(), "9223372036854775807");
        assert_eq!(Value::Int(-1).to_json(), "-1");
        assert_eq!(Value::Int(0).to_json(), "0");
        assert_eq!(
            parse("[-9223372036854775808]").unwrap().to_json(),
            "[-9223372036854775808]"
        );
    }

    #[test]
    fn display_is_compact_json() {
        let v = obj! { "x" => 1i64 };
        assert_eq!(v.to_string(), r#"{"x":1}"#);
    }
}
