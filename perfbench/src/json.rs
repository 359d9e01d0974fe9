//! Just enough JSON writing for the result line, the manifest and the
//! span dump.

/// A quoted, escaped JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measured value. JSON has no NaN
/// or infinity; those come out as 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// An object from already-encoded values, in the given order.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(string("\u{1}"), r#""\u0001""#);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.2034567), "1.2034567");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "0");
    }

    #[test]
    fn objects_keep_field_order() {
        let o = object(&[("b", number(1.0)), ("a", string("x"))]);
        assert_eq!(o, r#"{"b": 1, "a": "x"}"#);
    }
}
