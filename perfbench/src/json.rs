//! A minimal JSON object writer for the one-line results the benchmark
//! prints (the library has no serializer dependency).

/// A JSON object under construction, keys in insertion order.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Obj {
        self.raw(key, number(v))
    }

    /// Adds a whole number.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Obj {
        self.raw(key, v.to_string())
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Obj {
        self.raw(key, quote(v))
    }

    /// Adds a boolean.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Obj {
        self.raw(key, v.to_string())
    }

    /// Adds a list of numbers; non-finite values become `null`.
    pub fn nums(&mut self, key: &str, items: &[f64]) -> &mut Obj {
        let body: Vec<String> = items.iter().map(|&v| number(v)).collect();
        self.raw(key, format!("[{}]", body.join(", ")))
    }

    /// Adds a list of strings.
    pub fn strs(&mut self, key: &str, items: &[String]) -> &mut Obj {
        let body: Vec<String> = items.iter().map(|s| quote(s)).collect();
        self.raw(key, format!("[{}]", body.join(", ")))
    }

    /// Adds already-encoded JSON.
    pub fn raw(&mut self, key: &str, json: String) -> &mut Obj {
        self.fields.push((key.to_string(), json));
        self
    }

    /// The encoded object.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number; non-finite values become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_render_in_insertion_order() {
        let mut o = Obj::new();
        o.num("a", 1.5)
            .int("b", 7)
            .bool("c", true)
            .num("d", f64::NAN)
            .strs("e", &["x".into()])
            .nums("f", &[0.5, f64::INFINITY]);
        assert_eq!(
            o.render(),
            r#"{"a": 1.5, "b": 7, "c": true, "d": null, "e": ["x"], "f": [0.5, null]}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
    }
}
