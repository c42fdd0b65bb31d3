//! JSON output for the vendored serde shim, plus a small parser for
//! round-trip tests and tooling.
//!
//! [`JsonWriter`] implements the shim's [`Serializer`] by appending compact
//! JSON to a string; [`to_json`] is the one-call entry point. [`JsonValue`]
//! parses any document this writer emits (objects keep key order, numbers
//! are `f64`).

use serde::ser::{Serialize, SerializeMap, SerializeSeq, SerializeStruct, Serializer};

/// Serializes `value` to a compact JSON string via [`JsonWriter`].
pub fn to_json<T: Serialize + ?Sized>(value: &T) -> String {
    let mut w = JsonWriter::new();
    value
        .serialize(&mut w)
        .expect("JsonWriter serialization is infallible");
    w.finish()
}

/// A compact-JSON [`Serializer`] writing into an owned string. Map keys must
/// serialize as strings (everything in this workspace does).
#[derive(Default)]
pub struct JsonWriter {
    out: String,
}

impl JsonWriter {
    pub fn new() -> Self {
        JsonWriter::default()
    }

    pub fn finish(self) -> String {
        self.out
    }

    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// Compound-state writer for sequences, maps and structs.
pub struct CompoundWriter<'a> {
    w: &'a mut JsonWriter,
    first: bool,
    close: char,
}

impl<'a> CompoundWriter<'a> {
    fn comma(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.w.out.push(',');
        }
    }
}

impl<'a> Serializer for &'a mut JsonWriter {
    type Ok = ();
    type Error = std::fmt::Error;
    type SerializeSeq = CompoundWriter<'a>;
    type SerializeMap = CompoundWriter<'a>;
    type SerializeStruct = CompoundWriter<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), Self::Error> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<(), Self::Error> {
        self.out.push_str(&v.to_string());
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<(), Self::Error> {
        self.out.push_str(&v.to_string());
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), Self::Error> {
        if v.is_finite() {
            // `{:?}` is the shortest representation that round-trips.
            self.out.push_str(&format!("{v:?}"));
        } else {
            self.out.push_str("null");
        }
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), Self::Error> {
        self.push_escaped(v);
        Ok(())
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error> {
        self.out.push('[');
        Ok(CompoundWriter {
            w: self,
            first: true,
            close: ']',
        })
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Self::SerializeMap, Self::Error> {
        self.out.push('{');
        Ok(CompoundWriter {
            w: self,
            first: true,
            close: '}',
        })
    }

    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error> {
        self.out.push('{');
        Ok(CompoundWriter {
            w: self,
            first: true,
            close: '}',
        })
    }
}

impl SerializeSeq for CompoundWriter<'_> {
    type Ok = ();
    type Error = std::fmt::Error;

    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Self::Error> {
        self.comma();
        value.serialize(&mut *self.w)
    }

    fn end(self) -> Result<(), Self::Error> {
        self.w.out.push(self.close);
        Ok(())
    }
}

impl SerializeMap for CompoundWriter<'_> {
    type Ok = ();
    type Error = std::fmt::Error;

    fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<(), Self::Error> {
        self.comma();
        key.serialize(&mut *self.w)?;
        self.w.out.push(':');
        Ok(())
    }

    fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Self::Error> {
        value.serialize(&mut *self.w)
    }

    fn end(self) -> Result<(), Self::Error> {
        self.w.out.push(self.close);
        Ok(())
    }
}

impl SerializeStruct for CompoundWriter<'_> {
    type Ok = ();
    type Error = std::fmt::Error;

    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error> {
        self.comma();
        self.w.push_escaped(key);
        self.w.out.push(':');
        value.serialize(&mut *self.w)
    }

    fn end(self) -> Result<(), Self::Error> {
        self.w.out.push(self.close);
        Ok(())
    }
}

/// A parsed JSON value. Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document. Arrays and objects nested more than 128
    /// levels deep are an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(o) => Some(o),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so without a cap one small document of
/// `[[[[…` overflows the parsing thread's stack, which aborts the whole
/// process. Everything this workspace writes and reads back (metrics
/// snapshots, rpc envelopes, trace exports) nests fewer than ten levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_valid_json() {
        let mut w = JsonWriter::new();
        ["a\"b", "c\\d", "e\nf"].serialize(&mut w).unwrap();
        assert_eq!(w.finish(), r#"["a\"b","c\\d","e\nf"]"#);
        assert_eq!(to_json(&true), "true");
        assert_eq!(to_json(&42u64), "42");
        assert_eq!(to_json(&-1.5f64), "-1.5");
        assert_eq!(to_json(&(3u64, 7u64)), "[3,7]");
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let v =
            JsonValue::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\nyA"}, "d": true, "e": null}"#)
                .unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(
            v.get("b")
                .and_then(|b| b.get("c"))
                .and_then(JsonValue::as_str),
            Some("x\nyA")
        );
        assert_eq!(v.get("d").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("e"), Some(&JsonValue::Null));
        assert!(JsonValue::parse("{\"a\": }").is_err());
        assert!(JsonValue::parse("[1, 2").is_err());
        assert!(JsonValue::parse("[1] garbage").is_err());
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&objects).is_err());
        // A hostile half-megabyte of openers fails fast on any stack.
        let hostile = "[".repeat(500 * 1024);
        let err = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || JsonValue::parse(&hostile).unwrap_err())
            .unwrap()
            .join()
            .expect("parser must not overflow the stack");
        assert!(err.contains(&MAX_DEPTH.to_string()), "{err}");
    }

    #[test]
    fn round_trip_preserves_structure() {
        let original = r#"{"counters":{"a.b":1,"c":2},"list":[[1,2],[3,4]],"s":"q\"q"}"#;
        let v = JsonValue::parse(original).unwrap();
        // Write it back by hand through the value tree.
        fn write(v: &JsonValue, out: &mut String) {
            match v {
                JsonValue::Null => out.push_str("null"),
                JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                JsonValue::Num(n) => {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n:?}"));
                    }
                }
                JsonValue::Str(s) => {
                    let mut w = JsonWriter::new();
                    w.push_escaped(s);
                    out.push_str(&w.finish());
                }
                JsonValue::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write(item, out);
                    }
                    out.push(']');
                }
                JsonValue::Obj(fields) => {
                    out.push('{');
                    for (i, (k, val)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let mut w = JsonWriter::new();
                        w.push_escaped(k);
                        out.push_str(&w.finish());
                        out.push(':');
                        write(val, out);
                    }
                    out.push('}');
                }
            }
        }
        let mut rewritten = String::new();
        write(&v, &mut rewritten);
        assert_eq!(rewritten, original);
    }
}
