//! A minimal JSON value model and writer — just enough to emit the
//! workspace's machine-readable bench files (`BENCH_*.json`), with no
//! external dependencies.
//!
//! The stable cell schema the `perf` bin emits and reads back as its
//! baseline:
//!
//! ```json
//! {
//!   "schema": "nmbst-bench-v1",
//!   "cells": [
//!     { "bench": "<name>", "config": { ... }, "metrics": { ... } }
//!   ]
//! }
//! ```
//!
//! `config` holds the knobs that produced the cell (threads, workload
//! mix, key range, api/policy variant...), `metrics` the measurements
//! (ns/op, Mops/s, percentiles, exact counter values). Future PRs
//! append files with the same schema, forming a perf trajectory.

use std::io::{self, Write};
use std::path::Path;

/// A JSON value. Object keys keep insertion order (stable diffs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, serialized without a decimal point.
    Int(i64),
    /// A float; non-finite values serialize as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key → value list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object values.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// This object with `other`'s fields appended (a non-object on
    /// either side adds nothing).
    pub fn join(mut self, other: Json) -> Json {
        if let (Json::Obj(fields), Json::Obj(more)) = (&mut self, other) {
            fields.extend(more);
        }
        self
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
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
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parses a JSON text (the subset this module emits: no exponents
    /// beyond what `f64::from_str` accepts, `\uXXXX` escapes limited to
    /// the BMP). Enough to read back `BENCH_*.json` baselines for the
    /// perf regression gate — not a general-purpose parser.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value (`Int` or `Num`) as `f64`, else `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, else `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, else `None`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| format!("bad integer `{text}`: {e}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                            out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one whole UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8")?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        // Counter values in this workspace stay far below 2^63.
        Json::Int(n as i64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as i64)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A [`Json::Obj`] literal, each value converted with `Json::from`:
/// `obj! { "api" => "handle", "mops" => 7.5 }`.
#[macro_export]
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::json::Json::obj([$(($key, $crate::json::Json::from($value))),*])
    };
}

/// The schema tag every bench file carries.
pub const BENCH_SCHEMA: &str = "nmbst-bench-v1";

/// Builds one `{bench, config, metrics}` cell.
pub fn cell(bench: &str, config: Json, metrics: Json) -> Json {
    Json::Obj(vec![
        ("bench".to_string(), Json::from(bench)),
        ("config".to_string(), config),
        ("metrics".to_string(), metrics),
    ])
}

/// Writes a complete bench file (`{"schema": ..., "cells": [...]}`,
/// pretty enough to diff: one cell per line) to `path`.
pub fn write_bench_file(path: &Path, cells: &[Json]) -> io::Result<()> {
    let mut body = String::new();
    body.push_str("{\"schema\":\"");
    body.push_str(BENCH_SCHEMA);
    body.push_str("\",\"cells\":[\n");
    for (i, c) in cells.iter().enumerate() {
        body.push_str(&c.render());
        if i + 1 < cells.len() {
            body.push(',');
        }
        body.push('\n');
    }
    body.push_str("]}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Str("a\"b\\c\n".into()).render(), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn renders_structures_in_order() {
        let j = Json::obj([
            ("b", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Int(2), Json::Null])),
        ]);
        assert_eq!(j.render(), "{\"b\":1,\"a\":[2,null]}");
    }

    #[test]
    fn cell_has_stable_shape() {
        let c = cell(
            "x",
            Json::obj([("threads", Json::Int(1))]),
            Json::obj([("ns_per_op", Json::Num(10.0))]),
        );
        assert_eq!(
            c.render(),
            "{\"bench\":\"x\",\"config\":{\"threads\":1},\"metrics\":{\"ns_per_op\":10}}"
        );
    }

    #[test]
    fn parse_round_trips_everything_render_emits() {
        let original = Json::obj([
            ("schema", Json::from(BENCH_SCHEMA)),
            (
                "cells",
                Json::Arr(vec![cell(
                    "t",
                    Json::obj([("workload", Json::from("mixed")), ("threads", Json::Int(4))]),
                    Json::obj([
                        ("mops", Json::Num(7.468)),
                        ("ok", Json::Bool(true)),
                        ("note", Json::from("a\"b\\c\n")),
                        ("nan", Json::Null),
                    ]),
                )]),
            ),
        ]);
        let parsed = Json::parse(&original.render()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn accessors_navigate_parsed_structure() {
        let j = Json::parse(r#"{"cells":[{"bench":"x","metrics":{"mops":1.5}}]}"#).unwrap();
        let cells = j.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells[0].get("bench").and_then(Json::as_str), Some("x"));
        assert_eq!(
            cells[0]
                .get("metrics")
                .and_then(|m| m.get("mops"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
        assert!(j.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_handles_ints_floats_and_negatives() {
        assert_eq!(Json::parse("-3").unwrap(), Json::Int(-3));
        assert_eq!(Json::parse("2.5e2").unwrap(), Json::Num(250.0));
        assert_eq!(
            Json::parse(" [1, 2.0] ").unwrap().as_arr().unwrap().len(),
            2
        );
    }

    #[test]
    fn bench_file_round_trip_shape() {
        let dir = std::env::temp_dir().join("nmbst-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_bench_file(&path, &[cell("a", Json::obj([]), Json::obj([]))]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"schema\":\"nmbst-bench-v1\",\"cells\":["));
        assert!(text.contains("\"bench\":\"a\""));
        assert!(text.trim_end().ends_with("]}"));
        std::fs::remove_file(&path).ok();
    }
}
