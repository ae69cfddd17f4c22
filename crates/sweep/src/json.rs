//! The JSON tree behind every file the repo writes, and the one way a type
//! declares its JSON form.
//!
//! [`Json`] keeps object keys in insertion order so emitted files diff
//! cleanly; its parser refuses what it cannot represent (nesting beyond
//! [`MAX_DEPTH`], integer literals beyond 2^53). A type implements
//! [`JsonLayout`], almost always through [`json_layout!`](crate::json_layout):
//! one field list, both directions, as `wire_layout!` declares the binary
//! codec. Decoding errors name the path (`history: ops[3]: kind: unknown "op"
//! tag 'x'`); unknown members are ignored, so newer files still load.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Stored as `f64`; integers up to 2^53 round-trip exactly,
    /// which covers every counter and microsecond timestamp the sweep emits.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned integer value.
    pub fn u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// A float value.
    pub fn f64(n: f64) -> Json {
        Json::Num(n)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the subset this module emits, which is plain
    /// standard JSON). Nesting beyond [`MAX_DEPTH`] and integer literals
    /// beyond 2^53 are errors, not a stack overflow or a rounded number.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

/// A type with one JSON form, both directions: declared with
/// [`json_layout!`](crate::json_layout) unless the form is not a plain layout.
pub trait JsonLayout: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;
    /// Reads a value written by [`JsonLayout::to_json`]. The error names the
    /// path to the offending member.
    fn from_json(json: &Json) -> Result<Self, String>;
    /// Whether a field holding this value is left out of an object under
    /// `omit`: `None` and empty lists are.
    fn is_absent(&self) -> bool {
        false
    }
}

/// The error for a mistyped member: scalars are shown, the rest described
/// (an array may be a whole history).
fn expected(what: &str, json: &Json) -> String {
    let found = match json {
        Json::Null | Json::Bool(_) | Json::Num(_) => json.to_pretty().trim_end().to_string(),
        Json::Str(_) => "a string".to_string(),
        Json::Arr(items) => format!("an array of {}", items.len()),
        Json::Obj(_) => "an object".to_string(),
    };
    format!("expected {what}, found {found}")
}

/// Integers are JSON numbers; a narrow type refuses what does not fit, not cuts it.
macro_rules! integer_layout {
    ($($t:ty),*) => {$(
        impl JsonLayout for $t {
            fn to_json(&self) -> Json {
                Json::u64(*self as u64)
            }
            fn from_json(json: &Json) -> Result<Self, String> {
                let n = json.as_u64().ok_or_else(|| expected("an unsigned integer", json))?;
                n.try_into().map_err(|_| format!("{n} is out of range for {}", stringify!($t)))
            }
        }
    )*};
}

integer_layout!(u64, u32, usize);

impl JsonLayout for String {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
    fn from_json(json: &Json) -> Result<Self, String> {
        json.as_str().map(str::to_string).ok_or_else(|| expected("a string", json))
    }
}

/// `false` is absent under `omit`, so a flag older files lack costs nothing.
impl JsonLayout for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(json: &Json) -> Result<Self, String> {
        json.as_bool().ok_or_else(|| expected("a boolean", json))
    }
    fn is_absent(&self) -> bool {
        !*self
    }
}

impl JsonLayout for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
    fn from_json(json: &Json) -> Result<Self, String> {
        Ok(json.clone())
    }
}

impl<T: JsonLayout> JsonLayout for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(json: &Json) -> Result<Self, String> {
        let items = json.as_arr().ok_or_else(|| expected("an array", json))?;
        items.iter().enumerate().map(|(i, item)| decode_at(item, &format!("[{i}]"))).collect()
    }
    fn is_absent(&self) -> bool {
        self.is_empty()
    }
}

impl<T: JsonLayout> JsonLayout for Box<[T]> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(json: &Json) -> Result<Self, String> {
        Vec::from_json(json).map(Vec::into_boxed_slice)
    }
    fn is_absent(&self) -> bool {
        self.is_empty()
    }
}

impl<T: JsonLayout> JsonLayout for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(json: &Json) -> Result<Self, String> {
        (*json != Json::Null).then(|| T::from_json(json)).transpose()
    }
    fn is_absent(&self) -> bool {
        self.is_none()
    }
}

impl<A: JsonLayout, B: JsonLayout> JsonLayout for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
    fn from_json(json: &Json) -> Result<Self, String> {
        let [a, b] = elements(json, "a pair")?;
        Ok((decode_at(a, "[0]")?, decode_at(b, "[1]")?))
    }
}

/// Decodes `json`, prefixing an error with where `json` sits, so nested
/// errors read as a path: `ops[3]: kind: …`.
pub fn decode_at<T: JsonLayout>(json: &Json, at: &str) -> Result<T, String> {
    T::from_json(json).map_err(|e| format!("{at}{}{e}", if e.starts_with('[') { "" } else { ": " }))
}

/// The object member `name`, decoded; missing is an error.
pub fn field<T: JsonLayout>(json: &Json, name: &str) -> Result<T, String> {
    let Json::Obj(_) = json else { return Err(expected("an object", json)) };
    decode_at(json.get(name).ok_or_else(|| format!("missing field '{name}'"))?, name)
}

/// The object member `name` of an `omit` field, decoded; missing is absent.
pub fn omitted_field<T: JsonLayout + Default>(json: &Json, name: &str) -> Result<T, String> {
    json.get(name).map_or(Ok(T::default()), |value| decode_at(value, name))
}

/// The `N` elements of an array of exactly `N`, described as `what`.
pub fn elements<'a, const N: usize>(json: &'a Json, what: &str) -> Result<&'a [Json; N], String> {
    json.as_arr().and_then(|items| items.try_into().ok()).ok_or_else(|| expected(what, json))
}

/// Declares a type's JSON form and implements [`JsonLayout`] for it, both
/// directions from one list; decoding infers field types, and a field left
/// out of the list fails to compile. The five forms, as the repo uses them:
///
/// ```text
/// struct Key(_); struct OpId(_)                           // 7
/// struct MessageEdge [from, sent_at, to, received_at]     // [1, 2, 3, 4]
/// struct HuntInput as "kind": "hunt-input" { seed, … }    // {"kind": "hunt-input", "seed": 1, …}
/// struct OpRow { process, …; omit response, result }      // `omit`: left out when absent
/// enum OpKind on "op" { "deq" => Deq { queue as "key" } } // {"op": "deq", "key": 3}
/// enum OpResult on "r" { "value" => Value(v), … }         // {"r": "value", "v": 9}
/// enum WitnessModel by model_name { RealTime, … }         // "real-time"
/// ```
///
/// Members are written in the order listed: the list is the format. A field
/// older files lack goes in the `omit` tail, which keeps files written
/// without it byte-identical.
#[macro_export]
macro_rules! json_layout {
    (struct $name:ident $(as $k:literal : $v:literal)? {
        $($f:ident),* $(; omit $($o:ident),*)?
    }) => {
        impl $crate::json::JsonLayout for $name {
            fn to_json(&self) -> $crate::Json {
                let pairs = [
                    $(Some(($k, $crate::Json::str($v))),)?
                    $(Some((stringify!($f), $crate::json::JsonLayout::to_json(&self.$f))),)*
                    $($((!$crate::json::JsonLayout::is_absent(&self.$o))
                        .then(|| (stringify!($o), $crate::json::JsonLayout::to_json(&self.$o))),)*)?
                ];
                $crate::Json::obj(pairs.into_iter().flatten().collect())
            }
            fn from_json(json: &$crate::Json) -> Result<Self, String> {
                $(let kind: String = $crate::json::field(json, $k)?;
                if kind != $v {
                    return Err(format!("{}: expected '{}', found '{kind}'", $k, $v));
                })?
                Ok(Self {
                    $($f: $crate::json::field(json, stringify!($f))?,)*
                    $($($o: $crate::json::omitted_field(json, stringify!($o))?,)*)?
                })
            }
        }
    };
    (struct $name:ident [$($f:ident),*]) => {
        impl $crate::json::JsonLayout for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Arr(vec![$($crate::json::JsonLayout::to_json(&self.$f)),*])
            }
            fn from_json(json: &$crate::Json) -> Result<Self, String> {
                let [$($f),*] = $crate::json::elements(json, concat!("[", stringify!($($f),*), "]"))?;
                Ok(Self { $($f: $crate::json::decode_at($f, stringify!($f))?),* })
            }
        }
    };
    ($(struct $name:ident(_));+ $(;)?) => {$(
        impl $crate::json::JsonLayout for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::json::JsonLayout::to_json(&self.0)
            }
            fn from_json(json: &$crate::Json) -> Result<Self, String> {
                $crate::json::JsonLayout::from_json(json).map(Self)
            }
        }
    )+};
    (enum $name:ident on $tag:literal {
        $($vtag:literal => $v:ident $({ $($f:ident $(as $fk:literal)?),* })? $(($t:ident))?),* $(,)?
    }) => {
        impl $crate::json::JsonLayout for $name {
            fn to_json(&self) -> $crate::Json {
                match self {$(
                    Self::$v $({ $($f),* })? $(($t))? => $crate::Json::obj(vec![
                        ($tag, $crate::Json::str($vtag)),
                        $($(($crate::json_layout!(@key $f $($fk)?),
                            $crate::json::JsonLayout::to_json($f)),)*)?
                        $((stringify!($t), $crate::json::JsonLayout::to_json($t)),)?
                    ]),
                )*}
            }
            fn from_json(json: &$crate::Json) -> Result<Self, String> {
                let tag: String = $crate::json::field(json, $tag)?;
                Ok(match tag.as_str() {
                    $($vtag => Self::$v
                        $({ $($f: $crate::json::field(json, $crate::json_layout!(@key $f $($fk)?))?),* })?
                        $(($crate::json::field(json, stringify!($t))?))?,)*
                    other => return Err(format!("unknown \"{}\" tag '{other}'", $tag)),
                })
            }
        }
    };
    (enum $name:ident by $names:ident { $($v:ident),* $(,)? }) => {
        impl $crate::json::JsonLayout for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::str($names(*self))
            }
            fn from_json(json: &$crate::Json) -> Result<Self, String> {
                let name: String = $crate::json::JsonLayout::from_json(json)?;
                [$(Self::$v),*].into_iter().find(|v| $names(*v) == name).ok_or_else(|| {
                    format!("unknown {} '{name}'", stringify!($name))
                })
            }
        }
    };
    // A member's key: its field name, or the name after `as`.
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $k:literal) => { $k };
}

fn write_num(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts: it
/// recurses once per level, so outside input must not choose the depth. The
/// repo writes about seven (artifact → history → ops → op → kind → writes → pair).
pub const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth == 0 {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth - 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number bytes");
            let digits = text.strip_prefix('-').unwrap_or(text);
            let integer = !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit());
            // Beyond 2^53 an f64 no longer holds every integer exactly.
            if integer && digits.parse().map_or(true, |n: u64| n > 1 << 53) {
                return Err(format!("integer {text} at byte {start} is beyond 2^53"));
            }
            text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number at {start}: {e}"))
        }
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut s = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?} at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass through
                // unchanged).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                s.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::obj(vec![
            ("name", Json::str("sweep")),
            ("count", Json::u64(32)),
            ("ratio", Json::f64(0.25)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("tags", Json::Arr(vec![Json::str("a\"b"), Json::str("line\nbreak")])),
            ("nested", Json::obj(vec![("inner", Json::Arr(vec![Json::u64(1), Json::u64(2)]))])),
        ]);
        let text = doc.to_pretty();
        let parsed = Json::parse(&text).expect("emitted JSON parses");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(32));
        assert_eq!(parsed.get("ratio").and_then(Json::as_f64), Some(0.25));
        assert_eq!(parsed.get("tags").and_then(Json::as_arr).map(|a| a.len()), Some(2));
    }

    #[test]
    fn parses_foreign_formatting() {
        let parsed = Json::parse("  {\"a\":[1,2.5,-3,1e2],\"b\":{\"c\":null}} ").unwrap();
        let a = parsed.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[3].as_f64(), Some(100.0));
        assert_eq!(parsed.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn large_integers_round_trip_exactly() {
        // Microsecond timestamps: well under 2^53.
        let doc = Json::u64(4_102_444_800_000_000);
        let text = doc.to_pretty();
        assert_eq!(text.trim(), "4102444800000000");
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(4_102_444_800_000_000));
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        // 100 000 `[` (a 100 KB file) used to abort the process.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok(), "a {MAX_DEPTH}-deep document parses");
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = |depth: usize| format!("{}1{}", "{\"a\": ".repeat(depth), "}".repeat(depth));
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err(), "objects count toward the cap");
    }

    #[test]
    fn integers_beyond_2_pow_53_are_refused_not_rounded() {
        // An f64 would read this as 9007199254740992.
        let err = Json::parse("9007199254740993").unwrap_err();
        assert!(err.contains("beyond 2^53"), "{err}");
        assert!(Json::parse("-9007199254740993").is_err());
        assert!(Json::parse("[1, 123456789012345678901234567890]").is_err());
        assert_eq!(Json::parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        // Fractions and exponents are floats, rounded by definition.
        assert_eq!(Json::parse("1e17").unwrap().as_f64(), Some(1e17));
    }

    #[derive(Debug, PartialEq)]
    struct Id(u32);
    #[derive(Debug, PartialEq)]
    struct Span {
        from: u64,
        to: usize,
    }
    #[derive(Debug, PartialEq)]
    struct Doc {
        name: String,
        ids: Vec<Id>,
        span: Span,
        pairs: Vec<(u64, u64)>,
        note: Option<String>,
        tail: Vec<Id>,
    }
    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Tagged { id: Id, what: u64 },
        Wrapped(Id),
    }
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Fast,
        Safe,
    }
    fn mode_name(mode: Mode) -> &'static str {
        match mode {
            Mode::Fast => "fast",
            Mode::Safe => "safe",
        }
    }

    crate::json_layout! { struct Id(_) }
    crate::json_layout! { struct Span [from, to] }
    crate::json_layout! { struct Doc as "kind": "doc" { name, ids, span, pairs; omit note, tail } }
    crate::json_layout! {
        enum Shape on "s" { "dot" => Dot, "tagged" => Tagged { id as "i", what }, "wrapped" => Wrapped(id) }
    }
    crate::json_layout! { enum Mode by mode_name { Fast, Safe } }

    /// `value` writes exactly `text` and reads back from it.
    fn round_trip<T: JsonLayout + PartialEq + std::fmt::Debug>(value: T, text: &str) {
        let json = Json::parse(text).unwrap();
        assert_eq!(value.to_json(), json, "{value:?} writes {text}");
        assert_eq!(T::from_json(&json), Ok(value), "{text} reads back");
    }

    fn doc(note: Option<&str>, tail: Vec<Id>) -> Doc {
        let span = Span { from: 1, to: 2 };
        let (name, ids, pairs) = ("d".to_string(), vec![Id(7), Id(8)], vec![(3, 4)]);
        Doc { name, ids, span, pairs, note: note.map(str::to_string), tail }
    }

    #[test]
    fn every_layout_form_round_trips() {
        round_trip(Id(7), "7");
        round_trip(Span { from: 1, to: 2 }, "[1, 2]");
        let plain =
            r#"{"kind": "doc", "name": "d", "ids": [7, 8], "span": [1, 2], "pairs": [[3, 4]]}"#;
        round_trip(doc(None, vec![]), plain);
        let full = plain.replace('}', r#", "note": "n", "tail": [9]}"#);
        round_trip(doc(Some("n"), vec![Id(9)]), &full);
        round_trip(Shape::Dot, r#"{"s": "dot"}"#);
        round_trip(Shape::Tagged { id: Id(3), what: 4 }, r#"{"s": "tagged", "i": 3, "what": 4}"#);
        round_trip(Shape::Wrapped(Id(5)), r#"{"s": "wrapped", "id": 5}"#);
        round_trip(Mode::Fast, r#""fast""#);
        round_trip(Mode::Safe, r#""safe""#);
    }

    #[test]
    fn hostile_input_is_an_error_naming_the_field_or_tag() {
        fn err<T: JsonLayout + std::fmt::Debug>(text: &str) -> String {
            T::from_json(&Json::parse(text).unwrap()).unwrap_err()
        }
        let plain =
            r#"{"kind": "doc", "name": "d", "ids": [7, 8], "span": [1, 2], "pairs": [[3, 4]]}"#;
        let edit = |from: &str, to: &str| {
            assert!(plain.contains(from), "{from}");
            err::<Doc>(&plain.replace(from, to))
        };
        assert_eq!(edit(r#""name": "d", "#, ""), "missing field 'name'");
        assert_eq!(edit(r#""name": "d""#, r#""name": 3"#), "name: expected a string, found 3");
        assert_eq!(
            edit("[7, 8]", r#"[7, "x"]"#),
            "ids[1]: expected an unsigned integer, found a string"
        );
        assert_eq!(edit("[7, 8]", "[7, 4294967297]"), "ids[1]: 4294967297 is out of range for u32");
        assert_eq!(edit("[7, 8]", "[7, -1]"), "ids[1]: expected an unsigned integer, found -1");
        assert_eq!(edit("[1, 2]", "[1]"), "span: expected [from, to], found an array of 1");
        assert_eq!(edit("[[3, 4]]", "[[3]]"), "pairs[0]: expected a pair, found an array of 1");
        assert_eq!(
            edit("[[3, 4]]", "[[3, null]]"),
            "pairs[0][1]: expected an unsigned integer, found null"
        );
        assert_eq!(edit(r#""doc""#, r#""dot""#), "kind: expected 'doc', found 'dot'");
        assert_eq!(edit(r#""kind": "doc", "#, ""), "missing field 'kind'");
        assert_eq!(edit("}", r#", "note": false}"#), "note: expected a string, found false");
        assert_eq!(err::<Doc>("[]"), "expected an object, found an array of 0");
        assert_eq!(err::<Shape>(r#"{"s": "cube"}"#), r#"unknown "s" tag 'cube'"#);
        assert_eq!(err::<Shape>(r#"{"shape": "dot"}"#), "missing field 's'");
        assert_eq!(err::<Shape>(r#"{"s": "tagged", "id": 3, "what": 4}"#), "missing field 'i'");
        assert_eq!(
            err::<Shape>(r#"{"s": "wrapped", "id": {}}"#),
            "id: expected an unsigned integer, found an object"
        );
        assert_eq!(err::<Mode>(r#""slow""#), "unknown Mode 'slow'");
        assert_eq!(err::<Mode>("0"), "expected a string, found 0");
    }

    #[test]
    fn unknown_members_are_ignored() {
        let newer = r#"{"kind": "doc", "name": "d", "added": {"x": [1]}, "ids": [7, 8], "span": [1, 2], "pairs": [[3, 4]]}"#;
        assert_eq!(Doc::from_json(&Json::parse(newer).unwrap()), Ok(doc(None, vec![])));
        let shape = r#"{"s": "tagged", "i": 3, "what": 4, "why": "later"}"#;
        assert_eq!(
            Shape::from_json(&Json::parse(shape).unwrap()),
            Ok(Shape::Tagged { id: Id(3), what: 4 })
        );
    }
}
