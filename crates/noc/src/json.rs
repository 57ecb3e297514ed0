//! The tree's one JSON codec: a value type, a depth-bounded parser, a
//! writer, and a field walk that states each key of a format once.
//!
//! # One walk per format
//!
//! A format that is both written and read is a [`Fields`] walk that
//! visits every member in order, naming each key once. Two [`Codec`]s
//! drive the same walk, as the snapshot codec's `Persist` walks are
//! driven (see [`crate::snapshot`]): [`encode`] appends each member
//! straight to a `String`, and [`decode`] parses the text into a [`Json`]
//! tree and overwrites each field from it. Decoding is strict: a missing
//! or unexpected member, a repeated key, a value of the wrong type and
//! an integer its field cannot hold all fail as [`JsonError::Field`],
//! which names the field.
//!
//! Write-only reports build a [`Json`] tree and print it instead.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Arrays and objects nest at most this deep. The deepest document the
/// tree writes nests three levels; the bound keeps hostile input from
/// overflowing the parser's stack.
pub const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent: exact over the whole `i64`
    /// and `u64` ranges.
    Int(i128),
    /// A number with a fraction or an exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The first member named `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Any number, as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::Float(x) => Some(x),
            _ => None,
        }
    }

    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.syntax("trailing bytes"));
        }
        Ok(v)
    }

    /// Append the compact form: no whitespace, integers and integral
    /// floats below 2^53 without a fraction, other floats as Rust prints
    /// them.
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) if x.fract() == 0.0 && x.abs() < (1u64 << 53) as f64 => {
                let _ = write!(out, "{}", *x as i64);
            }
            Json::Float(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The compact form (see [`Json::write`]).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Append `s` as a JSON string literal.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    // Copy each run that needs no escape in one go.
    while let Some(i) = rest.find(|c: char| c == '"' || c == '\\' || c < ' ') {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Why a document could not be parsed or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The text is not JSON.
    Syntax {
        /// Byte offset of the fault.
        offset: usize,
        /// What was wrong there.
        what: String,
    },
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the bracket that went too deep.
        offset: usize,
    },
    /// A member is missing, unexpected or repeated, or its value has the
    /// wrong type or does not fit its field.
    Field {
        /// The member, as `key`, `key.inner` or `key[index].inner`.
        path: String,
        /// What is wrong with it.
        what: String,
    },
}

impl JsonError {
    /// A fault in the member named by `path`.
    pub fn field(path: impl Into<String>, what: impl Into<String>) -> JsonError {
        JsonError::Field {
            path: path.into(),
            what: what.into(),
        }
    }

    /// A fault in a value whose member is named by the caller.
    fn value(what: impl Into<String>) -> JsonError {
        JsonError::field("", what)
    }

    /// Prefix the path with `step`: a key, or an `[index]`.
    fn under(self, step: &str) -> JsonError {
        match self {
            JsonError::Field { path, what } if path.is_empty() || path.starts_with('[') => {
                JsonError::field(format!("{step}{path}"), what)
            }
            JsonError::Field { path, what } => JsonError::field(format!("{step}.{path}"), what),
            other => other,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, what } => write!(f, "{what} at offset {offset}"),
            JsonError::TooDeep { offset } => {
                write!(
                    f,
                    "nesting deeper than {MAX_DEPTH} levels at offset {offset}"
                )
            }
            JsonError::Field { path, what } => write!(f, "field '{path}': {what}"),
        }
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn syntax(&self, what: impl Into<String>) -> JsonError {
        JsonError::Syntax {
            offset: self.pos,
            what: what.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(|p| p.items(b']', Self::value).map(Json::Arr)),
            Some(b'{') => self.nested(|p| p.items(b'}', Self::member).map(Json::Obj)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.syntax(format!("unexpected {:?}", b as char))),
            None => Err(self.syntax("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.syntax(format!("expected '{word}'")))
        }
    }

    /// One array or object, one level deeper.
    fn nested(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::TooDeep { offset: self.pos });
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self);
            float = true;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
            float = true;
        }
        let text = &self.text[start..self.pos];
        let v = if float {
            text.parse().map(Json::Float).ok()
        } else {
            text.parse().map(Json::Int).ok()
        };
        v.ok_or(JsonError::Syntax {
            offset: start,
            what: format!("bad number {text:?}"),
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go; both
            // are ASCII, so the run ends on a character boundary.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.syntax("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.syntax("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or('\u{FFFD}')
                        }
                        _ => return Err(self.syntax("bad escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    /// The comma-separated items after an opening bracket, up to `close`.
    fn items<T>(
        &mut self,
        close: u8,
        item: impl Fn(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.syntax(format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn member(&mut self) -> Result<(String, Json), JsonError> {
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        self.skip_ws();
        Ok((key, self.value()?))
    }
}

// ---------------------------------------------------------------------
// The codec: one walk per format, driven by a writer or a reader
// ---------------------------------------------------------------------

/// A JSON object stated once: a walk that names each member, in the
/// order written, through a [`Codec`].
pub trait Fields {
    /// Append every member to a writer, or overwrite every field from a
    /// reader. Only reading can fail.
    fn fields<C: Codec>(&mut self, c: &mut C) -> Result<(), JsonError>;
}

/// The direction a [`Fields`] walk runs in.
pub trait Codec {
    /// `true` when decoding: decode checks run only then.
    const READING: bool;

    /// A member that must be present.
    fn field<T: Value>(&mut self, key: &'static str, value: &mut T) -> Result<(), JsonError>;

    /// A member that may be absent; decoding then leaves `value` as it
    /// was. Encoding always writes it.
    fn optional<T: Value>(&mut self, key: &'static str, value: &mut T) -> Result<(), JsonError> {
        self.field(key, value)
    }
}

/// A member's value: written straight to the output, read from a parsed
/// [`Json`].
pub trait Value: Sized {
    /// Append the value.
    fn write(&mut self, out: &mut String);
    /// Read the value; a fault names no path, the caller adds it.
    fn read(v: &Json) -> Result<Self, JsonError>;
}

/// Append `value` as one compact object.
pub fn encode<T: Fields>(value: &mut T, out: &mut String) {
    out.push('{');
    // A walk only fails on decode checks, which run under `READING`.
    value
        .fields(&mut Writer { out, first: true })
        .expect("encoding cannot fail");
    out.push('}');
}

/// `value` as one compact object.
pub fn to_string<T: Fields>(value: &mut T) -> String {
    let mut out = String::new();
    encode(value, &mut out);
    out
}

/// Parse `text` as one object of the format `T`.
pub fn decode<T: Fields + Blank>(text: &str) -> Result<T, JsonError> {
    T::read(&Json::parse(text)?)
}

struct Writer<'a> {
    out: &'a mut String,
    first: bool,
}

impl Codec for Writer<'_> {
    const READING: bool = false;

    fn field<T: Value>(&mut self, key: &'static str, value: &mut T) -> Result<(), JsonError> {
        self.out.push_str(if self.first { "\"" } else { ",\"" });
        self.first = false;
        self.out.push_str(key);
        self.out.push_str("\":");
        value.write(self.out);
        Ok(())
    }
}

struct Reader<'a> {
    members: &'a [(String, Json)],
    /// Every key the walk asked for, present or not.
    asked: Vec<&'static str>,
    /// Members the walk found; fewer than `members.len()` means one it
    /// does not know, or a repeated key.
    found: usize,
}

impl Reader<'_> {
    fn member<T: Value>(&mut self, key: &'static str) -> Option<Result<T, JsonError>> {
        self.asked.push(key);
        let (_, v) = self.members.iter().find(|(k, _)| k == key)?;
        self.found += 1;
        Some(T::read(v).map_err(|e| e.under(key)))
    }

    /// The first member the finished walk did not consume: one whose key
    /// it never asked for, or a repeat.
    fn stray(&self) -> JsonError {
        for (i, (key, _)) in self.members.iter().enumerate() {
            if !self.asked.contains(&key.as_str()) {
                return JsonError::field(key.as_str(), "unexpected member");
            }
            if self.members[..i].iter().any(|(seen, _)| seen == key) {
                return JsonError::field(key.as_str(), "repeated member");
            }
        }
        JsonError::value("unexpected member")
    }
}

impl Codec for Reader<'_> {
    const READING: bool = true;

    fn field<T: Value>(&mut self, key: &'static str, value: &mut T) -> Result<(), JsonError> {
        *value = self
            .member(key)
            .unwrap_or_else(|| Err(JsonError::field(key, "missing")))?;
        Ok(())
    }

    fn optional<T: Value>(&mut self, key: &'static str, value: &mut T) -> Result<(), JsonError> {
        if let Some(v) = self.member(key) {
            *value = v?;
        }
        Ok(())
    }
}

/// The placeholder a decode starts from; the walk then overwrites every
/// field. Any `Default` type is one. An enum with no natural default (a
/// tagged enum, for which `json_tagged!` generates this, or a label)
/// implements it instead of `Default`, so that no arbitrary variant
/// becomes its public default.
pub trait Blank {
    /// The placeholder.
    fn blank() -> Self;
}

impl<T: Default> Blank for T {
    fn blank() -> Self {
        T::default()
    }
}

/// An object: a blank `T` overwritten by its walk.
impl<T: Fields + Blank> Value for T {
    fn write(&mut self, out: &mut String) {
        encode(self, out);
    }

    fn read(v: &Json) -> Result<Self, JsonError> {
        let Json::Obj(members) = v else {
            return Err(JsonError::value("expected an object"));
        };
        let mut reader = Reader {
            members,
            asked: Vec::new(),
            found: 0,
        };
        let mut value = T::blank();
        value.fields(&mut reader)?;
        if reader.found != members.len() {
            return Err(reader.stray());
        }
        Ok(value)
    }
}

/// `null`, or the value.
impl<T: Value> Value for Option<T> {
    fn write(&mut self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            v => T::read(v).map(Some),
        }
    }
}

impl<T: Value> Value for Vec<T> {
    fn write(&mut self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter_mut().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }

    fn read(v: &Json) -> Result<Self, JsonError> {
        let Json::Arr(items) = v else {
            return Err(JsonError::value("expected an array"));
        };
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::read(item).map_err(|e| e.under(&format!("[{i}]"))))
            .collect()
    }
}

impl Value for bool {
    fn write(&mut self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::value("expected a bool")),
        }
    }
}

/// A string: borrowed when written, owned when read.
impl Value for Cow<'static, str> {
    fn write(&mut self, out: &mut String) {
        write_str(out, self);
    }

    fn read(v: &Json) -> Result<Self, JsonError> {
        str_of(v).map(|s| Cow::Owned(s.to_string()))
    }
}

/// The text of a string value.
pub(crate) fn str_of(v: &Json) -> Result<&str, JsonError> {
    match v {
        Json::Str(s) => Ok(s),
        _ => Err(JsonError::value("expected a string")),
    }
}

/// A string that names no value of its type.
pub(crate) fn unknown_label(label: &str) -> JsonError {
    JsonError::value(format!("unknown value {label:?}"))
}

/// Integers read through a checked conversion: a value the field cannot
/// hold is an error, never a wrapped or truncated number.
macro_rules! int_value {
    ($($t:ty),+) => {$(
        impl Value for $t {
            fn write(&mut self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Int(n) => <$t>::try_from(*n).map_err(|_| {
                        JsonError::value(format!(
                            concat!("{} does not fit in ", stringify!($t)),
                            n
                        ))
                    }),
                    _ => Err(JsonError::value("expected an integer")),
                }
            }
        }
    )+};
}

int_value!(u8, u16, u32, u64);

macro_rules! newtype_value {
    ($($t:ident),+) => {$(
        impl Value for noc_types::$t {
            fn write(&mut self, out: &mut String) {
                self.0.write(out);
            }

            fn read(v: &Json) -> Result<Self, JsonError> {
                Value::read(v).map(noc_types::$t)
            }
        }
    )+};
}

newtype_value!(FlitId, PacketId, LinkId, NodeId);

/// A fieldless enum written as one of its labels; each label is stated
/// once, for both directions.
macro_rules! json_labels {
    ($ty:ty { $($var:path => $label:literal),+ $(,)? }) => {
        impl $crate::json::Value for $ty {
            fn write(&mut self, out: &mut String) {
                $crate::json::write_str(out, match self { $($var => $label),+ });
            }

            fn read(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match $crate::json::str_of(v)? {
                    $($label => Ok($var),)+
                    other => Err($crate::json::unknown_label(other)),
                }
            }
        }
    };
}

/// Which JSON key a field is written under: its name, unless renamed.
macro_rules! json_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// An enum written as an object tagged by `$tag`: the tag's value names
/// the variant, and the variant's fields follow in the order listed,
/// each under its own name or under the key given with `as`. One table
/// gives `label()`, the [`Fields`] walk and the [`Blank`] placeholder a
/// decode starts from (the first variant, with blank fields).
macro_rules! json_tagged {
    ($ty:ident $tag:literal {
        $label0:literal => $var0:ident $({ $($f0:ident $(as $k0:literal)?),+ })?
        $(, $label:literal => $var:ident $({ $($f:ident $(as $k:literal)?),+ })?)* $(,)?
    }) => {
        impl $ty {
            /// Stable machine-readable name: the value of the
            #[doc = concat!("`", $tag, "`")]
            /// member.
            pub fn label(&self) -> &'static str {
                match self {
                    $ty::$var0 { .. } => $label0,
                    $($ty::$var { .. } => $label,)*
                }
            }
        }

        impl $crate::json::Blank for $ty {
            fn blank() -> Self {
                $ty::$var0 $({ $($f0: $crate::json::Blank::blank()),+ })?
            }
        }

        impl $crate::json::Fields for $ty {
            fn fields<C: $crate::json::Codec>(
                &mut self,
                c: &mut C,
            ) -> Result<(), $crate::json::JsonError> {
                let mut tag = std::borrow::Cow::Borrowed(self.label());
                c.field($tag, &mut tag)?;
                if C::READING {
                    *self = match &*tag {
                        $label0 => $ty::$var0 $({ $($f0: $crate::json::Blank::blank()),+ })?,
                        $($label => $ty::$var $({ $($f: $crate::json::Blank::blank()),+ })?,)*
                        other => {
                            return Err($crate::json::JsonError::field(
                                $tag,
                                format!("unknown value {other:?}"),
                            ))
                        }
                    };
                }
                match self {
                    $ty::$var0 $({ $($f0),+ })? => {
                        $($(c.field($crate::json::json_key!($f0 $($k0)?), $f0)?;)+)?
                    }
                    $($ty::$var $({ $($f),+ })? => {
                        $($(c.field($crate::json::json_key!($f $($k)?), $f)?;)+)?
                    })*
                }
                Ok(())
            }
        }
    };
}

pub(crate) use {json_key, json_labels, json_tagged};

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Point {
        x: u8,
        label: Option<Cow<'static, str>>,
        tags: Vec<u64>,
    }

    impl Fields for Point {
        fn fields<C: Codec>(&mut self, c: &mut C) -> Result<(), JsonError> {
            c.field("x", &mut self.x)?;
            c.optional("label", &mut self.label)?;
            c.field("tags", &mut self.tags)
        }
    }

    #[test]
    fn values_print_compactly_and_parse_back() {
        let v = Json::obj(vec![
            ("a", Json::Int(-42)),
            (
                "b",
                Json::Arr(vec![
                    Json::Bool(true),
                    Json::Null,
                    Json::Arr(vec![Json::Int(1), Json::Int(2)]),
                ]),
            ),
            ("c", Json::Str("he \"quoted\"\\ \n\r\t\u{1}".into())),
            ("u", Json::Int(u64::MAX.into())),
            ("f", Json::Float(1.5)),
        ]);
        let text = v.to_string();
        assert_eq!(
            text,
            r#"{"a":-42,"b":[true,null,[1,2]],"c":"he \"quoted\"\\ \n\r\t\u0001","u":18446744073709551615,"f":1.5}"#
        );
        assert_eq!(Json::parse(&text), Ok(v));
        // An integral float prints without a fraction, so it reads back
        // as an integer.
        assert_eq!(Json::Float(3.0).to_string(), "3");
        assert_eq!(Json::parse("3"), Ok(Json::Int(3)));
        let spaced = Json::parse(" { \"k\" : [ 1 , 2.5e1 ] , \"s\" : \"π\\u0041\\/\" } ").unwrap();
        assert_eq!(
            spaced,
            Json::obj(vec![
                ("k", Json::Arr(vec![Json::Int(1), Json::Float(25.0)])),
                ("s", Json::Str("πA/".into())),
            ])
        );
    }

    #[test]
    fn malformed_or_too_deep_text_is_a_typed_error() {
        for bad in [
            "", "1 x", "{\"a\":}", "[1,", "\"open", "-", "1e", "{1:2}", "tru", "\"\\q\"",
        ] {
            assert!(
                matches!(Json::parse(bad), Err(JsonError::Syntax { .. })),
                "{bad:?}"
            );
        }
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert_eq!(
            Json::parse(&deep),
            Err(JsonError::TooDeep { offset: MAX_DEPTH })
        );
    }

    #[test]
    fn one_walk_encodes_and_decodes() {
        let mut p = Point {
            x: 7,
            label: Some("a\"b".into()),
            tags: vec![0, u64::MAX],
        };
        let text = to_string(&mut p);
        assert_eq!(
            text,
            r#"{"x":7,"label":"a\"b","tags":[0,18446744073709551615]}"#
        );
        assert_eq!(decode::<Point>(&text), Ok(p));
        let bare: Point = decode(r#"{"x":1,"tags":[]}"#).unwrap();
        assert_eq!(bare.label, None, "an optional member may be absent");
    }

    #[test]
    fn decoding_names_the_field_at_fault() {
        for (text, path, what) in [
            (r#"{"tags":[]}"#, "x", "missing"),
            (r#"{"x":256,"tags":[]}"#, "x", "256 does not fit in u8"),
            (r#"{"x":-1,"tags":[]}"#, "x", "-1 does not fit in u8"),
            (r#"{"x":1.0,"tags":[]}"#, "x", "expected an integer"),
            (
                r#"{"x":1,"tags":[1,-2]}"#,
                "tags[1]",
                "-2 does not fit in u64",
            ),
            (r#"{"x":1,"tags":{}}"#, "tags", "expected an array"),
            (r#"{"x":1,"tags":[],"y":2}"#, "y", "unexpected member"),
            (r#"{"x":1,"tags":[],"x":2}"#, "x", "repeated member"),
            (
                r#"{"x":1,"label":5,"tags":[]}"#,
                "label",
                "expected a string",
            ),
            ("[]", "", "expected an object"),
        ] {
            assert_eq!(
                decode::<Point>(text),
                Err(JsonError::field(path, what)),
                "{text}"
            );
        }
    }
}
