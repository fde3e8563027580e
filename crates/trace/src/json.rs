//! Write-only JSON: one [`Json`] value type with compact and pretty
//! rendering, and the [`ToJson`] trait for the types that reach a JSON
//! output (CLI reports, metrics files, the daemon's `STATS` and `json:`
//! query replies).
//!
//! Nothing in the workspace reads JSON back: traces, programs and the
//! catalog journal all have their own formats. Pretty output keeps the
//! layout consumers already know — two-space indent, `"key": value`,
//! `[]`/`{}` for empty containers — and object keys keep their insertion
//! order, so every rendering is deterministic.
//!
//! # Example
//!
//! ```
//! use wmrd_trace::{Json, ToJson};
//!
//! let v = Json::object([("name", "fig1a".json()), ("races", vec![1u32, 2].json())]);
//! assert_eq!(v.render(), r#"{"name":"fig1a","races":[1,2]}"#);
//! assert_eq!(v.pretty(), "{\n  \"name\": \"fig1a\",\n  \"races\": [\n    1,\n    2\n  ]\n}");
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::{
    AccessKind, EventId, Location, MemOp, OpClass, OpId, ProcId, RunMetrics, SyncRole, TraceMeta,
    Value,
};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer (wide enough for every `i64` and `u64`).
    Int(i128),
    /// A float; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys render in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` fields, in order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Appends a field to an object. Other values are left unchanged.
    pub fn push(&mut self, key: &str, value: Json) {
        if let Json::Object(fields) = self {
            fields.push((key.to_string(), value));
        }
    }

    /// Compact rendering: no whitespace at all.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Pretty rendering: one value per line, two-space indent.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Writes the value; `depth` is `None` for compact output, else the
    /// current nesting level.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                write_container(out, depth, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Json::Object(fields) => {
                write_container(out, depth, ['{', '}'], fields.iter().map(|(k, v)| (Some(k), v)));
            }
        }
    }
}

fn write_container<'a>(
    out: &mut String,
    depth: Option<usize>,
    [open, close]: [char; 2],
    items: impl ExactSizeIterator<Item = (Option<&'a String>, &'a Json)>,
) {
    out.push(open);
    if items.len() == 0 {
        out.push(close);
        return;
    }
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", level));
    };
    let inner = depth.map(|d| d + 1);
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(level) = inner {
            newline(out, level);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        value.write(out, inner);
    }
    if let Some(level) = depth {
        newline(out, level);
    }
    out.push(close);
}

/// Writes `s` as a JSON string literal: quotes and backslashes escaped,
/// control characters as `\u00XX`.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Json`] value.
///
/// Implemented explicitly, only for types that reach a JSON output:
/// structs become objects keyed by field name (see [`impl_to_json!`](crate::impl_to_json)),
/// unit enum variants become their name, and identifier newtypes become
/// their number.
pub trait ToJson {
    /// This value as JSON.
    fn json(&self) -> Json;
}

/// Implements [`ToJson`] for a struct as an object of exactly the listed
/// fields, keyed by field name, in the order listed:
/// `impl_to_json!(OpId { proc, seq })`. `impl_to_json!(enum AccessKind)`
/// renders a unit-only enum as its variant name (its `Debug` form).
#[macro_export]
macro_rules! impl_to_json {
    (enum $ty:ty) => {
        impl $crate::ToJson for $ty {
            fn json(&self) -> $crate::Json {
                $crate::Json::Str(format!("{self:?}"))
            }
        }
    };
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn json(&self) -> $crate::Json {
                $crate::Json::object([$((stringify!($field), $crate::ToJson::json(&self.$field))),*])
            }
        }
    };
}

impl ToJson for bool {
    fn json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
    )*};
}

int_json!(u16, u32, u64, usize, i64);

impl ToJson for f64 {
    fn json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for str {
    fn json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn json(&self) -> Json {
        self.as_slice().json()
    }
}

impl<T: ToJson> ToJson for BTreeSet<T> {
    fn json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::json).collect())
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.clone(), v.json())).collect())
    }
}

impl ToJson for ProcId {
    fn json(&self) -> Json {
        self.raw().json()
    }
}

impl ToJson for Location {
    fn json(&self) -> Json {
        self.addr().json()
    }
}

impl ToJson for Value {
    fn json(&self) -> Json {
        self.get().json()
    }
}

crate::impl_to_json!(OpId { proc, seq });

crate::impl_to_json!(EventId { proc, index });

crate::impl_to_json!(enum AccessKind);

crate::impl_to_json!(enum SyncRole);

impl ToJson for OpClass {
    fn json(&self) -> Json {
        match self {
            OpClass::Data => "Data".json(),
            OpClass::Sync(role) => Json::object([("Sync", role.json())]),
        }
    }
}

crate::impl_to_json!(MemOp { id, loc, kind, class, value, observed_write });

crate::impl_to_json!(TraceMeta { program, model, seed });

crate::impl_to_json!(RunMetrics { schema_version, context, counters, gauges, phases_ns });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocSet;

    #[test]
    fn empty_containers_and_scalars() {
        assert_eq!(Json::Array(vec![]).pretty(), "[]");
        assert_eq!(Json::object([]).pretty(), "{}");
        assert_eq!(Json::object([("a", Json::Array(vec![]))]).pretty(), "{\n  \"a\": []\n}");
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(u64::MAX.json().render(), "18446744073709551615");
        assert_eq!(i64::MIN.json().render(), "-9223372036854775808");
        assert_eq!(0.3f64.json().render(), "0.3");
        assert_eq!(1.0f64.json().render(), "1.0");
        assert_eq!(f64::NAN.json().render(), "null");
        assert_eq!(None::<u32>.json().render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!("a\"b\\c\nd\u{1}é".json().render(), r#""a\"b\\c\u000ad\u0001é""#);
    }

    #[test]
    fn nested_pretty_layout() {
        let v = Json::object([
            ("x", Json::object([("y", 1u32.json())])),
            ("z", Json::Array(vec![Json::object([]), true.json()])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"x\": {\n    \"y\": 1\n  },\n  \"z\": [\n    {},\n    true\n  ]\n}"
        );
        assert_eq!(v.render(), r#"{"x":{"y":1},"z":[{},true]}"#);
    }

    #[test]
    fn push_appends_object_fields_only() {
        let mut v = Json::object([("a", 1u32.json())]);
        v.push("b", 2u32.json());
        assert_eq!(v.render(), r#"{"a":1,"b":2}"#);
        let mut n = Json::Null;
        n.push("c", 3u32.json());
        assert_eq!(n, Json::Null);
    }

    #[test]
    fn trace_types_keep_their_shapes() {
        let op = OpId::new(ProcId::new(1), 5);
        assert_eq!(op.json().render(), r#"{"proc":1,"seq":5}"#);
        assert_eq!(OpClass::Sync(SyncRole::Acquire).json().render(), r#"{"Sync":"Acquire"}"#);
        assert_eq!(OpClass::Data.json().render(), r#""Data""#);
        let mut set = LocSet::new();
        set.insert(Location::new(3));
        assert_eq!(set.json().render(), r#"{"words":[8]}"#);
        let meta = TraceMeta { program: Some("p".into()), model: None, seed: Some(3) };
        assert_eq!(meta.json().render(), r#"{"program":"p","model":null,"seed":3}"#);
    }
}
