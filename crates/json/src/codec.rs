//! Typed encode and decode on top of the reader and the emit helpers.
//!
//! Encoding streams straight into the caller's `String`; decoding reads a
//! parsed [`JsonValue`]. Shapes: a record is an object keyed by field
//! name in declaration order, a unit enum is its variant name, a newtype
//! is its inner value, `Option` is the value or `null`, sequences and
//! tuples are arrays, and a map is an array of `[key, value]` pairs in
//! key order (so keys may be records themselves).

use crate::{parse, push_f64, push_str, push_u64, JsonValue};
use std::collections::BTreeMap;

/// A value that can append its JSON form to a `String`.
pub trait ToJson {
    /// Append the JSON form of `self` to `out`.
    fn write_json(&self, out: &mut String);

    /// The JSON form of `self` as a fresh `String`.
    fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// A value that can be rebuilt from parsed JSON. Errors are short
/// messages naming the offending field (`cloud: vm_count: expected an
/// unsigned integer`).
pub trait FromJson: Sized {
    /// Rebuild a value from its parsed JSON form.
    fn from_json(value: &JsonValue) -> Result<Self, String>;
}

/// Parse `text` and decode it as a `T`.
pub fn decode<T: FromJson>(text: &str) -> Result<T, String> {
    T::from_json(&parse(text).map_err(|e| e.to_string())?)
}

/// Decode the member `key` of an object; a missing key is an error.
pub fn required<T: FromJson>(object: &JsonValue, key: &str) -> Result<T, String> {
    let member = object
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?;
    T::from_json(member).map_err(|e| format!("{key}: {e}"))
}

/// Writes one JSON object member by member.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Open an object.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Append one member. `key` is written verbatim and must need no
    /// escaping (field names are identifiers).
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        debug_assert!(!key.contains(['"', '\\']), "key `{key}` needs escaping");
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        value.write_json(self.out);
    }

    /// Close the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// Append an enum variant that carries data, as `{"Variant":payload}`.
/// Variants without data are plain strings (see [`json_codec!`]).
pub fn write_variant<T: ToJson + ?Sized>(out: &mut String, variant: &str, payload: &T) {
    let mut object = ObjectWriter::new(out);
    object.field(variant, payload);
    object.end();
}

/// Split an encoded enum into variant name and payload: `"Name"` yields
/// `null` for the payload, `{"Name":payload}` yields the payload.
pub fn variant(value: &JsonValue) -> Result<(&str, &JsonValue), String> {
    match value {
        JsonValue::Str(name) => Ok((name, &JsonValue::Null)),
        JsonValue::Obj(pairs) if pairs.len() == 1 => Ok((&pairs[0].0, &pairs[0].1)),
        _ => Err("expected a variant name or a single-key object".into()),
    }
}

fn write_seq<T: ToJson>(items: impl IntoIterator<Item = T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

fn elements(value: &JsonValue, len: Option<usize>) -> Result<&[JsonValue], String> {
    match value.as_arr() {
        Some(items) if len.is_none_or(|n| n == items.len()) => Ok(items),
        Some(items) => Err(format!(
            "expected {} elements, found {}",
            len.unwrap_or(0),
            items.len()
        )),
        None => Err("expected an array".into()),
    }
}

fn decode_seq<T: FromJson>(value: &JsonValue, len: Option<usize>) -> Result<Vec<T>, String> {
    elements(value, len)?
        .iter()
        .enumerate()
        .map(|(i, item)| T::from_json(item).map_err(|e| format!("[{i}]: {e}")))
        .collect()
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                push_u64(out, *self as u64);
            }
        }
        impl FromJson for $t {
            fn from_json(value: &JsonValue) -> Result<Self, String> {
                value
                    .as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| concat!("expected an unsigned integer (", stringify!($t), ")").into())
            }
        }
    )*};
}

unsigned!(u32, u64, usize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        push_f64(out, *self);
    }
}

impl FromJson for f64 {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        value.as_f64().ok_or_else(|| "expected a number".into())
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        value.as_bool().ok_or_else(|| "expected a boolean".into())
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        push_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        push_str(out, self);
    }
}

impl FromJson for String {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".into())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(inner) => inner.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        match value {
            JsonValue::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        decode_seq(value, None)
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        decode_seq(value, Some(N))?
            .try_into()
            .map_err(|_| "wrong array length".into())
    }
}

macro_rules! tuples {
    ($(($first:ident $(, $name:ident $index:tt)+))*) => {$(
        impl<$first: ToJson $(, $name: ToJson)+> ToJson for ($first, $($name,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                self.0.write_json(out);
                $(
                    out.push(',');
                    self.$index.write_json(out);
                )+
                out.push(']');
            }
        }
        impl<$first: FromJson $(, $name: FromJson)+> FromJson for ($first, $($name,)+) {
            fn from_json(value: &JsonValue) -> Result<Self, String> {
                let items = elements(value, Some([0 $(, $index)+].len()))?;
                Ok((
                    $first::from_json(&items[0]).map_err(|e| format!("[0]: {e}"))?,
                    $( $name::from_json(&items[$index]).map_err(|e| format!("[{}]: {e}", $index))?, )+
                ))
            }
        }
    )*};
}

tuples! {
    (A, B 1)
    (A, B 1, C 2)
}

impl<K: ToJson, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<K: FromJson + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(decode_seq::<(K, V)>(value, None)?.into_iter().collect())
    }
}

/// A parsed value writes itself back out; integral floats come back as
/// [`JsonValue::Int`], everything else re-parses to an equal value.
impl ToJson for JsonValue {
    fn write_json(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => b.write_json(out),
            JsonValue::Int(n) => n.write_json(out),
            JsonValue::Num(n) => n.write_json(out),
            JsonValue::Str(s) => s.write_json(out),
            JsonValue::Arr(items) => items.write_json(out),
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, key);
                    out.push(':');
                    value.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Implement [`ToJson`] and [`FromJson`] for a plain type.
///
/// ```
/// use sapsim_json::{decode, json_codec, ToJson};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Knobs { rate: f64, retries: u32, label: Option<String> }
/// #[derive(Debug, PartialEq)]
/// enum Mode { Fast, Exact }
/// #[derive(Debug, PartialEq)]
/// struct Id(u64);
///
/// // Every listed field is a required key, in this order.
/// json_codec!(struct Knobs { rate, retries, label });
/// json_codec!(enum Mode { Fast, Exact });
/// json_codec!(newtype Id);
///
/// let knobs = Knobs { rate: 0.5, retries: 3, label: None };
/// assert_eq!(knobs.to_json_string(), r#"{"rate":0.5,"retries":3,"label":null}"#);
/// assert_eq!(decode::<Knobs>(&knobs.to_json_string()), Ok(knobs));
/// assert_eq!(Mode::Exact.to_json_string(), r#""Exact""#);
/// assert_eq!(decode::<Id>("7"), Ok(Id(7)));
/// ```
///
/// `struct T: default { a, b: skip, .. }` is the lenient form for input
/// people write by hand and for fields added over time: decoding starts
/// from `T::default()` and overwrites the keys that are present, so
/// missing keys — and fields not listed at all — keep their defaults. A
/// field written `name: predicate` is left out of the output when
/// `predicate(&self.name)` holds. A member written `name = literal` has no
/// field behind it: the key is always written with that value and skipped
/// when read. `struct T: default, deny_unknown { .. }` additionally
/// rejects keys that are not listed.
#[macro_export]
macro_rules! json_codec {
    (struct $ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let mut object = $crate::ObjectWriter::new(out);
                $( object.field(stringify!($field), &self.$field); )*
                object.end();
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::JsonValue) -> Result<Self, String> {
                if value.as_obj().is_none() {
                    return Err("expected an object".into());
                }
                Ok(Self { $( $field: $crate::required(value, stringify!($field))?, )* })
            }
        }
    };
    (struct $ty:ty: default $(, $deny:ident)? {
        $($field:ident $(= $lit:literal)? $(: $omit:expr)?),* $(,)?
    }) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let mut object = $crate::ObjectWriter::new(out);
                $( $crate::json_codec!(@member object self $field $(= $lit)? $($omit)?); )*
                object.end();
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::JsonValue) -> Result<Self, String> {
                let Some(_pairs) = value.as_obj() else {
                    return Err("expected an object".into());
                };
                let _listed = [$(stringify!($field)),*];
                $( $crate::json_codec!(@$deny _pairs _listed); )?
                let mut out = <$ty>::default();
                $( $crate::json_codec!(@read out value $field $(= $lit)?); )*
                Ok(out)
            }
        }
    };
    (enum $ty:ty { $($variant:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                $crate::push_str(out, match self { $( Self::$variant => stringify!($variant), )* });
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::JsonValue) -> Result<Self, String> {
                let name = value.as_str().ok_or("expected a variant name")?;
                $( if name == stringify!($variant) { return Ok(Self::$variant); } )*
                Err(format!("unknown variant `{name}`"))
            }
        }
    };
    (newtype $ty:ident) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                self.0.write_json(out);
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::JsonValue) -> Result<Self, String> {
                $crate::FromJson::from_json(value).map($ty)
            }
        }
    };
    (@member $object:ident $self:ident $field:ident) => {
        $object.field(stringify!($field), &$self.$field);
    };
    (@member $object:ident $self:ident $field:ident $omit:expr) => {
        if !$omit(&$self.$field) {
            $object.field(stringify!($field), &$self.$field);
        }
    };
    (@member $object:ident $self:ident $field:ident = $lit:literal) => {
        $object.field(stringify!($field), &$lit);
    };
    (@read $out:ident $value:ident $field:ident) => {
        if let Some(member) = $value.get(stringify!($field)) {
            $out.$field = $crate::FromJson::from_json(member)
                .map_err(|e| format!("{}: {e}", stringify!($field)))?;
        }
    };
    (@read $out:ident $value:ident $field:ident = $lit:literal) => {};
    (@deny_unknown $pairs:ident $listed:ident) => {
        if let Some(key) = $crate::unknown_key($pairs, &$listed) {
            return Err(format!("unknown field `{key}`"));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Default, PartialEq)]
    struct Inner {
        id: u64,
        tags: Vec<String>,
    }
    json_codec!(struct Inner { id, tags });

    #[derive(Debug, Clone, PartialEq)]
    struct Knobs {
        rate: f64,
        replicas: usize,
        inner: Inner,
        threads: usize,
    }
    impl Default for Knobs {
        fn default() -> Self {
            Knobs {
                rate: 0.5,
                replicas: 1,
                inner: Inner::default(),
                threads: 9,
            }
        }
    }
    fn is_one(n: &usize) -> bool {
        *n == 1
    }
    // `threads` is not listed: never written, always the default.
    json_codec!(struct Knobs: default { rate, replicas: is_one, inner });

    #[derive(Debug, Default, PartialEq)]
    struct Strict {
        a: Option<u64>,
        b: Vec<bool>,
    }
    json_codec!(struct Strict: default, deny_unknown { a, v = 1u64, b });

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Fast,
        Exact,
    }
    json_codec!(
        enum Mode {
            Fast,
            Exact,
        }
    );

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Id(u32);
    json_codec!(newtype Id);

    #[test]
    fn records_keep_field_order_and_require_every_key() {
        let inner = Inner {
            id: u64::MAX,
            tags: vec!["a\"b".into(), String::new()],
        };
        let text = inner.to_json_string();
        assert_eq!(text, r#"{"id":18446744073709551615,"tags":["a\"b",""]}"#);
        assert_eq!(decode::<Inner>(&text), Ok(inner));
        assert_eq!(
            decode::<Inner>(r#"{"id":1}"#),
            Err("missing field `tags`".to_string())
        );
        assert_eq!(
            decode::<Inner>(r#"{"id":1,"tags":[1]}"#),
            Err("tags: [0]: expected a string".to_string())
        );
        assert_eq!(decode::<Inner>("[]"), Err("expected an object".to_string()));
        // Unknown keys are ignored unless the type denies them.
        assert!(decode::<Inner>(r#"{"id":1,"tags":[],"extra":null}"#).is_ok());
    }

    #[test]
    fn lenient_records_default_missing_keys_and_omit_on_request() {
        assert_eq!(
            Knobs::default().to_json_string(),
            r#"{"rate":0.5,"inner":{"id":0,"tags":[]}}"#
        );
        assert_eq!(decode::<Knobs>("{}"), Ok(Knobs::default()));
        let tuned = Knobs {
            replicas: 3,
            threads: 2,
            ..Knobs::default()
        };
        let text = tuned.to_json_string();
        assert!(
            text.contains(r#""replicas":3"#) && !text.contains("threads"),
            "{text}"
        );
        assert_eq!(
            decode::<Knobs>(&text),
            Ok(Knobs {
                threads: 9,
                ..tuned
            })
        );
        assert_eq!(
            decode::<Knobs>(r#"{"rate":"fast"}"#),
            Err("rate: expected a number".to_string())
        );
    }

    #[test]
    fn deny_unknown_rejects_typos_by_name() {
        assert_eq!(
            decode::<Strict>(r#"{"a":null,"b":[true]}"#),
            Ok(Strict {
                a: None,
                b: vec![true]
            })
        );
        assert_eq!(
            decode::<Strict>(r#"{"bb":[]}"#),
            Err("unknown field `bb`".to_string())
        );
        // A constant key is a listed key: written as given, any value read.
        assert_eq!(
            Strict::default().to_json_string(),
            r#"{"a":null,"v":1,"b":[]}"#
        );
        assert_eq!(decode::<Strict>(r#"{"v":7}"#), Ok(Strict::default()));
    }

    #[test]
    fn enums_newtypes_tuples_arrays_and_maps() {
        assert_eq!(Mode::Fast.to_json_string(), "\"Fast\"");
        assert_eq!(decode::<Mode>("\"Exact\""), Ok(Mode::Exact));
        assert_eq!(
            decode::<Mode>("\"Slow\""),
            Err("unknown variant `Slow`".to_string())
        );
        assert_eq!(decode::<Id>("7"), Ok(Id(7)));
        assert!(decode::<Id>("4294967296").is_err(), "u32 range is checked");

        let words = [1u64, 2, u64::MAX, (1 << 53) + 1];
        assert_eq!(decode::<[u64; 4]>(&words.to_json_string()), Ok(words));
        assert!(decode::<[u64; 4]>("[1,2,3]").is_err());

        let event = (Id(3), 2.5f64, Some(Mode::Exact));
        assert_eq!(event.to_json_string(), "[3,2.5,\"Exact\"]");
        assert_eq!(
            decode::<(Id, f64, Option<Mode>)>("[3,2.5,null]"),
            Ok((Id(3), 2.5, None))
        );

        let map: BTreeMap<Id, Vec<f64>> = [(Id(2), vec![0.25]), (Id(1), vec![])].into();
        assert_eq!(map.to_json_string(), "[[1,[]],[2,[0.25]]]");
        assert_eq!(
            decode::<BTreeMap<Id, Vec<f64>>>(&map.to_json_string()),
            Ok(map)
        );
    }

    #[test]
    fn non_finite_floats_do_not_round_trip() {
        assert_eq!(f64::NAN.to_json_string(), "null");
        assert_eq!(decode::<f64>("null"), Err("expected a number".to_string()));
        assert_eq!(decode::<f64>("3"), Ok(3.0));
    }
}
