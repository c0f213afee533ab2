//! Typed encode and decode on top of the reader and the emit helpers.
//!
//! Encoding streams straight into the caller's `String`; decoding reads a
//! parsed [`JsonValue`]. Shapes:
//!
//! * a record is an object keyed by field name in declaration order;
//!   its members are required, or defaulted when absent;
//! * an internally tagged enum is one object: a tag member naming the
//!   variant (`"op":"place"`), then the variant record's members;
//! * a unit enum is its variant name, a newtype is its inner value;
//! * `Option` is the value or `null`, sequences and tuples are arrays;
//! * a map is an array of `[key, value]` pairs in key order (so keys may
//!   be records themselves);
//! * a [`Keyed`] is an object keyed by arbitrary strings, escaped like
//!   any string value: pairs in order, or a single pair;
//! * a [`Cow`] is its owned form's shape, read back owned.
//!
//! A decode failure is a [`DecodeError`]: the member path plus an
//! [`ErrorKind`] that tells a wrong shape (missing member, wrong JSON
//! type) from a well-typed value outside its range or set.

use crate::{parse, push_f64, push_str, push_u64, JsonError, JsonValue};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A value that can append its JSON form to a `String`.
pub trait ToJson {
    /// Append the JSON form of `self` to `out`.
    fn write_json(&self, out: &mut String);

    /// The JSON form of `self` as a fresh `String`.
    fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write_json(&mut out);
        out
    }
}

/// A value that can be rebuilt from parsed JSON.
pub trait FromJson: Sized {
    /// Rebuild a value from its parsed JSON form.
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError>;
}

/// A record that writes its members into an object the caller opened.
pub trait JsonMembers {
    /// Every member name, in the order they are written.
    const NAMES: &'static [&'static str];

    /// Write the members (not the braces) into `object`.
    fn write_members(&self, object: &mut ObjectWriter<'_>);
}

/// An internally tagged enum (see [`json_codec!`]): a tag member naming
/// the variant, then the variant's members, in an object the caller
/// opened (so an envelope can put its own members first).
pub trait TaggedJson: Sized {
    /// The tag value naming this variant.
    fn tag(&self) -> &'static str;

    /// The member names of the variant tagged `tag`, or an error.
    fn members_for(tag: &str) -> Result<&'static [&'static str], DecodeError>;

    /// Write the tag, then the variant's members, into `object`.
    fn write_members(&self, object: &mut ObjectWriter<'_>);

    /// Decode from an object holding the tag and the variant's members.
    fn from_members(value: &JsonValue) -> Result<Self, DecodeError>;
}

/// What went wrong in a [`DecodeError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The text is not JSON.
    Syntax(JsonError),
    /// A required member is absent (the path ends at its name).
    Missing,
    /// The wrong JSON type or shape; names what fits (`a string`).
    Type(String),
    /// A member a closed record does not define.
    UnknownField(String),
    /// A well-typed integer that does not fit the target's bits.
    Range(u32),
    /// A name outside the type's set: the name read, and every name taken.
    UnknownName(String, Vec<&'static str>),
    /// A well-typed value that breaks a rule of its type; says which.
    Invalid(String),
}

/// Why a value did not decode, and where. Renders as ``field `id` must
/// be a string``, `vcpus does not fit in 32 bits` and the like, after
/// the enclosing members (``cloud: missing field `vm_count` ``).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Member names and `[i]` indices, from the failing value outwards.
    pub path: Vec<String>,
    /// What went wrong.
    pub kind: ErrorKind,
}

impl From<ErrorKind> for DecodeError {
    fn from(kind: ErrorKind) -> Self {
        DecodeError { path: Vec::new(), kind }
    }
}

impl DecodeError {
    /// The value has the wrong JSON type; `what` names what fits.
    pub fn expected(what: impl Into<String>) -> Self {
        ErrorKind::Type(what.into()).into()
    }

    /// `found` is not one of `names`.
    pub fn unknown_name(found: &str, names: Vec<&'static str>) -> Self {
        ErrorKind::UnknownName(found.to_string(), names).into()
    }

    /// The same error, inside member `key`.
    pub fn at(mut self, key: &str) -> Self {
        self.path.push(key.to_string());
        self
    }

    /// The same error, inside element `index` of an array.
    pub fn at_index(mut self, index: usize) -> Self {
        self.path.push(format!("[{index}]"));
        self
    }

    /// `true` for a well-typed value outside its range or set (serde's
    /// `invalid_value`), `false` for a shape error.
    pub fn is_value_error(&self) -> bool {
        matches!(
            self.kind,
            ErrorKind::Range(_) | ErrorKind::UnknownName(..) | ErrorKind::Invalid(_)
        )
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // An innermost member names the subject; the rest is context.
        let (field, context) = match self.path.split_first() {
            Some((name, rest)) if !name.starts_with('[') => (Some(name.as_str()), rest),
            _ => (None, &self.path[..]),
        };
        for segment in context.iter().rev() {
            write!(f, "{segment}: ")?;
        }
        match (&self.kind, field) {
            (ErrorKind::Syntax(e), _) => write!(f, "{e}"),
            (ErrorKind::Missing, name) => write!(f, "missing field `{}`", name.unwrap_or("")),
            (ErrorKind::Type(what), Some(name)) => write!(f, "field `{name}` must be {what}"),
            (ErrorKind::Type(what), None) => write!(f, "expected {what}"),
            (ErrorKind::UnknownField(key), _) => write!(f, "unknown field `{key}`"),
            (ErrorKind::Range(bits), name) => {
                write!(f, "{} does not fit in {bits} bits", name.unwrap_or("value"))
            }
            (ErrorKind::UnknownName(found, names), name) => {
                let names = names.join("|");
                write!(f, "unknown {} `{found}` (use {names})", name.unwrap_or("variant"))
            }
            (ErrorKind::Invalid(rule), Some(name)) => write!(f, "{name}: {rule}"),
            (ErrorKind::Invalid(rule), None) => write!(f, "{rule}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Parse `text` and decode it as a `T`.
pub fn decode<T: FromJson>(text: &str) -> Result<T, DecodeError> {
    let value = parse(text).map_err(|e| DecodeError::from(ErrorKind::Syntax(e)))?;
    T::from_json(&value)
}

/// Decode the member `key` of an object; a missing key is an error.
pub fn required<T: FromJson>(object: &JsonValue, key: &'static str) -> Result<T, DecodeError> {
    let member = object.get(key).ok_or_else(|| DecodeError::from(ErrorKind::Missing).at(key))?;
    T::from_json(member).map_err(|e| e.at(key))
}

/// The string member `key` of an object, borrowed.
pub fn member_str<'v>(object: &'v JsonValue, key: &'static str) -> Result<&'v str, DecodeError> {
    let member = object.get(key).ok_or_else(|| DecodeError::from(ErrorKind::Missing).at(key))?;
    member.as_str().ok_or_else(|| DecodeError::expected("a string").at(key))
}

/// Decode the member `key` of an object; `None` when it is absent or
/// `null`.
pub fn optional<T: FromJson>(
    object: &JsonValue,
    key: &'static str,
) -> Result<Option<T>, DecodeError> {
    match object.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(member) => T::from_json(member).map(Some).map_err(|e| e.at(key)),
    }
}

/// The object pairs of `value`, or a type error.
pub fn object(value: &JsonValue) -> Result<&[(String, JsonValue)], DecodeError> {
    value.as_obj().ok_or_else(|| DecodeError::expected("an object"))
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
pub fn variant(value: &JsonValue) -> Result<(&str, &JsonValue), DecodeError> {
    match value {
        JsonValue::Str(name) => Ok((name, &JsonValue::Null)),
        JsonValue::Obj(pairs) if pairs.len() == 1 => Ok((&pairs[0].0, &pairs[0].1)),
        _ => Err(DecodeError::expected("a variant name or a single-key object")),
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

fn elements(value: &JsonValue, len: Option<usize>) -> Result<&[JsonValue], DecodeError> {
    match (value.as_arr(), len) {
        (Some(items), None) => Ok(items),
        (Some(items), Some(n)) if items.len() == n => Ok(items),
        (_, Some(n)) => Err(DecodeError::expected(format!("an array of {n} elements"))),
        (None, None) => Err(DecodeError::expected("an array")),
    }
}

fn decode_seq<T: FromJson>(value: &JsonValue, len: Option<usize>) -> Result<Vec<T>, DecodeError> {
    elements(value, len)?
        .iter()
        .enumerate()
        .map(|(i, item)| T::from_json(item).map_err(|e| e.at_index(i)))
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
            fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
                let n = value
                    .as_u64()
                    .ok_or_else(|| DecodeError::expected("a non-negative integer"))?;
                <$t>::try_from(n).map_err(|_| ErrorKind::Range(<$t>::BITS).into())
            }
        }
    )*};
}

unsigned!(u16, u32, u64, usize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        push_f64(out, *self);
    }
}

impl FromJson for f64 {
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
        value.as_f64().ok_or_else(|| DecodeError::expected("a number"))
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
        value.as_bool().ok_or_else(|| DecodeError::expected("a boolean"))
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
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| DecodeError::expected("a string"))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
        T::from_json(value).map(Box::new)
    }
}

impl<B: ToJson + ToOwned + ?Sized> ToJson for Cow<'_, B> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Decoding yields the owned form.
impl<B: ToOwned + ?Sized> FromJson for Cow<'_, B>
where
    B::Owned: FromJson,
{
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
        B::Owned::from_json(value).map(Cow::Owned)
    }
}

impl<B: JsonMembers + ToOwned> JsonMembers for Cow<'_, B> {
    const NAMES: &'static [&'static str] = B::NAMES;

    fn write_members(&self, object: &mut ObjectWriter<'_>) {
        (**self).write_members(object);
    }
}

/// An object keyed by arbitrary strings, `{"<key>":value,..}`: pairs in
/// order (`Keyed<Vec<(K, V)>>`) or one pair (`Keyed<(K, V)>`). Keys are
/// escaped like string values, unlike [`ObjectWriter::field`]'s.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Keyed<P>(pub P);

impl<K, V> FromIterator<(K, V)> for Keyed<Vec<(K, V)>> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Self {
        Keyed(pairs.into_iter().collect())
    }
}

fn write_pairs<K: AsRef<str>, V: ToJson>(pairs: &[(K, V)], out: &mut String) {
    out.push('{');
    for (i, (key, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(out, key.as_ref());
        out.push(':');
        value.write_json(out);
    }
    out.push('}');
}

impl<K: AsRef<str>, V: ToJson> ToJson for Keyed<Vec<(K, V)>> {
    fn write_json(&self, out: &mut String) {
        write_pairs(&self.0, out);
    }
}

impl<K: From<String>, V: FromJson> FromJson for Keyed<Vec<(K, V)>> {
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
        let pair = |(key, member): &(String, JsonValue)| match V::from_json(member) {
            Ok(v) => Ok((K::from(key.clone()), v)),
            Err(e) => Err(e.at(key)),
        };
        object(value)?.iter().map(pair).collect()
    }
}

impl<K: AsRef<str>, V: ToJson> ToJson for Keyed<(K, V)> {
    fn write_json(&self, out: &mut String) {
        write_pairs(std::slice::from_ref(&self.0), out);
    }
}

impl<K: From<String>, V: FromJson> FromJson for Keyed<(K, V)> {
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
        let Keyed(pairs) = Keyed::<Vec<(K, V)>>::from_json(value)?;
        let [pair] = <[(K, V); 1]>::try_from(pairs)
            .map_err(|_| DecodeError::expected("an object with one member"))?;
        Ok(Keyed(pair))
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
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
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
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
        decode_seq(value, None)
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
        decode_seq(value, Some(N))?
            .try_into()
            .map_err(|_| DecodeError::expected(format!("an array of {N} elements")))
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
            fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
                let items = elements(value, Some([0 $(, $index)+].len()))?;
                Ok((
                    $first::from_json(&items[0]).map_err(|e| e.at_index(0))?,
                    $( $name::from_json(&items[$index]).map_err(|e| e.at_index($index))?, )+
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
    fn from_json(value: &JsonValue) -> Result<Self, DecodeError> {
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
            JsonValue::Obj(pairs) => write_pairs(pairs, out),
        }
    }
}

/// Implement [`ToJson`] and [`FromJson`] for a plain type.
///
/// ```
/// use sapsim_json::{decode, json_codec, parse, ObjectWriter, TaggedJson, ToJson};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Knobs { rate: f64, retries: u32, label: Option<String> }
/// #[derive(Debug, PartialEq)]
/// enum Mode { Fast, Exact }
/// #[derive(Debug, PartialEq)]
/// struct Id(u64);
/// #[derive(Debug, PartialEq)]
/// struct Scale { id: Option<String>, factor: u32, replicas: u64 }
/// #[derive(Debug, PartialEq)]
/// enum Command { Scale(Scale) }
///
/// // Every listed field is a required key, in this order.
/// json_codec!(struct Knobs { rate, retries, label });
/// json_codec!(enum Mode { Fast, Exact });
/// json_codec!(newtype Id);
/// // `#[default]` members may be absent or `null`; `id` is left out
/// // while it is `None`.
/// json_codec!(struct Scale { #[default] id: Option::is_none, factor, #[default(1)] replicas });
/// // One object: the tag member, then the variant record's members.
/// json_codec!(enum Command: tag cmd { Scale(Scale) = "scale" });
///
/// let knobs = Knobs { rate: 0.5, retries: 3, label: None };
/// assert_eq!(knobs.to_json_string(), r#"{"rate":0.5,"retries":3,"label":null}"#);
/// assert_eq!(decode::<Knobs>(&knobs.to_json_string()), Ok(knobs));
/// assert_eq!(Mode::Exact.to_json_string(), r#""Exact""#);
/// assert_eq!(decode::<Id>("7"), Ok(Id(7)));
///
/// // A tagged enum writes into an object the caller opened.
/// let scale = Command::Scale(Scale { id: None, factor: 2, replicas: 1 });
/// let mut line = String::new();
/// let mut object = ObjectWriter::new(&mut line);
/// object.field("v", &1u32);
/// scale.write_members(&mut object);
/// object.end();
/// assert_eq!(line, r#"{"v":1,"cmd":"scale","factor":2,"replicas":1}"#);
/// let text = r#"{"cmd":"scale","factor":2,"replicas":null}"#;
/// assert_eq!(Command::from_members(&parse(text).unwrap()), Ok(scale));
/// let err = decode::<Scale>(r#"{"factor":4294967296}"#).unwrap_err();
/// assert_eq!(err.to_string(), "factor does not fit in 32 bits");
/// assert!(err.is_value_error());
/// ```
///
/// In `struct T { .. }` (which also implements [`JsonMembers`]) a member
/// is required unless written `#[default]` (absent or `null` reads as the
/// field type's `Default`) or `#[default(expr)]`. A member written
/// `name: predicate` is left out of the output while `predicate(&self.name)`
/// holds. Unknown keys are ignored.
///
/// `enum T: tag key { Variant(Record) = "name", .. }` is an internally
/// tagged enum ([`TaggedJson`]) over plain-form records.
///
/// `struct T: default { .. }` is the lenient form for input people write
/// by hand: decoding starts from `T::default()` and overwrites the keys
/// that are present, so missing keys — and fields not listed at all —
/// keep their defaults; a `null` is a value like any other. A member
/// written `name = literal` is a constant key: always written, skipped
/// when read. `: default, deny_unknown` also rejects unlisted keys.
///
/// `str T: spell` writes `T` as the string its method `spell` returns
/// and reads it back by finding the variant in `T::ALL` spelled so;
/// unknown names are listed from `T::ALL` too.
#[macro_export]
macro_rules! json_codec {
    (struct $ty:ty {
        $($(#[$attr:ident $(($default:expr))?])? $field:ident $(: $omit:expr)?),* $(,)?
    }) => {
        impl $crate::JsonMembers for $ty {
            const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];

            fn write_members(&self, object: &mut $crate::ObjectWriter<'_>) {
                $( $crate::json_codec!(@member object self $field $($omit)?); )*
            }
        }
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let mut object = $crate::ObjectWriter::new(out);
                $crate::JsonMembers::write_members(self, &mut object);
                object.end();
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::JsonValue) -> Result<Self, $crate::DecodeError> {
                $crate::object(value)?;
                Ok(Self {
                    $( $field: $crate::json_codec!(@get value $field $(#[$attr $(($default))?])?), )*
                })
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
            fn from_json(value: &$crate::JsonValue) -> Result<Self, $crate::DecodeError> {
                let _pairs = $crate::object(value)?;
                let _listed = [$(stringify!($field)),*];
                $( $crate::json_codec!(@$deny _pairs _listed); )?
                let mut out = <$ty>::default();
                $( $crate::json_codec!(@read out value $field $(= $lit)?); )*
                Ok(out)
            }
        }
    };
    (enum $ty:ty: tag $tag:ident {
        $($variant:ident($record:ty) = $name:literal),* $(,)?
    }) => {
        impl $crate::TaggedJson for $ty {
            fn members_for(
                tag: &str,
            ) -> Result<&'static [&'static str], $crate::DecodeError> {
                match tag {
                    $( $name => Ok(<$record as $crate::JsonMembers>::NAMES), )*
                    other => Err($crate::DecodeError::unknown_name(other, vec![$($name),*])
                        .at(stringify!($tag))),
                }
            }

            fn tag(&self) -> &'static str {
                match self {
                    $( Self::$variant(_) => $name, )*
                }
            }

            fn write_members(&self, object: &mut $crate::ObjectWriter<'_>) {
                match self {
                    $( Self::$variant(record) => {
                        object.field(stringify!($tag), $name);
                        $crate::JsonMembers::write_members(record, object);
                    } )*
                }
            }

            fn from_members(value: &$crate::JsonValue) -> Result<Self, $crate::DecodeError> {
                match $crate::member_str(value, stringify!($tag))? {
                    $( $name => $crate::FromJson::from_json(value).map(Self::$variant), )*
                    other => Err($crate::DecodeError::unknown_name(other, vec![$($name),*])
                        .at(stringify!($tag))),
                }
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
            fn from_json(value: &$crate::JsonValue) -> Result<Self, $crate::DecodeError> {
                let name = value
                    .as_str()
                    .ok_or_else(|| $crate::DecodeError::expected("a variant name"))?;
                $( if name == stringify!($variant) { return Ok(Self::$variant); } )*
                Err($crate::DecodeError::unknown_name(name, vec![$(stringify!($variant)),*]))
            }
        }
    };
    (str $ty:ty: $spell:ident) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                $crate::push_str(out, self.$spell());
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::JsonValue) -> Result<Self, $crate::DecodeError> {
                let name = value.as_str().ok_or_else(|| $crate::DecodeError::expected("a string"))?;
                let names = || <$ty>::ALL.map(<$ty>::$spell).to_vec();
                <$ty>::ALL
                    .into_iter()
                    .find(|v| v.$spell() == name)
                    .ok_or_else(|| $crate::DecodeError::unknown_name(name, names()))
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
            fn from_json(value: &$crate::JsonValue) -> Result<Self, $crate::DecodeError> {
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
    (@get $value:ident $field:ident) => {
        $crate::required($value, stringify!($field))?
    };
    (@get $value:ident $field:ident #[default]) => {
        $crate::optional($value, stringify!($field))?.unwrap_or_default()
    };
    (@get $value:ident $field:ident #[default($default:expr)]) => {
        $crate::optional($value, stringify!($field))?.unwrap_or($default)
    };
    (@read $out:ident $value:ident $field:ident) => {
        if let Some(member) = $value.get(stringify!($field)) {
            $out.$field = $crate::FromJson::from_json(member).map_err(|e| e.at(stringify!($field)))?;
        }
    };
    (@read $out:ident $value:ident $field:ident = $lit:literal) => {};
    (@deny_unknown $pairs:ident $listed:ident) => {
        if let Some(key) = $crate::unknown_key($pairs, &$listed) {
            return Err($crate::ErrorKind::UnknownField(key.to_string()).into());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn error<T: FromJson + fmt::Debug>(text: &str) -> String {
        decode::<T>(text).unwrap_err().to_string()
    }

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
        assert_eq!(error::<Inner>(r#"{"id":1}"#), "missing field `tags`");
        assert_eq!(error::<Inner>(r#"{"id":1,"tags":[1]}"#), "tags: [0]: expected a string");
        assert_eq!(error::<Inner>("[]"), "expected an object");
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
        assert_eq!(error::<Knobs>(r#"{"rate":"fast"}"#), "field `rate` must be a number");
        // A `null` is a value here, not an absent key.
        assert_eq!(error::<Knobs>(r#"{"replicas":null}"#), "field `replicas` must be a non-negative integer");
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
        assert_eq!(error::<Strict>(r#"{"bb":[]}"#), "unknown field `bb`");
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
        assert_eq!(error::<Mode>("\"Slow\""), "unknown variant `Slow` (use Fast|Exact)");
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
        assert_eq!(error::<f64>("null"), "expected a number");
        assert_eq!(decode::<f64>("3"), Ok(3.0));
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Grow {
        id: Option<String>,
        by: u32,
        times: u64,
        fast: bool,
        mode: Mode,
    }
    json_codec!(struct Grow {
        #[default] id: Option::is_none,
        by,
        #[default(1)] times,
        #[default] fast,
        mode,
    });

    #[derive(Debug, Clone, Default, PartialEq)]
    struct Halt {
        id: Option<String>,
    }
    json_codec!(struct Halt { #[default] id: Option::is_none });

    #[derive(Debug, Clone, PartialEq)]
    enum Command {
        Grow(Grow),
        Halt(Halt),
    }
    json_codec!(enum Command: tag cmd { Grow(Grow) = "grow", Halt(Halt) = "halt" });

    fn command(text: &str) -> Result<Command, DecodeError> {
        Command::from_members(&parse(text).unwrap())
    }

    #[test]
    fn records_mix_required_and_defaulted_members() {
        let grow = Grow {
            id: None,
            by: 2,
            times: 1,
            fast: false,
            mode: Mode::Fast,
        };
        assert_eq!(grow.to_json_string(), r#"{"by":2,"times":1,"fast":false,"mode":"Fast"}"#);
        // Absent and `null` both read as the default.
        assert_eq!(decode::<Grow>(r#"{"by":2,"mode":"Fast"}"#), Ok(grow.clone()));
        assert_eq!(
            decode::<Grow>(r#"{"id":null,"by":2,"times":null,"fast":null,"mode":"Fast"}"#),
            Ok(grow)
        );
        assert_eq!(error::<Grow>(r#"{"mode":"Fast"}"#), "missing field `by`");
        assert_eq!(error::<Grow>(r#"{"by":null,"mode":"Fast"}"#), "field `by` must be a non-negative integer");
        assert_eq!(error::<Grow>(r#"{"id":7,"by":1,"mode":"Fast"}"#), "field `id` must be a string");
        assert_eq!(<Grow as JsonMembers>::NAMES, ["id", "by", "times", "fast", "mode"]);
    }

    #[test]
    fn value_errors_are_told_apart_from_shape_errors() {
        let range = decode::<Grow>(r#"{"by":4294967296,"mode":"Fast"}"#).unwrap_err();
        assert_eq!(range.to_string(), "by does not fit in 32 bits");
        assert_eq!(range.kind, ErrorKind::Range(32));
        assert!(range.is_value_error());
        let name = decode::<Grow>(r#"{"by":1,"mode":"Slow"}"#).unwrap_err();
        assert_eq!(name.to_string(), "unknown mode `Slow` (use Fast|Exact)");
        assert!(name.is_value_error());
        for shape in [r#"{"by":-1,"mode":"Fast"}"#, r#"{"by":1}"#, "[]", "{"] {
            assert!(!decode::<Grow>(shape).unwrap_err().is_value_error(), "{shape}");
        }
        assert!(!decode::<Strict>(r#"{"zz":1}"#).unwrap_err().is_value_error());
        // Integral floats are integers; past 2^53 they are not exact.
        assert_eq!(decode::<u32>("4.0"), Ok(4));
        assert_eq!(error::<u32>("4294967296.0"), "value does not fit in 32 bits");
        assert_eq!(error::<u64>("1e20"), "expected a non-negative integer");
    }

    #[test]
    fn tagged_enums_write_the_tag_then_the_record() {
        let halt = Command::Halt(Halt { id: Some("h".into()) });
        let mut line = String::new();
        let mut object = ObjectWriter::new(&mut line);
        halt.write_members(&mut object);
        object.end();
        assert_eq!(line, r#"{"cmd":"halt","id":"h"}"#);
        assert_eq!(halt.tag(), "halt");
        assert_eq!(command(r#"{"id":"h","cmd":"halt","extra":1}"#), Ok(halt));
        assert_eq!(Command::members_for("grow"), Ok(&["id", "by", "times", "fast", "mode"][..]));
        let unknown = Command::members_for("jump").unwrap_err();
        assert_eq!(unknown.to_string(), "unknown cmd `jump` (use grow|halt)");
        assert_eq!(command(r#"{"cmd":"jump"}"#), Err(unknown));
        assert_eq!(command("{}").unwrap_err().to_string(), "missing field `cmd`");
        assert_eq!(command(r#"{"cmd":1}"#).unwrap_err().to_string(), "field `cmd` must be a string");
        assert_eq!(
            command(r#"{"cmd":"grow","by":"x","mode":"Fast"}"#).unwrap_err().to_string(),
            "field `by` must be a non-negative integer"
        );
    }

    #[test]
    fn keyed_objects_escape_their_keys_and_cows_read_back_owned() {
        type Weights = Keyed<Vec<(Cow<'static, str>, f64)>>;
        let weights: Weights = [("cpu".into(), 0.5), ("a\"b\\".into(), 1.0)]
            .into_iter()
            .collect();
        let text = weights.to_json_string();
        assert_eq!(text, r#"{"cpu":0.5,"a\"b\\":1}"#);
        let back: Weights = decode(&text).unwrap();
        assert_eq!(back, weights);
        assert!(matches!(back.0[1].0, Cow::Owned(_)));
        assert_eq!(Weights::default().to_json_string(), "{}");
        let err = error::<Weights>(r#"{"cpu":"x"}"#);
        assert_eq!(err, "field `cpu` must be a number");
        assert_eq!(error::<Weights>("[]"), "expected an object");

        type Label = Keyed<(Cow<'static, str>, String)>;
        let label = Keyed(("k\n".into(), "v".to_string()));
        assert_eq!(label.to_json_string(), r#"{"k\n":"v"}"#);
        assert_eq!(decode::<Label>(&label.to_json_string()), Ok(label));
        for bad in ["{}", r#"{"a":"1","b":"2"}"#] {
            assert_eq!(error::<Label>(bad), "expected an object with one member");
        }
    }

    #[test]
    fn invalid_values_carry_their_rule() {
        let err = DecodeError::from(ErrorKind::Invalid("bound 8 is off".into()))
            .at_index(2)
            .at("buckets");
        assert_eq!(err.to_string(), "buckets: [2]: bound 8 is off");
        assert!(err.is_value_error());
        let err = DecodeError::from(ErrorKind::Invalid("no".into())).at("x");
        assert_eq!(err.to_string(), "x: no");
    }

    #[test]
    fn nested_errors_name_the_enclosing_members() {
        assert_eq!(
            error::<Knobs>(r#"{"inner":{"id":-1,"tags":[]}}"#),
            "inner: field `id` must be a non-negative integer"
        );
        assert_eq!(error::<Knobs>(r#"{"inner":{"id":1}}"#), "inner: missing field `tags`");
        assert_eq!(
            error::<Vec<Inner>>(r#"[{"id":1,"tags":[]},{"tags":[]}]"#),
            "[1]: missing field `id`"
        );
        let syntax = decode::<Inner>("{").unwrap_err();
        assert!(matches!(syntax.kind, ErrorKind::Syntax(_)), "{syntax:?}");
        assert_eq!(syntax.to_string(), "expected `\"` at byte 1");
    }
}
