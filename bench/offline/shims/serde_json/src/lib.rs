//! Offline stand-in for `serde_json`, patched in by `bench/Cargo.toml`.
//!
//! Signatures only, so that code naming them type-checks. Every function
//! panics: a code path that serializes through serde cannot be benchmarked
//! until the workspace stops depending on the registry (ROADMAP item 1).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

const UNAVAILABLE: &str = "serde_json is not available in the offline benchmark build";

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(UNAVAILABLE)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub type Map<K, V> = BTreeMap<K, V>;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

impl Value {
    pub fn get(&self, _key: &str) -> Option<&Value> {
        panic!("{UNAVAILABLE}")
    }
    pub fn as_str(&self) -> Option<&str> {
        panic!("{UNAVAILABLE}")
    }
    pub fn as_f64(&self) -> Option<f64> {
        panic!("{UNAVAILABLE}")
    }
    pub fn as_u64(&self) -> Option<u64> {
        panic!("{UNAVAILABLE}")
    }
    pub fn as_i64(&self) -> Option<i64> {
        panic!("{UNAVAILABLE}")
    }
    pub fn as_bool(&self) -> Option<bool> {
        panic!("{UNAVAILABLE}")
    }
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        panic!("{UNAVAILABLE}")
    }
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        panic!("{UNAVAILABLE}")
    }
}

impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, _key: &str) -> &Value {
        panic!("{UNAVAILABLE}")
    }
}

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, _index: usize) -> &Value {
        panic!("{UNAVAILABLE}")
    }
}

pub fn to_string<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    panic!("{UNAVAILABLE}")
}

pub fn to_string_pretty<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    panic!("{UNAVAILABLE}")
}

pub fn to_vec<T: ?Sized + Serialize>(_value: &T) -> Result<Vec<u8>> {
    panic!("{UNAVAILABLE}")
}

pub fn from_str<'a, T: Deserialize<'a>>(_text: &'a str) -> Result<T> {
    panic!("{UNAVAILABLE}")
}

pub fn from_slice<'a, T: Deserialize<'a>>(_bytes: &'a [u8]) -> Result<T> {
    panic!("{UNAVAILABLE}")
}
