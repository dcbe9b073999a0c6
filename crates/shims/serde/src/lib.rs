//! Offline stand-in for `serde`.
//!
//! The build container has no registry access, so the real `serde` cannot be
//! fetched. This shim keeps the workspace's `#[derive(Serialize,
//! Deserialize)]` + `serde_json::{to_string, from_str}` workflow working by
//! defining the two traits over an owned JSON [`Value`] tree; the bundled
//! `serde_derive` proc-macro crate generates impls for structs and enums.
//!
//! The data model is intentionally narrow: exactly what a JSON round trip
//! of this workspace's model/config/machine types needs, with lossless
//! numbers (numbers are kept as their literal text until a concrete type
//! parses them — `u64::MAX` and every finite `f64` survive exactly).

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// Owned JSON tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, kept as its literal text for lossless round trips.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The fields of an object, if this is one.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Look up a field of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|f| f.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Serialization/deserialization error (also re-exported as
/// `serde_json::Error`).
#[derive(Clone, Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    /// An error with the given message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can be turned into a [`Value`].
pub trait Serialize {
    /// Convert `self` into a JSON value.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuild from a JSON value.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls.

macro_rules! impl_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(self.to_string())
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(s) => {
                        // Integer targets must also accept "1.0"-style floats
                        // only when exact; keep it strict: direct parse first,
                        // then a lossless float fallback for e.g. "1e3".
                        if let Ok(x) = s.parse::<$t>() {
                            return Ok(x);
                        }
                        let f: f64 = s
                            .parse()
                            .map_err(|_| Error::custom(format!("invalid number `{s}`")))?;
                        let back = f as $t;
                        if back as f64 == f {
                            Ok(back)
                        } else {
                            Err(Error::custom(format!(
                                "number `{s}` out of range for {}",
                                stringify!($t)
                            )))
                        }
                    }
                    _ => Err(Error::custom(concat!("expected number for ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::custom("expected array")),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) if items.len() == N => {
                let mut out = [T::default(); N];
                for (slot, item) in out.iter_mut().zip(items) {
                    *slot = T::from_value(item)?;
                }
                Ok(out)
            }
            _ => Err(Error::custom(format!("expected array of length {N}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+),)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) if items.len() == [$($n),+].len() => {
                        Ok(($($t::from_value(&items[$n])?,)+))
                    }
                    _ => Err(Error::custom("expected tuple array")),
                }
            }
        }
    )*};
}

impl_tuple! {
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

/// Deserialize a missing struct field: succeeds only for types whose
/// `from_value(Null)` succeeds (e.g. `Option`), matching serde's behaviour
/// for `#[serde(default)]` optional fields.
pub fn missing_field<T: Deserialize>(name: &str) -> Result<T, Error> {
    T::from_value(&Value::Null).map_err(|_| Error::custom(format!("missing field `{name}`")))
}
