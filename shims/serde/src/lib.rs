//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so this shim provides
//! the subset of serde the workspace uses: [`Serialize`] / [`Deserialize`]
//! traits that convert through an owned JSON-like [`Value`] data model,
//! plus derive macros (re-exported from the `serde_derive` shim). The
//! sibling `serde_json` shim renders [`Value`] to JSON text and parses it
//! back.
//!
//! The data model follows serde's JSON conventions so that persisted
//! artifacts look exactly like ordinary serde_json output:
//!
//! * structs and struct variants serialize to maps;
//! * unit enum variants serialize to strings;
//! * newtype variants serialize to `{"Variant": value}`;
//! * sequences serialize to arrays, numbers to f64.

pub use serde_derive::{Deserialize, Serialize};

/// An owned, JSON-shaped value — the serialization data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Seq(Vec<Value>),
    /// JSON object, in insertion order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Borrows the string content when the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the elements when the value is an array.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key when the value is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Views a single-entry object as an externally tagged enum payload.
    pub fn as_tagged(&self) -> Option<(&str, &Value)> {
        match self {
            Value::Map(entries) if entries.len() == 1 => {
                Some((entries[0].0.as_str(), &entries[0].1))
            }
            _ => None,
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    /// Creates an error carrying the given message.
    pub fn custom(message: impl Into<String>) -> Self {
        Error(message.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Converts a value into the [`Value`] data model.
pub trait Serialize {
    /// Serializes `self` into the data model.
    fn serialize(&self) -> Value;
}

/// Reconstructs a value from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Deserializes from the data model.
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

/// Fetches a named struct field from a map value (derive helper).
pub fn map_field<'a>(v: &'a Value, key: &str, ty: &str) -> Result<&'a Value, Error> {
    v.get(key)
        .ok_or_else(|| Error::custom(format!("missing field `{key}` for `{ty}`")))
}

/// Fetches an element of a sequence value (derive helper).
pub fn seq_item<'a>(v: &'a Value, index: usize, ty: &str) -> Result<&'a Value, Error> {
    v.as_seq()
        .and_then(|s| s.get(index))
        .ok_or_else(|| Error::custom(format!("missing element {index} for `{ty}`")))
}

// ------------------------------------------------------------ primitives

macro_rules! impl_num {
    ($kind:ident: $($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $ty {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Num(n) => {
                        check_number(*n, NumKind::$kind, stringify!($ty)).map(|n| n as $ty)
                    }
                    other => Err(Error::custom(format!(
                        "expected a number for {}, found {other:?}",
                        stringify!($ty)
                    ))),
                }
            }
        }
    )*};
}

/// The numbers a numeric type reads.
#[derive(Clone, Copy, PartialEq)]
enum NumKind {
    Float,
    Signed,
    Unsigned,
}

/// Checks a number read for a type of `kind`: an integer type takes
/// only integral values, and an unsigned one no negative ones. Values
/// beyond an integer type's range saturate in the caller's `as` cast,
/// so `usize::MAX`, which reaches `f64` as 2^64, reads back as itself.
fn check_number(n: f64, kind: NumKind, ty: &str) -> Result<f64, Error> {
    if kind != NumKind::Float && n.fract() != 0.0 {
        Err(Error::custom(format!(
            "expected an integer for {ty}, found {n}"
        )))
    } else if kind == NumKind::Unsigned && n < 0.0 {
        Err(Error::custom(format!(
            "expected a non-negative integer for {ty}, found {n}"
        )))
    } else {
        Ok(n)
    }
}

impl_num!(Float: f64, f32);
impl_num!(Signed: i8, i16, i32, i64, isize);
impl_num!(Unsigned: u8, u16, u32, u64, usize);

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!("expected a bool, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!("expected a string, found {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl Deserialize for &'static str {
    /// Deserializes by leaking the parsed string. Only static metadata
    /// structs (dataset specs) carry `&'static str` fields, and they are
    /// deserialized at most a handful of times per process.
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            other => Err(Error::custom(format!("expected a string, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(inner) => inner.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::deserialize).collect(),
            other => Err(Error::custom(format!("expected an array, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self) -> Value {
                Value::Seq(vec![$(self.$idx.serialize()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let items = v.as_seq().ok_or_else(|| {
                    Error::custom(format!("expected a tuple array, found {v:?}"))
                })?;
                Ok(($($name::deserialize(
                    items.get($idx).ok_or_else(|| {
                        Error::custom(format!("missing tuple element {}", $idx))
                    })?,
                )?,)+))
            }
        }
    )*};
}

impl_tuple!((A: 0), (A: 0, B: 1), (A: 0, B: 1, C: 2), (A: 0, B: 1, C: 2, D: 3));

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_read_only_integral_numbers_in_their_sign() {
        assert_eq!(usize::deserialize(&Value::Num(3.0)), Ok(3));
        assert_eq!(i32::deserialize(&Value::Num(-3.0)), Ok(-3));
        assert_eq!(u8::deserialize(&Value::Num(-0.0)), Ok(0));
        assert!(usize::deserialize(&Value::Num(-1.0)).is_err());
        assert!(u64::deserialize(&Value::Num(2.5)).is_err());
        assert!(i64::deserialize(&Value::Num(-0.5)).is_err());
        assert!(usize::deserialize(&Value::Num(f64::INFINITY)).is_err());
        // Past the maximum saturates: usize::MAX reaches f64 as 2^64.
        let max = usize::MAX.serialize();
        assert_eq!(usize::deserialize(&max), Ok(usize::MAX));
        assert_eq!(u8::deserialize(&Value::Num(300.0)), Ok(u8::MAX));
        // Floats take any number.
        assert_eq!(f64::deserialize(&Value::Num(-0.5)), Ok(-0.5));
    }
}
