//! Offline stand-in for `serde`.
//!
//! The build environment has no network access and no registry cache, so
//! the real `serde` cannot be fetched. This shim keeps the workspace
//! source-compatible for the subset the repo uses: `#[derive(Serialize,
//! Deserialize)]` on plain structs and enums (unit and struct variants,
//! no `#[serde(...)]` attributes), round-tripped through a JSON-like
//! [`Value`] tree by the sibling `serde_json` shim.
//!
//! Unlike real serde there is no zero-copy/visitor machinery: `Serialize`
//! produces a [`Value`], `Deserialize` consumes one.

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree. Object keys keep insertion order so emitted
/// JSON is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(xs) => Some(xs),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// Creates an error with the given message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.msg)
    }
}

impl std::error::Error for DeError {}

/// Looks up a required field in an object's entries (derive helper).
pub fn get_field<'a>(entries: &'a [(String, Value)], key: &str) -> Result<&'a Value, DeError> {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError::custom(format!("missing field `{key}`")))
}

/// Serialization into a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Deserialization from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

macro_rules! impl_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                v.as_num()
                    .map(|n| n as $t)
                    .ok_or_else(|| DeError::custom(concat!("expected number for ", stringify!($t))))
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::custom("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::custom("expected string"))
    }
}

impl Serialize for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_owned())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let xs = v
            .as_array()
            .ok_or_else(|| DeError::custom("expected 2-tuple array"))?;
        if xs.len() != 2 {
            return Err(DeError::custom("expected 2 elements"));
        }
        Ok((A::from_value(&xs[0])?, B::from_value(&xs[1])?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let xs = v
            .as_array()
            .ok_or_else(|| DeError::custom("expected 3-tuple array"))?;
        if xs.len() != 3 {
            return Err(DeError::custom("expected 3 elements"));
        }
        Ok((
            A::from_value(&xs[0])?,
            B::from_value(&xs[1])?,
            C::from_value(&xs[2])?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(f32::from_value(&1.5f32.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn collections_round_trip() {
        let xs = vec![1.0f32, -2.5, 3.25];
        assert_eq!(Vec::<f32>::from_value(&xs.to_value()).unwrap(), xs);
        let t = (1usize, 2usize, 3usize);
        assert_eq!(
            <(usize, usize, usize)>::from_value(&t.to_value()).unwrap(),
            t
        );
        let o: Option<f64> = None;
        assert_eq!(Option::<f64>::from_value(&o.to_value()).unwrap(), o);
    }

    #[test]
    fn missing_field_reports_name() {
        let entries = vec![("a".to_string(), Value::Num(1.0))];
        let err = get_field(&entries, "b").unwrap_err();
        assert!(err.to_string().contains("`b`"));
    }
}
