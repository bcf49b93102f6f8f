//! Deserialization half of the shim: [`Deserialize`], [`Deserializer`],
//! [`DeError`] and the [`DeserializeOwned`] marker.

use crate::Content;
use std::fmt;

/// The shim's uniform deserialization error: a message string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// An arbitrary-message error (serde's `de::Error::custom`).
    pub fn custom<T: fmt::Display>(msg: T) -> DeError {
        DeError(msg.to_string())
    }

    /// "expected X while deserializing Y, found Z".
    pub fn unexpected(what: &str, expected: &str, found: &Content) -> DeError {
        DeError(format!(
            "invalid type deserializing {what}: expected {expected}, found {}",
            found.kind()
        ))
    }

    /// An integer outside the range of the type `what` (serde's
    /// `invalid_value`): "invalid value: integer `-1`, expected u32".
    pub fn invalid_integer(n: impl fmt::Display, what: &str) -> DeError {
        DeError(format!("invalid value: integer `{n}`, expected {what}"))
    }

    /// A struct field was absent.
    pub fn missing_field(ty: &str, field: &str) -> DeError {
        DeError(format!("missing field `{field}` while deserializing {ty}"))
    }

    /// An enum variant name was not recognized.
    pub fn unknown_variant(ty: &str, variant: &str) -> DeError {
        DeError(format!("unknown variant `{variant}` for enum {ty}"))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Serde's `de::Error`: constructible from any message.
pub trait Error: Sized {
    /// Builds the error from an arbitrary message.
    fn custom<T: fmt::Display>(msg: T) -> Self;
}

impl Error for DeError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        DeError::custom(msg)
    }
}

/// A source of one owned [`Content`] tree.
pub trait Deserializer<'de>: Sized {
    /// Error produced by the deserializer.
    type Error: Error;

    /// Consumes the deserializer, yielding its content tree.
    fn take_content(self) -> Result<Content, Self::Error>;
}

/// A value reconstructible from a [`Content`] tree.
pub trait Deserialize<'de>: Sized {
    /// Rebuilds the value from the shim's data model.
    fn from_content(content: &Content) -> Result<Self, DeError>;

    /// Serde-compatible entry point.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let content = deserializer.take_content()?;
        Self::from_content(&content).map_err(<D::Error as Error>::custom)
    }
}

/// A value deserializable without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}
