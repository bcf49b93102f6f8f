//! Offline stand-in for the `serde` crate.
//!
//! The build container for this workspace has no access to crates.io, so the
//! workspace vendors the *subset* of serde's API it actually uses. Instead of
//! serde's visitor-driven zero-copy architecture, this shim round-trips every
//! value through an owned [`Content`] tree: `Serialize` lowers a value into a
//! `Content`, `Deserialize` rebuilds a value from one, and format crates (see
//! the sibling `serde_json` shim) only ever translate `Content` to and from
//! text. That is slower than real serde but semantically equivalent for the
//! self-describing, owned types this workspace serializes.
//!
//! Supported surface:
//! - `#[derive(Serialize, Deserialize)]` on non-generic structs and enums
//!   (named, tuple and unit shapes; externally-tagged enums, like serde).
//! - `#[serde(with = "module")]` field attribute.
//! - Manual impls written against `Serializer`/`Deserializer` as long as they
//!   only forward to existing `Serialize`/`Deserialize` impls (the
//!   `serialize`/`deserialize` entry points and associated `Ok`/`Error` types
//!   match real serde's signatures).

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

pub mod de;
pub mod ser;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

pub use crate::de::{DeError, Deserialize, Deserializer};
pub use crate::ser::{Serialize, Serializer};

/// An owned, self-describing serialization tree — the shim's data model.
///
/// Every serializable value lowers to exactly one `Content`; formats render
/// `Content` without ever seeing the original type.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// `null` / `None` / unit.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (all unsigned widths ≤ 64 bits).
    U64(u64),
    /// A signed integer (all signed widths ≤ 64 bits).
    I64(i64),
    /// A 128-bit unsigned integer.
    U128(u128),
    /// A 128-bit signed integer.
    I128(i128),
    /// A floating-point number.
    F64(f64),
    /// A string (also: chars, unit enum variants).
    Str(String),
    /// A sequence (vectors, slices, arrays, tuples, tuple variants).
    Seq(Vec<Content>),
    /// A map (maps, structs, struct variants, externally-tagged payloads).
    /// Entry order is preserved; struct keys are `Content::Str`.
    Map(Vec<(Content, Content)>),
}

impl Content {
    /// Looks up a struct field / string-keyed map entry.
    pub fn field(&self, key: &str) -> Option<&Content> {
        match self {
            Content::Map(entries) => entries.iter().find_map(|(k, v)| match k {
                Content::Str(s) if s == key => Some(v),
                _ => None,
            }),
            _ => None,
        }
    }

    /// The entry list of a map, or an error naming `what`.
    pub fn as_map(&self, what: &str) -> Result<&[(Content, Content)], DeError> {
        match self {
            Content::Map(entries) => Ok(entries),
            other => Err(DeError::unexpected(what, "map", other)),
        }
    }

    /// The element list of a sequence, or an error naming `what`.
    pub fn as_seq(&self, what: &str) -> Result<&[Content], DeError> {
        match self {
            Content::Seq(items) => Ok(items),
            other => Err(DeError::unexpected(what, "sequence", other)),
        }
    }

    /// The string payload, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, DeError> {
        match self {
            Content::Str(s) => Ok(s),
            other => Err(DeError::unexpected(what, "string", other)),
        }
    }

    /// A short description of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::U64(_) | Content::I64(_) | Content::U128(_) | Content::I128(_) => "integer",
            Content::F64(_) => "float",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

/// An error type that can never occur (used by [`ContentSerializer`]).
#[derive(Debug)]
pub enum Never {}

impl fmt::Display for Never {
    fn fmt(&self, _f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {}
    }
}

/// A [`Serializer`] whose output *is* the content tree.
///
/// This is what derived code hands to `#[serde(with = "...")]` modules.
pub struct ContentSerializer;

impl Serializer for ContentSerializer {
    type Ok = Content;
    type Error = Never;

    fn serialize_content(self, content: Content) -> Result<Content, Never> {
        Ok(content)
    }
}

/// A [`Deserializer`] over an owned content tree.
///
/// This is what derived code hands to `#[serde(with = "...")]` modules.
pub struct ContentDeserializer(pub Content);

impl<'de> Deserializer<'de> for ContentDeserializer {
    type Error = DeError;

    fn take_content(self) -> Result<Content, DeError> {
        Ok(self.0)
    }
}

/// Lowers any serializable value to its content tree.
pub fn to_content<T: Serialize + ?Sized>(value: &T) -> Content {
    value.to_content()
}

/// Runs a `#[serde(with = "...")]`-style serialize fn against the content
/// serializer, unwrapping the impossible error.
pub fn content_from_with<F>(f: F) -> Content
where
    F: FnOnce(ContentSerializer) -> Result<Content, Never>,
{
    match f(ContentSerializer) {
        Ok(content) => content,
        Err(never) => match never {},
    }
}

// ---------------------------------------------------------------------------
// Serialize / Deserialize impls for std types
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content { Content::U64(*self as u64) }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                let n = content.to_u128(stringify!($t))?;
                <$t>::try_from(n).map_err(|_| DeError::invalid_integer(n, stringify!($t)))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content { Content::I64(*self as i64) }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                let n = content.to_i128(stringify!($t))?;
                <$t>::try_from(n).map_err(|_| DeError::invalid_integer(n, stringify!($t)))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for u128 {
    fn to_content(&self) -> Content {
        Content::U128(*self)
    }
}

impl<'de> Deserialize<'de> for u128 {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content.to_u128("u128")
    }
}

impl Serialize for i128 {
    fn to_content(&self) -> Content {
        Content::I128(*self)
    }
}

impl<'de> Deserialize<'de> for i128 {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content.to_i128("i128")
    }
}

impl Content {
    fn to_u128(&self, what: &str) -> Result<u128, DeError> {
        match *self {
            Content::U64(n) => Ok(n as u128),
            Content::U128(n) => Ok(n),
            Content::I64(n) if n >= 0 => Ok(n as u128),
            Content::I128(n) if n >= 0 => Ok(n as u128),
            Content::I64(n) => Err(DeError::invalid_integer(n, what)),
            Content::I128(n) => Err(DeError::invalid_integer(n, what)),
            _ => Err(DeError::unexpected(what, "integer", self)),
        }
    }

    fn to_i128(&self, what: &str) -> Result<i128, DeError> {
        match *self {
            Content::U64(n) => Ok(n as i128),
            Content::I64(n) => Ok(n as i128),
            Content::I128(n) => Ok(n),
            Content::U128(n) => i128::try_from(n).map_err(|_| DeError::invalid_integer(n, what)),
            _ => Err(DeError::unexpected(what, "integer", self)),
        }
    }

    fn to_f64(&self, what: &str) -> Result<f64, DeError> {
        match *self {
            Content::F64(f) => Ok(f),
            Content::U64(n) => Ok(n as f64),
            Content::I64(n) => Ok(n as f64),
            Content::U128(n) => Ok(n as f64),
            Content::I128(n) => Ok(n as f64),
            _ => Err(DeError::unexpected(what, "number", self)),
        }
    }
}

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content.to_f64("f64")
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(*self as f64)
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content.to_f64("f32").map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Bool(b) => Ok(*b),
            other => Err(DeError::unexpected("bool", "bool", other)),
        }
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl<'de> Deserialize<'de> for char {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let s = content.as_str("char")?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::custom(format!("expected single char, got {s:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content.as_str("String").map(str::to_owned)
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_owned())
    }
}

impl<'de> Deserialize<'de> for &'static str {
    /// Real serde deserializes `&'static str` fields only when the input
    /// itself is `'static`; this owned-tree shim cannot borrow, so it leaks
    /// the (small, interned-name-sized) string instead. Only paid when such
    /// a field is actually parsed.
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content
            .as_str("&str")
            .map(|s| &*Box::leak(s.to_owned().into_boxed_str()))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        T::from_content(content).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        self.as_slice().to_content()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content.as_seq("Vec")?.iter().map(T::from_content).collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_content(&self) -> Content {
        self.as_slice().to_content()
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let items = content.as_seq("array")?;
        if items.len() != N {
            return Err(DeError::custom(format!(
                "expected array of length {N}, got {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items
            .iter()
            .map(T::from_content)
            .collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| DeError::custom("array length mismatch"))
    }
}

impl Serialize for () {
    fn to_content(&self) -> Content {
        Content::Null
    }
}

impl<'de> Deserialize<'de> for () {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Null => Ok(()),
            other => Err(DeError::unexpected("unit", "null", other)),
        }
    }
}

macro_rules! impl_tuple {
    ($($idx:tt : $t:ident),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$idx.to_content()),+])
            }
        }
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                let items = content.as_seq("tuple")?;
                let expected = [$(stringify!($t)),+].len();
                if items.len() != expected {
                    return Err(DeError::custom(format!(
                        "expected tuple of length {expected}, got {}", items.len())));
                }
                Ok(($($t::from_content(&items[$idx])?,)+))
            }
        }
    };
}

impl_tuple!(0: A);
impl_tuple!(0: A, 1: B);
impl_tuple!(0: A, 1: B, 2: C);
impl_tuple!(0: A, 1: B, 2: C, 3: D);
impl_tuple!(0: A, 1: B, 2: C, 3: D, 4: E);
impl_tuple!(0: A, 1: B, 2: C, 3: D, 4: E, 5: F);

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_content(), v.to_content()))
                .collect(),
        )
    }
}

/// A map key: JSON object keys arrive as strings, so a key that is not a
/// `K` as it stands is read once more as the integer its text spells. This
/// is the one place a quoted integer reads as an integer.
fn map_key<'de, K: Deserialize<'de>>(key: &Content) -> Result<K, DeError> {
    K::from_content(key).or_else(|err| {
        let integer = match key {
            Content::Str(s) => s
                .parse::<u128>()
                .map(Content::U128)
                .or_else(|_| s.parse::<i128>().map(Content::I128))
                .map_err(|_| err)?,
            _ => return Err(err),
        };
        K::from_content(&integer)
    })
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content
            .as_map("BTreeMap")?
            .iter()
            .map(|(k, v)| Ok((map_key(k)?, V::from_content(v)?)))
            .collect()
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn to_content(&self) -> Content {
        // Deterministic export order even from a randomized-layout map.
        let mut entries: Vec<(Content, Content)> = self
            .iter()
            .map(|(k, v)| (k.to_content(), v.to_content()))
            .collect();
        entries.sort_by_key(|a| content_sort_key(&a.0));
        Content::Map(entries)
    }
}

impl<'de, K: Deserialize<'de> + Eq + Hash, V: Deserialize<'de>> Deserialize<'de> for HashMap<K, V> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content
            .as_map("HashMap")?
            .iter()
            .map(|(k, v)| Ok((map_key(k)?, V::from_content(v)?)))
            .collect()
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content
            .as_seq("BTreeSet")?
            .iter()
            .map(T::from_content)
            .collect()
    }
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn to_content(&self) -> Content {
        let mut items: Vec<Content> = self.iter().map(Serialize::to_content).collect();
        items.sort_by_key(content_sort_key);
        Content::Seq(items)
    }
}

impl<'de, T: Deserialize<'de> + Eq + Hash> Deserialize<'de> for HashSet<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content
            .as_seq("HashSet")?
            .iter()
            .map(T::from_content)
            .collect()
    }
}

/// A total order over content trees used to canonicalize hash-based
/// collections (debug formatting is stable and order-preserving).
fn content_sort_key(c: &Content) -> String {
    format!("{c:?}")
}
