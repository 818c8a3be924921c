//! A small, offline stand-in for the `serde` crate.
//!
//! The build environment for this workspace has no access to a crate registry, so the
//! subset of serde the codebase relies on — `#[derive(Serialize, Deserialize)]` on
//! plain structs and enums, driven by `bincode`-style binary encoding — is implemented
//! here. The traits are deliberately simpler than real serde's (no `Serializer` /
//! `Deserializer` abstraction, a single fixed little-endian binary format), which is
//! all the workspace needs: the only consumer is the pulse-cache snapshot persistence
//! in `vqc-runtime` via the sibling `bincode` shim.
//!
//! Wire format:
//! * fixed-width little-endian integers and floats (`usize` as `u64`),
//! * `bool` as one byte, `char` as its `u32` scalar value,
//! * length-prefixed (`u64`) sequences, strings, and maps,
//! * `Option` as a one-byte tag followed by the payload,
//! * enums as a `u32` variant index followed by the variant's fields in order.

pub mod ser {
    /// Types that can write themselves into the workspace binary format.
    pub trait Serialize {
        /// Appends the binary encoding of `self` to `out`.
        fn serialize(&self, out: &mut Vec<u8>);
    }
}

pub mod de {
    use std::fmt;

    /// Error produced when a byte buffer does not decode as the requested type.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error {
        message: String,
    }

    impl Error {
        /// Creates an error with the given message.
        pub fn custom(message: impl Into<String>) -> Self {
            Error {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "deserialization error: {}", self.message)
        }
    }

    impl std::error::Error for Error {}

    /// Cursor over a byte buffer being deserialized.
    #[derive(Debug)]
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Creates a reader over the full buffer.
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        /// Number of bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        /// Consumes exactly `n` bytes.
        pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
            if self.remaining() < n {
                return Err(Error::custom(format!(
                    "unexpected end of input: wanted {n} bytes, have {}",
                    self.remaining()
                )));
            }
            let slice = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(slice)
        }

        /// Consumes a fixed-size array of bytes.
        pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
            let mut out = [0u8; N];
            out.copy_from_slice(self.take(N)?);
            Ok(out)
        }

        /// Consumes a `u64` length prefix, sanity-checked against the remaining input.
        pub fn take_len(&mut self) -> Result<usize, Error> {
            let len = u64::from_le_bytes(self.take_array()?) as usize;
            // Every element of a sequence occupies at least one byte on the wire, so a
            // length prefix larger than the remaining input is always corrupt; checking
            // here keeps bad snapshots from triggering huge allocations.
            if len > self.remaining() {
                return Err(Error::custom(format!(
                    "length prefix {len} exceeds remaining input {}",
                    self.remaining()
                )));
            }
            Ok(len)
        }
    }

    /// Types that can reconstruct themselves from the workspace binary format.
    pub trait Deserialize: Sized {
        /// Reads one value from the reader.
        fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error>;
    }
}

pub use de::Deserialize;
pub use ser::Serialize;
// Re-export the derive macros under the same names, mirroring serde's `derive` feature.
pub use serde_derive::{Deserialize, Serialize};

use de::{Error, Reader};

macro_rules! impl_fixed_width {
    ($($ty:ty),*) => {$(
        impl ser::Serialize for $ty {
            fn serialize(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl de::Deserialize for $ty {
            fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
                Ok(<$ty>::from_le_bytes(reader.take_array()?))
            }
        }
    )*};
}

impl_fixed_width!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

impl ser::Serialize for usize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as u64).serialize(out);
    }
}

impl de::Deserialize for usize {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let value = u64::deserialize(reader)?;
        usize::try_from(value).map_err(|_| Error::custom("usize overflow"))
    }
}

impl ser::Serialize for isize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as i64).serialize(out);
    }
}

impl de::Deserialize for isize {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let value = i64::deserialize(reader)?;
        isize::try_from(value).map_err(|_| Error::custom("isize overflow"))
    }
}

impl ser::Serialize for bool {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl de::Deserialize for bool {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        match reader.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::custom(format!("invalid bool byte {other}"))),
        }
    }
}

impl ser::Serialize for char {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as u32).serialize(out);
    }
}

impl de::Deserialize for char {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let value = u32::deserialize(reader)?;
        char::from_u32(value).ok_or_else(|| Error::custom(format!("invalid char scalar {value}")))
    }
}

impl ser::Serialize for String {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl de::Deserialize for String {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let len = reader.take_len()?;
        let bytes = reader.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::custom("invalid utf-8 string"))
    }
}

impl ser::Serialize for str {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl<T: ser::Serialize + ?Sized> ser::Serialize for &T {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

impl<T: ser::Serialize + ?Sized> ser::Serialize for Box<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

impl<T: de::Deserialize> de::Deserialize for Box<T> {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(Box::new(T::deserialize(reader)?))
    }
}

impl<T: ser::Serialize> ser::Serialize for Option<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.serialize(out);
            }
        }
    }
}

impl<T: de::Deserialize> de::Deserialize for Option<T> {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        match reader.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::deserialize(reader)?)),
            other => Err(Error::custom(format!("invalid option tag {other}"))),
        }
    }
}

impl<T: ser::Serialize, E: ser::Serialize> ser::Serialize for Result<T, E> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            Ok(value) => {
                out.push(0);
                value.serialize(out);
            }
            Err(error) => {
                out.push(1);
                error.serialize(out);
            }
        }
    }
}

impl<T: de::Deserialize, E: de::Deserialize> de::Deserialize for Result<T, E> {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        match reader.take(1)?[0] {
            0 => Ok(Ok(T::deserialize(reader)?)),
            1 => Ok(Err(E::deserialize(reader)?)),
            other => Err(Error::custom(format!("invalid result tag {other}"))),
        }
    }
}

fn serialize_seq<'a, T: ser::Serialize + 'a>(
    items: impl ExactSizeIterator<Item = &'a T>,
    out: &mut Vec<u8>,
) {
    (items.len() as u64).serialize(out);
    for item in items {
        item.serialize(out);
    }
}

impl<T: ser::Serialize> ser::Serialize for Vec<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: de::Deserialize> de::Deserialize for Vec<T> {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let len = reader.take_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::deserialize(reader)?);
        }
        Ok(out)
    }
}

impl<T: ser::Serialize> ser::Serialize for [T] {
    fn serialize(&self, out: &mut Vec<u8>) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: ser::Serialize, const N: usize> ser::Serialize for [T; N] {
    fn serialize(&self, out: &mut Vec<u8>) {
        for item in self {
            item.serialize(out);
        }
    }
}

impl<T: de::Deserialize + std::fmt::Debug, const N: usize> de::Deserialize for [T; N] {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::deserialize(reader)?);
        }
        out.try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }
}

impl<T: ser::Serialize + Ord> ser::Serialize for std::collections::BTreeSet<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: de::Deserialize + Ord> de::Deserialize for std::collections::BTreeSet<T> {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let len = reader.take_len()?;
        let mut out = std::collections::BTreeSet::new();
        for _ in 0..len {
            out.insert(T::deserialize(reader)?);
        }
        Ok(out)
    }
}

impl<T: ser::Serialize + Eq + std::hash::Hash> ser::Serialize for std::collections::HashSet<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: de::Deserialize + Eq + std::hash::Hash> de::Deserialize for std::collections::HashSet<T> {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let len = reader.take_len()?;
        let mut out = std::collections::HashSet::with_capacity(len);
        for _ in 0..len {
            out.insert(T::deserialize(reader)?);
        }
        Ok(out)
    }
}

impl<K: ser::Serialize + Ord, V: ser::Serialize> ser::Serialize
    for std::collections::BTreeMap<K, V>
{
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for (key, value) in self {
            key.serialize(out);
            value.serialize(out);
        }
    }
}

impl<K: de::Deserialize + Ord, V: de::Deserialize> de::Deserialize
    for std::collections::BTreeMap<K, V>
{
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let len = reader.take_len()?;
        let mut out = std::collections::BTreeMap::new();
        for _ in 0..len {
            let key = K::deserialize(reader)?;
            let value = V::deserialize(reader)?;
            out.insert(key, value);
        }
        Ok(out)
    }
}

impl<K: ser::Serialize + Eq + std::hash::Hash, V: ser::Serialize> ser::Serialize
    for std::collections::HashMap<K, V>
{
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for (key, value) in self {
            key.serialize(out);
            value.serialize(out);
        }
    }
}

impl<K: de::Deserialize + Eq + std::hash::Hash, V: de::Deserialize> de::Deserialize
    for std::collections::HashMap<K, V>
{
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let len = reader.take_len()?;
        let mut out = std::collections::HashMap::with_capacity(len);
        for _ in 0..len {
            let key = K::deserialize(reader)?;
            let value = V::deserialize(reader)?;
            out.insert(key, value);
        }
        Ok(out)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: ser::Serialize),+> ser::Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut Vec<u8>) {
                $(self.$idx.serialize(out);)+
            }
        }
        impl<$($name: de::Deserialize),+> de::Deserialize for ($($name,)+) {
            fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
                Ok(($($name::deserialize(reader)?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

impl ser::Serialize for () {
    fn serialize(&self, _out: &mut Vec<u8>) {}
}

impl de::Deserialize for () {
    fn deserialize(_reader: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::de::Reader;
    use super::{Deserialize, Serialize};
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: T) {
        let mut bytes = Vec::new();
        value.serialize(&mut bytes);
        let mut reader = Reader::new(&bytes);
        let back = T::deserialize(&mut reader).expect("round trip");
        assert_eq!(back, value);
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(42u64);
        round_trip(-17i32);
        round_trip(3.5f64);
        round_trip(true);
        round_trip('θ');
        round_trip(String::from("pulse library"));
        round_trip(usize::MAX);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1.0f64, -2.5, 0.0]);
        round_trip(Some(vec![(1usize, 2usize), (3, 4)]));
        round_trip(Option::<u8>::None);
        round_trip(BTreeSet::from([(0usize, 1usize), (1, 2)]));
        round_trip(BTreeMap::from([(String::from("a"), 1u32)]));
        round_trip(HashMap::from([(String::from("k"), vec![1u8, 2])]));
    }

    #[test]
    fn results_round_trip() {
        round_trip(Result::<u32, String>::Ok(7));
        round_trip(Result::<u32, String>::Err(String::from("queue full")));
        round_trip(vec![
            Result::<f64, u8>::Ok(1.5),
            Result::<f64, u8>::Err(3),
            Result::<f64, u8>::Ok(-0.25),
        ]);
        let mut bytes = Vec::new();
        2u8.serialize(&mut bytes); // neither the Ok nor the Err tag
        let mut reader = Reader::new(&bytes);
        assert!(Result::<u32, u32>::deserialize(&mut reader).is_err());
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut bytes = Vec::new();
        vec![1u64, 2, 3].serialize(&mut bytes);
        bytes.truncate(bytes.len() - 1);
        let mut reader = Reader::new(&bytes);
        assert!(Vec::<u64>::deserialize(&mut reader).is_err());
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let bytes = u64::MAX.to_le_bytes();
        let mut reader = Reader::new(&bytes);
        assert!(Vec::<u8>::deserialize(&mut reader).is_err());
    }
}
