//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to crates.io,
//! so the workspace ships minimal, API-compatible stand-ins for the
//! external crates the tree was written against. This one provides the
//! `Serialize`/`Deserialize` traits (and re-exports their derives from
//! `serde_derive`) with **one backend** instead of serde's generic
//! visitor architecture: a streaming binary codec (`ser_bin`/`de_bin`,
//! see [`bin`]) that writes compact little-endian bytes directly to one
//! buffer with no intermediate tree — the wire format of the runtime.
//!
//! The JSON-shaped [`Value`] tree lives here too, but only as a plain
//! data model: it implements neither trait, and no derived type has a
//! JSON form. `serde_json` renders and parses it as JSON text for the
//! bench tables and the deployment benchmark's tests.
//!
//! Swapping the real crates back in is a one-line `Cargo.toml` change
//! per crate (the binary codec then maps onto a real serde binary
//! format such as bincode).

pub use serde_derive::{Deserialize, Serialize};

pub mod bin;
pub mod value;

pub use value::{Map, Value};

/// Error type shared by serialization and deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Builds an error carrying `msg`.
    pub fn custom(msg: impl std::fmt::Display) -> Error {
        Error(msg.to_string())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// A type that can be streamed to binary bytes (see [`bin`]).
pub trait Serialize {
    /// Appends the binary encoding of `self` to `out` (see the format
    /// table in [`bin`]). Streaming by construction: no intermediate
    /// value is ever built.
    fn ser_bin(&self, out: &mut Vec<u8>);

    /// Binary-encodes a length-prefixed slice: varint count, then the
    /// elements via [`Serialize::ser_bin_elems`].
    fn ser_bin_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        bin::write_len(items.len(), out);
        Self::ser_bin_elems(items, out);
    }

    /// Binary-encodes the raw elements of a slice with **no** length
    /// prefix (fixed-size arrays carry their length in the type). The
    /// `u8` override is a single `extend_from_slice` — the memcpy that
    /// makes byte payloads free.
    fn ser_bin_elems(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.ser_bin(out);
        }
    }
}

/// A type that can be rebuilt from a binary [`bin::Reader`] cursor.
pub trait Deserialize: Sized {
    /// Deserializes from the binary cursor, consuming exactly this
    /// value's bytes.
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error>;

    /// Deserializes a length-prefixed `Vec<Self>` (inverse of
    /// [`Serialize::ser_bin_slice`]). The length prefix is
    /// sanity-bounded against the remaining input before any
    /// allocation.
    fn de_bin_slice(r: &mut bin::Reader<'_>) -> Result<Vec<Self>, Error> {
        let n = r.len()?;
        Self::de_bin_elems(r, n)
    }

    /// Deserializes exactly `n` elements with no length prefix (the
    /// fixed-array form). The `u8` override is a bounds-checked memcpy.
    fn de_bin_elems(r: &mut bin::Reader<'_>, n: usize) -> Result<Vec<Self>, Error> {
        // `Reader::len` bounds `n` by the bytes left, but an element in
        // memory can be far larger than its smallest encoding (a
        // 40-byte struct may encode in 33), so `n` elements of
        // reservation could be tens of times the input: cap it at what
        // the bytes left would fill at one byte per byte. A genuine
        // list longer than that grows as it decodes.
        let cap = r.remaining() / std::mem::size_of::<Self>().max(1);
        let mut out = Vec::with_capacity(n.min(cap));
        for _ in 0..n {
            out.push(Self::de_bin(r)?);
        }
        Ok(out)
    }

    /// Deserializes a fixed-size array: [`de_bin_elems`] for `N`, then
    /// into the array. The `u8` override copies the bytes straight into
    /// the array, with no `Vec` in between.
    ///
    /// [`de_bin_elems`]: Deserialize::de_bin_elems
    fn de_bin_array<const N: usize>(r: &mut bin::Reader<'_>) -> Result<[Self; N], Error> {
        Self::de_bin_elems(r, N)?
            .try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn ser_bin(&self, out: &mut Vec<u8>) {
                bin::write_varint(u64::from(*self), out);
            }
        }
        impl Deserialize for $t {
            fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
                <$t>::try_from(r.varint()?).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_unsigned!(u16, u32, u64);

// `u8` gets the integer impls by hand so its *slice* forms can override
// the defaults with a raw memcpy.
impl Serialize for u8 {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn ser_bin_elems(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
}

impl Deserialize for u8 {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        r.byte()
    }

    fn de_bin_elems(r: &mut bin::Reader<'_>, n: usize) -> Result<Vec<Self>, Error> {
        Ok(r.take(n)?.to_vec())
    }

    fn de_bin_array<const N: usize>(r: &mut bin::Reader<'_>) -> Result<[u8; N], Error> {
        let mut out = [0; N];
        out.copy_from_slice(r.take(N)?);
        Ok(out)
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn ser_bin(&self, out: &mut Vec<u8>) {
                bin::write_varint_signed(i64::from(*self), out);
            }
        }
        impl Deserialize for $t {
            fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
                <$t>::try_from(r.varint_signed()?)
                    .map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64);

impl Serialize for usize {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        bin::write_varint(*self as u64, out);
    }
}

impl Deserialize for usize {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        usize::try_from(r.varint()?).map_err(|_| Error::custom("integer out of range"))
    }
}

impl Serialize for bool {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Deserialize for bool {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Error::custom("invalid bool byte")),
        }
    }
}

impl Serialize for f64 {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Deserialize for f64 {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        Ok(f64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes")))
    }
}

impl Serialize for f32 {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Deserialize for f32 {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        Ok(f32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")))
    }
}

impl Serialize for String {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        self.as_str().ser_bin(out);
    }
}

impl Deserialize for String {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        let n = r.len()?;
        std::str::from_utf8(r.take(n)?)
            .map(str::to_owned)
            .map_err(|_| Error::custom("invalid utf-8 in string"))
    }
}

impl Serialize for str {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        bin::write_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Serialize for char {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        bin::write_varint(u64::from(u32::from(*self)), out);
    }
}

impl Deserialize for char {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        let scalar = u32::try_from(r.varint()?).map_err(|_| Error::custom("char out of range"))?;
        char::from_u32(scalar).ok_or_else(|| Error::custom("invalid char scalar"))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        T::ser_bin_slice(self, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        T::de_bin_slice(r)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        T::ser_bin_slice(self, out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        // Fixed arity: the length lives in the type, not the stream.
        T::ser_bin_elems(self, out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        T::de_bin_array(r)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        match self {
            Some(inner) => {
                out.push(1);
                inner.ser_bin(out);
            }
            None => out.push(0),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::de_bin(r)?)),
            _ => Err(Error::custom("invalid option tag")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        (**self).ser_bin(out);
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        (**self).ser_bin(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        Ok(Box::new(T::de_bin(r)?))
    }
}

impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        (**self).ser_bin(out);
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        Ok(std::sync::Arc::new(T::de_bin(r)?))
    }
}

impl<T: Serialize> Serialize for std::rc::Rc<T> {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        (**self).ser_bin(out);
    }
}

impl<T: Deserialize> Deserialize for std::rc::Rc<T> {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        Ok(std::rc::Rc::new(T::de_bin(r)?))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+)),*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn ser_bin(&self, out: &mut Vec<u8>) {
                $(self.$idx.ser_bin(out);)+
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
                Ok(($(
                    {
                        let _ = $idx; // positional marker
                        $name::de_bin(r)?
                    },
                )+))
            }
        }
    )*};
}

impl_tuple!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

impl<K: Serialize + Ord, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn ser_bin(&self, out: &mut Vec<u8>) {
        bin::write_len(self.len(), out);
        for (k, v) in self {
            k.ser_bin(out);
            v.ser_bin(out);
        }
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn de_bin(r: &mut bin::Reader<'_>) -> Result<Self, Error> {
        let n = r.len()?;
        let mut map = std::collections::BTreeMap::new();
        for _ in 0..n {
            let k = K::de_bin(r)?;
            let v = V::de_bin(r)?;
            // Canonical form is strictly ascending key order — the
            // only order the encoder emits. Accepting permutations or
            // duplicates would make decoding non-injective (two byte
            // strings mapping to one value), undermining the
            // canonical-signed-bytes property the codec promises.
            match map.last_key_value() {
                Some((last, _)) if *last >= k => {
                    return Err(Error::custom("map keys out of order or duplicated"));
                }
                _ => {}
            }
            map.insert(k, v);
        }
        Ok(map)
    }
}
