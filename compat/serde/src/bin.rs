//! The streaming binary codec — the only thing the `serde` stand-in's
//! `Serialize`/`Deserialize` traits mean.
//!
//! A direct byte-stream codec: [`to_vec`] walks the value exactly once,
//! appending little-endian bytes to one output buffer, and
//! [`from_slice`] rebuilds it with a borrowing cursor ([`Reader`]) — no
//! intermediate tree, no text. It is the wire format of the runtime
//! (see the workspace README's "wire format" section).
//!
//! ## Encoding rules
//!
//! The format is positional and schema-driven — no field names, no
//! self-description. Encoder and decoder must agree on the type, which
//! is exactly the property the wire-version tag in
//! `spotless-runtime::envelope` enforces cluster-wide.
//!
//! | shape                    | encoding                                         |
//! |--------------------------|--------------------------------------------------|
//! | `u8`                     | 1 raw byte                                       |
//! | `u16`/`u32`/`u64`/`usize`| LEB128 varint (7 bits per byte, little-endian)   |
//! | `i8`..`i64`              | zigzag, then varint                              |
//! | `bool`                   | 1 byte, `0`/`1` (anything else rejected)         |
//! | `f32`/`f64`              | raw IEEE-754 bits, little-endian                 |
//! | `String`/`str`/`char`    | varint byte length + UTF-8 bytes / scalar varint |
//! | `Vec<T>` / `[T]`         | varint element count + elements                  |
//! | `Vec<u8>` / `[u8]`       | varint byte length + raw bytes (memcpy)          |
//! | `[T; N]`                 | N elements, no length prefix                     |
//! | `Option<T>`              | 1 tag byte (`0` none / `1` some) + payload       |
//! | tuple / struct           | fields in declaration order                      |
//! | enum                     | varint variant index (declaration order) + fields|
//! | `BTreeMap<K, V>`         | varint entry count + `(k, v)` pairs in key order |
//!
//! Varints are **canonical**: the minimal-length encoding is the only
//! accepted one (a non-minimal final `0x00` continuation byte is
//! rejected). Together with the rules above this makes the encoding of
//! a value *injective*, which is what lets sealed envelope payloads
//! double as the canonical signed-bytes form.
//!
//! Decoding is fail-closed: truncation, trailing bytes (in
//! [`from_slice`]), out-of-range tags, non-UTF-8 strings, and length
//! prefixes that promise more elements than the remaining input could
//! possibly hold (each element costs ≥ 1 byte) are all errors, never
//! panics or over-allocations.

use crate::{Deserialize, Error, Serialize};

/// Longest legal `u64` varint: ⌈64 / 7⌉ bytes.
const MAX_VARINT_BYTES: usize = 10;

/// Appends the canonical LEB128 encoding of `v`.
pub fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a length prefix (varint of `len`).
pub fn write_len(len: usize, out: &mut Vec<u8>) {
    write_varint(len as u64, out);
}

/// Zigzag-maps a signed integer into the varint domain.
pub fn write_varint_signed(v: i64, out: &mut Vec<u8>) {
    write_varint(((v << 1) ^ (v >> 63)) as u64, out);
}

/// A borrowing cursor over binary input. All reads are bounds-checked
/// and advance the cursor; any failure is a clean [`Error`].
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// True iff the input is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.bytes.len() < n {
            return Err(Error::custom("truncated binary input"));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// Takes one byte.
    pub fn byte(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    /// Reads a canonical LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, Error> {
        let mut value = 0u64;
        for i in 0..MAX_VARINT_BYTES {
            let byte = self.byte()?;
            let bits = u64::from(byte & 0x7f);
            // The 10th byte may only carry the single remaining bit.
            if i == MAX_VARINT_BYTES - 1 && bits > 1 {
                return Err(Error::custom("varint overflows u64"));
            }
            value |= bits << (7 * i);
            if byte & 0x80 == 0 {
                // Canonical form: no zero-valued continuation tail.
                if i > 0 && byte == 0 {
                    return Err(Error::custom("non-canonical varint"));
                }
                return Ok(value);
            }
        }
        Err(Error::custom("varint longer than 10 bytes"))
    }

    /// Reads a zigzag-varint signed integer.
    pub fn varint_signed(&mut self) -> Result<i64, Error> {
        let raw = self.varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Reads a length prefix and sanity-bounds it against the remaining
    /// input: every element of a sequence costs at least one encoded
    /// byte, so a count above `remaining()` is a malformed frame, not
    /// data — rejecting it here keeps a hostile length prefix from
    /// driving a huge allocation or a long decode loop.
    pub fn len(&mut self) -> Result<usize, Error> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(Error::custom("length prefix exceeds input"));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte string as a borrowed slice of the
    /// input — the exact wire shape `Vec<u8>` encodes to (see
    /// `Serialize::ser_bin_slice` specialization for `u8`), without the
    /// copy. This is the primitive borrowing decoders build on: take
    /// the bytes in place, convert to owned only where the value must
    /// outlive the receive buffer.
    pub fn bytes(&mut self) -> Result<&'a [u8], Error> {
        let n = self.len()?;
        self.take(n)
    }
}

/// Encodes `value` into a fresh buffer. Infallible: the binary encoder
/// has no unrepresentable values.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    value.ser_bin(&mut out);
    out
}

/// Decodes a `T` from `bytes`, requiring the input to be fully
/// consumed (trailing bytes are an error).
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut r = Reader::new(bytes);
    let value = T::de_bin(&mut r)?;
    if !r.is_empty() {
        return Err(Error::custom("trailing bytes after value"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_across_the_domain() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            assert!(buf.len() <= MAX_VARINT_BYTES);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn non_canonical_varints_are_rejected() {
        // 0 encoded with a gratuitous continuation byte.
        let mut r = Reader::new(&[0x80, 0x00]);
        assert!(r.varint().is_err());
        // 1 with a trailing zero continuation.
        let mut r = Reader::new(&[0x81, 0x00]);
        assert!(r.varint().is_err());
        // Canonical single zero byte is fine.
        let mut r = Reader::new(&[0x00]);
        assert_eq!(r.varint().unwrap(), 0);
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 11 continuation bytes.
        let mut r = Reader::new(&[0xff; 11]);
        assert!(r.varint().is_err());
        // 10 bytes whose last carries more than the one legal bit.
        let mut bytes = [0xffu8; 10];
        bytes[9] = 0x02;
        let mut r = Reader::new(&bytes);
        assert!(r.varint().is_err());
    }

    #[test]
    fn signed_zigzag_roundtrips() {
        for v in [0i64, 1, -1, 63, -64, i32::MAX as i64, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            write_varint_signed(v, &mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint_signed().unwrap(), v);
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // Claims 2^40 u8 elements with 3 bytes of input behind it.
        let mut buf = Vec::new();
        write_varint(1 << 40, &mut buf);
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(from_slice::<Vec<u8>>(&buf).is_err());
        assert!(from_slice::<Vec<u64>>(&buf).is_err());
    }

    #[test]
    fn borrowed_bytes_match_owned_vec_decode() {
        let payload: Vec<u8> = (0..100u8).collect();
        let enc = to_vec(&payload);
        let mut r = Reader::new(&enc);
        assert_eq!(r.bytes().unwrap(), &payload[..]);
        assert!(r.is_empty());
        assert_eq!(from_slice::<Vec<u8>>(&enc).unwrap(), payload);
        // Hostile length prefixes fail exactly like the owned path.
        let mut bad = Vec::new();
        write_varint(1 << 40, &mut bad);
        bad.extend_from_slice(&[1, 2, 3]);
        assert!(Reader::new(&bad).bytes().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = to_vec(&7u64);
        buf.push(0);
        assert!(from_slice::<u64>(&buf).is_err());
    }

    #[test]
    fn map_decode_enforces_canonical_key_order() {
        use std::collections::BTreeMap;
        let map: BTreeMap<u32, u32> = [(1, 10), (2, 20)].into_iter().collect();
        let enc = to_vec(&map);
        assert_eq!(from_slice::<BTreeMap<u32, u32>>(&enc).unwrap(), map);
        // Same entries, swapped order: a different byte string must not
        // decode to the same value (injectivity of the encoding).
        let mut swapped = Vec::new();
        write_len(2, &mut swapped);
        for (k, v) in [(2u32, 20u32), (1, 10)] {
            k.ser_bin(&mut swapped);
            v.ser_bin(&mut swapped);
        }
        assert!(from_slice::<BTreeMap<u32, u32>>(&swapped).is_err());
        // Duplicate keys likewise.
        let mut dup = Vec::new();
        write_len(2, &mut dup);
        for (k, v) in [(1u32, 10u32), (1, 20)] {
            k.ser_bin(&mut dup);
            v.ser_bin(&mut dup);
        }
        assert!(from_slice::<BTreeMap<u32, u32>>(&dup).is_err());
    }
}
