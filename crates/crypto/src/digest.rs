//! Digest helpers bridging the from-scratch SHA-256 to the workspace-wide
//! [`Digest`] carrier type.

use crate::sha256::{digest_assembled, digest_parts, Sha256, TWO_BLOCK_MAX};
use spotless_types::Digest;

/// Hashes arbitrary bytes into a [`Digest`].
pub fn digest_bytes(data: &[u8]) -> Digest {
    Digest(Sha256::digest(data))
}

/// Hashes a sequence of labelled fields into a [`Digest`]. Fields are
/// length-prefixed so `("ab", "c")` and `("a", "bc")` cannot collide —
/// the usual domain-separation requirement for signing structured
/// messages (§2's `digest(v)` is over the canonical encoding of `v`).
#[inline(always)]
pub fn digest_fields(fields: &[&[u8]]) -> Digest {
    let encoded: usize = fields.iter().map(|field| 8 + field.len()).sum();
    if encoded > TWO_BLOCK_MAX {
        return digest_fields_streamed(fields);
    }
    // Small enough for the one-shot path (a KV record over a short
    // value, a vote statement): serialize on the stack. Inlined, so
    // the copies of a caller's fixed-size fields are fixed-size.
    Digest(digest_assembled(|message| {
        let mut at = 0;
        for field in fields {
            message[at..at + 8].copy_from_slice(&(field.len() as u64).to_be_bytes());
            message[at + 8..at + 8 + field.len()].copy_from_slice(field);
            at += 8 + field.len();
        }
        at
    }))
}

fn digest_fields_streamed(fields: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for field in fields {
        h.update(&(field.len() as u64).to_be_bytes());
        h.update(field);
    }
    Digest(h.finalize())
}

/// A chained digest: `H(parent ‖ item)`, used by the ledger to maintain
/// the hash chain over committed blocks.
pub fn digest_chained(parent: &Digest, item: &Digest) -> Digest {
    Digest(digest_parts(&[&parent.0, &item.0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_bytes_matches_sha256() {
        assert_eq!(digest_bytes(b"abc").0, Sha256::digest(b"abc"));
    }

    #[test]
    fn field_hashing_is_injective_across_boundaries() {
        let a = digest_fields(&[b"ab", b"c"]);
        let b = digest_fields(&[b"a", b"bc"]);
        let c = digest_fields(&[b"abc"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn chained_digest_depends_on_both_inputs() {
        let p1 = digest_bytes(b"p1");
        let p2 = digest_bytes(b"p2");
        let x = digest_bytes(b"x");
        assert_ne!(digest_chained(&p1, &x), digest_chained(&p2, &x));
        assert_ne!(digest_chained(&p1, &x), digest_chained(&p1, &p1));
    }
}
