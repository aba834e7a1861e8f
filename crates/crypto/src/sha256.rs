//! SHA-256 (FIPS 180-4): one block-oriented implementation with two
//! compression kernels under it.
//!
//! The paper's authentication layer (§2) needs a collision-resistant hash
//! both for message digests (`digest(v)`) and as the compression core of
//! the HMAC construction used for MACs, and since the state root became
//! incremental almost all of sealing a block is this function over 33-
//! to 160-byte messages. The repository carries its own substrate
//! rather than a dependency: the round constants, the padding and the
//! portable compression are written out here from the standard.
//!
//! # Shape
//!
//! Everything funnels into one internal `compress_blocks(state, blocks)`
//! that folds whole 64-byte blocks straight from the caller's slice.
//! Two entrances sit on top of it:
//!
//! * [`Sha256`], the buffering hasher, for messages that arrive in
//!   pieces or run long — it copies only the bytes that straddle a
//!   block boundary;
//! * `digest_parts`, the one-shot over a few slices. A message of at
//!   most 119 bytes — every Merkle node (65 B), leaf over a digest
//!   (33 B), chain link (64 B) and small length-prefixed record
//!   (`digest_fields`, through `digest_assembled`) — fits two padded
//!   blocks, so it is written once, with its padding, into those two
//!   blocks on the stack and compressed in **one** call with no hasher
//!   state at all. The choice is by length alone; anything longer goes
//!   through the hasher. [`Sha256::digest`] is this with one part.
//!
//! # Kernels
//!
//! `compress_blocks` runs on the x86-64 SHA extensions when the CPU has
//! them (`sha` + `ssse3` + `sse4.1`, detected once and cached) and on
//! the portable FIPS 180-4 transcription otherwise ([`kernel`] says
//! which). The selection reads the CPU — there is no cargo feature,
//! environment variable or setting that picks a kernel. The portable
//! function stays for two reasons: it is the only path on every other
//! CPU, and it is the oracle — [`portable_digest`] calls it directly,
//! whatever the CPU, and the tests below hold the dispatched path equal
//! to it over every length to 4 096 and random `update` splits, next to
//! the NIST vectors (run against both) and the `sha2` cross-check.
//!
//! The intrinsics need one `unsafe` call, so the crate is
//! `#![deny(unsafe_code)]` with a single `#[allow(unsafe_code)]` on the
//! private `ni` module, which exposes one safe function.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size of SHA-256 in bytes (relevant to HMAC key processing).
pub const BLOCK_LEN: usize = 64;

/// SHA-224/256 round constants: the first 32 bits of the fractional parts
/// of the cube roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Longest message whose padding — `0x80` and the 8-byte bit length —
/// still fits in its second block.
pub(crate) const TWO_BLOCK_MAX: usize = 2 * BLOCK_LEN - 9;

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes hashed so far (for the length suffix in padding).
    len: u64,
    /// Partially filled block.
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    #[inline]
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        // Fill the partial block first.
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
        }
        // Whole blocks straight from the input, the tail stashed.
        let (whole, tail) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        if !whole.is_empty() {
            compress_blocks(&mut self.state, whole);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    #[inline]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut end = [0u8; 2 * BLOCK_LEN];
        end[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        finish(compress_blocks, self.state, end, self.buf_len, self.len)
    }

    /// One-shot convenience.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        digest_parts(&[data])
    }
}

/// SHA-256 of the concatenation of `parts`. A message that fits two
/// padded blocks is laid out on the stack and compressed in one call;
/// a longer one streams through the hasher. Always inlined, so that a
/// caller with fixed part lengths (a Merkle node, a chain link)
/// compiles to fixed copies and no length test at all.
#[inline(always)]
pub(crate) fn digest_parts(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let total: usize = parts.iter().map(|part| part.len()).sum();
    if total > TWO_BLOCK_MAX {
        return digest_streamed(parts);
    }
    digest_assembled(|message| {
        let mut filled = 0;
        for part in parts {
            message[filled..filled + part.len()].copy_from_slice(part);
            filled += part.len();
        }
        filled
    })
}

/// SHA-256 of a message of at most [`TWO_BLOCK_MAX`] bytes that `write`
/// lays out at the front of the zeroed slice it is handed, returning
/// the length: the slice is the message's own padded blocks, on the
/// stack, so nothing is copied twice and the one or two blocks are
/// compressed in one call.
#[inline(always)]
pub(crate) fn digest_assembled(write: impl FnOnce(&mut [u8]) -> usize) -> [u8; DIGEST_LEN] {
    let mut end = [0u8; 2 * BLOCK_LEN];
    let filled = write(&mut end[..TWO_BLOCK_MAX]);
    finish(compress_blocks, H0, end, filled, filled as u64)
}

/// [`digest_parts`] for a message of any length.
fn digest_streamed(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut hasher = Sha256::new();
    for part in parts {
        hasher.update(part);
    }
    hasher.finalize()
}

/// SHA-256 of `data` through the portable compression alone, whatever
/// the CPU: the oracle the dispatched path is tested against, and the
/// baseline row of the `micro_components` bench. Not for production
/// callers — [`Sha256::digest`] is never slower.
pub fn portable_digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let (whole, tail) = data.split_at(data.len() - data.len() % BLOCK_LEN);
    let mut state = H0;
    compress_blocks_portable(&mut state, whole);
    let mut end = [0u8; 2 * BLOCK_LEN];
    end[..tail.len()].copy_from_slice(tail);
    finish(
        compress_blocks_portable,
        state,
        end,
        tail.len(),
        data.len() as u64,
    )
}

/// The compression kernel this process hashes with: `"sha-ni"` when the
/// CPU has the x86-64 SHA extensions, `"portable"` otherwise. Benches
/// and CI print it so a machine testing only one path says so.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if ni::compress_blocks(&mut [0; 8], &[]) {
        return "sha-ni";
    }
    "portable"
}

/// Ends a message of `total` bytes whose last `filled` (at most
/// [`TWO_BLOCK_MAX`]) sit at the front of the otherwise zero `end`:
/// writes `0x80` and the big-endian bit length behind them, compresses
/// the one or two blocks that makes, and serializes the state.
#[inline]
fn finish(
    compress: impl Fn(&mut [u32; 8], &[u8]),
    mut state: [u32; 8],
    mut end: [u8; 2 * BLOCK_LEN],
    filled: usize,
    total: u64,
) -> [u8; DIGEST_LEN] {
    debug_assert!(filled <= TWO_BLOCK_MAX);
    end[filled] = 0x80;
    let padded = if filled < BLOCK_LEN - 8 {
        BLOCK_LEN
    } else {
        2 * BLOCK_LEN
    };
    end[padded - 8..padded].copy_from_slice(&total.wrapping_mul(8).to_be_bytes());
    compress(&mut state, &end[..padded]);
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Folds the whole blocks of `blocks` (its length is a multiple of
/// [`BLOCK_LEN`]) into `state`, on the hardware kernel where there is
/// one.
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    #[cfg(target_arch = "x86_64")]
    if ni::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// The FIPS 180-4 compression function over each whole block of
/// `blocks`, read in place, with the message schedule kept as a rolling
/// window of 16 words.
pub(crate) fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for t in 0..64 {
            if t >= 16 {
                // W[t] over W[t-16], W[t-15], W[t-7], W[t-2], mod 16.
                let w15 = w[(t + 1) % 16];
                let w2 = w[(t + 14) % 16];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[t % 16] = w[t % 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[(t + 9) % 16])
                    .wrapping_add(s1);
            }
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t % 16]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Hex of `data`'s digest, computed on the dispatched kernel and on
    /// the portable one, which must agree.
    fn hex_on_both_kernels(data: &[u8]) -> String {
        let digest = Sha256::digest(data);
        assert_eq!(digest, portable_digest(data), "kernels disagree");
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `data` through the hasher, one `update` per piece between `cuts`.
    fn hashed_in_pieces(data: &[u8], cuts: &[usize]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        let mut from = 0;
        for &cut in cuts {
            h.update(&data[from..cut]);
            from = cut;
        }
        h.update(&data[from..]);
        h.finalize()
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    // FIPS 180-4 / NIST CAVS known-answer tests, against both kernels.
    #[test]
    fn nist_empty() {
        // Printed so a run that exercised only the portable kernel
        // says so (CI shows this test's output).
        println!("sha256 kernel: {}", kernel());
        assert_eq!(
            hex_on_both_kernels(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex_on_both_kernels(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block_message() {
        assert_eq!(
            hex_on_both_kernels(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let data = vec![b'a'; 1_000_000];
        let cuts: Vec<usize> = (1..1000).map(|i| i * 1000).collect();
        let expect = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(hex_on_both_kernels(&data), expect);
        assert_eq!(hashed_in_pieces(&data, &cuts), Sha256::digest(&data));
    }

    /// The lengths where padding changes shape — the `0x80` byte and
    /// the length field fitting the last block (55), spilling into a
    /// second (56..=63), an exact block (64), and the same one block
    /// later (119, where the stack-assembled path ends, and 120) — at
    /// every split point, against the portable oracle.
    #[test]
    fn padding_edges_match_the_portable_kernel_at_all_split_points() {
        for len in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 257] {
            let data = patterned(len);
            let expect = portable_digest(&data);
            assert_eq!(Sha256::digest(&data), expect, "len {len}");
            for split in 0..=len {
                assert_eq!(
                    hashed_in_pieces(&data, &[split]),
                    expect,
                    "len {len} split at {split}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dispatched path — one-shot, and the hasher fed at random
        /// split points — equals the portable kernel called directly.
        #[test]
        fn dispatched_path_matches_the_portable_kernel(
            data in prop::collection::vec(any::<u8>(), 0..4097),
            cuts in prop::collection::vec(any::<u64>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts
                .iter()
                .map(|c| (c % (data.len() as u64 + 1)) as usize)
                .collect();
            cuts.sort_unstable();
            let expect = portable_digest(&data);
            prop_assert_eq!(Sha256::digest(&data), expect);
            prop_assert_eq!(hashed_in_pieces(&data, &cuts), expect);
        }

        /// The one-shot over parts equals the portable kernel over
        /// their concatenation, on both sides of the two-block bound.
        #[test]
        fn parts_hash_as_their_concatenation(
            parts in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..70), 0..5),
        ) {
            let slices: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
            prop_assert_eq!(digest_parts(&slices), portable_digest(&parts.concat()));
        }
    }

    #[test]
    fn matches_reference_implementation() {
        use sha2::Digest as _;
        let mut data = Vec::new();
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 127, 128, 1000] {
            data.resize(len, 0);
            for (i, b) in data.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(31).wrapping_add(7);
            }
            let ours = Sha256::digest(&data);
            let theirs: [u8; 32] = sha2::Sha256::digest(&data).into();
            assert_eq!(ours, theirs, "len {len}");
        }
    }
}
