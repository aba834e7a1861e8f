//! The SHA-256 compression function on the x86-64 SHA extensions — the
//! one module of this crate allowed to contain `unsafe`.
//!
//! The extensions do two rounds per `sha256rnds2` and the message
//! schedule four words per `sha256msg1`/`sha256msg2` pair, with the
//! working variables held as the two vectors `ABEF` and `CDGH` (Intel's
//! published round sequence). Everything here is safe code inside one
//! `#[target_feature]` function; the single `unsafe` block is the call
//! into it, guarded by run-time detection done once.

use super::{BLOCK_LEN, K};
use core::arch::x86_64::*;
use std::sync::OnceLock;

/// Folds the whole 64-byte blocks of `blocks` into `state` with the
/// SHA extensions and returns `true` — or, on a CPU without them,
/// returns `false` having touched nothing, and the caller compresses
/// portably. Bytes past the last whole block are ignored.
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    let detected = *DETECTED.get_or_init(|| {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    });
    if detected {
        // SAFETY: `compress` is safe code whose only requirement is
        // that the CPU implements the features it is compiled for —
        // `sha`, `ssse3`, `sse4.1` (and `sse2`, the x86-64 baseline) —
        // and `DETECTED` holds `true` only after
        // `is_x86_feature_detected!` reported all three on this CPU.
        unsafe { compress(state, blocks) };
    }
    detected
}

/// Rounds `4g .. 4g + 4` over the schedule words `w`.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, g: usize) {
    let k = &K[4 * g..4 * g + 4];
    let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
    let wk = _mm_add_epi32(w, k);
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    // The instructions want the working variables as ABEF and CDGH, A
    // and C in the top lane (`_mm_set_epi32` takes the top lane first).
    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    // Byte shuffle turning four little-endian lanes into the four
    // big-endian message words they were loaded from.
    let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w = [_mm_setzero_si128(); 4];
        for (words, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
            let lo = i64::from_le_bytes(bytes[..8].try_into().expect("8 of 16 bytes"));
            let hi = i64::from_le_bytes(bytes[8..].try_into().expect("8 of 16 bytes"));
            *words = _mm_shuffle_epi8(_mm_set_epi64x(hi, lo), big_endian);
        }
        // Rounds 0..16 take the message words as they are.
        for (g, words) in w.iter().enumerate() {
            rounds4(&mut abef, &mut cdgh, *words, g);
        }
        for g in 4..16 {
            // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], four
            // at a time: msg1 adds σ0, alignr supplies W[t-7], msg2
            // adds σ1 (the last two of which depend on the first two).
            let w_minus_7 = _mm_alignr_epi8::<4>(w[3], w[2]);
            let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w[0], w[1]), w_minus_7);
            w = [w[1], w[2], w[3], _mm_sha256msg2_epu32(partial, w[3])];
            rounds4(&mut abef, &mut cdgh, w[3], g);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abef) as u32,
        _mm_extract_epi32::<2>(abef) as u32,
        _mm_extract_epi32::<3>(cdgh) as u32,
        _mm_extract_epi32::<2>(cdgh) as u32,
        _mm_extract_epi32::<1>(abef) as u32,
        _mm_extract_epi32::<0>(abef) as u32,
        _mm_extract_epi32::<1>(cdgh) as u32,
        _mm_extract_epi32::<0>(cdgh) as u32,
    ];
}
