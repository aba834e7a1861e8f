//! Arithmetic modulo the Ed25519 group order
//! L = 2^252 + 27742317777372353535851937790883648493.
//!
//! Scalars are four little-endian `u64` limbs, always kept canonical
//! (< L). Multiplication runs through Montgomery reduction (CIOS) with
//! R = 2^256; a plain product is two Montgomery multiplications
//! (`a·b·R⁻¹` then `·R²·R⁻¹`), which keeps every intermediate bounded
//! by 2L without wide-integer gymnastics.

/// The group order L, little-endian limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0,
    0x1000000000000000,
];

/// −L⁻¹ mod 2^64, the Montgomery reduction factor.
const N0INV: u64 = 0xd2b51da312547e1b;

/// R mod L where R = 2^256 (also usable as 2^256 mod L when folding
/// wide values).
const R_MOD_L: [u64; 4] = [
    0xd6ec31748d98951d,
    0xc6ef5bf4737dcf70,
    0xfffffffffffffffe,
    0x0fffffffffffffff,
];

/// R² mod L, the to-Montgomery conversion constant.
const RR_MOD_L: [u64; 4] = [
    0xa40611e3449c0f01,
    0xd00e1ba768859347,
    0xceec73d217f5be65,
    0x0399411b7c309a3d,
];

/// An integer modulo L, canonical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scalar(pub(crate) [u64; 4]);

#[inline]
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// a < b as 256-bit integers.
fn lt(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

fn sub_limbs(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut r = [0u64; 4];
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        r[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    debug_assert_eq!(borrow, 0);
    r
}

/// Montgomery product a·b·R⁻¹ mod L. `b` must be < L; `a` may be any
/// 256-bit value (the CIOS bound a·b/R + L stays below 2L).
fn mont_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut t = [0u64; 6];
    for &ai in a {
        // t += ai · b
        let mut carry = 0u64;
        for j in 0..4 {
            let (lo, c) = mac(t[j], ai, b[j], carry);
            t[j] = lo;
            carry = c;
        }
        let (s, c2) = t[4].overflowing_add(carry);
        t[4] = s;
        t[5] = c2 as u64;
        // Make the bottom limb divisible by 2^64, then shift down.
        let m = t[0].wrapping_mul(N0INV);
        let (_, mut carry) = mac(t[0], m, L[0], 0);
        for j in 1..4 {
            let (lo, c) = mac(t[j], m, L[j], carry);
            t[j - 1] = lo;
            carry = c;
        }
        let (s, c2) = t[4].overflowing_add(carry);
        t[3] = s;
        t[4] = t[5] + c2 as u64;
        t[5] = 0;
    }
    let mut r = [t[0], t[1], t[2], t[3]];
    if t[4] != 0 || !lt(&r, &L) {
        r = sub_limbs(&r, &L);
    }
    debug_assert!(lt(&r, &L));
    r
}

/// Any 256-bit value mod L: convert to Montgomery form and back.
fn reduce256(x: &[u64; 4]) -> [u64; 4] {
    mont_mul(&mont_mul(x, &RR_MOD_L), &[1, 0, 0, 0])
}

impl Scalar {
    pub const ZERO: Scalar = Scalar([0; 4]);
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Parses 32 little-endian bytes, reducing mod L.
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        Scalar(reduce256(&load4(bytes)))
    }

    /// Parses 32 little-endian bytes, `None` unless already < L
    /// (RFC 8032's requirement on the signature scalar S).
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let limbs = load4(bytes);
        if lt(&limbs, &L) {
            Some(Scalar(limbs))
        } else {
            None
        }
    }

    /// Reduces a 64-byte little-endian value mod L (SHA-512 outputs).
    pub fn from_wide_bytes(bytes: &[u8; 64]) -> Scalar {
        let lo = Scalar(reduce256(&load4(bytes[..32].try_into().unwrap())));
        let hi = Scalar(reduce256(&load4(bytes[32..].try_into().unwrap())));
        // value = lo + 2^256·hi
        lo + hi * Scalar(R_MOD_L)
    }

    /// A scalar from a small (128-bit) integer, e.g. a batch
    /// coefficient.
    pub fn from_u128(v: u128) -> Scalar {
        Scalar([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Canonical little-endian encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Additive inverse.
    pub fn neg(&self) -> Scalar {
        if self.is_zero() {
            Scalar::ZERO
        } else {
            Scalar(sub_limbs(&L, &self.0))
        }
    }

    /// Signed radix-16 digits, little-endian: `self = Σ eᵢ·16^i` with
    /// every `eᵢ ∈ [−8, 8)` except the last, which absorbs the final
    /// carry (≤ 2, since canonical scalars are < 2^253). Halving the
    /// digit range is what lets a [`PointTable`] row hold 8 multiples
    /// instead of 15.
    ///
    /// [`PointTable`]: crate::edwards::PointTable
    pub fn signed_radix_16(&self) -> [i8; 64] {
        let bytes = self.to_bytes();
        let mut e = [0i8; 64];
        for (i, byte) in bytes.iter().enumerate() {
            e[2 * i] = (byte & 15) as i8;
            e[2 * i + 1] = (byte >> 4) as i8;
        }
        let mut carry = 0i8;
        for digit in &mut e[..63] {
            *digit += carry;
            carry = (*digit + 8) >> 4;
            *digit -= carry << 4;
        }
        e[63] += carry;
        e
    }

    /// Width-5 non-adjacent form: at most one of any five consecutive
    /// digits is non-zero, and non-zero digits are odd in [−15, 15].
    /// Drives the shared-doubling multiscalar multiplication.
    pub fn non_adjacent_form(&self) -> [i8; 256] {
        let mut naf = [0i8; 256];
        // One spare limb: adding back a negative digit can carry past
        // bit 255 transiently.
        let mut x = [self.0[0], self.0[1], self.0[2], self.0[3], 0u64];
        let mut pos = 0;
        while pos < 256 {
            if x == [0u64; 5] {
                break;
            }
            if x[0] & 1 == 1 {
                let mut d = (x[0] & 31) as i64;
                if d > 16 {
                    d -= 32;
                }
                naf[pos] = d as i8;
                if d > 0 {
                    sub_small(&mut x, d as u64);
                } else {
                    add_small(&mut x, (-d) as u64);
                }
            }
            shr1(&mut x);
            pos += 1;
        }
        naf
    }
}

fn load4(bytes: &[u8; 32]) -> [u64; 4] {
    let mut l = [0u64; 4];
    for i in 0..4 {
        l[i] = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
    }
    l
}

fn sub_small(x: &mut [u64; 5], v: u64) {
    let mut borrow = v;
    for limb in x.iter_mut() {
        let (d, b) = limb.overflowing_sub(borrow);
        *limb = d;
        borrow = b as u64;
        if borrow == 0 {
            break;
        }
    }
}

fn add_small(x: &mut [u64; 5], v: u64) {
    let mut carry = v;
    for limb in x.iter_mut() {
        let (s, c) = limb.overflowing_add(carry);
        *limb = s;
        carry = c as u64;
        if carry == 0 {
            break;
        }
    }
}

fn shr1(x: &mut [u64; 5]) {
    for i in 0..4 {
        x[i] = (x[i] >> 1) | (x[i + 1] << 63);
    }
    x[4] >>= 1;
}

impl std::ops::Add for Scalar {
    type Output = Scalar;
    fn add(self, rhs: Scalar) -> Scalar {
        let mut r = [0u64; 4];
        let mut carry = 0u64;
        for (o, (a, b)) in r.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            let t = *a as u128 + *b as u128 + carry as u128;
            *o = t as u64;
            carry = (t >> 64) as u64;
        }
        // Both inputs < L < 2^253, so no 256-bit overflow and at most
        // one subtraction.
        debug_assert_eq!(carry, 0);
        if !lt(&r, &L) {
            r = sub_limbs(&r, &L);
        }
        Scalar(r)
    }
}

impl std::ops::Sub for Scalar {
    type Output = Scalar;
    // In a prime-order group, subtraction IS addition of the negation.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Scalar) -> Scalar {
        self + rhs.neg()
    }
}

impl std::ops::Mul for Scalar {
    type Output = Scalar;
    fn mul(self, rhs: Scalar) -> Scalar {
        Scalar(mont_mul(&mont_mul(&self.0, &rhs.0), &RR_MOD_L))
    }
}

/// The scalars that stress the signed-digit recoding: 0, 1, L − 1,
/// every nibble below the top = 8 (each digit carries into the next),
/// every such nibble = 15, and two wide-reduced patterns.
#[cfg(test)]
pub(crate) fn edge_scalars() -> Vec<Scalar> {
    let mut eights = [0x88u8; 32];
    eights[31] = 0x08;
    let mut fifteens = [0xffu8; 32];
    fifteens[31] = 0x0f;
    vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::ZERO - Scalar::ONE,
        Scalar::from_canonical_bytes(&eights).unwrap(),
        Scalar::from_canonical_bytes(&fifteens).unwrap(),
        Scalar::from_wide_bytes(&[0xA7u8; 64]),
        Scalar::from_wide_bytes(&[0x3Cu8; 64]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> Scalar {
        Scalar([n, 0, 0, 0])
    }

    /// L as little-endian bytes.
    fn l_bytes() -> [u8; 32] {
        let mut b = [0u8; 32];
        for (i, limb) in L.iter().enumerate() {
            b[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        b
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(s(7) * s(6), s(42));
        assert_eq!(s(100) + s(23), s(123));
        assert_eq!(s(5) - s(3), s(2));
        assert_eq!(s(3) - s(5), s(2).neg());
        assert_eq!(s(2).neg() + s(2), Scalar::ZERO);
    }

    #[test]
    fn l_reduces_to_zero() {
        assert_eq!(Scalar::from_bytes_mod_order(&l_bytes()), Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&l_bytes()).is_none());
        let mut below = l_bytes();
        below[0] -= 1;
        assert!(Scalar::from_canonical_bytes(&below).is_some());
    }

    #[test]
    fn wide_reduction_matches_composed_halves() {
        let mut wide = [0u8; 64];
        for (i, b) in wide.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let lo = Scalar::from_bytes_mod_order(wide[..32].try_into().unwrap());
        let hi = Scalar::from_bytes_mod_order(wide[32..].try_into().unwrap());
        let expect = lo + hi * Scalar(R_MOD_L);
        assert_eq!(Scalar::from_wide_bytes(&wide), expect);
    }

    #[test]
    fn mul_matches_schoolbook_on_128_bit_values() {
        let a = 0x0123456789abcdefu128 * 3 + 7;
        let b = 0xfedcba9876543210u128 * 5 + 1;
        // Products below 2^252 don't wrap mod L, so plain integer
        // multiplication is the reference.
        let a_lo = (a & 0xffff_ffff_ffff_ffff) as u64;
        let b_lo = (b & 0xffff_ffff_ffff_ffff) as u64;
        let prod = (a_lo as u128) * (b_lo as u128);
        assert_eq!(
            Scalar::from_u128(a_lo as u128) * Scalar::from_u128(b_lo as u128),
            Scalar::from_u128(prod)
        );
    }

    #[test]
    fn naf_reconstructs_scalar() {
        let x = Scalar::from_bytes_mod_order(&{
            let mut b = [0u8; 32];
            for (i, v) in b.iter_mut().enumerate() {
                *v = (i as u8).wrapping_mul(101).wrapping_add(3);
            }
            b
        });
        let naf = x.non_adjacent_form();
        // Σ naf[i]·2^i mod L == x, rebuilt with scalar arithmetic.
        let mut acc = Scalar::ZERO;
        let mut pow = Scalar::ONE;
        let two = s(2);
        for d in naf {
            match d.cmp(&0) {
                std::cmp::Ordering::Greater => acc = acc + s(d as u64) * pow,
                std::cmp::Ordering::Less => acc = acc - s((-d) as u64) * pow,
                std::cmp::Ordering::Equal => {}
            }
            pow = pow * two;
        }
        assert_eq!(acc, x);
        // NAF property: any non-zero digit is followed by ≥4 zeros.
        for i in 0..256 {
            if naf[i] != 0 {
                assert!(naf[i] % 2 != 0);
                for (j, &d) in naf.iter().enumerate().take((i + 5).min(256)).skip(i + 1) {
                    assert_eq!(d, 0, "digits {i} and {j} both set");
                }
            }
        }
    }

    #[test]
    fn signed_radix_16_reconstructs_scalar() {
        for x in edge_scalars() {
            let e = x.signed_radix_16();
            let mut acc = Scalar::ZERO;
            let mut pow = Scalar::ONE;
            for (i, d) in e.into_iter().enumerate() {
                if i < 63 {
                    assert!((-8..8).contains(&d), "digit {i} = {d}");
                } else {
                    assert!((0..=2).contains(&d), "top digit = {d}");
                }
                if d >= 0 {
                    acc = acc + s(d as u64) * pow;
                } else {
                    acc = acc - s(d.unsigned_abs() as u64) * pow;
                }
                pow = pow * s(16);
            }
            assert_eq!(acc, x);
        }
    }
}
