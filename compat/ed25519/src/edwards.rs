//! The edwards25519 group: −x² + y² = 1 + d·x²y² over GF(2^255 − 19).
//!
//! Points are held in extended twisted Edwards coordinates
//! (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z. Addition is the
//! complete "add-2008-hwcd-3" formula (valid for every input pair on an
//! a = −1 curve with non-square d, so no doubling special case is
//! needed for correctness), plus a dedicated 4M+4S doubling for speed.
//!
//! Scalar multiplication comes in two variable-time forms. For an
//! arbitrary point it is width-5 wNAF; the multiscalar form shares one
//! doubling chain across all terms. For a point that is fixed and used
//! often — the basepoint, a replica's public key — a [`PointTable`]
//! (30 KiB, built once) replaces the doubling chain with table
//! look-ups: at most 64 mixed additions and 4 doublings per
//! multiplication. The wNAF form stays as the reference the table is
//! tested against.

use crate::field::{FieldElement, EDWARDS_2D, EDWARDS_D};
use crate::scalar::Scalar;

/// A point on edwards25519 in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct ExtendedPoint {
    pub(crate) x: FieldElement,
    pub(crate) y: FieldElement,
    pub(crate) z: FieldElement,
    pub(crate) t: FieldElement,
}

/// The RFC 8032 basepoint B (y = 4/5, x positive).
pub const BASEPOINT: ExtendedPoint = ExtendedPoint {
    x: FieldElement([
        1738742601995546,
        1146398526822698,
        2070867633025821,
        562264141797630,
        587772402128613,
    ]),
    y: FieldElement([
        1801439850948184,
        1351079888211148,
        450359962737049,
        900719925474099,
        1801439850948198,
    ]),
    z: FieldElement::ONE,
    t: FieldElement([
        1841354044333475,
        16398895984059,
        755974180946558,
        900171276175154,
        1821297809914039,
    ]),
};

impl ExtendedPoint {
    /// The neutral element (0, 1).
    pub const IDENTITY: ExtendedPoint = ExtendedPoint {
        x: FieldElement::ZERO,
        y: FieldElement::ONE,
        z: FieldElement::ONE,
        t: FieldElement::ZERO,
    };

    /// Complete addition (add-2008-hwcd-3).
    pub fn add(&self, other: &ExtendedPoint) -> ExtendedPoint {
        let a = (self.y - self.x) * (other.y - other.x);
        let b = (self.y + self.x) * (other.y + other.x);
        let c = self.t * EDWARDS_2D * other.t;
        let zz = self.z * other.z;
        let d = zz + zz;
        let e = b - a;
        let f = d - c;
        let g = d + c;
        let h = b + a;
        ExtendedPoint {
            x: e * f,
            y: g * h,
            z: f * g,
            t: e * h,
        }
    }

    /// Dedicated doubling (dbl-2008-hwcd, a = −1).
    pub fn double(&self) -> ExtendedPoint {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square() + self.z.square();
        let e = (self.x + self.y).square() - a - b;
        let g = b - a; // a·X² + Y² with a = −1
        let f = g - c;
        let h = -(a + b); // a·X² − Y²
        ExtendedPoint {
            x: e * f,
            y: g * h,
            z: f * g,
            t: e * h,
        }
    }

    /// Additive inverse.
    pub fn neg(&self) -> ExtendedPoint {
        ExtendedPoint {
            x: -self.x,
            y: self.y,
            z: self.z,
            t: -self.t,
        }
    }

    /// Multiplication by the cofactor 8.
    pub fn mul_by_cofactor(&self) -> ExtendedPoint {
        self.double().double().double()
    }

    /// True iff this is the neutral element.
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && (self.y - self.z).is_zero()
    }

    /// True iff this point's order divides 8 (the torsion subgroup) —
    /// such points must never be accepted as public keys.
    pub fn is_small_order(&self) -> bool {
        self.mul_by_cofactor().is_identity()
    }

    /// Compresses to the 32-byte encoding: canonical y with the sign of
    /// x in bit 255.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x * zinv;
        let y = self.y * zinv;
        let mut bytes = y.to_bytes();
        if x.is_negative() {
            bytes[31] |= 0x80;
        }
        bytes
    }

    /// Decompresses a 32-byte encoding. Fails on a non-canonical y
    /// (≥ p), on a y with no corresponding x (not on the curve), and on
    /// the non-canonical "negative zero" sign choice.
    pub fn decompress(bytes: &[u8; 32]) -> Option<ExtendedPoint> {
        let sign = bytes[31] >> 7;
        let y = FieldElement::from_bytes_canonical(bytes)?;
        let yy = y.square();
        let u = yy - FieldElement::ONE;
        let v = yy * EDWARDS_D + FieldElement::ONE;
        let (is_square, mut x) = FieldElement::sqrt_ratio(&u, &v);
        if !is_square {
            return None;
        }
        if x.is_zero() && sign == 1 {
            // Encoding of −0: rejected so every point has exactly one
            // accepted encoding.
            return None;
        }
        if x.is_negative() != (sign == 1) {
            x = -x;
        }
        Some(ExtendedPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x * y,
        })
    }

    /// Variable-time scalar multiplication.
    pub fn mul(&self, scalar: &Scalar) -> ExtendedPoint {
        multiscalar_mul(&[(*scalar, *self)])
    }
}

impl PartialEq for ExtendedPoint {
    fn eq(&self, other: &ExtendedPoint) -> bool {
        // Projective equality: cross-multiply out the Z denominators.
        (self.x * other.z - other.x * self.z).is_zero()
            && (self.y * other.z - other.y * self.z).is_zero()
    }
}

impl Eq for ExtendedPoint {}

/// Odd multiples P, 3P, …, 15P for one wNAF operand.
struct NafTable([ExtendedPoint; 8]);

impl NafTable {
    fn new(p: &ExtendedPoint) -> NafTable {
        let p2 = p.double();
        let mut t = [*p; 8];
        for i in 1..8 {
            t[i] = t[i - 1].add(&p2);
        }
        NafTable(t)
    }

    /// The point for digit `d` (odd, in ±[1, 15]).
    fn select(&self, d: i8) -> ExtendedPoint {
        debug_assert!(d != 0 && d % 2 != 0 && d.abs() <= 15);
        let entry = self.0[(d.unsigned_abs() as usize - 1) / 2];
        if d < 0 {
            entry.neg()
        } else {
            entry
        }
    }
}

/// A point in affine Niels form `(y + x, y − x, 2d·x·y)`: the three
/// products of the mixed addition formula that depend only on the
/// table entry, computed once. Affine (Z = 1) saves the fourth field
/// element and one multiplication per addition.
#[derive(Clone, Copy)]
struct AffineNiels {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    xy2d: FieldElement,
}

impl AffineNiels {
    const IDENTITY: AffineNiels = AffineNiels {
        y_plus_x: FieldElement::ONE,
        y_minus_x: FieldElement::ONE,
        xy2d: FieldElement::ZERO,
    };
}

impl ExtendedPoint {
    /// Mixed addition `self ± entry` (madd-2008-hwcd-3, 7M): complete
    /// like [`add`](ExtendedPoint::add). Subtracting negates the
    /// entry's x, which swaps its first two coordinates and negates the
    /// third.
    fn add_niels(&self, entry: &AffineNiels, subtract: bool) -> ExtendedPoint {
        let (plus, minus) = if subtract {
            (entry.y_minus_x, entry.y_plus_x)
        } else {
            (entry.y_plus_x, entry.y_minus_x)
        };
        let a = (self.y - self.x) * minus;
        let b = (self.y + self.x) * plus;
        let c = self.t * entry.xy2d;
        let d = self.z + self.z;
        let e = b - a;
        let (f, g) = if subtract {
            (d + c, d - c)
        } else {
            (d - c, d + c)
        };
        let h = b + a;
        ExtendedPoint {
            x: e * f,
            y: g * h,
            z: f * g,
            t: e * h,
        }
    }
}

/// Precomputed multiples of one fixed point P for doubling-free scalar
/// multiplication, in ref10's compact layout: entry `[j][k − 1]` holds
/// `k·256^j·P` for `j ∈ 0..32`, `k ∈ 1..=8`, in affine Niels form.
///
/// A scalar is split into 64 signed radix-16 digits `eᵢ ∈ [−8, 8)`
/// ([`Scalar::signed_radix_16`]). Row `j` serves both digit `2j` (as
/// is) and digit `2j + 1` (after the partial sum is multiplied by 16),
/// so `s·P` = the odd digits' sum, **four doublings**, the even
/// digits' sum: at most 64 mixed additions of 7M each where a generic
/// `mul` walks a 253-step doubling chain.
///
/// **Memory per point:** 32 × 8 × 3 field elements × 40 B = 30 720 B
/// (30 KiB). Compact is a requirement, not taste: the table is only
/// faster than the doubling chain while it stays in cache. A 64 × 15
/// extended-coordinate layout (150 KiB per point, no doublings at all)
/// measured faster at 4 signers and *no better than the generic path*
/// once verification rotated through 64 signers' tables (9.6 MiB);
/// this layout holds its speed to 128.
///
/// **Building** costs 224 additions and 160 doublings plus one shared
/// field inversion (Montgomery's trick) to normalise all 256 entries
/// to Z = 1 — a few hundred µs, paid once per point.
pub struct PointTable(Box<[[AffineNiels; 8]; 32]>);

impl PointTable {
    /// Builds the table for `point`.
    pub fn new(point: &ExtendedPoint) -> PointTable {
        let mut multiples = Vec::with_capacity(256);
        let mut base = *point; // 256^j · P
        for _ in 0..32 {
            let mut multiple = base;
            multiples.push(multiple);
            for _ in 1..8 {
                multiple = multiple.add(&base);
                multiples.push(multiple);
            }
            // 8·base → 256·base.
            base = multiple;
            for _ in 0..5 {
                base = base.double();
            }
        }
        // One inversion for all 256 Z's: prefix[i] = Z₀·…·Zᵢ₋₁, then
        // peel the inverse of the full product back to front.
        let mut prefix = Vec::with_capacity(256);
        let mut product = FieldElement::ONE;
        for p in &multiples {
            prefix.push(product);
            product = product * p.z;
        }
        let mut inverse = product.invert();
        let mut table = Box::new([[AffineNiels::IDENTITY; 8]; 32]);
        for (i, p) in multiples.iter().enumerate().rev() {
            let zinv = inverse * prefix[i];
            inverse = inverse * p.z;
            let x = p.x * zinv;
            let y = p.y * zinv;
            table[i / 8][i % 8] = AffineNiels {
                y_plus_x: y + x,
                y_minus_x: y - x,
                xy2d: x * y * EDWARDS_2D,
            };
        }
        PointTable(table)
    }

    /// Variable-time `scalar · P` via the table; equal to
    /// [`ExtendedPoint::mul`] on the table's point.
    pub fn mul(&self, scalar: &Scalar) -> ExtendedPoint {
        let digits = scalar.signed_radix_16();
        let mut acc = ExtendedPoint::IDENTITY;
        for i in (1..64).step_by(2) {
            acc = self.add_digit(&acc, i / 2, digits[i]);
        }
        acc = acc.double().double().double().double();
        for i in (0..64).step_by(2) {
            acc = self.add_digit(&acc, i / 2, digits[i]);
        }
        acc
    }

    /// `acc + digit·256^row·P` for `digit ∈ [−8, 8]`.
    fn add_digit(&self, acc: &ExtendedPoint, row: usize, digit: i8) -> ExtendedPoint {
        if digit == 0 {
            return *acc;
        }
        let entry = &self.0[row][usize::from(digit.unsigned_abs()) - 1];
        acc.add_niels(entry, digit < 0)
    }
}

/// The process-wide [`PointTable`] of the basepoint, built on first
/// use and shared by every thread after.
pub fn basepoint_table() -> &'static PointTable {
    static TABLE: std::sync::OnceLock<PointTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| PointTable::new(&BASEPOINT))
}

/// Variable-time Σ scalarᵢ·pointᵢ with one shared doubling chain
/// (Straus' trick over width-5 wNAF digits).
pub fn multiscalar_mul(pairs: &[(Scalar, ExtendedPoint)]) -> ExtendedPoint {
    let nafs: Vec<[i8; 256]> = pairs.iter().map(|(s, _)| s.non_adjacent_form()).collect();
    let tables: Vec<NafTable> = pairs.iter().map(|(_, p)| NafTable::new(p)).collect();
    let top = nafs
        .iter()
        .filter_map(|naf| (0..256).rev().find(|&i| naf[i] != 0))
        .max();
    let Some(top) = top else {
        return ExtendedPoint::IDENTITY;
    };
    let mut acc = ExtendedPoint::IDENTITY;
    for pos in (0..=top).rev() {
        acc = acc.double();
        for (naf, table) in nafs.iter().zip(&tables) {
            let d = naf[pos];
            if d != 0 {
                acc = acc.add(&table.select(d));
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_u64(n: u64) -> Scalar {
        Scalar::from_u128(n as u128)
    }

    /// Reference ladder: repeated add (exercises `add` alone).
    fn slow_mul(p: &ExtendedPoint, n: u64) -> ExtendedPoint {
        let mut acc = ExtendedPoint::IDENTITY;
        for _ in 0..n {
            acc = acc.add(p);
        }
        acc
    }

    #[test]
    fn basepoint_is_on_curve_and_large_order() {
        // −x² + y² = 1 + d·x²y² for the affine basepoint.
        let b = BASEPOINT;
        let lhs = b.y.square() - b.x.square();
        let rhs = FieldElement::ONE + EDWARDS_D * b.x.square() * b.y.square();
        assert_eq!(lhs, rhs);
        assert!(!b.is_small_order());
    }

    #[test]
    fn double_matches_add() {
        let b = BASEPOINT;
        assert_eq!(b.double(), b.add(&b));
        let p = b.double().add(&b); // 3B
        assert_eq!(p.double(), p.add(&p));
    }

    #[test]
    fn small_multiples_agree_with_ladder() {
        for n in [0u64, 1, 2, 3, 7, 8, 15, 16, 31, 57, 255] {
            assert_eq!(
                BASEPOINT.mul(&scalar_u64(n)),
                slow_mul(&BASEPOINT, n),
                "n = {n}"
            );
        }
    }

    #[test]
    fn multiscalar_matches_separate_muls() {
        let b = BASEPOINT;
        let p = b.mul(&scalar_u64(7));
        let q = b.mul(&scalar_u64(11));
        let combined = multiscalar_mul(&[(scalar_u64(3), p), (scalar_u64(5), q)]);
        let separate = p.mul(&scalar_u64(3)).add(&q.mul(&scalar_u64(5)));
        assert_eq!(combined, separate);
        // 3·7 + 5·11 = 76.
        assert_eq!(combined, b.mul(&scalar_u64(76)));
    }

    #[test]
    fn compress_decompress_round_trip() {
        for n in [1u64, 2, 9, 1000, 123456789] {
            let p = BASEPOINT.mul(&scalar_u64(n));
            let c = p.compress();
            let q = ExtendedPoint::decompress(&c).unwrap();
            assert_eq!(p, q);
            assert_eq!(q.compress(), c);
        }
    }

    #[test]
    fn basepoint_compresses_to_rfc_encoding() {
        // 5866666666666666666666666666666666666666666666666666666666666666,
        // the standard encoding of B.
        let mut expect = [0x66u8; 32];
        expect[0] = 0x58;
        assert_eq!(BASEPOINT.compress(), expect);
        assert_eq!(ExtendedPoint::decompress(&expect).unwrap(), BASEPOINT);
    }

    #[test]
    fn identity_encoding_decompresses_to_small_order_point() {
        let mut enc = [0u8; 32];
        enc[0] = 1;
        let p = ExtendedPoint::decompress(&enc).unwrap();
        assert!(p.is_identity());
        assert!(p.is_small_order());
    }

    #[test]
    fn order_two_point_is_small_order() {
        // y = −1 encodes the order-2 point (0, −1).
        let mut enc = [0xffu8; 32];
        enc[0] = 0xec;
        enc[31] = 0x7f;
        let p = ExtendedPoint::decompress(&enc).unwrap();
        assert!(!p.is_identity());
        assert!(p.is_small_order());
        assert_eq!(p.add(&p), ExtendedPoint::IDENTITY);
    }

    #[test]
    fn negative_zero_encoding_rejected() {
        // (0, 1) with the sign bit set: x = 0 must encode sign 0.
        let mut enc = [0u8; 32];
        enc[0] = 1;
        enc[31] = 0x80;
        assert!(ExtendedPoint::decompress(&enc).is_none());
    }

    #[test]
    fn non_canonical_y_rejected() {
        // y = p (≡ 0, non-canonical encoding).
        let mut enc = [0xffu8; 32];
        enc[0] = 0xed;
        enc[31] = 0x7f;
        assert!(ExtendedPoint::decompress(&enc).is_none());
    }

    #[test]
    fn basepoint_table_matches_generic_mul() {
        let table = basepoint_table();
        for n in [0u64, 1, 2, 15, 16, 17, 255, 256, 123456789] {
            let s = scalar_u64(n);
            assert_eq!(table.mul(&s), BASEPOINT.mul(&s), "n = {n}");
        }
        // Wide-reduction scalars exercise every nibble position.
        let s = Scalar::from_wide_bytes(&[0xA7u8; 64]);
        assert_eq!(table.mul(&s), BASEPOINT.mul(&s));
    }

    #[test]
    fn point_table_matches_generic_mul_for_any_point() {
        // The basepoint, three "public keys", the order-2 point and a
        // key with a torsion component (the addition law is complete,
        // so the table must be right off the prime-order subgroup too).
        let mut order2 = [0xffu8; 32];
        order2[0] = 0xec;
        order2[31] = 0x7f;
        let order2 = ExtendedPoint::decompress(&order2).unwrap();
        let key = |fill: u8| BASEPOINT.mul(&Scalar::from_wide_bytes(&[fill; 64]));
        let points = [
            BASEPOINT,
            key(1),
            key(2),
            key(3),
            order2,
            key(4).add(&order2),
        ];
        for (i, point) in points.iter().enumerate() {
            let table = PointTable::new(point);
            for (j, s) in crate::scalar::edge_scalars().iter().enumerate() {
                assert_eq!(table.mul(s), point.mul(s), "point {i}, scalar {j}");
            }
        }
    }

    #[test]
    fn basepoint_times_group_order_is_identity() {
        // L·B = O: feed L − 1 (canonical) and add one more B.
        let mut l_minus_1 = [0u8; 32];
        l_minus_1[..8].copy_from_slice(&0x5812631a5cf5d3ecu64.to_le_bytes());
        l_minus_1[8..16].copy_from_slice(&0x14def9dea2f79cd6u64.to_le_bytes());
        l_minus_1[24..32].copy_from_slice(&0x1000000000000000u64.to_le_bytes());
        let s = Scalar::from_canonical_bytes(&l_minus_1).unwrap();
        let almost = BASEPOINT.mul(&s);
        assert_eq!(almost, BASEPOINT.neg());
        assert!(almost.add(&BASEPOINT).is_identity());
    }
}
