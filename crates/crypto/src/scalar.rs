//! Arithmetic modulo the secp256k1 group order `n`, used for secret keys, nonces and
//! signature scalars.
//!
//! Like the base field, the order is a compile-time constant and multiplication
//! reduces the 512-bit product with the order's special form: `n = 2^256 − c` with
//! `c ≈ 2^129`, so `2^256 ≡ c (mod n)` and a handful of fold rounds replace the old
//! bit-by-bit long division.

use crate::u256::{U256, U512};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The secp256k1 group order
/// `n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141`.
const ORDER: U256 = U256::from_limbs([
    0xBFD2_5E8C_D036_4141,
    0xBAAE_DCE6_AF48_A03B,
    0xFFFF_FFFF_FFFF_FFFE,
    0xFFFF_FFFF_FFFF_FFFF,
]);

/// `2^256 mod n = 2^256 − n = 0x14551231950B75FC4402DA1732FC9BEBF` (a 129-bit value).
const NEG_ORDER: U256 = U256::from_limbs([0x402D_A173_2FC9_BEBF, 0x4551_2319_50B7_5FC4, 1, 0]);

/// `λ`, the cube root of unity mod `n` whose endomorphism is `λ·(x, y) = (β·x, y)`
/// (see [`crate::field::beta`]).
const LAMBDA: Scalar = Scalar(U256::from_limbs([
    0xDF02_967C_1B23_BD72,
    0x122E_22EA_2081_6678,
    0xA526_1C02_8812_645A,
    0x5363_AD4C_C05C_30E0,
]));

/// `−b₁` of the short lattice basis `{(a₁, b₁), (a₂, b₂)}` of `{(x, y) : x + y·λ ≡ 0}`.
const MINUS_B1: Scalar = Scalar(U256::from_limbs([
    0x6F54_7FA9_0ABF_E4C3,
    0xE443_7ED6_010E_8828,
    0,
    0,
]));

/// `−b₂ mod n`, where `b₂ = a₁ = 0x3086d221a7d46bcde86c90e49284eb15`.
const MINUS_B2: Scalar = Scalar(U256::from_limbs([
    0xD765_CDA8_3DB1_562C,
    0x8A28_0AC5_0774_346D,
    0xFFFF_FFFF_FFFF_FFFE,
    0xFFFF_FFFF_FFFF_FFFF,
]));

/// `g₁ = round(2^384 · b₂ / n)`.
const G1: U256 = U256::from_limbs([
    0xE893_209A_45DB_B031,
    0x3DAA_8A14_71E8_CA7F,
    0xE86C_90E4_9284_EB15,
    0x3086_D221_A7D4_6BCD,
]);

/// `g₂ = round(2^384 · (−b₁) / n)`.
const G2: U256 = U256::from_limbs([
    0x1571_B4AE_8AC4_7F71,
    0x2212_08AC_9DF5_06C6,
    0x6F54_7FA9_0ABF_E4C4,
    0xE443_7ED6_010E_8828,
]);

/// The secp256k1 group order
/// `n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141`.
pub fn order() -> U256 {
    ORDER
}

/// The endomorphism eigenvalue `λ` (`λ³ ≡ 1 mod n`).
pub fn lambda() -> Scalar {
    LAMBDA
}

/// `round(k·g / 2^384)` for `k, g < 2^256`: the top 128 bits of the product plus the
/// rounding bit just below them.
fn mul_shift_384(k: &U256, g: &U256) -> Scalar {
    let wide = k.full_mul(g).limbs;
    let round = wide[5] >> 63;
    let (lo, carry) = wide[6].overflowing_add(round);
    Scalar(U256::from_limbs([lo, wide[7] + carry as u64, 0, 0]))
}

/// An integer modulo the secp256k1 group order, kept in canonical reduced form.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Scalar(U256);

impl Scalar {
    /// The scalar 0.
    pub fn zero() -> Self {
        Scalar(U256::ZERO)
    }

    /// The scalar 1.
    pub fn one() -> Self {
        Scalar(U256::ONE)
    }

    /// Constructs a scalar from an integer, reducing modulo `n`.
    pub fn from_u256(v: U256) -> Self {
        if v >= ORDER {
            // v < 2^256 < 2n, so a single subtraction reduces fully.
            Scalar(v.wrapping_sub(&ORDER))
        } else {
            Scalar(v)
        }
    }

    /// Constructs a scalar from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Scalar(U256::from_u64(v))
    }

    /// Constructs a scalar from a 128-bit integer (always below `n`, no reduction) —
    /// batch-verification coefficients are sampled at this width.
    pub fn from_u128(v: u128) -> Self {
        Scalar(U256::from_u128(v))
    }

    /// Constructs a scalar from big-endian bytes, reducing modulo `n`.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        Self::from_u256(U256::from_be_bytes(bytes))
    }

    /// Big-endian byte representation of the canonical value.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// The underlying integer.
    pub fn as_u256(&self) -> U256 {
        self.0
    }

    /// Returns true for the zero scalar.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Scalar addition mod `n`.
    pub fn add(&self, other: &Scalar) -> Scalar {
        Scalar(self.0.add_mod(&other.0, &order()))
    }

    /// Scalar subtraction mod `n`.
    pub fn sub(&self, other: &Scalar) -> Scalar {
        Scalar(self.0.sub_mod(&other.0, &order()))
    }

    /// Scalar negation mod `n`.
    pub fn neg(&self) -> Scalar {
        if self.is_zero() {
            *self
        } else {
            Scalar(order().wrapping_sub(&self.0))
        }
    }

    /// Reduces a 512-bit product modulo `n` by folding the high half with
    /// `2^256 ≡ c (mod n)`: each round replaces `hi·2^256 + lo` with `lo + hi·c`.
    /// Because `c < 2^130`, the high half collapses below 2^3 after two rounds and
    /// vanishes on the third — constant work instead of 512-step long division.
    fn reduce_wide(product: U512) -> Scalar {
        let mut hi = product.high_u256();
        let mut lo = product.low_u256();
        while !hi.is_zero() {
            let folded = hi.full_mul(&NEG_ORDER);
            let (new_lo, carry) = lo.overflowing_add(&folded.low_u256());
            lo = new_lo;
            hi = folded
                .high_u256()
                .wrapping_add(&U256::from_u64(carry as u64));
        }
        while lo >= ORDER {
            lo = lo.wrapping_sub(&ORDER);
        }
        Scalar(lo)
    }

    /// Scalar multiplication mod `n` via the full 512-bit product and the order's
    /// special-form fold.
    pub fn mul(&self, other: &Scalar) -> Scalar {
        Self::reduce_wide(self.0.full_mul(&other.0))
    }

    /// Scalar squaring (dedicated squaring product, same fold).
    pub fn square(&self) -> Scalar {
        Self::reduce_wide(self.0.full_square())
    }

    /// Modular exponentiation (the running square stops at the exponent's top bit).
    pub fn pow(&self, exp: &U256) -> Scalar {
        let nbits = exp.bits();
        if nbits == 0 {
            return Scalar::one();
        }
        let mut result = Scalar::one();
        let mut acc = *self;
        for i in 0..nbits {
            if exp.bit(i) {
                result = result.mul(&acc);
            }
            if i + 1 < nbits {
                acc = acc.square();
            }
        }
        result
    }

    /// Multiplicative inverse via Fermat (`a^(n−2)`), `None` for zero.
    pub fn invert(&self) -> Option<Scalar> {
        if self.is_zero() {
            return None;
        }
        let exp = order().wrapping_sub(&U256::from_u64(2));
        Some(self.pow(&exp))
    }

    /// Returns bit `i` of the canonical representation.
    pub fn bit(&self, i: usize) -> bool {
        self.0.bit(i)
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        self.0.bits()
    }

    /// The GLV split `k = k₁ + k₂·λ (mod n)` with both halves short: each of `k₁`
    /// and `k₂` is, up to sign, below 2¹²⁹, so `k·P = k₁·P + k₂·(λ·P)` needs only
    /// half-length scalar chains. `c₁, c₂` round `k` onto the lattice basis; the
    /// halves are the residue (libsecp256k1's `scalar_split_lambda`).
    pub fn split_lambda(&self) -> (Scalar, Scalar) {
        let c1 = mul_shift_384(&self.0, &G1);
        let c2 = mul_shift_384(&self.0, &G2);
        let k2 = c1.mul(&MINUS_B1).add(&c2.mul(&MINUS_B2));
        let k1 = self.sub(&k2.mul(&LAMBDA));
        (k1, k2)
    }
}

/// The lattice constants behind [`Scalar::split_lambda`], exposed so the
/// integration self-checks can re-derive them from first principles.
pub mod selftest {
    use super::{Scalar, G1, G2, MINUS_B1, MINUS_B2};
    use crate::u256::U256;

    /// `−b₁` and `−b₂ mod n`.
    pub fn minus_b() -> (Scalar, Scalar) {
        (MINUS_B1, MINUS_B2)
    }

    /// `g₁ = round(2^384·b₂/n)` and `g₂ = round(2^384·(−b₁)/n)`.
    pub fn g() -> (U256, U256) {
        (G1, G2)
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar(0x{})", self.0.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_prime_sanity() {
        // Fermat test with a couple of bases (not a proof, a regression check that the
        // constant was transcribed correctly).
        let n = order();
        for base in [2u64, 3, 5, 7] {
            let b = U256::from_u64(base);
            assert_eq!(b.pow_mod(&n.wrapping_sub(&U256::ONE), &n), U256::ONE);
        }
    }

    #[test]
    fn add_wraps_at_order() {
        let nm1 = Scalar::from_u256(order().wrapping_sub(&U256::ONE));
        assert_eq!(nm1.add(&Scalar::one()), Scalar::zero());
    }

    #[test]
    fn sub_and_neg() {
        let a = Scalar::from_u64(5);
        let b = Scalar::from_u64(8);
        assert_eq!(a.sub(&b), b.sub(&a).neg());
        assert_eq!(a.add(&a.neg()), Scalar::zero());
    }

    #[test]
    fn mul_and_invert() {
        let a = Scalar::from_u64(0xdeadbeef);
        let inv = a.invert().unwrap();
        assert_eq!(a.mul(&inv), Scalar::one());
        assert!(Scalar::zero().invert().is_none());
    }

    #[test]
    fn fast_reduction_matches_generic_long_division() {
        let samples = [
            U256::ZERO,
            U256::ONE,
            U256::MAX,
            order().wrapping_sub(&U256::ONE),
            order().wrapping_add(&U256::ONE),
            U256::from_hex("deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef")
                .unwrap(),
        ];
        for a in samples {
            for b in samples {
                let fast = Scalar::from_u256(a).mul(&Scalar::from_u256(b));
                let generic = a.rem(&order()).mul_mod(&b.rem(&order()), &order());
                assert_eq!(fast.as_u256(), generic, "a={a:?} b={b:?}");
            }
            let s = Scalar::from_u256(a);
            assert_eq!(s.square(), s.mul(&s), "a={a:?}");
        }
    }

    #[test]
    fn neg_order_constant_is_two_pow_256_minus_n() {
        // NEG_ORDER == 2^256 - n  ⇔  n + NEG_ORDER wraps to exactly zero.
        let (sum, carry) = order().overflowing_add(&NEG_ORDER);
        assert!(carry);
        assert_eq!(sum, U256::ZERO);
    }

    #[test]
    fn from_u128_is_exact() {
        let v = 0xdead_beef_cafe_f00d_0123_4567_89ab_cdefu128;
        assert_eq!(Scalar::from_u128(v).as_u256(), U256::from_u128(v));
    }

    #[test]
    fn from_be_bytes_reduces() {
        let big = U256::MAX;
        let s = Scalar::from_u256(big);
        assert!(s.as_u256() < order());
        assert_eq!(s.as_u256(), big.rem(&order()));
    }

    #[test]
    fn bytes_round_trip() {
        let a = Scalar::from_u64(123456789);
        assert_eq!(Scalar::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn associativity_spot_check() {
        let a = Scalar::from_u64(111);
        let b = Scalar::from_u64(222);
        let c = Scalar::from_u64(333);
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }
}
