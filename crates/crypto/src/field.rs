//! secp256k1 base-field arithmetic.
//!
//! The field is GF(p) with `p = 2^256 − 2^32 − 977`. Multiplication uses the special
//! form of the prime for fast reduction: `2^256 ≡ 2^32 + 977 (mod p)`, so a 512-bit
//! product `hi·2^256 + lo` reduces to `hi·C + lo` with `C = 0x1000003D1`, applied twice
//! followed by at most two conditional subtractions.
//!
//! The prime and the reduction constant are compile-time constants: the hot path
//! (point doubling/addition inside scalar multiplication) performs no parsing,
//! allocation, or recomputation of either.

use crate::u256::U256;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The secp256k1 field prime `p = 2^256 − 2^32 − 977`
/// (`fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f`).
const PRIME: U256 = U256::from_limbs([
    0xFFFF_FFFE_FFFF_FC2F,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
]);

/// `2^256 mod p = 2^32 + 977 = 0x1000003D1` (fits one limb).
const REDUCTION_C_U64: u64 = 0x1_0000_03D1;
/// [`REDUCTION_C_U64`] as a full-width value for 256-bit arithmetic.
const REDUCTION_C: U256 = U256::from_u64(REDUCTION_C_U64);

/// `β`, the cube root of unity mod `p` behind the curve endomorphism
/// `φ(x, y) = (β·x, y) = λ·(x, y)`.
const BETA: FieldElement = FieldElement(U256::from_limbs([
    0xC139_6C28_7195_01EE,
    0x9CF0_4975_12F5_8995,
    0x6E64_479E_AC34_34E9,
    0x7AE9_6A2B_657C_0710,
]));

/// The secp256k1 field prime `p = 2^256 − 2^32 − 977`.
pub fn prime() -> U256 {
    PRIME
}

/// The endomorphism constant `β` (`β³ ≡ 1 mod p`).
pub fn beta() -> FieldElement {
    BETA
}

/// An element of the secp256k1 base field, always kept in canonical reduced form.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FieldElement(U256);

impl FieldElement {
    /// The additive identity.
    pub fn zero() -> Self {
        FieldElement(U256::ZERO)
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        FieldElement(U256::ONE)
    }

    /// Constructs an element from an integer, reducing modulo `p`.
    pub fn from_u256(v: U256) -> Self {
        if v >= PRIME {
            FieldElement(v.rem(&PRIME))
        } else {
            FieldElement(v)
        }
    }

    /// Constructs an element from a small integer.
    pub fn from_u64(v: u64) -> Self {
        FieldElement(U256::from_u64(v))
    }

    /// Constructs an element from big-endian bytes, reducing modulo `p`.
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

    /// Returns true for the additive identity.
    #[inline(always)]
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Returns true if the canonical value is odd.
    pub fn is_odd(&self) -> bool {
        self.0.bit(0)
    }

    /// Field addition.
    #[inline(always)]
    pub fn add(&self, other: &FieldElement) -> FieldElement {
        FieldElement(self.0.add_mod(&other.0, &PRIME))
    }

    /// Field subtraction.
    #[inline(always)]
    pub fn sub(&self, other: &FieldElement) -> FieldElement {
        FieldElement(self.0.sub_mod(&other.0, &PRIME))
    }

    /// Field negation.
    #[inline(always)]
    pub fn neg(&self) -> FieldElement {
        if self.is_zero() {
            *self
        } else {
            FieldElement(PRIME.wrapping_sub(&self.0))
        }
    }

    /// Reduces a full 512-bit product to the canonical field representative using the
    /// prime's special form (`2^256 ≡ C (mod p)` with `C = 0x1000003D1`). `C` fits a
    /// single limb, so each fold round costs four 64×64 multiplications
    /// ([`U256::mul_u64`]), not a general 256×256 product.
    #[inline(always)]
    fn reduce_wide(product: crate::u256::U512) -> FieldElement {
        let lo = product.low_u256();
        let hi = product.high_u256();

        // round 1: acc = lo + hi * C  (high part <= ~2^33)
        let (hi_c, hi_c_carry) = hi.mul_u64(REDUCTION_C_U64);
        let (acc_lo, carry1) = lo.overflowing_add(&hi_c);
        let acc_hi = hi_c_carry as u128 + carry1 as u128;

        // round 2: acc_hi * C fits 128 bits comfortably (2^34 · 2^33 = 2^67)
        let hi2_c = U256::from_u128(acc_hi * REDUCTION_C_U64 as u128);
        let (mut r, carry2) = acc_lo.overflowing_add(&hi2_c);
        if carry2 {
            // overflowed 2^256, which is congruent to C
            r = r.wrapping_add(&REDUCTION_C);
        }
        while r >= PRIME {
            r = r.wrapping_sub(&PRIME);
        }
        FieldElement(r)
    }

    /// Field multiplication with fast reduction exploiting the prime's special form.
    #[inline(always)]
    pub fn mul(&self, other: &FieldElement) -> FieldElement {
        Self::reduce_wide(self.0.full_mul(&other.0))
    }

    /// Field squaring via the dedicated squaring product (roughly half the 64×64
    /// multiplications of a general multiply — the dominant operation of the Jacobian
    /// point formulas).
    #[inline(always)]
    pub fn square(&self) -> FieldElement {
        Self::reduce_wide(self.0.full_square())
    }

    /// Doubling (`2·self`).
    #[inline(always)]
    pub fn double(&self) -> FieldElement {
        self.add(self)
    }

    /// Multiplication by a small constant via a shift/add chain — the point formulas
    /// only ever need `k ∈ {2, 3, 4, 8}`, which never deserves a full 256×256 multiply.
    pub fn mul_small(&self, k: u64) -> FieldElement {
        match k {
            0 => FieldElement::zero(),
            1 => *self,
            2 => self.double(),
            3 => self.double().add(self),
            4 => self.double().double(),
            8 => self.double().double().double(),
            _ => {
                // General double-and-add over the constant's bits (MSB first); still
                // O(bits(k)) field additions instead of a full multiplication.
                let bits = 64 - k.leading_zeros();
                let mut acc = *self;
                for i in (0..bits - 1).rev() {
                    acc = acc.double();
                    if (k >> i) & 1 == 1 {
                        acc = acc.add(self);
                    }
                }
                acc
            }
        }
    }

    /// Modular exponentiation (LSB-first square-and-multiply; the running square is
    /// not advanced past the exponent's top bit).
    pub fn pow(&self, exp: &U256) -> FieldElement {
        let nbits = exp.bits();
        if nbits == 0 {
            return FieldElement::one();
        }
        let mut result = FieldElement::one();
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

    /// Repeated squaring helper for the fixed addition chains below.
    fn sqr_n(&self, n: usize) -> FieldElement {
        let mut acc = *self;
        for _ in 0..n {
            acc = acc.square();
        }
        acc
    }

    /// Shared prefix of the inversion and square-root addition chains: returns
    /// `(x2, x22, a^(2^223 − 1))` where `xk = a^(2^k − 1)`. The secp256k1 prime's
    /// special form makes `p − 2` and `(p+1)/4` almost all ones, so a handful of
    /// runs-of-ones cover both exponents with ~13 multiplications instead of the
    /// ~230 a generic square-and-multiply pays on these exponents.
    fn ones_chain(&self) -> (FieldElement, FieldElement, FieldElement) {
        let x2 = self.square().mul(self);
        let x3 = x2.square().mul(self);
        let x6 = x3.sqr_n(3).mul(&x3);
        let x9 = x6.sqr_n(3).mul(&x3);
        let x11 = x9.sqr_n(2).mul(&x2);
        let x22 = x11.sqr_n(11).mul(&x11);
        let x44 = x22.sqr_n(22).mul(&x22);
        let x88 = x44.sqr_n(44).mul(&x44);
        let x176 = x88.sqr_n(88).mul(&x88);
        let x220 = x176.sqr_n(44).mul(&x44);
        let x223 = x220.sqr_n(3).mul(&x3);
        (x2, x22, x223)
    }

    /// Multiplicative inverse via Fermat's little theorem (`a^(p−2)`), computed with
    /// a fixed addition chain (~255 squarings + 15 multiplications).
    ///
    /// Returns `None` for zero, which has no inverse.
    pub fn invert(&self) -> Option<FieldElement> {
        if self.is_zero() {
            return None;
        }
        // p − 2 = 2^256 − 2^32 − 979; tail bits fffffc2d.
        let (x2, x22, x223) = self.ones_chain();
        let mut t = x223.sqr_n(23).mul(&x22);
        t = t.sqr_n(5).mul(self);
        t = t.sqr_n(3).mul(&x2);
        t = t.sqr_n(2).mul(self);
        Some(t)
    }

    /// Batch inversion by Montgomery's trick: inverts every non-zero element of the
    /// slice in place at the cost of **one** field inversion plus `3(n−1)`
    /// multiplications. Zero entries are left untouched (zero has no inverse).
    ///
    /// This is what makes precomputed-table construction cheap: converting thousands
    /// of Jacobian points to affine form needs one shared inversion instead of one
    /// Fermat exponentiation per point.
    pub fn batch_invert(values: &mut [FieldElement]) {
        // Prefix products over the non-zero entries.
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = FieldElement::one();
        for v in values.iter() {
            prefix.push(acc);
            if !v.is_zero() {
                acc = acc.mul(v);
            }
        }
        let Some(mut inv) = acc.invert() else {
            // Product of non-zero field elements is non-zero; acc == 0 only when the
            // slice has no non-zero entries at all, and there is nothing to invert.
            return;
        };
        // Walk backwards, peeling one element's inverse off the running inverse.
        for (v, pre) in values.iter_mut().zip(prefix.iter()).rev() {
            if v.is_zero() {
                continue;
            }
            let v_inv = inv.mul(pre);
            inv = inv.mul(v);
            *v = v_inv;
        }
    }

    /// Square root. Because `p ≡ 3 (mod 4)`, a root (if it exists) is `a^((p+1)/4)`,
    /// computed with the same fixed addition chain as [`Self::invert`]. Point
    /// decompression is one `sqrt` per key, which makes this chain a direct term in
    /// signature-verification latency.
    ///
    /// Returns `None` if `self` is a quadratic non-residue.
    pub fn sqrt(&self) -> Option<FieldElement> {
        // (p+1)/4 = 2^254 − 2^30 − 244; tail bits bfffff0c.
        let (x2, x22, x223) = self.ones_chain();
        let mut t = x223.sqr_n(23).mul(&x22);
        t = t.sqr_n(6).mul(&x2);
        t = t.sqr_n(2);
        let candidate = t;
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }
}

impl fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fe(0x{})", self.0.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_has_expected_form() {
        // p = 2^256 - 2^32 - 977
        let p = prime();
        let reconstructed = U256::MAX
            .wrapping_sub(&U256::from_u64((1u64 << 32) + 977))
            .wrapping_add(&U256::ONE);
        assert_eq!(p, reconstructed);
        // The const limbs match the canonical hex transcription.
        assert_eq!(
            p,
            U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap()
        );
    }

    #[test]
    fn add_sub_round_trip() {
        let a = FieldElement::from_u64(12345);
        let b = FieldElement::from_u256(prime().wrapping_sub(&U256::from_u64(1)));
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&a), FieldElement::zero());
    }

    #[test]
    fn neg_is_additive_inverse() {
        let a = FieldElement::from_u64(987654321);
        assert_eq!(a.add(&a.neg()), FieldElement::zero());
        assert_eq!(FieldElement::zero().neg(), FieldElement::zero());
    }

    #[test]
    fn mul_matches_generic_reduction() {
        let a = FieldElement::from_u256(
            U256::from_hex("deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef")
                .unwrap(),
        );
        let b = FieldElement::from_u256(
            U256::from_hex("123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0")
                .unwrap(),
        );
        let fast = a.mul(&b);
        let generic = a.as_u256().mul_mod(&b.as_u256(), &prime());
        assert_eq!(fast.as_u256(), generic);
    }

    #[test]
    fn square_matches_mul_self() {
        let samples = [
            FieldElement::zero(),
            FieldElement::one(),
            FieldElement::from_u64(0xdead_beef),
            FieldElement::from_u256(prime().wrapping_sub(&U256::ONE)),
            FieldElement::from_u256(
                U256::from_hex("deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef")
                    .unwrap(),
            ),
        ];
        for a in samples {
            assert_eq!(a.square(), a.mul(&a), "a={a:?}");
        }
    }

    #[test]
    fn mul_small_matches_full_multiply() {
        let a = FieldElement::from_u256(prime().wrapping_sub(&U256::from_u64(3)));
        for k in [0u64, 1, 2, 3, 4, 5, 7, 8, 11, 255, 1 << 40] {
            assert_eq!(a.mul_small(k), a.mul(&FieldElement::from_u64(k)), "k={k}");
        }
    }

    #[test]
    fn mul_near_prime_boundary() {
        let pm1 = FieldElement::from_u256(prime().wrapping_sub(&U256::ONE));
        // (p-1)^2 mod p = 1
        assert_eq!(pm1.mul(&pm1), FieldElement::one());
    }

    #[test]
    fn inverse() {
        let a = FieldElement::from_u64(0x1234_5678_9abc_def0);
        let inv = a.invert().unwrap();
        assert_eq!(a.mul(&inv), FieldElement::one());
        assert!(FieldElement::zero().invert().is_none());
    }

    #[test]
    fn addition_chains_match_generic_pow() {
        let samples = [
            FieldElement::one(),
            FieldElement::from_u64(2),
            FieldElement::from_u64(0xdead_beef_cafe_f00d),
            FieldElement::from_u256(prime().wrapping_sub(&U256::ONE)),
            FieldElement::from_u256(
                U256::from_hex("123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0")
                    .unwrap(),
            ),
        ];
        let inv_exp = prime().wrapping_sub(&U256::from_u64(2));
        let sqrt_exp = prime().wrapping_add(&U256::ONE).shr_by(2);
        for a in samples {
            assert_eq!(a.invert().unwrap(), a.pow(&inv_exp), "invert chain a={a:?}");
            // The sqrt chain must compute a^((p+1)/4) exactly, whether or not the
            // result is a real root.
            let candidate = a.pow(&sqrt_exp);
            assert_eq!(a.sqrt(), (candidate.square() == a).then_some(candidate));
        }
    }

    #[test]
    fn batch_invert_matches_individual_inversion() {
        let mut values: Vec<FieldElement> = (1u64..40)
            .map(|i| FieldElement::from_u64(i * 0x9e37_79b9 + 1))
            .collect();
        values.push(FieldElement::zero());
        values.push(FieldElement::from_u256(prime().wrapping_sub(&U256::ONE)));
        let expected: Vec<FieldElement> = values
            .iter()
            .map(|v| v.invert().unwrap_or(FieldElement::zero()))
            .collect();
        FieldElement::batch_invert(&mut values);
        assert_eq!(values, expected);

        // All-zero and empty slices are no-ops.
        let mut zeros = vec![FieldElement::zero(); 3];
        FieldElement::batch_invert(&mut zeros);
        assert_eq!(zeros, vec![FieldElement::zero(); 3]);
        FieldElement::batch_invert(&mut []);
    }

    #[test]
    fn sqrt_of_square() {
        let a = FieldElement::from_u64(0xabcdef);
        let sq = a.square();
        let root = sq.sqrt().unwrap();
        assert!(root == a || root == a.neg());
    }

    #[test]
    fn non_residue_has_no_sqrt() {
        // 5 is a quadratic non-residue mod the secp256k1 prime? Verify by the Euler
        // criterion computed with pow: a^((p-1)/2) == p-1 for non-residues.
        let candidates = [3u64, 5, 7, 11, 13];
        let mut found_non_residue = false;
        for &c in &candidates {
            let fe = FieldElement::from_u64(c);
            if fe.sqrt().is_none() {
                found_non_residue = true;
                let euler = fe.pow(&prime().wrapping_sub(&U256::ONE).shr_by(1));
                assert_eq!(euler, FieldElement::one().neg());
            }
        }
        assert!(found_non_residue, "expected at least one non-residue in the sample");
    }

    #[test]
    fn pow_zero_is_one() {
        let a = FieldElement::from_u64(42);
        assert_eq!(a.pow(&U256::ZERO), FieldElement::one());
        assert_eq!(a.pow(&U256::ONE), a);
        assert_eq!(a.pow(&U256::from_u64(2)), a.square());
    }

    #[test]
    fn bytes_round_trip() {
        let a = FieldElement::from_u64(0xfeed_face);
        assert_eq!(FieldElement::from_be_bytes(&a.to_be_bytes()), a);
    }
}
