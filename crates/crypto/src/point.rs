//! secp256k1 group arithmetic in Jacobian coordinates.
//!
//! The curve is `y² = x³ + 7` over the field defined in [`crate::field`]. Points are
//! held in Jacobian projective coordinates `(X, Y, Z)` with affine
//! `x = X/Z², y = Y/Z³`; the point at infinity is represented by `Z = 0`.
//!
//! # Scalar multiplication backends
//!
//! * [`Point::mul_generator`] — fixed-base comb: a one-time precomputed table of
//!   `d·2^{8w}·G` for every window `w` and byte digit `d` turns `k·G` into 32 mixed
//!   additions with **no doublings at all**. This is the signing hot path.
//! * [`Point::mul_double_generator`] — `a·G + b·P` for Schnorr verification. The
//!   GLV endomorphism `λ·(x, y) = (β·x, y)` splits each scalar into two ~128-bit
//!   halves, and Strauss interleaving runs the four streams `a₁·G + a₂·λG + b₁·P +
//!   b₂·λP` over one chain of ~129 doublings (width-8 affine tables for `G` and
//!   `λG`, built once; width-5 tables for `P` and `λP`, built per call).
//!   [`Point::mul`] is the same kernel with `a = 0`.
//! * [`Point::multi_mul`] — Pippenger bucket multi-scalar multiplication for batch
//!   verification: the per-point cost falls logarithmically with batch size.
//! * [`Point::mul_double_and_add`] — the original MSB-first double-and-add, retained
//!   as the differential-testing oracle every optimized path is pinned against.
//!
//! # Side-channel stance (read this honestly)
//!
//! The signing-side path ([`Point::mul_generator`]) executes a **fixed sequence of
//! point operations**: exactly 32 mixed additions, one per comb window, with a dummy
//! accumulator absorbing the addition when a window digit is zero. The *operation
//! trace* therefore does not depend on the secret scalar. This is deliberately the
//! strongest claim made: the implementation is **not constant-time** at finer
//! granularity — table indexing is by secret digit (cache-timing observable),
//! [`crate::u256::U256`] comparisons and conditional subtractions branch on data, and
//! the first non-dummy addition leaves infinity early. The threat model of this
//! research reproduction is a remote network attacker observing message timing, not a
//! co-resident cache-probing adversary; do not reuse this code where the latter
//! matters.

use crate::field::{beta, FieldElement};
use crate::scalar::Scalar;
use crate::u256::U256;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// A point on secp256k1 in Jacobian coordinates.
#[derive(Clone, Copy, Serialize, Deserialize)]
pub struct Point {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

/// An affine point, used for encoding, table storage and equality-friendly storage.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AffinePoint {
    /// Affine x coordinate.
    pub x: FieldElement,
    /// Affine y coordinate.
    pub y: FieldElement,
}

impl AffinePoint {
    /// Lifts the affine point back to Jacobian coordinates (`Z = 1`).
    pub fn to_point(&self) -> Point {
        Point::from_affine_unchecked(self.x, self.y)
    }

    /// The affine negation `(x, −y)`.
    pub fn neg(&self) -> AffinePoint {
        AffinePoint {
            x: self.x,
            y: self.y.neg(),
        }
    }
}

/// Comb window width in bits: one table row per scalar byte.
const COMB_WINDOW: usize = 8;
/// Number of comb windows covering a 256-bit scalar.
const COMB_WINDOWS: usize = 256 / COMB_WINDOW;
/// Non-zero digits per comb window (1..=255).
const COMB_DIGITS: usize = (1 << COMB_WINDOW) - 1;
/// wNAF window width for the variable-base streams `P` and `λ·P`.
const WNAF_WIDTH: usize = 5;
/// Odd multiples stored per variable-base wNAF table: 1P, 3P, …, 15P.
const WNAF_TABLE: usize = 1 << (WNAF_WIDTH - 2);
/// wNAF window width for the generator streams of the verify path, whose tables are
/// built once per process.
const GEN_WNAF_WIDTH: usize = 8;
/// Odd multiples stored per generator wNAF table: 1G, 3G, …, 127G.
const GEN_WNAF_TABLE: usize = 1 << (GEN_WNAF_WIDTH - 2);
/// wNAF digits of a full-width scalar: a scalar below `n < 2^256` can carry into
/// bit 256.
const FULL_DIGITS: usize = 257;
/// wNAF digits of a GLV half, whose magnitude is below 2^129.
const HALF_DIGITS: usize = 130;

/// One-time precomputed generator tables: the fixed-base comb and the odd multiples
/// of `G` and `λ·G` used by the verify path.
struct GenPrecomp {
    /// `comb[w * COMB_DIGITS + (d-1)] = d · 2^{8w} · G` for `w ∈ 0..32`, `d ∈ 1..=255`.
    comb: Vec<AffinePoint>,
    /// `odd[i] = (2i+1) · G` for `i ∈ 0..64`.
    odd: [AffinePoint; GEN_WNAF_TABLE],
    /// `odd_lambda[i] = (2i+1) · λG`, each `odd[i]` with its x scaled by `β`.
    odd_lambda: [AffinePoint; GEN_WNAF_TABLE],
}

static GEN_PRECOMP: OnceLock<GenPrecomp> = OnceLock::new();

fn gen_precomp() -> &'static GenPrecomp {
    GEN_PRECOMP.get_or_init(|| {
        let g = Point::generator();
        let mut jacobian: Vec<Point> =
            Vec::with_capacity(COMB_WINDOWS * COMB_DIGITS + GEN_WNAF_TABLE);
        let mut base = g;
        for _ in 0..COMB_WINDOWS {
            let mut cur = base;
            jacobian.push(cur);
            for _ in 2..=COMB_DIGITS {
                cur = cur.add(&base);
                jacobian.push(cur);
            }
            // cur = 255·base here; one more addition advances to the next window's
            // base 256·base = 2^8·base.
            base = cur.add(&base);
        }
        let two_g = g.double();
        let mut odd_cur = g;
        jacobian.push(odd_cur);
        for _ in 1..GEN_WNAF_TABLE {
            odd_cur = odd_cur.add(&two_g);
            jacobian.push(odd_cur);
        }
        // One shared inversion converts the whole table to affine form.
        let affine = Point::batch_to_affine(&jacobian);
        let mut iter = affine.into_iter().map(|p| p.expect("table entries are finite"));
        let comb: Vec<AffinePoint> = iter.by_ref().take(COMB_WINDOWS * COMB_DIGITS).collect();
        let odd: [AffinePoint; GEN_WNAF_TABLE] = iter
            .collect::<Vec<_>>()
            .try_into()
            .expect("exactly GEN_WNAF_TABLE odd multiples");
        GenPrecomp {
            comb,
            odd_lambda: odd.map(|q| AffinePoint {
                x: q.x.mul(&beta()),
                y: q.y,
            }),
            odd,
        }
    })
}

/// Extracts the `width`-bit digit of `limbs` starting at bit `pos` (crossing limb
/// boundaries as needed); bits at or past 256 read as zero.
fn window_digit(limbs: &[u64; 4], pos: usize, width: usize) -> usize {
    if pos >= 256 {
        return 0;
    }
    let limb = pos / 64;
    let shift = pos % 64;
    let mut v = limbs[limb] >> shift;
    if shift + width > 64 && limb + 1 < 4 {
        v |= limbs[limb + 1] << (64 - shift);
    }
    (v & ((1u64 << width) - 1)) as usize
}

/// A scalar in width-`w` non-adjacent form: `digits[i]` weighs `2^i`, every non-zero
/// digit is odd with `|d| < 2^{w−1}` and followed by at least `w−1` zeros, and `len`
/// is one past the highest non-zero digit.
struct Wnaf<const N: usize> {
    digits: [i8; N],
    len: usize,
}

/// Recodes `k` (or `−k` when `negate`) to width-`w` NAF. Windows are read straight
/// from the limbs, with a carry standing in for the subtraction of a negative digit,
/// so `k` itself is never modified. `N` must exceed `k.bits()`: the final carry
/// lands on bit `k.bits()`.
fn wnaf<const N: usize>(k: &U256, w: usize, negate: bool) -> Wnaf<N> {
    debug_assert!(k.bits() < N && w <= GEN_WNAF_WIDTH);
    let mut naf = Wnaf {
        digits: [0; N],
        len: 0,
    };
    let mut carry = 0;
    let mut bit = 0;
    while bit < N {
        if window_digit(&k.limbs, bit, 1) == carry {
            bit += 1;
            continue;
        }
        // The window's low bit differs from the carry, so `word` is odd and below 2^w.
        let word = window_digit(&k.limbs, bit, w) + carry;
        carry = word >> (w - 1);
        let digit = word as i32 - (carry << w) as i32;
        naf.digits[bit] = if negate { -digit } else { digit } as i8;
        naf.len = bit + 1;
        bit += w;
    }
    naf
}

/// The wNAFs of both GLV halves of `k` (see [`Scalar::split_lambda`]). A half is
/// recoded from whichever of `h`, `n − h` is shorter, with its digits negated in
/// the second case.
fn glv_wnaf(k: &Scalar, w: usize) -> [Wnaf<HALF_DIGITS>; 2] {
    let (k1, k2) = k.split_lambda();
    [k1, k2].map(|half| {
        let minus = half.neg().as_u256();
        let plus = half.as_u256();
        if minus < plus {
            wnaf(&minus, w, true)
        } else {
            wnaf(&plus, w, false)
        }
    })
}

impl Point {
    /// The point at infinity (group identity).
    pub fn infinity() -> Self {
        Point {
            x: FieldElement::one(),
            y: FieldElement::one(),
            z: FieldElement::zero(),
        }
    }

    /// The standard generator `G`.
    pub fn generator() -> Self {
        let gx = FieldElement::from_u256(
            U256::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
                .unwrap(),
        );
        let gy = FieldElement::from_u256(
            U256::from_hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")
                .unwrap(),
        );
        Point {
            x: gx,
            y: gy,
            z: FieldElement::one(),
        }
    }

    /// Builds a point from affine coordinates without checking the curve equation.
    pub fn from_affine_unchecked(x: FieldElement, y: FieldElement) -> Self {
        Point {
            x,
            y,
            z: FieldElement::one(),
        }
    }

    /// Builds a point from affine coordinates, verifying `y² = x³ + 7`.
    pub fn from_affine(x: FieldElement, y: FieldElement) -> Option<Self> {
        let lhs = y.square();
        let rhs = x.square().mul(&x).add(&FieldElement::from_u64(7));
        if lhs == rhs {
            Some(Self::from_affine_unchecked(x, y))
        } else {
            None
        }
    }

    /// Returns true for the point at infinity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts to affine coordinates; `None` for the point at infinity.
    pub fn to_affine(&self) -> Option<AffinePoint> {
        if self.is_infinity() {
            return None;
        }
        let z_inv = self.z.invert().expect("non-infinity point has invertible z");
        let z_inv2 = z_inv.square();
        let z_inv3 = z_inv2.mul(&z_inv);
        Some(AffinePoint {
            x: self.x.mul(&z_inv2),
            y: self.y.mul(&z_inv3),
        })
    }

    /// Converts a slice of points to affine form with **one** shared field inversion
    /// (Montgomery's trick on the Z coordinates). Infinity maps to `None`.
    pub fn batch_to_affine(points: &[Point]) -> Vec<Option<AffinePoint>> {
        let mut zs: Vec<FieldElement> = points.iter().map(|p| p.z).collect();
        FieldElement::batch_invert(&mut zs);
        points
            .iter()
            .zip(zs.iter())
            .map(|(p, z_inv)| {
                if p.is_infinity() {
                    None
                } else {
                    let z_inv2 = z_inv.square();
                    let z_inv3 = z_inv2.mul(z_inv);
                    Some(AffinePoint {
                        x: p.x.mul(&z_inv2),
                        y: p.y.mul(&z_inv3),
                    })
                }
            })
            .collect()
    }

    /// Point doubling (a = 0 short Weierstrass formulas).
    pub fn double(&self) -> Point {
        if self.is_infinity() || self.y.is_zero() {
            return Point::infinity();
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        // D = 2*((X1+B)^2 - A - C)
        let d = self.x.add(&b).square().sub(&a).sub(&c).double();
        let e = a.mul_small(3);
        let f = e.square();
        let x3 = f.sub(&d.double());
        let y3 = e.mul(&d.sub(&x3)).sub(&c.mul_small(8));
        let z3 = self.y.mul(&self.z).double();
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point addition.
    pub fn add(&self, other: &Point) -> Point {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = other.x.mul(&z1z1);
        let s1 = self.y.mul(&z2z2).mul(&other.z);
        let s2 = other.y.mul(&z1z1).mul(&self.z);

        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Point::infinity();
        }

        let h = u2.sub(&u1);
        let i = h.double().square();
        let j = h.mul(&i);
        let r = s2.sub(&s1).double();
        let v = u1.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&s1.mul(&j).double());
        let z3 = self
            .z
            .add(&other.z)
            .square()
            .sub(&z1z1)
            .sub(&z2z2)
            .mul(&h);
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition of an affine point (`Z2 = 1`): 7 multiplications + 4 squarings
    /// against the 11M + 5S of the general formula — the workhorse of every
    /// table-driven multiplication path.
    pub fn add_affine(&self, other: &AffinePoint) -> Point {
        if self.is_infinity() {
            return other.to_point();
        }
        let z1z1 = self.z.square();
        let u2 = other.x.mul(&z1z1);
        let s2 = other.y.mul(&z1z1).mul(&self.z);
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Point::infinity();
        }
        let h = u2.sub(&self.x);
        let hh = h.square();
        let i = hh.double().double();
        let j = h.mul(&i);
        let r = s2.sub(&self.y).double();
        let v = self.x.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&self.y.mul(&j).double());
        let z3 = self.z.add(&h).square().sub(&z1z1).sub(&hh);
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point negation.
    pub fn neg(&self) -> Point {
        Point {
            x: self.x,
            y: self.y.neg(),
            z: self.z,
        }
    }

    /// Subtraction `self - other`.
    pub fn sub(&self, other: &Point) -> Point {
        self.add(&other.neg())
    }

    /// Scalar multiplication by plain double-and-add (most significant bit first).
    ///
    /// This is the original, obviously-correct algorithm, **retained as the
    /// differential-testing oracle**: the proptest suites pin [`Self::mul`],
    /// [`Self::mul_generator`], [`Self::mul_double_generator`] and
    /// [`Self::multi_mul`] against it for random and adversarial scalars. Do not use
    /// it on hot paths.
    pub fn mul_double_and_add(&self, k: &Scalar) -> Point {
        let mut result = Point::infinity();
        let bits = k.bits();
        for i in (0..bits).rev() {
            result = result.double();
            if k.bit(i) {
                result = result.add(self);
            }
        }
        result
    }

    /// Builds the odd-multiple table `[P, 3P, 5P, …, 15P]` for width-5 wNAF.
    fn odd_multiples(&self) -> [Point; WNAF_TABLE] {
        let two_p = self.double();
        let mut table = [*self; WNAF_TABLE];
        for i in 1..WNAF_TABLE {
            table[i] = table[i - 1].add(&two_p);
        }
        table
    }

    /// `λ·self`, by the endomorphism `(x, y) ↦ (β·x, y)`: in Jacobian coordinates
    /// only `X` scales, so it costs one field multiplication.
    fn endomorphism(&self) -> Point {
        Point {
            x: self.x.mul(&beta()),
            ..*self
        }
    }

    /// Adds the wNAF digit `d`'s multiple from an odd-multiple table
    /// (`table[i] = (2i+1)·Q`); zero adds nothing.
    fn add_wnaf_digit(&self, table: &[Point], d: i8) -> Point {
        let entry = &table[(d.unsigned_abs() >> 1) as usize];
        match d {
            0 => *self,
            1.. => self.add(entry),
            _ => self.add(&entry.neg()),
        }
    }

    /// [`Self::add_wnaf_digit`] for an affine table, by mixed addition.
    fn add_wnaf_affine(&self, table: &[AffinePoint], d: i8) -> Point {
        let entry = &table[(d.unsigned_abs() >> 1) as usize];
        match d {
            0 => *self,
            1.. => self.add_affine(entry),
            _ => self.add_affine(&entry.neg()),
        }
    }

    /// Variable-base scalar multiplication: [`Self::mul_double_generator`] with no
    /// generator term, i.e. the GLV split over ~129 doublings.
    pub fn mul(&self, k: &Scalar) -> Point {
        Self::mul_double_generator(&Scalar::zero(), k, self)
    }

    /// `k·G` for the standard generator via the fixed-base comb table: exactly 32
    /// mixed additions (one per byte window), no doublings. Zero digits perform the
    /// same addition into a dummy accumulator so the signing-side operation sequence
    /// does not depend on the scalar (see the module docs for the honest limits of
    /// that claim).
    pub fn mul_generator(k: &Scalar) -> Point {
        let pre = gen_precomp();
        let limbs = k.as_u256().limbs;
        let mut acc = Point::infinity();
        let mut dummy = Point::infinity();
        for w in 0..COMB_WINDOWS {
            let digit = window_digit(&limbs, w * COMB_WINDOW, COMB_WINDOW);
            let row = w * COMB_DIGITS;
            if digit == 0 {
                dummy = dummy.add_affine(&pre.comb[row]);
            } else {
                acc = acc.add_affine(&pre.comb[row + digit - 1]);
            }
        }
        std::hint::black_box(&dummy);
        acc
    }

    /// `a·G + b·self`, the kernel of Schnorr verification, by Strauss interleaving
    /// over the GLV split. With `a = a₁ + a₂·λ` and `b = b₁ + b₂·λ` for ~128-bit
    /// halves (see [`Scalar::split_lambda`]), the product becomes four half-length
    /// streams `a₁·G + a₂·(λG) + b₁·P + b₂·(λP)` that share one chain of ~129
    /// doublings instead of ~256. The generator streams add from the once-built
    /// affine width-8 tables; `P`'s width-5 table is built per call, and `λP`'s is
    /// derived from it with one field multiplication per entry.
    pub fn mul_double_generator(a: &Scalar, b: &Scalar, p: &Point) -> Point {
        let pre = gen_precomp();
        let p_table = p.odd_multiples();
        let lambda_p_table = p_table.map(|q| q.endomorphism());
        let [a1, a2] = glv_wnaf(a, GEN_WNAF_WIDTH);
        let [b1, b2] = glv_wnaf(b, WNAF_WIDTH);
        let len = a1.len.max(a2.len).max(b1.len).max(b2.len);
        let mut result = Point::infinity();
        for i in (0..len).rev() {
            result = result
                .double()
                .add_wnaf_affine(&pre.odd, a1.digits[i])
                .add_wnaf_affine(&pre.odd_lambda, a2.digits[i])
                .add_wnaf_digit(&p_table, b1.digits[i])
                .add_wnaf_digit(&lambda_p_table, b2.digits[i]);
        }
        result
    }

    /// Multi-scalar multiplication `Σ kᵢ·Pᵢ` by the Pippenger bucket method: the
    /// window width grows with the batch so the amortized per-point cost *falls* as
    /// batches grow — the engine behind batch signature verification.
    pub fn multi_mul(pairs: &[(Scalar, Point)]) -> Point {
        match pairs.len() {
            0 => return Point::infinity(),
            1 => return pairs[0].1.mul(&pairs[0].0),
            _ => {}
        }
        // Window width c minimizes (256/c)·(n + 2^{c+1}): each of the 256/c windows
        // pays n bucket insertions plus two suffix-sum additions per bucket.
        let c = match pairs.len() {
            0..=15 => 3,
            16..=63 => 4,
            64..=255 => 5,
            256..=1023 => 6,
            1024..=4095 => 8,
            _ => 9,
        };
        let points: Vec<Point> = pairs.iter().map(|(_, p)| *p).collect();
        let affine = Point::batch_to_affine(&points);
        let windows = 256usize.div_ceil(c);
        let mut result = Point::infinity();
        let mut buckets: Vec<Point> = vec![Point::infinity(); (1 << c) - 1];
        for wi in (0..windows).rev() {
            if !result.is_infinity() {
                for _ in 0..c {
                    result = result.double();
                }
            }
            for b in buckets.iter_mut() {
                *b = Point::infinity();
            }
            let mut any = false;
            for ((k, _), aff) in pairs.iter().zip(affine.iter()) {
                let Some(aff) = aff else { continue };
                // wi < ceil(256/c), so pos <= 255; the top window may be narrower.
                let pos = wi * c;
                let width = c.min(256 - pos);
                let digit = window_digit(&k.as_u256().limbs, pos, width);
                if digit != 0 {
                    buckets[digit - 1] = buckets[digit - 1].add_affine(aff);
                    any = true;
                }
            }
            if !any {
                continue;
            }
            // Suffix sums turn bucket contents into Σ d·bucket[d] with 2·(2^c − 1)
            // additions: running = Σ_{j≥d} bucket[j], acc accumulates the runnings.
            let mut running = Point::infinity();
            let mut acc = Point::infinity();
            for b in buckets.iter().rev() {
                running = running.add(b);
                acc = acc.add(&running);
            }
            result = result.add(&acc);
        }
        result
    }

    /// SEC1 compressed encoding (33 bytes: `02/03 || x`); `None` for infinity.
    pub fn to_compressed(&self) -> Option<[u8; 33]> {
        let affine = self.to_affine()?;
        let mut out = [0u8; 33];
        out[0] = if affine.y.is_odd() { 0x03 } else { 0x02 };
        out[1..].copy_from_slice(&affine.x.to_be_bytes());
        Some(out)
    }

    /// Decodes a SEC1 compressed point, checking it lies on the curve.
    pub fn from_compressed(bytes: &[u8; 33]) -> Option<Point> {
        let parity_odd = match bytes[0] {
            0x02 => false,
            0x03 => true,
            _ => return None,
        };
        let mut x_bytes = [0u8; 32];
        x_bytes.copy_from_slice(&bytes[1..]);
        let x = FieldElement::from_be_bytes(&x_bytes);
        // y^2 = x^3 + 7
        let rhs = x.square().mul(&x).add(&FieldElement::from_u64(7));
        let mut y = rhs.sqrt()?;
        if y.is_odd() != parity_odd {
            y = y.neg();
        }
        Point::from_affine(x, y)
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        match (self.is_infinity(), other.is_infinity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            // Cross-multiplied comparison avoids inversions:
            // x1/z1^2 == x2/z2^2  <=>  x1*z2^2 == x2*z1^2, similarly for y with cubes.
            (false, false) => {
                let z1z1 = self.z.square();
                let z2z2 = other.z.square();
                let x_eq = self.x.mul(&z2z2) == other.x.mul(&z1z1);
                let y_eq =
                    self.y.mul(&z2z2).mul(&other.z) == other.y.mul(&z1z1).mul(&self.z);
                x_eq && y_eq
            }
        }
    }
}

impl Eq for Point {}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_affine() {
            None => write!(f, "Point(infinity)"),
            Some(a) => write!(
                f,
                "Point(x=0x{}, y=0x{})",
                a.x.as_u256().to_hex(),
                a.y.as_u256().to_hex()
            ),
        }
    }
}

/// The wNAF recoding, exposed so the integration suite can check that it
/// reconstructs its input.
pub mod selftest {
    use super::{wnaf, Wnaf, FULL_DIGITS};
    use crate::scalar::Scalar;

    /// Width-`w` NAF digits of `k` (`2 ≤ w ≤ 8`), least significant first, up to
    /// the highest non-zero one.
    pub fn wnaf_digits(k: &Scalar, w: usize) -> Vec<i8> {
        let naf: Wnaf<FULL_DIGITS> = wnaf(&k.as_u256(), w, false);
        naf.digits[..naf.len].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn affine_hex(p: &Point) -> (String, String) {
        let a = p.to_affine().unwrap();
        (a.x.as_u256().to_hex(), a.y.as_u256().to_hex())
    }

    #[test]
    fn generator_is_on_curve() {
        let g = Point::generator().to_affine().unwrap();
        assert!(Point::from_affine(g.x, g.y).is_some());
    }

    #[test]
    fn two_g_known_value() {
        let two_g = Point::generator().double();
        let (x, y) = affine_hex(&two_g);
        assert_eq!(
            x,
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
        );
        assert_eq!(
            y,
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a"
        );
    }

    #[test]
    fn three_g_known_value() {
        let g = Point::generator();
        let three_g = g.double().add(&g);
        let (x, _) = affine_hex(&three_g);
        assert_eq!(
            x,
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9"
        );
    }

    #[test]
    fn add_commutative_and_double_consistent() {
        let g = Point::generator();
        let two_g = g.double();
        assert_eq!(g.add(&two_g), two_g.add(&g));
        assert_eq!(g.add(&g), two_g);
    }

    #[test]
    fn identity_laws() {
        let g = Point::generator();
        let inf = Point::infinity();
        assert_eq!(g.add(&inf), g);
        assert_eq!(inf.add(&g), g);
        assert_eq!(g.add(&g.neg()), inf);
        assert!(inf.to_compressed().is_none());
    }

    #[test]
    fn add_affine_matches_general_addition() {
        let g = Point::generator();
        let p = g.mul_double_and_add(&Scalar::from_u64(0xdead_beef));
        let q = g.mul_double_and_add(&Scalar::from_u64(0xcafe));
        let q_aff = q.to_affine().unwrap();
        assert_eq!(p.add_affine(&q_aff), p.add(&q));
        // Degenerate cases: infinity + affine, P + P (doubling), P + (−P).
        assert_eq!(Point::infinity().add_affine(&q_aff), q);
        assert_eq!(q.add_affine(&q_aff), q.double());
        assert_eq!(q.neg().add_affine(&q_aff), Point::infinity());
    }

    #[test]
    fn batch_to_affine_matches_individual_conversion() {
        let g = Point::generator();
        let points = vec![
            g,
            g.double(),
            Point::infinity(),
            g.mul_double_and_add(&Scalar::from_u64(12345)),
        ];
        let batch = Point::batch_to_affine(&points);
        for (p, batch_affine) in points.iter().zip(batch.iter()) {
            assert_eq!(*batch_affine, p.to_affine());
        }
        assert!(Point::batch_to_affine(&[]).is_empty());
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let g = Point::generator();
        let mut acc = Point::infinity();
        for k in 1u64..=8 {
            acc = acc.add(&g);
            assert_eq!(g.mul(&Scalar::from_u64(k)), acc, "k={k}");
            assert_eq!(Point::mul_generator(&Scalar::from_u64(k)), acc, "k={k}");
        }
    }

    #[test]
    fn all_backends_agree_on_sample_scalars() {
        let g = Point::generator();
        let p = g.mul_double_and_add(&Scalar::from_u64(0x1234_5678));
        let samples = [
            Scalar::zero(),
            Scalar::one(),
            Scalar::from_u64(2),
            Scalar::from_u64(0xffff_ffff_ffff_ffff),
            Scalar::from_u256(crate::scalar::order().wrapping_sub(&U256::ONE)),
            Scalar::from_u256(U256::MAX),
        ];
        for k in samples {
            let oracle_g = g.mul_double_and_add(&k);
            assert_eq!(Point::mul_generator(&k), oracle_g, "comb k={k:?}");
            assert_eq!(g.mul(&k), oracle_g, "wnaf k={k:?}");
            let oracle_p = p.mul_double_and_add(&k);
            assert_eq!(p.mul(&k), oracle_p, "wnaf var-base k={k:?}");
            assert!(Point::infinity().mul(&k).is_infinity());
            for a in samples {
                let expected = g.mul_double_and_add(&a).add(&oracle_p);
                assert_eq!(
                    Point::mul_double_generator(&a, &k, &p),
                    expected,
                    "strauss a={a:?} b={k:?}"
                );
            }
        }
    }

    #[test]
    fn multi_mul_matches_sum_of_oracle_muls() {
        let g = Point::generator();
        let pairs: Vec<(Scalar, Point)> = (1u64..18)
            .map(|i| {
                (
                    Scalar::from_u64(i * 0x0123_4567_89ab + 3),
                    g.mul_double_and_add(&Scalar::from_u64(i)),
                )
            })
            .collect();
        let mut expected = Point::infinity();
        for (k, p) in &pairs {
            expected = expected.add(&p.mul_double_and_add(k));
        }
        assert_eq!(Point::multi_mul(&pairs), expected);
        assert_eq!(Point::multi_mul(&[]), Point::infinity());
        assert_eq!(
            Point::multi_mul(&pairs[..1]),
            pairs[0].1.mul_double_and_add(&pairs[0].0)
        );
        // Infinity entries contribute nothing.
        let mut with_inf = pairs.clone();
        with_inf.push((Scalar::from_u64(99), Point::infinity()));
        assert_eq!(Point::multi_mul(&with_inf), expected);
    }

    #[test]
    fn wnaf_recoding_reconstructs_the_scalar() {
        for k in [1u64, 2, 3, 0xdead_beef, u64::MAX] {
            for negate in [false, true] {
                let naf: Wnaf<FULL_DIGITS> = wnaf(&U256::from_u64(k), WNAF_WIDTH, negate);
                let mut acc = 0i128;
                for &d in naf.digits[..naf.len].iter().rev() {
                    acc = acc * 2 + d as i128;
                }
                let expected = if negate { -(k as i128) } else { k as i128 };
                assert_eq!(acc, expected, "k={k} negate={negate}");
                assert!(naf.digits[naf.len..].iter().all(|&d| d == 0));
                for &d in &naf.digits {
                    assert!(d == 0 || d % 2 != 0, "non-zero wNAF digits are odd");
                    assert!(d.unsigned_abs() < (1 << (WNAF_WIDTH - 1)));
                }
            }
        }
    }

    #[test]
    fn order_times_generator_is_infinity() {
        let n = crate::scalar::order();
        // n mod n == 0 as a Scalar, so multiply by (n-1) and add G instead.
        let nm1 = Scalar::from_u256(n.wrapping_sub(&U256::ONE));
        let p = Point::mul_generator(&nm1).add(&Point::generator());
        assert!(p.is_infinity());
    }

    #[test]
    fn compressed_round_trip() {
        for k in [1u64, 2, 3, 7, 1000, 0xdeadbeef] {
            let p = Point::mul_generator(&Scalar::from_u64(k));
            let compressed = p.to_compressed().unwrap();
            let decoded = Point::from_compressed(&compressed).unwrap();
            assert_eq!(decoded, p);
        }
    }

    #[test]
    fn from_compressed_rejects_invalid() {
        let mut bad = [0u8; 33];
        bad[0] = 0x05;
        assert!(Point::from_compressed(&bad).is_none());
        // x with no valid y (x = 5 happens to be a valid x? check robustness by flipping
        // until at least one reject is observed across a few small x values)
        let mut rejected = false;
        for x in 0u8..20 {
            let mut candidate = [0u8; 33];
            candidate[0] = 0x02;
            candidate[32] = x;
            if Point::from_compressed(&candidate).is_none() {
                rejected = true;
            }
        }
        assert!(rejected);
    }

    #[test]
    fn scalar_distributivity() {
        let a = Scalar::from_u64(1234);
        let b = Scalar::from_u64(5678);
        let lhs = Point::mul_generator(&a.add(&b));
        let rhs = Point::mul_generator(&a).add(&Point::mul_generator(&b));
        assert_eq!(lhs, rhs);
    }
}
