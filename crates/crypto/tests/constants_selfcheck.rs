//! Constant self-checks: every magic table and curve constant in `ng_crypto`
//! re-derived from first principles, plus known-answer vectors, on both
//! compression dispatch paths.
//!
//! Motivation: the SHA-NI fast path once shipped with two round constants
//! swapped — every test that compared the two paths on the same machine passed
//! or failed together, and nothing pinned the constants themselves. Here the
//! SHA-256 `K`/`H0` tables are recomputed exactly (integer root-finding, no
//! floating point), a reference compressor built from the recomputed tables is
//! compared against both the portable and the SHA-NI path, and the secp256k1
//! field/order/generator constants are checked against their defining
//! equations and the SEC 2 encodings, and the GLV endomorphism constants
//! (β, λ, the lattice basis and the rounding multipliers g₁, g₂) against
//! theirs.

use ng_crypto::sha256::{selftest, sha256, Hash256};
use ng_crypto::u256::U256;
use ng_crypto::{field, point::Point, scalar, scalar::Scalar};

// ---------------------------------------------------------------------------
// First-principles recomputation of the SHA-256 tables
// ---------------------------------------------------------------------------

/// The first `n` primes, by trial division (n is tiny).
fn primes(n: usize) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::new();
    let mut c = 2u64;
    while out.len() < n {
        if out.iter().all(|p| !c.is_multiple_of(*p)) {
            out.push(c);
        }
        c += 1;
    }
    out
}

/// `floor(cbrt(v))` by binary search in u128 (exact, no floating point).
fn icbrt(v: u128) -> u128 {
    let (mut lo, mut hi) = (0u128, 1u128 << 43);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if mid.checked_mul(mid).and_then(|m| m.checked_mul(mid)).is_some_and(|m| m <= v) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// `floor(sqrt(v))` by binary search in u128.
fn isqrt(v: u128) -> u128 {
    let (mut lo, mut hi) = (0u128, 1u128 << 64);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if mid.checked_mul(mid).is_some_and(|m| m <= v) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// K[i] = first 32 fractional bits of cbrt(p_i): floor(cbrt(p_i)·2^32) mod 2^32,
/// and cbrt(p)·2^32 = cbrt(p·2^96), all within u128.
fn recompute_k() -> [u32; 64] {
    let mut k = [0u32; 64];
    for (i, p) in primes(64).into_iter().enumerate() {
        k[i] = icbrt((p as u128) << 96) as u32;
    }
    k
}

/// H0[i] = first 32 fractional bits of sqrt(p_i), via sqrt(p)·2^32 = sqrt(p·2^64).
fn recompute_h0() -> [u32; 8] {
    let mut h = [0u32; 8];
    for (i, p) in primes(8).into_iter().enumerate() {
        h[i] = isqrt((p as u128) << 64) as u32;
    }
    h
}

#[test]
fn k_table_matches_cube_roots_of_first_64_primes() {
    assert_eq!(selftest::k_table(), recompute_k());
}

#[test]
fn h0_matches_square_roots_of_first_8_primes() {
    assert_eq!(selftest::h0(), recompute_h0());
}

// ---------------------------------------------------------------------------
// Reference compressor from the recomputed tables, pinning both paths
// ---------------------------------------------------------------------------

/// Textbook FIPS 180-4 compression built from the *recomputed* K table: an
/// independent oracle for both production paths.
fn compress_reference(state: &mut [u32; 8], block: &[u8; 64]) {
    let k = recompute_k();
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(k[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Deterministic "random" blocks: enough variety to light up every round's
/// constant (a swapped K[i] pair changes the output of any non-degenerate
/// block, as the PR 6 bug did for rounds 12–15).
fn test_blocks() -> Vec<[u8; 64]> {
    let mut blocks = Vec::new();
    blocks.push([0u8; 64]);
    blocks.push([0xff; 64]);
    let mut counter = [0u8; 64];
    for (i, b) in counter.iter_mut().enumerate() {
        *b = i as u8;
    }
    blocks.push(counter);
    // A chain of hash-derived blocks.
    let mut seed = sha256(b"ng constants selfcheck").0;
    for _ in 0..16 {
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(&seed);
        let second = sha256(&seed).0;
        block[32..].copy_from_slice(&second);
        blocks.push(block);
        seed = second;
    }
    blocks
}

#[test]
fn portable_compression_matches_first_principles_reference() {
    let mut state_ref = recompute_h0();
    let mut state_soft = selftest::h0();
    for block in test_blocks() {
        compress_reference(&mut state_ref, &block);
        selftest::compress_soft(&mut state_soft, &block);
        assert_eq!(state_ref, state_soft);
    }
}

#[test]
fn shani_compression_matches_first_principles_reference() {
    let mut state_ref = recompute_h0();
    let mut state_hw = selftest::h0();
    let mut exercised = false;
    for block in test_blocks() {
        if !selftest::compress_hw(&mut state_hw, &block) {
            // CPU without the SHA extensions: the dispatch can only ever take
            // the portable path, which the previous test pins.
            return;
        }
        exercised = true;
        compress_reference(&mut state_ref, &block);
        assert_eq!(state_ref, state_hw);
    }
    assert!(exercised);
}

// ---------------------------------------------------------------------------
// NIST / FIPS 180-4 known-answer vectors, through the public (dispatching) API
// and through each compression path with explicit padding
// ---------------------------------------------------------------------------

const KAT: &[(&[u8], &str)] = &[
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
    (
        b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
    ),
];

#[test]
fn nist_vectors_via_public_api() {
    for (msg, want) in KAT {
        assert_eq!(sha256(msg).to_hex(), *want);
    }
}

/// FIPS 180-4 padding + repeated compression using the given one-block
/// primitive; digests the result for comparison against the KAT hex.
fn digest_with(compress: impl Fn(&mut [u32; 8], &[u8; 64]), msg: &[u8]) -> String {
    let mut padded = msg.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
    let mut state = selftest::h0();
    for block in padded.chunks_exact(64) {
        compress(&mut state, block.try_into().unwrap());
    }
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Hash256::from_bytes(out).to_hex()
}

#[test]
fn nist_vectors_via_portable_path() {
    for (msg, want) in KAT {
        assert_eq!(digest_with(selftest::compress_soft, msg), *want);
    }
}

#[test]
fn nist_vectors_via_shani_path() {
    let mut probe = selftest::h0();
    if !selftest::compress_hw(&mut probe, &[0u8; 64]) {
        return; // no SHA extensions on this CPU
    }
    for (msg, want) in KAT {
        let digest = digest_with(
            |state, block| {
                assert!(selftest::compress_hw(state, block));
            },
            msg,
        );
        assert_eq!(digest, *want);
    }
}

#[test]
fn million_a_vector_via_public_api() {
    let msg = vec![b'a'; 1_000_000];
    assert_eq!(
        sha256(&msg).to_hex(),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

// ---------------------------------------------------------------------------
// secp256k1 constants: defining equations + SEC 2 encodings
// ---------------------------------------------------------------------------

#[test]
fn field_prime_is_2_256_minus_2_32_minus_977() {
    // 2^256 − (2^32 + 977) computed as 0 − c in wrapping 256-bit arithmetic.
    let c = U256::from_u64((1u64 << 32) + 977);
    let p = U256::from_u64(0).wrapping_sub(&c);
    assert_eq!(field::prime(), p);
    // And the SEC 2 hex encoding.
    assert_eq!(
        field::prime(),
        U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .unwrap()
    );
}

#[test]
fn scalar_order_matches_sec2() {
    assert_eq!(
        scalar::order(),
        U256::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
            .unwrap()
    );
}

#[test]
fn generator_matches_sec2_and_lies_on_the_curve() {
    let gx = U256::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
        .unwrap();
    let gy = U256::from_hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")
        .unwrap();
    let g = Point::generator().to_affine().expect("generator is finite");
    assert_eq!(g.x.as_u256(), gx);
    assert_eq!(g.y.as_u256(), gy);
    // y² ≡ x³ + 7 (mod p), straight from U256 modular arithmetic — no
    // FieldElement involvement, so a broken field constant cannot self-excuse.
    let p = field::prime();
    let lhs = gy.mul_mod(&gy, &p);
    let rhs = gx.mul_mod(&gx, &p).mul_mod(&gx, &p).add_mod(&U256::from_u64(7), &p);
    assert_eq!(lhs, rhs);
}

#[test]
fn order_annihilates_the_generator() {
    // (n−1)·G ≠ ∞ and (n−1)·G + G = ∞: the group order really is n (up to the
    // cofactor-1 structure of secp256k1). Computing with n−1 avoids the trivial
    // 0·G = ∞ shortcut a Scalar reduction of n itself would take.
    let n_minus_1 = Scalar::from_u256(scalar::order().wrapping_sub(&U256::from_u64(1)));
    let almost = Point::mul_generator(&n_minus_1);
    assert!(!almost.is_infinity());
    assert!(almost.add(&Point::generator()).is_infinity());
    // And (n−1)·G must equal −G.
    let neg_g = Point::generator().neg();
    let (a, b) = (almost.to_affine().unwrap(), neg_g.to_affine().unwrap());
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------------
// GLV endomorphism: β, λ, the short lattice basis and the split multipliers
// ---------------------------------------------------------------------------

fn hex(s: &str) -> U256 {
    U256::from_hex(s).unwrap()
}

fn cube_mod(v: &U256, m: &U256) -> U256 {
    v.mul_mod(v, m).mul_mod(v, m)
}

#[test]
fn beta_is_a_nontrivial_cube_root_of_unity_mod_p() {
    let beta = field::beta().as_u256();
    assert_eq!(
        beta,
        hex("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee")
    );
    assert_ne!(beta, U256::ONE);
    assert_eq!(cube_mod(&beta, &field::prime()), U256::ONE);
}

#[test]
fn lambda_is_a_nontrivial_cube_root_of_unity_mod_n() {
    let lambda = scalar::lambda().as_u256();
    assert_eq!(
        lambda,
        hex("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72")
    );
    assert_ne!(lambda, U256::ONE);
    assert_eq!(cube_mod(&lambda, &scalar::order()), U256::ONE);
}

#[test]
fn lambda_times_generator_is_beta_scaled_generator() {
    // Through the double-and-add oracle only: the endomorphism the verify path
    // relies on, λ·(x, y) = (β·x, y), checked on G.
    let g = Point::generator().to_affine().unwrap();
    let lambda_g = Point::generator()
        .mul_double_and_add(&scalar::lambda())
        .to_affine()
        .unwrap();
    // β·x in plain U256 modular arithmetic, independent of FieldElement.
    let beta_gx = g.x.as_u256().mul_mod(&field::beta().as_u256(), &field::prime());
    assert_eq!(lambda_g.x.as_u256(), beta_gx);
    assert_eq!(lambda_g.y, g.y);
}

/// The short lattice basis `{(a₁, b₁), (a₂, b₂)}` with `b₁ < 0`, as magnitudes.
const A1: &str = "3086d221a7d46bcde86c90e49284eb15";
const MINUS_B1: &str = "e4437ed6010e88286f547fa90abfe4c3";
const A2: &str = "114ca50f7a8e2f3f657c1108d9d44cfd8";

#[test]
fn lattice_basis_vectors_lie_in_the_kernel_of_lambda() {
    let n = scalar::order();
    let lambda = scalar::lambda().as_u256();
    let (a1, minus_b1, a2) = (hex(A1), hex(MINUS_B1), hex(A2));
    let b2 = a1;
    // a₁ + b₁·λ ≡ 0, i.e. a₁ ≡ (−b₁)·λ.
    assert_eq!(a1, minus_b1.mul_mod(&lambda, &n));
    // a₂ + b₂·λ ≡ 0.
    assert_eq!(a2.add_mod(&b2.mul_mod(&lambda, &n), &n), U256::ZERO);
    // The split's constants are these: −b₁ and −b₂ mod n.
    let (split_minus_b1, split_minus_b2) = scalar::selftest::minus_b();
    assert_eq!(split_minus_b1.as_u256(), minus_b1);
    assert_eq!(split_minus_b2.as_u256(), n.wrapping_sub(&b2));
}

/// `round(b · 2^384 / n)` by schoolbook binary long division.
fn round_div_2_384(b: &U256, n: &U256) -> U256 {
    let mut quotient = U256::ZERO;
    let mut rem = U256::ZERO;
    for i in (0..512).rev() {
        let overflow = rem.bit(255);
        rem = rem.shl_by(1);
        if i >= 384 && b.bit(i - 384) {
            rem = rem.set_bit(0);
        }
        quotient = quotient.shl_by(1);
        if overflow || rem >= *n {
            rem = rem.wrapping_sub(n);
            quotient = quotient.set_bit(0);
        }
    }
    // Round half up: 2·rem ≥ n ⇔ rem ≥ n − rem.
    if rem >= n.wrapping_sub(&rem) {
        quotient = quotient.wrapping_add(&U256::ONE);
    }
    quotient
}

#[test]
fn split_multipliers_are_the_rounded_quotients() {
    let n = scalar::order();
    let (g1, g2) = scalar::selftest::g();
    assert_eq!(
        g1,
        hex("3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031")
    );
    assert_eq!(
        g2,
        hex("e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71")
    );
    // g₁ = round(2^384·b₂/n) with b₂ = a₁; g₂ = round(2^384·(−b₁)/n).
    assert_eq!(round_div_2_384(&hex(A1), &n), g1);
    assert_eq!(round_div_2_384(&hex(MINUS_B1), &n), g2);
}
