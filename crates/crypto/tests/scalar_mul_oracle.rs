//! Differential suite for the optimized scalar-multiplication backends.
//!
//! Every fast path — the fixed-base comb ([`Point::mul_generator`]), wNAF
//! variable-base multiplication ([`Point::mul`]), the GLV-split Strauss double-scalar
//! product ([`Point::mul_double_generator`]), Pippenger multi-scalar multiplication
//! ([`Point::multi_mul`]) and batch Schnorr verification — is pinned against the
//! retained plain double-and-add oracle ([`Point::mul_double_and_add`]) for random
//! scalars, adversarial edge scalars (0, 1, n−1, high Hamming weight) and random
//! points, and the batch-with-bad-signatures bisection is checked end to end. The
//! GLV split and the wNAF recoding underneath are checked to reconstruct their
//! input exactly.

use ng_crypto::keys::KeyPair;
use ng_crypto::point::selftest::wnaf_digits;
use ng_crypto::point::Point;
use ng_crypto::scalar::{lambda, order, Scalar};
use ng_crypto::schnorr::{self, BatchEntry};
use ng_crypto::sha256::sha256;
use ng_crypto::u256::U256;
use proptest::prelude::*;

/// Expands four random limbs into a scalar (reduced mod n).
fn scalar_from_limbs(limbs: &[u64]) -> Scalar {
    Scalar::from_u256(U256::from_limbs([limbs[0], limbs[1], limbs[2], limbs[3]]))
}

/// A curve point derived from a seed through the oracle path only, so it is
/// independent of the backends under test.
fn point_from_seed(seed: u64) -> Point {
    Point::generator().mul_double_and_add(&Scalar::from_u64(seed | 1))
}

/// Scalars worth singling out: identities, order boundaries, maximal Hamming weight,
/// single bits at limb boundaries.
fn edge_scalars() -> Vec<Scalar> {
    let mut edges = vec![
        Scalar::zero(),
        Scalar::one(),
        Scalar::from_u64(2),
        Scalar::from_u256(order().wrapping_sub(&U256::ONE)),
        Scalar::from_u256(order().wrapping_sub(&U256::from_u64(2))),
        // Reduces to 2^256 − n (exercises the from_u256 fold).
        Scalar::from_u256(U256::MAX),
        // High Hamming weight patterns.
        Scalar::from_u256(
            U256::from_hex("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
                .unwrap(),
        ),
        Scalar::from_u256(
            U256::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff")
                .unwrap(),
        ),
    ];
    for bit in [63usize, 64, 127, 128, 191, 192, 255] {
        edges.push(Scalar::from_u256(U256::ONE.shl_by(bit)));
    }
    // The GLV split's boundaries: λ and −λ split into (0, ±1), and 2^128 ± 1 sit
    // at the edge of the halves' range.
    let two_128 = U256::ONE.shl_by(128);
    edges.extend([
        lambda(),
        lambda().neg(),
        Scalar::from_u256(two_128.wrapping_sub(&U256::ONE)),
        Scalar::from_u256(two_128.wrapping_add(&U256::ONE)),
    ]);
    edges
}

/// The magnitude of `k` read as a signed value in `(−n/2, n/2)`.
fn signed_magnitude(k: &Scalar) -> U256 {
    k.as_u256().min(k.neg().as_u256())
}

#[test]
fn edge_scalars_split_and_recode_exactly() {
    for k in edge_scalars() {
        let (k1, k2) = k.split_lambda();
        assert_eq!(k1.add(&k2.mul(&lambda())), k, "split k={k:?}");
        assert!(signed_magnitude(&k1).bits() <= 129, "k₁ of {k:?}");
        assert!(signed_magnitude(&k2).bits() <= 129, "k₂ of {k:?}");
        for w in [5, 8] {
            assert_eq!(from_wnaf(&wnaf_digits(&k, w)), k, "w={w} k={k:?}");
        }
    }
}

/// Σ dᵢ·2^i mod n, evaluated most significant digit first.
fn from_wnaf(digits: &[i8]) -> Scalar {
    digits.iter().rev().fold(Scalar::zero(), |acc, &d| {
        let digit = Scalar::from_u64(d.unsigned_abs() as u64);
        let doubled = acc.add(&acc);
        if d < 0 {
            doubled.sub(&digit)
        } else {
            doubled.add(&digit)
        }
    })
}

#[test]
fn edge_scalars_agree_across_all_backends() {
    let g = Point::generator();
    let p = point_from_seed(0xfeed_beef_1234);
    for k in edge_scalars() {
        let oracle_g = g.mul_double_and_add(&k);
        assert_eq!(Point::mul_generator(&k), oracle_g, "comb k={k:?}");
        assert_eq!(g.mul(&k), oracle_g, "wnaf(G) k={k:?}");
        let oracle_p = p.mul_double_and_add(&k);
        assert_eq!(p.mul(&k), oracle_p, "wnaf(P) k={k:?}");
        for a in edge_scalars() {
            let expected = g.mul_double_and_add(&a).add(&oracle_p);
            assert_eq!(
                Point::mul_double_generator(&a, &k, &p),
                expected,
                "strauss a={a:?} b={k:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn comb_and_wnaf_match_oracle(limbs in proptest::collection::vec(any::<u64>(), 4)) {
        let k = scalar_from_limbs(&limbs);
        let g = Point::generator();
        let oracle = g.mul_double_and_add(&k);
        prop_assert_eq!(Point::mul_generator(&k), oracle);
        prop_assert_eq!(g.mul(&k), oracle);
    }

    #[test]
    fn glv_split_recombines_into_short_halves(limbs in proptest::collection::vec(any::<u64>(), 4)) {
        let k = scalar_from_limbs(&limbs);
        let (k1, k2) = k.split_lambda();
        prop_assert_eq!(k1.add(&k2.mul(&lambda())), k);
        prop_assert!(signed_magnitude(&k1).bits() <= 129);
        prop_assert!(signed_magnitude(&k2).bits() <= 129);
    }

    #[test]
    fn wnaf_recoding_reconstructs_the_scalar(
        limbs in proptest::collection::vec(any::<u64>(), 4),
        w in 2usize..=8,
    ) {
        let k = scalar_from_limbs(&limbs);
        let digits = wnaf_digits(&k, w);
        prop_assert_eq!(from_wnaf(&digits), k);
        for (i, &d) in digits.iter().enumerate() {
            if d != 0 {
                prop_assert!(d % 2 != 0 && d.unsigned_abs() < 1 << (w - 1));
                prop_assert!(digits[i + 1..].iter().take(w - 1).all(|&z| z == 0));
            }
        }
    }

    #[test]
    fn variable_base_wnaf_matches_oracle(
        limbs in proptest::collection::vec(any::<u64>(), 4),
        seed in any::<u64>(),
    ) {
        let k = scalar_from_limbs(&limbs);
        let p = point_from_seed(seed);
        prop_assert_eq!(p.mul(&k), p.mul_double_and_add(&k));
    }

    #[test]
    fn strauss_shamir_matches_oracle(
        limbs in proptest::collection::vec(any::<u64>(), 8),
        seed in any::<u64>(),
    ) {
        let a = scalar_from_limbs(&limbs[..4]);
        let b = scalar_from_limbs(&limbs[4..]);
        let p = point_from_seed(seed);
        let expected = Point::generator()
            .mul_double_and_add(&a)
            .add(&p.mul_double_and_add(&b));
        prop_assert_eq!(Point::mul_double_generator(&a, &b, &p), expected);
    }

    #[test]
    fn multi_mul_matches_oracle_sum(
        raw in proptest::collection::vec(any::<u64>(), 0..48),
    ) {
        // Each element seeds one (scalar, point) pair; scalars get full width by
        // multiplying the seed across limbs.
        let entries: Vec<(Scalar, Point)> = raw
            .iter()
            .map(|&seed| {
                let k = scalar_from_limbs(&[
                    seed,
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    seed.rotate_left(17),
                    seed.wrapping_mul(0xBF58_476D_1CE4_E5B9),
                ]);
                (k, point_from_seed(seed))
            })
            .collect();
        let mut expected = Point::infinity();
        for (k, p) in &entries {
            expected = expected.add(&p.mul_double_and_add(k));
        }
        prop_assert_eq!(Point::multi_mul(&entries), expected);
    }

    #[test]
    fn batch_verify_accepts_exactly_the_valid_batches(
        seed in any::<u64>(),
        n in 1usize..12,
        // Fewer distinct keys than entries makes signers repeat, whose terms the
        // batch merges per key.
        distinct_keys in 1usize..13,
        bad_raw in proptest::collection::vec(0usize..12, 0..4),
    ) {
        let mut batch: Vec<BatchEntry> = (0..n)
            .map(|i| {
                let key = (i % distinct_keys) as u64;
                let kp = KeyPair::from_id(seed.wrapping_add(key).wrapping_mul(2654435761));
                let msg = sha256(&[seed.to_le_bytes(), (i as u64).to_le_bytes()].concat());
                (kp.public, msg, schnorr::sign(&kp.secret, &msg))
            })
            .collect();
        let mut bad: Vec<usize> = bad_raw.into_iter().filter(|i| *i < n).collect();
        bad.sort_unstable();
        bad.dedup();
        for &i in &bad {
            // Corrupt the response scalar: the signature stays structurally valid but
            // fails the group equation.
            let s = Scalar::from_be_bytes(&batch[i].2.s);
            batch[i].2.s = s.add(&Scalar::one()).to_be_bytes();
        }
        // The batch verdict matches the conjunction of individual verifies...
        let individually_ok = batch
            .iter()
            .all(|(pk, msg, sig)| schnorr::verify(pk, msg, sig).is_ok());
        prop_assert_eq!(schnorr::verify_batch(&batch).is_ok(), individually_ok);
        prop_assert_eq!(individually_ok, bad.is_empty());
        // ...and bisection identifies exactly the corrupted entries.
        prop_assert_eq!(schnorr::find_invalid(&batch), bad);
    }
}
