//! Known-answer and cross-consistency tests for the cryptographic substrate.

use vaq_crypto::sha256::{sha256, to_hex, Sha256};
use vaq_crypto::{BigUint, PublicKey, Signature, SignatureScheme, Signer};

/// NIST / de-facto standard SHA-256 vectors beyond the ones in the unit
/// tests (covering multi-block messages and byte-at-a-time feeding).
#[test]
fn sha256_additional_known_answers() {
    let cases: Vec<(&[u8], &str)> = vec![
        (
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        ),
        (
            b"The quick brown fox jumps over the lazy dog.",
            "ef537f25c895bfa782526529a9b63d97aa631564d5d789c2b765448c8635fb6c",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];
    for (msg, expected) in cases {
        assert_eq!(to_hex(&sha256(msg)), expected);
    }
}

#[test]
fn sha256_byte_at_a_time_matches_oneshot() {
    let msg: Vec<u8> = (0u8..=255).cycle().take(1031).collect();
    let oneshot = sha256(&msg);
    let mut h = Sha256::new();
    for b in &msg {
        h.update(std::slice::from_ref(b));
    }
    assert_eq!(h.finalize(), oneshot);
}

#[test]
fn biguint_modpow_matches_known_rsa_toy_example() {
    // Classic toy RSA: p = 61, q = 53, n = 3233, e = 17, d = 2753.
    let n = BigUint::from_u64(3233);
    let e = BigUint::from_u64(17);
    let d = BigUint::from_u64(2753);
    let m = BigUint::from_u64(65);
    let c = m.mod_pow(&e, &n);
    assert_eq!(c, BigUint::from_u64(2790));
    assert_eq!(c.mod_pow(&d, &n), m);
}

#[test]
fn biguint_large_known_product() {
    // 2^127 - 1 squared, checked against the known decimal-free hex value.
    let m127 = BigUint::from_hex("7fffffffffffffffffffffffffffffff").unwrap();
    let sq = m127.mul(&m127);
    assert_eq!(
        sq.to_hex(),
        "3fffffffffffffffffffffffffffffff00000000000000000000000000000001"
    );
}

#[test]
fn signatures_are_not_interchangeable_across_digests_or_schemes() {
    let rsa1 = SignatureScheme::test_rsa(1001);
    let rsa2 = SignatureScheme::test_rsa(1002);
    let dsa = SignatureScheme::test_dsa(1003);
    let d1 = sha256(b"digest one");
    let d2 = sha256(b"digest two");

    let s_rsa1 = rsa1.sign_digest(&d1);
    let s_dsa = dsa.sign_digest(&d1);

    // Correct pairings verify.
    assert!(rsa1.verifier().verify_digest(&d1, &s_rsa1));
    assert!(dsa.verifier().verify_digest(&d1, &s_dsa));
    // Every wrong pairing fails.
    assert!(!rsa1.verifier().verify_digest(&d2, &s_rsa1));
    assert!(!rsa2.verifier().verify_digest(&d1, &s_rsa1));
    assert!(!dsa.verifier().verify_digest(&d2, &s_dsa));
    assert!(!rsa1.verifier().verify_digest(&d1, &s_dsa));
    assert!(!dsa.verifier().verify_digest(&d1, &s_rsa1));
}

#[test]
fn many_sign_verify_cycles_are_stable() {
    let scheme = SignatureScheme::test_rsa(1004);
    let verifier = scheme.verifier();
    for i in 0..25u32 {
        let digest = sha256(&i.to_be_bytes());
        let sig = scheme.sign_digest(&digest);
        assert!(verifier.verify_digest(&digest, &sig), "cycle {i}");
        // A signature from one cycle never verifies another cycle's digest.
        let other = sha256(&(i + 1).to_be_bytes());
        assert!(!verifier.verify_digest(&other, &sig));
    }
}

/// Keys and signatures pinned across arithmetic changes: for each
/// `(modulus bits, seed)` the 20 signatures of `sha256(i.to_le_bytes())`,
/// concatenated and hashed. The digests were recorded before word-level
/// division, the short-exponent path and CRT signing went in, so a change to
/// any RNG draw in key generation or to any signature byte fails here.
#[test]
fn rsa_keys_and_signatures_match_the_recorded_vectors() {
    let recorded = [
        (
            128,
            1,
            "9d824e4821bfed3281d03ef7ab196f3440192f83674eec1f424033497fa54f5f",
        ),
        (
            128,
            7,
            "05599ab223d49d3effff7a5520ef6dab2472ec2acfc3acd41b01a505af3c0477",
        ),
        (
            256,
            3,
            "2a9d97b41c04e84caf113d7af0b71ec1b3a56b04155e0cbd8d0022e1e4a200a4",
        ),
        (
            1024,
            1,
            "28769014db335f90c98eca6d4b5725e02c6db63c419efb647b366bb554c59ce6",
        ),
        (
            1024,
            2,
            "d6e9bac7a6a1768bea218c9410cf39c5cbafc71ecbf706cd61361f6ecc614278",
        ),
    ];
    for (bits, seed, expected) in recorded {
        let scheme = SignatureScheme::new_rsa(bits, seed);
        let mut all = Vec::new();
        for i in 0..20u64 {
            match scheme.sign_digest(&sha256(&i.to_le_bytes())) {
                Signature::Rsa(sig) => all.extend_from_slice(&sig.bytes),
                Signature::Dsa(_) => unreachable!("an RSA scheme signs with RSA"),
            }
        }
        assert_eq!(to_hex(&sha256(&all)), expected, "RSA-{bits}, seed {seed}");
    }
}

/// DSA pinned the same way: for each `(p bits, q bits, seed)` the key's
/// `p`, `q`, `g`, `y` and the 20 signatures of `sha256(i.to_le_bytes())`,
/// their nonces drawn in order from the seeded nonce stream, concatenated
/// and hashed. Key generation, the verify tables and the signing all run
/// through the Montgomery arithmetic; these were recorded before it moved
/// to 64-bit limbs.
#[test]
fn dsa_keys_and_signatures_match_the_recorded_vectors() {
    let recorded = [
        (
            512,
            160,
            314159,
            "709891b4e56b8178084c0068e3ad0e660abf777f228369be3b0a74cebb5980db",
        ),
        (
            160,
            64,
            1,
            "e0b8341764ddfc0f37d1a1f34c86f5df740acca1ebd30112ca885297541ed9b1",
        ),
        (
            160,
            64,
            2,
            "40e39931087856b908ce6bb9e0ad08ed0136d053e208f3a1859ea257c1f12d1a",
        ),
    ];
    for (p_bits, q_bits, seed, expected) in recorded {
        let scheme = SignatureScheme::new_dsa(p_bits, q_bits, seed);
        let PublicKey::Dsa(key) = scheme.public_key() else {
            unreachable!("a DSA scheme has a DSA key")
        };
        let mut all = Vec::new();
        for value in [&key.p, &key.q, &key.g, &key.y] {
            all.extend_from_slice(&value.to_bytes_be());
        }
        for i in 0..20u64 {
            let digest = sha256(&i.to_le_bytes());
            let Signature::Dsa(sig) = scheme.sign_digest(&digest) else {
                unreachable!("a DSA scheme signs with DSA")
            };
            assert!(key.verify(&digest, &sig), "DSA-{p_bits}, seed {seed}, {i}");
            all.extend_from_slice(&sig.r.to_bytes_be());
            all.extend_from_slice(&sig.s.to_bytes_be());
        }
        let got = to_hex(&sha256(&all));
        assert_eq!(got, expected, "DSA-{p_bits}/{q_bits}, seed {seed}");
    }
}
