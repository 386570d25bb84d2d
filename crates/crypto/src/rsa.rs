//! Textbook RSA signatures over SHA-256 digests.
//!
//! The paper's experiments sign Merkle roots (and, in the baseline signature
//! mesh, every consecutive pair of records) with RSA. What matters for the
//! reproduction is the *cost model*: signing and verification are modular
//! exponentiations that dwarf the cost of a hash operation. This module
//! provides key generation, signing (`digest^d mod n`) and verification
//! (`sig^e mod n == encoded digest`), with a minimal deterministic encoding
//! of the digest into the modulus space.
//!
//! A key pair holds, beside `d`, the Chinese-remainder form of the private
//! key: a Montgomery context for each prime factor, `dP = d mod (p − 1)`,
//! `dQ = d mod (q − 1)` and `qInv = q⁻¹ mod p`. [`RsaKeyPair::sign`] runs two
//! half-width exponentiations and recombines them — the same integer in
//! `[0, n)` as the full-width `m^d mod n`, at about a third of the cost. A
//! fault in either half would leak a factor of `n` through the bad
//! signature (`gcd(sᵉ − m, n)`), so `sign` checks `sᵉ mod n == m` *before*
//! the signature leaves the function and recomputes it full-width from `d`
//! if the check fails; one short-exponent exponentiation per signature buys
//! that.

use crate::bignum::BigUint;
use crate::montgomery::MontgomeryContext;
use crate::prime::generate_prime;
use crate::sha256::{sha256, Digest};
use rand::Rng;
use std::fmt;

/// Public RSA verification key `(n, e)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Modulus `n = p * q`.
    pub n: BigUint,
    /// Public exponent (65537 unless the factorisation forces a fallback).
    pub e: BigUint,
}

/// RSA key pair; the private exponent and the factorisation stay in this
/// struct.
#[derive(Clone)]
pub struct RsaKeyPair {
    /// Public part.
    pub public: RsaPublicKey,
    /// Private exponent `d = e^{-1} mod phi(n)`; signs only when the CRT
    /// result fails its check.
    d: BigUint,
    /// The private key in Chinese-remainder form. Boxed: its two contexts
    /// are five times the size of the rest of the key pair, which
    /// [`SignatureScheme`](crate::signer::SignatureScheme) holds by value.
    crt: Box<CrtKey>,
}

/// The private key in Chinese-remainder form.
#[derive(Clone)]
struct CrtKey {
    /// Montgomery context for the prime factor `p`.
    p: MontgomeryContext,
    /// Montgomery context for the prime factor `q`.
    q: MontgomeryContext,
    /// `d mod (p - 1)`.
    dp: BigUint,
    /// `d mod (q - 1)`.
    dq: BigUint,
    /// `q^{-1} mod p`.
    q_inv: BigUint,
}

impl CrtKey {
    /// `m^d mod n` from the two half-width residues (Garner's recombination).
    fn pow_d(&self, m: &BigUint) -> BigUint {
        let (p, q) = (self.p.modulus(), self.q.modulus());
        let m1 = self.p.mod_pow(m, &self.dp);
        let m2 = self.q.mod_pow(m, &self.dq);
        let h = self.q_inv.mul_mod(&m1.sub_mod(&m2, p), p);
        m2.add(&h.mul(q))
    }
}

/// Prints the public half only: a key pair ends up in `{:?}` output through
/// any struct that holds one, and `d`, `p`, `q` or a CRT exponent in a log
/// is the key.
impl fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaKeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

/// An RSA signature (the raw modular value, big-endian encoded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaSignature {
    /// `encode(digest)^d mod n` as big-endian bytes.
    pub bytes: Vec<u8>,
}

impl RsaSignature {
    /// Size of the signature in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the signature is empty (never produced by [`RsaKeyPair::sign`]).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Encodes a digest into an integer smaller than `n` by hashing it again and
/// truncating to `n.bits() - 8` bits. Deterministic and collision-resistant
/// enough for the reproduction (a full PKCS#1 encoding is out of scope).
fn encode_digest(digest: &Digest, n: &BigUint) -> BigUint {
    // Expand the digest with counter-mode SHA-256 so the encoding fills the
    // modulus, then reduce below n by truncation.
    let target_bytes = ((n.bits().saturating_sub(8)) / 8).max(16);
    let mut material = Vec::with_capacity(target_bytes);
    let mut counter: u32 = 0;
    while material.len() < target_bytes {
        let mut block = Vec::with_capacity(36);
        block.extend_from_slice(digest);
        block.extend_from_slice(&counter.to_be_bytes());
        material.extend_from_slice(&sha256(&block));
        counter += 1;
    }
    material.truncate(target_bytes);
    BigUint::from_bytes_be(&material).rem(n)
}

impl RsaKeyPair {
    /// Generates a key pair with a modulus of roughly `modulus_bits` bits.
    ///
    /// `modulus_bits` of 512 matches the scale used for benchmarking; tests
    /// use smaller keys for speed. Panics if `modulus_bits < 64`.
    pub fn generate<R: Rng + ?Sized>(modulus_bits: usize, rng: &mut R) -> Self {
        assert!(modulus_bits >= 64, "modulus too small");
        let half = modulus_bits / 2;
        loop {
            let p = generate_prime(half, rng);
            let q = generate_prime(modulus_bits - half, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            let e = BigUint::from_u64(65537);
            let e = if phi.gcd(&e).is_one() {
                e
            } else {
                BigUint::from_u64(3)
            };
            if !phi.gcd(&e).is_one() {
                continue;
            }
            let d = match e.mod_inverse(&phi) {
                Some(d) => d,
                None => continue,
            };
            // Distinct odd primes: both contexts and the inverse exist.
            let (Some(p_ctx), Some(q_ctx), Some(q_inv)) = (
                MontgomeryContext::new(&p),
                MontgomeryContext::new(&q),
                q.mod_inverse(&p),
            ) else {
                continue;
            };
            let crt = CrtKey {
                dp: d.rem(&p.sub(&BigUint::one())),
                dq: d.rem(&q.sub(&BigUint::one())),
                p: p_ctx,
                q: q_ctx,
                q_inv,
            };
            return RsaKeyPair {
                public: RsaPublicKey { n, e },
                d,
                crt: Box::new(crt),
            };
        }
    }

    /// Signs a 32-byte digest.
    ///
    /// The signature is computed by CRT and checked against the public key
    /// before it is returned (see the module docs); the bytes are exactly
    /// those of `encode(digest)^d mod n`.
    pub fn sign(&self, digest: &Digest) -> RsaSignature {
        let RsaPublicKey { n, e } = &self.public;
        let m = encode_digest(digest, n);
        let mut s = self.crt.pow_d(&m);
        if s.mod_pow(e, n) != m {
            s = m.mod_pow(&self.d, n);
        }
        RsaSignature {
            bytes: s.to_bytes_be(),
        }
    }

    /// This key pair with `dP` off by one, as a fault in the `p` half of
    /// every signature would leave it.
    #[cfg(test)]
    fn with_corrupted_dp(mut self) -> Self {
        self.crt.dp = self.crt.dp.add(&BigUint::one());
        self
    }

    /// Signs an arbitrary message by hashing it first.
    pub fn sign_message(&self, message: &[u8]) -> RsaSignature {
        self.sign(&sha256(message))
    }
}

impl RsaPublicKey {
    /// Verifies a signature over a 32-byte digest.
    ///
    /// Only the canonical encoding [`RsaKeyPair::sign`] emits is accepted:
    /// one to [`Self::signature_size`] bytes with no leading zero byte
    /// (`BigUint::from_bytes_be` would strip it, so a padded copy would
    /// otherwise verify as the original). This is checked before any bignum
    /// work, so a peer cannot make the verifier parse a long string.
    pub fn verify(&self, digest: &Digest, signature: &RsaSignature) -> bool {
        let canonical = match signature.bytes.as_slice() {
            [] | [0, _, ..] => false,
            bytes => bytes.len() <= self.signature_size(),
        };
        if !canonical {
            return false;
        }
        let s = BigUint::from_bytes_be(&signature.bytes);
        if s.cmp_to(&self.n) != std::cmp::Ordering::Less {
            return false;
        }
        let recovered = s.mod_pow(&self.e, &self.n);
        let expected = encode_digest(digest, &self.n);
        recovered == expected
    }

    /// Verifies a signature over an arbitrary message (hashes it first).
    pub fn verify_message(&self, message: &[u8], signature: &RsaSignature) -> bool {
        self.verify(&sha256(message), signature)
    }

    /// Approximate byte size of a signature under this key.
    pub fn signature_size(&self) -> usize {
        self.n.bits().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(bits, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair(256, 1);
        let digest = sha256(b"the root hash of an IFMH tree");
        let sig = kp.sign(&digest);
        assert!(kp.public.verify(&digest, &sig));
    }

    #[test]
    fn verify_rejects_wrong_digest() {
        let kp = keypair(256, 2);
        let sig = kp.sign(&sha256(b"original"));
        assert!(!kp.public.verify(&sha256(b"tampered"), &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = keypair(256, 3);
        let kp2 = keypair(256, 4);
        let digest = sha256(b"message");
        let sig = kp1.sign(&digest);
        assert!(!kp2.public.verify(&digest, &sig));
    }

    #[test]
    fn verify_rejects_bit_flipped_signature() {
        let kp = keypair(256, 5);
        let digest = sha256(b"message");
        let mut sig = kp.sign(&digest);
        sig.bytes[0] ^= 0x01;
        assert!(!kp.public.verify(&digest, &sig));
    }

    #[test]
    fn verify_rejects_oversized_signature_value() {
        let kp = keypair(256, 6);
        let digest = sha256(b"message");
        // A "signature" numerically >= n must be rejected outright.
        let huge = kp.public.n.add(&BigUint::one());
        let sig = RsaSignature {
            bytes: huge.to_bytes_be(),
        };
        assert!(!kp.public.verify(&digest, &sig));
    }

    #[test]
    fn verify_rejects_non_canonical_signature_bytes() {
        let kp = keypair(256, 6);
        let digest = sha256(b"message");
        let sig = kp.sign(&digest);
        assert!(kp.public.verify(&digest, &sig));
        // Zero-padded copies decode to the same integer; none may verify.
        for pad in [1usize, 2, 64, 4096] {
            let mut bytes = vec![0u8; pad];
            bytes.extend_from_slice(&sig.bytes);
            assert!(
                !kp.public.verify(&digest, &RsaSignature { bytes }),
                "{pad} leading zero bytes"
            );
        }
        // Longer than any value below n, without a leading zero.
        let mut bytes = vec![1u8; kp.public.signature_size() + 1 - sig.len()];
        bytes.extend_from_slice(&sig.bytes);
        assert!(!kp.public.verify(&digest, &RsaSignature { bytes }));
        // The empty string is a second spelling of zero.
        assert!(!kp.public.verify(&digest, &RsaSignature { bytes: vec![] }));
    }

    #[test]
    fn debug_prints_the_public_half_only() {
        let kp = keypair(256, 10);
        let shown = format!("{kp:?} {kp:#?}");
        assert!(shown.contains(&kp.public.n.to_hex()), "{shown}");
        let secrets = [
            ("d", &kp.d),
            ("p", kp.crt.p.modulus()),
            ("q", kp.crt.q.modulus()),
            ("dP", &kp.crt.dp),
            ("dQ", &kp.crt.dq),
            ("qInv", &kp.crt.q_inv),
        ];
        for (name, secret) in secrets {
            assert!(!shown.contains(&secret.to_hex()), "{name} in {shown}");
        }
        // The Montgomery contexts print raw limbs, not hex: their field
        // names must not appear either.
        for field in ["crt", "r2", "n0inv"] {
            assert!(!shown.contains(field), "{field} in {shown}");
        }
    }

    #[test]
    fn crt_sign_equals_full_width_exponentiation() {
        let mut rng = StdRng::seed_from_u64(77);
        for (bits, digests) in [(64usize, 16), (128, 16), (256, 16), (512, 8), (1024, 4)] {
            let kp = RsaKeyPair::generate(bits, &mut rng);
            let n = &kp.public.n;
            assert_eq!(kp.crt.p.modulus().mul(kp.crt.q.modulus()), *n);
            for _ in 0..digests {
                let digest = sha256(&rng.gen::<u64>().to_le_bytes());
                let m = encode_digest(&digest, n);
                let full_width = m.mod_pow_legacy(&kp.d, n);
                assert_eq!(kp.crt.pow_d(&m), full_width, "bits = {bits}");
                assert_eq!(kp.sign(&digest).bytes, full_width.to_bytes_be());
            }
        }
    }

    #[test]
    fn corrupted_crt_half_falls_back_to_the_full_width_signature() {
        let kp = keypair(256, 11);
        let faulty = kp.clone().with_corrupted_dp();
        for i in 0..8u32 {
            let digest = sha256(&i.to_le_bytes());
            let m = encode_digest(&digest, &kp.public.n);
            // The fault is real: the CRT half alone gives a wrong integer…
            assert_ne!(faulty.crt.pow_d(&m), kp.crt.pow_d(&m));
            // …and `sign` never lets it out.
            let sig = faulty.sign(&digest);
            assert_eq!(sig, kp.sign(&digest));
            assert!(kp.public.verify(&digest, &sig));
        }
    }

    #[test]
    fn sign_message_hashes_first() {
        let kp = keypair(256, 7);
        let sig = kp.sign_message(b"hello world");
        assert!(kp.public.verify_message(b"hello world", &sig));
        assert!(!kp.public.verify_message(b"hello worlds", &sig));
    }

    #[test]
    fn signature_size_reflects_modulus() {
        let kp = keypair(256, 8);
        assert!(kp.public.signature_size() >= 28 && kp.public.signature_size() <= 34);
        let sig = kp.sign(&sha256(b"x"));
        assert!(sig.len() <= kp.public.signature_size());
        assert!(!sig.is_empty());
    }

    #[test]
    fn deterministic_signing() {
        let kp = keypair(256, 9);
        let d = sha256(b"same input");
        assert_eq!(kp.sign(&d), kp.sign(&d));
    }
}
