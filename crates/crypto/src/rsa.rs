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
//! key: a Montgomery context for `n` and for each prime factor,
//! `dP = d mod (p − 1)`, `dQ = d mod (q − 1)`, and the two recombination
//! coefficients. [`RsaKeyPair::sign`] runs two half-width exponentiations
//! and recombines them — the same integer in `[0, n)` as the full-width
//! `m^d mod n`, at about a third of the cost. A fault in either half would
//! leak a factor of `n` through the bad signature (`gcd(sᵉ − m, n)`), so
//! `sign` checks `sᵉ mod n == m` *before* the signature leaves the function
//! and recomputes it full-width from `d` if the check fails; one
//! short-exponent exponentiation per signature buys that. Both run on
//! 64-bit limbs in stack scratch: up to 1,024-bit moduli `verify` allocates
//! nothing and `sign` only its result.

use crate::bignum::BigUint;
use crate::montgomery::{load_be, to_bytes_be, with_scratch, MontgomeryContext};
use crate::prime::generate_prime;
use crate::sha256::{sha256, Digest};
use rand::Rng;
use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

/// Public RSA verification key `(n, e)`.
#[derive(Clone)]
pub struct RsaPublicKey {
    /// Modulus `n = p * q`.
    pub n: BigUint,
    /// Public exponent (65537 unless the factorisation forces a fallback).
    pub e: BigUint,
    /// `n`'s Montgomery context, built by the first check and kept.
    context: OnceLock<Option<MontgomeryContext>>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The context is derived state; identity is the parameters.
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("n", &self.n)
            .field("e", &self.e)
            .finish()
    }
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
    /// The private key in Chinese-remainder form. Boxed: its three contexts
    /// are several times the size of the rest of the key pair, which
    /// [`SignatureScheme`](crate::signer::SignatureScheme) holds by value.
    crt: Box<CrtKey>,
}

/// The private key in Chinese-remainder form.
#[derive(Clone)]
struct CrtKey {
    /// Montgomery context for `n`: recombination, the fault check and the
    /// full-width fallback.
    n: MontgomeryContext,
    /// Montgomery context for the prime factor `p`.
    p: MontgomeryContext,
    /// Montgomery context for the prime factor `q`.
    q: MontgomeryContext,
    /// `d mod (p - 1)`.
    dp: BigUint,
    /// `d mod (q - 1)`.
    dq: BigUint,
    /// `q · (q⁻¹ mod p)` and `p · (p⁻¹ mod q)` in `n`'s Montgomery domain:
    /// `m_p · c_p + m_q · c_q mod n` is `≡ m_p (mod p)`, `≡ m_q (mod q)`.
    c_p: Vec<u64>,
    c_q: Vec<u64>,
}

impl CrtKey {
    /// `s ← m^d mod n` from the two half-width residues.
    fn pow_d(&self, m: &[u64], s: &mut [u64]) {
        let k = self.n.limbs();
        with_scratch(2 * k, |scratch| {
            let (m_p, m_q) = scratch.split_at_mut(k);
            self.p.pow_limbs(m, &self.dp, m_p);
            self.q.pow_limbs(m, &self.dq, m_q);
            self.n.mont_mul(m_p, &self.c_p, s);
            self.n.mont_mul(m_q, &self.c_q, m_p);
            self.n.add_mod(s, m_p);
        })
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
/// truncating to `n.bits() - 8` bits, into `out`'s `k` limbs. Deterministic
/// and collision-resistant enough for the reproduction (a full PKCS#1
/// encoding is out of scope).
fn encode_digest(digest: &Digest, n: &MontgomeryContext, out: &mut [u64]) {
    // Expand the digest with counter-mode SHA-256 so the encoding fills the
    // modulus, then reduce below n by truncation.
    let target_bytes = ((n.modulus().bits().saturating_sub(8)) / 8).max(16);
    let blocks = (0u32..).flat_map(|counter| {
        let mut block = [0u8; 36];
        let (head, tail) = block.split_at_mut(32);
        head.copy_from_slice(digest);
        tail.copy_from_slice(&counter.to_be_bytes());
        sha256(&block)
    });
    with_scratch(target_bytes.div_ceil(8), |material| {
        // The stream's first `target_bytes` bytes, most significant first.
        for (i, byte) in blocks.take(target_bytes).enumerate() {
            let bit = 8 * (target_bytes - 1 - i);
            material[bit / 64] |= u64::from(byte) << (bit % 64);
        }
        n.reduce(material, 0, out);
    })
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
            // Distinct odd primes: every context and both inverses exist.
            let (Some(n_ctx), Some(p_ctx), Some(q_ctx), Some(q_inv), Some(p_inv)) = (
                MontgomeryContext::new(&n),
                MontgomeryContext::new(&p),
                MontgomeryContext::new(&q),
                q.mod_inverse(&p),
                p.mod_inverse(&q),
            ) else {
                continue;
            };
            let crt = CrtKey {
                dp: d.rem(&p.sub(&BigUint::one())),
                dq: d.rem(&q.sub(&BigUint::one())),
                c_p: n_ctx.to_mont(&q.mul(&q_inv)),
                c_q: n_ctx.to_mont(&p.mul(&p_inv)),
                n: n_ctx,
                p: p_ctx,
                q: q_ctx,
            };
            return RsaKeyPair {
                public: RsaPublicKey::new(n, e),
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
        let n = &self.crt.n;
        let k = n.limbs();
        with_scratch(3 * k, |scratch| {
            let (m, rest) = scratch.split_at_mut(k);
            let (s, check) = rest.split_at_mut(k);
            encode_digest(digest, n, m);
            self.crt.pow_d(m, s);
            n.pow_limbs(s, &self.public.e, check);
            if check != m {
                n.pow_limbs(m, &self.d, s);
            }
            RsaSignature {
                bytes: to_bytes_be(s),
            }
        })
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
    /// The key `(n, e)`.
    pub fn new(n: BigUint, e: BigUint) -> Self {
        RsaPublicKey {
            n,
            e,
            context: OnceLock::new(),
        }
    }

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
        let n = match self.context.get_or_init(|| MontgomeryContext::new(&self.n)) {
            Some(n) if *n.modulus() == self.n => Cow::Borrowed(n),
            // `n` is a public field, reassigned since the context was built;
            // an even `n` is no RSA modulus and verifies nothing.
            _ => match MontgomeryContext::new(&self.n) {
                Some(n) => Cow::Owned(n),
                None => return false,
            },
        };
        let k = n.limbs();
        with_scratch(3 * k, |scratch| {
            let (s, rest) = scratch.split_at_mut(k);
            let (recovered, expected) = rest.split_at_mut(k);
            load_be(&signature.bytes, s);
            if !n.is_reduced(s) {
                return false;
            }
            n.pow_limbs(s, &self.e, recovered);
            encode_digest(digest, &n, expected);
            recovered == expected
        })
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
    use crate::montgomery::to_biguint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(bits, &mut rng)
    }

    /// `encode(digest)` and the CRT's `m^d mod n`, as integers.
    fn encoded_and_crt(kp: &RsaKeyPair, digest: &Digest) -> (BigUint, BigUint) {
        let k = kp.crt.n.limbs();
        let (mut m, mut s) = (vec![0; k], vec![0; k]);
        encode_digest(digest, &kp.crt.n, &mut m);
        kp.crt.pow_d(&m, &mut s);
        (to_biguint(&m), to_biguint(&s))
    }

    /// The encoding as it was computed on `BigUint`s.
    fn encode_digest_reference(digest: &Digest, n: &BigUint) -> BigUint {
        let target_bytes = ((n.bits().saturating_sub(8)) / 8).max(16);
        let mut material = Vec::new();
        for counter in 0u32.. {
            if material.len() >= target_bytes {
                break;
            }
            let block = [digest.as_slice(), &counter.to_be_bytes()].concat();
            material.extend_from_slice(&sha256(&block));
        }
        material.truncate(target_bytes);
        BigUint::from_bytes_be(&material).rem(n)
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
    fn verify_follows_a_reassigned_modulus() {
        let (kp1, kp2) = (keypair(256, 3), keypair(256, 4));
        let digest = sha256(b"message");
        let (sig1, sig2) = (kp1.sign(&digest), kp2.sign(&digest));
        let mut key = kp1.public.clone();
        assert!(key.verify(&digest, &sig1), "caches kp1's context");
        key.n = kp2.public.n.clone();
        key.e = kp2.public.e.clone();
        assert!(key.verify(&digest, &sig2));
        assert!(!key.verify(&digest, &sig1));
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
            ("cP", &to_biguint(&kp.crt.c_p)),
            ("cQ", &to_biguint(&kp.crt.c_q)),
        ];
        for (name, secret) in secrets {
            assert!(!shown.contains(&secret.to_hex()), "{name} in {shown}");
        }
        // The Montgomery contexts print raw limbs, not hex: their field
        // names must not appear either.
        for field in ["crt", "r2", "n0inv", "context"] {
            assert!(!shown.contains(field), "{field} in {shown}");
        }
    }

    #[test]
    fn crt_sign_equals_full_width_exponentiation() {
        let mut rng = StdRng::seed_from_u64(77);
        // 97 and 129 bits: halves of unequal limb counts, and a modulus
        // wider than two of its halves' limbs.
        let sizes = [
            (64usize, 16),
            (97, 8),
            (128, 16),
            (129, 8),
            (256, 16),
            (512, 8),
            (1024, 4),
        ];
        for (bits, digests) in sizes {
            let kp = RsaKeyPair::generate(bits, &mut rng);
            let n = &kp.public.n;
            assert_eq!(kp.crt.p.modulus().mul(kp.crt.q.modulus()), *n);
            for _ in 0..digests {
                let digest = sha256(&rng.gen::<u64>().to_le_bytes());
                let (m, crt) = encoded_and_crt(&kp, &digest);
                assert_eq!(m, encode_digest_reference(&digest, n), "bits = {bits}");
                let full_width = m.mod_pow_legacy(&kp.d, n);
                assert_eq!(crt, full_width, "bits = {bits}");
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
            // The fault is real: the CRT half alone gives a wrong integer…
            assert_ne!(
                encoded_and_crt(&faulty, &digest),
                encoded_and_crt(&kp, &digest)
            );
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
