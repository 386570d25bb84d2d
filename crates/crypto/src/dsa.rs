//! Classic finite-field DSA signatures.
//!
//! Fig. 7c of the paper compares the verification cost of RSA against DSA.
//! DSA verification requires two modular exponentiations (versus one short
//! exponentiation for RSA with e = 65537), which is why the paper observes
//! RSA verifying faster — this module reproduces that cost relationship.

use crate::bignum::BigUint;
use crate::montgomery::{FixedBaseTable, MontgomeryContext};
use crate::prime::generate_dsa_primes;
use crate::sha256::{sha256, Digest};
use rand::Rng;
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// Fixed-base precomputation backing the fast verify path: a Montgomery
/// context for `p` plus windowed tables for `g` and `y`, so the two
/// exponentiations in `verify` become table lookups with no squarings.
#[derive(Debug)]
struct DsaVerifyTables {
    ctx: MontgomeryContext,
    g_table: FixedBaseTable,
    y_table: FixedBaseTable,
}

/// Lazily-initialized, shared verify tables. `None` inside the `Arc` means
/// the modulus does not admit a Montgomery context (even `p` — only possible
/// with hand-crafted parameters) and verification uses the generic path.
#[derive(Debug, Default)]
struct VerifyCache(OnceLock<Arc<Option<DsaVerifyTables>>>);

impl Clone for VerifyCache {
    fn clone(&self) -> Self {
        // Share the already-built tables with the clone; an unbuilt cache
        // clones to another unbuilt cache.
        let cell = OnceLock::new();
        if let Some(tables) = self.0.get() {
            let _ = cell.set(Arc::clone(tables));
        }
        VerifyCache(cell)
    }
}

/// DSA domain parameters and public key.
#[derive(Clone, Debug)]
pub struct DsaPublicKey {
    /// Prime modulus.
    pub p: BigUint,
    /// Prime group order dividing `p - 1`.
    pub q: BigUint,
    /// Group generator of order `q`.
    pub g: BigUint,
    /// Public value `y = g^x mod p`.
    pub y: BigUint,
    /// Precomputed fixed-base tables for the verify fast path.
    verify_cache: VerifyCache,
}

impl PartialEq for DsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The verify cache is derived state; identity is the parameters.
        self.p == other.p && self.q == other.q && self.g == other.g && self.y == other.y
    }
}

impl Eq for DsaPublicKey {}

/// DSA key pair (private exponent `x` kept internal).
#[derive(Clone)]
pub struct DsaKeyPair {
    /// Public part.
    pub public: DsaPublicKey,
    x: BigUint,
}

/// Prints the public half only, so `x` cannot reach a log through `{:?}`.
impl std::fmt::Debug for DsaKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsaKeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

/// A DSA signature `(r, s)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DsaSignature {
    /// First signature component.
    pub r: BigUint,
    /// Second signature component.
    pub s: BigUint,
}

impl DsaSignature {
    /// Serialized size in bytes (r and s, big-endian, concatenated).
    pub fn byte_len(&self) -> usize {
        self.r.to_bytes_be().len() + self.s.to_bytes_be().len()
    }
}

/// Reduces a digest to an integer modulo `q` (leftmost bits, FIPS 186 style).
fn digest_to_int(digest: &Digest, q: &BigUint) -> BigUint {
    let z = BigUint::from_bytes_be(digest);
    let excess = z.bits().saturating_sub(q.bits());
    z.shr(excess).rem(q)
}

impl DsaKeyPair {
    /// Generates parameters and a key pair.
    ///
    /// `p_bits`/`q_bits` of 512/160 reproduce the classic DSA sizes at
    /// benchmark scale; tests use smaller parameters for speed.
    pub fn generate<R: Rng + ?Sized>(p_bits: usize, q_bits: usize, rng: &mut R) -> Self {
        let (p, q) = generate_dsa_primes(p_bits, q_bits, rng);
        let p_minus_1 = p.sub(&BigUint::one());
        let exponent = p_minus_1.div_rem(&q).0;

        // Find a generator of the order-q subgroup.
        let g = loop {
            let h = BigUint::random_below(rng, &p_minus_1).add(&BigUint::one());
            let candidate = h.mod_pow(&exponent, &p);
            if !candidate.is_one() && !candidate.is_zero() {
                break candidate;
            }
        };

        // Private key x in [1, q-1], public key y = g^x mod p.
        let x = BigUint::random_below(rng, &q.sub(&BigUint::one())).add(&BigUint::one());
        let y = g.mod_pow(&x, &p);

        DsaKeyPair {
            public: DsaPublicKey::new(p, q, g, y),
            x,
        }
    }

    /// Signs a 32-byte digest.
    pub fn sign<R: Rng + ?Sized>(&self, digest: &Digest, rng: &mut R) -> DsaSignature {
        let pk = &self.public;
        let z = digest_to_int(digest, &pk.q);
        // `g^k` walks the fixed-base table the verify path builds (k < q,
        // the table's exponent width); without a Montgomery context for `p`
        // it falls back to the generic `mod_pow`.
        let tables = pk.verify_tables();
        loop {
            // Ephemeral k in [1, q-1].
            let k = BigUint::random_below(rng, &pk.q.sub(&BigUint::one())).add(&BigUint::one());
            let g_pow_k = match tables.as_ref() {
                Some(t) => t.g_table.pow(&t.ctx, &k),
                None => pk.g.mod_pow(&k, &pk.p),
            };
            let r = g_pow_k.rem(&pk.q);
            if r.is_zero() {
                continue;
            }
            let k_inv = match k.mod_inverse(&pk.q) {
                Some(v) => v,
                None => continue,
            };
            // s = k^-1 (z + x r) mod q
            let s = k_inv.mul_mod(&z.add(&self.x.mul_mod(&r, &pk.q)), &pk.q);
            if s.is_zero() {
                continue;
            }
            return DsaSignature { r, s };
        }
    }

    /// Signs an arbitrary message by hashing it first.
    pub fn sign_message<R: Rng + ?Sized>(&self, message: &[u8], rng: &mut R) -> DsaSignature {
        self.sign(&sha256(message), rng)
    }
}

impl DsaPublicKey {
    /// Builds a public key from its domain parameters and public value.
    ///
    /// The verify fast-path tables are built lazily on first `verify` and
    /// shared across clones, so constructing keys stays cheap.
    pub fn new(p: BigUint, q: BigUint, g: BigUint, y: BigUint) -> Self {
        DsaPublicKey {
            p,
            q,
            g,
            y,
            verify_cache: VerifyCache::default(),
        }
    }

    /// Returns (building on first use) the fixed-base verify tables, or
    /// `None` when `p` does not admit a Montgomery context.
    fn verify_tables(&self) -> Arc<Option<DsaVerifyTables>> {
        Arc::clone(self.verify_cache.0.get_or_init(|| {
            Arc::new(MontgomeryContext::new(&self.p).map(|ctx| {
                // u1, u2 < q, so q's width bounds every exponent we look up.
                let exp_bits = self.q.bits().max(1);
                let g_table = FixedBaseTable::new(&ctx, &self.g, exp_bits);
                let y_table = FixedBaseTable::new(&ctx, &self.y, exp_bits);
                DsaVerifyTables {
                    ctx,
                    g_table,
                    y_table,
                }
            }))
        }))
    }

    /// Verifies a signature over a 32-byte digest.
    pub fn verify(&self, digest: &Digest, signature: &DsaSignature) -> bool {
        let DsaSignature { r, s } = signature;
        if r.is_zero() || s.is_zero() {
            return false;
        }
        if r.cmp_to(&self.q) != Ordering::Less || s.cmp_to(&self.q) != Ordering::Less {
            return false;
        }
        let w = match s.mod_inverse(&self.q) {
            Some(w) => w,
            None => return false,
        };
        let z = digest_to_int(digest, &self.q);
        let u1 = z.mul_mod(&w, &self.q);
        let u2 = r.mul_mod(&w, &self.q);
        let tables = self.verify_tables();
        let v = match tables.as_ref() {
            // Fast path: both exponentiations are fixed-base table walks in
            // the Montgomery domain; the product never leaves the domain.
            Some(t) => {
                let factors = [(&t.g_table, &u1), (&t.y_table, &u2)];
                FixedBaseTable::pow_product(&t.ctx, &factors).rem(&self.q)
            }
            None => self
                .g
                .mod_pow(&u1, &self.p)
                .mul_mod(&self.y.mod_pow(&u2, &self.p), &self.p)
                .rem(&self.q),
        };
        v == *r
    }

    /// Verifies a signature over an arbitrary message (hashes it first).
    pub fn verify_message(&self, message: &[u8], signature: &DsaSignature) -> bool {
        self.verify(&sha256(message), signature)
    }

    /// Approximate serialized signature size in bytes (2 × |q|).
    pub fn signature_size(&self) -> usize {
        2 * self.q.bits().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> (DsaKeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = DsaKeyPair::generate(160, 64, &mut rng);
        (kp, rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (kp, mut rng) = keypair(1);
        let digest = sha256(b"subdomain S4 root hash");
        let sig = kp.sign(&digest, &mut rng);
        assert!(kp.public.verify(&digest, &sig));
    }

    #[test]
    fn verify_rejects_wrong_digest() {
        let (kp, mut rng) = keypair(2);
        let sig = kp.sign(&sha256(b"original"), &mut rng);
        assert!(!kp.public.verify(&sha256(b"forged"), &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let (kp1, mut rng1) = keypair(3);
        let (kp2, _) = keypair(4);
        let digest = sha256(b"message");
        let sig = kp1.sign(&digest, &mut rng1);
        assert!(!kp2.public.verify(&digest, &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let (kp, mut rng) = keypair(5);
        let digest = sha256(b"message");
        let sig = kp.sign(&digest, &mut rng);
        let tampered = DsaSignature {
            r: sig.r.add(&BigUint::one()).rem(&kp.public.q),
            s: sig.s.clone(),
        };
        assert!(!kp.public.verify(&digest, &tampered));
    }

    #[test]
    fn verify_rejects_zero_components() {
        let (kp, _) = keypair(6);
        let digest = sha256(b"message");
        let sig = DsaSignature {
            r: BigUint::zero(),
            s: BigUint::one(),
        };
        assert!(!kp.public.verify(&digest, &sig));
        let sig = DsaSignature {
            r: BigUint::one(),
            s: BigUint::zero(),
        };
        assert!(!kp.public.verify(&digest, &sig));
    }

    #[test]
    fn verify_rejects_out_of_range_components() {
        let (kp, mut rng) = keypair(7);
        let digest = sha256(b"message");
        let sig = kp.sign(&digest, &mut rng);
        let bad = DsaSignature {
            r: sig.r.add(&kp.public.q),
            s: sig.s.clone(),
        };
        assert!(!kp.public.verify(&digest, &bad));
    }

    #[test]
    fn different_nonces_give_different_signatures() {
        let (kp, mut rng) = keypair(8);
        let digest = sha256(b"message");
        let s1 = kp.sign(&digest, &mut rng);
        let s2 = kp.sign(&digest, &mut rng);
        assert_ne!(s1, s2);
        assert!(kp.public.verify(&digest, &s1));
        assert!(kp.public.verify(&digest, &s2));
    }

    #[test]
    fn debug_prints_the_public_half_only() {
        let (kp, _) = keypair(10);
        let shown = format!("{kp:?} {kp:#?}");
        assert!(shown.contains(&kp.public.y.to_hex()), "{shown}");
        assert!(!shown.contains(&kp.x.to_hex()), "x in {shown}");
    }

    #[test]
    fn message_api_roundtrip() {
        let (kp, mut rng) = keypair(9);
        let sig = kp.sign_message(b"range query result", &mut rng);
        assert!(kp.public.verify_message(b"range query result", &sig));
        assert!(!kp.public.verify_message(b"range query resulT", &sig));
        assert!(sig.byte_len() > 0);
        assert!(kp.public.signature_size() >= sig.byte_len() / 2);
    }
}
