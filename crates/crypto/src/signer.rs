//! Unified signing interface over RSA and DSA.
//!
//! The authenticated structures (IFMH-tree, signature mesh) only need
//! "sign this digest" / "verify this digest", and the experiments switch
//! between RSA and DSA (Fig. 7c). [`SignatureScheme`] bundles a key pair of
//! either kind behind one enum, and the [`Signer`] / [`Verifier`] traits
//! allow code to stay generic.

use crate::dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
use crate::rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
use crate::sha256::Digest;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::panic::resume_unwind;
use std::thread;

/// Which signature algorithm a [`SignatureScheme`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SignatureAlgorithm {
    /// RSA with public exponent 65537.
    Rsa,
    /// Finite-field DSA.
    Dsa,
}

/// A signature produced by either scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Signature {
    /// RSA signature bytes.
    Rsa(RsaSignature),
    /// DSA signature pair.
    Dsa(DsaSignature),
}

impl Signature {
    /// Serialized size in bytes, used for verification-object size accounting
    /// (Fig. 8).
    pub fn byte_len(&self) -> usize {
        match self {
            Signature::Rsa(s) => s.bytes.len(),
            Signature::Dsa(s) => s.byte_len(),
        }
    }
}

/// The fewest digests [`SignatureScheme`] hands one RSA signing thread.
/// Spawning and joining a scoped thread costs tens of microseconds; one
/// signature under a 128-bit test key costs ≈5 µs (a 1,024-bit key takes
/// ≈0.2 ms). At 64 digests a thread has a third of a millisecond of work
/// at the smallest key, so the spawn is about a tenth of it at worst, and
/// the few-dozen-subdomain trees that the test suites build by the hundred
/// stay on the calling thread.
const MIN_DIGESTS_PER_THREAD: usize = 64;

/// How many threads an RSA batch of `batch` digests is signed on: as many
/// as the machine runs at once, as long as each gets its floor of digests.
fn signing_threads(batch: usize) -> usize {
    let fed = batch / MIN_DIGESTS_PER_THREAD;
    if fed < 2 {
        return 1;
    }
    fed.min(thread::available_parallelism().map_or(1, usize::from))
}

/// Anything that can sign a 32-byte digest.
pub trait Signer {
    /// Signs the digest.
    fn sign_digest(&self, digest: &Digest) -> Signature;
    /// Signs every digest of a batch: `result[i]` is the signature of
    /// `digests[i]`, and the result is the one a loop over
    /// [`Self::sign_digest`] in slice order would give — which is what this
    /// default does, and what an implementation that splits the batch must
    /// still return.
    ///
    /// The owner's builders collect a structure's digests and sign them
    /// here in one call. [`SignatureScheme`] signs an RSA batch on
    /// [`std::thread::available_parallelism`] scoped threads once each
    /// would get at least a fixed floor of digests: RSA signing is a
    /// deterministic function of key and digest, so splitting cannot change
    /// a byte. Its DSA arm stays sequential: each signature draws the next
    /// nonce from one seeded generator, so the bytes depend on the order
    /// the digests are signed in.
    fn sign_digests(&self, digests: &[Digest]) -> Vec<Signature> {
        digests.iter().map(|d| self.sign_digest(d)).collect()
    }
    /// Returns the matching verifier.
    fn verifier(&self) -> Box<dyn Verifier>;
}

/// Anything that can verify a signature over a 32-byte digest.
pub trait Verifier: Send + Sync {
    /// Returns true if the signature is valid for the digest.
    fn verify_digest(&self, digest: &Digest, signature: &Signature) -> bool;
    /// Nominal signature size in bytes (for communication-cost accounting).
    fn signature_size(&self) -> usize;
}

/// A concrete key pair for one of the supported algorithms.
pub enum SignatureScheme {
    /// RSA key pair.
    Rsa(RsaKeyPair),
    /// DSA key pair plus the seeded generator its signing nonces come from.
    Dsa(DsaKeyPair, RefCell<StdRng>),
}

impl std::fmt::Debug for SignatureScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignatureScheme::Rsa(_) => write!(f, "SignatureScheme::Rsa"),
            SignatureScheme::Dsa(_, _) => write!(f, "SignatureScheme::Dsa"),
        }
    }
}

impl SignatureScheme {
    /// Generates an RSA scheme with the given modulus size.
    pub fn new_rsa(modulus_bits: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        SignatureScheme::Rsa(RsaKeyPair::generate(modulus_bits, &mut rng))
    }

    /// Generates a DSA scheme with the given parameter sizes.
    pub fn new_dsa(p_bits: usize, q_bits: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = DsaKeyPair::generate(p_bits, q_bits, &mut rng);
        let nonces = StdRng::seed_from_u64(seed ^ 0x5eed);
        SignatureScheme::Dsa(kp, RefCell::new(nonces))
    }

    /// A small/fast RSA scheme suitable for unit tests.
    pub fn test_rsa(seed: u64) -> Self {
        Self::new_rsa(128, seed)
    }

    /// A small/fast DSA scheme suitable for unit tests.
    pub fn test_dsa(seed: u64) -> Self {
        Self::new_dsa(160, 64, seed)
    }

    /// Which algorithm this scheme uses.
    pub fn algorithm(&self) -> SignatureAlgorithm {
        match self {
            SignatureScheme::Rsa(_) => SignatureAlgorithm::Rsa,
            SignatureScheme::Dsa(_, _) => SignatureAlgorithm::Dsa,
        }
    }

    /// Public-key half of the scheme.
    pub fn public_key(&self) -> PublicKey {
        match self {
            SignatureScheme::Rsa(kp) => PublicKey::Rsa(kp.public.clone()),
            SignatureScheme::Dsa(kp, _) => PublicKey::Dsa(kp.public.clone()),
        }
    }
}

impl Signer for SignatureScheme {
    fn sign_digest(&self, digest: &Digest) -> Signature {
        match self {
            SignatureScheme::Rsa(kp) => Signature::Rsa(kp.sign(digest)),
            SignatureScheme::Dsa(kp, nonces) => {
                Signature::Dsa(kp.sign(digest, &mut *nonces.borrow_mut()))
            }
        }
    }

    fn sign_digests(&self, digests: &[Digest]) -> Vec<Signature> {
        if let SignatureScheme::Rsa(kp) = self {
            let threads = signing_threads(digests.len());
            if threads > 1 {
                // One contiguous chunk per thread, concatenated in chunk
                // order. A panic in a signing thread resumes on the caller
                // once the scope has joined the others.
                return thread::scope(|scope| {
                    let handles: Vec<_> = digests
                        .chunks(digests.len().div_ceil(threads))
                        .map(|chunk| {
                            scope.spawn(move || {
                                let sign = |d| Signature::Rsa(kp.sign(d));
                                chunk.iter().map(sign).collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    let joined = handles.into_iter().map(|h| h.join());
                    joined
                        .flat_map(|signed| signed.unwrap_or_else(|panic| resume_unwind(panic)))
                        .collect()
                });
            }
        }
        digests.iter().map(|d| self.sign_digest(d)).collect()
    }

    fn verifier(&self) -> Box<dyn Verifier> {
        Box::new(self.public_key())
    }
}

/// Public verification key for either algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PublicKey {
    /// RSA public key.
    Rsa(RsaPublicKey),
    /// DSA public key.
    Dsa(DsaPublicKey),
}

impl Verifier for PublicKey {
    fn verify_digest(&self, digest: &Digest, signature: &Signature) -> bool {
        match (self, signature) {
            (PublicKey::Rsa(pk), Signature::Rsa(sig)) => pk.verify(digest, sig),
            (PublicKey::Dsa(pk), Signature::Dsa(sig)) => pk.verify(digest, sig),
            // Algorithm mismatch is always a verification failure.
            _ => false,
        }
    }

    fn signature_size(&self) -> usize {
        match self {
            PublicKey::Rsa(pk) => pk.signature_size(),
            PublicKey::Dsa(pk) => pk.signature_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    #[test]
    fn rsa_scheme_roundtrip() {
        let scheme = SignatureScheme::test_rsa(11);
        assert_eq!(scheme.algorithm(), SignatureAlgorithm::Rsa);
        let digest = sha256(b"root");
        let sig = scheme.sign_digest(&digest);
        let verifier = scheme.verifier();
        assert!(verifier.verify_digest(&digest, &sig));
        assert!(!verifier.verify_digest(&sha256(b"other"), &sig));
        assert!(verifier.signature_size() > 0);
    }

    #[test]
    fn dsa_scheme_roundtrip() {
        let scheme = SignatureScheme::test_dsa(12);
        assert_eq!(scheme.algorithm(), SignatureAlgorithm::Dsa);
        let digest = sha256(b"root");
        let sig = scheme.sign_digest(&digest);
        let verifier = scheme.verifier();
        assert!(verifier.verify_digest(&digest, &sig));
        assert!(!verifier.verify_digest(&sha256(b"other"), &sig));
    }

    #[test]
    fn algorithm_mismatch_rejected() {
        let rsa = SignatureScheme::test_rsa(13);
        let dsa = SignatureScheme::test_dsa(14);
        let digest = sha256(b"root");
        let rsa_sig = rsa.sign_digest(&digest);
        let dsa_verifier = dsa.verifier();
        assert!(!dsa_verifier.verify_digest(&digest, &rsa_sig));
    }

    #[test]
    fn signature_byte_len_positive() {
        let rsa = SignatureScheme::test_rsa(15);
        let digest = sha256(b"x");
        assert!(rsa.sign_digest(&digest).byte_len() > 0);
        let dsa = SignatureScheme::test_dsa(16);
        assert!(dsa.sign_digest(&digest).byte_len() > 0);
    }

    #[test]
    fn batch_signing_equals_one_by_one_signing_in_order() {
        let rsa = SignatureScheme::test_rsa(18);
        // DSA draws from a seeded nonce generator: same seed, same order, same
        // bytes — and each batch continues the sequence the last one left.
        let (dsa_batch, dsa_single) =
            (SignatureScheme::test_dsa(19), SignatureScheme::test_dsa(19));
        // Sizes on both sides of the two-thread floor, and one that does
        // not divide evenly into chunks.
        for len in [0usize, 1, 2 * MIN_DIGESTS_PER_THREAD - 1, 301] {
            let digests: Vec<Digest> = (0..len as u64).map(|i| sha256(&i.to_le_bytes())).collect();
            let one_by_one = |scheme: &SignatureScheme| -> Vec<Signature> {
                digests.iter().map(|d| scheme.sign_digest(d)).collect()
            };
            assert_eq!(
                rsa.sign_digests(&digests),
                one_by_one(&rsa),
                "RSA, {len} digests"
            );
            assert_eq!(
                dsa_batch.sign_digests(&digests),
                one_by_one(&dsa_single),
                "DSA, {len} digests"
            );
        }
    }

    #[test]
    fn only_batches_that_feed_two_threads_are_split() {
        for batch in 0..2 * MIN_DIGESTS_PER_THREAD {
            assert_eq!(signing_threads(batch), 1, "{batch} digests");
        }
        let cores = thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(signing_threads(2 * MIN_DIGESTS_PER_THREAD), cores.min(2));
        assert_eq!(signing_threads(1 << 20), cores);
    }

    #[test]
    fn public_key_clone_verifies_independently() {
        let scheme = SignatureScheme::test_rsa(17);
        let digest = sha256(b"cloned key");
        let sig = scheme.sign_digest(&digest);
        let pk = scheme.public_key();
        let pk2 = pk.clone();
        assert!(pk2.verify_digest(&digest, &sig));
    }
}
