//! Precomputed DSA signing: a replenished per-signer pool of
//! message-independent nonce pairs.
//!
//! A DSA signature `(r, s)` splits into a message-independent half —
//! `r = (g^k mod p) mod q` and `k⁻¹ mod q` — and a message-dependent half,
//! `s = k⁻¹ (z + x·r) mod q`. The expensive exponentiation lives entirely in
//! the first half, so a signer can precompute `(r, k⁻¹)` pairs ahead of time
//! (off the latency path, e.g. while idle between epochs) and collapse each
//! actual signing call to one modular multiply-add. [`DsaSigningPool`] holds
//! such a queue of pairs and replenishes itself in batches when drained; the
//! `g^k` precomputation itself rides the fixed-base Montgomery tables from
//! [`crate::montgomery`].
//!
//! Security note: as everywhere in this crate, nonces come from a seeded
//! [`StdRng`] for reproducibility — fine for reproducing the paper's
//! performance shape, not for protecting real data.
//!
//! It runs once per signature on the server's request path, so it is held
//! to the service's no-panic rule: the attribute below makes clippy refuse
//! `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` and direct slice
//! indexing outside tests.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]

use crate::bignum::BigUint;
use crate::dsa::DsaPublicKey;
use crate::montgomery::{FixedBaseTable, MontgomeryContext};
use rand::rngs::StdRng;
use std::collections::VecDeque;

/// A message-independent DSA nonce pair: `r = (g^k mod p) mod q` (nonzero)
/// and `k⁻¹ mod q`. Consumed by
/// [`DsaKeyPair::sign_with_pair`](crate::dsa::DsaKeyPair::sign_with_pair);
/// each pair must be used for at most one signature.
#[derive(Clone, Debug)]
pub struct DsaNoncePair {
    /// First signature component, already reduced mod `q`.
    pub(crate) r: BigUint,
    /// Inverse of the ephemeral nonce mod `q`.
    pub(crate) k_inv: BigUint,
}

/// A replenished queue of precomputed [`DsaNoncePair`]s for one signer.
#[derive(Debug)]
pub struct DsaSigningPool {
    p: BigUint,
    q: BigUint,
    g: BigUint,
    /// Montgomery context for `p` plus a fixed-base table for `g`, when `p`
    /// admits one (always, for generated keys); otherwise replenishment
    /// falls back to the generic `mod_pow`.
    ctx: Option<MontgomeryContext>,
    g_table: Option<FixedBaseTable>,
    pairs: VecDeque<DsaNoncePair>,
    rng: StdRng,
    batch: usize,
}

impl DsaSigningPool {
    /// Pairs generated per replenishment when the pool runs dry.
    pub const DEFAULT_BATCH: usize = 32;

    /// Builds an empty pool for the given public parameters. Pass a seeded
    /// `rng`; it is the sole source of ephemeral nonces for this pool.
    pub fn new(public: &DsaPublicKey, rng: StdRng) -> Self {
        let ctx = MontgomeryContext::new(&public.p);
        let g_table = ctx
            .as_ref()
            .map(|c| FixedBaseTable::new(c, &public.g, public.q.bits().max(1)));
        DsaSigningPool {
            p: public.p.clone(),
            q: public.q.clone(),
            g: public.g.clone(),
            ctx,
            g_table,
            pairs: VecDeque::new(),
            rng,
            batch: Self::DEFAULT_BATCH,
        }
    }

    /// Number of precomputed pairs currently available.
    pub fn available(&self) -> usize {
        self.pairs.len()
    }

    /// Generates up to `n` fresh pairs ahead of need (candidates with `r = 0`
    /// or a non-invertible nonce are skipped, so fewer than `n` may land).
    pub fn replenish(&mut self, n: usize) {
        for _ in 0..n {
            if let Some(pair) = self.generate_pair() {
                self.pairs.push_back(pair);
            }
        }
    }

    /// Takes the next pair, replenishing a batch first if the pool is dry.
    pub fn take(&mut self) -> DsaNoncePair {
        loop {
            if let Some(pair) = self.pairs.pop_front() {
                return pair;
            }
            self.replenish(self.batch);
        }
    }

    /// One candidate pair; `None` when the drawn nonce is unusable.
    fn generate_pair(&mut self) -> Option<DsaNoncePair> {
        // Ephemeral k in [1, q-1].
        let k =
            BigUint::random_below(&mut self.rng, &self.q.sub(&BigUint::one())).add(&BigUint::one());
        let g_pow_k = match (&self.ctx, &self.g_table) {
            (Some(ctx), Some(table)) => table.pow(ctx, &k),
            _ => self.g.mod_pow(&k, &self.p),
        };
        let r = g_pow_k.rem(&self.q);
        if r.is_zero() {
            return None;
        }
        let k_inv = k.mod_inverse(&self.q)?;
        Some(DsaNoncePair { r, k_inv })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::DsaKeyPair;
    use crate::sha256::sha256;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> DsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        DsaKeyPair::generate(160, 64, &mut rng)
    }

    #[test]
    fn pool_replenishes_and_drains() {
        let kp = keypair(21);
        let mut pool = DsaSigningPool::new(&kp.public, StdRng::seed_from_u64(99));
        assert_eq!(pool.available(), 0);
        pool.replenish(5);
        assert!(pool.available() >= 4, "replenish should land most pairs");
        let before = pool.available();
        let _ = pool.take();
        assert_eq!(pool.available(), before - 1);
    }

    #[test]
    fn empty_pool_take_self_replenishes() {
        let kp = keypair(22);
        let mut pool = DsaSigningPool::new(&kp.public, StdRng::seed_from_u64(7));
        let pair = pool.take();
        assert!(!pair.r.is_zero());
        assert!(pool.available() > 0);
    }

    #[test]
    fn pooled_signatures_verify_under_unchanged_verifier() {
        let kp = keypair(23);
        let mut pool = DsaSigningPool::new(&kp.public, StdRng::seed_from_u64(5));
        for i in 0..10u32 {
            let digest = sha256(&i.to_be_bytes());
            let sig = kp.sign_pooled(&digest, &mut pool);
            assert!(kp.public.verify(&digest, &sig), "pooled sig {i}");
        }
    }

    #[test]
    fn pooled_signatures_fail_on_tampered_digest_and_wrong_key() {
        let kp = keypair(24);
        let other = keypair(25);
        let mut pool = DsaSigningPool::new(&kp.public, StdRng::seed_from_u64(6));
        let digest = sha256(b"authentic");
        let sig = kp.sign_pooled(&digest, &mut pool);
        assert!(kp.public.verify(&digest, &sig));
        assert!(!kp.public.verify(&sha256(b"tampered"), &sig));
        assert!(!other.public.verify(&digest, &sig));
    }

    #[test]
    fn distinct_pairs_give_distinct_signatures() {
        let kp = keypair(26);
        let mut pool = DsaSigningPool::new(&kp.public, StdRng::seed_from_u64(8));
        let digest = sha256(b"same message");
        let s1 = kp.sign_pooled(&digest, &mut pool);
        let s2 = kp.sign_pooled(&digest, &mut pool);
        assert_ne!(s1, s2, "each pair is single-use; signatures must differ");
        assert!(kp.public.verify(&digest, &s1));
        assert!(kp.public.verify(&digest, &s2));
    }

    #[test]
    fn pooled_matches_fresh_signing_semantics() {
        // A pooled signature is just a valid DSA signature; the verifier
        // cannot tell it apart from the rng-per-call path.
        let kp = keypair(27);
        let mut rng = StdRng::seed_from_u64(9);
        let mut pool = DsaSigningPool::new(&kp.public, StdRng::seed_from_u64(10));
        let digest = sha256(b"either path");
        let fresh = kp.sign(&digest, &mut rng);
        let pooled = kp.sign_pooled(&digest, &mut pool);
        assert!(kp.public.verify(&digest, &fresh));
        assert!(kp.public.verify(&digest, &pooled));
    }
}
