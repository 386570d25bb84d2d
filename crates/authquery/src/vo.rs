//! Verification objects.

use vaq_crypto::sha256::{sha256, sha256_multi, sha256_pair, Digest, Sha256};
use vaq_crypto::Signature;
use vaq_funcdb::{HalfSpace, Record};
use vaq_mht::RangeProof;

/// Digest of the `f_min` sentinel leaf prepended to every sorted list.
pub fn min_sentinel_digest() -> Digest {
    sha256(b"vaq-authquery:fmh:min-sentinel")
}

/// Digest of the `f_max` sentinel leaf appended to every sorted list.
pub fn max_sentinel_digest() -> Digest {
    sha256(b"vaq-authquery:fmh:max-sentinel")
}

/// One of the two boundary entries flanking the query result in the sorted
/// function list.
#[derive(Clone, Debug, PartialEq)]
pub enum BoundaryEntry {
    /// The `f_min` token: the result starts at the very beginning of the
    /// list.
    MinSentinel,
    /// The `f_max` token: the result ends at the very end of the list.
    MaxSentinel,
    /// A real database record immediately adjacent to the result window; the
    /// client checks it does **not** satisfy the query condition, which is
    /// what proves completeness.
    Record(Record),
}

impl BoundaryEntry {
    /// The Merkle leaf digest of this boundary entry.
    pub fn leaf_digest(&self) -> Digest {
        match self {
            BoundaryEntry::MinSentinel => min_sentinel_digest(),
            BoundaryEntry::MaxSentinel => max_sentinel_digest(),
            BoundaryEntry::Record(r) => r.digest(),
        }
    }

    /// Approximate serialized size in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            BoundaryEntry::MinSentinel | BoundaryEntry::MaxSentinel => 1,
            BoundaryEntry::Record(r) => 1 + r.canonical_bytes().len(),
        }
    }
}

/// One step of the IMH-tree path included in a one-signature verification
/// object, in root-to-leaf order.
#[derive(Clone, Debug, PartialEq)]
pub struct IvStep {
    /// The ids of the two functions whose intersection this node records.
    pub pair: (u32, u32),
    /// Coefficients of the difference function `f_i − f_j`.
    pub coeffs: Vec<f64>,
    /// Constant of the difference function.
    pub constant: f64,
    /// Hash of the child that the search did **not** descend into.
    pub sibling_hash: Digest,
    /// True if the search descended into the *above* child.
    pub went_above: bool,
}

impl IvStep {
    /// Digest binding this intersection node's predicate, mixed into the
    /// node hash so a forged path cannot redirect the search.
    pub fn predicate_digest(&self) -> Digest {
        predicate_digest(self.pair, &self.coeffs, self.constant)
    }

    /// Approximate serialized size in bytes.
    pub fn byte_size(&self) -> usize {
        8 + self.coeffs.len() * 8 + 8 + 32 + 1
    }
}

/// The subdomain-verification part of a verification object.
#[derive(Clone, Debug, PartialEq)]
pub enum IntersectionVerification {
    /// One-signature scheme: the IMH path from the root down to the answered
    /// subdomain, with sibling hashes.
    OneSignature {
        /// Path steps in root-to-leaf order.
        path: Vec<IvStep>,
    },
    /// Multi-signature scheme: the set of inequality half-spaces that
    /// determines the answered subdomain (the signature covers their digest
    /// together with the subdomain's FMH root).
    MultiSignature {
        /// The subdomain's facets, in path order: the half-spaces of its
        /// I-tree path that bound it ([`vaq_itree::facets`]). At `d = 2` on
        /// central input that is at most two; elsewhere the whole path.
        halfspaces: Vec<HalfSpace>,
    },
}

impl IntersectionVerification {
    /// Approximate serialized size in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            IntersectionVerification::OneSignature { path } => {
                path.iter().map(IvStep::byte_size).sum()
            }
            IntersectionVerification::MultiSignature { halfspaces } => {
                halfspaces.iter().map(|h| h.canonical_bytes().len()).sum()
            }
        }
    }
}

/// The verification object `VO(q)` accompanying a query result.
#[derive(Clone, Debug, PartialEq)]
pub struct VerificationObject {
    /// The FMH-tree leaf index of the **left boundary** entry; the result
    /// records occupy the following consecutive leaves, and the right
    /// boundary the leaf after those.
    pub first_leaf: u32,
    /// Entry immediately to the left of the result window.
    pub left_boundary: BoundaryEntry,
    /// Entry immediately to the right of the result window.
    pub right_boundary: BoundaryEntry,
    /// Merkle range proof covering `[left boundary, …, right boundary]`.
    pub range_proof: RangeProof,
    /// Subdomain verification data (IMH path or inequality set).
    pub intersection_verification: IntersectionVerification,
    /// The owner's signature: over the IMH root (one-signature) or over
    /// `H(inequalities ‖ subdomain hash)` (multi-signature).
    pub signature: Signature,
}

impl VerificationObject {
    /// Approximate size of the verification object in bytes — the
    /// communication-cost metric of Fig. 8.
    pub fn byte_size(&self) -> usize {
        4 + self.left_boundary.byte_size()
            + self.right_boundary.byte_size()
            + self.range_proof.byte_size()
            + self.intersection_verification.byte_size()
            + self.signature.byte_len()
    }

    /// Number of signatures carried (always 1 for the IFMH schemes; the
    /// signature-mesh baseline carries `|q| + 1`).
    pub fn signature_count(&self) -> usize {
        1
    }
}

/// Digest of an intersection node's predicate (the pair of function ids and
/// the difference function). Shared by the owner (tree construction) and the
/// client (path recomputation).
pub fn predicate_digest(pair: (u32, u32), coeffs: &[f64], constant: f64) -> Digest {
    let mut h = Sha256::new();
    h.update(&pair.0.to_be_bytes());
    h.update(&pair.1.to_be_bytes());
    for c in coeffs {
        h.update(&c.to_be_bytes());
    }
    h.update(&constant.to_be_bytes());
    h.finalize()
}

/// Computes the hash stored at a subdomain node: the FMH root bound to the
/// number of leaves of that FMH-tree.
///
/// Binding the leaf count prevents an adversary from presenting a truncated
/// list with a re-balanced tree shape as if it were the full list.
pub fn subdomain_node_hash(fmh_root: &Digest, leaf_count: u32) -> Digest {
    sha256_multi(&[fmh_root, &leaf_count.to_be_bytes()])
}

/// Computes the hash stored at an intersection node:
/// `H(predicate ‖ above ‖ below)`.
pub fn intersection_node_hash(predicate: &Digest, above: &Digest, below: &Digest) -> Digest {
    sha256_multi(&[predicate, above, below])
}

/// Computes the digest signed by the multi-signature scheme for one
/// subdomain: `H(inequality-digest ‖ subdomain-node-hash)`.
pub fn multi_signature_digest(inequality_digest: &Digest, subdomain_hash: &Digest) -> Digest {
    sha256_pair(inequality_digest, subdomain_hash)
}

/// Binds a to-be-signed digest to a publication epoch:
/// `H("VAQ-EPOCH" ‖ epoch ‖ digest)`.
///
/// The owner signs the epoch-bound digest instead of the raw structure
/// digest, so a signature produced for epoch `e` can never authenticate the
/// same (or any other) structure at a different epoch. This is what lets a
/// client that learned the current epoch from the attested publication
/// reject a **replayed** response that was honestly signed under a
/// superseded publication — the replay verifies only at its own epoch.
pub fn epoch_binding_digest(digest: &Digest, epoch: u64) -> Digest {
    sha256_multi(&[b"VAQ-EPOCH", &epoch.to_be_bytes(), digest])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_digests_are_distinct_and_stable() {
        assert_ne!(min_sentinel_digest(), max_sentinel_digest());
        assert_eq!(min_sentinel_digest(), min_sentinel_digest());
    }

    #[test]
    fn epoch_binding_separates_epochs_and_digests() {
        let d1 = sha256(b"structure-1");
        let d2 = sha256(b"structure-2");
        // Deterministic per (digest, epoch)...
        assert_eq!(epoch_binding_digest(&d1, 3), epoch_binding_digest(&d1, 3));
        // ...but distinct across epochs (including the boundary values) and
        // across digests, and never equal to the raw digest.
        assert_ne!(epoch_binding_digest(&d1, 0), epoch_binding_digest(&d1, 1));
        assert_ne!(
            epoch_binding_digest(&d1, u64::MAX),
            epoch_binding_digest(&d1, u64::MAX - 1)
        );
        assert_ne!(epoch_binding_digest(&d1, 7), epoch_binding_digest(&d2, 7));
        assert_ne!(epoch_binding_digest(&d1, 0), d1);
    }

    #[test]
    fn boundary_leaf_digests() {
        let r = Record::new(9, vec![0.5, 0.5]);
        assert_eq!(
            BoundaryEntry::MinSentinel.leaf_digest(),
            min_sentinel_digest()
        );
        assert_eq!(
            BoundaryEntry::MaxSentinel.leaf_digest(),
            max_sentinel_digest()
        );
        assert_eq!(BoundaryEntry::Record(r.clone()).leaf_digest(), r.digest());
        assert!(BoundaryEntry::Record(r).byte_size() > BoundaryEntry::MinSentinel.byte_size());
    }

    #[test]
    fn iv_step_predicate_digest_binds_all_fields() {
        let base = IvStep {
            pair: (1, 2),
            coeffs: vec![0.5, -0.5],
            constant: 0.1,
            sibling_hash: [0u8; 32],
            went_above: true,
        };
        let mut other = base.clone();
        other.constant = 0.2;
        assert_ne!(base.predicate_digest(), other.predicate_digest());
        let mut other = base.clone();
        other.pair = (2, 1);
        assert_ne!(base.predicate_digest(), other.predicate_digest());
        // The sibling hash and direction are *not* part of the predicate —
        // they are bound through the hash chain instead.
        let mut other = base.clone();
        other.went_above = false;
        assert_eq!(base.predicate_digest(), other.predicate_digest());
    }

    #[test]
    fn node_hash_helpers_are_order_sensitive() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        let p = sha256(b"p");
        assert_ne!(
            intersection_node_hash(&p, &a, &b),
            intersection_node_hash(&p, &b, &a)
        );
        assert_ne!(subdomain_node_hash(&a, 3), subdomain_node_hash(&a, 4));
        assert_ne!(
            multi_signature_digest(&a, &b),
            multi_signature_digest(&b, &a)
        );
    }
}
