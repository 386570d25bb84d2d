//! The IFMH-tree: the paper's authenticated index.
//!
//! Construction follows Sec. 3.1 of the paper:
//!
//! 1. build an I-tree over the dataset's functions (one subdomain per region
//!    with a fixed sort order),
//! 2. sort the records at every subdomain's witness ([`ITree::order`]) and
//!    hand the list straight to one [`MerkleForest`] of FMH-trees (Merkle
//!    trees with `f_min` / `f_max` sentinels), where the subtrees that
//!    neighbouring subdomains have in common (their lists differ by one
//!    transposition) are hashed and stored once. The forest is the only
//!    copy of each order: a subdomain keeps the id of its tree,
//! 3. propagate hash values bottom-up through the I-tree — a subdomain
//!    node's hash is (a binding of) its FMH root, an intersection node's
//!    hash combines its children's hashes — yielding the IMH-tree,
//! 4. sign: either only the IMH root (*one-signature*) or every subdomain's
//!    FMH root together with its defining inequalities (*multi-signature*):
//!    its facets ([`vaq_itree::facets`]), the half-spaces of its path that
//!    bound it.

use crate::cost::OwnerStats;
use crate::signing::SigningMode;
use crate::vo::{
    epoch_binding_digest, intersection_node_hash, max_sentinel_digest, min_sentinel_digest,
    multi_signature_digest, predicate_digest, subdomain_node_hash,
};
use std::collections::HashMap;
use vaq_crypto::sha256::Digest;
use vaq_crypto::{Signature, Signer};
use vaq_funcdb::{inequality_set_digest, Dataset, FuncId, HalfSpace, LpSplitOracle};
use vaq_itree::{facets, BuildStats, ITree, ITreeBuilder, Node, NodeId};
use vaq_mht::{ForestTree, LeafId, MerkleForest, MerkleForestBuilder, TreeId};

/// The Intersection and Function Merkle Hash tree.
///
/// `Clone` lets a caller keep a copy of a built tree beside the one a
/// [`Server`](crate::Server) takes, without paying the arrangement and the
/// per-subdomain signatures again.
#[derive(Clone, Debug)]
pub struct IfmhTree {
    pub(crate) itree: ITree,
    /// Every subdomain's FMH-tree, sharing the nodes they have in common.
    pub(crate) fmh: MerkleForest,
    /// The FMH-tree of each subdomain node, indexed by I-tree node id
    /// (`None` at intersection nodes).
    pub(crate) fmh_ids: Vec<Option<TreeId>>,
    /// The record each interned FMH leaf stands for, indexed by
    /// [`LeafId::index`]: records whose bytes are equal share one leaf, which
    /// names the first of them.
    pub(crate) leaf_records: Vec<FuncId>,
    /// IMH hash per I-tree node (indexed by node id).
    pub(crate) node_hashes: Vec<Digest>,
    pub(crate) mode: SigningMode,
    /// Root signature (one-signature mode).
    pub(crate) root_signature: Option<Signature>,
    /// Per-subdomain signatures (multi-signature mode), keyed by node id.
    pub(crate) leaf_signatures: HashMap<u32, Signature>,
    /// The publication epoch every signature in this tree is bound to.
    epoch: u64,
    stats: OwnerStats,
    /// I-tree construction statistics.
    pub build_stats: BuildStats,
}

/// What [`IfmhTree::proof_cache`] returns: no per-subdomain proof material
/// is kept beside the tree.
#[derive(Clone, Copy, Debug)]
pub struct ProofCache;

impl ProofCache {
    /// Bytes of proof material held: 0.
    pub fn byte_size(&self) -> usize {
        0
    }
}

impl IfmhTree {
    /// Builds the IFMH-tree at the initial publication epoch 0. The
    /// arrangement is exact: central input at `d ≤ 2` (template functions
    /// over a box in the non-negative orthant) is built without an LP, any
    /// other input through [`LpSplitOracle`].
    pub fn build(dataset: &Dataset, mode: SigningMode, signer: &dyn Signer) -> Self {
        Self::build_at_epoch(dataset, mode, signer, 0)
    }

    /// Builds the IFMH-tree for a republication: every signature is bound to
    /// `epoch` (see [`epoch_binding_digest`]), so a client expecting epoch
    /// `e` rejects responses honestly signed under any other epoch.
    pub fn build_at_epoch(
        dataset: &Dataset,
        mode: SigningMode,
        signer: &dyn Signer,
        epoch: u64,
    ) -> Self {
        // Step 1: the I-tree.
        let (itree, build_stats) = ITreeBuilder::new(LpSplitOracle::new())
            .build_with_stats(&dataset.functions, dataset.domain.clone());

        let mut hash_ops = 0usize;

        // Step 2: an FMH-tree per subdomain, in one forest. Every record's
        // digest and the two sentinels' are computed and interned once; each
        // is one hash operation. The records take the forest's first slots.
        let mut forest = MerkleForestBuilder::default();
        let mut leaf_records = Vec::new();
        let mut records: Vec<LeafId> = Vec::with_capacity(dataset.len());
        for (index, record) in dataset.records.iter().enumerate() {
            let leaf = forest.leaf(record.digest());
            if leaf.index() == leaf_records.len() {
                leaf_records.push(FuncId(index as u32));
            }
            records.push(leaf);
        }
        let min_leaf = forest.leaf(min_sentinel_digest());
        let max_leaf = forest.leaf(max_sentinel_digest());
        hash_ops += records.len() + 2;
        let mut fmh_ids = vec![None; itree.node_count()];
        for &leaf in itree.leaf_ids() {
            let order = itree.order(&dataset.functions, leaf);
            let sorted = order.iter().map(|id| records[id.index()]);
            let leaves = std::iter::once(min_leaf).chain(sorted).chain([max_leaf]);
            fmh_ids[leaf.index()] = Some(forest.insert(leaves));
        }
        let fmh = forest.finish();
        hash_ops += fmh.build_hash_ops;

        // Step 3: propagate hashes through the I-tree, children before
        // their parent: a child's id is greater than its parent's.
        let mut node_hashes = vec![[0u8; 32]; itree.node_count()];
        for index in (0..itree.node_count()).rev() {
            node_hashes[index] = match itree.node(NodeId(index as u32)) {
                Node::Subdomain { .. } => {
                    let tree = fmh.tree(fmh_ids[index].expect("a leaf has an FMH tree"));
                    hash_ops += 1;
                    subdomain_node_hash(&tree.root(), tree.leaf_count() as u32)
                }
                Node::Intersection {
                    pair,
                    coeffs,
                    constant,
                    above,
                    below,
                } => {
                    let pred = predicate_digest((pair.0 .0, pair.1 .0), coeffs, *constant);
                    let (above, below) = (&node_hashes[above.index()], &node_hashes[below.index()]);
                    hash_ops += 2;
                    intersection_node_hash(&pred, above, below)
                }
            };
        }

        // Step 4: sign.
        let mut root_signature = None;
        let mut leaf_signatures = HashMap::new();
        let signatures;
        // Every signed digest is bound to the publication epoch first, so a
        // signature from this publication cannot authenticate any other.
        match mode {
            SigningMode::OneSignature => {
                let bound = epoch_binding_digest(&node_hashes[itree.root().index()], epoch);
                hash_ops += 1;
                root_signature = Some(signer.sign_digest(&bound));
                signatures = 1;
            }
            SigningMode::MultiSignature => {
                // Each subdomain's inequalities are its facets, the
                // half-spaces of its path that bound it, read in one walk
                // over the tree. The per-subdomain signatures are
                // independent: collect the digests and sign them in one
                // call, in leaf order, which the signer may spread over the
                // machine's cores.
                let mut inequalities = vec![[0u8; 32]; itree.node_count()];
                itree.for_each_region(|leaf, path| {
                    let kept = facets(itree.domain(), path.iter().map(HalfSpace::side));
                    let halfspaces = kept.iter().map(|&at| &path[at]);
                    inequalities[leaf.index()] = inequality_set_digest(halfspaces);
                    hash_ops += 1 + kept.len();
                });
                let mut bound_digests = Vec::with_capacity(itree.leaf_ids().len());
                for &leaf in itree.leaf_ids() {
                    let ineq = &inequalities[leaf.index()];
                    let digest = multi_signature_digest(ineq, &node_hashes[leaf.index()]);
                    bound_digests.push(epoch_binding_digest(&digest, epoch));
                    hash_ops += 2;
                }
                let leaves = itree.leaf_ids().iter().map(|leaf| leaf.0);
                leaf_signatures.extend(leaves.zip(signer.sign_digests(&bound_digests)));
                signatures = leaf_signatures.len();
            }
        }

        let sig_size = signer.verifier().signature_size();
        let stats = OwnerStats {
            records: dataset.len(),
            subdomains: itree.leaf_ids().len(),
            imh_nodes: itree.node_count(),
            fmh_nodes: fmh.node_count(),
            hash_ops,
            signatures,
            structure_bytes: itree.byte_size()
                + fmh.byte_size()
                + std::mem::size_of_val(fmh_ids.as_slice())
                + std::mem::size_of_val(leaf_records.as_slice())
                + node_hashes.len() * 32
                + signatures * sig_size,
        };

        IfmhTree {
            itree,
            fmh,
            fmh_ids,
            leaf_records,
            node_hashes,
            mode,
            root_signature,
            leaf_signatures,
            epoch,
            stats,
            build_stats,
        }
    }

    /// The signing mode this tree was built with.
    pub fn mode(&self) -> SigningMode {
        self.mode
    }

    /// The publication epoch every signature in this tree is bound to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Owner-side construction statistics (Fig. 5).
    pub fn stats(&self) -> &OwnerStats {
        &self.stats
    }

    /// The underlying I-tree.
    pub fn itree(&self) -> &ITree {
        &self.itree
    }

    /// The IMH root hash.
    pub fn root_hash(&self) -> Digest {
        self.node_hashes[self.itree.root().index()]
    }

    /// The hash stored at an I-tree node.
    pub fn node_hash(&self, id: NodeId) -> Digest {
        self.node_hashes[id.index()]
    }

    /// The FMH-tree attached to a subdomain node, if `id` is a leaf.
    pub fn fmh_tree(&self, id: NodeId) -> Option<ForestTree<'_>> {
        let tree = (*self.fmh_ids.get(id.index())?)?;
        Some(self.fmh.tree(tree))
    }

    /// Always the empty [`ProofCache`]: the server reads every interior
    /// proof from the tree itself. Kept only for the benchmark's
    /// `authquery.proof_cache_bytes` reading, which is therefore 0; ROADMAP
    /// item 2(e) removes both.
    pub fn proof_cache(&self) -> ProofCache {
        ProofCache
    }

    /// Number of subdomains.
    pub fn subdomain_count(&self) -> usize {
        self.itree.leaf_ids().len()
    }

    /// Number of signatures the structure carries.
    pub fn signature_count(&self) -> usize {
        self.stats.signatures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_crypto::SignatureScheme;
    use vaq_funcdb::{Domain, FunctionTemplate, Record};

    fn dataset(n: usize) -> Dataset {
        // Functions with distinct constants/slopes via two attributes.
        let template = FunctionTemplate::new(vec!["a", "b"]);
        let records = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Record::new(i as u64, vec![t, 1.0 - t])
            })
            .collect();
        Dataset::new(records, template, Domain::unit(2))
    }

    #[test]
    fn one_signature_build_has_single_signature() {
        let ds = dataset(5);
        let scheme = SignatureScheme::test_rsa(1);
        let tree = IfmhTree::build(&ds, SigningMode::OneSignature, &scheme);
        assert_eq!(tree.signature_count(), 1);
        assert!(tree.root_signature.is_some());
        assert!(tree.leaf_signatures.is_empty());
        assert_eq!(tree.mode(), SigningMode::OneSignature);
        assert_eq!(tree.epoch(), 0);
        // The signature verifies against the epoch-bound root hash.
        let verifier = scheme.verifier();
        let bound = crate::vo::epoch_binding_digest(&tree.root_hash(), 0);
        assert!(verifier.verify_digest(&bound, tree.root_signature.as_ref().unwrap()));
        // ...and against nothing else: neither the raw root hash nor another
        // epoch's binding.
        assert!(!verifier.verify_digest(&tree.root_hash(), tree.root_signature.as_ref().unwrap()));
        let other = crate::vo::epoch_binding_digest(&tree.root_hash(), 1);
        assert!(!verifier.verify_digest(&other, tree.root_signature.as_ref().unwrap()));
    }

    #[test]
    fn republished_trees_bind_their_epoch() {
        let ds = dataset(5);
        let scheme = SignatureScheme::test_rsa(12);
        let e1 = IfmhTree::build_at_epoch(&ds, SigningMode::OneSignature, &scheme, 1);
        let e2 = IfmhTree::build_at_epoch(&ds, SigningMode::OneSignature, &scheme, 2);
        assert_eq!(e1.epoch(), 1);
        assert_eq!(e2.epoch(), 2);
        // Same dataset, same key: the structure hashes agree but the
        // signatures differ because each binds its own epoch.
        assert_eq!(e1.root_hash(), e2.root_hash());
        assert_ne!(e1.root_signature, e2.root_signature);
    }

    #[test]
    fn multi_signature_build_signs_every_subdomain() {
        let ds = dataset(5);
        let scheme = SignatureScheme::test_rsa(2);
        let tree = IfmhTree::build(&ds, SigningMode::MultiSignature, &scheme);
        assert_eq!(tree.signature_count(), tree.subdomain_count());
        assert_eq!(tree.leaf_signatures.len(), tree.subdomain_count());
        assert!(tree.root_signature.is_none());
    }

    #[test]
    fn every_leaf_has_an_fmh_tree_with_sentinels() {
        let ds = dataset(6);
        let scheme = SignatureScheme::test_rsa(3);
        let tree = IfmhTree::build(&ds, SigningMode::OneSignature, &scheme);
        for &leaf in tree.itree().leaf_ids() {
            let fmh = tree.fmh_tree(leaf).expect("leaf must have an FMH tree");
            assert_eq!(fmh.leaf_count(), ds.len() + 2);
            assert_eq!(fmh.leaf(0), min_sentinel_digest());
            assert_eq!(fmh.leaf(ds.len() + 1), max_sentinel_digest());
        }
    }

    #[test]
    fn node_hashes_are_consistent_bottom_up() {
        let ds = dataset(4);
        let scheme = SignatureScheme::test_rsa(4);
        let tree = IfmhTree::build(&ds, SigningMode::OneSignature, &scheme);
        for id in (0..tree.itree().node_count() as u32).map(NodeId) {
            match tree.itree().node(id) {
                Node::Subdomain { .. } => {
                    let fmh = tree.fmh_tree(id).unwrap();
                    assert_eq!(
                        tree.node_hash(id),
                        subdomain_node_hash(&fmh.root(), fmh.leaf_count() as u32)
                    );
                }
                Node::Intersection {
                    pair,
                    coeffs,
                    constant,
                    above,
                    below,
                } => {
                    let pred = predicate_digest((pair.0 .0, pair.1 .0), coeffs, *constant);
                    assert_eq!(
                        tree.node_hash(id),
                        intersection_node_hash(
                            &pred,
                            &tree.node_hash(*above),
                            &tree.node_hash(*below)
                        )
                    );
                }
            }
        }
    }

    #[test]
    fn stats_reflect_structure() {
        let ds = dataset(6);
        let scheme = SignatureScheme::test_rsa(5);
        let tree = IfmhTree::build(&ds, SigningMode::MultiSignature, &scheme);
        let stats = tree.stats();
        assert_eq!(stats.records, 6);
        assert_eq!(stats.subdomains, tree.subdomain_count());
        assert!(stats.imh_nodes >= stats.subdomains);
        assert!(stats.fmh_nodes > 0);
        assert!(stats.hash_ops > 0);
        assert!(stats.structure_bytes > 0);
        assert_eq!(stats.signatures, tree.subdomain_count());
    }

    #[test]
    fn subdomains_share_their_merkle_nodes() {
        // With a tree of n + 2 leaves per subdomain this input cost 61,061
        // hashes and 4.6 MB (897 subdomains); shared, a subdomain adds only
        // the paths that differ from its neighbours'.
        let ds = vaq_workload::uniform_dataset(64, 2, 1);
        let tree = IfmhTree::build(
            &ds,
            SigningMode::OneSignature,
            &SignatureScheme::test_rsa(7),
        );
        let stats = tree.stats();
        assert_eq!(stats.subdomains, 897);
        assert!(stats.hash_ops * 4 <= 61_061, "{} hashes", stats.hash_ops);
        assert!(stats.structure_bytes * 3 <= 4_600_000, "{stats:?}");
        assert_eq!(stats.fmh_nodes, tree.fmh.node_count());
        assert!(stats.fmh_nodes < stats.subdomains * 12, "{stats:?}");
    }

    #[test]
    fn different_datasets_produce_different_roots() {
        let scheme = SignatureScheme::test_rsa(6);
        let t1 = IfmhTree::build(&dataset(5), SigningMode::OneSignature, &scheme);
        let mut ds2 = dataset(5);
        ds2.records[2].attrs[0] += 0.01;
        let ds2 = Dataset::new(ds2.records, ds2.template, ds2.domain);
        let t2 = IfmhTree::build(&ds2, SigningMode::OneSignature, &scheme);
        assert_ne!(t1.root_hash(), t2.root_hash());
    }
}
