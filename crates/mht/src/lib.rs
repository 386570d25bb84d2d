//! Merkle hash trees with contiguous-range proofs (the FMH-tree substrate).
//!
//! The paper's FMH-tree (Function Merkle Hash tree) is a bottom-up Merkle
//! tree built over the hashes of a sorted function list, including the
//! `f_min` / `f_max` sentinel tokens. When the number of nodes in a layer is
//! odd, the last node is carried into the next round unchanged (paper,
//! Sec. 3.1 step 2).
//!
//! This crate is agnostic about what the leaves are — it works on leaf
//! digests — so it serves both the per-subdomain FMH-trees of the IFMH
//! scheme and any other Merkle-authenticated list. The main operations are:
//!
//! * [`MerkleTree::build`] — construct the tree from leaf digests,
//! * [`MerkleTree::prove_range`] — produce a [`RangeProof`] that a
//!   contiguous run of leaves belongs to the tree,
//! * [`MerkleForestBuilder`] / [`MerkleForest`] — many trees over lists that
//!   mostly agree (the sorted lists of adjacent subdomains differ by one
//!   transposition), sharing every subtree they have in common; a
//!   [`ForestTree`] answers what a [`MerkleTree`] does, node for node,
//! * [`verify_range`] — recompute the root from the claimed leaves plus the
//!   proof, counting hash invocations so clients can account for their
//!   verification cost exactly as the paper's Fig. 7 does.

#![warn(missing_docs)]

use std::collections::HashMap;
use vaq_crypto::sha256::{sha256_multi, sha256_pair, sha256_pairs, Digest};

/// Binds a root digest to its tree's leaf count.
///
/// With the paper's odd-node promotion rule, the *raw* Merkle root does not
/// commit to the number of leaves: a proof generated from an `n`-leaf tree
/// can reconstruct the identical root under a forged leaf count whose layer
/// shapes happen to agree on the proven window (e.g. 10 vs 12 leaves). Any
/// digest that gets signed must therefore bind the count explicitly — this is
/// exactly what the IFMH scheme's `subdomain_node_hash(root, leaf_count)`
/// does, and [`committed_root`] is the reusable mht-level form of it.
pub fn committed_root(root: &Digest, leaf_count: u32) -> Digest {
    sha256_multi(&[b"MHTC", root, &leaf_count.to_be_bytes()])
}

/// A Merkle hash tree stored layer by layer.
///
/// `layers[0]` holds the leaf digests in order; the last layer holds the
/// single root digest.
#[derive(Clone, Debug, PartialEq)]
pub struct MerkleTree {
    layers: Vec<Vec<Digest>>,
    /// Number of `H(a|b)` invocations performed while building.
    pub build_hash_ops: usize,
}

/// One sibling hash inside a [`RangeProof`], addressed by layer and index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofNode {
    /// Layer (0 = leaves).
    pub layer: u32,
    /// Index within the layer.
    pub index: u32,
    /// The node's digest.
    pub hash: Digest,
}

/// A proof that a contiguous range of leaves hashes up to the tree root.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RangeProof {
    /// Sibling digests needed to recompute the root.
    pub nodes: Vec<ProofNode>,
    /// Total number of leaves of the tree the proof was generated from
    /// (needed to reproduce the layer shapes during verification).
    pub leaf_count: u32,
}

impl RangeProof {
    /// Serialized size in bytes: each node carries a layer, an index and a
    /// 32-byte digest, plus the leaf count.
    pub fn byte_size(&self) -> usize {
        4 + self.nodes.len() * (4 + 4 + 32)
    }
}

/// Result of verifying a range proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// The reconstructed root digest.
    pub root: Digest,
    /// Number of hash invocations performed during reconstruction.
    pub hash_ops: usize,
    /// The leaf count the proof claimed (echoed from [`RangeProof`]).
    pub leaf_count: u32,
}

impl VerifyOutcome {
    /// The count-binding commitment for the reconstructed root; compare this
    /// (not the raw root) against a trusted value when the leaf count itself
    /// must be authenticated. See [`committed_root`].
    pub fn committed_root(&self) -> Digest {
        committed_root(&self.root, self.leaf_count)
    }
}

/// Error cases for range-proof verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The supplied leaves are empty or not contiguous.
    BadLeafRange,
    /// A hash needed to compute a parent was neither derivable nor supplied.
    MissingNode {
        /// Layer of the missing node.
        layer: u32,
        /// Index of the missing node.
        index: u32,
    },
    /// A leaf index is outside the tree.
    LeafOutOfRange,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::BadLeafRange => write!(f, "leaf range is empty or not contiguous"),
            VerifyError::MissingNode { layer, index } => {
                write!(f, "proof is missing node at layer {layer}, index {index}")
            }
            VerifyError::LeafOutOfRange => write!(f, "leaf index outside the tree"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl MerkleTree {
    /// Builds a tree over the given leaf digests.
    ///
    /// Panics if `leaves` is empty (the FMH-tree always has at least the two
    /// sentinel leaves).
    pub fn build(leaves: Vec<Digest>) -> Self {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let mut layers = vec![leaves];
        let mut hash_ops = 0usize;
        while layers.last().expect("non-empty").len() > 1 {
            let prev = layers.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            let mut i = 0;
            while i + 1 < prev.len() {
                next.push(sha256_pair(&prev[i], &prev[i + 1]));
                hash_ops += 1;
                i += 2;
            }
            if i < prev.len() {
                // Odd node: carried into the next round unchanged.
                next.push(prev[i]);
            }
            layers.push(next);
        }
        MerkleTree {
            layers,
            build_hash_ops: hash_ops,
        }
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        *self
            .layers
            .last()
            .expect("non-empty tree")
            .first()
            .expect("root layer has one node")
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.layers[0].len()
    }

    /// The count-binding commitment over this tree's root; see
    /// [`committed_root`].
    pub fn committed_root(&self) -> Digest {
        committed_root(&self.root(), self.leaf_count() as u32)
    }

    /// Leaf digest at `index`.
    pub fn leaf(&self, index: usize) -> Digest {
        self.layers[0][index]
    }

    /// Number of layers (including the leaf layer).
    pub fn height(&self) -> usize {
        self.layers.len()
    }

    /// Total number of nodes across all layers (for structure-size
    /// accounting, Fig. 5c).
    pub fn node_count(&self) -> usize {
        self.layers.iter().map(|l| l.len()).sum()
    }

    /// Approximate in-memory size in bytes (digests only).
    pub fn byte_size(&self) -> usize {
        self.node_count() * 32
    }

    /// Produces a proof that leaves `lo..=hi` belong to this tree.
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn prove_range(&self, lo: usize, hi: usize) -> RangeProof {
        assert!(lo <= hi, "empty range");
        assert!(hi < self.leaf_count(), "leaf index out of range");
        let mut nodes = Vec::new();
        let mut lo = lo;
        let mut hi = hi;
        for (layer_idx, layer) in self.layers.iter().enumerate() {
            if layer.len() == 1 {
                break;
            }
            // To compute parents floor(lo/2)..=floor(hi/2) we need children
            // 2*floor(lo/2) ..= 2*floor(hi/2)+1 (clipped to the layer).
            let need_lo = (lo / 2) * 2;
            let need_hi = ((hi / 2) * 2 + 1).min(layer.len() - 1);
            let siblings = (need_lo..lo).chain((hi + 1)..=need_hi);
            nodes.extend(siblings.map(|idx| ProofNode {
                layer: layer_idx as u32,
                index: idx as u32,
                hash: layer[idx],
            }));
            lo /= 2;
            hi /= 2;
        }
        RangeProof {
            nodes,
            leaf_count: self.leaf_count() as u32,
        }
    }

    /// Produces a membership proof for a single leaf.
    pub fn prove_leaf(&self, index: usize) -> RangeProof {
        self.prove_range(index, index)
    }
}

/// One node of a [`MerkleForest`]: a digest and, for a hashed pair, the
/// arena ids of its two children (unused in a leaf).
#[derive(Clone, Copy, Debug)]
struct ForestNode {
    hash: Digest,
    left: u32,
    right: u32,
}

/// The handle of a leaf digest interned by [`MerkleForestBuilder::leaf`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafId(u32);

impl LeafId {
    /// The leaf's slot in its forest. Leaves interned before the first
    /// [`insert`](MerkleForestBuilder::insert) take slots 0, 1, 2, … in the
    /// order their digests were first seen; an equal digest interned again
    /// gets the slot it already has.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The handle of one tree of a [`MerkleForest`]: its root node and its
/// leaf count, which fixes its shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeId {
    root: u32,
    leaf_count: u32,
}

/// Many Merkle trees in one arena of hash-consed nodes: a subtree that two
/// trees have in common is hashed and stored once. Immutable; built by
/// [`MerkleForestBuilder`].
#[derive(Clone, Debug, Default)]
pub struct MerkleForest {
    nodes: Vec<ForestNode>,
    /// Number of `H(a|b)` invocations performed while building.
    pub build_hash_ops: usize,
}

/// Builds a [`MerkleForest`] tree by tree, interning leaves by digest and
/// interior nodes by their pair of children.
#[derive(Debug, Default)]
pub struct MerkleForestBuilder {
    forest: MerkleForest,
    leaves: HashMap<Digest, u32>,
    pairs: HashMap<(u32, u32), u32>,
}

impl MerkleForestBuilder {
    /// Interns a leaf digest. Lists are handed to [`insert`](Self::insert)
    /// as these handles, so a digest that appears in every list is looked
    /// up once, not once per list.
    pub fn leaf(&mut self, digest: Digest) -> LeafId {
        let forest = &mut self.forest;
        LeafId(*(self.leaves.entry(digest)).or_insert_with(|| forest.push(digest, 0, 0)))
    }

    /// Adds the tree over `leaves`, built bottom-up with the odd node of a
    /// layer carried unchanged exactly as [`MerkleTree::build`] does it.
    ///
    /// Panics if `leaves` is empty.
    pub fn insert(&mut self, leaves: impl IntoIterator<Item = LeafId>) -> TreeId {
        self.insert_layer(leaves.into_iter().map(|leaf| leaf.0).collect())
    }

    /// [`insert`](Self::insert) past collecting the leaves: not generic, so
    /// it is compiled once, here, and not again inside each caller (inside
    /// `IfmhTree::build` that copy ran the same inserts in twice the time).
    fn insert_layer(&mut self, mut layer: Vec<u32>) -> TreeId {
        let forest = &mut self.forest;
        assert!(!layer.is_empty(), "Merkle tree needs at least one leaf");
        let leaf_count = layer.len() as u32;
        while layer.len() > 1 {
            // Parent `p` overwrites slot `p`, at or before its own children.
            let len = layer.len();
            for p in 0..len / 2 {
                let (left, right) = (layer[2 * p], layer[2 * p + 1]);
                layer[p] = *self.pairs.entry((left, right)).or_insert_with(|| {
                    forest.build_hash_ops += 1;
                    let children = (&forest.nodes[left as usize], &forest.nodes[right as usize]);
                    forest.push(sha256_pair(&children.0.hash, &children.1.hash), left, right)
                });
            }
            if len % 2 == 1 {
                layer[len / 2] = layer[len - 1];
            }
            layer.truncate(len.div_ceil(2));
        }
        TreeId {
            root: layer[0],
            leaf_count,
        }
    }

    /// Drops the interning tables and returns the forest.
    pub fn finish(self) -> MerkleForest {
        self.forest
    }
}

impl MerkleForest {
    fn push(&mut self, hash: Digest, left: u32, right: u32) -> u32 {
        self.nodes.push(ForestNode { hash, left, right });
        self.nodes.len() as u32 - 1
    }

    /// The tree `id` names. `id` must come from this forest's builder.
    pub fn tree(&self, id: TreeId) -> ForestTree<'_> {
        ForestTree { forest: self, id }
    }

    /// Number of distinct nodes across all trees.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// In-memory size in bytes: a digest and two child ids a node.
    pub fn byte_size(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<ForestNode>()
    }
}

/// One tree of a [`MerkleForest`], answering what a [`MerkleTree`] over the
/// same leaves answers.
#[derive(Clone, Copy, Debug)]
pub struct ForestTree<'a> {
    forest: &'a MerkleForest,
    id: TreeId,
}

impl ForestTree<'_> {
    /// The root digest.
    pub fn root(&self) -> Digest {
        self.forest.nodes[self.id.root as usize].hash
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.id.leaf_count as usize
    }

    /// Number of layers (including the leaf layer).
    pub fn height(&self) -> usize {
        1 + self.leaf_count().next_power_of_two().trailing_zeros() as usize
    }

    /// Leaf digest at `index`.
    pub fn leaf(&self, index: usize) -> Digest {
        self.forest.nodes[self.leaf_at(index).index()].hash
    }

    /// The interned leaf at position `index`: one descent.
    pub fn leaf_at(&self, index: usize) -> LeafId {
        assert!(index < self.leaf_count(), "leaf index out of range");
        LeafId(self.descend(index, index, |_, _, _| {}).0)
    }

    /// The interned leaves at positions `lo..=hi`, in order, read layer by
    /// layer from the root down: each layer's run of nodes over the window
    /// is expanded into the next layer's, so the walk reads each node above
    /// the window once.
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn window(&self, lo: usize, hi: usize) -> Vec<LeafId> {
        assert!(lo <= hi, "empty range");
        assert!(hi < self.leaf_count(), "leaf index out of range");
        let (mut run, mut below) = (vec![self.id.root], Vec::with_capacity(hi - lo + 1));
        for layer in (0..self.height() - 1).rev() {
            let size = self.leaf_count().div_ceil(1 << layer);
            let first_parent = lo >> (layer + 1);
            below.clear();
            below.extend(((lo >> layer)..=(hi >> layer)).map(|index| {
                let parent = run[(index >> 1) - first_parent];
                self.child(parent, index, size)
            }));
            std::mem::swap(&mut run, &mut below);
        }
        run.into_iter().map(LeafId).collect()
    }

    /// The node at `index` of a layer of `size` nodes, a child of `parent`.
    /// A last node with no partner was carried up unchanged: its parent is
    /// the same arena node.
    fn child(&self, parent: u32, index: usize, size: usize) -> u32 {
        let parent_node = &self.forest.nodes[parent as usize];
        match (index % 2, index + 1 == size) {
            (0, true) => parent,
            (0, false) => parent_node.left,
            _ => parent_node.right,
        }
    }

    /// Walks from the root to leaves `lo` and `hi` at once and returns their
    /// arena ids. On the way, top down, `visit(layer, size, parents)` sees
    /// each layer below the root's, its node count, and the two paths' nodes
    /// one layer up.
    fn descend(
        &self,
        lo: usize,
        hi: usize,
        mut visit: impl FnMut(usize, usize, [&ForestNode; 2]),
    ) -> (u32, u32) {
        let nodes = &self.forest.nodes;
        let (mut lo_node, mut hi_node) = (self.id.root, self.id.root);
        for layer in (0..self.height() - 1).rev() {
            let size = self.leaf_count().div_ceil(1 << layer);
            visit(
                layer,
                size,
                [lo_node, hi_node].map(|id| &nodes[id as usize]),
            );
            lo_node = self.child(lo_node, lo >> layer, size);
            hi_node = self.child(hi_node, hi >> layer, size);
        }
        (lo_node, hi_node)
    }

    /// Produces a proof that leaves `lo..=hi` belong to this tree, equal
    /// node for node to [`MerkleTree::prove_range`], in one descent along
    /// the two boundary paths.
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn prove_range(&self, lo: usize, hi: usize) -> RangeProof {
        assert!(lo <= hi, "empty range");
        assert!(hi < self.leaf_count(), "leaf index out of range");
        let mut proof = Vec::with_capacity(2 * self.height());
        self.descend(lo, hi, |layer, size, [lo_parent, hi_parent]| {
            let mut sibling = |index: usize, node: u32| {
                proof.push(ProofNode {
                    layer: layer as u32,
                    index: index as u32,
                    hash: self.forest.nodes[node as usize].hash,
                })
            };
            // Top down and right before left here, reversed below.
            let (lo_index, hi_index) = (lo >> layer, hi >> layer);
            if hi_index % 2 == 0 && hi_index + 1 < size {
                sibling(hi_index + 1, hi_parent.right);
            }
            if lo_index % 2 == 1 {
                sibling(lo_index - 1, lo_parent.left);
            }
        });
        proof.reverse();
        RangeProof {
            nodes: proof,
            leaf_count: self.id.leaf_count,
        }
    }

    /// Produces a membership proof for a single leaf.
    pub fn prove_leaf(&self, index: usize) -> RangeProof {
        self.prove_range(index, index)
    }
}

/// Recomputes the root from a contiguous run of leaf digests starting at
/// `first_index`, plus the sibling hashes in `proof`.
///
/// Returns the reconstructed root and the number of hash operations; the
/// caller compares the root against a trusted (signed) value. Each layer's
/// parents whose two children are both known are hashed as one batch
/// ([`sha256_pairs`]: sixteen at a time, then two); only the run's ends
/// read the proof.
pub fn verify_range(
    first_index: usize,
    leaves: &[Digest],
    proof: &RangeProof,
) -> Result<VerifyOutcome, VerifyError> {
    if leaves.is_empty() {
        return Err(VerifyError::BadLeafRange);
    }
    let leaf_count = proof.leaf_count as usize;
    if leaf_count == 0 || first_index + leaves.len() > leaf_count {
        return Err(VerifyError::LeafOutOfRange);
    }

    // The known run of each layer, [lo, hi]: layer 0 is read where the
    // caller left it, and every layer above lands in one half of a buffer
    // and is read from there while the next lands in the other half.
    let half = leaves.len() / 2 + 1;
    let mut buffer = vec![[0u8; 32]; 2 * half];
    let (mut below, mut above) = buffer.split_at_mut(half);
    let mut hash_ops = 0usize;
    let mut layer_size = leaf_count;
    let mut layer_idx: u32 = 0;
    let mut lo = first_index;
    let mut hi = first_index + leaves.len() - 1;

    while layer_size > 1 {
        let current: &[Digest] = if layer_idx == 0 {
            leaves
        } else {
            &below[..=hi - lo]
        };
        let parents = &mut above[..=hi / 2 - lo / 2];
        hash_ops += fold_layer(current, lo, layer_size, layer_idx, proof, parents)?;
        std::mem::swap(&mut below, &mut above);
        lo /= 2;
        hi /= 2;
        layer_size = layer_size.div_ceil(2);
        layer_idx += 1;
    }

    Ok(VerifyOutcome {
        root: if layer_idx == 0 { leaves[0] } else { below[0] },
        hash_ops,
        leaf_count: proof.leaf_count,
    })
}

/// One layer of [`verify_range`]: the parents of the known run `current`
/// (nodes `lo..lo + current.len()` of a layer of `size` nodes) into
/// `parents`. Returns the number of hashes done.
///
/// Every parent whose two children are in the run is hashed through
/// [`sha256_pairs`]. Only the run's two ends can need a sibling from the
/// proof, or be the layer's last node, carried up unchanged.
fn fold_layer(
    current: &[Digest],
    lo: usize,
    size: usize,
    layer: u32,
    proof: &RangeProof,
    parents: &mut [Digest],
) -> Result<usize, VerifyError> {
    let supplied = |index: usize| {
        let node = proof
            .nodes
            .iter()
            .find(|n| n.layer == layer && n.index as usize == index);
        node.map(|n| &n.hash).ok_or(VerifyError::MissingNode {
            layer,
            index: index as u32,
        })
    };
    let mut hash_ops = 0;
    // A run that starts on a right child.
    let start = lo % 2;
    if start == 1 {
        parents[0] = sha256_pair(supplied(lo - 1)?, &current[0]);
        hash_ops += 1;
    }
    let run = &current[start..];
    let pairs = run.len() / 2;
    sha256_pairs(&run[..2 * pairs], &mut parents[start..start + pairs]);
    hash_ops += pairs;
    // A run that ends on a left child.
    if let [last] = run[2 * pairs..] {
        let hi = lo + current.len() - 1;
        parents[start + pairs] = if hi + 1 < size {
            hash_ops += 1;
            sha256_pair(&last, supplied(hi + 1)?)
        } else {
            last
        };
    }
    Ok(hash_ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_crypto::sha256::sha256;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| sha256(&(i as u64).to_be_bytes())).collect()
    }

    /// The fold as it was before layers were hashed two parents at a time:
    /// one parent after the other, each child looked up in the run or the
    /// proof. The reference [`verify_range`] is held equal to.
    fn verify_range_reference(
        first_index: usize,
        leaves: &[Digest],
        proof: &RangeProof,
    ) -> Result<VerifyOutcome, VerifyError> {
        if leaves.is_empty() {
            return Err(VerifyError::BadLeafRange);
        }
        let leaf_count = proof.leaf_count as usize;
        if leaf_count == 0 || first_index + leaves.len() > leaf_count {
            return Err(VerifyError::LeafOutOfRange);
        }
        let mut hash_ops = 0usize;
        let mut layer_size = leaf_count;
        let mut layer_idx: u32 = 0;
        let mut lo = first_index;
        let mut hi = first_index + leaves.len() - 1;
        let mut known: Vec<Digest> = vec![[0u8; 32]; leaves.len() / 2 + 1];
        while layer_size > 1 {
            let parent_lo = lo / 2;
            for p in parent_lo..=hi / 2 {
                let current: &[Digest] = if layer_idx == 0 { leaves } else { &known };
                let child = |idx: usize| {
                    if (lo..=hi).contains(&idx) {
                        return Ok(&current[idx - lo]);
                    }
                    let supplied = |n: &&ProofNode| n.layer == layer_idx && n.index as usize == idx;
                    let node = proof.nodes.iter().find(supplied);
                    node.map(|n| &n.hash).ok_or(VerifyError::MissingNode {
                        layer: layer_idx,
                        index: idx as u32,
                    })
                };
                let left = child(p * 2)?;
                let parent = if p * 2 + 1 < layer_size {
                    hash_ops += 1;
                    sha256_pair(left, child(p * 2 + 1)?)
                } else {
                    *left
                };
                known[p - parent_lo] = parent;
            }
            lo = parent_lo;
            hi /= 2;
            layer_size = layer_size.div_ceil(2);
            layer_idx += 1;
        }
        Ok(VerifyOutcome {
            root: if layer_idx == 0 { leaves[0] } else { known[0] },
            hash_ops,
            leaf_count: proof.leaf_count,
        })
    }

    #[test]
    fn fold_equals_the_reference_fold_for_every_window() {
        // Every leaf count to 70 and every window: the honest proof, the
        // window presented one place off, and the proof with any single
        // node deleted give the same root, hash count or error both ways.
        // Every window in an optimised build (CI runs this crate's tests in
        // release); unoptimised, where one hash costs microseconds, every
        // window to 12 leaves and a fixed one in forty above.
        let checked = |n: usize, lo: usize, hi: usize| {
            !cfg!(debug_assertions) || n <= 12 || (7 * lo + 3 * hi).is_multiple_of(40)
        };
        let mut forest = MerkleForestBuilder::default();
        let trees: Vec<TreeId> = (1..=70).map(|n| insert(&mut forest, leaves(n))).collect();
        let forest = forest.finish();
        for (n, id) in (1..=70).zip(trees) {
            let l = leaves(n);
            let t = MerkleTree::build(l.clone());
            let view = forest.tree(id);
            let digest = |leaf: LeafId| forest.nodes[leaf.index()].hash;
            for lo in 0..n {
                assert_eq!(digest(view.leaf_at(lo)), t.leaf(lo), "{n}: leaf {lo}");
                for hi in lo..n {
                    let window: Vec<Digest> = view.window(lo, hi).into_iter().map(digest).collect();
                    assert_eq!(window, l[lo..=hi], "{n}: window {lo}..={hi}");
                }
                for hi in (lo..n).filter(|&hi| checked(n, lo, hi)) {
                    let window = &l[lo..=hi];
                    let proof = t.prove_range(lo, hi);
                    let honest = verify_range(lo, window, &proof);
                    assert_eq!(honest, verify_range_reference(lo, window, &proof));
                    assert_eq!(honest.map(|out| out.root), Ok(t.root()), "{n}: {lo}..={hi}");
                    for shifted in lo.checked_sub(1).into_iter().chain([lo + 1]) {
                        assert_eq!(
                            verify_range(shifted, window, &proof),
                            verify_range_reference(shifted, window, &proof),
                            "{n}: {lo}..={hi} at {shifted}"
                        );
                    }
                    for gone in 0..proof.nodes.len() {
                        let mut short = proof.clone();
                        let node = short.nodes.remove(gone);
                        let missing = VerifyError::MissingNode {
                            layer: node.layer,
                            index: node.index,
                        };
                        assert_eq!(verify_range(lo, window, &short), Err(missing.clone()));
                        assert_eq!(verify_range_reference(lo, window, &short), Err(missing));
                    }
                }
            }
        }
    }

    #[test]
    fn single_leaf_tree() {
        let l = leaves(1);
        let t = MerkleTree::build(l.clone());
        assert_eq!(t.root(), l[0]);
        assert_eq!(t.height(), 1);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.build_hash_ops, 0);
    }

    #[test]
    fn two_leaf_tree_root_is_concat_hash() {
        let l = leaves(2);
        let t = MerkleTree::build(l.clone());
        assert_eq!(t.root(), sha256_pair(&l[0], &l[1]));
        assert_eq!(t.build_hash_ops, 1);
    }

    #[test]
    fn odd_leaf_promotion_matches_manual_construction() {
        // 3 leaves: layer1 = [H(0|1), leaf2]; root = H(H(0|1) | leaf2)
        let l = leaves(3);
        let t = MerkleTree::build(l.clone());
        let expected = sha256_pair(&sha256_pair(&l[0], &l[1]), &l[2]);
        assert_eq!(t.root(), expected);
    }

    #[test]
    fn build_is_deterministic_and_sensitive() {
        let t1 = MerkleTree::build(leaves(10));
        let t2 = MerkleTree::build(leaves(10));
        assert_eq!(t1.root(), t2.root());
        let mut changed = leaves(10);
        changed[3][0] ^= 1;
        let t3 = MerkleTree::build(changed);
        assert_ne!(t1.root(), t3.root());
    }

    #[test]
    fn prove_and_verify_full_range() {
        for n in [1usize, 2, 3, 4, 5, 8, 13, 16, 31] {
            let l = leaves(n);
            let t = MerkleTree::build(l.clone());
            let proof = t.prove_range(0, n - 1);
            let out = verify_range(0, &l, &proof).unwrap();
            assert_eq!(out.root, t.root(), "n = {n}");
            assert!(proof.nodes.is_empty(), "full range needs no siblings");
        }
    }

    #[test]
    fn prove_and_verify_every_subrange_small_trees() {
        for n in [1usize, 2, 3, 5, 7, 9, 12] {
            let l = leaves(n);
            let t = MerkleTree::build(l.clone());
            for lo in 0..n {
                for hi in lo..n {
                    let proof = t.prove_range(lo, hi);
                    let out = verify_range(lo, &l[lo..=hi], &proof).unwrap();
                    assert_eq!(out.root, t.root(), "n={n} lo={lo} hi={hi}");
                }
            }
        }
    }

    #[test]
    fn single_leaf_proofs() {
        let n = 20;
        let l = leaves(n);
        let t = MerkleTree::build(l.clone());
        for i in 0..n {
            let proof = t.prove_leaf(i);
            let out = verify_range(i, &l[i..=i], &proof).unwrap();
            assert_eq!(out.root, t.root());
            // A single-leaf path in a 20-leaf tree needs ~log2(20) siblings.
            assert!(proof.nodes.len() <= 6);
        }
    }

    #[test]
    fn verify_detects_tampered_leaf() {
        let l = leaves(16);
        let t = MerkleTree::build(l.clone());
        let proof = t.prove_range(4, 7);
        let mut bad = l[4..=7].to_vec();
        bad[1][0] ^= 0xff;
        let out = verify_range(4, &bad, &proof).unwrap();
        assert_ne!(out.root, t.root());
    }

    #[test]
    fn verify_detects_wrong_position() {
        let l = leaves(16);
        let t = MerkleTree::build(l.clone());
        let proof = t.prove_range(4, 7);
        // Present the same leaves shifted by one position: either an error or
        // a root mismatch, never a silent pass.
        if let Ok(out) = verify_range(5, &l[4..=7], &proof) {
            assert_ne!(out.root, t.root())
        }
    }

    #[test]
    fn verify_rejects_out_of_range_and_empty() {
        let l = leaves(8);
        let t = MerkleTree::build(l.clone());
        let proof = t.prove_range(2, 5);
        assert_eq!(
            verify_range(6, &l[2..=5], &proof),
            Err(VerifyError::LeafOutOfRange)
        );
        assert_eq!(verify_range(0, &[], &proof), Err(VerifyError::BadLeafRange));
    }

    #[test]
    fn verify_missing_proof_node_reported() {
        let l = leaves(16);
        let t = MerkleTree::build(l.clone());
        let mut proof = t.prove_range(4, 7);
        proof.nodes.pop();
        let err = verify_range(4, &l[4..=7], &proof).unwrap_err();
        assert!(matches!(err, VerifyError::MissingNode { .. }));
    }

    #[test]
    fn hash_ops_scale_logarithmically_for_single_leaf() {
        let l = leaves(1024);
        let t = MerkleTree::build(l.clone());
        let proof = t.prove_leaf(512);
        let out = verify_range(512, &l[512..=512], &proof).unwrap();
        assert_eq!(out.root, t.root());
        assert!(out.hash_ops <= 11, "hash_ops = {}", out.hash_ops);
    }

    #[test]
    fn proof_sizes_are_reported() {
        let l = leaves(64);
        let t = MerkleTree::build(l.clone());
        let proof = t.prove_range(10, 20);
        assert_eq!(proof.byte_size(), 4 + proof.nodes.len() * 40);
        assert!(t.byte_size() >= 64 * 32);
    }

    /// Interns `digests` and adds the tree over them.
    fn insert(builder: &mut MerkleForestBuilder, digests: Vec<Digest>) -> TreeId {
        let ids: Vec<LeafId> = digests.into_iter().map(|d| builder.leaf(d)).collect();
        builder.insert(ids)
    }

    /// Asserts that `view` answers everything `tree` does, for the given
    /// ranges.
    fn assert_same_tree(view: ForestTree<'_>, tree: &MerkleTree, ranges: &[(usize, usize)]) {
        let n = tree.leaf_count();
        assert_eq!(view.root(), tree.root(), "n = {n}");
        assert_eq!((view.leaf_count(), view.height()), (n, tree.height()));
        for &(lo, hi) in ranges {
            assert_eq!(view.leaf(lo), tree.leaf(lo), "n = {n}, leaf {lo}");
            let window = view.window(lo, hi).into_iter();
            let window: Vec<Digest> = window
                .map(|id| view.forest.nodes[id.index()].hash)
                .collect();
            let leaves: Vec<Digest> = (lo..=hi).map(|i| tree.leaf(i)).collect();
            assert_eq!(window, leaves, "n = {n}, window {lo}..={hi}");
            let proof = view.prove_range(lo, hi);
            assert_eq!(proof, tree.prove_range(lo, hi), "n = {n}, {lo}..={hi}");
        }
        assert_eq!(view.prove_leaf(n / 2), tree.prove_leaf(n / 2), "n = {n}");
    }

    #[test]
    fn forest_trees_equal_merkle_trees_node_for_node() {
        // One forest for every size: the lists are prefixes of one another,
        // so the trees share subtrees across sizes as well.
        let mut builder = MerkleForestBuilder::default();
        let sizes: Vec<usize> = (1..=40).chain([4098]).collect();
        let ids: Vec<TreeId> = sizes
            .iter()
            .map(|&n| insert(&mut builder, leaves(n)))
            .collect();
        let forest = builder.finish();
        for (&n, &id) in sizes.iter().zip(&ids) {
            let every = (0..n).flat_map(|lo| (lo..n).map(move |hi| (lo, hi)));
            // At 4,098 (two carried layers): both ends, the carried tail
            // and a stride of interior windows of every width class.
            let sampled = (0..n).step_by(97).flat_map(|lo| {
                let widths = [0, 1, 2, 63, 64, 1000, n];
                widths.map(move |w| (lo, (lo + w).min(n - 1)))
            });
            let tail = (n.saturating_sub(6)..n).map(|lo| (lo, n - 1));
            let ranges: Vec<_> = match n <= 40 {
                true => every.collect(),
                false => sampled.chain(tail).collect(),
            };
            assert_same_tree(forest.tree(id), &MerkleTree::build(leaves(n)), &ranges);
        }
        // Hashes performed and nodes stored are those of the largest tree
        // alone plus what the carried tails of the smaller ones add.
        let largest = MerkleTree::build(leaves(4098));
        assert!(forest.build_hash_ops >= largest.build_hash_ops);
        assert!(forest.build_hash_ops < largest.build_hash_ops + 41 * 6);
        assert_eq!(forest.byte_size(), forest.node_count() * 40);
    }

    #[test]
    fn one_tree_in_a_forest_costs_what_a_merkle_tree_costs() {
        for n in [1usize, 2, 3, 7, 258] {
            let mut builder = MerkleForestBuilder::default();
            insert(&mut builder, leaves(n));
            let (forest, tree) = (builder.finish(), MerkleTree::build(leaves(n)));
            assert_eq!(forest.build_hash_ops, tree.build_hash_ops);
            // A carried node is one node in the arena, one per layer there.
            assert_eq!(forest.node_count(), 2 * n - 1);
            assert!(forest.node_count() <= tree.node_count());
        }
    }

    #[test]
    fn lists_one_adjacent_transposition_apart_share_all_but_two_paths() {
        let n = 258;
        let base = leaves(n);
        let mut builder = MerkleForestBuilder::default();
        let id = insert(&mut builder, base.clone());
        let height = MerkleTree::build(base.clone()).height();
        for at in [0, 1, 2, 63, 64, 127, 128, 200, 255, 256] {
            let before = builder.forest.node_count();
            let hashes = builder.forest.build_hash_ops;
            let mut swapped = base.clone();
            swapped.swap(at, at + 1);
            let other = insert(&mut builder, swapped.clone());
            let added = builder.forest.node_count() - before;
            assert!((1..=2 * height).contains(&added), "{added} nodes at {at}");
            assert_eq!(builder.forest.build_hash_ops - hashes, added);
            // Inserting either list again adds nothing and names the same tree.
            let again = (
                insert(&mut builder, swapped),
                insert(&mut builder, base.clone()),
            );
            assert_eq!(again, (other, id));
            assert_eq!(builder.forest.node_count(), before + added);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_any_subrange_verifies(n in 1usize..80, seed in 0u64..1000) {
            let l: Vec<Digest> = (0..n).map(|i| sha256(&(i as u64 ^ seed).to_be_bytes())).collect();
            let t = MerkleTree::build(l.clone());
            let lo = (seed as usize) % n;
            let hi = lo + ((seed as usize / 7) % (n - lo));
            let proof = t.prove_range(lo, hi);
            let out = verify_range(lo, &l[lo..=hi], &proof).unwrap();
            proptest::prop_assert_eq!(out.root, t.root());
        }

        #[test]
        fn prop_tampering_any_leaf_changes_root(n in 2usize..60, which in 0usize..60) {
            let which = which % n;
            let l = (0..n).map(|i| sha256(&(i as u64).to_be_bytes())).collect::<Vec<_>>();
            let t = MerkleTree::build(l.clone());
            let mut tampered = l.clone();
            tampered[which][5] ^= 0x80;
            let t2 = MerkleTree::build(tampered);
            proptest::prop_assert_ne!(t.root(), t2.root());
        }
    }
}
