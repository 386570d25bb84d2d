//! Signature-mesh construction and server-side query processing.

use crate::vo::{pair_digest, MeshBoundary, MeshResponse, MeshVo};
use std::ops::Range;
use vaq_authquery::cost::{OwnerStats, ServerCost};
use vaq_authquery::Query;
use vaq_crypto::sha256::Digest;
use vaq_crypto::{Signature, Signer};
use vaq_funcdb::{Dataset, FuncId, LpSplitOracle, SubdomainConstraints};
use vaq_itree::ITreeBuilder;

/// One cell (subdomain) of the signature mesh.
#[derive(Clone, Debug)]
pub struct MeshCell {
    /// The subdomain's constraint system.
    pub constraints: SubdomainConstraints,
    /// Function ids sorted ascending by score inside this subdomain.
    pub sorted: Vec<FuncId>,
}

/// The signature mesh: every subdomain's sorted list with one signature per
/// consecutive pair.
#[derive(Debug)]
pub struct SignatureMesh {
    cells: Vec<MeshCell>,
    /// `signatures[c][p]` signs pair `p` of cell `c`; pair 0 is
    /// `(min, first)`, pair `n` is `(last, max)`.
    signatures: Vec<Vec<Signature>>,
    stats: OwnerStats,
}

impl SignatureMesh {
    /// Builds the mesh for a dataset: enumerates the subdomain arrangement
    /// (using the same exact split oracle as the IFMH-tree so the two
    /// schemes index identical subdomains) and signs every consecutive pair
    /// in every subdomain.
    pub fn build(dataset: &Dataset, signer: &dyn Signer) -> Self {
        // Enumerate subdomains with the shared I-tree machinery; the mesh
        // itself keeps only the flat cell list (it has no search tree — that
        // is precisely its weakness).
        let itree = ITreeBuilder::new(LpSplitOracle::new())
            .build(&dataset.functions, dataset.domain.clone());
        // Every cell's region, in leaf order, which is node id order.
        let mut regions = Vec::with_capacity(itree.leaf_ids().len());
        itree.for_each_region(|leaf, halfspaces| regions.push((leaf, halfspaces.to_vec())));
        regions.sort_unstable_by_key(|(leaf, _)| *leaf);

        let record_digests: Vec<Digest> = dataset.records.iter().map(|r| r.digest()).collect();
        let mut hash_ops = record_digests.len();
        let min_d = MeshBoundary::MinToken.digest();
        let max_d = MeshBoundary::MaxToken.digest();
        hash_ops += 2;

        let mut cells = Vec::with_capacity(itree.leaf_ids().len());
        let mut signatures = Vec::with_capacity(itree.leaf_ids().len());
        let mut structure_bytes = 0usize;
        let sig_size = signer.verifier().signature_size();

        for (leaf, halfspaces) in regions {
            let domain = dataset.domain.clone();
            let constraints = SubdomainConstraints { domain, halfspaces };
            let sorted = itree.order(&dataset.functions, leaf);

            // Leaf digests with the min/max tokens at the ends.
            let mut chain: Vec<Digest> = Vec::with_capacity(sorted.len() + 2);
            chain.push(min_d);
            for id in &sorted {
                chain.push(record_digests[id.index()]);
            }
            chain.push(max_d);

            let cell_digest = constraints.digest();
            hash_ops += 1;

            // One batch per cell, in chain order (see `Signer::sign_digests`).
            let pair_digests: Vec<Digest> = chain
                .windows(2)
                .map(|pair| pair_digest(&pair[0], &pair[1], &cell_digest))
                .collect();
            hash_ops += pair_digests.len();
            let cell_sigs = signer.sign_digests(&pair_digests);
            structure_bytes +=
                constraints.canonical_bytes().len() + sorted.len() * 4 + cell_sigs.len() * sig_size;

            cells.push(MeshCell {
                constraints,
                sorted,
            });
            signatures.push(cell_sigs);
        }

        let total_signatures: usize = signatures.iter().map(Vec::len).sum();
        let stats = OwnerStats {
            records: dataset.len(),
            subdomains: cells.len(),
            imh_nodes: 0,
            fmh_nodes: 0,
            hash_ops,
            signatures: total_signatures,
            structure_bytes,
        };

        SignatureMesh {
            cells,
            signatures,
            stats,
        }
    }

    /// Number of mesh cells (subdomains).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Read access to the cells.
    pub fn cells(&self) -> &[MeshCell] {
        &self.cells
    }

    /// Owner-side statistics (Fig. 5 metrics).
    pub fn stats(&self) -> &OwnerStats {
        &self.stats
    }

    /// Processes an analytic query: linear search for the containing cell,
    /// window selection on its sorted list, and assembly of the signature
    /// chain covering the window.
    pub fn process(&self, dataset: &Dataset, query: &Query) -> MeshResponse {
        let x = query.weights();

        // Linear search over the cells — the cost the paper criticises.
        let mut scanned = 0usize;
        let mut found: Option<usize> = None;
        for (idx, cell) in self.cells.iter().enumerate() {
            scanned += 1;
            if cell.constraints.contains(x) {
                found = Some(idx);
                break;
            }
        }
        let cell_idx = found.expect("query weights outside the declared domain");
        let cell = &self.cells[cell_idx];
        let n = cell.sorted.len();

        // The IFMH server's selector, scoring only the positions it reads.
        let score = |id: &FuncId| dataset.score(*id, x);
        let near = |at: Range<usize>| cell.sorted[at].iter().map(score).collect();
        let window = query.select_window_by(n, |i| score(&cell.sorted[i]), near);

        // Positions in the token-extended chain: token 0 = min, records at
        // 1..=n, token n+1 = max. Pair p sits between chain positions p and
        // p+1. The chain covers the window and one entry either side; an
        // empty window covers the one pair where the result would have been.
        let first_chain = window.start;
        let last_chain = window.end + 1;
        let records: Vec<_> = cell.sorted[window]
            .iter()
            .map(|id| dataset.record(*id).clone())
            .collect();

        let left_boundary = if first_chain == 0 {
            MeshBoundary::MinToken
        } else {
            MeshBoundary::Record(dataset.record(cell.sorted[first_chain - 1]).clone())
        };
        let right_boundary = if last_chain == n + 1 {
            MeshBoundary::MaxToken
        } else {
            MeshBoundary::Record(dataset.record(cell.sorted[last_chain - 1]).clone())
        };

        // Pair signatures covering chain positions first_chain..last_chain.
        let pair_signatures: Vec<Signature> = (first_chain..last_chain)
            .map(|p| self.signatures[cell_idx][p].clone())
            .collect();

        let cost = ServerCost {
            imh_nodes_visited: scanned,
            fmh_nodes_visited: (last_chain - first_chain + 1) + pair_signatures.len(),
            vo_nodes_collected: pair_signatures.len(),
            result_len: records.len(),
        };

        MeshResponse {
            records,
            vo: MeshVo {
                subdomain: cell.constraints.clone(),
                left_boundary,
                right_boundary,
                pair_signatures,
            },
            cost,
        }
    }
}
