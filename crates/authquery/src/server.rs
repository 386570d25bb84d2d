//! The (untrusted) server: query processing and VO construction.

use crate::cost::ServerCost;
use crate::ifmh::IfmhTree;
use crate::query::Query;
use crate::signing::SigningMode;
use crate::vo::{BoundaryEntry, IntersectionVerification, IvStep, VerificationObject};
use std::time::{Duration, Instant};
use vaq_crypto::Signature;
use vaq_funcdb::{Dataset, Record};
use vaq_itree::{LocateResult, Node, NodeId};

/// A query result together with its verification object and the server's
/// traversal cost.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The result records `R(q)`, in ascending score order.
    pub records: Vec<Record>,
    /// The verification object `VO(q)`.
    pub vo: VerificationObject,
    /// The server's cost counters for this query (Fig. 6 metric).
    pub cost: ServerCost,
}

/// Wall-clock breakdown of [`Server::process_timed`]: how long was spent
/// answering the query versus constructing (and binding signatures into)
/// the verification object.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcessTiming {
    /// Subdomain location, result-window selection (scoring only the
    /// positions it reads), and copying out the result and flanking records.
    pub execute: Duration,
    /// FMH range proof, subdomain verification data, and signature binding.
    pub vo_build: Duration,
}

/// The cloud server: holds the outsourced dataset and the owner-built
/// IFMH-tree, and answers analytic queries with verifiable results.
#[derive(Debug)]
pub struct Server {
    dataset: Dataset,
    tree: IfmhTree,
}

impl Server {
    /// Creates a server from the outsourced dataset and tree.
    pub fn new(dataset: Dataset, tree: IfmhTree) -> Self {
        Server { dataset, tree }
    }

    /// Read access to the hosted dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Read access to the hosted IFMH-tree.
    pub fn tree(&self) -> &IfmhTree {
        &self.tree
    }

    /// The publication epoch of the hosted structure: every signature in
    /// this server's responses is bound to it.
    pub fn epoch(&self) -> u64 {
        self.tree.epoch()
    }

    /// Processes an analytic query and constructs the verification object.
    pub fn process(&self, query: &Query) -> QueryResponse {
        self.process_timed(query).0
    }

    /// Like [`Server::process`], but also reports how the wall-clock time
    /// split between query execution and VO construction, so callers can
    /// attribute latency to the right stage.
    pub fn process_timed(&self, query: &Query) -> (QueryResponse, ProcessTiming) {
        self.process_inner(query, true)
    }

    /// Reference path: identical to [`Server::process`] but assembles the
    /// subdomain-verification data by re-walking the I-tree instead of using
    /// the interior-proof cache. Kept for differential testing — the VO
    /// bytes must be identical to the cached path.
    pub fn process_uncached(&self, query: &Query) -> QueryResponse {
        self.process_inner(query, false).0
    }

    fn process_inner(&self, query: &Query, use_cache: bool) -> (QueryResponse, ProcessTiming) {
        let x = query.weights();
        assert_eq!(
            x.len(),
            self.dataset.dims(),
            "query weight vector has wrong dimensionality"
        );

        let t_start = Instant::now();

        // 1. Locate the subdomain containing X.
        let located = self.tree.itree.locate(x);
        let leaf = located.leaf;
        let sorted = self.tree.itree.sorted_list(leaf);
        let n = sorted.len();

        // 2. Select the result window on the sorted list, scoring only the
        //    positions the search reads.
        let window = query.select_window_by(n, |i| self.dataset.score(sorted[i], x));

        // 3. Map the window to FMH leaf indices (leaf 0 is the f_min
        //    sentinel, records occupy leaves 1..=n, leaf n+1 is f_max). The
        //    proven run is the window and one entry either side; an empty
        //    window proves the gap between the two adjacent entries
        //    bracketing where the result would have been.
        let first_leaf = window.start;
        let last_leaf = window.end + 1;
        let records: Vec<Record> = sorted[window]
            .iter()
            .map(|id| self.dataset.record(*id).clone())
            .collect();

        let left_boundary = if first_leaf == 0 {
            BoundaryEntry::MinSentinel
        } else {
            BoundaryEntry::Record(self.dataset.record(sorted[first_leaf - 1]).clone())
        };
        let right_boundary = if last_leaf == n + 1 {
            BoundaryEntry::MaxSentinel
        } else {
            BoundaryEntry::Record(self.dataset.record(sorted[last_leaf - 1]).clone())
        };

        let execute = t_start.elapsed();
        let t_vo = Instant::now();

        // 4. FMH range proof over [first_leaf, last_leaf].
        let fmh = self
            .tree
            .fmh_tree(leaf)
            .expect("every subdomain has an FMH tree");
        let range_proof = fmh.prove_range(first_leaf, last_leaf);

        // 5. Subdomain verification data and signature: served from the
        //    epoch-scoped interior-proof cache when available (everything in
        //    it is immutable within the epoch), with the tree re-walk kept
        //    as the uncached reference path.
        let cached = if use_cache {
            self.tree.proof_cache().get(leaf)
        } else {
            None
        };
        let (intersection_verification, signature, vo_nodes_collected) = match cached {
            Some(proof) => (
                proof.iv.clone(),
                proof.signature.clone(),
                proof.nodes_collected,
            ),
            None => self.assemble_interior_proof(&located, leaf),
        };

        let cost = ServerCost {
            imh_nodes_visited: located.nodes_visited,
            fmh_nodes_visited: (last_leaf - first_leaf + 1)
                + range_proof.nodes.len()
                + fmh.height(),
            vo_nodes_collected,
            result_len: records.len(),
        };

        let vo = VerificationObject {
            first_leaf: first_leaf as u32,
            left_boundary,
            right_boundary,
            range_proof,
            intersection_verification,
            signature,
        };

        let timing = ProcessTiming {
            execute,
            vo_build: t_vo.elapsed(),
        };
        (QueryResponse { records, vo, cost }, timing)
    }

    /// Legacy interior-proof assembly: re-walks the located path and reads
    /// node hashes per query. The proof cache precomputes exactly this.
    fn assemble_interior_proof(
        &self,
        located: &LocateResult,
        leaf: NodeId,
    ) -> (IntersectionVerification, Signature, usize) {
        match self.tree.mode() {
            SigningMode::OneSignature => {
                let mut path = Vec::with_capacity(located.path.len());
                for step in &located.path {
                    if let Node::Intersection {
                        pair,
                        coeffs,
                        constant,
                        ..
                    } = self.tree.itree.node(step.node)
                    {
                        path.push(IvStep {
                            pair: (pair.0 .0, pair.1 .0),
                            coeffs: coeffs.clone(),
                            constant: *constant,
                            sibling_hash: self.tree.node_hash(step.sibling),
                            went_above: step.went_above,
                        });
                    }
                }
                let collected = path.len();
                (
                    IntersectionVerification::OneSignature { path },
                    self.tree
                        .root_signature
                        .clone()
                        .expect("one-signature tree carries a root signature"),
                    collected,
                )
            }
            SigningMode::MultiSignature => {
                let halfspaces = self.tree.itree.constraints(leaf).halfspaces.clone();
                (
                    IntersectionVerification::MultiSignature { halfspaces },
                    self.tree.leaf_signatures[&leaf.0].clone(),
                    0,
                )
            }
        }
    }
}
