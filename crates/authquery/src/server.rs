//! The (untrusted) server: query processing and VO construction.

use crate::cost::ServerCost;
use crate::ifmh::IfmhTree;
use crate::query::Query;
use crate::signing::SigningMode;
use crate::vo::{BoundaryEntry, IntersectionVerification, IvStep, VerificationObject};
use std::time::{Duration, Instant};
use vaq_crypto::Signature;
use vaq_funcdb::{Dataset, FuncId, Record};
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

/// A query's answer as the server computes it, before any record is
/// copied: the result window as a slice of the subdomain's sorted list, the
/// verification object and the traversal cost. [`Server::process_timed`]
/// copies the window's records out of the dataset into a [`QueryResponse`];
/// a caller that already holds every record's encoding (the networked
/// service keeps one per publication) frames the reply from the ids alone.
#[derive(Clone, Debug)]
pub struct Answer<'a> {
    /// The ids of the result records `R(q)`, in ascending score order.
    pub window: &'a [FuncId],
    /// The verification object `VO(q)`.
    pub vo: VerificationObject,
    /// The server's cost counters for this query (Fig. 6 metric).
    pub cost: ServerCost,
}

/// Wall-clock breakdown of [`Server::answer`] / [`Server::process_timed`]:
/// how long was spent answering the query versus constructing (and binding
/// signatures into) the verification object.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcessTiming {
    /// Subdomain location and result-window selection (scoring only the
    /// positions it reads); [`Server::process_timed`] adds copying the
    /// result records out of the dataset. The flanking records the VO
    /// carries are copied under `vo_build`.
    pub execute: Duration,
    /// FMH range proof, flanking records, subdomain verification data, and
    /// signature binding.
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
        self.materialise(self.answer(query))
    }

    /// Copies an answer's result records out of the dataset, charging the
    /// copy to `execute`.
    fn materialise(
        &self,
        (answer, mut timing): (Answer<'_>, ProcessTiming),
    ) -> (QueryResponse, ProcessTiming) {
        let t_copy = Instant::now();
        let records = answer
            .window
            .iter()
            .map(|id| self.dataset.record(*id).clone())
            .collect();
        timing.execute += t_copy.elapsed();
        let Answer { vo, cost, .. } = answer;
        (QueryResponse { records, vo, cost }, timing)
    }

    /// Answers a query without copying a result record: the window's ids,
    /// the VO and the cost, plus the time split. [`Server::process_timed`]
    /// is this followed by copying the window's records out.
    pub fn answer(&self, query: &Query) -> (Answer<'_>, ProcessTiming) {
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
        //    positions the search reads. The window stays a slice of ids:
        //    no record is copied here.
        let window = query.select_window_by(n, |i| self.dataset.score(sorted[i], x));

        let execute = t_start.elapsed();
        let t_vo = Instant::now();

        // 3. Map the window to FMH leaf indices (leaf 0 is the f_min
        //    sentinel, records occupy leaves 1..=n, leaf n+1 is f_max). The
        //    proven run is the window and one entry either side; an empty
        //    window proves the gap between the two adjacent entries
        //    bracketing where the result would have been. The two flanking
        //    records travel inside the VO, so they are copied here.
        let first_leaf = window.start;
        let last_leaf = window.end + 1;
        let window = &sorted[window];
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

        // 4. FMH range proof over [first_leaf, last_leaf].
        let fmh = self
            .tree
            .fmh_tree(leaf)
            .expect("every subdomain has an FMH tree");
        let range_proof = fmh.prove_range(first_leaf, last_leaf);

        // 5. Subdomain verification data and the signature covering it.
        let (intersection_verification, signature, vo_nodes_collected) =
            self.assemble_interior_proof(&located, leaf);

        let cost = ServerCost {
            imh_nodes_visited: located.nodes_visited,
            fmh_nodes_visited: (last_leaf - first_leaf + 1)
                + range_proof.nodes.len()
                + fmh.height(),
            vo_nodes_collected,
            result_len: window.len(),
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
        (Answer { window, vo, cost }, timing)
    }

    /// The interior proof of the located subdomain, read from the tree: in
    /// one-signature mode the root-to-leaf IMH path (each intersection's
    /// predicate, the hash stored at the sibling not taken and the branch)
    /// with the root signature; in multi-signature mode the subdomain's
    /// defining half-spaces with its own signature. The count is the
    /// interior nodes the VO collects: the path length, or 0.
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
