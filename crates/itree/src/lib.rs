//! The Intersection tree (I-tree).
//!
//! The I-tree (Yang & Cai, TKDE 2018; paper Sec. 2.3.2) indexes the
//! subdomains that the pairwise intersections of a set of functions carve
//! out of the weight domain. Internal *intersection nodes* record that two
//! functions intersect somewhere inside their region and point to the
//! *above* (`f_i − f_j ≥ 0`) and *below* (`f_i − f_j < 0`) children; leaf
//! *subdomain nodes* represent regions in which the functions have one fixed
//! total order, read at a point inside the region ([`ITree::order`]); the
//! region is the half-spaces on the path ([`ITree::for_each_region`]).
//!
//! The tree is the query-processing backbone of both the paper's IFMH-tree
//! (which adds Merkle hashing on top) and the signature-mesh baseline (which
//! enumerates the same subdomains but searches them linearly).

#![warn(missing_docs)]

pub mod build;
pub mod node;
pub mod search;

pub use build::{facets, BuildStats, ITreeBuilder};
pub use node::{ITree, Node, NodeId};
pub use search::{LocateResult, PathStep};

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_funcdb::{
        sort_functions_at, Dataset, Domain, FuncId, FunctionTemplate, LpSplitOracle, Record,
        SubdomainConstraints,
    };

    /// The four univariate functions of the paper's Fig. 2a (values chosen to
    /// produce several intersections inside [0, 1]).
    fn paper_like_dataset() -> Dataset {
        let template = FunctionTemplate::new(vec!["x"]);
        let records = vec![
            Record::new(1, vec![1.0]),  // f1(x) = x        (as 1-attr linear form)
            Record::new(2, vec![0.6]),  // f2(x) = 0.6x
            Record::new(3, vec![0.25]), // f3(x) = 0.25x
            Record::new(4, vec![-0.5]), // f4(x) = -0.5x
        ];
        Dataset::new(records, template, Domain::unit(1))
    }

    /// Univariate affine functions with distinct slopes/intercepts produce a
    /// textbook arrangement of intersection points.
    fn affine_dataset() -> (Vec<vaq_funcdb::LinearFunction>, Domain) {
        use vaq_funcdb::LinearFunction;
        let fs = vec![
            LinearFunction::new(FuncId(0), vec![1.0], 0.0),  // x
            LinearFunction::new(FuncId(1), vec![-1.0], 1.0), // 1 - x
            LinearFunction::new(FuncId(2), vec![0.0], 0.3),  // 0.3
            LinearFunction::new(FuncId(3), vec![2.0], -0.4), // 2x - 0.4
        ];
        (fs, Domain::unit(1))
    }

    #[test]
    fn build_on_functions_through_origin_gives_single_subdomain() {
        // All functions are scalar multiples of x on [0,1]: they only meet at
        // x = 0, which does not partition the (closed) domain interior, so a
        // single subdomain with one global order is expected.
        let ds = paper_like_dataset();
        let tree = ITreeBuilder::new(LpSplitOracle::new()).build(&ds.functions, ds.domain.clone());
        assert_eq!(tree.leaf_ids().len(), 1);
        let leaf = tree.leaf_ids()[0];
        let sorted = tree.order(&ds.functions, leaf);
        // At any interior point, order is f4 < f3 < f2 < f1 (ids 3,2,1,0).
        assert_eq!(sorted, vec![FuncId(3), FuncId(2), FuncId(1), FuncId(0)]);
    }

    #[test]
    fn build_affine_arrangement_and_locate_agree_with_direct_sort() {
        let (fs, domain) = affine_dataset();
        let tree = ITreeBuilder::new(LpSplitOracle::new()).build(&fs, domain.clone());
        assert!(tree.leaf_ids().len() >= 4, "expected several subdomains");

        // At many probe points, the sorted list of the located subdomain must
        // equal the direct sort at that point.
        for i in 0..50 {
            let x = [i as f64 / 49.0];
            let located = tree.locate(&x);
            let leaf_sorted = tree.order(&fs, located.leaf);
            let direct = sort_functions_at(&fs, &x);
            assert_eq!(leaf_sorted, direct, "mismatch at x = {x:?}");
        }
    }

    #[test]
    fn every_leaf_witness_point_is_inside_its_constraints() {
        let (fs, domain) = affine_dataset();
        let tree = ITreeBuilder::new(LpSplitOracle::new()).build(&fs, domain);
        let mut leaves = 0;
        tree.for_each_region(|leaf, halfspaces| {
            let Node::Subdomain { witness } = tree.node(leaf) else {
                panic!("a region's leaf is not a subdomain node");
            };
            let region = SubdomainConstraints {
                domain: tree.domain().clone(),
                halfspaces: halfspaces.to_vec(),
            };
            assert!(region.contains(witness), "witness not in subdomain");
            assert_eq!(tree.locate(witness).leaf, leaf);
            leaves += 1;
        });
        assert_eq!(leaves, tree.leaf_ids().len());
    }

    #[test]
    fn locate_paths_never_exceed_tree_size_and_count_nodes() {
        let (fs, domain) = affine_dataset();
        let tree = ITreeBuilder::new(LpSplitOracle::new()).build(&fs, domain);
        let res = tree.locate(&[0.77]);
        assert!(res.nodes_visited >= 1);
        assert!(res.nodes_visited <= tree.node_count());
        assert_eq!(res.path.len() + 1, res.nodes_visited);
    }

    #[test]
    fn two_dimensional_arrangement() {
        let template = FunctionTemplate::new(vec!["w1", "w2"]);
        let records = vec![
            Record::new(1, vec![1.0, 0.0]),
            Record::new(2, vec![0.0, 1.0]),
            Record::new(3, vec![0.7, 0.7]),
            Record::new(4, vec![0.2, 0.9]),
        ];
        let ds = Dataset::new(records, template, Domain::unit(2));
        let tree = ITreeBuilder::new(LpSplitOracle::new()).build(&ds.functions, ds.domain.clone());
        assert!(tree.leaf_ids().len() >= 3);
        // Consistency of located order with direct sorting at probe points.
        // Probe points are chosen off every intersection boundary so the
        // tie-break-free direct sort is unambiguous.
        for p in [[0.1, 0.9], [0.9, 0.1], [0.52, 0.47], [0.33, 0.77]] {
            let located = tree.locate(&p);
            assert_eq!(
                tree.order(&ds.functions, located.leaf),
                sort_functions_at(&ds.functions, &p),
                "mismatch at {p:?}"
            );
        }
    }

    #[test]
    fn build_stats_are_populated() {
        let (fs, domain) = affine_dataset();
        let builder = ITreeBuilder::new(LpSplitOracle::new());
        let (tree, stats) = builder.build_with_stats(&fs, domain);
        assert_eq!(stats.pairs_inserted, 6);
        // Every visit is decided by the filters or by the oracle; on an
        // interval the two ends decide nearly all of them.
        assert!(stats.nodes_visited > 0);
        assert_eq!(
            stats.oracle_calls + stats.visits_filtered,
            stats.nodes_visited
        );
        assert_eq!(stats.subdomains, tree.leaf_ids().len());
        assert!(stats.intersection_nodes + stats.subdomains == tree.node_count());
    }
}
