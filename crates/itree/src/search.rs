//! Point-location search in the I-tree.

use crate::node::{ITree, Node, NodeId};

/// One step of the root-to-leaf search path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// The intersection node that was examined.
    pub node: NodeId,
    /// The child the search descended into.
    pub taken: NodeId,
    /// The child that was *not* taken (its hash becomes part of the
    /// verification object in the one-signature scheme).
    pub sibling: NodeId,
    /// True if the search went to the *above* child (`f_i − f_j ≥ 0`).
    pub went_above: bool,
}

/// Result of locating the subdomain containing a query input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocateResult {
    /// The subdomain (leaf) node containing the point.
    pub leaf: NodeId,
    /// The intersection nodes traversed, in root-to-leaf order.
    pub path: Vec<PathStep>,
    /// Number of nodes visited (path nodes plus the leaf), the server-cost
    /// metric of Fig. 6.
    pub nodes_visited: usize,
}

impl ITree {
    /// Finds the subdomain node whose region contains `x`.
    ///
    /// The search mirrors the paper's algorithm: at every intersection node
    /// evaluate the difference function at `x`; descend into *above* if it
    /// is ≥ 0 and into *below* otherwise, until a subdomain node is reached.
    pub fn locate(&self, x: &[f64]) -> LocateResult {
        let mut current = self.root;
        let mut path = Vec::new();
        let mut visited = 0usize;
        loop {
            visited += 1;
            match self.node(current) {
                Node::Subdomain { .. } => {
                    return LocateResult {
                        leaf: current,
                        path,
                        nodes_visited: visited,
                    };
                }
                Node::Intersection {
                    coeffs,
                    constant,
                    above,
                    below,
                    ..
                } => {
                    let g: f64 =
                        coeffs.iter().zip(x.iter()).map(|(c, v)| c * v).sum::<f64>() + constant;
                    let went_above = g >= 0.0;
                    let (taken, sibling) = if went_above {
                        (*above, *below)
                    } else {
                        (*below, *above)
                    };
                    path.push(PathStep {
                        node: current,
                        taken,
                        sibling,
                        went_above,
                    });
                    current = taken;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ITreeBuilder;
    use vaq_funcdb::{Domain, FuncId, LinearFunction, LpSplitOracle, SubdomainConstraints};

    fn sample_tree() -> ITree {
        let fs = vec![
            LinearFunction::new(FuncId(0), vec![1.0], 0.0),
            LinearFunction::new(FuncId(1), vec![-1.0], 1.0),
            LinearFunction::new(FuncId(2), vec![0.0], 0.3),
        ];
        ITreeBuilder::new(LpSplitOracle::new()).build(&fs, Domain::unit(1))
    }

    #[test]
    fn locate_reaches_a_leaf_with_consistent_path() {
        let tree = sample_tree();
        let res = tree.locate(&[0.42]);
        assert!(matches!(tree.node(res.leaf), Node::Subdomain { .. }));
        // Each taken child of a step must be the next step's node or the leaf.
        for (i, step) in res.path.iter().enumerate() {
            let next = res.path.get(i + 1).map(|s| s.node).unwrap_or(res.leaf);
            assert_eq!(step.taken, next);
            assert_ne!(step.taken, step.sibling);
        }
    }

    #[test]
    fn located_leaf_contains_point() {
        let tree = sample_tree();
        for i in 0..20 {
            let x = [i as f64 / 19.0];
            let res = tree.locate(&x);
            let region = SubdomainConstraints {
                domain: tree.domain().clone(),
                halfspaces: res.path.iter().map(|step| tree.halfspace(step)).collect(),
            };
            assert!(region.contains(&x), "x = {x:?}");
        }
    }

    #[test]
    fn nodes_visited_counts_path_plus_leaf() {
        let tree = sample_tree();
        let res = tree.locate(&[0.9]);
        assert_eq!(res.nodes_visited, res.path.len() + 1);
    }
}
