//! I-tree node and arena representation.

use crate::search::PathStep;
use vaq_funcdb::{sort_functions_at, Domain, FuncId, HalfSpace, LinearFunction};

/// Index of a node in the tree's arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the arena vector.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// A node of the I-tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// An internal node recording that functions `pair.0` and `pair.1`
    /// intersect inside this node's region. The *above* child covers
    /// `f_i − f_j ≥ 0`, the *below* child `f_i − f_j < 0`.
    Intersection {
        /// The pair of intersecting functions `(i, j)`.
        pair: (FuncId, FuncId),
        /// Coefficients of the difference function `f_i − f_j`.
        coeffs: Vec<f64>,
        /// Constant of the difference function.
        constant: f64,
        /// Child covering the non-negative side.
        above: NodeId,
        /// Child covering the negative side.
        below: NodeId,
    },
    /// A leaf: a subdomain in which the functions have one fixed order,
    /// [`ITree::order`]. Its region is its path's half-spaces
    /// ([`ITree::for_each_region`]).
    Subdomain {
        /// A point strictly inside the subdomain, off every boundary where
        /// two functions tie: on central input at `d = 2` the middle of the
        /// cell's middle direction inside the box, elsewhere the centre of
        /// the largest ball inside the cell.
        witness: Vec<f64>,
    },
}

/// The I-tree: an arena of nodes with a designated root. A node's children
/// are created after it, so their ids are greater than its own.
#[derive(Clone, Debug)]
pub struct ITree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    pub(crate) domain: Domain,
    pub(crate) leaves: Vec<NodeId>,
}

impl ITree {
    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The owner-declared weight domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Total number of nodes (intersection + subdomain).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Ids of all subdomain (leaf) nodes, in creation order.
    pub fn leaf_ids(&self) -> &[NodeId] {
        &self.leaves
    }

    /// The function ids of leaf `id` sorted ascending by score: `functions`
    /// (the ones the tree was built over) sorted at the leaf's witness, ties
    /// broken by id. Panics if `id` is not a leaf.
    pub fn order(&self, functions: &[LinearFunction], id: NodeId) -> Vec<FuncId> {
        let Node::Subdomain { witness } = self.node(id) else {
            panic!("order called on an intersection node");
        };
        let sorted = sort_functions_at(functions, witness);
        // Neighbours that tie at the witness without being one map put it
        // on a cell boundary, where the id tie-break may order them as
        // neither cell does. `functions[i]` has id `i`, as in a dataset.
        debug_assert!(
            sorted.windows(2).all(|pair| {
                let (f, g) = (&functions[pair[0].index()], &functions[pair[1].index()]);
                f.eval(witness) != g.eval(witness) || f.same_map(g)
            }),
            "leaf {id:?}: two maps tie at its witness {witness:?}"
        );
        sorted
    }

    /// The half-space that a step of a root-to-leaf path keeps: the side of
    /// its intersection node's hyperplane the path took.
    pub fn halfspace(&self, step: &PathStep) -> HalfSpace {
        match self.node(step.node) {
            Node::Intersection {
                pair,
                coeffs,
                constant,
                ..
            } => HalfSpace {
                coeffs: coeffs.clone(),
                constant: *constant,
                non_negative: step.went_above,
                pair: Some((pair.0 .0, pair.1 .0)),
            },
            Node::Subdomain { .. } => panic!("a path step names an intersection node"),
        }
    }

    /// A path step's half-space as [`facets`](crate::facets) reads it,
    /// without copying: the coefficients and constant of its intersection
    /// node's difference function, and whether the path kept the
    /// non-negative side.
    pub fn side(&self, step: &PathStep) -> (&[f64], f64, bool) {
        match self.node(step.node) {
            Node::Intersection {
                coeffs, constant, ..
            } => (coeffs, *constant, step.went_above),
            Node::Subdomain { .. } => panic!("a path step names an intersection node"),
        }
    }

    /// Calls `visit(leaf, halfspaces)` for every leaf with its path's
    /// half-spaces, root first: its region within the domain box. One
    /// depth-first walk, so leaves come in another order than
    /// [`leaf_ids`](Self::leaf_ids)'.
    pub fn for_each_region(&self, mut visit: impl FnMut(NodeId, &[HalfSpace])) {
        // Each entry: a node, the length of the path above it, and the
        // half-space the step into it keeps.
        let (mut path, mut stack) = (Vec::new(), vec![(self.root, 0, None)]);
        while let Some((id, depth, kept)) = stack.pop() {
            path.truncate(depth);
            path.extend(kept);
            let Node::Intersection { above, below, .. } = self.node(id) else {
                visit(id, &path);
                continue;
            };
            for (taken, sibling, went_above) in [(*below, *above, false), (*above, *below, true)] {
                let step = PathStep {
                    node: id,
                    taken,
                    sibling,
                    went_above,
                };
                stack.push((taken, path.len(), Some(self.halfspace(&step))));
            }
        }
    }

    /// Approximate in-memory size in bytes of the tree (Fig. 5c): each
    /// intersection node's pair, child pointers and difference function, and
    /// each leaf's witness. A leaf's order is counted with the FMH forest
    /// that holds it, and its region is its path's intersection nodes.
    pub fn byte_size(&self) -> usize {
        let node_bytes = |node: &Node| match node {
            Node::Intersection { coeffs, .. } => 8 + 8 + coeffs.len() * 8 + 8,
            Node::Subdomain { witness } => witness.len() * 8,
        };
        self.nodes.iter().map(node_bytes).sum()
    }
}
