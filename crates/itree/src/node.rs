//! I-tree node and arena representation.

use vaq_funcdb::{Domain, FuncId, SubdomainConstraints};

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
    /// A leaf: a subdomain in which the functions have one fixed order.
    Subdomain {
        /// The constraint system (domain box + path half-spaces).
        constraints: SubdomainConstraints,
        /// The function ids sorted ascending by score in this subdomain.
        sorted: Vec<FuncId>,
        /// The point the list was sorted at: strictly inside the subdomain,
        /// off every boundary where two functions tie. On central input at
        /// `d = 2` it is the middle of the cell's middle direction inside the
        /// box, elsewhere the centre of the largest ball inside the cell
        /// ([`SubdomainConstraints::witness_point`]).
        witness: Vec<f64>,
    },
}

impl Node {
    /// True if this is a leaf (subdomain) node.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Subdomain { .. })
    }
}

/// The I-tree: an arena of nodes with a designated root.
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

    /// Number of subdomains.
    pub fn subdomain_count(&self) -> usize {
        self.leaves.len()
    }

    /// The sorted function list of a leaf. Panics if `id` is not a leaf.
    pub fn sorted_list(&self, id: NodeId) -> &[FuncId] {
        match self.node(id) {
            Node::Subdomain { sorted, .. } => sorted,
            Node::Intersection { .. } => panic!("sorted_list called on an intersection node"),
        }
    }

    /// The constraint system of a leaf. Panics if `id` is not a leaf.
    pub fn constraints(&self, id: NodeId) -> &SubdomainConstraints {
        match self.node(id) {
            Node::Subdomain { constraints, .. } => constraints,
            Node::Intersection { .. } => panic!("constraints called on an intersection node"),
        }
    }

    /// Iterates over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Approximate in-memory size in bytes of the structural part of the
    /// tree (used for Fig. 5c structure-size accounting).
    pub fn byte_size(&self) -> usize {
        let mut total = 0usize;
        for node in &self.nodes {
            total += match node {
                Node::Intersection { coeffs, .. } => {
                    // pair + 2 child pointers + difference coefficients
                    8 + 8 + coeffs.len() * 8 + 8
                }
                Node::Subdomain {
                    constraints,
                    sorted,
                    witness,
                } => {
                    constraints.halfspaces.len() * (constraints.domain.dims() * 8 + 16)
                        + sorted.len() * 4
                        + witness.len() * 8
                }
            };
        }
        total
    }
}
