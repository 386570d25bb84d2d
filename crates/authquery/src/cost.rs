//! Cost accounting structures.
//!
//! The paper's evaluation reports *counts* (nodes traversed, hash
//! operations, signatures) as well as wall-clock times. The library threads
//! explicit counters through the owner, server and client code paths so the
//! experiment harness can reproduce the count-based figures exactly and
//! measure the time-based ones around the same calls.

/// Statistics about building the authenticated structure (data-owner
/// overhead, Fig. 5).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OwnerStats {
    /// Number of records in the dataset.
    pub records: usize,
    /// Number of subdomains (I-tree leaves / FMH-trees).
    pub subdomains: usize,
    /// Total nodes in the IMH-tree (intersection + subdomain nodes).
    pub imh_nodes: usize,
    /// Distinct nodes across all FMH-trees (a shared subtree counts once).
    pub fmh_nodes: usize,
    /// Number of one-way hash operations performed during construction.
    pub hash_ops: usize,
    /// Number of digital signatures created (1 for one-signature, one per
    /// subdomain for multi-signature, |pairs|·|runs| for the mesh baseline).
    pub signatures: usize,
    /// Approximate size of the structure in bytes (Fig. 5c), FMH nodes at
    /// their in-memory size (a digest and two child ids).
    pub structure_bytes: usize,
}

/// Per-query server-side cost (Fig. 6).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerCost {
    /// IMH-tree nodes visited while locating the subdomain.
    pub imh_nodes_visited: usize,
    /// FMH-tree nodes touched while extracting the result and building the
    /// range proof.
    pub fmh_nodes_visited: usize,
    /// Extra nodes collected into the verification object (path siblings in
    /// the one-signature scheme).
    pub vo_nodes_collected: usize,
    /// Number of records in the query result.
    pub result_len: usize,
}

impl ServerCost {
    /// Total traversal cost — the metric plotted in Fig. 6.
    pub fn total_nodes(&self) -> usize {
        self.imh_nodes_visited + self.fmh_nodes_visited + self.vo_nodes_collected
    }
}

/// Per-query client-side verification cost (Fig. 7).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientCost {
    /// One-way hash operations performed (leaf digests, Merkle recombination
    /// and IMH path recomputation).
    pub hash_ops: usize,
    /// Signature verifications performed (always 1 for the IFMH schemes,
    /// `|q| + 1` for the signature-mesh baseline).
    pub signature_verifications: usize,
}

impl ClientCost {
    /// Merges another cost record into this one.
    pub fn add(&mut self, other: &ClientCost) {
        self.hash_ops += other.hash_ops;
        self.signature_verifications += other.signature_verifications;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_cost_total() {
        let c = ServerCost {
            imh_nodes_visited: 5,
            fmh_nodes_visited: 7,
            vo_nodes_collected: 3,
            result_len: 10,
        };
        assert_eq!(c.total_nodes(), 15);
    }

    #[test]
    fn client_cost_add() {
        let mut a = ClientCost {
            hash_ops: 3,
            signature_verifications: 1,
        };
        a.add(&ClientCost {
            hash_ops: 2,
            signature_verifications: 4,
        });
        assert_eq!(a.hash_ops, 5);
        assert_eq!(a.signature_verifications, 5);
    }
}
