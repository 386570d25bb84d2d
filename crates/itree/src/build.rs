//! I-tree construction (paper Sec. 3.1, step 1).
//!
//! Starting from a single subdomain node covering the whole domain, every
//! pairwise intersection `I_{i,j}` is inserted with a breadth-first walk:
//! wherever the intersection actually partitions a node's region, a
//! subdomain leaf is converted into an intersection node with two fresh
//! leaves, and the walk continues into both children of intersection nodes
//! whose region is split. Regions that lie entirely on one side of the
//! hyperplane are skipped, which is what keeps the tree from exploding into
//! the full `O(n^{2d})` arrangement unless the data forces it.

use crate::node::{ITree, Node, NodeId};
use std::collections::VecDeque;
use vaq_funcdb::{
    centroid, point_evidence, range_misses, sort_functions_at, Domain, HalfSpace, LinearFunction,
    PointEvidence, SplitOracle, SubdomainConstraints, EPS,
};

/// Statistics gathered while building an I-tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Number of function pairs considered: every pair that is not one
    /// affine map twice, whether or not its intersection split anything.
    pub pairs_inserted: usize,
    /// Pairs refused before any walk: the difference function's exact range
    /// over the domain box does not straddle zero.
    pub pairs_refused: usize,
    /// Visits that reached the split oracle.
    pub oracle_calls: usize,
    /// Visits decided by the points a node's region already holds, without
    /// the oracle.
    pub visits_filtered: usize,
    /// Number of nodes visited across all insertions.
    pub nodes_visited: usize,
    /// Final number of subdomain (leaf) nodes.
    pub subdomains: usize,
    /// Final number of intersection (internal) nodes.
    pub intersection_nodes: usize,
}

/// Builds I-trees using a configurable split oracle.
#[derive(Clone, Debug)]
pub struct ITreeBuilder<O: SplitOracle> {
    oracle: O,
}

/// The tree under construction and what only the construction needs. A
/// node's region never changes once the node exists, so both side tables
/// are indexed by [`NodeId`] and stay valid when a leaf becomes an
/// intersection node; they are dropped with the build.
struct Build {
    tree: ITree,
    /// [`SubdomainConstraints::extreme_points`] of every node's region
    /// (empty where the solver found none).
    extremes: Vec<Vec<f64>>,
    /// The constraint list a leaf held before it became an intersection node.
    retired: Vec<Option<SubdomainConstraints>>,
    /// The breadth-first queue, reused across pairs.
    queue: VecDeque<NodeId>,
    stats: BuildStats,
}

impl Build {
    /// Appends a leaf, solving for its extreme points and witness.
    fn push_leaf(&mut self, constraints: SubdomainConstraints) {
        let extremes = constraints.extreme_points().unwrap_or_default();
        let witness = match extremes.is_empty() {
            true => constraints.domain.center(),
            false => centroid(&extremes, constraints.dims()),
        };
        self.tree.nodes.push(Node::Subdomain {
            constraints,
            sorted: Vec::new(),
            witness,
        });
        self.extremes.push(extremes);
        self.retired.push(None);
    }

    /// The region of a node, leaf or not.
    fn region(&self, id: NodeId) -> &SubdomainConstraints {
        match (&self.tree.nodes[id.index()], &self.retired[id.index()]) {
            (Node::Subdomain { constraints, .. }, _) | (_, Some(constraints)) => constraints,
            _ => unreachable!("every intersection node was a leaf first"),
        }
    }
}

impl<O: SplitOracle> ITreeBuilder<O> {
    /// Creates a builder around the given split oracle.
    pub fn new(oracle: O) -> Self {
        ITreeBuilder { oracle }
    }

    /// Builds the I-tree for `functions` over `domain`.
    pub fn build(&self, functions: &[LinearFunction], domain: Domain) -> ITree {
        self.build_with_stats(functions, domain).0
    }

    /// Builds the I-tree and reports construction statistics.
    pub fn build_with_stats(
        &self,
        functions: &[LinearFunction],
        domain: Domain,
    ) -> (ITree, BuildStats) {
        // Root: a single subdomain covering the whole domain.
        let mut build = Build {
            tree: ITree {
                nodes: Vec::new(),
                root: NodeId(0),
                domain: domain.clone(),
                leaves: Vec::new(),
            },
            extremes: Vec::new(),
            retired: Vec::new(),
            queue: VecDeque::new(),
            stats: BuildStats::default(),
        };
        build.push_leaf(SubdomainConstraints::whole(domain));

        // Insert every pairwise intersection. Most pairs are refused, so each
        // row's pairs are tested in one tight scan for the next pair to walk,
        // over flat per-coordinate columns with `f_i`'s values hoisted:
        // `same_map`'s predicate and `Domain::linear_range`'s sums, in the
        // same order; `difference_into` runs only for the pairs walked.
        let tolerance = self.oracle.tolerance();
        let dims = build.tree.domain.dims();
        assert!(
            functions.iter().all(|f| f.dims() == dims),
            "dimension mismatch"
        );
        let columns: Vec<Vec<f64>> = (0..dims)
            .map(|k| functions.iter().map(|f| f.coeffs[k]).collect())
            .collect();
        let constants: Vec<f64> = functions.iter().map(|f| f.constant).collect();
        let domain = &build.tree.domain;
        let bounds: Vec<(f64, f64)> = domain
            .lower
            .iter()
            .copied()
            .zip(domain.upper.iter().copied())
            .collect();
        let (mut fi_coeffs, mut coeffs) = (vec![0.0; dims], Vec::new());
        let (mut inserted, mut refused) = (0, 0);
        for (i, fi) in functions.iter().enumerate() {
            for (c, column) in fi_coeffs.iter_mut().zip(&columns) {
                *c = column[i];
            }
            let fi_constant = constants[i];
            let mut walked = |&j: &usize| {
                let constant = fi_constant - constants[j];
                let mut same = constant.abs() < EPS;
                let (mut min, mut max) = (0.0, 0.0);
                for ((a, column), (l, u)) in fi_coeffs.iter().zip(&columns).zip(&bounds) {
                    let c = a - column[j];
                    same &= c.abs() < EPS;
                    min += (c * l).min(c * u);
                    max += (c * l).max(c * u);
                }
                // Identical affine maps never produce a transversal
                // intersection; their order is resolved by the id tie-break
                // in the sort.
                if same {
                    return false;
                }
                inserted += 1;
                // A hyperplane that stays outside the domain box splits no
                // region inside it.
                let misses = range_misses(min + constant, max + constant, tolerance);
                refused += usize::from(misses);
                !misses
            };
            let mut next = i + 1;
            while let Some(j) = (next..functions.len()).find(&mut walked) {
                let fj = &functions[j];
                let constant = fi.difference_into(fj, &mut coeffs);
                self.insert_intersection(&mut build, fi, fj, &coeffs, constant);
                next = j + 1;
            }
        }
        build.stats.pairs_inserted = inserted;
        build.stats.pairs_refused = refused;

        // Attach sorted function lists to every leaf.
        let (mut tree, mut stats) = (build.tree, build.stats);
        for (index, node) in tree.nodes.iter_mut().enumerate() {
            if let Node::Subdomain {
                witness, sorted, ..
            } = node
            {
                *sorted = sort_functions_at(functions, witness);
                tree.leaves.push(NodeId(index as u32));
            }
        }

        stats.subdomains = tree.leaves.len();
        stats.intersection_nodes = tree.node_count() - tree.leaves.len();
        (tree, stats)
    }

    /// Inserts one intersection hyperplane into the tree.
    fn insert_intersection(
        &self,
        build: &mut Build,
        fi: &LinearFunction,
        fj: &LinearFunction,
        coeffs: &[f64],
        constant: f64,
    ) {
        let tolerance = self.oracle.tolerance();
        build.queue.clear();
        build.queue.push_back(build.tree.root);

        while let Some(id) = build.queue.pop_front() {
            build.stats.nodes_visited += 1;
            // Ask the points the region already holds first, the oracle last
            // and then only about the side no point has shown.
            let evidence = point_evidence(&build.extremes[id.index()], coeffs, constant, tolerance);
            let splits = match evidence {
                PointEvidence::Splits | PointEvidence::Misses => {
                    build.stats.visits_filtered += 1;
                    evidence == PointEvidence::Splits
                }
                PointEvidence::Open(seen) => {
                    build.stats.oracle_calls += 1;
                    (self.oracle).splits_given(build.region(id), coeffs, constant, seen)
                }
            };
            if !splits {
                continue;
            }
            if let Node::Intersection { above, below, .. } = build.tree.nodes[id.index()] {
                // Descend into both children.
                build.queue.extend([above, below]);
                continue;
            }
            // Convert this leaf into an intersection node with two new
            // subdomain children.
            let above = NodeId(build.tree.nodes.len() as u32);
            let converted = Node::Intersection {
                pair: (fi.id, fj.id),
                coeffs: coeffs.to_vec(),
                constant,
                above,
                below: NodeId(above.0 + 1),
            };
            let leaf = std::mem::replace(&mut build.tree.nodes[id.index()], converted);
            let Node::Subdomain { constraints, .. } = leaf else {
                unreachable!("intersection nodes were handled above");
            };
            build.push_leaf(constraints.with(HalfSpace::above(fi, fj)));
            build.push_leaf(constraints.with(HalfSpace::below(fi, fj)));
            build.retired[id.index()] = Some(constraints);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use vaq_funcdb::{FuncId, LpSplitOracle, SplitDecision};

    /// The walk as it was before the filters, kept as their reference: every
    /// pair is walked from the root, every visit goes to
    /// [`LpSplitOracle::classify`] with a region rebuilt on the way down.
    fn build_reference(functions: &[LinearFunction], domain: Domain) -> ITree {
        let oracle = LpSplitOracle::new();
        let whole = SubdomainConstraints::whole(domain.clone());
        let witness = whole.witness_point().unwrap_or_else(|| domain.center());
        let mut nodes = vec![Node::Subdomain {
            constraints: whole.clone(),
            sorted: Vec::new(),
            witness,
        }];
        for (i, fi) in functions.iter().enumerate() {
            for fj in &functions[i + 1..] {
                if fi.same_map(fj) {
                    continue;
                }
                let (coeffs, constant) = fi.difference(fj);
                let mut queue = VecDeque::from([(NodeId(0), whole.clone())]);
                while let Some((id, region)) = queue.pop_front() {
                    if oracle.classify(&region, &coeffs, constant) != SplitDecision::Splits {
                        continue;
                    }
                    match nodes[id.index()].clone() {
                        Node::Intersection {
                            coeffs: node_coeffs,
                            constant: node_constant,
                            above,
                            below,
                            pair,
                        } => {
                            let hs_above = HalfSpace {
                                coeffs: node_coeffs,
                                constant: node_constant,
                                non_negative: true,
                                pair: Some((pair.0 .0, pair.1 .0)),
                            };
                            let hs_below = hs_above.complement();
                            queue.push_back((above, region.with(hs_above)));
                            queue.push_back((below, region.with(hs_below)));
                        }
                        Node::Subdomain { constraints, .. } => {
                            let above = NodeId(nodes.len() as u32);
                            for hs in [HalfSpace::above(fi, fj), HalfSpace::below(fi, fj)] {
                                let constraints = constraints.with(hs);
                                let witness = constraints
                                    .witness_point()
                                    .unwrap_or_else(|| constraints.domain.center());
                                nodes.push(Node::Subdomain {
                                    constraints,
                                    sorted: Vec::new(),
                                    witness,
                                });
                            }
                            nodes[id.index()] = Node::Intersection {
                                pair: (fi.id, fj.id),
                                coeffs: coeffs.clone(),
                                constant,
                                above,
                                below: NodeId(above.0 + 1),
                            };
                        }
                    }
                }
            }
        }
        let mut leaves = Vec::new();
        for (index, node) in nodes.iter_mut().enumerate() {
            if let Node::Subdomain {
                witness, sorted, ..
            } = node
            {
                *sorted = sort_functions_at(functions, witness);
                leaves.push(NodeId(index as u32));
            }
        }
        ITree {
            nodes,
            root: NodeId(0),
            domain,
            leaves,
        }
    }

    /// A seeded arrangement made to be awkward: coefficients and constants
    /// on a coarse grid (so hyperplanes coincide, run parallel, and cross on
    /// box corners and faces), outright duplicates, and a box that is not
    /// always the unit cube.
    fn arrangement(seed: u64) -> (Vec<LinearFunction>, Domain) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = 1 + (seed % 3) as usize;
        let n: usize = rng.gen_range(2..=[24, 10, 6][dims - 1]);
        let grid = seed.is_multiple_of(2);
        let value = |rng: &mut StdRng, lo: f64, hi: f64| match grid {
            true => lo + (hi - lo) * rng.gen_range(0..=4u32) as f64 / 4.0,
            false => rng.gen_range(lo..hi),
        };
        let mut functions: Vec<LinearFunction> = Vec::new();
        for id in 0..n {
            let twin: Option<LinearFunction> = functions.get(rng.gen_range(0..n)).cloned();
            let (coeffs, constant) = match (rng.gen_range(0..8u32), twin) {
                // A duplicate, and a parallel copy.
                (0, Some(twin)) => (twin.coeffs, twin.constant),
                (1, Some(twin)) => (twin.coeffs, value(&mut rng, -0.5, 0.5)),
                // Through the origin, as every template-derived function is.
                (2..=4, _) => ((0..dims).map(|_| value(&mut rng, 0.0, 1.0)).collect(), 0.0),
                _ => (
                    (0..dims).map(|_| value(&mut rng, -1.0, 1.0)).collect(),
                    value(&mut rng, -0.5, 0.5),
                ),
            };
            functions.push(LinearFunction::new(FuncId(id as u32), coeffs, constant));
        }
        let domain = match seed % 5 {
            0 => Domain::symmetric(dims, 1.0),
            1 => Domain::new(vec![0.25; dims], vec![1.0; dims]),
            _ => Domain::unit(dims),
        };
        (functions, domain)
    }

    #[test]
    fn filtered_build_matches_the_reference_walk_node_for_node() {
        let mut subdomains = 0;
        let mut filtered = BuildStats::default();
        for seed in 0..240 {
            let (functions, domain) = arrangement(seed);
            let (tree, stats) = ITreeBuilder::new(LpSplitOracle::new())
                .build_with_stats(&functions, domain.clone());
            let reference = build_reference(&functions, domain);
            assert_eq!(tree.node_count(), reference.node_count(), "seed {seed}");
            for (id, node) in tree.iter() {
                assert_eq!(node, reference.node(id), "seed {seed}, node {id:?}");
            }
            assert_eq!(tree.leaf_ids(), reference.leaf_ids(), "seed {seed}");
            subdomains += stats.subdomains;
            filtered.pairs_refused += stats.pairs_refused;
            filtered.visits_filtered += stats.visits_filtered;
            filtered.oracle_calls += stats.oracle_calls;
        }
        // The suite is only worth its name if every path was taken.
        assert!(subdomains > 5_000, "{subdomains} subdomains");
        assert!(filtered.pairs_refused > 1_000, "{filtered:?}");
        assert!(filtered.visits_filtered > 10_000, "{filtered:?}");
        assert!(filtered.oracle_calls > 1_000, "{filtered:?}");
    }

    /// The exact oracle, recording which question each call asked.
    struct Spy(LpSplitOracle, RefCell<Vec<&'static str>>);

    impl SplitOracle for Spy {
        fn classify(&self, region: &SubdomainConstraints, c: &[f64], k: f64) -> SplitDecision {
            self.0.classify(region, c, k)
        }

        fn tolerance(&self) -> f64 {
            self.0.tolerance()
        }

        fn splits_given(
            &self,
            region: &SubdomainConstraints,
            c: &[f64],
            k: f64,
            seen_above: Option<bool>,
        ) -> bool {
            self.1.borrow_mut().push(match seen_above {
                Some(true) => "below only",
                Some(false) => "above only",
                None => "both sides",
            });
            self.0.splits_given(region, c, k, seen_above)
        }
    }

    /// Builds over the unit square and returns the stats, the questions the
    /// oracle was asked and the subdomain count of the reference walk.
    fn spied(functions: &[(Vec<f64>, f64)]) -> (BuildStats, Vec<&'static str>, usize) {
        let functions: Vec<LinearFunction> = functions
            .iter()
            .enumerate()
            .map(|(id, (coeffs, c))| LinearFunction::new(FuncId(id as u32), coeffs.clone(), *c))
            .collect();
        let spy = ITreeBuilder::new(Spy(LpSplitOracle::new(), RefCell::default()));
        let (tree, stats) = spy.build_with_stats(&functions, Domain::unit(2));
        let reference = build_reference(&functions, Domain::unit(2));
        assert_eq!(tree.nodes, reference.nodes);
        (
            stats,
            spy.oracle.1.into_inner(),
            reference.subdomain_count(),
        )
    }

    #[test]
    fn points_on_both_sides_split_a_region_without_the_oracle() {
        // x0 = 0.5 cuts the square; the square's own extreme points have
        // x0 = 0 and x0 = 1 among them.
        let (stats, asked, subdomains) = spied(&[(vec![1.0, 0.0], 0.0), (vec![0.0, 0.0], 0.5)]);
        assert_eq!((stats.visits_filtered, stats.oracle_calls), (1, 0));
        assert_eq!((asked, subdomains, stats.subdomains), (vec![], 2, 2));
    }

    #[test]
    fn a_hyperplane_outside_the_box_is_refused_and_outside_a_bounding_box_filtered() {
        // f1 − f2 is the constant 0.25: refused before any walk. x0 = 0.25
        // splits the square and its left half [0, 0.5] × [0, 1], and misses
        // the bounding box of the right half.
        let half = (vec![0.0, 0.0], 0.5);
        let quarter = (vec![0.0, 0.0], 0.25);
        let (stats, asked, subdomains) = spied(&[(vec![1.0, 0.0], 0.0), half, quarter]);
        assert_eq!((stats.pairs_inserted, stats.pairs_refused), (3, 1));
        assert_eq!((stats.nodes_visited, stats.visits_filtered), (4, 4));
        assert_eq!((asked, subdomains, stats.subdomains), (vec![], 3, 3));
    }

    #[test]
    fn an_undecided_visit_costs_one_solve_on_the_side_no_point_has_shown() {
        // The diagonal cuts the square into two triangles whose bounding box
        // is still the square. x1 = x0 + 0.5 crosses that box but not the
        // lower triangle: its corners are all below, the box straddles, and
        // the one question left is whether anything lies above.
        let (stats, asked, subdomains) = spied(&[
            (vec![1.0, 0.0], 0.0),
            (vec![0.0, 1.0], 0.0),
            (vec![2.0, -1.0], 0.5),
        ]);
        assert!(!asked.is_empty() && asked.iter().all(|side| *side != "both sides"));
        assert!(asked.contains(&"below only"), "{asked:?}");
        assert_eq!(stats.oracle_calls, asked.len());
        assert_eq!(
            stats.oracle_calls + stats.visits_filtered,
            stats.nodes_visited
        );
        assert_eq!((subdomains, stats.subdomains), (4, 4));
    }

    #[test]
    fn a_range_inside_the_guard_band_falls_through_to_the_oracle() {
        // x0 + x1 − 2 + c touches the far corner from below and peaks at c.
        // Clear of the tolerance by more than the guard band it is refused;
        // inside the band the filters stand aside and the oracle decides.
        let tolerance = LpSplitOracle::new().tolerance;
        let corner = |c: f64| [(vec![1.0, 1.0], c), (vec![0.0, 0.0], 2.0)];
        let (stats, asked, subdomains) = spied(&corner(tolerance - 2e-9));
        assert_eq!((stats.pairs_refused, stats.nodes_visited), (1, 0));
        assert_eq!((asked, subdomains), (vec![], 1));
        for (inside, cells) in [(tolerance - 0.5e-9, 1), (tolerance + 0.5e-9, 2)] {
            let (stats, asked, subdomains) = spied(&corner(inside));
            assert_eq!((stats.pairs_refused, stats.visits_filtered), (0, 0));
            assert_eq!(asked, vec!["above only"]);
            assert_eq!((subdomains, stats.subdomains), (cells, cells));
        }
    }
}
