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
//!
//! Every function a [`FunctionTemplate`](vaq_funcdb::FunctionTemplate)
//! builds is `a·x` with no constant, so over a box in the non-negative
//! orthant every hyperplane `f_i − f_j = 0` passes through the origin and
//! every region is the box's part of a cone: the input is *central*. There
//! the order at `x` depends only on `x`'s direction, and the build needs no
//! LP. At `d = 1` there is one direction, so no pair splits anything and the
//! tree is one leaf. At `d = 2` a region is an interval of directions, whose
//! cone meets the box in a polygon with at most six vertices. Every other
//! input (constants, boxes around the origin, `d ≥ 3`) reads its regions
//! through the LP, asking the [`LpSplitOracle`] only what the points a
//! region already holds leave open.

use crate::node::{ITree, Node, NodeId};
use std::collections::VecDeque;
use vaq_funcdb::{
    point_evidence, range_misses, Domain, HalfSpace, LinearFunction, LpSplitOracle, PointEvidence,
    SubdomainConstraints, EPS,
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
    /// Visits that reached the split oracle (none on central input at
    /// `d ≤ 2`).
    pub oracle_calls: usize,
    /// Extrema the oracle solved for those visits: one for a visit whose
    /// region's points had already shown a side, two (the maximum and the
    /// minimum) otherwise. Each is an LP at `d ≥ 2`.
    pub oracle_solves: usize,
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

/// Builds I-trees. A visit that no cheaper test settles goes to an exact LP
/// split oracle.
#[derive(Clone, Debug)]
pub struct ITreeBuilder {
    oracle: LpSplitOracle,
}

/// How a build reads its regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cells {
    /// From their constraint lists: extreme points and undecided visits are
    /// LP solves.
    Lp,
    /// Central input at `d = 1`: one direction, so the whole box is one cell.
    Point,
    /// Central input at `d = 2`: every region is an interval of directions.
    Directions,
}

impl Cells {
    /// Decides from the input alone which reading is exact for it.
    fn of(functions: &[LinearFunction], domain: &Domain) -> Cells {
        let central = functions
            .iter()
            .all(|f| through_origin(&f.coeffs, f.constant))
            && in_the_orthant(domain);
        match (central, domain.dims()) {
            (true, 1) => Cells::Point,
            (true, 2) => Cells::Directions,
            _ => Cells::Lp,
        }
    }
}

/// The tree under construction and what only the construction needs. A
/// node's region never changes once the node exists, so the side tables
/// are indexed by [`NodeId`] and stay valid when a leaf becomes an
/// intersection node; they are dropped with the build.
struct Build {
    tree: ITree,
    cells: Cells,
    /// Points of every node's region whose bounding box is the region's:
    /// [`SubdomainConstraints::extreme_points`] on the LP path (empty where
    /// the solver found none), the exact vertices on the interval path.
    extremes: Vec<Vec<f64>>,
    /// On the interval path, every node's interval of directions `[t0, t1]`
    /// (`x ∝ (t, 1 − t)`); empty otherwise.
    directions: Vec<(f64, f64)>,
    /// On the LP path, every node's region; empty otherwise.
    regions: Vec<SubdomainConstraints>,
    /// The breadth-first queue, reused across pairs.
    queue: VecDeque<NodeId>,
    stats: BuildStats,
}

impl Build {
    /// Appends a leaf over an interval of directions, and its vertices.
    fn push_directions(&mut self, directions: (f64, f64)) {
        self.directions.push(directions);
        self.push_leaf(cone_vertices(directions, &self.tree.domain));
    }

    /// Appends a leaf over `region`, and the extreme points the LP finds.
    fn push_region(&mut self, region: SubdomainConstraints) {
        self.push_leaf(region.extreme_points().unwrap_or_default());
        self.regions.push(region);
    }

    fn push_leaf(&mut self, extremes: Vec<f64>) {
        self.tree.nodes.push(Node::Subdomain {
            witness: Vec::new(),
        });
        self.extremes.push(extremes);
    }
}

impl ITreeBuilder {
    /// Creates a builder around the given split oracle, whose tolerance
    /// decides what counts as touching a hyperplane.
    pub fn new(oracle: LpSplitOracle) -> Self {
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
        let cells = Cells::of(functions, &domain);
        self.build_as(functions, domain, cells)
    }

    /// [`build_with_stats`](Self::build_with_stats) reading the regions as
    /// `cells` says.
    fn build_as(
        &self,
        functions: &[LinearFunction],
        domain: Domain,
        cells: Cells,
    ) -> (ITree, BuildStats) {
        let dims = domain.dims();
        assert!(
            functions.iter().all(|f| f.dims() == dims),
            "dimension mismatch"
        );
        // Root: a single subdomain covering the whole domain.
        let mut build = Build {
            tree: ITree {
                nodes: Vec::new(),
                root: NodeId(0),
                domain: domain.clone(),
                leaves: Vec::new(),
            },
            cells,
            extremes: Vec::new(),
            directions: Vec::new(),
            regions: Vec::new(),
            queue: VecDeque::new(),
            stats: BuildStats::default(),
        };
        match cells {
            Cells::Directions => build.push_directions(box_directions(&domain)),
            Cells::Lp => build.push_region(SubdomainConstraints::whole(domain)),
            Cells::Point => build.push_leaf(Vec::new()),
        }
        match cells {
            Cells::Point => self.count_pairs_on_a_line(functions, &mut build),
            _ => self.insert_pairs(functions, &mut build),
        }

        // Attach a witness to every leaf.
        let (mut tree, mut stats) = (build.tree, build.stats);
        for (index, node) in tree.nodes.iter_mut().enumerate() {
            if let Node::Subdomain { witness } = node {
                *witness = match cells {
                    Cells::Directions => direction_witness(build.directions[index], &tree.domain),
                    Cells::Lp => (build.regions[index].witness_point())
                        .unwrap_or_else(|| tree.domain.center()),
                    // One direction: the whole box is the one cell.
                    Cells::Point => tree.domain.center(),
                };
                tree.leaves.push(NodeId(index as u32));
            }
        }

        stats.subdomains = tree.leaves.len();
        stats.intersection_nodes = tree.node_count() - tree.leaves.len();
        (tree, stats)
    }

    /// Inserts every pairwise intersection. Most pairs are refused, so each
    /// row's pairs are tested in one tight scan for the next pair to walk,
    /// over flat per-coordinate columns with `f_i`'s values hoisted:
    /// `same_map`'s predicate and `Domain::linear_range`'s sums, in the same
    /// order; `difference_into` runs only for the pairs walked.
    fn insert_pairs(&self, functions: &[LinearFunction], build: &mut Build) {
        let tolerance = self.oracle.tolerance;
        let dims = build.tree.domain.dims();
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
                self.insert_intersection(build, fi, fj, &coeffs, constant);
                next = j + 1;
            }
        }
        build.stats.pairs_inserted = inserted;
        build.stats.pairs_refused = refused;
    }

    /// The pair counts [`insert_pairs`](Self::insert_pairs) would report on
    /// central input at `d = 1`, where it would split nothing: `f_i − f_j` is
    /// `c·x` over `[l, u]` with `l ≥ 0`, one sign throughout. With
    /// `gap = |c|`, a pair is one map if `gap < EPS`. Otherwise its range
    /// misses the band if `gap·l ≥ EPS − tolerance`, which always holds once
    /// the tolerance reaches `EPS`, or if `gap·u ≤ tolerance − EPS`, which
    /// then never does. Over the sorted slopes, the gaps of one-map pairs and
    /// of walked pairs are both closed downwards, so two pointers count them.
    fn count_pairs_on_a_line(&self, functions: &[LinearFunction], build: &mut Build) {
        let tolerance = self.oracle.tolerance;
        let mut slopes: Vec<f64> = functions.iter().map(|f| f.coeffs[0]).collect();
        slopes.sort_by(f64::total_cmp);
        let n = slopes.len();
        let same = pairs_with_gap(&slopes, |gap| gap < EPS);
        let inserted = n * n.saturating_sub(1) / 2 - same;
        let lower = build.tree.domain.lower[0];
        build.stats.pairs_inserted = inserted;
        build.stats.pairs_refused = match tolerance >= EPS {
            true => inserted,
            false => {
                let walked = |gap: f64| gap < EPS || gap * lower < EPS - tolerance;
                inserted - (pairs_with_gap(&slopes, walked) - same)
            }
        };
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
        let tolerance = self.oracle.tolerance;
        build.queue.clear();
        build.queue.push_back(build.tree.root);

        while let Some(id) = build.queue.pop_front() {
            build.stats.nodes_visited += 1;
            let points = &build.extremes[id.index()];
            let splits = match build.cells {
                // The region's vertices hold the form's extremes over it:
                // they decide every visit, as the LP would.
                Cells::Directions => {
                    build.stats.visits_filtered += 1;
                    let (min, max) = range_at(points, coeffs);
                    max > tolerance && min < -tolerance
                }
                // Ask the points the region already holds first, the oracle
                // last and then only about the side no point has shown.
                _ => match point_evidence(points, coeffs, constant, tolerance) {
                    evidence @ (PointEvidence::Splits | PointEvidence::Misses) => {
                        build.stats.visits_filtered += 1;
                        evidence == PointEvidence::Splits
                    }
                    PointEvidence::Open(seen) => {
                        build.stats.oracle_calls += 1;
                        build.stats.oracle_solves += 2 - usize::from(seen.is_some());
                        let region = &build.regions[id.index()];
                        (self.oracle).splits_given(region, coeffs, constant, seen)
                    }
                },
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
            build.tree.nodes[id.index()] = converted;
            if build.cells == Cells::Directions {
                let (above, below) = split_directions(build.directions[id.index()], coeffs);
                build.push_directions(above);
                build.push_directions(below);
            } else {
                let region = &build.regions[id.index()];
                let sides = [HalfSpace::above(fi, fj), HalfSpace::below(fi, fj)];
                for side in sides.map(|hs| region.with(hs)) {
                    build.push_region(side);
                }
            }
        }
    }
}

/// The number of pairs `i < j` of the ascending `sorted` whose gap
/// `sorted[j] − sorted[i]` satisfies `near`, a predicate that holds for
/// every gap smaller than one it holds for.
fn pairs_with_gap(sorted: &[f64], near: impl Fn(f64) -> bool) -> usize {
    let (mut end, mut count) = (0, 0);
    for (i, a) in sorted.iter().enumerate() {
        end = end.max(i + 1);
        while end < sorted.len() && near(sorted[end] - a) {
            end += 1;
        }
        count += end - i - 1;
    }
    count
}

/// The least and greatest value of `coeffs·x` over `points` (laid end to
/// end).
fn range_at(points: &[f64], coeffs: &[f64]) -> (f64, f64) {
    let values = points.chunks_exact(coeffs.len());
    let values = values.map(|x| coeffs.iter().zip(x).map(|(c, v)| c * v).sum::<f64>());
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

/// Where the ray along direction `t` (`x = s·(t, 1 − t)`, `s ≥ 0`) enters
/// and leaves the box, as `(s_in, s_out)`.
fn ray_span(t: f64, domain: &Domain) -> (f64, f64) {
    let ray = [t, 1.0 - t];
    let (mut enter, mut leave) = (0.0, f64::INFINITY);
    for ((v, l), u) in ray.iter().zip(&domain.lower).zip(&domain.upper) {
        if *v > 0.0 {
            enter = f64::max(enter, l / v);
            leave = f64::min(leave, u / v);
        }
    }
    (enter, leave)
}

/// The vertices of the cone over `directions` cut by the box, two
/// coordinates each, laid end to end: where its two boundary rays enter and
/// leave the box, and the box corners between them. Their hull is the
/// region, so they hold the extremes of every linear form over it.
fn cone_vertices((t0, t1): (f64, f64), domain: &Domain) -> Vec<f64> {
    let mut points = Vec::with_capacity(16);
    for t in [t0, t1] {
        let (enter, leave) = ray_span(t, domain);
        points.extend([enter * t, enter * (1.0 - t), leave * t, leave * (1.0 - t)]);
    }
    let (l, u) = (&domain.lower, &domain.upper);
    for corner in [[l[0], l[1]], [u[0], l[1]], [l[0], u[1]], [u[0], u[1]]] {
        // The origin has no direction (NaN): it enters every ray.
        let t = corner[0] / (corner[0] + corner[1]);
        if t0 < t && t < t1 {
            points.extend(corner);
        }
    }
    points
}

/// True if `coeffs·x + constant` is finite and passes through the origin.
fn through_origin(coeffs: &[f64], constant: f64) -> bool {
    constant == 0.0 && coeffs.iter().all(|a| a.is_finite())
}

/// True if the box lies in the non-negative orthant and reaches past the
/// origin on every axis, so that every point but the origin has a direction.
fn in_the_orthant(domain: &Domain) -> bool {
    domain.lower.iter().all(|&l| l >= 0.0) && domain.upper.iter().all(|&u| u > 0.0)
}

/// The directions of a 2-d box in the non-negative quadrant: from its
/// corner (l0, u1) to (u0, l1).
fn box_directions(domain: &Domain) -> (f64, f64) {
    let (l, u) = (&domain.lower, &domain.upper);
    (l[0] / (l[0] + u[1]), u[0] / (u[0] + l[1]))
}

/// The direction at which `coeffs·x = 0` crosses the quadrant:
/// `coeffs·(t, 1 − t)` is `a1 + (a0 − a1)·t`, zero at `t* = a1 / (a1 − a0)`.
/// The non-negative side keeps the directions above `t*` if `a0 > a1`,
/// those below it otherwise.
fn cut(coeffs: &[f64]) -> f64 {
    coeffs[1] / (coeffs[1] - coeffs[0])
}

/// The intervals of directions on the non-negative (`above`) and negative
/// (`below`) side of `coeffs·x = 0` within `(t0, t1)`, which it crosses at
/// its [`cut`].
fn split_directions((t0, t1): (f64, f64), coeffs: &[f64]) -> ((f64, f64), (f64, f64)) {
    let cut = cut(coeffs).clamp(t0, t1);
    match coeffs[0] > coeffs[1] {
        true => ((cut, t1), (t0, cut)),
        false => ((t0, cut), (cut, t1)),
    }
}

/// The facets of the cell that a root-to-leaf path cuts out of `domain`:
/// the positions, in path order, of the path's half-spaces that bound it.
/// `path` yields each half-space, root first, as its form's coefficients
/// and constant and whether it keeps the form's non-negative side
/// ([`ITree::side`], [`HalfSpace::side`]). In multi-signature mode the
/// owner signs, and the server ships, these half-spaces in place of the
/// whole path.
///
/// Where `domain` is a 2-d box in the non-negative quadrant and every
/// half-space `a·x ⋛ 0` passes through the origin, each keeps the
/// directions `t` (`x ∝ (t, 1 − t)`) on one side of its cut
/// `t* = a1 / (a1 − a0)`, so the cell is the interval of directions between
/// the greatest cut that bounds it from below and the least that bounds it
/// from above. Those two half-spaces (on a tie, the later one on the path)
/// are its facets, and an end at the box's edge needs none: inside the box
/// they cut out exactly what the whole path does, since every other
/// half-space on it contains that interval. On every other path (the LP
/// path, `d ≠ 2`, a half-space off the origin) every half-space is a facet.
pub fn facets<'a>(
    domain: &Domain,
    path: impl IntoIterator<Item = (&'a [f64], f64, bool)>,
) -> Vec<usize> {
    let mut central = domain.dims() == 2 && in_the_orthant(domain);
    let (first, last) = match central {
        true => box_directions(domain),
        false => (0.0, 0.0),
    };
    // The bounding half-space on each side, as (position, cut). A cut that
    // is NaN (a zero form) bounds nothing and is never taken.
    let (mut len, mut lower, mut upper) = (0, None, None);
    for (at, (coeffs, constant, non_negative)) in path.into_iter().enumerate() {
        len = at + 1;
        central &= coeffs.len() == 2 && through_origin(coeffs, constant);
        if !central {
            continue;
        }
        let t = cut(coeffs);
        if (coeffs[0] > coeffs[1]) == non_negative {
            if lower.map_or(t > first, |(_, bound)| t >= bound) {
                lower = Some((at, t));
            }
        } else if upper.map_or(t < last, |(_, bound)| t <= bound) {
            upper = Some((at, t));
        }
    }
    if !central {
        return (0..len).collect();
    }
    let mut kept: Vec<usize> = lower.into_iter().chain(upper).map(|(at, _)| at).collect();
    kept.sort_unstable();
    kept
}

/// A point strictly inside the cone over `directions` cut by the box: the
/// middle of the middle direction's chord.
fn direction_witness((t0, t1): (f64, f64), domain: &Domain) -> Vec<f64> {
    let t = (t0 + t1) / 2.0;
    let (enter, leave) = ray_span(t, domain);
    let s = (enter + leave) / 2.0;
    vec![s * t, s * (1.0 - t)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vaq_funcdb::{sort_functions_at, FuncId, SplitDecision};

    /// The walk as it was before the filters, kept as their reference: every
    /// pair is walked from the root, every visit goes to
    /// [`LpSplitOracle::classify`] with a region rebuilt on the way down.
    /// Beside the tree, every node's region as the walk built it, and every
    /// leaf's list sorted at its witness (empty at intersection nodes).
    struct Reference {
        tree: ITree,
        regions: Vec<SubdomainConstraints>,
        sorted: Vec<Vec<FuncId>>,
    }

    fn build_reference(functions: &[LinearFunction], domain: Domain) -> Reference {
        let oracle = LpSplitOracle::new();
        let whole = SubdomainConstraints::whole(domain.clone());
        let witness = whole.witness_point().unwrap_or_else(|| domain.center());
        let mut nodes = vec![Node::Subdomain { witness }];
        let mut regions = vec![whole.clone()];
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
                        Node::Subdomain { .. } => {
                            let above = NodeId(nodes.len() as u32);
                            for hs in [HalfSpace::above(fi, fj), HalfSpace::below(fi, fj)] {
                                let constraints = regions[id.index()].with(hs);
                                let witness = constraints
                                    .witness_point()
                                    .unwrap_or_else(|| constraints.domain.center());
                                nodes.push(Node::Subdomain { witness });
                                regions.push(constraints);
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
        let (mut leaves, mut sorted) = (Vec::new(), Vec::new());
        for (index, node) in nodes.iter().enumerate() {
            sorted.push(match node {
                Node::Subdomain { witness } => {
                    leaves.push(NodeId(index as u32));
                    sort_functions_at(functions, witness)
                }
                Node::Intersection { .. } => Vec::new(),
            });
        }
        let tree = ITree {
            nodes,
            root: NodeId(0),
            domain,
            leaves,
        };
        Reference {
            tree,
            regions,
            sorted,
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

    /// Every leaf's region as [`ITree::for_each_region`] reads it from the
    /// path, indexed by node id (`None` at intersection nodes).
    fn regions_of(tree: &ITree) -> Vec<Option<SubdomainConstraints>> {
        let mut regions = vec![None; tree.node_count()];
        tree.for_each_region(|leaf, halfspaces| {
            let region = SubdomainConstraints {
                domain: tree.domain().clone(),
                halfspaces: halfspaces.to_vec(),
            };
            regions[leaf.index()] = Some(region);
        });
        regions
    }

    /// Asserts that `tree` holds `reference`'s cells node for node: pairs,
    /// children, every leaf's region (read from its path) and order (read
    /// at its witness), and witnesses if `witnesses`. Every leaf's witness
    /// lies inside its region and locates that leaf.
    fn assert_same_tree(
        tree: &ITree,
        functions: &[LinearFunction],
        reference: &Reference,
        witnesses: bool,
        context: &str,
    ) {
        let strip = |node: &Node| match node.clone() {
            Node::Subdomain { .. } if !witnesses => Node::Subdomain {
                witness: Vec::new(),
            },
            node => node,
        };
        assert_eq!(tree.node_count(), reference.tree.node_count(), "{context}");
        for id in (0..tree.node_count() as u32).map(NodeId) {
            let node = tree.node(id);
            let expected = strip(reference.tree.node(id));
            assert_eq!(strip(node), expected, "{context}, node {id:?}");
        }
        assert_eq!(tree.leaf_ids(), reference.tree.leaf_ids(), "{context}");
        let regions = regions_of(tree);
        for &leaf in tree.leaf_ids() {
            let region = regions[leaf.index()].as_ref();
            let expected = &reference.regions[leaf.index()];
            assert_eq!(region, Some(expected), "{context}, leaf {leaf:?}");
            let order = tree.order(functions, leaf);
            assert_eq!(order, reference.sorted[leaf.index()], "{context}, {leaf:?}");
            let Node::Subdomain { witness } = tree.node(leaf) else {
                unreachable!("leaf ids name subdomains");
            };
            assert!(expected.contains(witness), "{context}: {witness:?}");
            assert_eq!(tree.locate(witness).leaf, leaf, "{context}: {witness:?}");
        }
    }

    #[test]
    fn filtered_build_matches_the_reference_walk_node_for_node() {
        let mut subdomains = 0;
        let mut filtered = BuildStats::default();
        for seed in 0..240 {
            let (functions, domain) = arrangement(seed);
            let (tree, stats) = ITreeBuilder::new(LpSplitOracle::new())
                .build_with_stats(&functions, domain.clone());
            // Central input at d ≤ 2 takes the exact path, whose witness
            // is its own.
            let witnesses = Cells::of(&functions, &domain) == Cells::Lp;
            let reference = build_reference(&functions, domain);
            let context = format!("seed {seed}");
            assert_same_tree(&tree, &functions, &reference, witnesses, &context);
            subdomains += stats.subdomains;
            filtered.pairs_refused += stats.pairs_refused;
            filtered.visits_filtered += stats.visits_filtered;
            filtered.oracle_calls += stats.oracle_calls;
            filtered.oracle_solves += stats.oracle_solves;
            // One solve where the region's points had shown a side, two
            // where they had not.
            let (calls, solves) = (stats.oracle_calls, stats.oracle_solves);
            assert!(
                calls <= solves && solves <= 2 * calls,
                "seed {seed}: {stats:?}"
            );
        }
        // The suite is only worth its name if every path was taken.
        assert!(subdomains > 5_000, "{subdomains} subdomains");
        assert!(filtered.pairs_refused > 1_000, "{filtered:?}");
        assert!(filtered.visits_filtered > 10_000, "{filtered:?}");
        assert!(filtered.oracle_calls > 1_000, "{filtered:?}");
        assert!(
            filtered.oracle_solves > filtered.oracle_calls,
            "{filtered:?}"
        );
    }

    /// A seeded central arrangement: every function `a·x`, coefficients on
    /// a coarse grid (so hyperplanes coincide and cross on box corners and
    /// faces) or, for every fourth seed, anywhere; outright duplicates and
    /// halved copies (whose differences are parallel); over the unit box or
    /// `[0.25, 1]^d`, whose lower corner is not the origin.
    fn central_arrangement(seed: u64, dims: usize) -> (Vec<LinearFunction>, Domain) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = rng.gen_range(2..=[24, 14][dims - 1]);
        let lo = [-1.0, 0.0][(seed / 2 % 2) as usize];
        let value = |rng: &mut StdRng| match seed % 4 {
            3 => rng.gen_range(lo..1.0),
            _ => lo + (1.0 - lo) * rng.gen_range(0..=4u32) as f64 / 4.0,
        };
        let mut functions: Vec<LinearFunction> = Vec::new();
        for id in 0..n {
            let twin: Option<LinearFunction> = functions.get(rng.gen_range(0..n)).cloned();
            let coeffs = match (rng.gen_range(0..6u32), twin) {
                (0, Some(twin)) => twin.coeffs,
                (1, Some(twin)) => twin.coeffs.iter().map(|a| a / 2.0).collect(),
                _ => (0..dims).map(|_| value(&mut rng)).collect(),
            };
            functions.push(LinearFunction::new(FuncId(id as u32), coeffs, 0.0));
        }
        let domain = match seed % 3 {
            0 => Domain::new(vec![0.25; dims], vec![1.0; dims]),
            _ => Domain::unit(dims),
        };
        (functions, domain)
    }

    /// Builds central input, asserts the oracle was never asked and solved
    /// nothing, and checks the tree against the reference walk in everything
    /// but the witness, which must lie inside its cell and locate it.
    fn check_central(functions: &[LinearFunction], domain: Domain, context: &str) -> BuildStats {
        let expected = [Cells::Point, Cells::Directions][domain.dims() - 1];
        assert_eq!(Cells::of(functions, &domain), expected, "{context}");
        let builder = ITreeBuilder::new(LpSplitOracle::new());
        let (tree, stats) = builder.build_with_stats(functions, domain.clone());
        assert_eq!(
            (stats.oracle_calls, stats.oracle_solves),
            (0, 0),
            "{context}"
        );
        assert_eq!(stats.visits_filtered, stats.nodes_visited, "{context}");
        let reference = build_reference(functions, domain);
        assert_same_tree(&tree, functions, &reference, false, context);
        stats
    }

    #[test]
    fn central_builds_match_the_reference_walk_and_never_ask_the_oracle() {
        for dims in [1, 2] {
            let mut stats = BuildStats::default();
            for seed in 0..160 {
                let (functions, domain) = central_arrangement(seed, dims);
                let built = check_central(&functions, domain, &format!("d = {dims}, seed {seed}"));
                stats.subdomains += built.subdomains;
                stats.pairs_refused += built.pairs_refused;
                stats.nodes_visited += built.nodes_visited;
            }
            // At d = 1 every pair is refused; at d = 2 the walk must have
            // had work to do.
            assert!(stats.pairs_refused > 1_000, "d = {dims}: {stats:?}");
            if dims == 2 {
                assert!(stats.subdomains > 1_000, "{stats:?}");
                assert!(stats.nodes_visited > 10_000, "{stats:?}");
            }
        }
    }

    #[test]
    fn central_builds_of_the_recorded_datasets_match_the_reference_walk() {
        for (n, dims, seed) in [(64, 1, 1), (40, 2, 7), (76, 2, 1), (128, 2, 1)] {
            let dataset = vaq_workload::uniform_dataset(n, dims, seed);
            let context = format!("uniform_dataset({n}, {dims}, {seed})");
            check_central(&dataset.functions, dataset.domain, &context);
        }
    }

    /// What [`check_facets`] saw over the leaves it was given.
    #[derive(Debug, Default)]
    struct FacetCounts {
        /// Leaves whose half-spaces and box are central at `d = 2`.
        central: usize,
        /// Their facets, in all.
        facets: usize,
        /// Points probed, and those at which facets and path disagree.
        probes: usize,
        disagreements: usize,
        /// Every other leaf: its path came back unchanged.
        whole: usize,
    }

    /// Checks every leaf's [`facets`] against its whole path. A leaf whose
    /// half-spaces all pass through the origin, over a 2-d box in the
    /// quadrant, keeps at most two, in path order, and a point of the box
    /// satisfies those iff it satisfies the path, except within 1e-9 of a
    /// breakpoint (a half-space's [`cut`]). The probes are the ray entry,
    /// middle and exit of a grid of directions across the box and of every
    /// breakpoint with one ulp either side. Every other leaf gets its path
    /// back unchanged.
    fn check_facets(tree: &ITree, counts: &mut FacetCounts, context: &str) {
        let domain = tree.domain();
        tree.for_each_region(|leaf, path| {
            let positions = facets(domain, path.iter().map(HalfSpace::side));
            let central = domain.dims() == 2
                && in_the_orthant(domain)
                && (path.iter()).all(|h| through_origin(&h.coeffs, h.constant));
            if !central {
                let whole = positions.iter().copied().eq(0..path.len());
                assert!(whole, "{context}, {leaf:?}: {positions:?}");
                counts.whole += 1;
                return;
            }
            counts.central += 1;
            counts.facets += positions.len();
            assert!(positions.len() <= 2, "{context}, {leaf:?}: {positions:?}");
            let in_order = positions.windows(2).all(|p| p[0] < p[1]);
            assert!(in_order, "{context}, {leaf:?}: {positions:?}");
            let kept: Vec<HalfSpace> = positions.iter().map(|&at| path[at].clone()).collect();

            let breakpoints: Vec<f64> = path.iter().map(|h| cut(&h.coeffs)).collect();
            let (first, last) = box_directions(domain);
            let grid = (0..=64).map(|i| first + (last - first) * f64::from(i) / 64.0);
            let near = breakpoints
                .iter()
                .flat_map(|&t| [t.next_down(), t, t.next_up()]);
            for t in grid.chain(near).filter(|t| (first..=last).contains(t)) {
                let (enter, leave) = ray_span(t, domain);
                for s in [enter, (enter + leave) / 2.0, leave] {
                    let x = [s * t, s * (1.0 - t)];
                    let inside = |list: &[HalfSpace]| list.iter().all(|h| h.satisfied(&x));
                    counts.probes += 1;
                    if inside(&kept) != inside(path) {
                        counts.disagreements += 1;
                        let off = breakpoints
                            .iter()
                            .map(|b| (t - b).abs())
                            .fold(1.0, f64::min);
                        assert!(off <= 1e-9, "{context}, {leaf:?}: {x:?} is {off} off");
                    }
                }
            }
        });
    }

    #[test]
    fn a_central_cell_at_two_dimensions_is_its_facets() {
        let mut counts = FacetCounts::default();
        let builder = ITreeBuilder::new(LpSplitOracle::new());
        for (n, seed) in [(76, 1), (128, 1)] {
            let dataset = vaq_workload::uniform_dataset(n, 2, seed);
            let tree = builder.build(&dataset.functions, dataset.domain);
            check_facets(
                &tree,
                &mut counts,
                &format!("uniform_dataset({n}, 2, {seed})"),
            );
        }
        for seed in 0..160 {
            let (functions, domain) = central_arrangement(seed, 2);
            let tree = builder.build(&functions, domain);
            check_facets(&tree, &mut counts, &format!("central seed {seed}"));
        }
        let mean = counts.facets as f64 / counts.central as f64;
        println!("{mean:.3} facets a leaf over {counts:?}");
        assert_eq!(counts.whole, 0, "{counts:?}");
        assert!(
            counts.central > 5_000 && counts.probes > 1_000_000,
            "{counts:?}"
        );
        assert!(1.5 < mean && mean <= 2.0, "{counts:?}");
    }

    #[test]
    fn lp_and_one_dimensional_leaves_keep_their_whole_path() {
        // The awkward arrangements mostly read their regions through the
        // LP; a d = 2 leaf among them whose path runs through the origin
        // over a box in the quadrant is checked as a central one.
        let mut counts = FacetCounts::default();
        let builder = ITreeBuilder::new(LpSplitOracle::new());
        for seed in 0..240 {
            let (functions, domain) = arrangement(seed);
            let tree = builder.build(&functions, domain);
            check_facets(&tree, &mut counts, &format!("seed {seed}"));
        }
        for (n, dims) in [(64, 1), (9, 3)] {
            let dataset = vaq_workload::uniform_dataset(n, dims, 1);
            let tree = builder.build(&dataset.functions, dataset.domain);
            check_facets(
                &tree,
                &mut counts,
                &format!("uniform_dataset({n}, {dims}, 1)"),
            );
        }
        println!("{counts:?}");
        assert!(counts.whole > 2_000, "{counts:?}");
    }

    #[test]
    fn every_witness_of_an_lp_build_locates_its_own_leaf() {
        // The LP path's witness is a Chebyshev centre: strictly inside its
        // cell, so the search along its path reaches that cell. Twenty
        // records (4,695 cells) in an optimised build, twelve (569)
        // unoptimised.
        let n = if cfg!(debug_assertions) { 12 } else { 20 };
        let dataset = vaq_workload::uniform_dataset(n, 3, 1);
        let builder = ITreeBuilder::new(LpSplitOracle::new());
        let tree = builder.build(&dataset.functions, dataset.domain.clone());
        assert!(tree.leaf_ids().len() > 20 * n, "{}", tree.leaf_ids().len());
        for &leaf in tree.leaf_ids() {
            let Node::Subdomain { witness } = tree.node(leaf) else {
                unreachable!("leaf ids name subdomains");
            };
            assert_eq!(tree.locate(witness).leaf, leaf, "{witness:?}");
        }
    }

    #[test]
    fn a_line_counts_the_pairs_the_scan_counts_without_walking_one() {
        // Slopes on a grid, duplicated, and a few apart by a hair: gaps
        // under EPS are one map, gaps just over it stay inside a zero
        // tolerance's guard band on a box whose lower end is small.
        let mut slopes: Vec<f64> = (0..40).map(|i| f64::from(i % 9) / 8.0 - 0.5).collect();
        slopes.extend([0.3, 0.3 + 5e-10, 0.3 + 2e-9, 0.3 + 3e-8, -0.2 + 1e-6]);
        let functions: Vec<LinearFunction> = (slopes.iter().enumerate())
            .map(|(id, a)| LinearFunction::new(FuncId(id as u32), vec![*a], 0.0))
            .collect();
        let boxes = [(0.0, 1.0), (0.25, 1.0), (0.01, 0.02), (3.0, 7.0)];
        let mut walked_somewhere = false;
        for ((lower, upper), tolerance) in boxes
            .into_iter()
            .flat_map(|b| [1e-7, 1e-9, 5e-10, 0.0].map(|t| (b, t)))
        {
            let domain = Domain::new(vec![lower], vec![upper]);
            let builder = ITreeBuilder::new(LpSplitOracle { tolerance });
            let (tree, stats) = builder.build_as(&functions, domain.clone(), Cells::Point);
            let (scanned, scan) = builder.build_as(&functions, domain.clone(), Cells::Lp);
            let context = format!("[{lower}, {upper}], tolerance {tolerance}");
            assert_eq!(
                (stats.pairs_inserted, stats.pairs_refused),
                (scan.pairs_inserted, scan.pairs_refused),
                "{context}"
            );
            assert_eq!((stats.nodes_visited, stats.subdomains), (0, 1), "{context}");
            // One cell each: its region is the box.
            let scanned = Reference {
                sorted: vec![scanned.order(&functions, scanned.root())],
                regions: vec![SubdomainConstraints::whole(domain)],
                tree: scanned,
            };
            assert_same_tree(&tree, &functions, &scanned, true, &context);
            walked_somewhere |= scan.pairs_refused < scan.pairs_inserted;
        }
        assert!(walked_somewhere, "no case left a pair for the scan to walk");
    }

    /// Builds over the unit square and returns the stats and the subdomain
    /// count of the reference walk, whose tree it must equal node for node.
    /// A visit that asked the oracle about the wrong side would decide it
    /// wrongly, and so change the cells.
    fn square_build(functions: &[(Vec<f64>, f64)]) -> (BuildStats, usize) {
        let functions: Vec<LinearFunction> = functions
            .iter()
            .enumerate()
            .map(|(id, (coeffs, c))| LinearFunction::new(FuncId(id as u32), coeffs.clone(), *c))
            .collect();
        let builder = ITreeBuilder::new(LpSplitOracle::new());
        let (tree, stats) = builder.build_with_stats(&functions, Domain::unit(2));
        let reference = build_reference(&functions, Domain::unit(2));
        assert_same_tree(&tree, &functions, &reference, true, "the unit square");
        (stats, reference.tree.leaf_ids().len())
    }

    #[test]
    fn points_on_both_sides_split_a_region_without_the_oracle() {
        // x0 = 0.5 cuts the square; the square's own extreme points have
        // x0 = 0 and x0 = 1 among them.
        let (stats, subdomains) = square_build(&[(vec![1.0, 0.0], 0.0), (vec![0.0, 0.0], 0.5)]);
        assert_eq!((stats.visits_filtered, stats.oracle_calls), (1, 0));
        assert_eq!(stats.oracle_solves, 0);
        assert_eq!((subdomains, stats.subdomains), (2, 2));
    }

    #[test]
    fn a_hyperplane_outside_the_box_is_refused_and_outside_a_bounding_box_filtered() {
        // f1 − f2 is the constant 0.25: refused before any walk. x0 = 0.25
        // splits the square and its left half [0, 0.5] × [0, 1], and misses
        // the bounding box of the right half.
        let half = (vec![0.0, 0.0], 0.5);
        let quarter = (vec![0.0, 0.0], 0.25);
        let (stats, subdomains) = square_build(&[(vec![1.0, 0.0], 0.0), half, quarter]);
        assert_eq!((stats.pairs_inserted, stats.pairs_refused), (3, 1));
        assert_eq!((stats.nodes_visited, stats.visits_filtered), (4, 4));
        assert_eq!((stats.oracle_calls, stats.oracle_solves), (0, 0));
        assert_eq!((subdomains, stats.subdomains), (3, 3));
    }

    #[test]
    fn an_undecided_visit_costs_one_solve_on_the_side_no_point_has_shown() {
        // The diagonal cuts the square into two triangles whose bounding box
        // is still the square. x1 = x0 + 0.5 crosses that box but not the
        // lower triangle: its corners are all below, the box straddles, and
        // the one question left is whether anything lies above.
        let (stats, subdomains) = square_build(&[
            (vec![1.0, 0.0], 0.0),
            (vec![0.0, 1.0], 0.0),
            (vec![2.0, -1.0], 0.5),
        ]);
        // Every call had a side shown, so each cost one solve.
        assert!(stats.oracle_calls > 0, "{stats:?}");
        assert_eq!(stats.oracle_solves, stats.oracle_calls, "{stats:?}");
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
        let (stats, subdomains) = square_build(&corner(tolerance - 2e-9));
        assert_eq!((stats.pairs_refused, stats.nodes_visited), (1, 0));
        assert_eq!(
            (stats.oracle_calls, stats.oracle_solves, subdomains),
            (0, 0, 1)
        );
        for (inside, cells) in [(tolerance - 0.5e-9, 1), (tolerance + 0.5e-9, 2)] {
            let (stats, subdomains) = square_build(&corner(inside));
            assert_eq!((stats.pairs_refused, stats.visits_filtered), (0, 0));
            // One call, one solve: its corners had shown the side below.
            assert_eq!((stats.oracle_calls, stats.oracle_solves), (1, 1));
            assert_eq!((subdomains, stats.subdomains), (cells, cells));
        }
    }
}
