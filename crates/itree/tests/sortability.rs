//! Property tests for the theorem of function sortability (paper Sec. 2.3.1):
//! inside every subdomain the I-tree produces, the order of the functions is
//! the same at every point of that subdomain, and it equals the order the
//! leaf reads at its witness.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vaq_funcdb::{
    sort_functions_at, Domain, FuncId, LinearFunction, LpSplitOracle, SubdomainConstraints,
};
use vaq_itree::{ITree, ITreeBuilder};

fn functions_from(coeffs: &[(f64, f64)]) -> Vec<LinearFunction> {
    coeffs
        .iter()
        .enumerate()
        .map(|(i, (a, b))| LinearFunction::new(FuncId(i as u32), vec![*a, *b], 0.0))
        .collect()
}

/// Every leaf's region, read from its path, in [`ITree::leaf_ids`] order.
fn regions(tree: &ITree) -> Vec<SubdomainConstraints> {
    let mut regions = vec![None; tree.node_count()];
    tree.for_each_region(|leaf, halfspaces| {
        regions[leaf.index()] = Some(SubdomainConstraints {
            domain: tree.domain().clone(),
            halfspaces: halfspaces.to_vec(),
        });
    });
    let leaves = tree.leaf_ids().iter();
    leaves
        .map(|leaf| {
            regions[leaf.index()]
                .take()
                .expect("every leaf has a region")
        })
        .collect()
}

/// Every point sampled inside a leaf's region sorts the functions exactly as
/// the leaf's order (up to ties on boundaries, which sampling interior
/// points avoids almost surely).
fn check_leaf_orders(functions: &[LinearFunction], dims: usize, seed: u64) -> Result<(), String> {
    let domain = Domain::unit(dims);
    let tree = ITreeBuilder::new(LpSplitOracle::new()).build(functions, domain.clone());
    let mut rng = StdRng::seed_from_u64(seed);

    for (&leaf, constraints) in tree.leaf_ids().iter().zip(regions(&tree)) {
        let sorted = tree.order(functions, leaf);
        // Rejection-sample a few interior points of this leaf.
        let mut found = 0;
        for _ in 0..400 {
            if found >= 3 {
                break;
            }
            let p = vaq_workload::random_point(&domain, &mut rng);
            if !constraints.contains(&p) {
                continue;
            }
            // Skip points that lie (numerically) on any intersection
            // boundary, where the order is legitimately ambiguous.
            let on_boundary = functions.iter().enumerate().any(|(i, fi)| {
                functions
                    .iter()
                    .skip(i + 1)
                    .any(|fj| (fi.eval(&p) - fj.eval(&p)).abs() < 1e-9)
            });
            if on_boundary {
                continue;
            }
            found += 1;
            let direct = sort_functions_at(functions, &p);
            if direct != sorted {
                return Err(format!(
                    "d = {dims}: order at {p:?} disagrees with leaf order"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn leaf_order_is_invariant_across_the_leaf(
        coeffs in prop::collection::vec((0.05f64..1.0, 0.05f64..1.0), 2..7),
        seed in 0u64..1_000,
    ) {
        let result = check_leaf_orders(&functions_from(&coeffs), 2, seed);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }

    /// The same at d = 3 and d = 4, where every cell is a cone whose
    /// coordinate minimisers all sit at the origin, so a list sorted at a
    /// point on the cell's boundary shows here.
    #[test]
    fn leaf_order_is_invariant_across_the_leaf_at_three_and_four_dimensions(
        rows in prop::collection::vec(prop::collection::vec(0.05f64..1.0, 4..=4), 2..8),
        seed in 0u64..1_000,
    ) {
        for dims in [3, 4] {
            let functions: Vec<LinearFunction> = rows
                .iter()
                .take(10 - dims)
                .enumerate()
                .map(|(i, row)| LinearFunction::new(FuncId(i as u32), row[..dims].to_vec(), 0.0))
                .collect();
            let result = check_leaf_orders(&functions, dims, seed);
            prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        }
    }

    /// The leaves partition the domain: every sampled point belongs to the
    /// constraint system of the leaf that `locate` returns, and `locate`
    /// agrees with a brute-force scan over all leaves.
    #[test]
    fn locate_agrees_with_linear_scan(
        coeffs in prop::collection::vec((0.05f64..1.0, 0.05f64..1.0), 2..6),
        px in 0.01f64..0.99,
        py in 0.01f64..0.99,
    ) {
        let functions = functions_from(&coeffs);
        let tree = ITreeBuilder::new(LpSplitOracle::new()).build(&functions, Domain::unit(2));
        let p = [px, py];
        let located = tree.locate(&p);
        let regions = regions(&tree);
        let region = |leaf| &regions[tree.leaf_ids().iter().position(|l| *l == leaf).unwrap()];
        prop_assert!(region(located.leaf).contains(&p));

        // At least one leaf must contain the point (they cover the domain);
        // the located one must be among them.
        let containing: Vec<_> = tree
            .leaf_ids()
            .iter()
            .copied()
            .filter(|id| region(*id).contains(&p))
            .collect();
        prop_assert!(!containing.is_empty());
        prop_assert!(containing.contains(&located.leaf));
    }
}
