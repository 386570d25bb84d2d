//! Stress and consistency tests for the simplex LP solver and the split
//! oracle, cross-checked against dense grid sampling (a slow but obviously
//! correct reference).

use proptest::prelude::*;
use vaq_funcdb::{
    Domain, HalfSpace, LpOutcome, LpProblem, LpSplitOracle, SplitDecision, SubdomainConstraints,
};

/// Evaluates feasibility of a constraint system by brute-force grid search.
fn grid_feasible(constraints: &SubdomainConstraints, steps: usize) -> Option<Vec<f64>> {
    let d = constraints.dims();
    assert_eq!(d, 2, "grid reference only implemented for 2-D");
    let (lx, ux) = (constraints.domain.lower[0], constraints.domain.upper[0]);
    let (ly, uy) = (constraints.domain.lower[1], constraints.domain.upper[1]);
    for i in 0..=steps {
        for j in 0..=steps {
            let p = vec![
                lx + (ux - lx) * i as f64 / steps as f64,
                ly + (uy - ly) * j as f64 / steps as f64,
            ];
            if constraints.contains(&p) {
                return Some(p);
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// If the grid finds a feasible point, the LP must agree (the converse
    /// can fail for thin regions the grid misses, so it is not asserted).
    #[test]
    fn lp_feasibility_never_misses_grid_feasible_regions(
        raw in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -0.8f64..0.8, prop::bool::ANY), 0..5),
    ) {
        let mut constraints = SubdomainConstraints::whole(Domain::unit(2));
        for (a, b, c, side) in &raw {
            constraints = constraints.with(HalfSpace::raw(vec![*a, *b], *c, *side));
        }
        if let Some(p) = grid_feasible(&constraints, 25) {
            prop_assert!(
                constraints.is_feasible(),
                "grid found {:?} feasible but the LP reported infeasible", p
            );
            // And the witness point the LP machinery produces must satisfy
            // the (closed) constraints.
            if let Some(w) = constraints.witness_point() {
                prop_assert!(constraints.domain.contains(&w));
            }
        }
    }

    /// The LP split oracle agrees with a dense-grid classification whenever
    /// the grid sees both sides clearly.
    #[test]
    fn split_oracle_agrees_with_grid_on_clear_cases(
        a in -1.0f64..1.0,
        b in -1.0f64..1.0,
        c in -0.9f64..0.9,
    ) {
        let region = SubdomainConstraints::whole(Domain::unit(2));
        let oracle = LpSplitOracle::new();
        let decision = oracle.classify(&region, &[a, b], c);

        // Grid classification.
        let steps = 40;
        let mut above = 0usize;
        let mut below = 0usize;
        for i in 0..=steps {
            for j in 0..=steps {
                let x = i as f64 / steps as f64;
                let y = j as f64 / steps as f64;
                let g = a * x + b * y + c;
                if g > 1e-6 {
                    above += 1;
                } else if g < -1e-6 {
                    below += 1;
                }
            }
        }
        if above > 0 && below > 0 {
            prop_assert_eq!(decision, SplitDecision::Splits);
        } else if above > 0 && below == 0 {
            prop_assert_ne!(decision, SplitDecision::AllBelow);
        } else if below > 0 && above == 0 {
            prop_assert_ne!(decision, SplitDecision::AllAbove);
        }
    }

    /// Optimal LP values are certified: the reported point is feasible and
    /// attains the reported value.
    #[test]
    fn lp_optimum_is_attained_by_the_reported_point(
        c0 in -2.0f64..2.0,
        c1 in -2.0f64..2.0,
        rows in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0, 0.1f64..2.0), 0..4),
    ) {
        let mut lp = LpProblem::new(vec![c0, c1], vec![0.0, 0.0], vec![1.0, 1.0]);
        for (a, b, rhs) in &rows {
            lp.add_le(vec![*a, *b], *rhs);
        }
        match lp.solve() {
            LpOutcome::Optimal { value, point } => {
                let attained = c0 * point[0] + c1 * point[1];
                prop_assert!((attained - value).abs() < 1e-6);
                prop_assert!(point.iter().all(|v| (-1e-7..=1.0 + 1e-7).contains(v)));
                for (a, b, rhs) in &rows {
                    prop_assert!(a * point[0] + b * point[1] <= rhs + 1e-6);
                }
            }
            LpOutcome::Infeasible => {
                // All rows have rhs > 0 and the origin satisfies them, so the
                // problem can never be infeasible.
                prop_assert!(false, "origin-feasible LP reported infeasible");
            }
            LpOutcome::Unbounded => {
                // Impossible over a bounded box.
                prop_assert!(false, "LP over a box reported unbounded");
            }
        }
    }
}
