//! Split oracles: does a hyperplane pass through a region?
//!
//! The I-tree insert algorithm (paper, Sec. 3.1 step 1) needs to decide, for
//! every candidate intersection `I_{i,j}` and every tree node's region `X`,
//! whether the intersection *partitions* `X` — i.e. whether both
//! `X ∩ {f_i − f_j > 0}` and `X ∩ {f_i − f_j < 0}` are non-empty. This module
//! provides that decision behind the [`SplitOracle`] trait with two
//! implementations:
//!
//! * [`LpSplitOracle`] — exact (up to floating-point tolerance), using the
//!   simplex solver to compute the range of the difference function over the
//!   region.
//! * [`SamplingSplitOracle`] — Monte-Carlo approximation used by the
//!   ablation study; cheaper per query but can miss slivers, which the
//!   ablation bench quantifies.
//!
//! [`range_misses`] and [`point_evidence`] are the exact `O(d)` filters the
//! I-tree build asks first. Both decide only when clear of the oracle's
//! tolerance by a guard band of [`EPS`](crate::EPS), where a solver agrees.
//!
//! The oracle is asked only where the regions are general polytopes. On
//! central input (every function `a·x`, the box in the non-negative orthant)
//! at `d ≤ 2` the I-tree build asks it nothing: at `d = 1` no hyperplane
//! splits the box, and at `d = 2` a region is an interval of directions
//! whose exact vertices decide every visit by the form's values there, as
//! the LP would.

use crate::subdomain::SubdomainConstraints;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;

/// How a hyperplane relates to a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitDecision {
    /// The hyperplane passes through the region: both strict sides are
    /// non-empty.
    Splits,
    /// The whole region lies on the non-negative side (`g ≥ 0`).
    AllAbove,
    /// The whole region lies on the negative side (`g < 0`).
    AllBelow,
    /// The region is empty (should not normally be asked).
    EmptyRegion,
}

/// Decides whether a linear form's zero set splits a region.
pub trait SplitOracle {
    /// Classifies the hyperplane `coeffs·x + constant = 0` against `region`.
    fn classify(
        &self,
        region: &SubdomainConstraints,
        coeffs: &[f64],
        constant: f64,
    ) -> SplitDecision;

    /// Convenience: true if the hyperplane splits the region.
    fn splits(&self, region: &SubdomainConstraints, coeffs: &[f64], constant: f64) -> bool {
        self.classify(region, coeffs, constant) == SplitDecision::Splits
    }

    /// The magnitude up to which the form counts as touching the hyperplane
    /// rather than lying on a strict side of it (zero: by sign alone).
    fn tolerance(&self) -> f64 {
        0.0
    }

    /// [`splits`](Self::splits) for a caller that may already hold a point
    /// of the region strictly above the hyperplane (`Some(true)`) or strictly
    /// below it (`Some(false)`): only the other side is still in question.
    fn splits_given(
        &self,
        region: &SubdomainConstraints,
        coeffs: &[f64],
        constant: f64,
        _seen_above: Option<bool>,
    ) -> bool {
        self.splits(region, coeffs, constant)
    }
}

/// What points already known to lie in a convex region prove about a
/// hyperplane; see [`point_evidence`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointEvidence {
    /// Points lie strictly on both sides, so the hyperplane splits the region.
    Splits,
    /// The form keeps one sign over the points' bounding box.
    Misses,
    /// Undecided. `Some(true)` if a point was seen strictly above,
    /// `Some(false)` strictly below, `None` if neither.
    Open(Option<bool>),
}

/// True if a form whose exact range over a box is `[min, max]` cannot take
/// both signs beyond `tolerance` anywhere inside the box.
#[inline]
pub fn range_misses(min: f64, max: f64, tolerance: f64) -> bool {
    max <= tolerance - crate::EPS || min >= crate::EPS - tolerance
}

/// Evaluates `coeffs·x + constant` at `points` (points of the region, laid
/// end to end) and over their bounding box. [`PointEvidence::Misses`] is
/// sound only if that box contains the region, as the box of
/// [`SubdomainConstraints::extreme_points`] does.
pub fn point_evidence(
    points: &[f64],
    coeffs: &[f64],
    constant: f64,
    tolerance: f64,
) -> PointEvidence {
    if points.is_empty() {
        return PointEvidence::Open(None);
    }
    let d = coeffs.len();
    let (mut above, mut below) = (false, false);
    for point in points.chunks_exact(d) {
        let g = coeffs.iter().zip(point).map(|(c, v)| c * v).sum::<f64>() + constant;
        above |= g > tolerance + crate::EPS;
        below |= g < -tolerance - crate::EPS;
    }
    if above && below {
        return PointEvidence::Splits;
    }
    let (mut min, mut max) = (constant, constant);
    for (k, c) in coeffs.iter().enumerate() {
        let column = points.iter().skip(k).step_by(d);
        let (lo, hi) = column.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
        min += (c * lo).min(c * hi);
        max += (c * lo).max(c * hi);
    }
    if range_misses(min, max, tolerance) {
        return PointEvidence::Misses;
    }
    PointEvidence::Open(above.then_some(true).or(below.then_some(false)))
}

/// Exact oracle based on the simplex LP solver.
///
/// The hyperplane splits the region iff the maximum of `g` over the region is
/// strictly positive **and** the minimum is strictly negative (beyond the
/// tolerance). A region entirely on one side is classified accordingly.
#[derive(Clone, Debug, Default)]
pub struct LpSplitOracle {
    /// Tolerance below which an extremum is considered to touch the plane.
    pub tolerance: f64,
}

impl LpSplitOracle {
    /// Creates the oracle with the default tolerance.
    pub fn new() -> Self {
        LpSplitOracle { tolerance: 1e-7 }
    }
}

impl SplitOracle for LpSplitOracle {
    fn classify(
        &self,
        region: &SubdomainConstraints,
        coeffs: &[f64],
        constant: f64,
    ) -> SplitDecision {
        match region.linear_range(coeffs, constant) {
            None => SplitDecision::EmptyRegion,
            Some((min, max)) => {
                let above = max > self.tolerance;
                let below = min < -self.tolerance;
                match (above, below) {
                    (true, true) => SplitDecision::Splits,
                    (true, false) => SplitDecision::AllAbove,
                    (false, true) => SplitDecision::AllBelow,
                    // The form is (numerically) identically zero on the
                    // region: treat as lying on the closed "above" side.
                    (false, false) => SplitDecision::AllAbove,
                }
            }
        }
    }

    fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// One solve instead of two: the extremum on the side not yet seen.
    fn splits_given(
        &self,
        region: &SubdomainConstraints,
        coeffs: &[f64],
        constant: f64,
        seen_above: Option<bool>,
    ) -> bool {
        let Some(above) = seen_above else {
            return self.splits(region, coeffs, constant);
        };
        let open = region.linear_extreme(coeffs, constant, !above);
        open.is_some_and(|v| {
            if above {
                v < -self.tolerance
            } else {
                v > self.tolerance
            }
        })
    }
}

/// Monte-Carlo oracle: samples points of the region's bounding box, keeps
/// those inside the region, and looks at the sign of `g` at the survivors.
///
/// Used by the feasibility ablation; may misclassify thin regions. The
/// I-tree build asks it only about the visits its exact filters
/// ([`range_misses`], [`point_evidence`]) leave open on input that is not
/// central at `d ≤ 2`, so the ablation measures sampling on the undecided
/// cases alone, at `d = 3`.
#[derive(Debug)]
pub struct SamplingSplitOracle {
    samples: usize,
    rng: RefCell<StdRng>,
}

impl SamplingSplitOracle {
    /// Creates an oracle drawing `samples` points per query.
    pub fn new(samples: usize, seed: u64) -> Self {
        SamplingSplitOracle {
            samples,
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
        }
    }
}

impl SplitOracle for SamplingSplitOracle {
    fn classify(
        &self,
        region: &SubdomainConstraints,
        coeffs: &[f64],
        constant: f64,
    ) -> SplitDecision {
        let mut rng = self.rng.borrow_mut();
        let mut seen_above = false;
        let mut seen_below = false;
        let mut seen_any = false;
        for _ in 0..self.samples {
            let p = region.domain.sample(&mut *rng);
            if !region.contains(&p) {
                continue;
            }
            seen_any = true;
            let g: f64 = coeffs.iter().zip(p.iter()).map(|(c, v)| c * v).sum::<f64>() + constant;
            if g > 0.0 {
                seen_above = true;
            } else {
                seen_below = true;
            }
            if seen_above && seen_below {
                return SplitDecision::Splits;
            }
        }
        match (seen_any, seen_above, seen_below) {
            (false, _, _) => SplitDecision::EmptyRegion,
            (_, true, false) => SplitDecision::AllAbove,
            (_, false, true) => SplitDecision::AllBelow,
            _ => SplitDecision::AllAbove,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::halfspace::HalfSpace;

    fn unit_region(dims: usize) -> SubdomainConstraints {
        SubdomainConstraints::whole(Domain::unit(dims))
    }

    #[test]
    fn lp_oracle_detects_split_through_square() {
        let oracle = LpSplitOracle::new();
        // x - y = 0 cuts the unit square diagonally.
        assert_eq!(
            oracle.classify(&unit_region(2), &[1.0, -1.0], 0.0),
            SplitDecision::Splits
        );
    }

    #[test]
    fn lp_oracle_detects_all_above_and_below() {
        let oracle = LpSplitOracle::new();
        // x + y + 1 > 0 everywhere on [0,1]^2.
        assert_eq!(
            oracle.classify(&unit_region(2), &[1.0, 1.0], 1.0),
            SplitDecision::AllAbove
        );
        // x + y - 5 < 0 everywhere on [0,1]^2.
        assert_eq!(
            oracle.classify(&unit_region(2), &[1.0, 1.0], -5.0),
            SplitDecision::AllBelow
        );
    }

    #[test]
    fn lp_oracle_respects_existing_constraints() {
        let oracle = LpSplitOracle::new();
        // Restrict to x >= 0.8; then x - 0.5 = 0 no longer splits.
        let region = unit_region(1).with(HalfSpace::raw(vec![1.0], -0.8, true));
        assert_eq!(
            oracle.classify(&region, &[1.0], -0.5),
            SplitDecision::AllAbove
        );
        // But x - 0.9 = 0 still splits [0.8, 1].
        assert_eq!(
            oracle.classify(&region, &[1.0], -0.9),
            SplitDecision::Splits
        );
    }

    #[test]
    fn lp_oracle_empty_region() {
        let oracle = LpSplitOracle::new();
        let region = unit_region(1)
            .with(HalfSpace::raw(vec![1.0], -0.9, true))
            .with(HalfSpace::raw(vec![1.0], -0.1, false));
        assert_eq!(
            oracle.classify(&region, &[1.0], -0.5),
            SplitDecision::EmptyRegion
        );
    }

    #[test]
    fn lp_oracle_hyperplane_touching_corner_does_not_split() {
        let oracle = LpSplitOracle::new();
        // x + y = 0 only touches the square at the origin corner.
        assert_eq!(
            oracle.classify(&unit_region(2), &[1.0, 1.0], 0.0),
            SplitDecision::AllAbove
        );
    }

    #[test]
    fn sampling_oracle_agrees_on_clear_cases() {
        let lp = LpSplitOracle::new();
        let mc = SamplingSplitOracle::new(512, 42);
        let cases: Vec<(Vec<f64>, f64)> = vec![
            (vec![1.0, -1.0], 0.0),
            (vec![1.0, 1.0], 1.0),
            (vec![1.0, 1.0], -5.0),
            (vec![1.0, 0.0], -0.5),
        ];
        for (coeffs, c) in cases {
            let a = lp.classify(&unit_region(2), &coeffs, c);
            let b = mc.classify(&unit_region(2), &coeffs, c);
            assert_eq!(a, b, "disagreement on {coeffs:?} + {c}");
        }
    }

    #[test]
    fn sampling_oracle_may_miss_slivers_but_never_panics() {
        // A hyperplane shaving an extremely thin corner: the LP oracle says
        // Splits, sampling may legitimately answer AllBelow.
        let lp = LpSplitOracle::new();
        let mc = SamplingSplitOracle::new(64, 7);
        let coeffs = vec![1.0, 1.0];
        let c = -1.999_999;
        assert_eq!(
            lp.classify(&unit_region(2), &coeffs, c),
            SplitDecision::Splits
        );
        let d = mc.classify(&unit_region(2), &coeffs, c);
        assert!(matches!(d, SplitDecision::AllBelow | SplitDecision::Splits));
    }
}
