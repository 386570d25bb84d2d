//! The split test: does a hyperplane pass through a region?
//!
//! The I-tree insert algorithm (paper, Sec. 3.1 step 1) needs to decide, for
//! every candidate intersection `I_{i,j}` and every tree node's region `X`,
//! whether the intersection *partitions* `X` — i.e. whether both
//! `X ∩ {f_i − f_j > 0}` and `X ∩ {f_i − f_j < 0}` are non-empty.
//! [`LpSplitOracle`] decides it exactly (up to floating-point tolerance),
//! using the simplex solver to compute the range of the difference function
//! over the region.
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

    /// Classifies the hyperplane `coeffs·x + constant = 0` against `region`:
    /// two solves, for the form's maximum and its minimum over the region.
    pub fn classify(
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

    /// True if the hyperplane splits `region`, for a caller that may already
    /// hold a point of the region strictly above it (`Some(true)`) or
    /// strictly below it (`Some(false)`). Then only the other side is still
    /// in question, and one solve decides it: the extremum on that side.
    /// Otherwise [`classify`](Self::classify)'s two.
    pub fn splits_given(
        &self,
        region: &SubdomainConstraints,
        coeffs: &[f64],
        constant: f64,
        seen_above: Option<bool>,
    ) -> bool {
        let Some(above) = seen_above else {
            return self.classify(region, coeffs, constant) == SplitDecision::Splits;
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
}
