//! Subdomains: intersections of half-spaces within the domain box.

use crate::domain::Domain;
use crate::halfspace::HalfSpace;
use crate::simplex::{solve_rows, LpOutcome};
use vaq_crypto::sha256::{sha256, Digest, Sha256};

/// The constraint system describing one subdomain.
///
/// A subdomain is the part of the owner-declared [`Domain`] that satisfies a
/// conjunction of half-space constraints (`f_i − f_j ≥ 0` / `< 0` collected
/// along an I-tree path). In the paper the set of inequality functions that
/// determines a subdomain is hashed and signed in the multi-signature
/// scheme; [`Self::digest`] computes exactly that hash.
#[derive(Clone, Debug, PartialEq)]
pub struct SubdomainConstraints {
    /// The bounding box (the root domain declared by the owner).
    pub domain: Domain,
    /// Half-space constraints, in the order they were added on the path from
    /// the root.
    pub halfspaces: Vec<HalfSpace>,
}

impl SubdomainConstraints {
    /// The unconstrained subdomain — the whole domain.
    pub fn whole(domain: Domain) -> Self {
        SubdomainConstraints {
            domain,
            halfspaces: Vec::new(),
        }
    }

    /// Number of weight dimensions.
    pub fn dims(&self) -> usize {
        self.domain.dims()
    }

    /// Returns a copy extended by one more half-space.
    pub fn with(&self, hs: HalfSpace) -> Self {
        let mut halfspaces = Vec::with_capacity(self.halfspaces.len() + 1);
        halfspaces.extend_from_slice(&self.halfspaces);
        halfspaces.push(hs);
        SubdomainConstraints {
            domain: self.domain.clone(),
            halfspaces,
        }
    }

    /// True if the point lies in the subdomain (box and every half-space).
    pub fn contains(&self, x: &[f64]) -> bool {
        self.domain.contains(x) && self.halfspaces.iter().all(|h| h.satisfied(x))
    }

    /// Solves `maximize objective·x` over this subdomain, reading the
    /// half-spaces where they lie.
    ///
    /// Open (`< 0`) constraints are relaxed to their closure — correct for
    /// feasibility/extent questions since the regions are full-dimensional.
    pub fn maximize(&self, objective: &[f64]) -> LpOutcome {
        // coeffs·x + constant >= 0  <=>  -coeffs·x <= constant
        // coeffs·x + constant < 0   ~>   coeffs·x <= -constant
        let rows = self.halfspaces.iter().map(|hs| {
            let sign = if hs.non_negative { -1.0 } else { 1.0 };
            (hs.coeffs.as_slice(), sign, -sign * hs.constant)
        });
        solve_rows(objective, &self.domain.lower, &self.domain.upper, rows)
    }

    /// True if the subdomain is non-empty (has at least one feasible point,
    /// up to closure of the open constraints).
    pub fn is_feasible(&self) -> bool {
        if self.dims() == 1 {
            return self.interval_1d().is_some();
        }
        self.maximize(&vec![0.0; self.dims()]).is_feasible()
    }

    /// Fast path for univariate subdomains: the feasible set is an interval.
    ///
    /// Returns `Some((lo, hi))` with `lo <= hi`, or `None` if empty. Open
    /// constraints are treated by closure, mirroring [`Self::lp`].
    fn interval_1d(&self) -> Option<(f64, f64)> {
        debug_assert_eq!(self.dims(), 1);
        let mut lo = self.domain.lower[0];
        let mut hi = self.domain.upper[0];
        for hs in &self.halfspaces {
            let a = hs.coeffs[0];
            let b = hs.constant;
            // Constraint: a*x + b >= 0 (non_negative) or a*x + b <= 0 (closure of < 0).
            if a.abs() < crate::EPS {
                let ok = if hs.non_negative {
                    b >= -crate::EPS
                } else {
                    b <= crate::EPS
                };
                if !ok {
                    return None;
                }
                continue;
            }
            let boundary = -b / a;
            let lower_side = (a > 0.0) == hs.non_negative;
            if lower_side {
                lo = lo.max(boundary);
            } else {
                hi = hi.min(boundary);
            }
        }
        if lo <= hi + crate::EPS {
            Some((lo, hi.max(lo)))
        } else {
            None
        }
    }

    /// The maximiser and the minimiser of every coordinate over the
    /// subdomain, `2d` points of `d` coordinates laid end to end (the two
    /// interval ends at `d = 1`), or `None` if the subdomain is empty. All of
    /// them lie in the region, and their bounding box is the region's own.
    pub fn extreme_points(&self) -> Option<Vec<f64>> {
        let d = self.dims();
        if d == 1 {
            return self.interval_1d().map(|(lo, hi)| vec![lo, hi]);
        }
        let mut points = Vec::with_capacity(2 * d * d);
        let mut obj = vec![0.0; d];
        for i in 0..d {
            for sign in [1.0, -1.0] {
                obj[i] = sign;
                points.extend_from_slice(self.maximize(&obj).point()?);
            }
            obj[i] = 0.0;
        }
        Some(points)
    }

    /// The centre of the largest ball inside the subdomain (its Chebyshev
    /// centre), or `None` if the subdomain is empty. Every half-space and
    /// every box face lies at least the ball's radius away from it, so in a
    /// full-dimensional subdomain the point is strictly inside, off every
    /// boundary on which two functions tie. One LP in `d + 1` variables; at
    /// `d = 1`, the interval's midpoint.
    pub fn witness_point(&self) -> Option<Vec<f64>> {
        let d = self.dims();
        if d == 1 {
            let (lo, hi) = self.interval_1d()?;
            return Some(vec![(lo + hi) / 2.0]);
        }
        // Variables (x, r): maximise r subject to `±(a·x + c) ≥ r·‖a‖` for
        // every half-space (`s·a·x + ‖a‖·r ≤ −s·c`, s = −1 on the closed
        // side) and `r ≤ x_k − l_k`, `r ≤ u_k − x_k` for every box face.
        let width = (self.domain.lower.iter().zip(&self.domain.upper))
            .map(|(l, u)| u - l)
            .fold(0.0, f64::max);
        let (mut rows, mut rhs) = (Vec::new(), Vec::new());
        for hs in &self.halfspaces {
            let sign = if hs.non_negative { -1.0 } else { 1.0 };
            let norm = hs.coeffs.iter().map(|a| a * a).sum::<f64>().sqrt();
            rows.extend(hs.coeffs.iter().map(|a| sign * a));
            rows.push(norm);
            rhs.push(-sign * hs.constant);
        }
        for (k, (l, u)) in self.domain.lower.iter().zip(&self.domain.upper).enumerate() {
            for (sign, bound) in [(-1.0, -l), (1.0, *u)] {
                let start = rows.len();
                rows.resize(start + d + 1, 0.0);
                rows[start + k] = sign;
                rows[start + d] = 1.0;
                rhs.push(bound);
            }
        }
        let mut objective = vec![0.0; d + 1];
        objective[d] = 1.0;
        let lower: Vec<f64> = self.domain.lower.iter().copied().chain([0.0]).collect();
        let upper: Vec<f64> = self.domain.upper.iter().copied().chain([width]).collect();
        let rows = rows
            .chunks_exact(d + 1)
            .zip(rhs)
            .map(|(row, b)| (row, 1.0, b));
        let mut centre = solve_rows(&objective, &lower, &upper, rows)
            .point()?
            .to_vec();
        centre.truncate(d);
        Some(centre)
    }

    /// The maximum (or minimum) of the linear form `coeffs·x + constant`
    /// over the subdomain, or `None` if the subdomain is empty.
    pub fn linear_extreme(&self, coeffs: &[f64], constant: f64, maximum: bool) -> Option<f64> {
        if self.dims() == 1 {
            let (lo, hi) = self.interval_1d()?;
            let a = coeffs[0];
            let (v1, v2) = (a * lo + constant, a * hi + constant);
            return Some(if maximum { v1.max(v2) } else { v1.min(v2) });
        }
        let sign = if maximum { 1.0 } else { -1.0 };
        let objective: Vec<f64> = coeffs.iter().map(|v| sign * v).collect();
        Some(sign * self.maximize(&objective).value()? + constant)
    }

    /// The range `[min, max]` of the linear form `coeffs·x + constant` over
    /// the subdomain, or `None` if the subdomain is empty.
    pub fn linear_range(&self, coeffs: &[f64], constant: f64) -> Option<(f64, f64)> {
        let max = self.linear_extreme(coeffs, constant, true)?;
        Some((self.linear_extreme(coeffs, constant, false)?, max))
    }

    /// Canonical byte encoding of the constraint system (domain + ordered
    /// half-spaces). This is `B_i` in the paper's signature-mesh digests and
    /// the "set of inequality functions" hashed by the multi-signature
    /// scheme.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = self.domain.canonical_bytes();
        out.extend_from_slice(&(self.halfspaces.len() as u32).to_be_bytes());
        for hs in &self.halfspaces {
            out.extend_from_slice(&hs.canonical_bytes());
        }
        out
    }

    /// SHA-256 digest of the canonical bytes.
    pub fn digest(&self) -> Digest {
        sha256(&self.canonical_bytes())
    }
}

/// Digest of an ordered set of half-spaces (order-sensitive). The
/// multi-signature scheme signs `H(H(inequalities) | subdomain_root_hash)`:
/// the owner over each subdomain's facets, picked from its path without
/// copying them, the verifying client over the half-spaces a verification
/// object carries, so both compute it from a bare sequence.
pub fn inequality_set_digest<'a>(
    halfspaces: impl IntoIterator<Item = &'a HalfSpace, IntoIter: ExactSizeIterator>,
) -> Digest {
    let halfspaces = halfspaces.into_iter();
    let mut h = Sha256::new();
    h.update(&(halfspaces.len() as u32).to_be_bytes());
    for hs in halfspaces {
        h.update(&hs.digest());
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{FuncId, LinearFunction};

    fn lf(id: u32, coeffs: Vec<f64>, c: f64) -> LinearFunction {
        LinearFunction::new(FuncId(id), coeffs, c)
    }

    #[test]
    fn whole_domain_is_feasible_and_contains_center() {
        let s = SubdomainConstraints::whole(Domain::unit(2));
        assert!(s.is_feasible());
        assert!(s.contains(&[0.5, 0.5]));
        let w = s.witness_point().unwrap();
        assert!(s.contains(&w));
    }

    #[test]
    fn halfspace_restricts_membership() {
        let f1 = lf(0, vec![1.0, 0.0], 0.0);
        let f2 = lf(1, vec![0.0, 1.0], 0.0);
        // x >= y within the unit square.
        let s = SubdomainConstraints::whole(Domain::unit(2)).with(HalfSpace::above(&f1, &f2));
        assert!(s.contains(&[0.8, 0.2]));
        assert!(!s.contains(&[0.2, 0.8]));
        assert!(s.is_feasible());
        let w = s.witness_point().unwrap();
        assert!(s.contains(&w), "witness {w:?} not in subdomain");
    }

    #[test]
    fn the_witness_of_a_cone_keeps_clear_of_every_boundary() {
        // x0 ≥ x1 ≥ x2 in the unit cube: a cone whose coordinate minimisers
        // are all the origin, so the mean of the extreme points lies on the
        // face x1 = x2. The centre of the largest ball keeps a distance
        // from every half-space and every face.
        let f = |id, coeffs| lf(id, coeffs, 0.0);
        let (f0, f1, f2) = (
            f(0, vec![1.0, 0.0, 0.0]),
            f(1, vec![0.0, 1.0, 0.0]),
            f(2, vec![0.0, 0.0, 1.0]),
        );
        let s = SubdomainConstraints::whole(Domain::unit(3))
            .with(HalfSpace::above(&f0, &f1))
            .with(HalfSpace::above(&f1, &f2));
        let w = s.witness_point().unwrap();
        let clearance = s.halfspaces.iter().map(|h| h.eval(&w).abs());
        let faces = w.iter().flat_map(|v| [*v, 1.0 - v]);
        assert!(clearance.chain(faces).all(|gap| gap > 0.05), "{w:?}");
    }

    #[test]
    fn contradictory_constraints_are_infeasible() {
        let hs_pos = HalfSpace::raw(vec![1.0, 0.0], -0.9, true); // x >= 0.9
        let hs_neg = HalfSpace::raw(vec![1.0, 0.0], -0.1, false); // x < 0.1
        let s = SubdomainConstraints::whole(Domain::unit(2))
            .with(hs_pos)
            .with(hs_neg);
        assert!(!s.is_feasible());
        assert!(s.witness_point().is_none());
    }

    #[test]
    fn linear_range_over_unit_square() {
        let s = SubdomainConstraints::whole(Domain::unit(2));
        let (min, max) = s.linear_range(&[1.0, 1.0], 0.0).unwrap();
        assert!((min - 0.0).abs() < 1e-7);
        assert!((max - 2.0).abs() < 1e-7);
        let (min, max) = s.linear_range(&[2.0, -1.0], 0.5).unwrap();
        assert!((min - (-0.5)).abs() < 1e-7);
        assert!((max - 2.5).abs() < 1e-7);
    }

    #[test]
    fn linear_range_respects_halfspaces() {
        // Restrict to x + y <= 1 (i.e. -(x+y) + 1 >= 0... easier raw form).
        let hs = HalfSpace::raw(vec![-1.0, -1.0], 1.0, true); // 1 - x - y >= 0
        let s = SubdomainConstraints::whole(Domain::unit(2)).with(hs);
        let (_, max) = s.linear_range(&[1.0, 1.0], 0.0).unwrap();
        assert!((max - 1.0).abs() < 1e-7);
    }

    #[test]
    fn with_does_not_mutate_original() {
        let base = SubdomainConstraints::whole(Domain::unit(1));
        let extended = base.with(HalfSpace::raw(vec![1.0], -0.5, true));
        assert_eq!(base.halfspaces.len(), 0);
        assert_eq!(extended.halfspaces.len(), 1);
    }

    #[test]
    fn digests_depend_on_constraints_and_order() {
        let a = HalfSpace::raw(vec![1.0], -0.2, true);
        let b = HalfSpace::raw(vec![1.0], -0.7, false);
        let s1 = SubdomainConstraints::whole(Domain::unit(1))
            .with(a.clone())
            .with(b.clone());
        let s2 = SubdomainConstraints::whole(Domain::unit(1)).with(b).with(a);
        assert_ne!(s1.digest(), s2.digest());
        assert_ne!(
            inequality_set_digest(&s1.halfspaces),
            inequality_set_digest(&s2.halfspaces)
        );
        assert_eq!(s1.digest(), s1.clone().digest());
    }

    #[test]
    fn empty_intersection_of_box_detected() {
        // Domain [0,1], constraint x >= 2 is infeasible inside the box.
        let s = SubdomainConstraints::whole(Domain::unit(1)).with(HalfSpace::raw(
            vec![1.0],
            -2.0,
            true,
        ));
        assert!(!s.is_feasible());
    }
}
