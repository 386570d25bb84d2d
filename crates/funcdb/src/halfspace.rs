//! Linear half-space constraints.

use crate::function::LinearFunction;
use vaq_crypto::sha256::{sha256, Digest};

/// A closed or open half-space `g(X) = coeffs · X + constant ⋛ 0`.
///
/// In the paper a subdomain is "determined by a set of inequality
/// functions" of exactly this shape: for every intersection `I_{i,j}` on the
/// path from the I-tree root to a subdomain node, the subdomain lies either
/// in `f_i − f_j ≥ 0` (above) or `f_i − f_j < 0` (below).
#[derive(Clone, Debug, PartialEq)]
pub struct HalfSpace {
    /// Coefficients of the difference function `g`.
    pub coeffs: Vec<f64>,
    /// Constant term of `g`.
    pub constant: f64,
    /// `true` for the closed side `g ≥ 0` ("above"), `false` for the open
    /// side `g < 0` ("below").
    pub non_negative: bool,
    /// The pair of function ids whose intersection induced this constraint
    /// (kept for canonical encoding and debugging); `None` for synthetic
    /// constraints.
    pub pair: Option<(u32, u32)>,
}

impl HalfSpace {
    /// Builds the "above" half-space `f_i − f_j ≥ 0`.
    pub fn above(fi: &LinearFunction, fj: &LinearFunction) -> Self {
        let (coeffs, constant) = fi.difference(fj);
        HalfSpace {
            coeffs,
            constant,
            non_negative: true,
            pair: Some((fi.id.0, fj.id.0)),
        }
    }

    /// Builds the "below" half-space `f_i − f_j < 0`.
    pub fn below(fi: &LinearFunction, fj: &LinearFunction) -> Self {
        let (coeffs, constant) = fi.difference(fj);
        HalfSpace {
            coeffs,
            constant,
            non_negative: false,
            pair: Some((fi.id.0, fj.id.0)),
        }
    }

    /// Builds a raw half-space from explicit coefficients.
    pub fn raw(coeffs: Vec<f64>, constant: f64, non_negative: bool) -> Self {
        HalfSpace {
            coeffs,
            constant,
            non_negative,
            pair: None,
        }
    }

    /// The form's coefficients and constant, and whether the non-negative
    /// side is kept: the half-space as `vaq_itree::facets` reads it.
    pub fn side(&self) -> (&[f64], f64, bool) {
        (&self.coeffs, self.constant, self.non_negative)
    }

    /// Number of variables.
    pub fn dims(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluates the underlying linear form `g(x)`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coeffs.len(), "dimension mismatch");
        self.coeffs
            .iter()
            .zip(x.iter())
            .map(|(c, v)| c * v)
            .sum::<f64>()
            + self.constant
    }

    /// True if the point satisfies the constraint (with a small tolerance on
    /// the boundary so the closed/open distinction does not produce gaps
    /// under floating-point noise).
    pub fn satisfied(&self, x: &[f64]) -> bool {
        let g = self.eval(x);
        if self.non_negative {
            g >= -crate::EPS
        } else {
            g < crate::EPS
        }
    }

    /// The complementary half-space (the other side of the same hyperplane).
    pub fn complement(&self) -> Self {
        HalfSpace {
            coeffs: self.coeffs.clone(),
            constant: self.constant,
            non_negative: !self.non_negative,
            pair: self.pair,
        }
    }

    /// Canonical byte encoding for hashing (multi-signature scheme hashes the
    /// set of inequality functions that determine a subdomain).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.coeffs.len() * 8 + 32);
        match self.pair {
            Some((i, j)) => {
                out.push(1);
                out.extend_from_slice(&i.to_be_bytes());
                out.extend_from_slice(&j.to_be_bytes());
            }
            None => out.push(0),
        }
        for c in &self.coeffs {
            out.extend_from_slice(&c.to_be_bytes());
        }
        out.extend_from_slice(&self.constant.to_be_bytes());
        out.push(self.non_negative as u8);
        out
    }

    /// SHA-256 digest of the canonical bytes.
    pub fn digest(&self) -> Digest {
        sha256(&self.canonical_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FuncId;

    fn lf(id: u32, coeffs: Vec<f64>, c: f64) -> LinearFunction {
        LinearFunction::new(FuncId(id), coeffs, c)
    }

    #[test]
    fn above_below_partition_space() {
        let f1 = lf(0, vec![1.0, 0.0], 0.0);
        let f2 = lf(1, vec![0.0, 1.0], 0.0);
        let above = HalfSpace::above(&f1, &f2); // x - y >= 0
        let below = HalfSpace::below(&f1, &f2); // x - y < 0
        assert!(above.satisfied(&[2.0, 1.0]));
        assert!(!above.satisfied(&[1.0, 2.0]));
        assert!(below.satisfied(&[1.0, 2.0]));
        assert!(!below.satisfied(&[2.0, 1.0]));
    }

    #[test]
    fn eval_matches_difference() {
        let f1 = lf(0, vec![2.0, 3.0], 1.0);
        let f2 = lf(1, vec![1.0, -1.0], 0.5);
        let hs = HalfSpace::above(&f1, &f2);
        for x in [[0.1, 0.9], [0.7, 0.2]] {
            assert!((hs.eval(&x) - (f1.eval(&x) - f2.eval(&x))).abs() < 1e-12);
        }
    }

    #[test]
    fn complement_flips_side() {
        let hs = HalfSpace::raw(vec![1.0], -0.5, true); // x >= 0.5
        let comp = hs.complement();
        assert!(hs.satisfied(&[0.7]));
        assert!(!comp.satisfied(&[0.7]));
        assert!(comp.satisfied(&[0.2]));
        assert_eq!(comp.complement(), hs);
    }

    #[test]
    fn boundary_tolerance() {
        let hs = HalfSpace::raw(vec![1.0], -0.5, true);
        // Exactly on the hyperplane counts as satisfied for the closed side.
        assert!(hs.satisfied(&[0.5]));
    }

    #[test]
    fn canonical_bytes_distinguish_sides_and_pairs() {
        let f1 = lf(3, vec![1.0], 0.0);
        let f2 = lf(7, vec![2.0], 0.0);
        let a = HalfSpace::above(&f1, &f2);
        let b = HalfSpace::below(&f1, &f2);
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        assert_ne!(a.digest(), b.digest());
        let raw = HalfSpace::raw(vec![-1.0], 0.0, true);
        assert_ne!(a.canonical_bytes(), raw.canonical_bytes());
    }
}
