//! Axis-aligned box domains for the weight space.

/// The bounded, axis-aligned domain the data owner declares for the weight
/// variables, e.g. `w1, w2, w3 ∈ [0, 1]`.
///
/// The paper's I-tree root represents "the entire domain specified by the
/// data owner"; this type is that domain.
#[derive(Clone, Debug, PartialEq)]
pub struct Domain {
    /// Per-dimension lower bounds (inclusive).
    pub lower: Vec<f64>,
    /// Per-dimension upper bounds (inclusive).
    pub upper: Vec<f64>,
}

impl Domain {
    /// Creates a domain from explicit bounds.
    ///
    /// Panics if the two vectors differ in length or if any lower bound
    /// exceeds the corresponding upper bound.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(lower.len(), upper.len(), "bound vectors must match");
        for (l, u) in lower.iter().zip(upper.iter()) {
            assert!(l <= u, "lower bound {l} exceeds upper bound {u}");
        }
        Domain { lower, upper }
    }

    /// The unit hyper-cube `[0, 1]^d`, the paper's default weight domain.
    pub fn unit(dims: usize) -> Self {
        Domain {
            lower: vec![0.0; dims],
            upper: vec![1.0; dims],
        }
    }

    /// A symmetric cube `[-half, half]^d`.
    pub fn symmetric(dims: usize, half: f64) -> Self {
        Domain {
            lower: vec![-half; dims],
            upper: vec![half; dims],
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lower.len()
    }

    /// True if the point lies inside (or on the boundary of) the box.
    pub fn contains(&self, x: &[f64]) -> bool {
        if x.len() != self.dims() {
            return false;
        }
        x.iter()
            .zip(self.lower.iter().zip(self.upper.iter()))
            .all(|(v, (l, u))| *v >= l - crate::EPS && *v <= u + crate::EPS)
    }

    /// The geometric centre of the box.
    pub fn center(&self) -> Vec<f64> {
        self.lower
            .iter()
            .zip(self.upper.iter())
            .map(|(l, u)| (l + u) / 2.0)
            .collect()
    }

    /// The exact range `[min, max]` of `coeffs·x + constant` over the box:
    /// every term takes its extremes at the box's faces independently.
    #[inline]
    pub fn linear_range(&self, coeffs: &[f64], constant: f64) -> (f64, f64) {
        let (mut min, mut max) = (0.0, 0.0);
        for (c, (l, u)) in coeffs.iter().zip(self.lower.iter().zip(&self.upper)) {
            min += (c * l).min(c * u);
            max += (c * l).max(c * u);
        }
        (min + constant, max + constant)
    }

    /// Canonical byte encoding (for inclusion in subdomain hashes).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.dims() * 16 + 4);
        out.extend_from_slice(&(self.dims() as u32).to_be_bytes());
        for (l, u) in self.lower.iter().zip(self.upper.iter()) {
            out.extend_from_slice(&l.to_be_bytes());
            out.extend_from_slice(&u.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_domain_contains_interior_and_boundary() {
        let d = Domain::unit(3);
        assert!(d.contains(&[0.5, 0.5, 0.5]));
        assert!(d.contains(&[0.0, 1.0, 0.0]));
        assert!(!d.contains(&[1.5, 0.5, 0.5]));
        assert!(!d.contains(&[0.5, 0.5])); // wrong arity
    }

    #[test]
    fn center_is_midpoint() {
        let d = Domain::new(vec![0.0, -2.0], vec![1.0, 4.0]);
        assert_eq!(d.center(), vec![0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn invalid_bounds_panic() {
        let _ = Domain::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn canonical_bytes_distinguish_domains() {
        let a = Domain::unit(2);
        let b = Domain::symmetric(2, 1.0);
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        assert_eq!(a.canonical_bytes(), Domain::unit(2).canonical_bytes());
    }
}
