//! Linear functions derived from records.

use vaq_crypto::sha256::{sha256, Digest};

/// Index of a function in the dataset's function list.
///
/// The special values [`FuncId::MIN_SENTINEL`] and [`FuncId::MAX_SENTINEL`]
/// denote the `f_min` / `f_max` boundary tokens that the paper appends to
/// every sorted function list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The `f_min` sentinel, smaller than every real function everywhere.
    pub const MIN_SENTINEL: FuncId = FuncId(u32::MAX - 1);
    /// The `f_max` sentinel, larger than every real function everywhere.
    pub const MAX_SENTINEL: FuncId = FuncId(u32::MAX);

    /// True if this id denotes one of the two sentinels.
    pub fn is_sentinel(&self) -> bool {
        *self == Self::MIN_SENTINEL || *self == Self::MAX_SENTINEL
    }

    /// Index into the dataset's function vector. Panics on sentinels.
    pub fn index(&self) -> usize {
        assert!(!self.is_sentinel(), "sentinel FuncId has no index");
        self.0 as usize
    }
}

/// A linear scoring function `f(X) = coeffs · X + constant`.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearFunction {
    /// Which function this is (position in the dataset).
    pub id: FuncId,
    /// One coefficient per weight variable.
    pub coeffs: Vec<f64>,
    /// Additive constant (zero for template-derived functions, but kept so
    /// synthetic test functions can use arbitrary affine forms).
    pub constant: f64,
}

impl LinearFunction {
    /// Creates a linear function.
    pub fn new(id: FuncId, coeffs: Vec<f64>, constant: f64) -> Self {
        LinearFunction {
            id,
            coeffs,
            constant,
        }
    }

    /// Number of variables.
    pub fn dims(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluates the function at the weight vector `x`.
    ///
    /// Panics if the dimensionality does not match.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coeffs.len(), "dimension mismatch in eval");
        self.coeffs
            .iter()
            .zip(x.iter())
            .map(|(c, v)| c * v)
            .sum::<f64>()
            + self.constant
    }

    /// Returns the difference function `self − other` as coefficient/constant
    /// vectors (`g(X) = self(X) − other(X)`); the zero set of `g` is the
    /// intersection hyperplane `I_{i,j}` of the paper.
    pub fn difference(&self, other: &LinearFunction) -> (Vec<f64>, f64) {
        let mut coeffs = Vec::with_capacity(self.dims());
        let constant = self.difference_into(other, &mut coeffs);
        (coeffs, constant)
    }

    /// [`difference`](Self::difference) into a buffer the caller reuses:
    /// `coeffs` is overwritten, the constant returned.
    #[inline]
    pub fn difference_into(&self, other: &LinearFunction, coeffs: &mut Vec<f64>) -> f64 {
        assert_eq!(self.dims(), other.dims(), "dimension mismatch");
        coeffs.clear();
        coeffs.extend(self.coeffs.iter().zip(&other.coeffs).map(|(a, b)| a - b));
        self.constant - other.constant
    }

    /// True if the two functions are identical as affine maps (parallel and
    /// equal); such pairs never intersect transversally.
    #[inline]
    pub fn same_map(&self, other: &LinearFunction) -> bool {
        assert_eq!(self.dims(), other.dims(), "dimension mismatch");
        let mut diffs = self.coeffs.iter().zip(&other.coeffs).map(|(a, b)| a - b);
        diffs.all(|v| v.abs() < crate::EPS) && (self.constant - other.constant).abs() < crate::EPS
    }

    /// Canonical byte encoding (id, coefficients, constant) used when the
    /// authenticated structures hash a *function* rather than the underlying
    /// record.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.coeffs.len() * 8 + 8);
        out.extend_from_slice(&self.id.0.to_be_bytes());
        for c in &self.coeffs {
            out.extend_from_slice(&c.to_be_bytes());
        }
        out.extend_from_slice(&self.constant.to_be_bytes());
        out
    }

    /// SHA-256 digest of [`canonical_bytes`](Self::canonical_bytes).
    pub fn digest(&self) -> Digest {
        sha256(&self.canonical_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(id: u32, coeffs: Vec<f64>, c: f64) -> LinearFunction {
        LinearFunction::new(FuncId(id), coeffs, c)
    }

    #[test]
    fn eval_univariate() {
        let g = f(0, vec![2.0], 1.0);
        assert_eq!(g.eval(&[0.0]), 1.0);
        assert_eq!(g.eval(&[3.0]), 7.0);
    }

    #[test]
    fn eval_multivariate() {
        let g = f(0, vec![1.0, -2.0, 0.5], 4.0);
        assert!((g.eval(&[2.0, 1.0, 4.0]) - (2.0 - 2.0 + 2.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn eval_dimension_mismatch_panics() {
        let g = f(0, vec![1.0, 2.0], 0.0);
        let _ = g.eval(&[1.0]);
    }

    #[test]
    fn difference_is_affine_subtraction() {
        let a = f(0, vec![3.0, 1.0], 2.0);
        let b = f(1, vec![1.0, 4.0], -1.0);
        let (coeffs, c) = a.difference(&b);
        assert_eq!(coeffs, vec![2.0, -3.0]);
        assert_eq!(c, 3.0);
        // g(x) must equal a(x) - b(x) at arbitrary points.
        for x in [[0.5, 0.25], [10.0, -3.0]] {
            let g = coeffs[0] * x[0] + coeffs[1] * x[1] + c;
            assert!((g - (a.eval(&x) - b.eval(&x))).abs() < 1e-12);
        }
    }

    #[test]
    fn same_map_detects_duplicates() {
        let a = f(0, vec![1.0, 2.0], 3.0);
        let b = f(1, vec![1.0, 2.0], 3.0);
        let c = f(2, vec![1.0, 2.0], 3.5);
        assert!(a.same_map(&b));
        assert!(!a.same_map(&c));
    }

    #[test]
    fn sentinels_behave() {
        assert!(FuncId::MIN_SENTINEL.is_sentinel());
        assert!(FuncId::MAX_SENTINEL.is_sentinel());
        assert!(!FuncId(0).is_sentinel());
        assert_eq!(FuncId(5).index(), 5);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sentinel_index_panics() {
        let _ = FuncId::MAX_SENTINEL.index();
    }

    #[test]
    fn digest_distinguishes_functions() {
        let a = f(0, vec![1.0, 2.0], 0.0);
        let b = f(1, vec![1.0, 2.0], 0.0);
        let c = f(0, vec![1.0, 2.000001], 0.0);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }
}
