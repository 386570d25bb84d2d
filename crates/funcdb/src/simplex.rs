//! A dense two-phase simplex solver for small linear programs.
//!
//! The I-tree construction (and therefore the IFMH-tree and the signature
//! mesh) repeatedly asks: *does the hyperplane `f_i − f_j = 0` pass through
//! this polytope?* and *give me a witness point of this polytope*. Both are
//! linear programs over a handful of variables (the weight dimension `d`,
//! typically 1–4) with up to a few hundred constraints (the path of
//! inequalities accumulated down the tree plus the domain box).
//!
//! [`LpProblem`] models `maximize c·x` subject to `A x ≤ b` and box bounds
//! `lower ≤ x ≤ upper`. Internally variables are shifted to be non-negative
//! and upper bounds become ordinary rows, giving the textbook standard form
//! solved with a two-phase tableau simplex using Bland's rule (no cycling).

/// Outcome of solving a linear program.
#[derive(Clone, Debug, PartialEq)]
pub enum LpOutcome {
    /// The optimum was found: objective value and an optimal point.
    Optimal {
        /// Optimal objective value.
        value: f64,
        /// A point achieving the optimum (in original, unshifted coordinates).
        point: Vec<f64>,
    },
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// Convenience accessor: the optimal value, if any.
    pub fn value(&self) -> Option<f64> {
        match self {
            LpOutcome::Optimal { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// Convenience accessor: the optimal point, if any.
    pub fn point(&self) -> Option<&[f64]> {
        match self {
            LpOutcome::Optimal { point, .. } => Some(point),
            _ => None,
        }
    }

    /// True if the program was feasible.
    pub fn is_feasible(&self) -> bool {
        !matches!(self, LpOutcome::Infeasible)
    }
}

/// A linear program `maximize c·x  s.t.  A x ≤ b,  lower ≤ x ≤ upper`.
#[derive(Clone, Debug)]
pub struct LpProblem {
    /// Objective coefficients.
    pub objective: Vec<f64>,
    /// Constraint matrix rows.
    pub rows: Vec<Vec<f64>>,
    /// Right-hand sides, one per row.
    pub rhs: Vec<f64>,
    /// Per-variable lower bounds.
    pub lower: Vec<f64>,
    /// Per-variable upper bounds.
    pub upper: Vec<f64>,
}

const TOL: f64 = 1e-9;
const MAX_ITERS: usize = 100_000;

impl LpProblem {
    /// Creates a problem with the given box bounds and no rows yet.
    pub fn new(objective: Vec<f64>, lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(objective.len(), lower.len());
        assert_eq!(lower.len(), upper.len());
        LpProblem {
            objective,
            rows: Vec::new(),
            rhs: Vec::new(),
            lower,
            upper,
        }
    }

    /// Adds the constraint `row · x ≤ rhs`.
    pub fn add_le(&mut self, row: Vec<f64>, rhs: f64) {
        assert_eq!(row.len(), self.objective.len());
        self.rows.push(row);
        self.rhs.push(rhs);
    }

    /// Adds the constraint `row · x ≥ rhs` (stored as `−row · x ≤ −rhs`).
    pub fn add_ge(&mut self, row: Vec<f64>, rhs: f64) {
        let neg: Vec<f64> = row.iter().map(|v| -v).collect();
        self.add_le(neg, -rhs);
    }

    /// Solves the program.
    pub fn solve(&self) -> LpOutcome {
        let rows = self.rows.iter().zip(&self.rhs);
        let rows = rows.map(|(row, &rhs)| (row.as_slice(), 1.0, rhs));
        solve_rows(&self.objective, &self.lower, &self.upper, rows)
    }
}

/// Solves `maximize objective·x` subject to `sign · row·x ≤ rhs` for every
/// `(row, sign, rhs)` (`sign` is ±1) and `lower ≤ x ≤ upper`, reading the
/// rows where they lie: only the tableau copies them.
pub(crate) fn solve_rows<'a>(
    objective: &[f64],
    lower: &[f64],
    upper: &[f64],
    rows: impl Iterator<Item = (&'a [f64], f64, f64)>,
) -> LpOutcome {
    // Shift variables so y = x - lower >= 0; upper bounds become rows.
    let dot_lower = |v: &[f64]| v.iter().zip(lower).map(|(a, l)| a * l).sum::<f64>();
    let mut signed: Vec<(&[f64], f64)> = Vec::with_capacity(rows.size_hint().0);
    let mut rhs: Vec<f64> = Vec::with_capacity(rows.size_hint().0 + lower.len());
    for (row, sign, b) in rows {
        // row·x <= b  =>  row·y <= b - row·lower
        signed.push((row, sign));
        rhs.push(b - sign * dot_lower(row));
    }
    for (l, u) in lower.iter().zip(upper) {
        // y_i <= upper_i - lower_i
        if u - l < 0.0 {
            return LpOutcome::Infeasible;
        }
        rhs.push(u - l);
    }

    match simplex_standard(objective, &signed, &rhs) {
        StandardOutcome::Infeasible => LpOutcome::Infeasible,
        StandardOutcome::Unbounded => LpOutcome::Unbounded,
        StandardOutcome::Optimal { value, point } => LpOutcome::Optimal {
            // Undo the shift.
            value: value + dot_lower(objective),
            point: point.iter().zip(lower).map(|(y, l)| y + l).collect(),
        },
    }
}

enum StandardOutcome {
    Optimal { value: f64, point: Vec<f64> },
    Infeasible,
    Unbounded,
}

/// Solves `maximize c·y  s.t.  A y ≤ b, y ≥ 0` (b may be negative) with a
/// two-phase tableau simplex. `A` is the signed rows `sign · row` followed by
/// one unit row per variable (the upper bounds), so `b` is `n` longer than
/// `rows`.
fn simplex_standard(c: &[f64], rows: &[(&[f64], f64)], b: &[f64]) -> StandardOutcome {
    let n = c.len();
    let m = b.len();

    // Tableau columns: [ y (n) | slacks (m) | artificials (k) | rhs ].
    // Rows with negative rhs are negated (turning the slack coefficient to
    // -1) and given an artificial variable.
    let k = b.iter().filter(|&&v| v < 0.0).count();
    let total_cols = n + m + k + 1;
    let rhs_col = total_cols - 1;

    let mut t = vec![vec![0.0; total_cols]; m];
    let mut basis = vec![0usize; m];

    let mut art_index = 0usize;
    for i in 0..m {
        let negate = b[i] < 0.0;
        let sign = if negate { -1.0 } else { 1.0 };
        match rows.get(i) {
            Some(&(row, row_sign)) => {
                for (cell, a) in t[i].iter_mut().zip(row) {
                    *cell = sign * (row_sign * a);
                }
            }
            None => t[i][i - rows.len()] = sign,
        }
        t[i][n + i] = sign; // slack
        t[i][rhs_col] = sign * b[i];
        if negate {
            t[i][n + m + art_index] = 1.0;
            basis[i] = n + m + art_index;
            art_index += 1;
        } else {
            basis[i] = n + i;
        }
    }

    // ---- Phase 1: minimize sum of artificials (maximize their negation) ---
    if k > 0 {
        let mut phase1_obj = vec![0.0; total_cols];
        for j in 0..k {
            phase1_obj[n + m + j] = -1.0;
        }
        let mut z = build_objective_row(&phase1_obj, &t, &basis, rhs_col);
        if !run_simplex(&mut t, &mut z, &mut basis, rhs_col, usize::MAX) {
            // Phase 1 of a bounded-below objective can't be unbounded.
            return StandardOutcome::Infeasible;
        }
        // If artificial variables still carry value, the LP is infeasible.
        if z[rhs_col] < -1e-7 {
            return StandardOutcome::Infeasible;
        }
        // Pivot any basic artificial out of the basis if possible.
        for i in 0..m {
            if basis[i] >= n + m {
                if let Some(j) = (0..n + m).find(|&j| t[i][j].abs() > 1e-7) {
                    pivot(&mut t, &mut z, &mut basis, i, j, rhs_col);
                }
            }
        }
    }

    // ---- Phase 2: original objective, artificial columns frozen ----------
    let mut phase2_obj = vec![0.0; total_cols];
    phase2_obj[..n].copy_from_slice(c);
    let mut z = build_objective_row(&phase2_obj, &t, &basis, rhs_col);
    // Artificial columns must never re-enter: cap eligible columns at n + m.
    if !run_simplex(&mut t, &mut z, &mut basis, rhs_col, n + m) {
        return StandardOutcome::Unbounded;
    }

    // Read off the solution.
    let mut point = vec![0.0; n];
    for (i, &bvar) in basis.iter().enumerate() {
        if bvar < n {
            point[bvar] = t[i][rhs_col];
        }
    }
    StandardOutcome::Optimal {
        value: z[rhs_col],
        point,
    }
}

/// Builds the reduced-cost row for an objective, given the current basis.
fn build_objective_row(obj: &[f64], t: &[Vec<f64>], basis: &[usize], rhs_col: usize) -> Vec<f64> {
    // z_j - c_j form: start with -c_j and add back the basic contributions.
    let total_cols = rhs_col + 1;
    let mut z = vec![0.0; total_cols];
    for (j, &cj) in obj.iter().enumerate() {
        z[j] = -cj;
    }
    for (i, &bvar) in basis.iter().enumerate() {
        let cb = obj[bvar];
        if cb != 0.0 {
            for j in 0..total_cols {
                z[j] += cb * t[i][j];
            }
        }
    }
    z
}

/// Runs simplex iterations until optimality. Returns `false` on
/// unboundedness. `col_limit` restricts which columns may enter the basis
/// (used to freeze artificial columns in phase 2); pass `usize::MAX` to allow
/// all.
fn run_simplex(
    t: &mut [Vec<f64>],
    z: &mut [f64],
    basis: &mut [usize],
    rhs_col: usize,
    col_limit: usize,
) -> bool {
    let eligible = rhs_col.min(col_limit);
    for _ in 0..MAX_ITERS {
        // Bland's rule: smallest index with negative reduced cost.
        let entering = (0..eligible).find(|&j| z[j] < -TOL);
        let entering = match entering {
            Some(j) => j,
            None => return true, // optimal
        };

        // Ratio test, Bland tie-break on the leaving basic variable index.
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for (i, row) in t.iter().enumerate() {
            if row[entering] > TOL {
                let ratio = row[rhs_col] / row[entering];
                if ratio < best_ratio - TOL
                    || ((ratio - best_ratio).abs() <= TOL
                        && leaving.is_none_or(|l| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        let leaving = match leaving {
            Some(i) => i,
            None => return false, // unbounded
        };
        pivot(t, z, basis, leaving, entering, rhs_col);
    }
    // Iteration cap reached — treat as optimal-enough; with Bland's rule this
    // should be unreachable for problems of this size.
    true
}

/// Performs a pivot on (row, col).
fn pivot(
    t: &mut [Vec<f64>],
    z: &mut [f64],
    basis: &mut [usize],
    row: usize,
    col: usize,
    rhs_col: usize,
) {
    let total_cols = rhs_col + 1;
    let pivot_val = t[row][col];
    debug_assert!(pivot_val.abs() > 1e-12, "pivot on (near-)zero element");
    for cell in t[row].iter_mut().take(total_cols) {
        *cell /= pivot_val;
    }
    // Snapshot the normalised pivot row so eliminating the other rows does
    // not alias the mutable borrow of the tableau.
    let pivot_row: Vec<f64> = t[row][..total_cols].to_vec();
    for (i, current) in t.iter_mut().enumerate() {
        if i != row && current[col].abs() > 0.0 {
            let factor = current[col];
            for (cell, pivot_cell) in current.iter_mut().zip(pivot_row.iter()) {
                *cell -= factor * pivot_cell;
            }
        }
    }
    if z[col].abs() > 0.0 {
        let factor = z[col];
        for (cell, pivot_cell) in z.iter_mut().zip(t[row].iter()).take(total_cols) {
            *cell -= factor * pivot_cell;
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_two_var_lp() {
        // maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6, 0 <= x,y <= 10
        let mut lp = LpProblem::new(vec![3.0, 2.0], vec![0.0, 0.0], vec![10.0, 10.0]);
        lp.add_le(vec![1.0, 1.0], 4.0);
        lp.add_le(vec![1.0, 3.0], 6.0);
        match lp.solve() {
            LpOutcome::Optimal { value, point } => {
                assert_close(value, 12.0);
                assert_close(point[0], 4.0);
                assert_close(point[1], 0.0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn lp_with_negative_rhs_needs_phase1() {
        // maximize x s.t. x >= 2 (i.e. -x <= -2), x <= 5
        let mut lp = LpProblem::new(vec![1.0], vec![0.0], vec![10.0]);
        lp.add_ge(vec![1.0], 2.0);
        lp.add_le(vec![1.0], 5.0);
        let out = lp.solve();
        assert_close(out.value().unwrap(), 5.0);
        assert!(out.point().unwrap()[0] >= 2.0 - 1e-9);
    }

    #[test]
    fn infeasible_lp_detected() {
        // x >= 5 and x <= 2 within [0, 10]
        let mut lp = LpProblem::new(vec![1.0], vec![0.0], vec![10.0]);
        lp.add_ge(vec![1.0], 5.0);
        lp.add_le(vec![1.0], 2.0);
        assert_eq!(lp.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn box_bounds_only() {
        // maximize x + y over [0,1]^2 with no extra rows.
        let lp = LpProblem::new(vec![1.0, 1.0], vec![0.0, 0.0], vec![1.0, 1.0]);
        let out = lp.solve();
        assert_close(out.value().unwrap(), 2.0);
    }

    #[test]
    fn minimization_via_negated_objective() {
        // minimize x - y over [0,1]^2 with x + y >= 1
        // => maximize -x + y; optimum at (0,1): value 1.
        let mut lp = LpProblem::new(vec![-1.0, 1.0], vec![0.0, 0.0], vec![1.0, 1.0]);
        lp.add_ge(vec![1.0, 1.0], 1.0);
        let out = lp.solve();
        assert_close(out.value().unwrap(), 1.0);
    }

    #[test]
    fn negative_lower_bounds_are_shifted_correctly() {
        // maximize x over [-5, 5] with x <= 3  => 3
        let mut lp = LpProblem::new(vec![1.0], vec![-5.0], vec![5.0]);
        lp.add_le(vec![1.0], 3.0);
        assert_close(lp.solve().value().unwrap(), 3.0);
        // minimize x (maximize -x) over the same region => x = -5, value 5.
        let mut lp = LpProblem::new(vec![-1.0], vec![-5.0], vec![5.0]);
        lp.add_le(vec![1.0], 3.0);
        let out = lp.solve();
        assert_close(out.value().unwrap(), 5.0);
        assert_close(out.point().unwrap()[0], -5.0);
    }

    #[test]
    fn three_variable_lp() {
        // Classic example: maximize 5x + 4y + 3z
        // s.t. 2x + 3y + z <= 5; 4x + y + 2z <= 11; 3x + 4y + 2z <= 8
        let mut lp = LpProblem::new(
            vec![5.0, 4.0, 3.0],
            vec![0.0, 0.0, 0.0],
            vec![100.0, 100.0, 100.0],
        );
        lp.add_le(vec![2.0, 3.0, 1.0], 5.0);
        lp.add_le(vec![4.0, 1.0, 2.0], 11.0);
        lp.add_le(vec![3.0, 4.0, 2.0], 8.0);
        let out = lp.solve();
        assert_close(out.value().unwrap(), 13.0);
    }

    #[test]
    fn degenerate_point_domain() {
        // lower == upper: the only feasible point is that corner.
        let lp = LpProblem::new(vec![1.0, 1.0], vec![0.5, 0.5], vec![0.5, 0.5]);
        let out = lp.solve();
        assert_close(out.value().unwrap(), 1.0);
        assert_eq!(out.point().unwrap(), &[0.5, 0.5]);
    }

    #[test]
    fn inverted_bounds_are_infeasible() {
        let mut lp = LpProblem::new(vec![1.0], vec![1.0], vec![0.0]);
        lp.add_le(vec![1.0], 10.0);
        // lower > upper should be reported infeasible, not panic.
        let lp = LpProblem {
            lower: vec![1.0],
            upper: vec![0.0],
            ..lp
        };
        assert_eq!(lp.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn optimal_point_satisfies_all_constraints() {
        let mut lp = LpProblem::new(vec![2.0, -1.0, 0.5], vec![0.0; 3], vec![1.0; 3]);
        lp.add_le(vec![1.0, 1.0, 1.0], 1.5);
        lp.add_ge(vec![1.0, 0.0, 1.0], 0.3);
        lp.add_le(vec![-1.0, 2.0, 0.0], 0.8);
        if let LpOutcome::Optimal { point, .. } = lp.solve() {
            assert!(point.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
            assert!(point[0] + point[1] + point[2] <= 1.5 + 1e-7);
            assert!(point[0] + point[2] >= 0.3 - 1e-7);
            assert!(-point[0] + 2.0 * point[1] <= 0.8 + 1e-7);
        } else {
            panic!("expected feasible");
        }
    }

    proptest::proptest! {
        /// Feasibility of random boxes with a supporting constraint through the
        /// centre: the centre itself must remain feasible and the reported
        /// optimum must be at least the value at the centre.
        #[test]
        fn prop_center_feasible(dim in 1usize..4, c0 in -2.0f64..2.0, c1 in -2.0f64..2.0) {
            let lower = vec![0.0; dim];
            let upper = vec![1.0; dim];
            let mut obj = vec![c0; dim];
            if dim > 1 { obj[1] = c1; }
            let mut lp = LpProblem::new(obj.clone(), lower, upper);
            // Constraint passing through the centre: sum(x) <= dim/2 + 0.25
            lp.add_le(vec![1.0; dim], dim as f64 / 2.0 + 0.25);
            let center = vec![0.5; dim];
            let center_val: f64 = obj.iter().zip(center.iter()).map(|(a, b)| a * b).sum();
            match lp.solve() {
                LpOutcome::Optimal { value, point } => {
                    proptest::prop_assert!(value >= center_val - 1e-7);
                    proptest::prop_assert!(point.iter().all(|&v| (-1e-7..=1.0 + 1e-7).contains(&v)));
                    let s: f64 = point.iter().sum();
                    proptest::prop_assert!(s <= dim as f64 / 2.0 + 0.25 + 1e-6);
                }
                other => {
                    proptest::prop_assert!(false, "expected optimal, got {:?}", other);
                }
            }
        }
    }
}
