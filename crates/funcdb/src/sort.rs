//! Sorting functions by their score at a point.
//!
//! Inside one subdomain the relative order of the functions is invariant
//! (theorem of function sortability, paper Sec. 2.3.1), so sorting at any
//! witness point of the subdomain yields *the* sorted function list for that
//! subdomain.

use crate::function::{FuncId, LinearFunction};

/// Sorts function ids ascending by `f(x)`, breaking exact ties by id so the
/// order is total and deterministic (ties can only occur on intersection
/// boundaries or for duplicate affine maps).
pub fn sort_functions_at(functions: &[LinearFunction], x: &[f64]) -> Vec<FuncId> {
    let mut scored: Vec<(f64, FuncId)> = functions.iter().map(|f| (f.eval(x), f.id)).collect();
    scored.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    scored.into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lf(id: u32, coeffs: Vec<f64>, c: f64) -> LinearFunction {
        LinearFunction::new(FuncId(id), coeffs, c)
    }

    #[test]
    fn sorts_ascending_by_value() {
        let fs = vec![
            lf(0, vec![1.0], 0.0),  // x
            lf(1, vec![-1.0], 1.0), // 1 - x
            lf(2, vec![0.0], 0.4),  // 0.4
        ];
        // At x = 0.1: values are 0.1, 0.9, 0.4 -> order 0, 2, 1
        assert_eq!(
            sort_functions_at(&fs, &[0.1]),
            vec![FuncId(0), FuncId(2), FuncId(1)]
        );
        // At x = 0.9: values are 0.9, 0.1, 0.4 -> order 1, 2, 0
        assert_eq!(
            sort_functions_at(&fs, &[0.9]),
            vec![FuncId(1), FuncId(2), FuncId(0)]
        );
    }

    #[test]
    fn ties_break_by_id() {
        let fs = vec![lf(1, vec![0.0], 0.5), lf(0, vec![0.0], 0.5)];
        // Note the slice order is id 1, id 0; ties must sort by id.
        assert_eq!(sort_functions_at(&fs, &[0.3]), vec![FuncId(0), FuncId(1)]);
    }

    #[test]
    fn ranks_are_inverse_of_order() {
        let fs = vec![
            lf(0, vec![1.0, 0.0], 0.0),
            lf(1, vec![0.0, 1.0], 0.0),
            lf(2, vec![1.0, 1.0], 0.0),
        ];
        let x = [0.2, 0.7];
        let order = sort_functions_at(&fs, &x);
        // The order is a permutation: each id takes exactly one position.
        let mut ranks = vec![usize::MAX; fs.len()];
        for (pos, id) in order.iter().enumerate() {
            ranks[id.index()] = pos;
        }
        for (pos, id) in order.iter().enumerate() {
            assert_eq!(ranks[id.index()], pos);
        }
        assert!(ranks.iter().all(|&rank| rank < fs.len()));
    }

    #[test]
    fn empty_input() {
        assert!(sort_functions_at(&[], &[0.5]).is_empty());
    }
}
