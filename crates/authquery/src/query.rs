//! Analytic query types and result-window selection.

use std::ops::Range;

/// The three representative analytic query types of the paper (Sec. 2.1).
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// `q = (X, k)`: the k records with the highest scores under `X`.
    TopK {
        /// Query weight vector `X`.
        weights: Vec<f64>,
        /// Number of results requested.
        k: usize,
    },
    /// `q = (X, l, u)`: records whose score lies within `[l, u]`.
    Range {
        /// Query weight vector `X`.
        weights: Vec<f64>,
        /// Lower bound (inclusive).
        lower: f64,
        /// Upper bound (inclusive).
        upper: f64,
    },
    /// `q = (X, k, y)`: the k records whose scores are nearest to `y`.
    Knn {
        /// Query weight vector `X`.
        weights: Vec<f64>,
        /// Number of neighbours requested.
        k: usize,
        /// Target score value `y`.
        target: f64,
    },
}

/// Coarse classification of a [`Query`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Top-k query.
    TopK,
    /// Range query.
    Range,
    /// K-nearest-neighbour query.
    Knn,
}

impl Query {
    /// Builds a top-k query.
    pub fn top_k(weights: Vec<f64>, k: usize) -> Self {
        Query::TopK { weights, k }
    }

    /// Builds a range query. Panics if `lower > upper`.
    pub fn range(weights: Vec<f64>, lower: f64, upper: f64) -> Self {
        assert!(lower <= upper, "range query with lower > upper");
        Query::Range {
            weights,
            lower,
            upper,
        }
    }

    /// Builds a KNN query.
    pub fn knn(weights: Vec<f64>, k: usize, target: f64) -> Self {
        Query::Knn { weights, k, target }
    }

    /// The query's weight vector `X`.
    pub fn weights(&self) -> &[f64] {
        match self {
            Query::TopK { weights, .. }
            | Query::Range { weights, .. }
            | Query::Knn { weights, .. } => weights,
        }
    }

    /// The query kind.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::TopK { .. } => QueryKind::TopK,
            Query::Range { .. } => QueryKind::Range,
            Query::Knn { .. } => QueryKind::Knn,
        }
    }

    /// Selects the contiguous window of an *ascending* list of `n` scores
    /// that answers this query, reading `score(i)` (the i-th record's score
    /// in the subdomain's sorted order) only where the search looks: a
    /// top-k query reads none, a range query two bisections, a KNN query one
    /// bisection and then, in one call of `scores(positions)`, the at most
    /// `2k` positions within `k` of where it ended.
    ///
    /// Returns the half-open window of positions. An empty answer is the
    /// empty range `p..p` at the position the answer would have started:
    /// the first score at or above the lower bound for a range query, `n`
    /// otherwise.
    ///
    /// The bisection probes the positions the standard library's
    /// `slice::partition_point` probes (as of Rust 1.95). So on a list that
    /// is not ascending at the query point, a sliver whose signed order does
    /// not hold there, the window is still the one a search over the whole
    /// score vector would choose. The client re-scores what it receives
    /// either way.
    pub fn select_window_by(
        &self,
        n: usize,
        mut score: impl FnMut(usize) -> f64,
        scores: impl FnOnce(Range<usize>) -> Vec<f64>,
    ) -> Range<usize> {
        match self {
            Query::TopK { k, .. } => n - (*k).min(n)..n,
            Query::Range { lower, upper, .. } => {
                let start = partition_point(n, |i| score(i) < *lower);
                // `end >= start` on any list, ascending or not: the two
                // searches step alike until the second moves right of the
                // first, since `score < lower` implies `score <= upper`.
                let end = partition_point(n, |i| score(i) <= *upper);
                start..end
            }
            Query::Knn { k, target, .. } => {
                let k = (*k).min(n);
                if k == 0 {
                    return n..n;
                }
                // Insertion point of the target, then grow the window towards
                // whichever side is closer until it holds k records.
                let mut left = partition_point(n, |i| score(i) < *target);
                let first = left.saturating_sub(k);
                let near = scores(first..(left + k).min(n));
                let score = |i: usize| near[i - first];
                let mut right = left;
                while right - left < k {
                    // The nearer of the next candidates, the left one on a tie.
                    let take_left = left > 0
                        && (right == n
                            || (target - score(left - 1)).abs() <= (score(right) - target).abs());
                    if take_left {
                        left -= 1;
                    } else {
                        right += 1;
                    }
                }
                left..right
            }
        }
    }

    /// [`select_window_by`](Self::select_window_by) over scores already in
    /// hand: `Some((start, end))`, inclusive, or `None` when the answer is
    /// empty. The sharded client merges legs with it.
    pub fn select_window(&self, scores: &[f64]) -> Option<(usize, usize)> {
        let window = self.select_window_by(scores.len(), |i| scores[i], |r| scores[r].to_vec());
        (!window.is_empty()).then(|| (window.start, window.end - 1))
    }
}

/// The first of `0..n` at which `pred` is false, for a `pred` that is true
/// on a prefix: `slice::partition_point`'s search over positions rather
/// than a slice, calling `pred` at the same positions in the same order
/// (⌈log₂ n⌉ + 1 calls).
fn partition_point(n: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    if n == 0 {
        return 0;
    }
    let mut base = 0;
    let mut size = n;
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        if pred(mid) {
            base = mid;
        }
        size -= half;
    }
    base + usize::from(pred(base))
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Query::TopK { weights, k } => write!(f, "top-{k} @ {weights:?}"),
            Query::Range {
                weights,
                lower,
                upper,
            } => {
                write!(f, "range [{lower}, {upper}] @ {weights:?}")
            }
            Query::Knn { weights, k, target } => write!(f, "{k}-NN of {target} @ {weights:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    const SCORES: [f64; 6] = [0.1, 0.2, 0.4, 0.5, 0.7, 0.9];

    #[test]
    fn top_k_selects_suffix() {
        let q = Query::top_k(vec![0.5], 2);
        assert_eq!(q.select_window(&SCORES), Some((4, 5)));
        let q = Query::top_k(vec![0.5], 100);
        assert_eq!(q.select_window(&SCORES), Some((0, 5)));
        let q = Query::top_k(vec![0.5], 0);
        assert_eq!(q.select_window(&SCORES), None);
    }

    #[test]
    fn range_selects_inclusive_window() {
        let q = Query::range(vec![0.5], 0.2, 0.5);
        assert_eq!(q.select_window(&SCORES), Some((1, 3)));
        let q = Query::range(vec![0.5], 0.15, 0.15);
        assert_eq!(q.select_window(&SCORES), None);
        let q = Query::range(vec![0.5], -1.0, 2.0);
        assert_eq!(q.select_window(&SCORES), Some((0, 5)));
        // Boundaries exactly on scores are included.
        let q = Query::range(vec![0.5], 0.4, 0.7);
        assert_eq!(q.select_window(&SCORES), Some((2, 4)));
    }

    #[test]
    fn knn_grows_around_target() {
        let q = Query::knn(vec![0.5], 3, 0.45);
        // Closest to 0.45: 0.4 (0.05), 0.5 (0.05), 0.2 (0.25) or 0.7 (0.25)
        let (s, e) = q.select_window(&SCORES).unwrap();
        assert_eq!(e - s + 1, 3);
        assert!(s <= 2 && e >= 3, "window must contain 0.4 and 0.5");
        // k larger than n clips to the whole list.
        let q = Query::knn(vec![0.5], 10, 0.45);
        assert_eq!(q.select_window(&SCORES), Some((0, 5)));
    }

    #[test]
    fn knn_at_extremes() {
        let q = Query::knn(vec![0.5], 2, -5.0);
        assert_eq!(q.select_window(&SCORES), Some((0, 1)));
        let q = Query::knn(vec![0.5], 2, 5.0);
        assert_eq!(q.select_window(&SCORES), Some((4, 5)));
    }

    #[test]
    fn empty_score_list() {
        for q in [
            Query::top_k(vec![0.5], 3),
            Query::range(vec![0.5], 0.0, 1.0),
            Query::knn(vec![0.5], 3, 0.5),
        ] {
            assert_eq!(q.select_window(&[]), None);
        }
    }

    #[test]
    fn accessors() {
        let q = Query::range(vec![0.1, 0.2], 0.0, 1.0);
        assert_eq!(q.weights(), &[0.1, 0.2]);
        assert_eq!(q.kind(), QueryKind::Range);
        assert!(q.to_string().contains("range"));
    }

    #[test]
    #[should_panic(expected = "lower > upper")]
    fn invalid_range_panics() {
        let _ = Query::range(vec![0.5], 1.0, 0.0);
    }

    /// The reference selector: the whole score list in hand and
    /// `slice::partition_point` on it, an empty range answer placed at the
    /// first score at or above the lower bound.
    fn reference_window(query: &Query, scores: &[f64]) -> Range<usize> {
        let n = scores.len();
        match query {
            Query::TopK { k, .. } => n - (*k).min(n)..n,
            Query::Range { lower, upper, .. } => {
                let start = scores.partition_point(|s| s < lower);
                let end = scores.partition_point(|s| s <= upper);
                start..end.max(start)
            }
            Query::Knn { k, target, .. } => {
                let k = (*k).min(n);
                if k == 0 {
                    return n..n;
                }
                let mut left = scores.partition_point(|s| s < target);
                let mut right = left;
                while right - left < k {
                    let take_left = right == n
                        || (left > 0
                            && (target - scores[left - 1]).abs() <= (scores[right] - target).abs());
                    if take_left {
                        left -= 1;
                    } else {
                        right += 1;
                    }
                }
                left..right
            }
        }
    }

    /// Every query the selector property runs over `scores`: each kind, k in
    /// {0, 1, 5, n, n + 3}, and bounds and targets on a score, between two,
    /// and outside the list.
    fn queries_over(scores: &[f64]) -> Vec<Query> {
        let n = scores.len();
        let mut points = vec![-1.0, 1e6];
        for (i, s) in scores.iter().enumerate().step_by(1 + n / 8) {
            points.push(*s);
            if let Some(next) = scores.get(i + 1) {
                points.push((s + next) / 2.0);
            }
        }
        let mut queries = Vec::new();
        for k in [0, 1, 5, n, n + 3] {
            queries.push(Query::top_k(vec![0.5], k));
            for target in &points {
                queries.push(Query::knn(vec![0.5], k, *target));
            }
        }
        for lower in &points {
            for upper in points.iter().filter(|upper| *upper >= lower) {
                queries.push(Query::range(vec![0.5], *lower, *upper));
            }
        }
        queries
    }

    fn ceil_log2(m: usize) -> usize {
        m.next_power_of_two().trailing_zeros() as usize
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]
        #[test]
        fn prop_lazy_window_equals_the_slice_search_within_a_logarithmic_count(
            raw in proptest::collection::vec(0u32..1_000_000, 0..=300),
            spread in 1u32..400,
            swaps in 1usize..64,
        ) {
            // Few distinct values when `spread` is small: long runs of ties.
            let mut scores: Vec<f64> = raw.iter().map(|v| f64::from(v % spread) * 0.25).collect();
            scores.sort_by(f64::total_cmp);
            let n = scores.len();
            for query in queries_over(&scores) {
                let calls = Cell::new(0usize);
                let window = query.select_window_by(
                    n,
                    |i| {
                        calls.set(calls.get() + 1);
                        scores[i]
                    },
                    |r| {
                        calls.set(calls.get() + r.len());
                        scores[r].to_vec()
                    },
                );
                proptest::prop_assert_eq!(window.clone(), reference_window(&query, &scores), "{}", query);
                let k = match &query {
                    Query::TopK { k, .. } | Query::Knn { k, .. } => (*k).min(n),
                    Query::Range { .. } => 0,
                };
                let bound = 2 * ceil_log2(n + 1) + 2 * k + 2;
                proptest::prop_assert!(calls.get() <= bound, "{}: {} > {}", query, calls.get(), bound);
                let expected = (!window.is_empty()).then(|| (window.start, window.end - 1));
                proptest::prop_assert_eq!(query.select_window(&scores), expected);
            }
            // Out of order (a sliver whose signed order does not hold at the
            // query point): the probes are the slice search's, so the window
            // still is too.
            let mut shuffled = scores.clone();
            for v in raw.iter().take(swaps) {
                let v = *v as usize;
                shuffled.swap(v % n, v / 1000 % n);
            }
            for query in queries_over(&scores) {
                let window = query.select_window_by(n, |i| shuffled[i], |r| shuffled[r].to_vec());
                proptest::prop_assert_eq!(window, reference_window(&query, &shuffled), "{}", query);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_selected_window_answers_query(
            mut scores in proptest::collection::vec(0.0f64..100.0, 1..40),
            kind in 0usize..3,
            k in 1usize..10,
            a in 0.0f64..100.0,
            b in 0.0f64..100.0,
        ) {
            scores.sort_by(|x, y| x.partial_cmp(y).unwrap());
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let q = match kind {
                0 => Query::top_k(vec![0.0], k),
                1 => Query::range(vec![0.0], lo, hi),
                _ => Query::knn(vec![0.0], k, a),
            };
            match q.select_window(&scores) {
                None => {
                    match &q {
                        Query::Range { lower, upper, .. } => {
                            proptest::prop_assert!(scores.iter().all(|s| s < lower || s > upper));
                        }
                        _ => proptest::prop_assert!(false, "top-k/knn with k>=1 over a non-empty list cannot be empty"),
                    }
                }
                Some((s, e)) => {
                    proptest::prop_assert!(s <= e && e < scores.len());
                    match &q {
                        Query::TopK { k, .. } => {
                            proptest::prop_assert_eq!(e, scores.len() - 1);
                            proptest::prop_assert_eq!(e - s + 1, (*k).min(scores.len()));
                        }
                        Query::Range { lower, upper, .. } => {
                            for score in scores.iter().take(e + 1).skip(s) {
                                proptest::prop_assert!(score >= lower && score <= upper);
                            }
                            if s > 0 { proptest::prop_assert!(scores[s - 1] < *lower); }
                            if e + 1 < scores.len() { proptest::prop_assert!(scores[e + 1] > *upper); }
                        }
                        Query::Knn { k, target, .. } => {
                            proptest::prop_assert_eq!(e - s + 1, (*k).min(scores.len()));
                            // No excluded record is strictly closer than an included one.
                            let worst_included = (s..=e)
                                .map(|i| (scores[i] - target).abs())
                                .fold(0.0f64, f64::max);
                            if s > 0 {
                                proptest::prop_assert!((scores[s - 1] - target).abs() >= worst_included - 1e-9);
                            }
                            if e + 1 < scores.len() {
                                proptest::prop_assert!((scores[e + 1] - target).abs() >= worst_included - 1e-9);
                            }
                        }
                    }
                }
            }
        }
    }
}
