//! Random query generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vaq_funcdb::{Dataset, Domain};

/// A query specification, independent of any particular index structure.
///
/// The three variants mirror the paper's three representative analytic
/// query types (Sec. 2.1).
#[derive(Clone, Debug, PartialEq)]
pub enum QuerySpec {
    /// `q = (X, k)`: the k records with the highest scores under weights `X`.
    TopK {
        /// Query weight vector.
        weights: Vec<f64>,
        /// Number of results.
        k: usize,
    },
    /// `q = (X, l, u)`: the records whose score lies in `[l, u]`.
    Range {
        /// Query weight vector.
        weights: Vec<f64>,
        /// Lower score bound (inclusive).
        lower: f64,
        /// Upper score bound (inclusive).
        upper: f64,
    },
    /// `q = (X, k, y)`: the k records whose scores are nearest to `y`.
    Knn {
        /// Query weight vector.
        weights: Vec<f64>,
        /// Number of neighbours.
        k: usize,
        /// The target score value.
        target: f64,
    },
}

impl QuerySpec {
    /// The weight vector of the query.
    pub fn weights(&self) -> &[f64] {
        match self {
            QuerySpec::TopK { weights, .. }
            | QuerySpec::Range { weights, .. }
            | QuerySpec::Knn { weights, .. } => weights,
        }
    }
}

/// Seeded generator of random queries against a dataset.
#[derive(Debug)]
pub struct QueryGenerator {
    rng: StdRng,
    domain: Domain,
    /// Score range observed over a sample of weight vectors, used to pick
    /// meaningful range-query boundaries.
    score_lo: f64,
    score_hi: f64,
}

impl QueryGenerator {
    /// Creates a generator from published metadata alone: the weight domain
    /// and a plausible score range, with no access to the records.
    ///
    /// This is exactly what a remote data user has — the owner publishes the
    /// template and domain, not the table — and it lets a load driver spawn
    /// many client threads without cloning the full dataset into each one.
    pub fn from_published(domain: Domain, score_range: (f64, f64), seed: u64) -> Self {
        let (mut lo, mut hi) = score_range;
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            lo = 0.0;
            hi = 1.0;
        }
        QueryGenerator {
            rng: StdRng::seed_from_u64(seed),
            domain,
            score_lo: lo,
            score_hi: hi,
        }
    }

    /// The weight domain queries are drawn from.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The score range this generator picks range boundaries and KNN
    /// targets from.
    pub fn score_range(&self) -> (f64, f64) {
        (self.score_lo, self.score_hi)
    }

    /// Creates a generator for the dataset.
    pub fn new(dataset: &Dataset, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Probe a few random weight vectors to learn the plausible score range.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..8 {
            let w = random_point(&dataset.domain, &mut rng);
            for f in &dataset.functions {
                let s = f.eval(&w);
                lo = lo.min(s);
                hi = hi.max(s);
            }
        }
        if !lo.is_finite() || !hi.is_finite() {
            lo = 0.0;
            hi = 1.0;
        }
        QueryGenerator {
            rng,
            domain: dataset.domain.clone(),
            score_lo: lo,
            score_hi: hi,
        }
    }

    /// A random weight vector inside the domain.
    pub fn weights(&mut self) -> Vec<f64> {
        random_point(&self.domain, &mut self.rng)
    }

    /// A random top-k query with `k` results.
    pub fn top_k(&mut self, k: usize) -> QuerySpec {
        QuerySpec::TopK {
            weights: self.weights(),
            k,
        }
    }

    /// A random KNN query with `k` neighbours around a random target score.
    pub fn knn(&mut self, k: usize) -> QuerySpec {
        let target = self.rng.gen_range(self.score_lo..=self.score_hi);
        QuerySpec::Knn {
            weights: self.weights(),
            k,
            target,
        }
    }

    /// A random range query whose width is `width_fraction` of the observed
    /// score spread.
    pub fn range(&mut self, width_fraction: f64) -> QuerySpec {
        let spread = (self.score_hi - self.score_lo).max(1e-9);
        let width = spread * width_fraction.clamp(0.0, 1.0);
        let start = self
            .rng
            .gen_range(self.score_lo..=(self.score_hi - width).max(self.score_lo));
        QuerySpec::Range {
            weights: self.weights(),
            lower: start,
            upper: start + width,
        }
    }

    /// A mixed batch of queries (round-robin top-k, range, KNN), handy for
    /// integration tests.
    pub fn mixed_batch(&mut self, count: usize, k: usize) -> Vec<QuerySpec> {
        (0..count)
            .map(|i| match i % 3 {
                0 => self.top_k(k),
                1 => self.range(0.2),
                _ => self.knn(k),
            })
            .collect()
    }
}

/// A point drawn uniformly from `domain`'s box; an axis whose bounds meet
/// keeps its one value.
pub fn random_point<R: Rng + ?Sized>(domain: &Domain, rng: &mut R) -> Vec<f64> {
    (domain.lower.iter().zip(&domain.upper))
        .map(|(l, u)| if l == u { *l } else { rng.gen_range(*l..*u) })
        .collect()
}

/// A weighted query-kind mix for load generation.
///
/// The mix is deterministic: request `index` gets its shape from the index's
/// position in the repeating `topk : range : knn` proportion cycle, so two
/// runs with equal seeds issue identical query streams — which is what
/// makes load-test results and cache-hit counts reproducible.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryMix {
    /// Parts of top-k queries in the cycle.
    pub topk: u32,
    /// Parts of range queries in the cycle.
    pub range: u32,
    /// Parts of KNN queries in the cycle.
    pub knn: u32,
    /// `k` used for top-k and KNN queries.
    pub k: usize,
    /// Range-query width as a fraction of the observed score spread.
    pub range_width: f64,
}

impl Default for QueryMix {
    /// A balanced 1:1:1 mix with `k = 3` and 20% range width.
    fn default() -> Self {
        QueryMix {
            topk: 1,
            range: 1,
            knn: 1,
            k: 3,
            range_width: 0.2,
        }
    }
}

impl QueryMix {
    /// A mix weighted towards one kind, e.g. `QueryMix::weighted(8, 1, 1)`
    /// for a read-mostly top-k dashboard workload.
    pub fn weighted(topk: u32, range: u32, knn: u32) -> Self {
        QueryMix {
            topk,
            range,
            knn,
            ..QueryMix::default()
        }
    }

    /// Draws the query at `index` of the deterministic `topk : range : knn`
    /// stream.
    ///
    /// Panics if every weight is zero.
    pub fn generate(&self, generator: &mut QueryGenerator, index: u64) -> QuerySpec {
        let cycle = u64::from(self.topk) + u64::from(self.range) + u64::from(self.knn);
        assert!(cycle > 0, "query mix needs at least one non-zero weight");
        let slot = index % cycle;
        if slot < u64::from(self.topk) {
            generator.top_k(self.k)
        } else if slot < u64::from(self.topk) + u64::from(self.range) {
            generator.range(self.range_width)
        } else {
            generator.knn(self.k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::uniform_dataset;

    #[test]
    fn sample_stays_inside() {
        let d = Domain::new(vec![-1.0, 2.0], vec![1.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = random_point(&d, &mut rng);
            assert!(d.contains(&p));
        }
    }

    #[test]
    fn degenerate_dimension_sampling() {
        let d = Domain::new(vec![0.5], vec![0.5]);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(random_point(&d, &mut rng), vec![0.5]);
    }

    #[test]
    fn weights_stay_in_domain() {
        let ds = uniform_dataset(20, 2, 1);
        let mut gen = QueryGenerator::new(&ds, 5);
        for _ in 0..50 {
            let w = gen.weights();
            assert!(ds.domain.contains(&w));
        }
    }

    #[test]
    fn range_queries_are_well_formed() {
        let ds = uniform_dataset(30, 1, 2);
        let mut gen = QueryGenerator::new(&ds, 6);
        for _ in 0..20 {
            if let QuerySpec::Range { lower, upper, .. } = gen.range(0.3) {
                assert!(lower <= upper);
            } else {
                panic!("range() must produce a Range spec");
            }
        }
    }

    #[test]
    fn topk_and_knn_carry_k() {
        let ds = uniform_dataset(10, 2, 3);
        let mut gen = QueryGenerator::new(&ds, 7);
        assert!(matches!(gen.top_k(3), QuerySpec::TopK { k: 3, .. }));
        assert!(matches!(gen.knn(5), QuerySpec::Knn { k: 5, .. }));
    }

    #[test]
    fn mixed_batch_contains_all_kinds() {
        let ds = uniform_dataset(10, 2, 4);
        let mut gen = QueryGenerator::new(&ds, 8);
        let batch = gen.mixed_batch(9, 2);
        assert_eq!(batch.len(), 9);
        assert!(batch.iter().any(|q| matches!(q, QuerySpec::TopK { .. })));
        assert!(batch.iter().any(|q| matches!(q, QuerySpec::Range { .. })));
        assert!(batch.iter().any(|q| matches!(q, QuerySpec::Knn { .. })));
    }

    #[test]
    fn published_metadata_generator_matches_dataset_generator() {
        let ds = uniform_dataset(12, 2, 13);
        let probe = QueryGenerator::new(&ds, 21);
        let mut from_published =
            QueryGenerator::from_published(probe.domain().clone(), probe.score_range(), 77);
        for _ in 0..20 {
            let w = from_published.weights();
            assert!(ds.domain.contains(&w));
            if let QuerySpec::Range { lower, upper, .. } = from_published.range(0.3) {
                let (lo, hi) = probe.score_range();
                assert!(lower >= lo - 1e-9 && upper <= hi + 1e-9);
            }
        }
        // A nonsensical range falls back to [0, 1] instead of panicking.
        let mut degenerate = QueryGenerator::from_published(ds.domain.clone(), (f64::NAN, 1.0), 5);
        assert_eq!(degenerate.score_range(), (0.0, 1.0));
        let _ = degenerate.knn(2);
    }

    #[test]
    fn generator_is_deterministic() {
        let ds = uniform_dataset(10, 2, 5);
        let mut g1 = QueryGenerator::new(&ds, 11);
        let mut g2 = QueryGenerator::new(&ds, 11);
        assert_eq!(g1.top_k(3), g2.top_k(3));
        assert_eq!(g1.range(0.5), g2.range(0.5));
    }

    #[test]
    fn query_spec_weights_accessor() {
        let ds = uniform_dataset(10, 3, 6);
        let mut gen = QueryGenerator::new(&ds, 12);
        for q in gen.mixed_batch(6, 2) {
            assert_eq!(q.weights().len(), 3);
        }
    }
}
