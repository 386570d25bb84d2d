//! Runners for every figure of the paper's evaluation section.
//!
//! | Paper figure | Runner | Metric |
//! |---|---|---|
//! | Fig. 5a | [`fig5_owner`] (`signatures` columns) | signatures needed to build each structure |
//! | Fig. 5b | [`fig5_owner`] (`build_ms` columns) | construction time |
//! | Fig. 5c | [`fig5_owner`] (`bytes` columns) | structure size |
//! | Fig. 6a | [`fig6_server_vs_n`] with [`ServerQueryKind::Top3`] | nodes/cells traversed per query |
//! | Fig. 6b | [`fig6_server_vs_n`] with [`ServerQueryKind::Knn3`] | nodes/cells traversed per query |
//! | Fig. 6c | [`fig6_server_vs_n`] with [`ServerQueryKind::Range3`] | nodes/cells traversed per query |
//! | Fig. 6d | [`fig6d_server_vs_result_len`] | nodes/cells traversed vs result length |
//! | Fig. 7a | [`fig7_user`] (`hash_ops` columns) | hash operations during verification |
//! | Fig. 7b | [`fig7_user`] (`hash_ms` columns) | hashing time |
//! | Fig. 7c | [`fig7c_rsa_vs_dsa`] | signature decryption time, RSA vs DSA |
//! | Fig. 7d | [`fig7_user`] (`total_ms` columns) | total verification time |
//! | Fig. 8a | [`fig8a_vo_size_vs_result_len`] | VO size vs result length |
//! | Fig. 8b | [`fig8b_vo_size_vs_n`] | VO size vs database size |
//!
//! Beside the paper's figures, [`scaling_curve`] measures the owner build
//! alone as `n` grows.

use crate::setup::{probe_weights, range_query_with_result_len, Scale, SchemeSet};
use std::time::Instant;
use vaq_authquery::{client, vo, IfmhTree, Query, Server, SigningMode};
use vaq_crypto::sha256::sha256;
use vaq_crypto::{SignatureScheme, Signer};
use vaq_funcdb::LpSplitOracle;
use vaq_itree::ITreeBuilder;
use vaq_sigmesh::verify_mesh_response;
use vaq_workload::uniform_dataset;

/// Default seed for all experiments (override per-call for repetitions).
pub const DEFAULT_SEED: u64 = 20201111;

// ---------------------------------------------------------------------------
// Fig. 5 — data-owner overhead
// ---------------------------------------------------------------------------

/// One row of the Fig. 5 series (one database size).
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Number of records.
    pub n: usize,
    /// Number of subdomains in the arrangement.
    pub subdomains: usize,
    /// Fig. 5a: signatures created by the one-signature scheme (always 1).
    pub one_sig_signatures: usize,
    /// Fig. 5a: signatures created by the multi-signature scheme.
    pub multi_sig_signatures: usize,
    /// Fig. 5a: signatures created by the signature mesh.
    pub mesh_signatures: usize,
    /// Fig. 5b: construction time of the one-signature IFMH-tree (ms).
    pub one_sig_build_ms: f64,
    /// Fig. 5b: construction time of the multi-signature IFMH-tree (ms).
    pub multi_sig_build_ms: f64,
    /// Fig. 5b: construction time of the signature mesh (ms).
    pub mesh_build_ms: f64,
    /// Fig. 5c: structure size of the one-signature IFMH-tree (bytes).
    pub one_sig_bytes: usize,
    /// Fig. 5c: structure size of the multi-signature IFMH-tree (bytes).
    pub multi_sig_bytes: usize,
    /// Fig. 5c: structure size of the signature mesh (bytes).
    pub mesh_bytes: usize,
}

/// Runs the Fig. 5 sweep (owner overhead vs database size).
pub fn fig5_owner(scale: Scale, seed: u64) -> Vec<Fig5Row> {
    scale
        .size_sweep()
        .into_iter()
        .map(|n| {
            let set = SchemeSet::build_uniform(n, scale.arrangement_dims(), seed, scale.rsa_bits());
            Fig5Row {
                n,
                subdomains: set.one_sig.subdomain_count(),
                one_sig_signatures: set.one_sig.stats().signatures,
                multi_sig_signatures: set.multi_sig.stats().signatures,
                mesh_signatures: set.mesh.stats().signatures,
                one_sig_build_ms: set.one_sig_build.as_secs_f64() * 1e3,
                multi_sig_build_ms: set.multi_sig_build.as_secs_f64() * 1e3,
                mesh_build_ms: set.mesh_build.as_secs_f64() * 1e3,
                one_sig_bytes: set.one_sig.stats().structure_bytes,
                multi_sig_bytes: set.multi_sig.stats().structure_bytes,
                mesh_bytes: set.mesh.stats().structure_bytes,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 6 — server overhead
// ---------------------------------------------------------------------------

/// Which query family a Fig. 6 sweep uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerQueryKind {
    /// Fig. 6a: top-3 queries.
    Top3,
    /// Fig. 6b: 3-NN queries.
    Knn3,
    /// Fig. 6c: range queries with results of length 3.
    Range3,
}

impl ServerQueryKind {
    /// Human-readable label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            ServerQueryKind::Top3 => "top-3",
            ServerQueryKind::Knn3 => "3-NN",
            ServerQueryKind::Range3 => "range(|q|=3)",
        }
    }

    /// Builds a query of this kind against `dataset`, seeded by `salt`.
    fn make_query_from(&self, dataset: &vaq_funcdb::Dataset, salt: u64) -> Query {
        let x = probe_weights(dataset.dims(), salt);
        match self {
            ServerQueryKind::Top3 => Query::top_k(x, 3),
            ServerQueryKind::Knn3 => {
                // Aim the target at the middle of the score distribution.
                let mid = {
                    let mut s: Vec<f64> = dataset.functions.iter().map(|f| f.eval(&x)).collect();
                    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    s[s.len() / 2]
                };
                Query::knn(x, 3, mid)
            }
            ServerQueryKind::Range3 => range_query_with_result_len(dataset, x, 3),
        }
    }
}

/// One row of a Fig. 6a–c series.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Number of records.
    pub n: usize,
    /// Average nodes traversed by the one-signature scheme.
    pub one_sig_nodes: f64,
    /// Average nodes traversed by the multi-signature scheme.
    pub multi_sig_nodes: f64,
    /// Average mesh cells (plus chain entries) traversed by the baseline.
    pub mesh_nodes: f64,
}

/// Runs a Fig. 6a/6b/6c sweep: average server traversal cost vs database
/// size, for `queries_per_point` random weight vectors per size.
pub fn fig6_server_vs_n(
    scale: Scale,
    kind: ServerQueryKind,
    queries_per_point: usize,
    seed: u64,
) -> Vec<Fig6Row> {
    scale
        .size_sweep()
        .into_iter()
        .map(|n| {
            let set = SchemeSet::build_uniform(n, scale.arrangement_dims(), seed, scale.rsa_bits());
            let dataset = set.dataset.clone();
            let one_server = Server::new(dataset.clone(), set.one_sig);
            let multi_server = Server::new(dataset.clone(), set.multi_sig);
            let mesh = set.mesh;

            let mut one_total = 0usize;
            let mut multi_total = 0usize;
            let mut mesh_total = 0usize;
            for q_idx in 0..queries_per_point {
                let query = kind.make_query_from(&dataset, q_idx as u64 + seed);
                one_total += one_server.process(&query).cost.total_nodes();
                multi_total += multi_server.process(&query).cost.total_nodes();
                mesh_total += mesh.process(&dataset, &query).cost.total_nodes();
            }
            let d = queries_per_point as f64;
            Fig6Row {
                n,
                one_sig_nodes: one_total as f64 / d,
                multi_sig_nodes: multi_total as f64 / d,
                mesh_nodes: mesh_total as f64 / d,
            }
        })
        .collect()
}

/// One row of the Fig. 6d series (server cost vs result length).
#[derive(Clone, Debug)]
pub struct Fig6dRow {
    /// Result length |q|.
    pub result_len: usize,
    /// Nodes traversed by the one-signature scheme.
    pub one_sig_nodes: usize,
    /// Nodes traversed by the multi-signature scheme.
    pub multi_sig_nodes: usize,
    /// Cells/entries traversed by the mesh.
    pub mesh_nodes: usize,
}

/// Runs Fig. 6d: server traversal cost as the result length grows, database
/// size fixed at [`Scale::sweep_database_size`].
pub fn fig6d_server_vs_result_len(scale: Scale, seed: u64) -> Vec<Fig6dRow> {
    let n = scale.sweep_database_size();
    // A univariate database keeps the arrangement trivial so the large-n
    // result-length sweep stays tractable (the metric of interest here only
    // depends on |q| and the FMH/chain sizes).
    let set = SchemeSet::build_uniform(n, 1, seed, scale.rsa_bits());
    let one_server = Server::new(set.dataset.clone(), set.one_sig);
    let multi_server = Server::new(set.dataset.clone(), set.multi_sig);
    let x = vec![0.7];

    scale
        .result_length_sweep()
        .into_iter()
        .filter(|len| *len <= n)
        .map(|len| {
            let query = range_query_with_result_len(&set.dataset, x.clone(), len);
            Fig6dRow {
                result_len: len,
                one_sig_nodes: one_server.process(&query).cost.total_nodes(),
                multi_sig_nodes: multi_server.process(&query).cost.total_nodes(),
                mesh_nodes: set.mesh.process(&set.dataset, &query).cost.total_nodes(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 7 — user (verification) overhead
// ---------------------------------------------------------------------------

/// One row of the Fig. 7a/7b/7d series.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Result length |q|.
    pub result_len: usize,
    /// Fig. 7a: hash operations during verification (one-signature).
    pub one_sig_hash_ops: usize,
    /// Fig. 7a: hash operations (multi-signature).
    pub multi_sig_hash_ops: usize,
    /// Fig. 7a: hash operations (mesh).
    pub mesh_hash_ops: usize,
    /// Fig. 7b: estimated hashing time in ms (ops × measured per-hash cost).
    pub one_sig_hash_ms: f64,
    /// Fig. 7b: hashing time (multi-signature).
    pub multi_sig_hash_ms: f64,
    /// Fig. 7b: hashing time (mesh).
    pub mesh_hash_ms: f64,
    /// Number of signature verifications (1, 1, |q|+1).
    pub one_sig_sig_ops: usize,
    /// Signature verifications (multi-signature).
    pub multi_sig_sig_ops: usize,
    /// Signature verifications (mesh).
    pub mesh_sig_ops: usize,
    /// Fig. 7d: total verification wall-clock time in ms (one-signature).
    pub one_sig_total_ms: f64,
    /// Fig. 7d: total verification time (multi-signature).
    pub multi_sig_total_ms: f64,
    /// Fig. 7d: total verification time (mesh).
    pub mesh_total_ms: f64,
}

/// Runs the Fig. 7a/7b/7d sweep: client verification cost vs result length.
pub fn fig7_user(scale: Scale, seed: u64) -> Vec<Fig7Row> {
    let n = scale.sweep_database_size();
    let set = SchemeSet::build_uniform(n, 1, seed, scale.rsa_bits());
    let one_server = Server::new(set.dataset.clone(), set.one_sig);
    let multi_server = Server::new(set.dataset.clone(), set.multi_sig);
    let verifier = set.scheme.verifier();
    let x = vec![0.7];

    // Measure the per-hash cost once so hash counts translate into times.
    let per_hash_ms = measure_per_hash_ms();

    scale
        .result_length_sweep()
        .into_iter()
        .filter(|len| *len <= n)
        .map(|len| {
            let query = range_query_with_result_len(&set.dataset, x.clone(), len);

            let r1 = one_server.process(&query);
            let t0 = Instant::now();
            let v1 = client::verify(
                &query,
                &r1.records,
                &r1.vo,
                &set.dataset.template,
                verifier.as_ref(),
            )
            .expect("one-signature verification must succeed");
            let one_total = t0.elapsed().as_secs_f64() * 1e3;

            let r2 = multi_server.process(&query);
            let t0 = Instant::now();
            let v2 = client::verify(
                &query,
                &r2.records,
                &r2.vo,
                &set.dataset.template,
                verifier.as_ref(),
            )
            .expect("multi-signature verification must succeed");
            let multi_total = t0.elapsed().as_secs_f64() * 1e3;

            let r3 = set.mesh.process(&set.dataset, &query);
            let t0 = Instant::now();
            let v3 = verify_mesh_response(&query, &r3, &set.dataset.template, verifier.as_ref())
                .expect("mesh verification must succeed");
            let mesh_total = t0.elapsed().as_secs_f64() * 1e3;

            Fig7Row {
                result_len: len,
                one_sig_hash_ops: v1.cost.hash_ops,
                multi_sig_hash_ops: v2.cost.hash_ops,
                mesh_hash_ops: v3.cost.hash_ops,
                one_sig_hash_ms: v1.cost.hash_ops as f64 * per_hash_ms,
                multi_sig_hash_ms: v2.cost.hash_ops as f64 * per_hash_ms,
                mesh_hash_ms: v3.cost.hash_ops as f64 * per_hash_ms,
                one_sig_sig_ops: v1.cost.signature_verifications,
                multi_sig_sig_ops: v2.cost.signature_verifications,
                mesh_sig_ops: v3.cost.signature_verifications,
                one_sig_total_ms: one_total,
                multi_sig_total_ms: multi_total,
                mesh_total_ms: mesh_total,
            }
        })
        .collect()
}

/// One row of the Fig. 7c series (RSA vs DSA signature verification time).
#[derive(Clone, Debug)]
pub struct Fig7cRow {
    /// Result length |q| (the mesh verifies |q| + 1 signatures).
    pub result_len: usize,
    /// Mesh verification signature-time with RSA signatures (ms).
    pub mesh_rsa_ms: f64,
    /// Mesh verification signature-time with DSA signatures (ms).
    pub mesh_dsa_ms: f64,
    /// IFMH verification signature-time with RSA (ms) — always one signature.
    pub ifmh_rsa_ms: f64,
    /// IFMH verification signature-time with DSA (ms).
    pub ifmh_dsa_ms: f64,
}

/// Runs Fig. 7c: time spent decrypting (verifying) signatures, RSA vs DSA,
/// as a function of the result length.
pub fn fig7c_rsa_vs_dsa(scale: Scale, seed: u64) -> Vec<Fig7cRow> {
    // Measure single verification costs for both algorithms once.
    let rsa = SignatureScheme::new_rsa(scale.rsa_bits(), seed);
    let (p_bits, q_bits) = scale.dsa_bits();
    let dsa = SignatureScheme::new_dsa(p_bits, q_bits, seed);
    let digest = sha256(b"fig7c calibration digest");
    let rsa_sig = rsa.sign_digest(&digest);
    let dsa_sig = dsa.sign_digest(&digest);
    let rsa_verifier = rsa.verifier();
    let dsa_verifier = dsa.verifier();

    let per_rsa_ms = measure_ms(|| {
        assert!(rsa_verifier.verify_digest(&digest, &rsa_sig));
    });
    let per_dsa_ms = measure_ms(|| {
        assert!(dsa_verifier.verify_digest(&digest, &dsa_sig));
    });

    scale
        .result_length_sweep()
        .into_iter()
        .map(|len| Fig7cRow {
            result_len: len,
            mesh_rsa_ms: (len + 1) as f64 * per_rsa_ms,
            mesh_dsa_ms: (len + 1) as f64 * per_dsa_ms,
            ifmh_rsa_ms: per_rsa_ms,
            ifmh_dsa_ms: per_dsa_ms,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 8 — communication overhead (VO size)
// ---------------------------------------------------------------------------

/// One row of the Fig. 8 series.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// The swept parameter: result length (8a) or database size (8b).
    pub x: usize,
    /// VO size of the one-signature scheme in bytes.
    pub one_sig_vo_bytes: usize,
    /// VO size of the multi-signature scheme in bytes.
    pub multi_sig_vo_bytes: usize,
    /// VO size of the mesh baseline in bytes.
    pub mesh_vo_bytes: usize,
}

/// Runs Fig. 8a: VO size vs result length at a fixed database size.
pub fn fig8a_vo_size_vs_result_len(scale: Scale, seed: u64) -> Vec<Fig8Row> {
    let n = scale.sweep_database_size();
    let set = SchemeSet::build_uniform(n, 1, seed, scale.rsa_bits());
    let one_server = Server::new(set.dataset.clone(), set.one_sig);
    let multi_server = Server::new(set.dataset.clone(), set.multi_sig);
    let x = vec![0.7];
    scale
        .result_length_sweep()
        .into_iter()
        .filter(|len| *len <= n)
        .map(|len| {
            let query = range_query_with_result_len(&set.dataset, x.clone(), len);
            Fig8Row {
                x: len,
                one_sig_vo_bytes: one_server.process(&query).vo.byte_size(),
                multi_sig_vo_bytes: multi_server.process(&query).vo.byte_size(),
                mesh_vo_bytes: set.mesh.process(&set.dataset, &query).vo.byte_size(),
            }
        })
        .collect()
}

/// Runs Fig. 8b: VO size vs database size at a fixed result length.
pub fn fig8b_vo_size_vs_n(scale: Scale, result_len: usize, seed: u64) -> Vec<Fig8Row> {
    scale
        .size_sweep()
        .into_iter()
        .map(|n| {
            let set = SchemeSet::build_uniform(n, scale.arrangement_dims(), seed, scale.rsa_bits());
            let one_server = Server::new(set.dataset.clone(), set.one_sig);
            let multi_server = Server::new(set.dataset.clone(), set.multi_sig);
            let x = probe_weights(set.dataset.dims(), seed);
            let len = result_len.min(n);
            let query = range_query_with_result_len(&set.dataset, x, len);
            Fig8Row {
                x: n,
                one_sig_vo_bytes: one_server.process(&query).vo.byte_size(),
                multi_sig_vo_bytes: multi_server.process(&query).vo.byte_size(),
                mesh_vo_bytes: set.mesh.process(&set.dataset, &query).vo.byte_size(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Owner-build scaling curve (ROADMAP item 5)
// ---------------------------------------------------------------------------

/// One row of the owner-build scaling curve: a one-signature build over
/// `uniform_dataset(n, 2, seed)` under a 256-bit key, so signing is nothing.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Number of records.
    pub n: usize,
    /// Subdomains of the arrangement.
    pub subdomains: usize,
    /// Pairs whose hyperplane never enters the domain box.
    pub pairs_refused: usize,
    /// I-tree nodes visited across all insertions.
    pub visits: usize,
    /// Visits the split oracle (an LP) decided. Reads 0: a template dataset
    /// at d = 2 is central, and the build decides every visit at its
    /// region's vertices.
    pub lp_visits: usize,
    /// The I-tree build alone (ms).
    pub itree_ms: f64,
    /// Every leaf's order, sorted at its witness and streamed into a fresh
    /// FMH forest (ms).
    pub forest_ms: f64,
    /// `IfmhTree::build`, everything included (ms).
    pub build_ms: f64,
    /// Hash operations the build performed.
    pub hash_ops: usize,
    /// Size of the published structure in bytes.
    pub structure_bytes: usize,
}

/// Measures the owner build at each of `sizes` (d = 2).
pub fn scaling_curve(sizes: &[usize], seed: u64) -> Vec<ScaleRow> {
    let scheme = SignatureScheme::new_rsa(256, seed);
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    let row = |&n: &usize| {
        let dataset = uniform_dataset(n, 2, seed);
        let t0 = Instant::now();
        let (_, itree) = ITreeBuilder::new(LpSplitOracle::new())
            .build_with_stats(&dataset.functions, dataset.domain.clone());
        let itree_ms = ms(t0);
        let t0 = Instant::now();
        let tree = IfmhTree::build(&dataset, SigningMode::OneSignature, &scheme);
        let build_ms = ms(t0);

        let digests: Vec<_> = dataset.records.iter().map(|r| r.digest()).collect();
        let t0 = Instant::now();
        let mut forest = vaq_mht::MerkleForestBuilder::default();
        let records: Vec<_> = digests.into_iter().map(|d| forest.leaf(d)).collect();
        let min = forest.leaf(vo::min_sentinel_digest());
        let max = forest.leaf(vo::max_sentinel_digest());
        for &leaf in tree.itree().leaf_ids() {
            let order = tree.itree().order(&dataset.functions, leaf);
            let sorted = order.iter().map(|id| records[id.index()]);
            forest.insert(std::iter::once(min).chain(sorted).chain([max]));
        }
        std::hint::black_box(forest.finish());
        let forest_ms = ms(t0);

        ScaleRow {
            n,
            subdomains: itree.subdomains,
            pairs_refused: itree.pairs_refused,
            visits: itree.nodes_visited,
            lp_visits: itree.oracle_calls,
            itree_ms,
            forest_ms,
            build_ms,
            hash_ops: tree.stats().hash_ops,
            structure_bytes: tree.stats().structure_bytes,
        }
    };
    sizes.iter().map(row).collect()
}

/// The least-squares exponent `k` of `y ≈ c·nᵏ` over `(n, y)` points.
pub fn fitted_exponent(points: &[(f64, f64)]) -> f64 {
    let count = points.len() as f64;
    let logs = points.iter().map(|(n, y)| (n.ln(), y.ln()));
    let (mean_x, mean_y) = logs.clone().fold((0.0, 0.0), |(x, y), (lx, ly)| {
        (x + lx / count, y + ly / count)
    });
    let (covariance, variance) = logs.fold((0.0, 0.0), |(c, v), (lx, ly)| {
        (c + (lx - mean_x) * (ly - mean_y), v + (lx - mean_x).powi(2))
    });
    covariance / variance
}

// ---------------------------------------------------------------------------
// Timing helpers
// ---------------------------------------------------------------------------

/// Measures the wall-clock cost of one SHA-256 invocation in milliseconds.
pub fn measure_per_hash_ms() -> f64 {
    let data = [0x5au8; 96];
    let iters = 20_000;
    let t0 = Instant::now();
    let mut acc = 0u8;
    for _ in 0..iters {
        acc ^= sha256(&data)[0];
    }
    let elapsed = t0.elapsed().as_secs_f64() * 1e3;
    // Keep the accumulator observable so the loop is not optimised away.
    std::hint::black_box(acc);
    elapsed / iters as f64
}

/// Measures a closure's wall-clock cost in milliseconds: the fastest of a
/// few calls, so neither a call pre-empted by a busy host nor a first call
/// that builds a key's cached state counts.
pub fn measure_ms(mut f: impl FnMut()) -> f64 {
    (0..10)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature scale so the harness itself can be smoke-tested quickly.
    fn tiny_rows() -> Vec<usize> {
        vec![6, 10]
    }

    #[test]
    fn fig5_rows_have_expected_shape() {
        // Use the public API with the smallest sizes to keep this test quick.
        let rows: Vec<Fig5Row> = tiny_rows()
            .into_iter()
            .map(|n| {
                let set = SchemeSet::build_uniform(n, 2, 1, 128);
                Fig5Row {
                    n,
                    subdomains: set.one_sig.subdomain_count(),
                    one_sig_signatures: set.one_sig.stats().signatures,
                    multi_sig_signatures: set.multi_sig.stats().signatures,
                    mesh_signatures: set.mesh.stats().signatures,
                    one_sig_build_ms: set.one_sig_build.as_secs_f64() * 1e3,
                    multi_sig_build_ms: set.multi_sig_build.as_secs_f64() * 1e3,
                    mesh_build_ms: set.mesh_build.as_secs_f64() * 1e3,
                    one_sig_bytes: set.one_sig.stats().structure_bytes,
                    multi_sig_bytes: set.multi_sig.stats().structure_bytes,
                    mesh_bytes: set.mesh.stats().structure_bytes,
                }
            })
            .collect();
        for row in &rows {
            // Paper shape: one-signature needs exactly 1 signature, the
            // multi-signature one per subdomain, the mesh far more.
            assert_eq!(row.one_sig_signatures, 1);
            assert_eq!(row.multi_sig_signatures, row.subdomains);
            assert!(row.mesh_signatures > row.multi_sig_signatures);
            assert!(row.mesh_signatures >= row.subdomains * (row.n / 2));
        }
    }

    #[test]
    fn fig7c_shows_mesh_scaling_and_rsa_faster_than_dsa() {
        let rows = fig7c_rsa_vs_dsa(Scale::Small, 3);
        assert!(!rows.is_empty());
        for row in &rows {
            // Mesh signature time scales with |q|; IFMH stays flat.
            assert!(row.mesh_rsa_ms > row.ifmh_rsa_ms);
            // RSA verification (e = 65537) is cheaper than DSA's two full
            // exponentiations.
            assert!(row.mesh_dsa_ms > row.mesh_rsa_ms);
        }
    }

    #[test]
    fn scaling_curve_rows_add_up_and_the_fit_recovers_a_power() {
        let rows = scaling_curve(&[8, 16], 1);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].subdomains < rows[1].subdomains);
        assert!(rows
            .iter()
            .all(|r| r.lp_visits <= r.visits && r.hash_ops > r.n));
        let cubic: Vec<_> = [2.0f64, 4.0, 8.0].map(|n| (n, 5.0 * n.powi(3))).into();
        assert!((fitted_exponent(&cubic) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn per_hash_measurement_is_positive_and_small() {
        let ms = measure_per_hash_ms();
        assert!(ms > 0.0);
        assert!(
            ms < 1.0,
            "a single SHA-256 should be far below 1 ms, got {ms}"
        );
    }
}
