//! Workspace-level integration tests: the umbrella crate re-exports, the
//! IFMH schemes and the signature-mesh baseline must all agree on query
//! answers, and the comparative cost relationships the paper reports must
//! hold on real (small) instances.

use std::fs;
use std::path::{Path, PathBuf};

use verified_analytics::authquery::{client, IfmhTree, Query, Server, SigningMode};
use verified_analytics::crypto::{SignatureScheme, Signer};
use verified_analytics::service::spec_to_query as to_query;
use verified_analytics::service::{ServiceConfig, ShardedDeployment};
use verified_analytics::sigmesh::{verify_mesh_response, SignatureMesh};
use verified_analytics::workload::{applicant_table, uniform_dataset, QueryGenerator};

#[test]
fn sharded_tier_through_umbrella_reexports() {
    // The horizontal-scale tier end to end through the umbrella crate: the
    // owner partitions the applicant table across three shard services, a
    // data user scatter-gathers with full verification, and the merged
    // answer matches a local single server over the whole table.
    let dataset = applicant_table(15, 2027);
    let scheme = SignatureScheme::test_rsa(2027);
    let single = Server::new(
        dataset.clone(),
        IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme),
    );

    let deployment = ShardedDeployment::launch(
        &dataset,
        3,
        SigningMode::MultiSignature,
        2027,
        ServiceConfig::ephemeral(),
    )
    .expect("launch sharded deployment");
    let mut remote = deployment.client().expect("connect sharded client");

    for query in [
        Query::top_k(vec![1.0, 0.3, 0.6], 4),
        Query::range(vec![0.4, 0.4, 0.2], 0.3, 0.7),
        Query::knn(vec![0.2, 0.5, 0.3], 3, 0.5),
    ] {
        let merged = remote
            .query_verified(&query)
            .expect("verified sharded query");
        let local = single.process(&query);
        assert_eq!(merged.records, local.records, "{query}");
        assert_eq!(merged.scores.len(), merged.records.len());
    }

    // The same queries as one epoch-pinned batch, a pipeline of `QueryAt`
    // frames to each shard: every sub-response verified, each sub-answer
    // equal to the local single server's.
    let queries = vec![
        Query::top_k(vec![1.0, 0.3, 0.6], 4),
        Query::range(vec![0.4, 0.4, 0.2], 0.3, 0.7),
        Query::knn(vec![0.2, 0.5, 0.3], 3, 0.5),
    ];
    let batched = remote
        .batch_verified(&queries)
        .expect("verified sharded batch");
    for (query, merged) in queries.iter().zip(&batched) {
        assert_eq!(merged.records, single.process(query).records, "{query}");
    }
    deployment.shutdown();
}

#[test]
fn all_three_schemes_agree_on_answers_and_verify() {
    let dataset = uniform_dataset(16, 2, 71);
    let scheme = SignatureScheme::test_rsa(71);
    let one = Server::new(
        dataset.clone(),
        IfmhTree::build(&dataset, SigningMode::OneSignature, &scheme),
    );
    let multi = Server::new(
        dataset.clone(),
        IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme),
    );
    let mesh = SignatureMesh::build(&dataset, &scheme);
    let verifier = scheme.verifier();

    let mut generator = QueryGenerator::new(&dataset, 7);
    for spec in generator.mixed_batch(9, 3) {
        let query = to_query(&spec);

        let r1 = one.process(&query);
        let r2 = multi.process(&query);
        let r3 = mesh.process(&dataset, &query);

        // Same answers from every scheme.
        let ids = |records: &[verified_analytics::funcdb::Record]| {
            let mut v: Vec<u64> = records.iter().map(|r| r.id).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&r1.records), ids(&r2.records), "query {query}");
        assert_eq!(ids(&r1.records), ids(&r3.records), "query {query}");

        // Every scheme's response verifies.
        assert!(client::verify(
            &query,
            &r1.records,
            &r1.vo,
            &dataset.template,
            verifier.as_ref()
        )
        .is_ok());
        assert!(client::verify(
            &query,
            &r2.records,
            &r2.vo,
            &dataset.template,
            verifier.as_ref()
        )
        .is_ok());
        assert!(verify_mesh_response(&query, &r3, &dataset.template, verifier.as_ref()).is_ok());
    }
}

#[test]
fn paper_cost_relationships_hold() {
    // The qualitative claims of the evaluation, checked end-to-end:
    let dataset = uniform_dataset(14, 2, 72);
    let scheme = SignatureScheme::test_rsa(72);
    let one_tree = IfmhTree::build(&dataset, SigningMode::OneSignature, &scheme);
    let multi_tree = IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme);
    let mesh = SignatureMesh::build(&dataset, &scheme);

    // Fig. 5a: 1 signature vs #subdomains vs #subdomains × (n + 1).
    assert_eq!(one_tree.stats().signatures, 1);
    assert_eq!(multi_tree.stats().signatures, multi_tree.subdomain_count());
    assert_eq!(
        mesh.stats().signatures,
        mesh.cell_count() * (dataset.len() + 1)
    );
    assert!(mesh.stats().signatures > multi_tree.stats().signatures);

    let one = Server::new(dataset.clone(), one_tree);
    let multi = Server::new(dataset.clone(), multi_tree);
    let verifier = scheme.verifier();

    let query = Query::top_k(vec![0.45, 0.55], 3);
    let r1 = one.process(&query);
    let r2 = multi.process(&query);
    let r3 = mesh.process(&dataset, &query);

    // Fig. 6: the mesh's linear subdomain search dominates the tree search
    // once the arrangement is non-trivial.
    if mesh.cell_count() > 8 {
        assert!(
            r3.cost.imh_nodes_visited as f64 >= r1.cost.imh_nodes_visited as f64 / 2.0,
            "mesh linear scan ({}) should not be far below tree search ({})",
            r3.cost.imh_nodes_visited,
            r1.cost.imh_nodes_visited
        );
    }
    // Fig. 6: one-signature collects extra path siblings compared to
    // multi-signature.
    assert!(r1.cost.vo_nodes_collected >= r2.cost.vo_nodes_collected);

    // Fig. 7: the mesh verifies |q| + 1 signatures, the IFMH schemes one.
    let v1 = client::verify(
        &query,
        &r1.records,
        &r1.vo,
        &dataset.template,
        verifier.as_ref(),
    )
    .unwrap();
    let v2 = client::verify(
        &query,
        &r2.records,
        &r2.vo,
        &dataset.template,
        verifier.as_ref(),
    )
    .unwrap();
    let v3 = verify_mesh_response(&query, &r3, &dataset.template, verifier.as_ref()).unwrap();
    assert_eq!(v1.cost.signature_verifications, 1);
    assert_eq!(v2.cost.signature_verifications, 1);
    assert_eq!(v3.cost.signature_verifications, r3.records.len() + 1);
    // Fig. 7a: the mesh needs fewer hash operations than the tree schemes.
    assert!(v3.cost.hash_ops <= v1.cost.hash_ops);

    // Fig. 8: the mesh VO carries |q| + 1 signatures and grows linearly; for
    // a 3-record result it is already at least as large as the multi-sig VO
    // signature-wise.
    assert_eq!(r1.vo.signature_count(), 1);
    assert_eq!(r2.vo.signature_count(), 1);
    assert_eq!(r3.vo.signature_count(), r3.records.len() + 1);
}

#[test]
fn applicant_workflow_with_umbrella_reexports() {
    // Exercise the umbrella crate paths end to end (what a downstream user
    // would write after `cargo add verified-analytics`).
    let dataset = applicant_table(12, 9);
    let scheme = SignatureScheme::test_rsa(9);
    let tree = IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme);
    let server = Server::new(dataset.clone(), tree);
    let public_key = scheme.public_key();

    let query = Query::top_k(vec![1.0, 0.3, 0.6], 4);
    let response = server.process(&query);
    let verified = client::verify(
        &query,
        &response.records,
        &response.vo,
        &dataset.template,
        &public_key,
    )
    .expect("verification must pass");
    assert_eq!(response.records.len(), 4);
    assert_eq!(verified.scores.len(), 4);
    // Scores are ascending in result order.
    for w in verified.scores.windows(2) {
        assert!(w[0] <= w[1] + 1e-9);
    }
}

#[test]
fn cross_scheme_tamper_detection() {
    // A record dropped from a result must be caught by both the IFMH client
    // and the mesh client.
    let dataset = uniform_dataset(18, 1, 73);
    let scheme = SignatureScheme::test_rsa(73);
    let tree = IfmhTree::build(&dataset, SigningMode::OneSignature, &scheme);
    let server = Server::new(dataset.clone(), tree);
    let mesh = SignatureMesh::build(&dataset, &scheme);
    let verifier = scheme.verifier();
    let query = Query::range(vec![0.5], 0.1, 0.9);

    let mut r1 = server.process(&query);
    assert!(r1.records.len() >= 3);
    r1.records.remove(1);
    assert!(client::verify(
        &query,
        &r1.records,
        &r1.vo,
        &dataset.template,
        verifier.as_ref()
    )
    .is_err());

    let mut r3 = mesh.process(&dataset, &query);
    r3.records.remove(1);
    assert!(verify_mesh_response(&query, &r3, &dataset.template, verifier.as_ref()).is_err());
}

#[test]
fn unsafe_code_lives_only_in_the_two_reviewed_files() {
    // The root manifest denies the `unsafe` lint for every member, tests
    // and examples included, so the compiler refuses the keyword wherever
    // no allow reaches. This pins the allows: exactly two, each on the
    // `mod` line of one reviewed module — `vaq-service`'s `poll` (the epoll
    // and eventfd calls) and `vaq-crypto`'s `sha_ni` (the SHA-extension and
    // AVX-512 kernels). Every member manifest must opt in to the workspace
    // lints; the benchmark sits outside the workspace, so its sources are
    // checked for the keyword itself.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Spelled in halves so this file's own source does not match.
    let lint = concat!("unsafe", "_code");
    let (mut allows, mut outside_lints) = (Vec::new(), Vec::new());
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("directory reads") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let relative = path.strip_prefix(root).expect("under root").to_path_buf();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name == "Cargo.toml" && !relative.starts_with("benchmark") {
                let manifest = fs::read_to_string(&path).expect("manifest reads");
                if !manifest.contains("\n[lints]\nworkspace = true\n") {
                    outside_lints.push(relative);
                }
            } else if name.ends_with(".rs") {
                let source = fs::read_to_string(&path).expect("source reads");
                if relative.starts_with("benchmark/src") {
                    assert!(!source.contains("unsafe"), "{relative:?} uses unsafe");
                }
                let mut lines = source.lines();
                while let Some(line) = lines.next() {
                    let word = |i: usize| !line[i + lint.len()..].starts_with('_');
                    if line.match_indices(lint).any(|(i, _)| word(i)) {
                        let item = lines.next().unwrap_or("");
                        allows.push((relative.clone(), line.trim().to_owned(), item.to_owned()));
                    }
                }
            }
        }
    }
    assert_eq!(
        outside_lints,
        Vec::<PathBuf>::new(),
        "members without [lints]"
    );
    let workspace = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(workspace.contains(&format!("[workspace.lints.rust]\n{lint} = \"deny\"\n")));
    allows.sort();
    let allow = format!("#[allow({lint})]");
    let reviewed = [
        ("crates/crypto/src/lib.rs", "mod sha_ni;"),
        ("crates/service/src/lib.rs", "mod poll;"),
    ];
    let reviewed = reviewed.map(|(file, item)| (PathBuf::from(file), allow.clone(), item.into()));
    assert_eq!(allows, reviewed);
}
