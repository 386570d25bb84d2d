//! The cost ledger: the work of building a publication and of answering a
//! fixed query stream over it, counted exactly and compared with the lines
//! recorded in `cost_ledger.txt`.
//!
//! Every counter here is deterministic at a fixed seed: the owner's
//! [`OwnerStats`](vaq_authquery::cost::OwnerStats) and the I-tree's
//! `BuildStats`, the server's and the client's
//! cost counters summed over the stream, the verification objects' byte
//! size and the framed replies' wire bytes. A change that moves any of them
//! fails here with a diff of the lines that moved. To re-record, copy the
//! `actual` lines the failure prints into `cost_ledger.txt`, and state the
//! delta in CHANGES.md.

use vaq_authquery::{client, IfmhTree, Query, Server, SigningMode};
use vaq_crypto::{SignatureScheme, Signer};
use vaq_funcdb::Dataset;
use vaq_wire::{Response, WireEncode};
use vaq_workload::{uniform_dataset, QueryGenerator, QueryMix, QuerySpec};

const RECORDED: &str = include_str!("cost_ledger.txt");

/// One publication shape and its query stream.
struct Shape {
    name: &'static str,
    records: usize,
    dims: usize,
    mode: SigningMode,
    /// Queries drawn from `mix`, with `k = 10`.
    queries: u64,
    mix: QueryMix,
}

/// The point rows' mix: top-k, range and KNN in turn, `k = 10`, ranges a
/// fifth of the score spread wide.
fn point_mix() -> QueryMix {
    QueryMix {
        k: 10,
        ..QueryMix::weighted(1, 1, 1)
    }
}

fn shapes() -> Vec<Shape> {
    let point = |name, mode| Shape {
        name,
        records: 76,
        dims: 2,
        mode,
        queries: 30,
        mix: point_mix(),
    };
    vec![
        point("point_one", SigningMode::OneSignature),
        point("point_multi", SigningMode::MultiSignature),
        // One subdomain, one 4,098-leaf FMH tree, ranges a quarter of the
        // score spread wide.
        Shape {
            name: "wide_range",
            records: 4096,
            dims: 1,
            mode: SigningMode::OneSignature,
            queries: 6,
            mix: QueryMix {
                range_width: 0.25,
                ..QueryMix::weighted(0, 1, 0)
            },
        },
        // One of two shards of a 128-record publication.
        Shape {
            name: "shard",
            records: 64,
            dims: 2,
            mode: SigningMode::MultiSignature,
            queries: 30,
            mix: point_mix(),
        },
        // d = 3 reads every region through the LP.
        Shape {
            name: "lp_d3",
            records: 9,
            dims: 3,
            mode: SigningMode::MultiSignature,
            queries: 30,
            mix: point_mix(),
        },
    ]
}

fn query_of(spec: &QuerySpec) -> Query {
    match spec {
        QuerySpec::TopK { weights, k } => Query::top_k(weights.clone(), *k),
        QuerySpec::Range {
            weights,
            lower,
            upper,
        } => Query::range(weights.clone(), *lower, *upper),
        QuerySpec::Knn { weights, k, target } => Query::knn(weights.clone(), *k, *target),
    }
}

/// The ledger lines of one shape: `shape counter value`.
fn ledger(shape: &Shape) -> Vec<String> {
    let dataset: Dataset = uniform_dataset(shape.records, shape.dims, 1);
    let scheme = SignatureScheme::test_rsa(7);
    let tree = IfmhTree::build(&dataset, shape.mode, &scheme);
    let (owner, build) = (tree.stats().clone(), tree.build_stats.clone());
    let server = Server::new(dataset.clone(), tree);
    let verifier = scheme.verifier();

    let mut generator = QueryGenerator::new(&dataset, 11);
    let (mut imh, mut fmh, mut collected, mut results) = (0, 0, 0, 0);
    let (mut hash_ops, mut signature_checks, mut vo_bytes, mut wire_bytes) = (0, 0, 0, 0);
    for index in 0..shape.queries {
        let query = query_of(&shape.mix.generate(&mut generator, index));
        let response = server.process(&query);
        let verified = client::verify(
            &query,
            &response.records,
            &response.vo,
            &dataset.template,
            verifier.as_ref(),
        );
        let verified = verified.unwrap_or_else(|e| panic!("{}: {query:?}: {e:?}", shape.name));
        hash_ops += verified.cost.hash_ops;
        signature_checks += verified.cost.signature_verifications;
        imh += response.cost.imh_nodes_visited;
        fmh += response.cost.fmh_nodes_visited;
        collected += response.cost.vo_nodes_collected;
        results += response.cost.result_len;
        vo_bytes += response.vo.byte_size();
        wire_bytes += Response::Query { epoch: 0, response }
            .to_framed_bytes()
            .len();
    }

    let counters = [
        ("owner.subdomains", owner.subdomains),
        ("owner.imh_nodes", owner.imh_nodes),
        ("owner.fmh_nodes", owner.fmh_nodes),
        ("owner.hash_ops", owner.hash_ops),
        ("owner.signatures", owner.signatures),
        ("owner.structure_bytes", owner.structure_bytes),
        ("build.pairs_inserted", build.pairs_inserted),
        ("build.pairs_refused", build.pairs_refused),
        ("build.oracle_calls", build.oracle_calls),
        ("build.oracle_solves", build.oracle_solves),
        ("build.visits_filtered", build.visits_filtered),
        ("build.nodes_visited", build.nodes_visited),
        ("build.intersection_nodes", build.intersection_nodes),
        ("server.imh_nodes_visited", imh),
        ("server.fmh_nodes_visited", fmh),
        ("server.vo_nodes_collected", collected),
        ("server.result_len", results),
        ("client.hash_ops", hash_ops),
        ("client.signature_verifications", signature_checks),
        ("vo.bytes", vo_bytes),
        ("wire.response_bytes", wire_bytes),
    ];
    counters
        .iter()
        .map(|(counter, value)| format!("{} {counter} {value}", shape.name))
        .collect()
}

/// The lines of `expected` missing from `actual` (`-`) and those of
/// `actual` missing from `expected` (`+`).
fn diff(expected: &str, actual: &str) -> String {
    let only = |sign: char, from: &str, other: &str| {
        let other: Vec<&str> = other.lines().collect();
        let lines = from.lines().filter(|line| !other.contains(line));
        lines
            .map(|line| format!("{sign} {line}\n"))
            .collect::<String>()
    };
    only('-', expected, actual) + &only('+', actual, expected)
}

/// Compares the named shape's lines with its recorded ones. Each shape is
/// its own test, so the five run side by side.
fn check(name: &str) {
    let shape = shapes().into_iter().find(|s| s.name == name);
    let shape = shape.unwrap_or_else(|| panic!("no shape {name}"));
    let prefix = format!("{name} ");
    let recorded: String = RECORDED
        .lines()
        .filter(|line| line.starts_with(&prefix))
        .map(|line| format!("{line}\n"))
        .collect();
    let actual: String = ledger(&shape).iter().map(|l| format!("{l}\n")).collect();
    assert!(
        actual == recorded,
        "the cost ledger moved:\n{}\nactual:\n{actual}",
        diff(&recorded, &actual)
    );
}

#[test]
fn point_shape_one_signature() {
    check("point_one");
}

#[test]
fn point_shape_multi_signature() {
    check("point_multi");
}

#[test]
fn wide_range_shape() {
    check("wide_range");
}

#[test]
fn one_shard_of_the_sharded_shape() {
    check("shard");
}

#[test]
fn an_lp_shape_at_three_dimensions() {
    check("lp_d3");
}

#[test]
fn every_recorded_line_belongs_to_a_shape() {
    let names: Vec<&str> = shapes().iter().map(|s| s.name).collect();
    for line in RECORDED.lines() {
        let shape = line.split(' ').next().unwrap_or_default();
        assert!(names.contains(&shape), "stray ledger line: {line}");
    }
}
