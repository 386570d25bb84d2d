//! The owner's batch signing must be invisible on the wire: a tree built
//! through [`Signer::sign_digests`] as [`SignatureScheme`] implements it
//! (an RSA batch this size is split over the machine's cores) and one built
//! through a signer that only forwards `sign_digest` (the trait's
//! sequential default) must answer every query with byte-identical
//! verification objects — for RSA, where signing is a pure function of key
//! and digest, and for DSA, where it also depends on the order the seeded
//! nonce stream is drawn in.

use vaq_authquery::{client, IfmhTree, Query, Server, SigningMode};
use vaq_crypto::sha256::{sha256, to_hex, Digest};
use vaq_crypto::{Signature, SignatureScheme, Signer, Verifier};
use vaq_wire::WireEncode;
use vaq_workload::uniform_dataset;

/// Hides the wrapped scheme's `sign_digests`, so the build falls back to
/// the default: one `sign_digest` call per digest, in order.
struct OneByOne(SignatureScheme);

impl Signer for OneByOne {
    fn sign_digest(&self, digest: &Digest) -> Signature {
        self.0.sign_digest(digest)
    }

    fn verifier(&self) -> Box<dyn Verifier> {
        self.0.verifier()
    }
}

#[test]
fn batch_signed_and_one_by_one_signed_trees_answer_with_identical_bytes() {
    let dims = 2;
    let dataset = uniform_dataset(40, dims, 7);
    // Two schemes from one seed each: the seeded nonce stream is consumed
    // as DSA signs, so each build needs its own.
    let pairs = [
        (
            "rsa",
            SignatureScheme::test_rsa(9),
            SignatureScheme::test_rsa(9),
        ),
        (
            "dsa",
            SignatureScheme::test_dsa(9),
            SignatureScheme::test_dsa(9),
        ),
    ];
    for (name, batch, one_by_one) in pairs {
        let one_by_one = OneByOne(one_by_one);
        let mode = SigningMode::MultiSignature;
        let batch_tree = IfmhTree::build_at_epoch(&dataset, mode, &batch, 4);
        let reference_tree = IfmhTree::build_at_epoch(&dataset, mode, &one_by_one, 4);
        assert!(
            batch_tree.stats().signatures >= 300,
            "{} subdomains do not reach the parallel path",
            batch_tree.stats().signatures
        );
        assert_eq!(batch_tree.stats(), reference_tree.stats());

        let verifier = batch.verifier();
        let batch_server = Server::new(dataset.clone(), batch_tree);
        let reference_server = Server::new(dataset.clone(), reference_tree);
        // Weights fanned across the domain, so the queries land in
        // different subdomains and carry different leaf signatures.
        let mut leaf_signatures = std::collections::HashSet::new();
        for step in 1..24 {
            let w = vec![step as f64 / 24.0, 1.0 - step as f64 / 24.0];
            let queries = [
                Query::top_k(w.clone(), 3),
                Query::range(w.clone(), 0.2, 0.7),
                Query::knn(w, 2, 0.5),
            ];
            for query in queries {
                let got = batch_server.process(&query);
                let want = reference_server.process(&query);
                let ctx = format!("{name} query {query}");
                assert_eq!(got.vo.to_framed_bytes(), want.vo.to_framed_bytes(), "{ctx}");
                assert_eq!(got.records, want.records, "{ctx}");
                let verified = client::verify_at_epoch(
                    &query,
                    &got.records,
                    &got.vo,
                    &dataset.template,
                    verifier.as_ref(),
                    4,
                );
                assert!(verified.is_ok(), "{ctx}: {verified:?}");
                leaf_signatures.insert(got.vo.signature.to_wire_bytes());
            }
        }
        assert!(leaf_signatures.len() >= 10, "{name}: queries share leaves");
    }
}

/// One row of [`RECORDED`]: `(n, d, seed)` of the `uniform_dataset`, the
/// subdomain count, the IMH root, and per `(mode, epoch)` the SHA-256 of the
/// wire-encoded `QueryResponse` to a top-k, a range and a KNN query.
type Recorded = (
    (usize, usize, u64),
    usize,
    &'static str,
    [[&'static str; 3]; 4],
);

/// Taken on the commit before the owner build was made proportional to the
/// arrangement, under `SignatureScheme::test_rsa(9)`. The inner rows are
/// (OneSignature, 0), (OneSignature, 5), (MultiSignature, 0),
/// (MultiSignature, 5). The `(20, 3, 2)` row's IMH root and one-signature
/// responses were re-recorded once, when leaves began to be sorted at the
/// centre of their largest inscribed ball: before, many d = 3 cells were
/// sorted at a point on their own boundary, where two functions tie, and the
/// owner signed lists that are wrong inside the cell.
const RECORDED: [Recorded; 4] = [
    (
        (64, 1, 1),
        1,
        "14eea26526759c97a0d54a631c44887c15e680d7695c04304bef076d5d43d953",
        [
            [
                "60ffdb21858d244d85742a46436dab640edda77e372c3a2a1fdb2aa86c3db56e",
                "6efdd8ff497d3b9d4ee61a59c2671e6f4f53dc4ff787f268ff09a49922385116",
                "e6b5bc718b3f8a270b8dbc88428a6f8de4f31257a8e9ca1d012aa42a43e4626f",
            ],
            [
                "076720af717198bba70ff5fec3c3f40f7ffa0e414658ef47790f71855da7b5a0",
                "16c72e823da74190680ddea5ce002e9e946aed51bf740c41f50836a13f0d3d3c",
                "79cf5f70be60e3ee4e01f1db56251a7c125cdfda1510606d11329d2b08d85d88",
            ],
            [
                "a5e99b2c50150daec7caddcebe43b7f0e590c8bf6867cfc8823239c20fa2a469",
                "a278e2d509557e4c0a17eb6bc561f4fec3e23118381335dfb8f1483c7cfc50a5",
                "f24f3396ccd0624d3108586fea737809096c3fd7dfff77c99004c08671cc4c9f",
            ],
            [
                "5f3c08232bf67530ee8a5c2bc153d140d2eb446344dca97421c74a8e130853d0",
                "71787c9fbde741f8cc4f6b7590d612a421184baa4055ead3cca07a6fe91c18d4",
                "ac2b51fc974179c54161d6f8cdc4aede123afe9e5cee4b3ffb03dd0064a4879a",
            ],
        ],
    ),
    (
        (40, 2, 7),
        305,
        "e1b3e704c96a323331b160c4a631b249a8e588d425d21e08b04189d16c4f4094",
        [
            [
                "20e4d3438f5505927c6c214717898692d5c0350e0a2c4efb0a29fd11f7b520fb",
                "e3f2472de449316275f3ec5ad5d83552e07fa3f14756a5073ff478c4b5a1e0b0",
                "8bdfafaca4247dd0ac0b75a30491b63ed96ee53d3ae7099cda0ba2aa8367c27a",
            ],
            [
                "3088d6fb9de074e27f5cc77848f4a2f0f4805998d19211f15f6cf485cab35457",
                "b4a4acb2fe61dac316749c42f79b79b7de36043dc873d3b3ca6e3b0179f3f30e",
                "779e6c6d6c26f677116f792d2ed83b90c03a79ca31de3faecb88546d52927ba8",
            ],
            [
                "696a846c8fd64cd5171fb664d0e85e530190b06e1b83c9f9508484d3dbad2eee",
                "e6173aa56f12ff47ec1b82db443dfc564a1cb7eeeceaef8505eecb0667a969ab",
                "fc620b4534d2442d033e76dd8b33a012ccb47d86ed19cfe0c1349d50d82033b7",
            ],
            [
                "ea4a1d17ca602dfe21bc5a36bb5dd60c07bd573194e7c5f22ffe0e1e350f34e6",
                "0ec10e403cf0f54c753a93cca0775ae1388eab978defbf56e0f096a5be6b7ab0",
                "ea27c90968c791bceca7ae5c8e8c750298b77d7af2265319971ec293ffba958f",
            ],
        ],
    ),
    (
        (76, 2, 1),
        1285,
        "8af6797d564af7984fff7fe489c9c13f151d68ac25b5673a77e3d4ba4fa894b5",
        [
            [
                "be06b54b01c22ad40f14164d4ee714869ddb209ff4ad4b07b19290fc19b0ad0e",
                "f7fcaff62371a04725b20b2466fdcc7b5c0fd771f2e78e7ddefc532dec4571f4",
                "2938b1c0f517ef5c74c9ac11e67d2d43161f7ac4302e0cc6010daa0f379afbab",
            ],
            [
                "7820991159011b57ef0d55e3619ac731bd7f08e10e61a3c9b319cda64ec9c59c",
                "d31808197800b306a9c48c965cc0bb66cf768d91040fbe362df78328986019e6",
                "a4bbcc3a41c20ec06226f428cb8e609f544e5bf1548f8025b8919c0d19a38d20",
            ],
            [
                "55c711bb70d62107d27de13fb19cf89d025ad07b1c621eac39b6360dd2a4a9f1",
                "0b0945463096c76911d7ba0582a7756a8c5533fe387eae28e8dbbe191f19ef78",
                "0989901e7039b8cf53ca378f35633dfec594cb8d2068e11707eb6b4f3c740984",
            ],
            [
                "50376fc4cfc97e171dafc67a059c61e2785abb2435094184466e70f98487c159",
                "5f6e3de593c5b14a1c4baa431803e879dd20cde7e4f2bc761107f29266c08058",
                "fa1a43b777345a0199649c104c73412ab9d3c19380c2f5643ec13dff4f5d1f4b",
            ],
        ],
    ),
    (
        (20, 3, 2),
        4357,
        "a5cfa0f39de065ea911bc2214b97735aedcd208d63d3abccac1e389a1bc165d0",
        [
            [
                "47cd9839fb3f89ed262121d87d5f521c42b6c3ee844bd24fac498b02752e43ee",
                "9c60d86abb06cc09bca431fdc19d31157c4beec40b2a9b1cc511284507075e4e",
                "5d4e1982d30274b9eb7adbae125657282bfb012fd7055127c64384e4f6369719",
            ],
            [
                "1cf4d6fda3a86648f78ccf8bf5b1966a57e8858ababa0bedc56e67b41aea0c34",
                "d746a69b33341af524bc4321e0be131ecf0daae76c186fea147ea79cf1c12561",
                "82cb3199755b5709891177f5f12b8b55dc43cc25b4b2239c274152f0d7e115f4",
            ],
            [
                "4bdad6e1499dcaf00651d40151e6ec78cd89e98aa7c3b771433ea5af288f8092",
                "78d09879d70723e75981d5f515de907e87d6316fca26eb0261ee1ccf776c7dc5",
                "8bb7dbc68109d53366d0ce17290ef8815b9ca9449eac9bf553aaef6e6b231187",
            ],
            [
                "e2922254947f946416afb7e70270e3a8e65d9cf69cd0c0bfbd2ea6ec52d6e7ba",
                "0cbe92822f1b7f927453c1b0d7d6f0696ab3c3d65a84e181209b8dc44b333ace",
                "f9fee97c52622a4fcd5b142ebff75f15053880a85c7624c3ba47648502618dab",
            ],
        ],
    ),
];

/// Builds one recorded dataset under both modes and both epochs and reads
/// off what [`RECORDED`] holds for it.
fn measure(
    n: usize,
    dims: usize,
    seed: u64,
) -> ((usize, usize, u64), usize, String, Vec<[String; 3]>) {
    let scheme = SignatureScheme::test_rsa(9);
    let dataset = uniform_dataset(n, dims, seed);
    let w = vec![1.0 / dims as f64; dims];
    let queries = [
        Query::top_k(w.clone(), 3),
        Query::range(w.clone(), 0.2, 0.7),
        Query::knn(w, 2, 0.5),
    ];
    let (mut shapes, mut responses) = (Vec::new(), Vec::new());
    for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
        for epoch in [0u64, 5] {
            let tree = IfmhTree::build_at_epoch(&dataset, mode, &scheme, epoch);
            shapes.push((tree.stats().subdomains, to_hex(&tree.root_hash())));
            let server = Server::new(dataset.clone(), tree);
            let hash = |q: &Query| to_hex(&sha256(&server.process(q).to_wire_bytes()));
            responses.push(queries.each_ref().map(hash));
        }
    }
    // Neither the signing mode nor the epoch reaches the arrangement.
    shapes.dedup();
    let [(subdomains, root)] = <[_; 1]>::try_from(shapes).expect("one shape per dataset");
    ((n, dims, seed), subdomains, root, responses)
}

/// No build-side change may move a root hash, a subdomain count or a
/// response byte: these were recorded once and are compared across commits,
/// where every other test in this directory compares two builds of one.
#[test]
fn recorded_roots_and_responses_are_unchanged() {
    // One thread per dataset: the d = 3 row alone is most of the work.
    let rows: Vec<_> = std::thread::scope(|scope| {
        let spawned: Vec<_> = RECORDED
            .iter()
            .map(|&((n, dims, seed), ..)| scope.spawn(move || measure(n, dims, seed)))
            .collect();
        let joined = spawned.into_iter().map(|handle| handle.join());
        joined.map(|row| row.expect("a build panicked")).collect()
    });
    let printed = format!("{rows:#?}");
    assert_eq!(printed, format!("{RECORDED:#?}"), "actual:\n{printed}");
}
