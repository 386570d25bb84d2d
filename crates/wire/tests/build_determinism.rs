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
/// owner signed lists that are wrong inside the cell. Format version 2 (a
/// record as its canonical bytes) re-recorded every response hash once. The
/// multi-signature responses of the two d = 2 rows were re-recorded once,
/// when a subdomain's signed inequalities became its facets rather than its
/// whole path.
const RECORDED: [Recorded; 4] = [
    (
        (64, 1, 1),
        1,
        "14eea26526759c97a0d54a631c44887c15e680d7695c04304bef076d5d43d953",
        [
            [
                "bc73dbf175b06142b83172c5ef48cb4ca4cc15c83032775f5808133b2fc4a7a9",
                "7c3089dc85805b77b8a249565f8f15d5093f3e7e94166f8f79ae6906e9e2bceb",
                "d38ec4feb21434b43ec2a4b10b63c6df46be9207f04ac4e7b4cf809705fdfdd7",
            ],
            [
                "1820182c4e520c8624ff14715f6bf7c20fd7a3fbb0897ad7988f78cd997e0bb7",
                "b54b759c096608855a94843d96c20c44684a3770a7432572cd4bb68b96604486",
                "52be98ab8e81d9362c80ab13d86cc6c75520e3b08abe42720a39ddf5d89a74bd",
            ],
            [
                "a3be461df044aa5632fc902fbf2fc3197758a55033f9e6f691f0f7d1972dc08b",
                "f1a1923509a66a61eb379f56fae80aa7c3058bf44bdfb5488ea770ae6ed1afba",
                "93013b6f994c747d861c575f9bc8cf08455aea532f1b2700b3094dfaccb1ae25",
            ],
            [
                "b9c510101d8fec7082bc282c088fb7c83e01aacaddd31e69a426809ffc222465",
                "5ecd8dfa105931942d178c02d7322449acd35bdc967424bd469db10a2ce00527",
                "30cdea829a39970b568240f55ba437fd3ceb6f5da05a6341c5d0f2c6d5d515f0",
            ],
        ],
    ),
    (
        (40, 2, 7),
        305,
        "e1b3e704c96a323331b160c4a631b249a8e588d425d21e08b04189d16c4f4094",
        [
            [
                "18eaf3ad2d26692be23a8db12ae9488fa69aa0a3f33c46f35444a34028421912",
                "9ebad11651cb75e14d2de4d35d2ebd7cac4fef437b1d07222f5cb962b8ca16aa",
                "4c0366a47203f84fccaed4c9bf98d66c068a522c48f6bbe32da81717917c8278",
            ],
            [
                "10c59a611d6d225cfda4cb78ea9d4aa72a5e1777b2c5bf9e25049e9feffbf177",
                "b920001b43eed1fabcec9bde2729e798594c8708204eefead583a88c6334e8b7",
                "19220fd0f021684a4d3f4ce2a8806af45c2603bfb1683e10527b5994f4a884ec",
            ],
            [
                "b77aac4209e2018fb81daf8b420c578865d3e42ea28bca7d593bdd3e7c51d4f6",
                "31b28abad5ac2158f7cc7590d9d942a19d1fb9903d067ccc1642a2637b7da07a",
                "5af3dcc8d89740f201c67ba9ee50610b01faf4edeeb1e5df16fefe39e801dd98",
            ],
            [
                "8c06bd3298ac22aef62eb4e702e5eb28851dc36475ce4a82f794ea7d9de330a8",
                "b61b259a8a54950f0c47c109e3665569a7b6f1ed58ac904673294f2252b4fbe6",
                "d9fe32ae88562cf258e0acbaab6ec2ae3d4a945cd3c805adbf80a9ea356ef1a8",
            ],
        ],
    ),
    (
        (76, 2, 1),
        1285,
        "8af6797d564af7984fff7fe489c9c13f151d68ac25b5673a77e3d4ba4fa894b5",
        [
            [
                "f8df8574107f46a80b857766258a3f03a634a7e5f2920a294c9c61ff8c3f174d",
                "c28851ae331de357e8b7dd062ee1d6f86f24c8a3240db94dfb3369f63fa8fa6b",
                "7fc140b67946f7719cb2d228e866d6ff1bdc4dc7c2f3ec263a1f5821eae4fddb",
            ],
            [
                "340a166be8f7dda4580773aa439936afdb129fecb19411569e900d6a0cba8080",
                "b4e8302fb3ce4655c2bc0b2917209165a442dd81053bc6878ec9183ff0392180",
                "b5606d15043ee41fe00334fe99fb2912c934b03a912b46261324c37ad986a379",
            ],
            [
                "16060a596948416fa075ba190d5dd17abd0cd52ca9dd7e4838e04c57fde9f054",
                "304a4a61c1ea4e13c48776e47e81762d92039f0bde7996d7109fa066d262a94c",
                "21f702e9b150ca0832e409250f705f96d6b099e3096e6c8144e9d695db72a0c2",
            ],
            [
                "86a7280168371b601b79346a90eb7e99e6b1893793a7fbe6e9b45054fd949b10",
                "ceaeef8a4752b95d3f499c550c893cb42f0bc7c391789ae77a0bd4bf52a03386",
                "a7ac93657c2b179917bcab6df8a3b7bad598f90c9a91dda563fdd211da3c8967",
            ],
        ],
    ),
    (
        (20, 3, 2),
        4357,
        "a5cfa0f39de065ea911bc2214b97735aedcd208d63d3abccac1e389a1bc165d0",
        [
            [
                "df8aef63aee4670bac261c5f6d90d3dca8c53bcf08763d9222cfc92a180390ea",
                "a8954882b5c7c1e25fa9adb977bcf5025f70811caba9d02f959b30c5a5b164f4",
                "9d7d736a4eb263ab3b7f3ce28ea72668b04a075f7983c598080e7e7f60ba36f7",
            ],
            [
                "12c063c4d67183e55c75227d2b64dce28d1675069e42dbce1be1a0140c7e5d55",
                "327e29b602201b54c54ae02fb4169e155685b227646e6fd6732237ec84d8e946",
                "2930dfe315bb336b69f2a35089ce04ed11145d049eaf524fb54c13e931ee9465",
            ],
            [
                "715319fb38783cfa83394207eda9d5309899c21d8fd46721959368f0d95b2036",
                "f5119defbbcaa08af99af2d5979e7568ab88fbfb700b008e9ae66d6cfeefc5da",
                "4c91e9969a9f68f5d20cc2ab5505eec533df19e474ab0c5f02b99668c3e42eb6",
            ],
            [
                "e2d34f9f476d147ac203ff49af510b98638e0c56bee51bff69df94d72967ed8e",
                "9bfd6ba34c66e8b65ce41590a3765c61036cc600138a3aade7122863dd3ec93f",
                "6e77364be2a0dd7579e6545a93928cec824f7dfa8c032a64c0ea9a059a6b497a",
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
