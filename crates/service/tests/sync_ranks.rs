//! Keeps the static and runtime halves of the lock-rank scheme in sync:
//! `crates/lint/lock_ranks.toml` (read by the vaq-lint lock-order pass) and
//! `vaq_service::sync::rank` (asserted by OrderedMutex under debug builds)
//! must describe the same ordering, or one checker silently diverges from
//! the other.

use std::collections::BTreeMap;
use std::path::Path;

use vaq_service::sync::rank;

fn manifest() -> BTreeMap<String, u32> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../lint/lock_ranks.toml");
    let text = std::fs::read_to_string(&path).expect("lock_ranks.toml is checked in");
    let mut ranks = BTreeMap::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once('=')
            .expect("manifest lines are `name = rank`");
        let rank: u32 = value.trim().parse().expect("rank is a u32");
        assert!(
            ranks.insert(name.trim().to_string(), rank).is_none(),
            "duplicate manifest entry for '{}'",
            name.trim()
        );
    }
    ranks
}

#[test]
fn manifest_matches_runtime_rank_constants() {
    let ranks = manifest();
    let expected = [
        ("serving", rank::SERVING),
        ("shard_map", rank::SHARD_MAP),
        ("cache", rank::CACHE),
        ("buffer", rank::BUFFER),
    ];
    for (name, runtime_rank) in expected {
        assert_eq!(
            ranks.get(name).copied(),
            Some(runtime_rank),
            "manifest entry '{name}' must equal vaq_service::sync::rank"
        );
    }
    // No manifest entries beyond the runtime set of four mutexes.
    assert_eq!(
        ranks.len(),
        4,
        "unexpected extra manifest entries: {ranks:?}"
    );
}

#[test]
fn ranks_are_strictly_ordered_along_the_nesting_chain() {
    // The deepest legal nesting chain in vaq-service; strictly increasing
    // ranks are what make the lock graph acyclic.
    let chain = [rank::SERVING, rank::SHARD_MAP, rank::CACHE, rank::BUFFER];
    for pair in chain.windows(2) {
        assert!(pair[0] < pair[1], "ranks must strictly increase: {chain:?}");
    }
}
