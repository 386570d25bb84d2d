//! Owner-side partitioning of one logical dataset into disjoint shards.
//!
//! The paper's owner outsources one function database to one untrusted
//! server; this module is the owner-side half of scaling that model out
//! horizontally. The owner splits the records into `S` disjoint shards,
//! builds an independent authenticated structure (IFMH-tree) over each shard
//! **under a per-shard signing key**, and publishes a [`ShardMap`] attested
//! by a master signature. The per-shard keys are what stop a compromised
//! shard server from answering with another shard's (equally well-signed)
//! data; the attested map is what stops a front-end from silently dropping a
//! shard — the client knows exactly how many shards exist, how many records
//! each holds and which key each must verify under.

use vaq_crypto::sha256::Digest;
use vaq_crypto::{PublicKey, Signer};
use vaq_funcdb::Dataset;
use vaq_wire::{ShardEntry, ShardMap, SignedShardMap};

use crate::error::ServiceError;

/// How records are assigned to shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Record `i` goes to shard `i % S`. Keeps shard sizes within one record
    /// of each other and spreads any ordering structure in the source table
    /// across all shards.
    RoundRobin,
}

/// Splits `dataset` into `shards` disjoint datasets that together cover
/// every record exactly once. Each shard keeps the full template and weight
/// domain — a shard answers the same queries as the whole dataset, just over
/// fewer records.
///
/// # Panics
///
/// Panics when `shards` is zero, when the dataset has fewer records than
/// shards, or when record ids are not strictly increasing (see
/// `unpartitionable`).
pub fn partition_dataset(
    dataset: &Dataset,
    shards: usize,
    strategy: PartitionStrategy,
) -> Vec<Dataset> {
    let reason = unpartitionable(dataset, shards);
    assert!(reason.is_none(), "{}", reason.unwrap_or_default());
    let mut parts: Vec<Vec<vaq_funcdb::Record>> = vec![Vec::new(); shards];
    match strategy {
        PartitionStrategy::RoundRobin => {
            for (i, record) in dataset.records.iter().enumerate() {
                parts[i % shards].push(record.clone());
            }
        }
    }
    parts
        .into_iter()
        .map(|records| Dataset::new(records, dataset.template.clone(), dataset.domain.clone()))
        .collect()
}

/// Why `dataset` cannot be split into `shards`, or `None` when it can: not
/// into zero shards, nor into more shards than records (an empty shard
/// cannot carry an authenticated structure), nor when record ids are not
/// strictly increasing (the merge breaks ties by id, the dataset by index,
/// and only increasing ids make the two orders agree).
pub(crate) fn unpartitionable(dataset: &Dataset, shards: usize) -> Option<String> {
    let records = dataset.len();
    let disorder = dataset.records.windows(2).find_map(|pair| match pair {
        [a, b] if a.id >= b.id => Some((a.id, b.id)),
        _ => None,
    });
    match disorder {
        _ if shards == 0 => Some("cannot partition into zero shards".into()),
        _ if records < shards => Some(format!("{records} records cannot fill {shards} shards")),
        Some((a, b)) => Some(format!("record ids must increase ({a} before {b})")),
        None => None,
    }
}

/// Builds the owner's attested shard map over already partitioned shards:
/// one [`ShardEntry`] per shard carrying its record count, per-shard public
/// key and serving address, the whole map — including the publication
/// `epoch` — signed by the owner's master key.
///
/// `addrs` holds one address per shard, in shard-id order. The epoch is
/// what makes republication safe: clients never replace a verified map
/// with one whose epoch is not strictly greater, so a replayed older signed
/// map cannot roll anyone back.
pub fn attest_shard_map(
    shards: &[Dataset],
    shard_keys: &[PublicKey],
    master: &dyn Signer,
    epoch: u64,
    addrs: &[std::net::SocketAddr],
) -> SignedShardMap {
    assert_eq!(
        shards.len(),
        shard_keys.len(),
        "one public key per shard is required"
    );
    assert_eq!(
        addrs.len(),
        shards.len(),
        "one address per shard is required"
    );
    assert!(!shards.is_empty(), "a shard map needs at least one shard");
    let dims = shards[0].dims();
    let map = ShardMap {
        epoch,
        shard_count: shards.len() as u32,
        total_records: shards.iter().map(|s| s.len() as u64).sum(),
        dims: dims as u32,
        shards: shards
            .iter()
            .zip(shard_keys)
            .zip(addrs)
            .enumerate()
            .map(|(shard_id, ((dataset, public_key), addr))| ShardEntry {
                shard_id: shard_id as u32,
                records: dataset.len() as u64,
                public_key: public_key.clone(),
                addr: addr.to_string(),
            })
            .collect(),
    };
    let signature = master.sign_digest(&map.digest());
    SignedShardMap { map, signature }
}

/// Checks a published shard map against the owner's master key and its own
/// internal consistency. Every scatter-gather client must call this before
/// trusting the map's shard count and per-shard keys.
pub fn verify_shard_map(
    signed: &SignedShardMap,
    master: &dyn vaq_crypto::Verifier,
) -> Result<(), ServiceError> {
    let digest: Digest = signed.map.digest();
    if !master.verify_digest(&digest, &signed.signature) {
        return Err(ServiceError::ShardMap(
            "master signature does not cover this shard map".into(),
        ));
    }
    let map = &signed.map;
    if map.shard_count as usize != map.shards.len() {
        return Err(ServiceError::ShardMap(format!(
            "map declares {} shards but lists {}",
            map.shard_count,
            map.shards.len()
        )));
    }
    if map.shards.is_empty() {
        return Err(ServiceError::ShardMap("map lists no shards".into()));
    }
    for (index, entry) in map.shards.iter().enumerate() {
        if entry.shard_id as usize != index {
            return Err(ServiceError::ShardMap(format!(
                "entry {index} carries shard id {}",
                entry.shard_id
            )));
        }
    }
    let listed: u64 = map.shards.iter().map(|s| s.records).sum();
    if listed != map.total_records {
        return Err(ServiceError::ShardMap(format!(
            "per-shard record counts sum to {listed}, map declares {}",
            map.total_records
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_crypto::SignatureScheme;
    use vaq_workload::uniform_dataset;

    #[test]
    fn partitions_are_disjoint_and_cover_everything() {
        let dataset = uniform_dataset(17, 2, 3);
        let shards = partition_dataset(&dataset, 4, PartitionStrategy::RoundRobin);
        assert_eq!(shards.len(), 4);
        let mut ids: Vec<u64> = shards
            .iter()
            .flat_map(|s| s.records.iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        let original: Vec<u64> = dataset.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, original, "every record once");
        for shard in &shards {
            assert!(!shard.is_empty());
            assert_eq!(shard.dims(), dataset.dims());
            // Within a shard the source order (and so the id order) is
            // preserved.
            for pair in shard.records.windows(2) {
                assert!(pair[0].id < pair[1].id);
            }
        }
    }

    #[test]
    fn round_robin_balances_within_one_record() {
        let dataset = uniform_dataset(14, 1, 9);
        let shards = partition_dataset(&dataset, 4, PartitionStrategy::RoundRobin);
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 14);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn more_shards_than_records_panics() {
        let dataset = uniform_dataset(3, 1, 1);
        let _ = partition_dataset(&dataset, 4, PartitionStrategy::RoundRobin);
    }

    #[test]
    fn attested_map_verifies_and_rejects_tampering() {
        let dataset = uniform_dataset(10, 1, 5);
        let shards = partition_dataset(&dataset, 3, PartitionStrategy::RoundRobin);
        let keys: Vec<PublicKey> = (0..3)
            .map(|i| SignatureScheme::test_rsa(100 + i).public_key())
            .collect();
        let master = SignatureScheme::test_rsa(99);
        let addrs: Vec<std::net::SocketAddr> = (0..3)
            .map(|i| format!("127.0.0.1:{}", 4200 + i).parse().unwrap())
            .collect();
        let signed = attest_shard_map(&shards, &keys, &master, 5, &addrs);
        assert_eq!(signed.map.shard_count, 3);
        assert_eq!(signed.map.total_records, 10);
        assert_eq!(signed.map.epoch, 5);
        assert_eq!(signed.map.shards[1].addr, "127.0.0.1:4201");
        verify_shard_map(&signed, &master.public_key()).expect("honest map verifies");

        // A different master key must reject the map.
        let other = SignatureScheme::test_rsa(98);
        assert!(matches!(
            verify_shard_map(&signed, &other.public_key()),
            Err(ServiceError::ShardMap(_))
        ));

        // Dropping a shard from the map breaks the signature.
        let mut tampered = signed.clone();
        tampered.map.shards.pop();
        tampered.map.shard_count -= 1;
        assert!(matches!(
            verify_shard_map(&tampered, &master.public_key()),
            Err(ServiceError::ShardMap(_))
        ));

        // Inconsistent record totals are rejected even before the signature
        // check would catch them on re-encode.
        let mut inconsistent = signed.clone();
        inconsistent.map.total_records += 1;
        assert!(verify_shard_map(&inconsistent, &master.public_key()).is_err());
    }
}
