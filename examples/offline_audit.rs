//! Offline audit: the server's answers are written to disk in the `VAQ1`
//! wire format and verified later by a separate auditor process that only
//! holds the owner's published metadata.
//!
//! This mirrors how verification objects are used in practice: they are not
//! just checked interactively by the querying user, they can be archived and
//! re-verified by an auditor months later — the signature still binds the
//! result to the owner's original database.
//!
//! ```text
//! cargo run --release --example offline_audit
//! ```

use std::fs;
use std::path::PathBuf;
use verified_analytics::authquery::{client, DataOwner, Query, Server, SigningMode};
use verified_analytics::wire::{WireDecode, WireEncode};
use verified_analytics::workload::financial_risk_table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("vaq-offline-audit");
    fs::create_dir_all(&dir)?;

    // ------------------------------------------------------------- owner
    let dataset = financial_risk_table(40, 2026);
    let owner = DataOwner::with_rsa_key(dataset.clone(), 512, 2026, SigningMode::MultiSignature);
    let metadata = owner.publish();
    let tree = owner.outsource();
    println!(
        "owner: outsourced {} records ({} subdomains, {} signatures)",
        dataset.len(),
        tree.subdomain_count(),
        tree.signature_count()
    );

    // ------------------------------------------------------------ server
    let server = Server::new(dataset.clone(), tree);
    let queries = [
        Query::top_k(vec![1.0, 0.5, 0.25], 5),
        Query::range(vec![0.8, 0.8, 0.4], 0.6, 1.2),
        Query::knn(vec![0.5, 1.0, 0.5], 4, 1.0),
    ];
    let responses: Vec<_> = queries.iter().map(|q| server.process(q)).collect();

    // Archive every query/response pair as framed binary files.
    let mut files: Vec<(PathBuf, PathBuf)> = Vec::new();
    for (i, (query, response)) in queries.iter().zip(&responses).enumerate() {
        let q_path = dir.join(format!("query-{i}.vaq"));
        let r_path = dir.join(format!("response-{i}.vaq"));
        fs::write(&q_path, query.to_framed_bytes())?;
        fs::write(&r_path, response.to_framed_bytes())?;
        println!(
            "server: archived query {i} ({} result records, VO {} bytes on the wire)",
            response.records.len(),
            response.vo.to_wire_bytes().len()
        );
        files.push((q_path, r_path));
    }

    // ----------------------------------------------------------- auditor
    // The auditor reads the archived files back and verifies each one using
    // only the owner's published metadata (template + public key).
    println!(
        "\nauditor: re-verifying archived responses from {}",
        dir.display()
    );
    for (i, (q_path, r_path)) in files.iter().enumerate() {
        let query = Query::from_framed_bytes(&fs::read(q_path)?)?;
        let response =
            verified_analytics::authquery::QueryResponse::from_framed_bytes(&fs::read(r_path)?)?;
        match client::verify(
            &query,
            &response.records,
            &response.vo,
            &metadata.template,
            &metadata.public_key,
        ) {
            Ok(v) => println!(
                "  archive {i}: VERIFIED ({} records, {} hash ops, {} signature check)",
                response.records.len(),
                v.cost.hash_ops,
                v.cost.signature_verifications
            ),
            Err(e) => println!("  archive {i}: REJECTED — {e}"),
        }
    }

    // Demonstrate that tampering with an archived file is caught.
    let (q_path, r_path) = &files[0];
    let query = Query::from_framed_bytes(&fs::read(q_path)?)?;
    let mut response =
        verified_analytics::authquery::QueryResponse::from_framed_bytes(&fs::read(r_path)?)?;
    if let Some(first) = response.records.first_mut() {
        first.attrs[0] *= 1.01; // a 1% "adjustment" to an archived risk score
    }
    let out = client::verify(
        &query,
        &response.records,
        &response.vo,
        &metadata.template,
        &metadata.public_key,
    );
    println!(
        "\nauditor: after tampering with the archive: {}",
        match out {
            Ok(_) => "ACCEPTED (this would be a bug)".to_string(),
            Err(e) => format!("REJECTED — {e}"),
        }
    );
    Ok(())
}
