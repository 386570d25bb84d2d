//! Stands up a networked query service over a synthetic dataset.
//!
//! ```text
//! cargo run --release --example serve -- [records] [dims] [seed]
//! ```
//!
//! Binds port 0 (the OS picks a free ephemeral port, so concurrent runs
//! never collide) and prints the chosen address, then serves until the
//! process is killed. Pair it with the `remote_verify` example or
//! `vaq_service::ServiceClient` from another process.

use verified_analytics::authquery::{IfmhTree, Server, SigningMode};
use verified_analytics::crypto::SignatureScheme;
use verified_analytics::service::{QueryService, ServiceConfig};
use verified_analytics::workload::uniform_dataset;

fn main() {
    let mut args = std::env::args().skip(1);
    let records: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let dims: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    println!("building dataset: {records} records, {dims} dims, seed {seed}");
    let dataset = uniform_dataset(records, dims, seed);
    let scheme = SignatureScheme::test_rsa(seed);
    let tree = IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme);
    let server = Server::new(dataset.clone(), tree);

    // Port 0: the OS assigns a free port, printed below — never hardcode a
    // port that collides when the example is run twice.
    let config = ServiceConfig::ephemeral().workers(4);
    let service = QueryService::bind(config, server).expect("bind service");
    let addr = service.local_addr();
    println!("serving on {addr} (port {})", addr.port());
    println!(
        "publish to users out of band: template arity {}, owner public key (seed {seed}), epoch {}",
        dataset.template.dims(),
        service.epoch()
    );
    println!("press Ctrl-C to stop");

    // Serve until killed; report stats periodically so progress is visible.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(10));
        let stats = service.stats_deep().snapshot;
        println!(
            "epoch {}: served {} requests ({} cache hits, {} errors, {} bytes out)",
            stats.epoch, stats.requests_served, stats.cache_hits, stats.errors, stats.bytes_out
        );
    }
}
