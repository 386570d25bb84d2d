//! Keeps the static and runtime halves of the queue-budget scheme in sync:
//! `crates/lint/queue_budgets.toml` (read by the vaq-lint bounded-queue
//! pass) must name only queue fields that actually exist in
//! crates/service/src, and only budget identifiers that are real config
//! fields, constants or guard flags — otherwise the pass silently checks
//! nothing while claiming the queues are bounded.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../lint/queue_budgets.toml")
}

fn manifest() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(manifest_path()).expect("queue_budgets.toml is checked in");
    let mut budgets = BTreeMap::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (field, budget) = line
            .split_once('=')
            .expect("manifest lines are `queue_field = budget_ident`");
        assert!(
            budgets
                .insert(field.trim().to_string(), budget.trim().to_string())
                .is_none(),
            "duplicate manifest entry for '{}'",
            field.trim()
        );
    }
    budgets
}

/// Concatenated vaq-service sources.
fn service_sources() -> String {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut combined = String::new();
    let mut stack = vec![src];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("src dir reads") {
            let path = entry.expect("dir entry reads").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                combined.push_str(&std::fs::read_to_string(&path).expect("source file reads"));
            }
        }
    }
    combined
}

/// Whether `name` appears in `source` as a whole identifier (not as a
/// substring of a longer one).
fn declares(source: &str, name: &str) -> bool {
    source.match_indices(name).any(|(at, _)| {
        let is_ident = |c: char| c.is_alphanumeric() || c == '_';
        let before_ok = !source[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !source[at + name.len()..]
            .chars()
            .next()
            .is_some_and(is_ident);
        before_ok && after_ok
    })
}

#[test]
fn manifest_is_checked_in_and_names_the_reactor_queues() {
    let budgets = manifest();
    assert!(!budgets.is_empty(), "queue_budgets.toml must not be empty");
    // The queues the slow-reader defence, read backpressure and the
    // reactor's timers depend on must stay declared; removing one silently
    // unchecks its pushes.
    for field in ["write_queue", "frames", "deadlines"] {
        assert!(
            budgets.contains_key(field),
            "queue_budgets.toml lost its `{field}` entry"
        );
    }
    assert_eq!(
        budgets.get("write_queue").map(String::as_str),
        Some("write_queue_budget_bytes"),
        "the write queue is budgeted by the ServiceConfig byte budget"
    );
}

#[test]
fn every_manifest_queue_field_exists_in_service_src() {
    let sources = service_sources();
    for (field, _) in manifest() {
        // A queue field is declared somewhere as `name:` (struct field) —
        // `write_queue: VecDeque<Outgoing>` and friends.
        assert!(
            declares(&sources, &field) && sources.contains(&format!("{field}:")),
            "queue field `{field}` from queue_budgets.toml is not declared in \
             crates/service/src; fix the manifest after a rename"
        );
    }
}

#[test]
fn every_manifest_budget_is_a_real_identifier_in_service_src() {
    let sources = service_sources();
    let config =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("src/config.rs"))
            .expect("config.rs reads");
    for (field, budget) in manifest() {
        assert!(
            declares(&sources, &budget),
            "budget `{budget}` for queue `{field}` does not exist in crates/service/src"
        );
        // A lower-case budget is either a ServiceConfig field or a guard
        // flag / field; an UPPER_CASE one must be a declared constant.
        if budget.chars().all(|c| c.is_uppercase() || c == '_') {
            assert!(
                sources.contains(&format!("const {budget}:")),
                "budget `{budget}` looks like a constant but `const {budget}:` is not \
                 declared in crates/service/src"
            );
        } else if budget.ends_with("_bytes") || budget == "workers" {
            assert!(
                config.contains(&format!("pub {budget}:")),
                "budget `{budget}` must be a public ServiceConfig field"
            );
        }
    }
}
