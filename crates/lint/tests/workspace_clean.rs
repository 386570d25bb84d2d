//! The real workspace must lint clean. This folds `vaq-lint` into tier-1:
//! a new panic path, raw epoch arithmetic, or an uncounted error code
//! fails `cargo test` even if nobody runs the binary.

use std::path::Path;

#[test]
fn workspace_sources_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let findings = vaq_lint::run_all(&root).expect("workspace scans");
    assert!(
        findings.is_empty(),
        "vaq-lint found {} issue(s) in the workspace:\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
