//! The panic-path pass: forbids `.unwrap()` / `.expect(…)` / `panic!` /
//! `todo!` / `unimplemented!` in non-test code of vaq-service and vaq-wire,
//! plus direct slice/array indexing in the request-handling hot-path files
//! (`server.rs`, `frame.rs`, `reactor.rs`, `conn.rs`, `io.rs`,
//! `envelope.rs`) and the per-request crypto fast-path files
//! (`montgomery.rs`, `sign_pool.rs`). A request must
//! never be able to kill its worker — or, since the evented rewrite, the
//! reactor thread that owns every connection: errors cross the wire as
//! typed `ServiceError` / `WireError` replies.
//!
//! When a real crate tree is scanned (recognised by the presence of a
//! `lib.rs`), every index-checked file must actually be in the scan — a
//! rename that silently dropped a hot-path file from coverage is itself a
//! finding.

use crate::scan::SourceFile;
use crate::Finding;

/// The pass name, as used in findings and `lint:allow`.
pub const PASS: &str = "panic-path";

/// Files on the request-handling hot path, where direct indexing is also
/// forbidden (a forged frame must not be able to panic a worker — and the
/// reactor and per-connection state machines run *every* byte of every
/// frame, so they are held to the same bar).
const INDEX_CHECKED_FILES: [&str; 8] = [
    "server.rs",
    "frame.rs",
    "reactor.rs",
    "conn.rs",
    "io.rs",
    "envelope.rs",
    "montgomery.rs",
    "sign_pool.rs",
];

/// Crypto fast-path files outside the service and wire trees that the
/// panic-path pass also covers: they run once per signature on the server's
/// hot path, so a data-dependent panic there is exactly as fatal as one in
/// the reactor. `run_all` scans `crates/crypto/src` for just these names.
pub const CRYPTO_HOT_FILES: [&str; 2] = ["montgomery.rs", "sign_pool.rs"];

/// Keywords that make a preceding-token `[` a type, pattern or literal
/// rather than an indexing expression.
const NON_VALUE_KEYWORDS: [&str; 25] = [
    "as", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return",
];
const NON_VALUE_KEYWORDS_TAIL: [&str; 8] = [
    "static", "struct", "trait", "type", "unsafe", "use", "where", "while",
];

fn is_non_value_keyword(text: &str) -> bool {
    NON_VALUE_KEYWORDS.contains(&text) || NON_VALUE_KEYWORDS_TAIL.contains(&text)
}

/// Runs the pass over vaq-service and vaq-wire sources.
pub fn run(files: &[&SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // A hot-path file that disappears from the scan (renamed, moved, or
    // deleted) would silently lose its indexing coverage. Real crate trees
    // always carry a `lib.rs`; the unit-test fixture trees don't, so they
    // are exempt from the presence check.
    if let Some(lib) = files.iter().find(|f| f.file_name() == "lib.rs") {
        for name in INDEX_CHECKED_FILES {
            if !files.iter().any(|f| f.file_name() == name) {
                findings.push(finding(
                    lib,
                    1,
                    &format!(
                        "hot-path file `{name}` is index-checked by the panic-path pass \
                         but missing from the scanned tree; fix the scan or update \
                         INDEX_CHECKED_FILES after a rename"
                    ),
                ));
            }
        }
    }
    for file in files {
        let index_checked = INDEX_CHECKED_FILES.contains(&file.file_name());
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            let line = tokens[i].line;
            if file.is_masked(line) {
                continue;
            }
            let text = tokens[i].text.as_str();
            let next = tokens.get(i + 1).map(|t| t.text.as_str());
            if text == "." && i + 2 < tokens.len() {
                let method = tokens[i + 1].text.as_str();
                let call = tokens[i + 2].text == "(";
                if call
                    && method == "unwrap"
                    && tokens.get(i + 3).map(|t| t.text.as_str()) == Some(")")
                {
                    findings.push(finding(
                        file,
                        tokens[i + 1].line,
                        "`.unwrap()` on a non-test path; return a typed error \
                         (ServiceError / WireError) instead",
                    ));
                } else if call && method == "expect" {
                    findings.push(finding(
                        file,
                        tokens[i + 1].line,
                        "`.expect(…)` on a non-test path; return a typed error \
                         (ServiceError / WireError) instead",
                    ));
                }
                continue;
            }
            if next == Some("!") && matches!(text, "panic" | "todo" | "unimplemented") {
                findings.push(finding(
                    file,
                    line,
                    &format!(
                        "`{text}!` on a non-test path; a request must never be able to \
                         kill its worker — return a typed error instead"
                    ),
                ));
                continue;
            }
            if index_checked && text == "[" && i > 0 {
                let prev = &tokens[i - 1];
                // `&'a [u8]`: the token before the `[` is a lifetime name,
                // not a value — don't mistake the slice type for indexing.
                let lifetime = i > 1 && tokens[i - 2].text == "'";
                let indexes_value = !lifetime
                    && (prev.text == ")"
                        || prev.text == "]"
                        || (prev.is_ident() && !is_non_value_keyword(&prev.text)));
                if indexes_value {
                    findings.push(finding(
                        file,
                        line,
                        "slice/array indexing on a request-handling path can panic on \
                         attacker-shaped input; use `.get(…)` or a checked bound",
                    ));
                }
            }
        }
    }
    findings
}

fn finding(file: &SourceFile, line: u32, message: &str) -> Finding {
    Finding {
        pass: PASS,
        file: file.path.clone(),
        line,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    fn file(name: &str, source: &str) -> SourceFile {
        SourceFile::from_source(Path::new(name), source)
    }

    #[test]
    fn missing_index_checked_file_is_a_finding_in_a_real_tree() {
        let lib = file("crates/service/src/lib.rs", "pub mod server;\n");
        let present: Vec<SourceFile> = INDEX_CHECKED_FILES
            .iter()
            .filter(|name| **name != "conn.rs")
            .map(|name| file(&format!("crates/service/src/{name}"), "fn ok() {}\n"))
            .collect();
        let mut refs: Vec<&SourceFile> = vec![&lib];
        refs.extend(present.iter());
        let findings = run(&refs);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, Path::new("crates/service/src/lib.rs"));
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].message.contains("`conn.rs`"), "{findings:?}");
    }

    #[test]
    fn complete_tree_and_fixture_tree_pass_the_presence_check() {
        let lib = file("crates/service/src/lib.rs", "pub mod server;\n");
        let present: Vec<SourceFile> = INDEX_CHECKED_FILES
            .iter()
            .map(|name| file(&format!("crates/service/src/{name}"), "fn ok() {}\n"))
            .collect();
        let mut refs: Vec<&SourceFile> = vec![&lib];
        refs.extend(present.iter());
        assert!(run(&refs).is_empty());

        // Fixture trees carry no lib.rs and are exempt: a lone server.rs
        // must not drag in five missing-file findings.
        let lone = file(
            "fixtures/panic_path_good/crates/service/src/server.rs",
            "fn ok() {}\n",
        );
        assert!(run(&[&lone]).is_empty());
    }

    #[test]
    fn reactor_and_conn_are_index_checked() {
        for name in ["reactor.rs", "conn.rs"] {
            let source = "fn f(xs: &[u8]) -> u8 { xs[0] }\n";
            let checked = file(&format!("crates/service/src/{name}"), source);
            let findings = run(&[&checked]);
            assert_eq!(findings.len(), 1, "{name}: {findings:?}");
            assert!(findings[0].message.contains("indexing"), "{findings:?}");
        }
    }
}
