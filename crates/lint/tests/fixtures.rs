//! Lint self-tests over the checked-in fixture trees: every bad fixture
//! must be flagged by the right pass at the right line, every good fixture
//! (including justified `lint:allow` exemptions) must scan clean, and the
//! CLI must map findings to exit codes.

use std::path::{Path, PathBuf};
use std::process::Command;

use vaq_lint::{run_all, Finding};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn findings(name: &str) -> Vec<Finding> {
    run_all(&fixture(name)).expect("fixture tree scans")
}

/// True when a finding of `pass` exists at `file_suffix:line` whose message
/// contains `needle`.
fn has(findings: &[Finding], pass: &str, file_suffix: &str, line: u32, needle: &str) -> bool {
    findings.iter().any(|f| {
        f.pass == pass
            && f.line == line
            && f.file
                .to_string_lossy()
                .replace('\\', "/")
                .ends_with(file_suffix)
            && f.message.contains(needle)
    })
}

fn dump(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn panic_path_bad_fixture_flags_every_panicking_shape() {
    let f = findings("panic_path_bad");
    let listing = dump(&f);
    assert!(
        has(&f, "panic-path", "src/server.rs", 2, ".unwrap()"),
        "{listing}"
    );
    assert!(
        has(&f, "panic-path", "src/server.rs", 3, ".expect("),
        "{listing}"
    );
    assert!(
        has(&f, "panic-path", "src/server.rs", 4, "indexing"),
        "{listing}"
    );
    assert!(
        has(&f, "panic-path", "src/server.rs", 6, "`panic!`"),
        "{listing}"
    );
    assert!(
        has(&f, "panic-path", "src/server.rs", 8, "`todo!`"),
        "{listing}"
    );
    assert_eq!(f.len(), 5, "unexpected finding set:\n{listing}");
}

#[test]
fn panic_path_good_fixture_is_clean() {
    // Test code, an allowed hot-path index, and indexing off the hot-path
    // file set are all fine.
    let f = findings("panic_path_good");
    assert!(f.is_empty(), "expected clean, got:\n{}", dump(&f));
}

#[test]
fn malformed_allows_are_findings_and_suppress_nothing() {
    let f = findings("allow_bad");
    let listing = dump(&f);
    assert!(
        has(&f, "lint-allow", "src/server.rs", 2, "missing a reason"),
        "{listing}"
    );
    assert!(
        has(&f, "panic-path", "src/server.rs", 3, ".unwrap()"),
        "a reason-less allow must not suppress:\n{listing}"
    );
    assert!(
        has(&f, "lint-allow", "src/server.rs", 4, "unknown pass"),
        "{listing}"
    );
    assert_eq!(f.len(), 3, "unexpected finding set:\n{listing}");
}

#[test]
fn epoch_bad_fixture_flags_raw_ordering_and_unprefixed_cache_keys() {
    let f = findings("epoch_bad");
    let listing = dump(&f);
    assert!(
        has(
            &f,
            "epoch-discipline",
            "src/server.rs",
            2,
            "`offered_epoch`"
        ),
        "{listing}"
    );
    assert!(
        has(&f, "epoch-discipline", "src/server.rs", 2, "`epoch`"),
        "{listing}"
    );
    assert!(
        has(&f, "epoch-discipline", "src/server.rs", 5, "`+`"),
        "{listing}"
    );
    assert!(
        has(
            &f,
            "epoch-discipline",
            "src/server.rs",
            10,
            "epoch-prefixed `key`"
        ),
        "{listing}"
    );
    assert_eq!(f.len(), 4, "unexpected finding set:\n{listing}");
}

#[test]
fn epoch_good_fixture_is_clean() {
    // Blessed helpers, equality checks, a justified allow, and properly
    // keyed cache accesses.
    let f = findings("epoch_good");
    assert!(f.is_empty(), "expected clean, got:\n{}", dump(&f));
}

#[test]
fn error_bad_fixture_flags_the_uncounted_code() {
    let f = findings("error_bad");
    let listing = dump(&f);
    assert!(
        has(
            &f,
            "error-accounting",
            "src/envelope.rs",
            3,
            "`ErrorCode::Overloaded`"
        ),
        "missing the uncounted-code finding:\n{listing}"
    );
    assert_eq!(f.len(), 1, "unexpected finding set:\n{listing}");
}

#[test]
fn error_good_fixture_counts_every_code() {
    let f = findings("error_good");
    assert!(f.is_empty(), "expected clean, got:\n{}", dump(&f));
}

// --- CLI surface -----------------------------------------------------------

fn cli_status(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_vaq-lint"))
        .args(args)
        .output()
        .expect("vaq-lint binary runs")
        .status
        .code()
}

#[test]
fn cli_exits_nonzero_on_every_bad_fixture() {
    for bad in ["panic_path_bad", "allow_bad", "epoch_bad", "error_bad"] {
        let root = fixture(bad);
        let code = cli_status(&["--root", root.to_str().expect("utf-8 path")]);
        assert_eq!(code, Some(1), "fixture {bad} must exit 1");
    }
}

#[test]
fn cli_exits_zero_on_every_good_fixture() {
    for good in ["panic_path_good", "epoch_good", "error_good"] {
        let root = fixture(good);
        let code = cli_status(&["--root", root.to_str().expect("utf-8 path")]);
        assert_eq!(code, Some(0), "fixture {good} must exit 0");
    }
}

#[test]
fn cli_usage_errors_exit_two() {
    assert_eq!(cli_status(&["--frobnicate"]), Some(2));
    assert_eq!(cli_status(&["--root"]), Some(2));
    // A root with no scannable sources is a scan error, not "clean".
    let empty = fixture("panic_path_good").join("crates");
    assert_eq!(
        cli_status(&["--root", empty.to_str().expect("utf-8 path")]),
        Some(2)
    );
}
