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
fn lock_order_bad_fixture_is_fully_flagged() {
    let f = findings("lock_order_bad");
    let listing = dump(&f);
    assert!(
        has(&f, "lock-order", "src/server.rs", 3, "lock-order violation"),
        "missing the shutdown-shaped violation:\n{listing}"
    );
    assert!(
        has(&f, "lock-order", "src/server.rs", 3, "'serving' (rank 20)"),
        "violation must name both locks and ranks:\n{listing}"
    );
    assert!(
        has(
            &f,
            "lock-order",
            "src/server.rs",
            8,
            "'mystery' has no rank"
        ),
        "missing the unranked-lock finding:\n{listing}"
    );
    assert!(
        has(&f, "lock-order", "src/server.rs", 14, "condvar 'done'"),
        "missing the wait-rank mismatch:\n{listing}"
    );
    assert!(
        has(&f, "lock-order", "src/server.rs", 18, "rank::BOGUS"),
        "missing the declaration-site check:\n{listing}"
    );
    assert!(
        has(&f, "lock-order", "src/a.rs", 2, "'alpha' has no rank"),
        "missing the unranked 'alpha' site:\n{listing}"
    );
    assert!(
        f.iter()
            .any(|x| x.pass == "lock-order" && x.message.contains("lock-order cycle")),
        "missing the AB/BA cycle finding:\n{listing}"
    );
    // 1 violation + 1 unranked 'mystery' + 1 wait mismatch + 1 bad
    // declaration + 4 unranked alpha/beta sites + 1 cycle.
    assert_eq!(f.len(), 9, "unexpected finding set:\n{listing}");
}

#[test]
fn lock_order_good_fixture_is_clean() {
    let f = findings("lock_order_good");
    assert!(f.is_empty(), "expected clean, got:\n{}", dump(&f));
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
fn reactor_bad_fixture_flags_every_blocking_shape() {
    let f = findings("reactor_bad");
    let listing = dump(&f);
    assert!(
        has(&f, "reactor-discipline", "src/reactor.rs", 4, "`sleep(…)`"),
        "missing the sleep finding:\n{listing}"
    );
    assert!(
        has(&f, "reactor-discipline", "src/reactor.rs", 8, "`.recv()`"),
        "missing the blocking-recv finding:\n{listing}"
    );
    assert!(
        has(
            &f,
            "reactor-discipline",
            "src/reactor.rs",
            12,
            "lock 'cache' (rank 40)"
        ),
        "missing the over-ceiling cache lock:\n{listing}"
    );
    assert!(
        has(
            &f,
            "reactor-discipline",
            "src/reactor.rs",
            17,
            "lock 'result' (rank 60)"
        ),
        "missing the over-ceiling result lock:\n{listing}"
    );
    assert!(
        has(&f, "reactor-discipline", "src/reactor.rs", 18, "`.wait(…)`"),
        "missing the condvar-wait finding:\n{listing}"
    );
    assert!(
        has(
            &f,
            "reactor-discipline",
            "src/reactor.rs",
            22,
            "`.set_nonblocking(false)`"
        ),
        "missing the blocking-socket finding:\n{listing}"
    );
    assert!(
        has(
            &f,
            "reactor-discipline",
            "src/reactor.rs",
            23,
            "`.write_all(…)`"
        ),
        "missing the blocking-I/O finding:\n{listing}"
    );
    // Exactly the seven reactor-discipline findings: the fixture's lock
    // nesting and wait pairing are lock-order clean by construction.
    assert_eq!(f.len(), 7, "unexpected finding set:\n{listing}");
}

#[test]
fn reactor_good_fixture_is_clean() {
    // recv_timeout / try_recv pacing, a ceiling-respecting lock, a justified
    // pacing sleep, and non-blocking socket pumps are all fine.
    let f = findings("reactor_good");
    assert!(f.is_empty(), "expected clean, got:\n{}", dump(&f));
}

#[test]
fn queue_bad_fixture_flags_unbudgeted_pushes() {
    let f = findings("queue_bad");
    let listing = dump(&f);
    assert!(
        has(
            &f,
            "bounded-queue",
            "src/conn.rs",
            3,
            "never tests its budget `write_queue_budget_bytes`"
        ),
        "missing the write-queue finding:\n{listing}"
    );
    assert!(
        has(
            &f,
            "bounded-queue",
            "src/conn.rs",
            7,
            "never tests its budget `MAX_CONN_BACKLOG`"
        ),
        "missing the pending-queue finding:\n{listing}"
    );
    assert_eq!(f.len(), 2, "unexpected finding set:\n{listing}");
}

#[test]
fn queue_good_fixture_is_clean() {
    // Budget-tested pushes, plus a push onto a queue the manifest does not
    // name, scan clean.
    let f = findings("queue_good");
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
    for bad in [
        "lock_order_bad",
        "panic_path_bad",
        "allow_bad",
        "epoch_bad",
        "reactor_bad",
        "queue_bad",
        "error_bad",
    ] {
        let root = fixture(bad);
        let code = cli_status(&["--root", root.to_str().expect("utf-8 path")]);
        assert_eq!(code, Some(1), "fixture {bad} must exit 1");
    }
}

#[test]
fn cli_exits_zero_on_every_good_fixture() {
    for good in [
        "lock_order_good",
        "panic_path_good",
        "epoch_good",
        "reactor_good",
        "queue_good",
        "error_good",
    ] {
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
    let empty = fixture("lock_order_good").join("crates/lint");
    assert_eq!(
        cli_status(&["--root", empty.to_str().expect("utf-8 path")]),
        Some(2)
    );
}
