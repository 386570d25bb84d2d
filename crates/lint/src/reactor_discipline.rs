//! The reactor-discipline pass: code that runs on a reactor thread
//! (`reactor.rs`, `conn.rs`) must never block, except in its one sanctioned
//! place — `Poller::poll`, where the thread waits in the kernel for a ready
//! socket, the shutdown wake-up or the nearest deadline. Any other blocked
//! call stalls every connection of that reactor at once — the multiplexed
//! design concentrates what used to be a per-connection hazard into a
//! per-reactor one — so the pass forbids, in non-test reactor-thread code:
//!
//! - `sleep(…)` calls (`std::thread::sleep` and friends);
//! - blocking channel receives: `.recv()` must be `try_recv`;
//! - condvar `.wait(…)`;
//! - `.set_nonblocking(false)` and blocking stream I/O (`read_exact`,
//!   `write_all`, `read_to_end`, `read_to_string`) — every reactor socket
//!   op must be a non-blocking pump.
//!
//! `poll.rs` is deliberately not a reactor file: it *is* the blocking call,
//! and `.poll(…)` is the one wait the shapes above leave unflagged. The
//! frame parser the reactor feeds (`FrameAssembler` in `frame.rs`) is a
//! pure state machine — no socket, lock or clock — so that file, which also
//! holds the blocking client reader, stays outside this pass too.
//!
//! Locks are not policed here: a reactor answers requests in place, so it
//! takes every lock in the crate, each for an O(1) critical section (a
//! snapshot `Arc` clone, a cache probe, a slow-log line), and the
//! lock-order pass ranks them all.
//!
//! A deliberate exception would carry
//! `// lint:allow(reactor-discipline, <reason>)`; the reactor has none —
//! shutdown's goodbye flush waits in the same `poll` with its deadline as
//! the timeout. The runtime cross-check is the turn-duration stall watchdog
//! (`Metrics::observe_sweep`).

use crate::scan::SourceFile;
use crate::Finding;

/// The pass name, as used in findings and `lint:allow`.
pub const PASS: &str = "reactor-discipline";

/// Files whose non-test code runs on the reactor thread.
const REACTOR_FILES: [&str; 2] = ["reactor.rs", "conn.rs"];

/// Stream methods that block until their transfer completes.
const BLOCKING_IO_METHODS: [&str; 4] = ["read_exact", "write_all", "read_to_end", "read_to_string"];

/// Runs the pass over the vaq-service sources; only the reactor-thread
/// files are scanned, but the whole tree is passed in so a renamed reactor
/// file cannot silently drop out of coverage.
pub fn run(files: &[&SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Real crate trees always carry a `lib.rs`; the unit-test fixture trees
    // don't, so they are exempt from the presence check (same contract as
    // the panic-path pass).
    if let Some(lib) = files.iter().find(|f| f.file_name() == "lib.rs") {
        for name in REACTOR_FILES {
            if !files.iter().any(|f| f.file_name() == name) {
                findings.push(finding(
                    lib,
                    1,
                    format!(
                        "reactor-thread file `{name}` is checked by the reactor-discipline \
                         pass but missing from the scanned tree; fix the scan or update \
                         REACTOR_FILES after a rename"
                    ),
                ));
            }
        }
    }
    for file in files
        .iter()
        .filter(|f| REACTOR_FILES.contains(&f.file_name()))
    {
        scan_file(file, &mut findings);
    }
    findings
}

fn scan_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        let line = tokens[i].line;
        if file.is_masked(line) {
            continue;
        }
        let text = tokens[i].text.as_str();
        // `sleep(…)` — `std::thread::sleep` or any other sleeping call.
        if text == "sleep" && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("(") {
            findings.push(finding(
                file,
                line,
                "`sleep(…)` on the reactor thread stalls every connection at once; \
                 put the instant on the deadline heap and let `Poller::poll` time \
                 out on it instead"
                    .to_string(),
            ));
            continue;
        }
        if text != "." || i + 2 >= tokens.len() {
            continue;
        }
        let method = tokens[i + 1].text.as_str();
        let method_line = tokens[i + 1].line;
        if tokens[i + 2].text != "(" {
            continue;
        }
        let zero_arg = tokens.get(i + 3).map(|t| t.text.as_str()) == Some(")");
        if method == "recv" && zero_arg {
            findings.push(finding(
                file,
                method_line,
                "blocking channel `.recv()` on the reactor thread; drain with \
                 `try_recv` after `Poller::poll` returns (senders wake the poller) \
                 so a quiet channel cannot freeze every connection"
                    .to_string(),
            ));
        } else if method == "wait" {
            findings.push(finding(
                file,
                method_line,
                "condvar `.wait(…)` on the reactor thread blocks every connection; \
                 signal the reactor through its waker instead"
                    .to_string(),
            ));
        } else if method == "set_nonblocking"
            && tokens.get(i + 3).map(|t| t.text.as_str()) == Some("false")
        {
            findings.push(finding(
                file,
                method_line,
                "`.set_nonblocking(false)` turns a reactor socket back into a blocking \
                 one; every reactor socket op must stay a non-blocking pump"
                    .to_string(),
            ));
        } else if BLOCKING_IO_METHODS.contains(&method) {
            findings.push(finding(
                file,
                method_line,
                format!(
                    "blocking stream I/O `.{method}(…)` on the reactor thread; pump \
                     partial reads/writes through the non-blocking buffers instead"
                ),
            ));
        }
    }
}

fn finding(file: &SourceFile, line: u32, message: String) -> Finding {
    Finding {
        pass: PASS,
        file: file.path.clone(),
        line,
        message,
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
    fn every_blocking_shape_is_flagged_in_reactor_files() {
        let source = concat!(
            "fn f(rx: &Receiver<C>, shared: &S, stream: &TcpStream) {\n",
            "    std::thread::sleep(NAP);\n",
            "    let c = rx.recv();\n",
            "    shared.done.wait(g);\n",
            "    stream.set_nonblocking(false);\n",
            "    stream.write_all(buf);\n",
            "}\n",
        );
        let reactor = file("crates/service/src/reactor.rs", source);
        let findings = run(&[&reactor]);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5, 6], "{findings:?}");
    }

    #[test]
    fn non_reactor_files_and_test_code_are_exempt() {
        let elsewhere = file(
            "crates/service/src/server.rs",
            "fn f(rx: &Receiver<C>) { let c = rx.recv(); }\n",
        );
        assert!(run(&[&elsewhere]).is_empty());

        let test_only = file(
            "crates/service/src/conn.rs",
            "#[test]\nfn t() { std::thread::sleep(NAP); }\n",
        );
        assert!(run(&[&test_only]).is_empty());
    }

    #[test]
    fn nonblocking_shapes_and_safe_locks_pass() {
        // A reactor answers requests in place, so it may take any lock: the
        // lock-order pass ranks them, this one does not.
        let source = concat!(
            "fn f(rx: &Receiver<C>, shared: &S, stream: &TcpStream) {\n",
            "    let a = rx.try_recv();\n",
            "    let b = rx.recv_timeout(NAP);\n",
            "    let g = shared.cache.lock();\n",
            "    stream.set_nonblocking(true);\n",
            "    let n = stream.read(&mut buf);\n",
            "}\n",
        );
        let reactor = file("crates/service/src/reactor.rs", source);
        let findings = run(&[&reactor]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn a_missing_reactor_file_is_a_finding_in_a_real_tree() {
        let lib = file("crates/service/src/lib.rs", "pub mod reactor;\n");
        let reactor = file("crates/service/src/reactor.rs", "fn ok() {}\n");
        let findings = run(&[&lib, &reactor]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`conn.rs`"), "{findings:?}");
    }
}
