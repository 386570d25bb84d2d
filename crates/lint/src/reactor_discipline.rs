//! The reactor-discipline pass: code that runs on the reactor thread
//! (`reactor.rs`, `conn.rs`) must never block, except in its one sanctioned
//! place — `Poller::poll`, where the thread waits in the kernel for a ready
//! socket, a worker's wake-up or the nearest deadline. Any other blocked
//! call stalls every connection at once — the multiplexed design
//! concentrates what used to be a per-connection hazard into a
//! whole-service one — so the pass forbids, in non-test reactor-thread
//! code:
//!
//! - `sleep(…)` calls (`std::thread::sleep` and friends);
//! - blocking channel receives: `.recv()` must be `try_recv` (the waker
//!   ends the `poll` when there is something to take);
//! - condvar `.wait(…)`;
//! - `.lock()` / `.read()` / `.write()` on a lock ranked above the
//!   `reactor_safe_ceiling` entry of `crates/lint/lock_ranks.toml` (or on
//!   an unranked lock) — high-ranked locks are worker-side and may be held
//!   across request execution;
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
//! A deliberate exception would carry
//! `// lint:allow(reactor-discipline, <reason>)`; the reactor has none —
//! shutdown's drain and goodbye flush wait in the same `poll` with their
//! deadline as its timeout. The runtime cross-check is the turn-duration
//! stall watchdog (`Metrics::observe_sweep`).

use crate::manifest::Manifest;
use crate::scan::SourceFile;
use crate::Finding;

/// The pass name, as used in findings and `lint:allow`.
pub const PASS: &str = "reactor-discipline";

/// Files whose non-test code runs on the reactor thread.
const REACTOR_FILES: [&str; 2] = ["reactor.rs", "conn.rs"];

/// The `lock_ranks.toml` entry naming the highest lock rank the reactor
/// thread may acquire.
pub const CEILING_KEY: &str = "reactor_safe_ceiling";

/// Stream methods that block until their transfer completes.
const BLOCKING_IO_METHODS: [&str; 4] = ["read_exact", "write_all", "read_to_end", "read_to_string"];

/// Runs the pass over the vaq-service sources; only the reactor-thread
/// files are scanned, but the whole tree is passed in so a renamed reactor
/// file cannot silently drop out of coverage.
pub fn run(files: &[&SourceFile], manifest: Option<&Manifest>) -> Vec<Finding> {
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
    let ceiling = manifest.and_then(|m| m.get(CEILING_KEY).copied());
    for file in files
        .iter()
        .filter(|f| REACTOR_FILES.contains(&f.file_name()))
    {
        scan_file(file, manifest, ceiling, &mut findings);
    }
    findings
}

fn scan_file(
    file: &SourceFile,
    manifest: Option<&Manifest>,
    ceiling: Option<u32>,
    findings: &mut Vec<Finding>,
) {
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
                 signal the reactor through the completion channel and its waker \
                 instead"
                    .to_string(),
            ));
        } else if matches!(method, "lock" | "read" | "write") && zero_arg {
            lock_check(file, i, method_line, manifest, ceiling, findings);
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

/// Ranks a `.lock()`-shaped acquisition on the reactor thread against the
/// `reactor_safe_ceiling` manifest entry.
fn lock_check(
    file: &SourceFile,
    dot: usize,
    line: u32,
    manifest: Option<&Manifest>,
    ceiling: Option<u32>,
    findings: &mut Vec<Finding>,
) {
    // No manifest at all is already a lock-order finding; don't double-report.
    let Some(manifest) = manifest else { return };
    let name = receiver(file, dot);
    let Some(ceiling) = ceiling else {
        findings.push(finding(
            file,
            line,
            format!(
                "lock '{name}' taken on the reactor thread but \
                 crates/lint/lock_ranks.toml has no `{CEILING_KEY}` entry to rank it \
                 against"
            ),
        ));
        return;
    };
    match manifest.get(&name).copied() {
        None => findings.push(finding(
            file,
            line,
            format!(
                "unranked lock '{name}' taken on the reactor thread; rank it in \
                 crates/lint/lock_ranks.toml at or below `{CEILING_KEY}` ({ceiling}) \
                 or keep it off the reactor"
            ),
        )),
        Some(rank) if rank > ceiling => findings.push(finding(
            file,
            line,
            format!(
                "lock '{name}' (rank {rank}) taken on the reactor thread exceeds \
                 `{CEILING_KEY}` ({ceiling}); locks above the ceiling are worker-side \
                 and may be held across request execution, which would stall every \
                 connection"
            ),
        )),
        Some(_) => {}
    }
}

/// The identifier the method is called on: `shared.cache.lock()` → `cache`.
fn receiver(file: &SourceFile, dot: usize) -> String {
    if dot > 0 && file.tokens[dot - 1].is_ident() {
        file.tokens[dot - 1].text.clone()
    } else {
        "<expression>".to_string()
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

    fn manifest(entries: &[(&str, u32)]) -> Manifest {
        entries
            .iter()
            .map(|(name, rank)| (name.to_string(), *rank))
            .collect()
    }

    #[test]
    fn every_blocking_shape_is_flagged_in_reactor_files() {
        let source = concat!(
            "fn f(rx: &Receiver<C>, shared: &S, stream: &TcpStream) {\n",
            "    std::thread::sleep(NAP);\n",
            "    let c = rx.recv();\n",
            "    let g = shared.cache.lock();\n",
            "    shared.done.wait(g);\n",
            "    stream.set_nonblocking(false);\n",
            "    stream.write_all(buf);\n",
            "}\n",
        );
        let reactor = file("crates/service/src/reactor.rs", source);
        let ranks = manifest(&[("cache", 40), ("reactor_safe_ceiling", 20)]);
        let findings = run(&[&reactor], Some(&ranks));
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5, 6, 7], "{findings:?}");
        assert!(findings[2].message.contains("rank 40"), "{findings:?}");
    }

    #[test]
    fn non_reactor_files_and_test_code_are_exempt() {
        let elsewhere = file(
            "crates/service/src/pool.rs",
            "fn f(rx: &Receiver<C>) { let c = rx.recv(); }\n",
        );
        assert!(run(&[&elsewhere], None).is_empty());

        let test_only = file(
            "crates/service/src/conn.rs",
            "#[test]\nfn t() { std::thread::sleep(NAP); }\n",
        );
        assert!(run(&[&test_only], None).is_empty());
    }

    #[test]
    fn nonblocking_shapes_and_safe_locks_pass() {
        let source = concat!(
            "fn f(rx: &Receiver<C>, shared: &S, stream: &TcpStream) {\n",
            "    let a = rx.try_recv();\n",
            "    let b = rx.recv_timeout(NAP);\n",
            "    let g = shared.receiver.lock();\n",
            "    stream.set_nonblocking(true);\n",
            "    let n = stream.read(&mut buf);\n",
            "}\n",
        );
        let reactor = file("crates/service/src/reactor.rs", source);
        let ranks = manifest(&[("receiver", 10), ("reactor_safe_ceiling", 20)]);
        let findings = run(&[&reactor], Some(&ranks));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unranked_locks_and_a_missing_ceiling_are_findings() {
        let reactor = file(
            "crates/service/src/reactor.rs",
            "fn f(shared: &S) { let g = shared.mystery.lock(); }\n",
        );
        let with_ceiling = manifest(&[("reactor_safe_ceiling", 20)]);
        let findings = run(&[&reactor], Some(&with_ceiling));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("unranked"), "{findings:?}");

        let no_ceiling = manifest(&[("mystery", 10)]);
        let findings = run(&[&reactor], Some(&no_ceiling));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains(CEILING_KEY), "{findings:?}");
    }

    #[test]
    fn a_missing_reactor_file_is_a_finding_in_a_real_tree() {
        let lib = file("crates/service/src/lib.rs", "pub mod reactor;\n");
        let reactor = file("crates/service/src/reactor.rs", "fn ok() {}\n");
        let findings = run(&[&lib, &reactor], None);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`conn.rs`"), "{findings:?}");
    }
}
