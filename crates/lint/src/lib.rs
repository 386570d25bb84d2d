//! `vaq-lint`: workspace-native static analysis for the verified-analytics
//! service tier.
//!
//! Three passes, each a cheap token-level scan (no rustc internals, no
//! crates.io dependencies), enforce properties the type system cannot and
//! no runtime check or test covers on its own:
//!
//! - **panic-path** — no `unwrap`/`expect`/`panic!`/`todo!` (or hot-path
//!   slice indexing) in non-test vaq-service / vaq-wire code, nor in the
//!   crypto/VO fast-path files (`montgomery.rs`, `sign_pool.rs`,
//!   `proof_cache.rs`); requests die as typed errors, never as reactor
//!   panics.
//! - **epoch-discipline** — epoch ordering goes through
//!   `vaq_wire::epoch::{advances, rolls_back, next}` and response-cache
//!   accesses key on the epoch-prefixed `key`.
//! - **error-accounting** — every `ErrorCode` variant has a per-code
//!   counter increment site in vaq-service, so no typed error is invisible
//!   in the deep stats.
//!
//! Any finding can be silenced inline with
//! `// lint:allow(<pass>, <reason>)` on the same line or the line above —
//! the reason is mandatory, and malformed allows are findings themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod epoch_discipline;
pub mod error_accounting;
pub mod panic_path;
pub mod scan;

use scan::SourceFile;

/// One reported lint violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// The file the finding is anchored in.
    pub file: PathBuf,
    /// The 1-based line the finding is anchored at.
    pub line: u32,
    /// The pass that produced it (an entry of [`scan::PASSES`], or
    /// `lint-allow` for malformed allow annotations).
    pub pass: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.pass,
            self.message
        )
    }
}

/// A failure to run the lint at all (as opposed to findings).
#[derive(Debug)]
pub enum LintError {
    /// A source file could not be read.
    Io(PathBuf, std::io::Error),
    /// The root does not contain the expected workspace source trees.
    NoSources(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            LintError::NoSources(root) => write!(
                f,
                "no sources found under {} (expected crates/service/src and crates/wire/src)",
                root.display()
            ),
        }
    }
}

impl std::error::Error for LintError {}

/// Runs all three passes over the workspace rooted at `root` and returns
/// the surviving (non-allowed) findings, sorted by file and line.
pub fn run_all(root: &Path) -> Result<Vec<Finding>, LintError> {
    let service_src = read_tree(&root.join("crates/service/src"))?;
    let wire_src = read_tree(&root.join("crates/wire/src"))?;
    if service_src.is_empty() && wire_src.is_empty() {
        return Err(LintError::NoSources(root.to_path_buf()));
    }
    // Crypto / VO fast-path files run per request on the server; the
    // panic-path pass holds them to the reactor's no-panic bar. Only the
    // named hot files are scanned — the rest of those crates (key
    // generation, tree construction) runs owner-side at publish time.
    let hot_files: Vec<SourceFile> = read_tree(&root.join("crates/crypto/src"))?
        .into_iter()
        .chain(read_tree(&root.join("crates/authquery/src"))?)
        .filter(|f| panic_path::CRYPTO_HOT_FILES.contains(&f.file_name()))
        .collect();

    let mut findings = Vec::new();

    // Malformed allow annotations are findings in their own right and are
    // never suppressible.
    for file in service_src.iter().chain(&wire_src).chain(&hot_files) {
        for (line, message) in &file.malformed_allows {
            findings.push(Finding {
                pass: "lint-allow",
                file: file.path.clone(),
                line: *line,
                message: message.clone(),
            });
        }
    }

    let mut raw = Vec::new();

    let panic_files: Vec<&SourceFile> = service_src
        .iter()
        .chain(&wire_src)
        .chain(&hot_files)
        .collect();
    raw.extend(panic_path::run(&panic_files));

    if let Some(envelope) = wire_src.iter().find(|f| f.file_name() == "envelope.rs") {
        let service_files: Vec<&SourceFile> = service_src.iter().collect();
        raw.extend(error_accounting::run(envelope, &service_files));
    }

    let epoch_files: Vec<&SourceFile> = service_src
        .iter()
        .chain(&wire_src)
        .filter(|f| f.file_name() != "epoch.rs")
        .collect();
    raw.extend(epoch_discipline::run(&epoch_files));

    // Apply allow annotations: an allow suppresses a matching-pass finding
    // on its own line or the line directly below it.
    let mut allows: BTreeMap<&Path, Vec<&scan::Allow>> = BTreeMap::new();
    for file in service_src.iter().chain(&wire_src).chain(&hot_files) {
        for allow in &file.allows {
            allows.entry(file.path.as_path()).or_default().push(allow);
        }
    }
    for finding in raw {
        let allowed = allows
            .get(finding.file.as_path())
            .is_some_and(|file_allows| {
                file_allows.iter().any(|a| {
                    a.pass == finding.pass && (a.line == finding.line || a.line + 1 == finding.line)
                })
            });
        if !allowed {
            findings.push(finding);
        }
    }

    findings.sort();
    findings.dedup();
    Ok(findings)
}

/// All `.rs` files under `dir` (recursively), in sorted order; an absent
/// directory is an empty tree.
fn read_tree(dir: &Path) -> Result<Vec<SourceFile>, LintError> {
    let mut paths = Vec::new();
    collect_rs_files(dir, &mut paths)?;
    paths.sort();
    paths
        .iter()
        .map(|path| SourceFile::read(path).map_err(|e| LintError::Io(path.clone(), e)))
        .collect()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(LintError::Io(dir.to_path_buf(), e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}
