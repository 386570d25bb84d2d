//! CLI for the workspace lint: `vaq-lint [--root DIR]`.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or scan error.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: vaq-lint [--root DIR]

Runs the workspace static-analysis passes (lock-order, panic-path,
epoch-discipline, reactor-discipline, bounded-queue, error-accounting) over the verified-analytics workspace rooted at DIR
(default: the current directory).

Exit codes: 0 clean, 1 findings, 2 usage/scan error.";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("vaq-lint: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("vaq-lint: unknown argument '{other}'\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    match vaq_lint::run_all(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("vaq-lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for finding in &findings {
                println!("{finding}");
            }
            eprintln!(
                "vaq-lint: {} finding{} (silence intentional ones with \
                 `// lint:allow(<pass>, <reason>)`)",
                findings.len(),
                if findings.len() == 1 { "" } else { "s" }
            );
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("vaq-lint: {e}");
            ExitCode::from(2)
        }
    }
}
