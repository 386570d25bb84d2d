//! `vaq_bench`: the repo's benchmark (see `BENCHMARK.json` and this
//! package's README).
//!
//! ```text
//! vaq_bench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke] [--out FILE]
//! vaq_bench --compare A B
//! ```
//!
//! One invocation deploys one workload over loopback TCP, drives it from one
//! closed-loop load thread, verifies every answer and prints every metric by
//! name with its unit; the last line of standard output is the result the
//! driver reads. `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs a short untraced pass, a traced pass and the probes, and
//! reports the per-layer metrics.

mod bench;
mod catalog;
mod compare;
mod json;
mod layers;
mod procfs;
mod report;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use bench::{PassOutcome, PassPlan};

/// Complete set-ups an end-to-end run makes; `setup_s` is their median and
/// the last one is the deployment measured. Two, so that the measured pass
/// can be twice as long within the time the driver allows all runs.
const SETUP_REPEATS: usize = 2;

/// The share of requests that may fail before a run counts as incorrect.
const FAILED_SHARE_LIMIT: f64 = 0.001;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: vaq_bench --workload <name> --seed <u64> --seconds <n> --trace <0|1> \
                     [--smoke] [--out FILE]\n       vaq_bench --compare A B";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 16,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare::compare(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => fail(&e),
            },
            _ => fail(USAGE),
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => return fail(&format!("{e}\n{USAGE}")),
    };
    match run(&args, &mut std::io::stdout()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => fail(&e),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("vaq_bench: {message}");
    ExitCode::from(2)
}

/// Where the span file goes: beside the build, inside the checkout.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target
        .join("vaq_bench")
        .join(format!("{workload}.trace.jsonl"))
}

/// One invocation. `Ok(true)` when the run was correct: the gate held, no
/// republication failed and at most `FAILED_SHARE_LIMIT` of requests did.
fn run(args: &Args, out: &mut impl Write) -> Result<bool, String> {
    let listed = catalog::WORKLOADS.iter().find(|w| w.name == args.workload);
    let (Some(listed), Some(spec)) = (listed, bench::spec(&args.workload, args.smoke)) else {
        let names: Vec<_> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {:?}; one of {}",
            args.workload,
            names.join(", ")
        ));
    };
    let duration = if args.smoke {
        bench::SMOKE_PASS
    } else {
        Duration::from_secs(args.seconds)
    };
    let repeats = if args.trace || args.smoke {
        1
    } else {
        SETUP_REPEATS
    };

    // The correctness gate runs inside every set-up and fails it.
    let mut setups_s = Vec::with_capacity(repeats);
    let mut deployed = bench::set_up(spec, args.seed, args.trace)?;
    setups_s.push(deployed.setup.as_secs_f64());
    for _ in 1..repeats {
        deployed.shut_down();
        deployed = bench::set_up(spec, args.seed, args.trace)?;
        setups_s.push(deployed.setup.as_secs_f64());
    }

    let defs = report::defs_for(args.trace);
    let (metrics, judged): (_, PassOutcome) = if args.trace {
        // The traced half sits between two untraced quarters: a run speeds
        // up over its first seconds, and this way the untraced p50 the
        // traced one is held against comes from both sides of it.
        let quarter = PassPlan {
            duration: duration / 4,
            traced: false,
        };
        let mut untraced = bench::run_pass(&mut deployed, quarter);
        let traced = bench::run_pass(
            &mut deployed,
            PassPlan {
                duration: duration / 2,
                traced: true,
            },
        );
        untraced.absorb(&bench::run_pass(&mut deployed, quarter));
        let (mut metrics, budget) = report::per_layer(&deployed, &untraced, &traced);
        metrics.insert(
            "authquery.build_ms",
            Some(deployed.build.as_secs_f64() * 1e3),
        );
        metrics.insert(
            "crypto.keygen_ms",
            Some(deployed.keygen.as_secs_f64() * 1e3),
        );
        bench::run_probes(deployed.shut_down(), args.seed, &mut metrics);
        let path = trace_path(spec.name);
        trace::write_jsonl(&path, &traced.logs).map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = writeln!(out, "{budget}");
        let _ = writeln!(out, "spans written to {}", path.display());
        // Judge the invocation on every request it made, traced or not.
        untraced.absorb(&traced);
        (metrics, untraced)
    } else {
        let pass = bench::run_pass(
            &mut deployed,
            PassPlan {
                duration,
                traced: false,
            },
        );
        deployed.shut_down();
        (report::end_to_end(&setups_s, &pass), pass)
    };

    let attempted = judged.attempted.max(1);
    let failed = judged.failed();
    for (label, count) in &judged.failures {
        eprintln!("vaq_bench: {count} requests failed as {label}");
    }
    let correct = failed as f64 / attempted as f64 <= FAILED_SHARE_LIMIT
        && judged.republish_failures == 0
        && judged.verified() > 0;

    let _ = writeln!(
        out,
        "== {} seed={} seconds={} trace={} samples={} ==",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        judged.verified()
    );
    let _ = writeln!(out, "why: {}", listed.why);
    report::print_table(out, defs, &metrics);
    if let Some(path) = &args.out {
        let record = report::record_line(spec.name, args.seed, args.trace, defs, &metrics);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{record}"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let line = report::result_line(defs, &metrics, correct, attempted, failed);
    writeln!(out, "{line}").map_err(|e| e.to_string())?;
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    /// The name grammar of `BENCHMARK.json`.
    fn is_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `BENCHMARK.json` as the catalog states it, key for key.
    fn benchmark_json_from_catalog() -> String {
        let workloads: Vec<String> = catalog::WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        let end_to_end: Vec<String> = catalog::END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.label(),
                    m.bound.expect("an end-to-end metric has a bound")
                )
            })
            .collect();
        let per_layer: Vec<String> = catalog::PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.label()
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
             \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
             \"run_seconds\": 16,\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
             \"per_layer\": [\n{}\n  ]\n}}\n",
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n")
        )
    }

    #[test]
    fn catalog_obeys_the_name_grammar() {
        let mut seen = std::collections::BTreeSet::new();
        for w in catalog::WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} is used twice", w.name);
        }
        for m in catalog::END_TO_END.iter().chain(catalog::PER_LAYER) {
            assert!(is_name(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{} has unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!((2..=8).contains(&catalog::WORKLOADS.len()));
        assert!((1..=16).contains(&catalog::END_TO_END.len()));
        assert!((1..=128).contains(&catalog::PER_LAYER.len()));
        assert!(catalog::END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_states_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let expected = benchmark_json_from_catalog();
        assert!(on_disk.len() <= 64 << 10);
        assert_eq!(
            json::parse(&on_disk).expect("BENCHMARK.json parses"),
            json::parse(&expected).expect("the catalog renders valid JSON"),
            "BENCHMARK.json and catalog.rs disagree; the catalog renders as:\n{expected}"
        );
    }

    /// Runs all five workloads at smoke size, both kinds of run, and checks
    /// that what is printed is exactly what the catalog lists.
    #[test]
    fn smoke_runs_print_every_listed_metric() {
        for w in catalog::WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: w.name.into(),
                    seed: 7,
                    seconds: 1,
                    trace,
                    smoke: true,
                    out: None,
                };
                let mut printed = Vec::new();
                let correct = run(&args, &mut printed).expect(w.name);
                assert!(correct, "{} trace={trace} was not correct", w.name);
                let printed = String::from_utf8(printed).unwrap();
                let last = printed.lines().last().unwrap();
                let result = json::parse(last).expect("the last line is the result");
                let keys: Vec<&str> = result
                    .as_object()
                    .unwrap()
                    .keys()
                    .map(String::as_str)
                    .collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
                let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
                let listed: Vec<&str> = report::defs_for(trace).iter().map(|m| m.name).collect();
                let mut sorted = listed.clone();
                sorted.sort_unstable();
                let got: Vec<&str> = metrics.keys().map(String::as_str).collect();
                assert_eq!(got, sorted, "{} trace={trace}", w.name);
                for def in report::defs_for(trace) {
                    let entry = &metrics[def.name];
                    assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
                    assert!(
                        entry.get("value").and_then(Value::as_f64).is_some(),
                        "{} has no value on {}",
                        def.name,
                        w.name
                    );
                    assert!(printed.contains(def.name));
                }
            }
        }
    }
}
