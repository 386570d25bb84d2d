//! `vaq_bench --compare A B`: sets two results files side by side.
//!
//! A results file holds one record per run, as `--out` appends them. For
//! every workload and metric both files hold, the medians, the change, the
//! run-to-run spread and the catalog's bound are printed, and each
//! end-to-end metric is marked `ok`, `regressed` or `unresolved`.

use std::collections::BTreeMap;

use crate::catalog::{self, Better};
use crate::json::{self, Value};
use crate::report::median;

/// Workload, then metric, then the values of every run in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let metrics = record
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}:{}: no metrics", n + 1))?;
        let slot = runs.entry(workload.to_string()).or_default();
        for (name, entry) in metrics {
            // A `null` (no `/proc`) is a missing run, not a zero.
            if let Some(v) = entry.get("value").and_then(Value::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` gives.
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median;
/// 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// By what share of `a` the value `b` is worse, given which way is better.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// The rule of the choosing-metrics guide: a metric regressed when B's
/// median is worse than A's by more than the bound; where either side's
/// spread is wider than the bound it is unresolved instead, unless every
/// run of B reads better than every run of A.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        let all_better = a
            .iter()
            .all(|&x| b.iter().all(|&y| worsening(x, y, better) < 0.0));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(median(a), median(b), better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison; `Ok(true)` when no end-to-end metric regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!(
        "{:<14} {:<36} {:<6} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "better", "A median", "B median", "worse", "A iqr", "B iqr", "bound"
    );
    for (workload, metrics_a) in &a {
        let Some(metrics_b) = b.get(workload) else {
            continue;
        };
        for (name, runs_a) in metrics_a {
            let (Some(runs_b), Some(def)) = (metrics_b.get(name), catalog::metric(name)) else {
                continue;
            };
            let worse = worsening(median(runs_a), median(runs_b), def.better);
            let (bound, verdict) = match def.bound {
                Some(bound) => {
                    let verdict = judge(runs_a, runs_b, def.better, bound);
                    clean &= verdict != Verdict::Regressed;
                    (format!("{bound:.2}"), format!("{verdict:?}").to_lowercase())
                }
                None => ("-".into(), "-".into()),
            };
            println!(
                "{workload:<14} {name:<36} {:<6} {:>14.4} {:>14.4} {:>+8.3} {:>8.3} {:>8.3} {bound:>6}  {verdict}",
                def.better.label(),
                median(runs_a),
                median(runs_b),
                worse,
                spread(runs_a),
                spread(runs_b),
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4)
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        // Lower is better: 120 against 100 is 20% worse.
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0, 120.0], Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &[105.0, 104.0, 106.0, 105.0], Better::Lower, 0.1),
            Verdict::Ok
        );
        // Higher is better: a drop is the worsening.
        assert_eq!(
            judge(&steady, &[80.0, 81.0, 79.0, 80.0], Better::Higher, 0.1),
            Verdict::Regressed
        );
        // A side noisier than the bound cannot carry a verdict...
        let noisy = [60.0, 100.0, 140.0, 180.0];
        assert_eq!(
            judge(&noisy, &[120.0, 121.0, 119.0, 120.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[50.0, 51.0, 49.0, 50.0], Better::Lower, 0.1),
            Verdict::Ok
        );
    }
}
