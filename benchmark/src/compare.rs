//! `ledger compare A.json B.json`: two sets of runs, metric by metric
//! and workload by workload, against the bounds `BENCHMARK.json` fixes.

use crate::json::Json;
use crate::spec::{metrics_of, Metric};
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;
use std::path::Path;

/// The bound and direction `BENCHMARK.json` gives an end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub bound: f64,
    pub higher_is_better: bool,
}

/// End-to-end metric name → bound, from a `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end`")?;
    metrics
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                Bound {
                    bound: m.get("bound")?.as_f64()?,
                    higher_is_better: m.get("better")?.as_str()? == "higher",
                },
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end metric lacks name, bound or better".into())
}

/// What the comparison of one metric on one workload found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// B's median is within the bound of A's, and the sets overlap or
    /// differ by less than A's own spread.
    Same,
    /// B's median is worse than A's by more than the bound, or every run
    /// of B is worse than every run of A by more than A's own spread.
    Regressed,
    /// The same with better for worse; a gain inside the bound counts
    /// only when the sets do not overlap.
    Improved,
    /// The runs of one side spread wider than the bound, and the sides
    /// overlap: the data cannot tell.
    Unresolved,
    /// A value that repeats exactly differs.
    Differs,
}

impl Verdict {
    fn tag(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's median;
/// negative when B is better.
fn worsening(a: &[f64], b: &[f64], higher_is_better: bool) -> f64 {
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    if ma == 0.0 {
        return 0.0;
    }
    let change = (mb - ma) / ma.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// `Some(true)` when every run of B is better than every run of A,
/// `Some(false)` when every one is worse, `None` when the sets overlap.
fn every_b_run_better(a: &[f64], b: &[f64], higher_is_better: bool) -> Option<bool> {
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(y, x)));
    if all(&|y, x| y > x) {
        Some(higher_is_better)
    } else if all(&|y, x| y < x) {
        Some(!higher_is_better)
    } else {
        None
    }
}

/// Fewest runs a side for which "every run of B against every run of A"
/// is evidence: with five a side, two equal sets separate by chance once
/// in 126 comparisons.
const SEPARABLE_RUNS: usize = 5;

/// Compare host-time samples under a regression bound.
///
/// The bound is shared by all workloads, so the noisiest one sets it and
/// a plain shift on a quiet workload can lie inside it. Sets that do not
/// overlap and whose medians differ by more than A's own spread are
/// therefore judged by that, whatever the bound.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let worse = worsening(a, b, bound.higher_is_better);
    let a_iqr = spread(a);
    if a.len() >= SEPARABLE_RUNS && b.len() >= SEPARABLE_RUNS && worse.abs() > a_iqr {
        match every_b_run_better(a, b, bound.higher_is_better) {
            Some(true) => return Verdict::Improved,
            Some(false) => return Verdict::Regressed,
            None => {}
        }
    }
    if a_iqr.max(spread(b)) > bound.bound {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regressed
    } else if -worse > bound.bound.max(a_iqr) {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

/// Compare samples of a value that repeats exactly for a seed: run `i`
/// of both sets used the same seed, so the values must be equal, as far
/// as the shorter set goes.
pub fn judge_exact(a: &[f64], b: &[f64]) -> Verdict {
    if a.iter().zip(b).all(|(x, y)| x == y) {
        Verdict::Same
    } else {
        Verdict::Differs
    }
}

fn samples(set: &Json, workload: &str, section: &str, metric: &str) -> Option<Vec<f64>> {
    let values = set
        .at(&format!("workloads/{workload}/{section}"))?
        .get(metric)?
        .as_array()?;
    Some(values.iter().filter_map(Json::as_f64).collect())
}

/// A note for sets that do not overlap: a shift can be plain to see and
/// still lie inside a bound that the machine's noise forced wide.
fn separation(a: &[f64], b: &[f64], higher_is_better: bool) -> &'static str {
    match every_b_run_better(a, b, higher_is_better) {
        Some(true) => ", every B run better than every A run",
        Some(false) => ", every B run worse than every A run",
        None => "",
    }
}

fn row(m: &Metric, a: &[f64], b: &[f64], bound: Option<&Bound>) -> (String, Verdict) {
    let verdict = match bound {
        _ if m.exact => judge_exact(a, b),
        Some(bound) => judge(a, b, bound),
        // A layer metric has no bound; it is shown, not judged.
        None => Verdict::Same,
    };
    let [a1, a2, a3] = quartiles(a);
    let [b1, b2, b3] = quartiles(b);
    let ratio = if a2 == 0.0 {
        "-".to_string()
    } else {
        format!("{:.4}", b2 / a2)
    };
    let judged = match (m.exact, bound) {
        (true, _) => "exact".to_string(),
        (false, Some(bound)) => format!("bound {:.3}", bound.bound),
        (false, None) => "no bound".to_string(),
    };
    (
        format!(
            "  {:<34} A {a2:>13.4} [{a1:.4}, {a3:.4}] n={}  B {b2:>13.4} [{b1:.4}, {b3:.4}] n={}  {} B/A {ratio} of A {a2:.4}  {judged}  {}{}",
            m.name,
            a.len(),
            b.len(),
            m.unit,
            if bound.is_some() || m.exact { verdict.tag() } else { "" },
            if m.exact { "" } else { separation(a, b, m.better == "higher") }
        ),
        verdict,
    )
}

/// Print the comparison; an error when anything regressed or an exact
/// value differs, so that a script can gate on the exit code.
pub fn compare(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("usage: ledger compare A.json B.json".into());
    };
    let read = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?)
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    let bounds = read_bounds(Path::new("BENCHMARK.json"))?;
    for (label, set) in [("A", &a), ("B", &b)] {
        println!(
            "{label}: {} runs of {} s on {}",
            set.get("runs").map_or("?".into(), Json::render),
            set.get("seconds").and_then(Json::as_str).unwrap_or("?"),
            set.get("host").map_or("?".into(), Json::render)
        );
    }
    let mut bad = Vec::new();
    let workloads = a
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("A has no workloads")?;
    for (workload, in_a) in workloads {
        println!("{workload}:");
        // Seeds that both sets ran must have produced the same output.
        let digests_differ = in_a
            .get("digests")
            .and_then(Json::as_object)
            .unwrap_or(&[])
            .iter()
            .any(|(seed, digest)| {
                b.at(&format!("workloads/{workload}/digests/{seed}"))
                    .is_some_and(|other| other != digest)
            });
        println!(
            "  output digests of the seeds both sets ran: {}",
            if digests_differ {
                "DIFFER"
            } else {
                "identical"
            }
        );
        if digests_differ {
            bad.push(format!("{workload}: output digests"));
        }
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            for m in metrics_of(trace) {
                let (va, vb) = match (
                    samples(&a, workload, section, m.name),
                    samples(&b, workload, section, m.name),
                ) {
                    (Some(va), Some(vb)) => (va, vb),
                    // Neither set made this kind of run.
                    (None, None) => continue,
                    _ => {
                        println!("  {:<34} is in one set only", m.name);
                        bad.push(format!("{workload}: {} is in one set only", m.name));
                        continue;
                    }
                };
                let (line, verdict) = row(m, &va, &vb, bounds.get(m.name));
                println!("{line}");
                if matches!(verdict, Verdict::Regressed | Verdict::Differs) {
                    bad.push(format!("{workload}: {} {}", m.name, verdict.tag()));
                }
            }
        }
    }
    if bad.is_empty() {
        println!("no regression, no exact value differs");
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        bound: 0.05,
        higher_is_better: false,
    };
    const HIGHER: Bound = Bound {
        bound: 0.05,
        higher_is_better: true,
    };

    fn around(centre: f64) -> Vec<f64> {
        [-0.01, -0.005, 0.0, 0.005, 0.01]
            .iter()
            .map(|d| centre * (1.0 + d))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        assert_eq!(judge(&around(100.0), &around(101.0), &LOWER), Verdict::Same);
        assert_eq!(
            judge(&around(100.0), &around(110.0), &LOWER),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&around(100.0), &around(90.0), &LOWER),
            Verdict::Improved
        );
        assert_eq!(
            judge(&around(100.0), &around(110.0), &HIGHER),
            Verdict::Improved
        );
        assert_eq!(
            judge(&around(100.0), &around(90.0), &HIGHER),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_always_wins() {
        let noisy_a = [80.0, 90.0, 100.0, 110.0, 120.0];
        let noisy_b = [85.0, 95.0, 104.0, 115.0, 125.0];
        assert_eq!(judge(&noisy_a, &noisy_b, &LOWER), Verdict::Unresolved);
        let far_better = [40.0, 50.0, 60.0, 70.0, 79.0];
        assert_eq!(judge(&noisy_a, &far_better, &LOWER), Verdict::Improved);
        let far_worse = [121.0, 140.0, 150.0, 160.0, 170.0];
        assert_eq!(judge(&noisy_a, &far_worse, &LOWER), Verdict::Regressed);
    }

    #[test]
    fn a_shift_inside_the_bound_counts_when_the_sets_do_not_overlap() {
        // 3 % is inside the bound of 5 %, but twice A's spread and every
        // run agrees.
        let (a, slower) = (around(100.0), around(103.0));
        assert_eq!(judge(&a, &slower, &LOWER), Verdict::Regressed);
        assert_eq!(judge(&a, &slower, &HIGHER), Verdict::Improved);
        // Three runs a side separate by chance too often to count.
        assert_eq!(judge(&a[..3], &slower[..3], &LOWER), Verdict::Same);
    }

    #[test]
    fn sets_that_do_not_overlap_are_pointed_out() {
        let (a, slower) = (around(100.0), around(110.0));
        assert!(separation(&a, &slower, false).contains("worse"));
        assert!(separation(&a, &slower, true).contains("better"));
        assert_eq!(separation(&a, &around(101.0), false), "");
    }

    #[test]
    fn exact_values_must_be_equal() {
        assert_eq!(judge_exact(&[27.46, 27.5], &[27.46, 27.5]), Verdict::Same);
        assert_eq!(
            judge_exact(&[27.46, 27.5], &[27.46, 27.51]),
            Verdict::Differs
        );
        assert_eq!(
            judge_exact(&[27.46, 27.5, 27.4], &[27.46, 27.5]),
            Verdict::Same
        );
    }
}
