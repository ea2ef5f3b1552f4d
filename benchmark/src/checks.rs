//! Output checks: what each program must have printed for an operation
//! to count as done, and the count of operations that failed them.

use crate::json::Json;
use std::collections::BTreeMap;

/// The simulated statistics read from one operation's output.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStats {
    /// Mean end-to-end packet latency, simulated cycles.
    pub mean_latency_cycles: f64,
    /// Share of the operation's simulations that lost no packet.
    pub survival_frac: f64,
    /// Packets delivered inside the measurement window (`0` where the
    /// output does not say).
    pub delivered: u64,
}

/// Operations attempted and failed. An operation fails on a non-zero
/// exit or non-2xx reply, on a violated output check, or when its output
/// digest differs from another operation of the same seed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Why the first failed operation failed.
    pub first_error: Option<String>,
    digests: BTreeMap<u64, u64>,
}

impl Tally {
    /// Count one operation; pass its value on when it succeeded.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                None
            }
        }
    }

    /// An error unless `digest` equals that of every earlier operation
    /// with this `seed`. The simulator is deterministic, so anything
    /// else is a defect.
    pub fn same_digest(&mut self, seed: u64, digest: u64) -> Result<(), String> {
        let first = *self.digests.entry(seed).or_insert(digest);
        if first == digest {
            Ok(())
        } else {
            Err(format!(
                "seed {seed}: output digest {digest:016x} differs from an earlier {first:016x}"
            ))
        }
    }

    /// One digest over the digests of all seeds, in seed order.
    pub fn combined_digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .digests
            .iter()
            .flat_map(|(seed, d)| seed.to_le_bytes().into_iter().chain(d.to_le_bytes()))
            .collect();
        crate::digest::fnv1a(&bytes)
    }
}

/// `label : value` lines of `noc-cli simulate`, by label.
fn fields(stdout: &str) -> BTreeMap<&str, &str> {
    stdout
        .lines()
        .filter_map(|l| l.split_once(':'))
        .map(|(label, value)| (label.trim(), value.trim()))
        .collect()
}

/// The number before `word` in `text` (`"12 delivered, 0 lost"`).
fn number_before(text: &str, word: &str) -> Option<u64> {
    let head = &text[..text.find(word)?];
    head.split([' ', ','])
        .rfind(|t| !t.is_empty())?
        .parse()
        .ok()
}

/// Check the report `noc-cli simulate` printed for a protected network:
/// every packet delivered to the right node, no flit dropped, no
/// deadlock warning.
pub fn check_simulate(stdout: &str) -> Result<OpStats, String> {
    let f = fields(stdout);
    let packets = f.get("packets").ok_or("no `packets` line")?;
    let delivered = number_before(packets, "delivered").ok_or("unreadable `packets` line")?;
    let misdelivered = number_before(packets, "misdelivered").ok_or("unreadable `packets` line")?;
    if misdelivered != 0 {
        return Err(format!("{misdelivered} packets misdelivered"));
    }
    if delivered == 0 {
        return Err("no packet delivered".into());
    }
    let dropped: u64 = f
        .get("flits dropped")
        .and_then(|v| v.parse().ok())
        .ok_or("no `flits dropped` line")?;
    if dropped != 0 {
        return Err(format!("{dropped} flits dropped on protected routers"));
    }
    if stdout.contains("WARNING: deadlock") {
        return Err("deadlock suspected".into());
    }
    let mean_latency_cycles = f
        .get("latency (cycles)")
        .and_then(|v| v.strip_prefix("mean "))
        .and_then(|v| v.split(',').next())
        .and_then(|v| v.parse().ok())
        .ok_or("no mean latency")?;
    Ok(OpStats {
        mean_latency_cycles,
        survival_frac: 1.0,
        delivered,
    })
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("report has no number `{key}`"))
}

/// Check the JSON report `noc-cli campaign --out` wrote: every curve row
/// classifies exactly `scenarios` scenarios and the adaptive arm never
/// deadlocks. The statistics are the adaptive arm's fault-free latency
/// and its survival with one dead link.
pub fn check_campaign(report: &str, scenarios: u64) -> Result<OpStats, String> {
    let doc = Json::parse(report)?;
    let modes = doc
        .get("modes")
        .and_then(Json::as_array)
        .ok_or("report has no `modes`")?;
    let mut stats = None;
    for mode in modes {
        let adaptive = mode.get("routing").and_then(Json::as_str) == Some("adaptive");
        let curve = mode
            .get("curve")
            .and_then(Json::as_array)
            .ok_or("mode has no `curve`")?;
        for row in curve {
            let classes = ["delivered_all", "degraded", "lost_packets", "deadlocked"];
            let mut sum = 0.0;
            for class in classes {
                sum += num(row, class)?;
            }
            if sum != scenarios as f64 || num(row, "scenarios")? != scenarios as f64 {
                return Err(format!(
                    "a curve row classifies {sum} of {scenarios} scenarios"
                ));
            }
            if adaptive && num(row, "deadlocked")? > 0.0 {
                return Err("adaptive routing deadlocked".into());
            }
            if adaptive && num(row, "faults")? == 1.0 {
                stats = Some(OpStats {
                    mean_latency_cycles: num(mode, "baseline_latency_x100")? / 100.0,
                    survival_frac: num(row, "survival")?,
                    delivered: 0,
                });
            }
        }
    }
    stats.ok_or_else(|| "report has no adaptive arm at one fault".into())
}

/// Check the result document of a `simulate` job: it ran to its end
/// without a deadlock, misdelivered and dropped nothing.
pub fn check_job_result(body: &str) -> Result<OpStats, String> {
    let doc = Json::parse(body)?;
    let outcome = doc.get("outcome").and_then(Json::as_str).unwrap_or("");
    if !matches!(outcome, "completed" | "drained_early") {
        return Err(format!("job outcome {outcome:?}"));
    }
    let report = doc.get("report").ok_or("result has no `report`")?;
    for counter in ["misdelivered", "flits_dropped", "flits_edge_dropped"] {
        let n = num(report, counter)?;
        if n != 0.0 {
            return Err(format!("{counter} = {n}"));
        }
    }
    if report.get("deadlock_suspected").and_then(Json::as_bool) != Some(false) {
        return Err("deadlock suspected".into());
    }
    let lost = num(report, "in_flight_at_end")? != 0.0;
    Ok(OpStats {
        mean_latency_cycles: report
            .at("total_latency/mean")
            .and_then(Json::as_f64)
            .ok_or("report has no mean latency")?,
        survival_frac: if lost { 0.0 } else { 1.0 },
        delivered: num(report, "delivered")? as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "router          : Protected on a 8x8 mesh\n\
        faults          : 456 permanent, 0 transient\n\
        packets         : 352066 delivered, 0 misdelivered\n\
        flits dropped   : 0\n\
        latency (cycles): mean 34.07, p50 31, p95 68, p99 98, max 508\n\
        throughput      : 0.2021 flits/node/cycle\n";

    #[test]
    fn reads_the_simulate_report() {
        assert_eq!(
            check_simulate(GOOD),
            Ok(OpStats {
                mean_latency_cycles: 34.07,
                survival_frac: 1.0,
                delivered: 352_066
            })
        );
    }

    #[test]
    fn wrong_child_output_is_counted_as_failed() {
        let mut tally = Tally::default();
        assert!(tally.record(check_simulate(GOOD)).is_some());
        let misdelivered = GOOD.replace("0 misdelivered", "3 misdelivered");
        assert!(tally.record(check_simulate(&misdelivered)).is_none());
        let dropped = GOOD.replace("dropped   : 0", "dropped   : 17");
        assert!(tally.record(check_simulate(&dropped)).is_none());
        let deadlock = format!("{GOOD}WARNING: deadlock suspected (traffic stopped moving)\n");
        assert!(tally.record(check_simulate(&deadlock)).is_none());
        assert!(tally.record(check_simulate("error: nothing")).is_none());
        assert_eq!((tally.attempted, tally.failed), (5, 4));
        assert_eq!(tally.first_error.as_deref(), Some("3 packets misdelivered"));
    }

    #[test]
    fn differing_digests_of_one_seed_fail() {
        let mut tally = Tally::default();
        assert!(tally.same_digest(1, 0xAB).is_ok());
        assert!(tally.same_digest(2, 0xCD).is_ok());
        assert!(tally.same_digest(1, 0xAB).is_ok());
        assert!(tally.same_digest(2, 0xCE).is_err());
        let mut other = Tally::default();
        other.same_digest(2, 0xCD).unwrap();
        other.same_digest(1, 0xAB).unwrap();
        assert_eq!(tally.combined_digest(), other.combined_digest());
    }

    fn campaign_report(adaptive_rows: &str) -> String {
        format!(
            r#"{{"modes":[{{"routing":"static","baseline_latency_x100":2728,"curve":[
            {{"faults":1,"scenarios":4,"delivered_all":1,"degraded":0,"lost_packets":3,"deadlocked":0,"survival":0.25}}]}},
            {{"routing":"adaptive","baseline_latency_x100":2727,"curve":[{adaptive_rows}]}}]}}"#
        )
    }

    #[test]
    fn reads_and_checks_the_campaign_report() {
        let row = r#"{"faults":1,"scenarios":4,"delivered_all":2,"degraded":1,"lost_packets":1,"deadlocked":0,"survival":0.75}"#;
        let stats = check_campaign(&campaign_report(row), 4).unwrap();
        assert_eq!(stats.mean_latency_cycles, 27.27);
        assert_eq!(stats.survival_frac, 0.75);
        // Rows that do not sum to the scenario count, or a deadlocked
        // adaptive scenario, fail the operation.
        assert!(check_campaign(&campaign_report(row), 5).is_err());
        let short = row.replace("\"lost_packets\":1", "\"lost_packets\":0");
        assert!(check_campaign(&campaign_report(&short), 4).is_err());
        let wedged = row
            .replace("\"lost_packets\":1", "\"lost_packets\":0")
            .replace("\"deadlocked\":0", "\"deadlocked\":1");
        assert!(check_campaign(&campaign_report(&wedged), 4).is_err());
        assert!(check_campaign("{not json", 4).is_err());
    }

    #[test]
    fn reads_and_checks_a_job_result() {
        let body = r#"{"job":"job-000001","outcome":"drained_early","report":{"delivered":2496,
            "misdelivered":0,"flits_dropped":0,"flits_edge_dropped":0,"in_flight_at_end":0,
            "total_latency":{"mean":17.845},"deadlock_suspected":false}}"#;
        let stats = check_job_result(body).unwrap();
        assert_eq!((stats.mean_latency_cycles, stats.delivered), (17.845, 2496));
        assert!(
            check_job_result(&body.replace("\"misdelivered\":0", "\"misdelivered\":2")).is_err()
        );
        assert!(check_job_result(&body.replace("drained_early", "deadlock_suspected")).is_err());
        assert!(check_job_result(&body.replace(":false", ":true")).is_err());
    }
}
