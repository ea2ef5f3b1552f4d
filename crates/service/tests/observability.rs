//! The observability drill: while a campaign runs under the real
//! daemon, `/metrics` must validate as Prometheus text format (with
//! the per-endpoint HTTP counters), `/jobs/:id/progress` must serve
//! the live per-router heatmap and imbalance series from the last
//! durable checkpoint, and the daemon's stderr must be parseable
//! JSONL with request/job correlation ids throughout.

use noc_service::client::jobs;
use noc_service::{validate_prometheus_text, CampaignSpec};
use noc_telemetry::json::JsonValue;
use noc_telemetry::{FromSnapshot, SpatialGrid};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "noc-obs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A daemon child with stderr captured to a file (that is where the
/// JSONL event log goes); killed on drop.
struct Daemon {
    child: Child,
    addr: String,
    log_path: PathBuf,
}

impl Daemon {
    fn start(spool: &PathBuf, log_path: PathBuf, extra: &[&str]) -> Daemon {
        let log_file = std::fs::File::create(&log_path).unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_noc-serviced"))
            .arg("--port")
            .arg("0")
            .arg("--spool")
            .arg(spool)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .expect("daemon must start");
        let stdout = child.stdout.take().unwrap();
        let mut lines = std::io::BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("daemon prints its address")
            .expect("readable stdout");
        let addr = first
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {first:?}"))
            .to_string();
        std::thread::spawn(move || for _ in lines {});
        Daemon {
            child,
            addr,
            log_path,
        }
    }

    fn stop_and_read_log(mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        std::fs::read_to_string(&self.log_path).unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn poll_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

#[test]
fn metrics_progress_and_jsonl_logs_are_first_class() {
    let scratch = Scratch::new("drill");
    let spool = scratch.0.join("spool");
    let daemon = Daemon::start(&spool, scratch.0.join("daemon.jsonl"), &["--workers", "1"]);

    // A campaign long enough to catch mid-flight, on a 4×4 mesh.
    let mut spec = CampaignSpec {
        seed: 61,
        rate: 0.08,
        measure_cycles: 8_000,
        drain_cycles: 800,
        checkpoint_every: 500,
        sample_every: 500,
        ..CampaignSpec::default()
    };
    spec.name = "obs-drill".into();
    let resp = jobs::submit(&daemon.addr, &spec.to_json().render()).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    assert!(
        resp.header("x-request-id")
            .is_some_and(|v| v.starts_with("req-")),
        "responses must carry the request correlation id"
    );
    let id = JsonValue::parse(&resp.body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // `/metrics` validates as Prometheus text format and includes the
    // scheduler counters, the checkpoint-write timers and the
    // per-endpoint HTTP series.
    let metrics = jobs::metrics(&daemon.addr).unwrap();
    assert_eq!(metrics.status, 200);
    validate_prometheus_text(&metrics.body)
        .unwrap_or_else(|e| panic!("/metrics violates the exposition format: {e}"));
    for needle in [
        "noc_service_queue_depth",
        "noc_service_jobs_submitted_total",
        "noc_service_checkpoint_writes_total",
        "noc_service_checkpoint_write_seconds_total",
        "noc_service_checkpoints_skipped_total",
        "noc_service_spool_wait_seconds_total",
        "noc_service_http_requests_total{endpoint=\"submit\"} 1",
        "noc_service_http_request_seconds_total{endpoint=\"metrics\"}",
    ] {
        assert!(metrics.body.contains(needle), "missing {needle:?}");
    }

    // `/jobs/:id/progress` serves the live heatmap once the first
    // checkpoint is durable.
    let mut live: Option<JsonValue> = None;
    let progressed = poll_until(Duration::from_secs(120), || {
        jobs::progress(&daemon.addr, &id).is_ok_and(|resp| {
            resp.status == 200
                && JsonValue::parse(&resp.body).is_ok_and(|doc| {
                    let has_grid = doc
                        .get("heatmap")
                        .is_some_and(|h| !matches!(h, JsonValue::Null));
                    if has_grid {
                        live = Some(doc);
                    }
                    has_grid
                })
        })
    });
    assert!(progressed, "progress must surface the checkpoint heatmap");
    let live = live.unwrap();
    let grid = SpatialGrid::from_snapshot(live.get("heatmap").unwrap())
        .expect("heatmap must parse as a spatial grid");
    assert_eq!((grid.width, grid.height), (4, 4), "default 4×4 mesh");
    assert!(
        grid.metric("flits_routed").unwrap().iter().sum::<u64>() > 0,
        "a checkpointed campaign this busy has routed flits"
    );
    assert!(
        live.get("as_of_cycle")
            .and_then(JsonValue::as_u64)
            .is_some(),
        "progress carries the checkpoint cycle"
    );
    // The imbalance series is the epoch series' load_imbalance column.
    let imbalance = live.get("imbalance").unwrap();
    let samples = live
        .get("epochs")
        .and_then(|e| e.get("samples"))
        .and_then(JsonValue::as_array)
        .map(|s| s.len())
        .unwrap_or(0);
    match imbalance {
        JsonValue::Arr(vals) => assert_eq!(vals.len(), samples),
        JsonValue::Null => assert_eq!(samples, 0),
        other => panic!("imbalance must be an array or null, got {other:?}"),
    }

    // After completion the same endpoint serves the final report's
    // grid and series.
    let done = poll_until(Duration::from_secs(180), || {
        jobs::result(&daemon.addr, &id).is_ok_and(|resp| resp.status == 200)
    });
    assert!(done, "job must complete");
    let resp = jobs::progress(&daemon.addr, &id).unwrap();
    assert_eq!(resp.status, 200);
    let doc = JsonValue::parse(&resp.body).unwrap();
    assert_eq!(doc.get("phase").unwrap().as_str(), Some("completed"));
    let final_grid = SpatialGrid::from_snapshot(doc.get("heatmap").unwrap())
        .expect("completed progress serves the report grid");
    assert_eq!((final_grid.width, final_grid.height), (4, 4));
    assert!(
        doc.get("imbalance")
            .and_then(JsonValue::as_array)
            .is_some_and(|v| !v.is_empty()),
        "completed run has a full imbalance series"
    );

    // Unknown job: 404, still counted under the progress endpoint.
    let resp = jobs::progress(&daemon.addr, "job-999999").unwrap();
    assert_eq!(resp.status, 404);

    // The second scrape must still validate and now shows the progress
    // endpoint traffic plus at least one timed checkpoint write.
    let metrics = jobs::metrics(&daemon.addr).unwrap();
    validate_prometheus_text(&metrics.body)
        .unwrap_or_else(|e| panic!("/metrics violates the exposition format: {e}"));
    let line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("noc_service_http_requests_total{endpoint=\"progress\"}"))
        .expect("progress endpoint series present");
    let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(count >= 2, "progress scrapes must be counted, got {count}");
    let writes = metrics
        .body
        .lines()
        .find(|l| l.starts_with("noc_service_checkpoint_writes_total"))
        .and_then(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .unwrap();
    assert!(writes >= 1, "checkpoint writes must be counted");

    // Every stderr line is one JSON object; the lifecycle and request
    // events correlate through the job id.
    let log = daemon.stop_and_read_log();
    assert!(!log.is_empty(), "daemon must emit JSONL events");
    let mut events: Vec<(String, JsonValue)> = Vec::new();
    for line in log.lines().filter(|l| !l.is_empty()) {
        let doc =
            JsonValue::parse(line).unwrap_or_else(|e| panic!("non-JSON log line {line:?}: {e}"));
        assert!(doc.get("ts_ms").and_then(JsonValue::as_u64).is_some());
        let event = doc.get("event").unwrap().as_str().unwrap().to_string();
        events.push((event, doc));
    }
    let with_job = |name: &str| {
        events
            .iter()
            .any(|(e, doc)| e == name && doc.get("job").and_then(JsonValue::as_str) == Some(&id))
    };
    for name in [
        "job_submitted",
        "job_started",
        "job_checkpoint",
        "job_completed",
    ] {
        assert!(with_job(name), "missing {name} event for {id}");
    }
    // The submit request's log line carries both correlation ids.
    assert!(
        events.iter().any(|(e, doc)| {
            e == "http_request"
                && doc.get("endpoint").and_then(JsonValue::as_str) == Some("submit")
                && doc.get("job").and_then(JsonValue::as_str) == Some(&id)
                && doc
                    .get("request_id")
                    .and_then(JsonValue::as_str)
                    .is_some_and(|r| r.starts_with("req-"))
        }),
        "submit must be logged with request and job ids"
    );
    // The completion says what the spool's readiness gate did: as many
    // checkpoints written as the log has `job_checkpoint` events, and
    // the boundaries it skipped.
    let completed = events.iter().find(|(e, _)| e == "job_completed").unwrap();
    let count = |field: &str| completed.1.get(field).and_then(JsonValue::as_u64);
    let logged = events.iter().filter(|(e, _)| e == "job_checkpoint").count();
    assert_eq!(count("checkpoints_written"), Some(logged as u64));
    assert!(count("checkpoints_skipped").is_some());
    // Checkpoint events carry their write timing.
    assert!(
        events.iter().any(|(e, doc)| {
            e == "job_checkpoint" && doc.get("write_secs").and_then(JsonValue::as_f64).is_some()
        }),
        "checkpoint events must carry write timing"
    );
}
