//! End-to-end campaign service tests: scheduler completion against a
//! direct-simulator reference, queue backpressure, and the full daemon
//! crash drill — SIGKILL mid-campaign, restart on the same spool, and
//! byte-identical results versus uninterrupted runs — plus the graceful
//! one: SIGTERM mid-campaign stops on a checkpoint that is on disk.

use noc_service::client::jobs;
use noc_service::{CampaignSpec, Scheduler, ServiceConfig, SubmitError};
use noc_sim::MemoryStream;
use noc_telemetry::json::{obj, JsonValue};
use noc_telemetry::snapshot::Snapshot;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A fresh scratch directory under the target-adjacent temp root;
/// removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "noc-service-{tag}-{}-{:?}",
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

/// The report an uninterrupted, service-independent run of `spec`
/// produces, as canonical JSON bytes.
fn reference_report(spec: &CampaignSpec) -> String {
    reference_run(spec).0
}

/// Reference report bytes plus the delivery stream an uninterrupted
/// run spools, rendered exactly as the daemon's `deliveries.jsonl`
/// (one snapshot object per line).
fn reference_run(spec: &CampaignSpec) -> (String, String) {
    let sim = spec.simulator(1_000).unwrap();
    let mut gen = spec.generator().unwrap();
    let mut stream = MemoryStream::new();
    let (report, _) = sim
        .run_streamed(&mut gen, &mut stream, None, |_| true)
        .unwrap();
    let jsonl: String = stream
        .entries()
        .iter()
        .map(|d| d.snapshot().render() + "\n")
        .collect();
    (report.to_json().render(), jsonl)
}

/// The `report` object out of a spooled/HTTP result document.
fn report_of(result_text: &str) -> String {
    JsonValue::parse(result_text)
        .expect("result must be JSON")
        .get("report")
        .expect("result must embed the report")
        .render()
}

fn quick_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: format!("quick-{seed}"),
        seed,
        warmup_cycles: 100,
        measure_cycles: 600,
        drain_cycles: 300,
        rate: 0.08,
        ..CampaignSpec::default()
    }
}

#[test]
fn scheduler_completes_jobs_with_reference_identical_reports() {
    let scratch = Scratch::new("sched");
    let mut cfg = ServiceConfig::new(scratch.0.join("spool"));
    cfg.workers = 2;
    cfg.default_checkpoint_every = 250;
    let sched = Scheduler::start(cfg).unwrap();

    // Mixed topologies — including a cut mesh — through the same queue.
    let mut specs = [quick_spec(11), quick_spec(12)];
    specs[1].topology = "cutmesh2".into();
    let ids: Vec<String> = specs
        .iter()
        .map(|s| sched.submit(s.clone()).unwrap())
        .collect();
    assert!(sched.drain(Duration::from_secs(120)), "jobs must finish");

    for (spec, id) in specs.iter().zip(&ids) {
        let status = sched.status_json(id).unwrap();
        assert_eq!(status.get("phase").unwrap().as_str(), Some("completed"));
        let result = sched.result(id).expect("completed job has a result");
        let result = result.to_text().unwrap();
        assert_eq!(report_of(&result), reference_report(spec), "job {id}");
    }
    sched.shutdown();
}

/// A `fault_campaign` job flows through the same queue as simulate
/// jobs and spools a curve report identical to a direct engine run of
/// the same spec — campaigns are deterministic, so the daemon adds
/// nothing but scheduling.
#[test]
fn scheduler_runs_fault_campaign_jobs_to_reference_identical_curves() {
    let scratch = Scratch::new("campaign");
    let mut cfg = ServiceConfig::new(scratch.0.join("spool"));
    cfg.workers = 1;
    let sched = Scheduler::start(cfg).unwrap();

    let spec = CampaignSpec {
        kind: "fault_campaign".into(),
        name: "smoke sweep".into(),
        mesh_k: 4,
        routing: "both".into(),
        scenarios: 4,
        max_faults: 2,
        seed: 23,
        ..CampaignSpec::default()
    };
    let id = sched.submit(spec.clone()).unwrap();
    assert!(
        sched.drain(Duration::from_secs(120)),
        "campaign must finish"
    );

    let status = sched.status_json(&id).unwrap();
    assert_eq!(status.get("phase").unwrap().as_str(), Some("completed"));
    let result = sched.result(&id).expect("completed job has a result");
    let result = result.to_text().unwrap();
    let doc = JsonValue::parse(&result).unwrap();
    let report = doc.get("report").expect("campaign result embeds a report");
    assert_eq!(
        report.get("kind").and_then(JsonValue::as_str),
        Some("fault_campaign")
    );
    // Everything except wall-clock throughput must be byte-identical
    // to a direct engine run — campaigns are deterministic.
    let strip_timing = |v: &JsonValue| -> JsonValue {
        match v {
            JsonValue::Obj(entries) => JsonValue::Obj(
                entries
                    .iter()
                    .filter(|(k, _)| k != "elapsed_ms" && k != "scenarios_per_sec")
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        }
    };
    let reference = noc_campaign::run_campaign(&spec.campaign_config().unwrap()).unwrap();
    assert_eq!(
        strip_timing(report).render(),
        strip_timing(&noc_campaign::report_json(&reference)).render(),
        "daemon-run campaign must match a direct run"
    );
    sched.shutdown();
}

#[test]
fn queue_backpressure_rejects_with_retry_hint() {
    let scratch = Scratch::new("backpressure");
    let mut cfg = ServiceConfig::new(scratch.0.join("spool"));
    cfg.workers = 1;
    cfg.queue_cap = 2;
    cfg.retry_after_secs = 7;
    let sched = Scheduler::start(cfg).unwrap();

    // The flood must not race the worker: a job (~250 ms) outlasts the
    // few fsync-bound submits of a flood (~3 ms each) many times over,
    // so none can complete and free a slot while the queue fills. The
    // worker may still take one job out of the queue, so over-fill by
    // enough that rejection is guaranteed.
    let slow_spec = |seed| {
        let mut spec = quick_spec(seed);
        spec.measure_cycles = 40_000;
        spec
    };
    let mut rejected = None;
    for seed in 0..6 {
        match sched.submit(slow_spec(seed)) {
            Ok(_) => {}
            Err(SubmitError::QueueFull { retry_after_secs }) => {
                rejected = Some(retry_after_secs);
                break;
            }
            Err(e) => panic!("unexpected submit error: {e:?}"),
        }
    }
    // Before any job has completed there is no mean duration to scale
    // from, so the hint is the configured fallback.
    assert_eq!(rejected, Some(7), "flooding a cap-2 queue must reject");
    assert!(sched
        .metrics_text()
        .contains("noc_service_jobs_rejected_total 1"));

    // Once jobs have completed, the hint scales with queue depth and
    // the observed mean job duration instead of the fallback.
    assert!(sched.drain(Duration::from_secs(120)), "jobs must finish");
    let mean = sched
        .mean_job_secs()
        .expect("completions must feed the mean");
    let mut scaled = None;
    for seed in 100..110 {
        match sched.submit(slow_spec(seed)) {
            Ok(_) => {}
            Err(SubmitError::QueueFull { retry_after_secs }) => {
                scaled = Some(retry_after_secs);
                break;
            }
            Err(e) => panic!("unexpected submit error: {e:?}"),
        }
    }
    let scaled = scaled.expect("re-flooding must reject again");
    // Expected: ceil(mean × depth / workers) clamped to [1, 600], with
    // depth = queue_cap = 2 and workers = 1 at the rejection point.
    let expected = ((mean * 2.0).ceil() as u64).clamp(1, 600);
    assert_eq!(
        scaled, expected,
        "retry hint must scale from the mean job duration ({mean:.3}s)"
    );
    sched.shutdown();
}

/// A job becomes visible to the workers only once its spool directory
/// and spec are durable. With submitters racing workers that are awake
/// (each finishing one job as the next arrives), a job queued before
/// its directory existed used to fail with "opening delivery stream: No
/// such file or directory".
#[test]
fn concurrent_submitters_never_lose_a_job_to_the_spool_race() {
    let scratch = Scratch::new("submit-race");
    let mut cfg = ServiceConfig::new(scratch.0.join("spool"));
    cfg.workers = 2;
    cfg.queue_cap = 200;
    let sched = Scheduler::start(cfg).unwrap();

    let ids: Vec<String> = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..4u64)
            .map(|t| {
                let sched = &sched;
                scope.spawn(move || {
                    (0..50u64)
                        .map(|k| {
                            let mut spec = quick_spec(t * 50 + k);
                            spec.warmup_cycles = 20;
                            spec.measure_cycles = 60;
                            spec.drain_cycles = 60;
                            let id = sched.submit(spec).expect("queue has room for all 200");
                            // Closed loop, as a caller waiting for its
                            // result: the queue stays near empty, so a
                            // worker that is just finishing a job takes
                            // the new one the instant it is queued.
                            let queued = || {
                                let status = sched.status_json(&id).unwrap();
                                status.get("phase").unwrap().as_str() == Some("queued")
                            };
                            while queued() {
                                std::thread::yield_now();
                            }
                            id
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        submitters
            .into_iter()
            .flat_map(|h| h.join().expect("submitter panicked"))
            .collect()
    });
    assert!(sched.drain(Duration::from_secs(120)), "jobs must finish");

    assert_eq!(ids.len(), 200);
    for id in &ids {
        let status = sched.status_json(id).unwrap();
        assert_eq!(
            status.get("phase").unwrap().as_str(),
            Some("completed"),
            "{id}: {}",
            status.get("error").unwrap().render()
        );
    }
    assert!(sched
        .metrics_text()
        .contains("noc_service_jobs_failed_total 0"));
    sched.shutdown();
}

/// A running daemon child plus its address; killed on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(spool: &PathBuf, extra: &[&str]) -> Daemon {
        Daemon::start_logging_to(Stdio::null(), spool, extra)
    }

    /// [`Daemon::start`] with the daemon's JSONL event log (its
    /// standard error) sent to `log`.
    fn start_logging_to(log: Stdio, spool: &PathBuf, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_noc-serviced"))
            .arg("--port")
            .arg("0")
            .arg("--spool")
            .arg(spool)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(log)
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
        // Drain the rest of stdout in the background so the child never
        // blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Daemon { child, addr }
    }

    fn kill9(&mut self) {
        // On Unix `Child::kill` delivers SIGKILL: no handler runs, no
        // checkpoint is flushed — the crash we are drilling for.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// SIGTERM, then wait for the daemon to leave on its own.
    fn terminate(&mut self) -> std::process::ExitStatus {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: `kill` takes no pointers; the pid is this process's
        // own child, not yet reaped, so it cannot name another process.
        assert_eq!(unsafe { kill(self.child.id() as i32, SIGTERM) }, 0);
        let mut exited = None;
        poll_until(Duration::from_secs(60), || {
            exited = self.child.try_wait().expect("child is ours to wait for");
            exited.is_some()
        });
        exited.expect("a graceful shutdown takes one checkpoint interval, not a minute")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill9();
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
fn daemon_survives_sigkill_with_identical_results() {
    let scratch = Scratch::new("daemon");
    let spool = scratch.0.join("spool");

    // Three concurrent campaigns, long enough to be mid-flight when the
    // daemon dies, checkpointing densely enough to resume cheaply.
    let mut specs = vec![quick_spec(21), quick_spec(22), quick_spec(23)];
    for spec in &mut specs {
        spec.measure_cycles = 6_000;
        spec.drain_cycles = 800;
        spec.checkpoint_every = 500;
    }
    specs[1].topology = "torus".into();
    specs[2].router_kind = shield_router::RouterKind::Baseline;
    let references: Vec<String> = specs.iter().map(reference_report).collect();

    let mut daemon = Daemon::start(&spool, &["--workers", "3", "--queue-cap", "8"]);
    let ids: Vec<String> = specs
        .iter()
        .map(|spec| {
            let resp = jobs::submit(&daemon.addr, &spec.to_json().render()).unwrap();
            assert_eq!(resp.status, 201, "{}", resp.body);
            JsonValue::parse(&resp.body)
                .unwrap()
                .get("id")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();

    // The daemon must stay responsive under load: health and metrics
    // answer while all three jobs are being stepped.
    let health = jobs::healthz(&daemon.addr).unwrap();
    assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
    let metrics = jobs::metrics(&daemon.addr).unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("noc_service_queue_depth"));
    assert!(metrics.body.contains("noc_service_running_jobs"));

    // Wait until every job has at least one checkpoint on disk, then
    // pull the plug with no warning whatsoever.
    let progressed = poll_until(Duration::from_secs(120), || {
        ids.iter().all(|id| {
            jobs::status(&daemon.addr, id).is_ok_and(|resp| {
                JsonValue::parse(&resp.body)
                    .ok()
                    .and_then(|doc| doc.get("cycles_done")?.as_u64())
                    .is_some_and(|c| c >= 500)
            })
        })
    });
    assert!(progressed, "jobs must reach their first checkpoint");
    daemon.kill9();

    // Restart on the same spool: recovery re-queues the interrupted
    // jobs and finishes them from their checkpoints.
    let daemon = Daemon::start(&spool, &["--workers", "3", "--queue-cap", "8"]);
    let done = poll_until(Duration::from_secs(180), || {
        ids.iter()
            .all(|id| jobs::result(&daemon.addr, id).is_ok_and(|resp| resp.status == 200))
    });
    assert!(done, "recovered jobs must complete");

    for (i, id) in ids.iter().enumerate() {
        let resp = jobs::result(&daemon.addr, id).unwrap();
        assert_eq!(
            report_of(&resp.body),
            references[i],
            "job {id} diverged after SIGKILL + resume"
        );
    }
}

/// The `partial` object a `202` must carry for the spool state in
/// `dir`, built the slow way — the checkpoint parsed, every delivery
/// line it vouches for parsed and rendered again — as the daemon built
/// it before it kept the head in memory and spliced the stream.
fn partial_from_spool(dir: &std::path::Path) -> String {
    let text = std::fs::read_to_string(dir.join("checkpoint.json")).unwrap();
    let doc = JsonValue::parse(&text).unwrap();
    let offset = doc.get("delivery_offset").unwrap().as_u64().unwrap();
    let stream = std::fs::read_to_string(dir.join("deliveries.jsonl")).unwrap();
    let deliveries: Vec<JsonValue> = stream
        .lines()
        .take(offset as usize)
        .map(|line| JsonValue::parse(line).unwrap())
        .collect();
    assert_eq!(deliveries.len() as u64, offset);
    obj([
        ("cycle", doc.get("cycle").unwrap().clone()),
        ("delivery_offset", offset.into()),
        (
            "epochs",
            doc.get("epochs")
                .and_then(|ep| ep.get("series"))
                .cloned()
                .unwrap_or(JsonValue::Null),
        ),
        ("deliveries", JsonValue::Arr(deliveries)),
    ])
    .render()
}

/// The streamed-results crash drill: partial results must be served
/// while the job runs, and a SIGKILL landing *between* a delivery-
/// stream append and its checkpoint write (simulated by padding the
/// stream with entries and a torn line past the last checkpoint) must
/// leave both the final report and the delivery stream byte-identical
/// to an uninterrupted reference after restart. On the way, the first
/// poll after the restart — before the job has run again — must serve
/// the last durable checkpoint, byte for byte what the spool holds.
#[test]
fn daemon_streams_partial_results_and_recovers_the_stream_after_sigkill() {
    let scratch = Scratch::new("stream-drill");
    let spool = scratch.0.join("spool");

    let mut spec = quick_spec(41);
    spec.measure_cycles = 6_000;
    spec.drain_cycles = 800;
    spec.checkpoint_every = 500;
    spec.sample_every = 200;
    let (reference, reference_jsonl) = reference_run(&spec);
    assert!(
        !reference_jsonl.is_empty(),
        "campaign too quiet to exercise the stream"
    );
    let reference_lines: Vec<&str> = reference_jsonl.lines().collect();

    // A job that never ends is submitted first. It does nothing before
    // the kill but keep the second worker busy; after it, with one
    // worker, it holds the drilled job in the queue.
    let mut blocker = quick_spec(40);
    blocker.measure_cycles = 4_000_000_000;
    let mut daemon = Daemon::start(&spool, &["--workers", "2"]);
    let submit = |spec: &CampaignSpec| {
        let resp = jobs::submit(&daemon.addr, &spec.to_json().render()).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.body);
        let doc = JsonValue::parse(&resp.body).unwrap();
        doc.get("id").unwrap().as_str().unwrap().to_string()
    };
    let blocker_id = submit(&blocker);
    let id = submit(&spec);

    // Wait for the first durable checkpoint, then fetch the partial
    // result the running job serves on 202.
    let progressed = poll_until(Duration::from_secs(120), || {
        jobs::status(&daemon.addr, &id).is_ok_and(|resp| {
            JsonValue::parse(&resp.body)
                .ok()
                .and_then(|doc| doc.get("cycles_done")?.as_u64())
                .is_some_and(|c| c >= 500)
        })
    });
    assert!(progressed, "job must reach its first checkpoint");

    let resp = jobs::result(&daemon.addr, &id).unwrap();
    if resp.status == 202 {
        let doc = JsonValue::parse(&resp.body).expect("202 body is JSON");
        let partial = doc.get("partial").expect("202 body carries `partial`");
        // `partial` can be null only before the first checkpoint, and
        // we already waited that out.
        let offset = partial
            .get("delivery_offset")
            .and_then(|v| v.as_u64())
            .expect("partial carries the stream offset") as usize;
        let deliveries = partial
            .get("deliveries")
            .and_then(|v| v.as_array())
            .expect("partial carries deliveries");
        assert_eq!(
            deliveries.len(),
            offset,
            "partial deliveries must be exactly the checkpointed prefix"
        );
        assert!(
            offset > 0,
            "a checkpointed campaign this busy has deliveries"
        );
        // Deliveries-so-far are a prefix of the uninterrupted run's
        // stream: streaming never shows a client anything a completed
        // run would not also show.
        for (i, d) in deliveries.iter().enumerate() {
            assert_eq!(
                d.render(),
                reference_lines[i],
                "partial delivery {i} diverged from the reference stream"
            );
        }
        assert!(
            partial.get("cycle").and_then(|v| v.as_u64()).is_some(),
            "partial carries the checkpoint cycle"
        );
    } else {
        // The job beat us to completion; the drill below still runs
        // from the completed spool, which is valid but less sharp.
        assert_eq!(resp.status, 200);
    }

    daemon.kill9();

    // Simulate the worst crash window: the stream got appends (and a
    // torn partial line) after the last durable checkpoint was written.
    // Restore must truncate back to the checkpoint's offset and replay.
    let stream_path = spool.join(&id).join("deliveries.jsonl");
    if spool.join(&id).join("checkpoint.json").exists() {
        let mut text = std::fs::read_to_string(&stream_path).unwrap();
        // The kill may itself have torn the last line; cut back to the
        // last complete entry before stacking our own crash debris.
        let complete = text.rfind('\n').map(|p| p + 1).unwrap_or(0);
        text.truncate(complete);
        if let Some(last_line) = text.lines().last().map(str::to_string) {
            text.push_str(&last_line);
            text.push('\n');
            text.push_str(&last_line[..last_line.len() / 2]); // torn append
            std::fs::write(&stream_path, &text).unwrap();
        }
    }

    // Restart with one worker: recovery queues the jobs in id order, so
    // the worker takes the blocker and the drilled job waits with its
    // spool untouched. Its `202` is the status document with `partial`
    // as the last field, and `partial` is what the spool holds — the
    // debris past the checkpoint's offset left out.
    if spool.join(&id).join("checkpoint.json").exists() {
        let mut daemon = Daemon::start(&spool, &["--workers", "1"]);
        let served = jobs::result(&daemon.addr, &id).unwrap();
        let status = jobs::status(&daemon.addr, &id).unwrap();
        assert_eq!((served.status, status.status), (202, 200));
        assert!(
            status.body.contains("\"phase\":\"queued\""),
            "{}",
            status.body
        );
        let expected = format!(
            "{},\"partial\":{}}}",
            status.body.strip_suffix('}').unwrap(),
            partial_from_spool(&spool.join(&id))
        );
        assert_eq!(served.body, expected, "first 202 after the restart");
        assert!(
            served.body.contains("\"load_imbalance\":"),
            "no epoch series"
        );
        daemon.kill9();
    }
    std::fs::remove_dir_all(spool.join(&blocker_id)).unwrap();

    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let done = poll_until(Duration::from_secs(180), || {
        jobs::result(&daemon.addr, &id).is_ok_and(|resp| resp.status == 200)
    });
    assert!(done, "recovered job must complete");

    let resp = jobs::result(&daemon.addr, &id).unwrap();
    assert_eq!(
        report_of(&resp.body),
        reference,
        "report diverged after SIGKILL on the streamed path"
    );
    let final_jsonl = std::fs::read_to_string(&stream_path).unwrap();
    assert_eq!(
        final_jsonl, reference_jsonl,
        "delivery stream diverged after SIGKILL + truncate-on-restore + replay"
    );
}

/// The graceful drill: SIGTERM while a job is between checkpoints. The
/// worker takes the next boundary, waits until its writer has that
/// checkpoint on disk, and only then reports the job interrupted — so
/// what the spool holds is a checkpoint, the deliveries it names, and
/// nothing half-written; a restart finishes the job byte-identical to
/// an uninterrupted run, report and delivery stream.
#[test]
fn daemon_stops_on_sigterm_at_a_durable_checkpoint_and_resumes_identically() {
    let scratch = Scratch::new("sigterm");
    let spool = scratch.0.join("spool");
    let log_path = scratch.0.join("daemon.jsonl");

    // Three hundred boundaries long: the job is still far from done
    // when the signal arrives two checkpoints in.
    let mut spec = quick_spec(51);
    spec.measure_cycles = 150_000;
    spec.checkpoint_every = 500;
    spec.sample_every = 5_000;
    let (reference, reference_jsonl) = reference_run(&spec);

    let log = std::fs::File::create(&log_path).unwrap();
    let mut daemon = Daemon::start_logging_to(log.into(), &spool, &["--workers", "1"]);
    let resp = jobs::submit(&daemon.addr, &spec.to_json().render()).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    let doc = JsonValue::parse(&resp.body).unwrap();
    let id = doc.get("id").unwrap().as_str().unwrap().to_string();
    let cycles_done = |addr: &str| {
        let resp = jobs::status(addr, &id).ok()?;
        JsonValue::parse(&resp.body)
            .ok()?
            .get("cycles_done")?
            .as_u64()
    };
    let progressed = poll_until(Duration::from_secs(120), || {
        cycles_done(&daemon.addr).is_some_and(|c| c >= 1_000)
    });
    assert!(progressed, "job must checkpoint before the signal");
    assert!(daemon.terminate().success(), "SIGTERM is a clean exit");

    // The spool: a checkpoint, at least the deliveries it names, every
    // line whole, no temporary file.
    let dir = spool.join(&id);
    let checkpoint = std::fs::read_to_string(dir.join("checkpoint.json"))
        .expect("the job was stopped, not finished: its checkpoint is there");
    let checkpoint = JsonValue::parse(&checkpoint).expect("checkpoint parses");
    let offset = checkpoint.get("delivery_offset").unwrap().as_u64().unwrap();
    let cycle = checkpoint.get("cycle").unwrap().as_u64().unwrap();
    assert!((1_000..spec.total_cycles()).contains(&cycle), "{cycle}");
    let stream_path = dir.join("deliveries.jsonl");
    let stream = std::fs::read_to_string(&stream_path).unwrap();
    assert!(stream.ends_with('\n'), "torn line after a graceful stop");
    assert!(stream.lines().count() as u64 >= offset);
    assert!(
        stream.lines().count() > 0,
        "too quiet to exercise the stream"
    );
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "{name} left behind");
    }
    // The log: the job was interrupted at exactly that checkpoint.
    let log = std::fs::read_to_string(&log_path).unwrap();
    let interrupted: Vec<JsonValue> = log
        .lines()
        .filter_map(|line| JsonValue::parse(line).ok())
        .filter(|e| e.get("event").and_then(JsonValue::as_str) == Some("job_interrupted"))
        .collect();
    assert_eq!(interrupted.len(), 1, "{log}");
    assert_eq!(
        interrupted[0].get("job").unwrap().as_str(),
        Some(id.as_str())
    );
    assert_eq!(interrupted[0].get("cycles").unwrap().as_u64(), Some(cycle));

    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let done = poll_until(Duration::from_secs(180), || {
        jobs::result(&daemon.addr, &id).is_ok_and(|resp| resp.status == 200)
    });
    assert!(done, "resumed job must complete");
    let resp = jobs::result(&daemon.addr, &id).unwrap();
    assert_eq!(report_of(&resp.body), reference, "report after SIGTERM");
    assert_eq!(
        std::fs::read_to_string(&stream_path).unwrap(),
        reference_jsonl,
        "delivery stream after SIGTERM + resume"
    );
}

#[test]
fn daemon_returns_429_and_404_properly() {
    let scratch = Scratch::new("http");
    let spool = scratch.0.join("spool");
    let daemon = Daemon::start(
        &spool,
        &[
            "--workers",
            "1",
            "--queue-cap",
            "1",
            "--checkpoint-every",
            "500",
        ],
    );

    // Slow-ish jobs so the queue stays occupied while we flood.
    let mut spec = quick_spec(31);
    spec.measure_cycles = 6_000;
    let mut saw_429 = None;
    for _ in 0..6 {
        let resp = jobs::submit(&daemon.addr, &spec.to_json().render()).unwrap();
        match resp.status {
            201 => {}
            429 => {
                saw_429 = Some(resp.header("retry-after").map(str::to_string));
                break;
            }
            other => panic!("unexpected status {other}: {}", resp.body),
        }
    }
    let retry_after = saw_429.expect("flooding a cap-1 queue must 429");
    let secs: u64 = retry_after
        .expect("429 must carry Retry-After")
        .parse()
        .expect("Retry-After must be integral seconds");
    // Scaled from backlog and mean job duration (or the fallback before
    // any completion) — either way it must be a sane, positive wait.
    assert!(
        (1..=600).contains(&secs),
        "Retry-After {secs} outside the scaled hint range"
    );

    let resp = jobs::status(&daemon.addr, "job-999999").unwrap();
    assert_eq!(resp.status, 404);
    let resp = jobs::result(&daemon.addr, "job-999999").unwrap();
    assert_eq!(resp.status, 404);
    let resp =
        noc_service::client::request(&daemon.addr, "POST", "/jobs", Some("{\"rate\": 9}")).unwrap();
    assert_eq!(resp.status, 400);

    // Malformed chiplet topology specs fail validation at submit time.
    let resp = noc_service::client::request(
        &daemon.addr,
        "POST",
        "/jobs",
        Some("{\"topology\": \"chipletmesh2x\"}"),
    )
    .unwrap();
    assert_eq!(resp.status, 400, "bad chiplet dims must 400: {}", resp.body);
    let resp = noc_service::client::request(
        &daemon.addr,
        "POST",
        "/jobs",
        Some("{\"topology\": \"chipletstar2x3:0\"}"),
    )
    .unwrap();
    assert_eq!(
        resp.status, 400,
        "zero-latency d2d class must 400: {}",
        resp.body
    );

    // A pattern the grid cannot carry, or a hotspot fraction that is no
    // fraction, is turned away with the CLI's own message.
    for (body, names) in [
        ("{\"mesh_k\": 5, \"pattern\": \"bit_reverse\"}", "25 nodes"),
        ("{\"mesh_k\": 6, \"pattern\": \"shuffle\"}", "36 nodes"),
        ("{\"pattern\": \"hotspot:NaN\"}", "[0, 1]"),
        ("{\"pattern\": \"hotspot:7\"}", "[0, 1]"),
        // Integers a JSON number cannot hold exactly, and more faults
        // than the 4x4 mesh has links (a job that would never finish).
        ("{\"seed\": 9007199254740993}", "`seed`"),
        (
            "{\"kind\": \"fault_campaign\", \"routing\": \"both\", \"max_faults\": 4000000000}",
            "`max_faults`",
        ),
    ] {
        let resp = noc_service::client::request(&daemon.addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(resp.status, 400, "{body} must 400: {}", resp.body);
        assert!(resp.body.contains(names), "{body}: {}", resp.body);
    }
}

/// 64-bit FNV-1a, hex-rendered.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// Body `text`, which must be canonical compact JSON, with every member
/// that reads the wall clock nulled.
fn scrubbed(text: &str) -> String {
    fn scrub(v: &mut JsonValue) {
        match v {
            JsonValue::Obj(fields) => {
                for (key, value) in fields {
                    match key.as_str() {
                        "checkpoint_age_secs" | "elapsed_ms" | "scenarios_per_sec" => {
                            *value = JsonValue::Null
                        }
                        _ => scrub(value),
                    }
                }
            }
            JsonValue::Arr(items) => items.iter_mut().for_each(scrub),
            _ => {}
        }
    }
    let mut doc = JsonValue::parse(text).expect("a JSON body");
    assert_eq!(doc.render(), text, "the body is canonical text");
    scrub(&mut doc);
    doc.render()
}

/// What the daemon says of a job holds its bytes: the `201` of its
/// submission, the finished job's status and `result.json`, and the
/// `404` and `400` error bodies.
#[test]
fn finished_job_bodies_are_pinned() {
    let scratch = Scratch::new("pins");
    let spool = scratch.0.join("spool");
    let daemon = Daemon::start(&spool, &["--workers", "1", "--checkpoint-every", "250"]);
    let created = jobs::submit(&daemon.addr, &quick_spec(41).to_json().render()).unwrap();
    assert_eq!(created.status, 201, "{}", created.body);
    let id = "job-000001";
    let done = poll_until(Duration::from_secs(120), || {
        let status = jobs::status(&daemon.addr, id).unwrap();
        status.body.contains("\"phase\":\"completed\"")
    });
    assert!(done, "the job must finish");
    let status = jobs::status(&daemon.addr, id).unwrap();
    let result = jobs::result(&daemon.addr, id).unwrap();
    assert_eq!((status.status, result.status), (200, 200));
    let missing = jobs::status(&daemon.addr, "job-999999").unwrap();
    assert_eq!(missing.status, 404);
    let bad =
        noc_service::client::request(&daemon.addr, "POST", "/jobs", Some("{\"rate\": 9}")).unwrap();
    assert_eq!(bad.status, 400);
    let digests = [
        fnv1a(created.body.as_bytes()),
        fnv1a(scrubbed(&status.body).as_bytes()),
        fnv1a(scrubbed(&result.body).as_bytes()),
        fnv1a(missing.body.as_bytes()),
        fnv1a(bad.body.as_bytes()),
    ];
    assert_eq!(
        digests,
        [
            "94c2f02e659d3d11",
            "c614b22ccb7e74de",
            "eb4c68ea4e8dd844",
            "c52ac014e3880684",
            "205521ec10410add",
        ]
    );
}

/// A spec nested 10,000 deep — far under the body limit — is refused
/// with a typed `400`, not a handler thread's stack overflow, and the
/// daemon serves on.
#[test]
fn a_deeply_nested_post_is_refused_and_the_daemon_serves_on() {
    let scratch = Scratch::new("deep");
    let daemon = Daemon::start(&scratch.0.join("spool"), &[]);
    for open in ["[", "{\"a\":"] {
        let body = open.repeat(10_000);
        let resp =
            noc_service::client::request(&daemon.addr, "POST", "/jobs", Some(&body)).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("nested deeper than"), "{}", resp.body);
        let health = jobs::healthz(&daemon.addr).unwrap();
        assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
    }
}
