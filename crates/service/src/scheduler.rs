//! The campaign scheduler: a bounded job queue drained by a fixed set
//! of worker threads, with every job's state spooled to disk so a
//! killed daemon resumes exactly where it stopped.
//!
//! Spool layout (one directory per job under the spool root):
//!
//! ```text
//! spool/job-000001/spec.json        # fully-resolved CampaignSpec
//! spool/job-000001/checkpoint.json  # latest checkpoint (tmp+rename)
//! spool/job-000001/deliveries.jsonl # append-only delivery stream
//! spool/job-000001/result.json      # final report; job is done
//! spool/job-000001/error.txt        # terminal failure; job is dead
//! ```
//!
//! Recovery on startup rescans the spool: any job directory with a
//! spec but neither a result nor an error is re-queued, resuming from
//! its checkpoint when one exists. Because a resumed run is
//! byte-identical to an uninterrupted one (see the resume-determinism
//! tests in `noc-sim`), a crash costs at most one checkpoint interval
//! of work and never changes a result.

use crate::fsio::write_atomic;
use crate::obs::ObsLog;
use crate::spec::CampaignSpec;
use crate::stream::JsonlStream;
use noc_sim::SimOutcome;
use noc_telemetry::json::{obj, JsonValue};
use noc_telemetry::snapshot::SNAPSHOT_SCHEMA_VERSION;
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Spool directory (created if missing).
    pub spool: PathBuf,
    /// Concurrent jobs (worker threads).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before submissions are
    /// rejected with a retry hint.
    pub queue_cap: usize,
    /// Checkpoint cadence applied to specs that left `checkpoint_every`
    /// at 0. Never 0 itself: the cadence is also the daemon's
    /// graceful-shutdown latency.
    pub default_checkpoint_every: u64,
    /// Fallback `Retry-After` hint (seconds) for queue-full rejections
    /// issued before any job has completed; once completions exist the
    /// hint scales with queue depth and the mean job duration instead.
    pub retry_after_secs: u64,
}

impl ServiceConfig {
    /// Defaults rooted at the given spool directory.
    pub fn new(spool: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            spool: spool.into(),
            workers: 2,
            queue_cap: 16,
            default_checkpoint_every: 5_000,
            retry_after_secs: 2,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting for a worker (includes jobs recovered from the spool).
    Queued,
    /// A worker is stepping it.
    Running,
    /// `result.json` is on disk.
    Completed,
    /// Terminal error (`error.txt` on disk).
    Failed,
}

impl JobPhase {
    fn tag(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Completed => "completed",
            JobPhase::Failed => "failed",
        }
    }
}

/// A submission that could not be accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// The queue is at capacity; retry after the given seconds.
    QueueFull {
        /// Seconds the client should wait before retrying.
        retry_after_secs: u64,
    },
    /// The spec failed validation.
    Invalid(String),
    /// The spool rejected the write.
    Io(std::io::Error),
}

struct JobRecord {
    spec: CampaignSpec,
    phase: JobPhase,
    error: Option<String>,
    /// Cycles completed as of the last checkpoint (or completion).
    cycles_done: u64,
    /// When the last checkpoint hit the spool.
    checkpointed: Option<Instant>,
    /// When a worker picked the job up (cleared on interruption).
    started: Option<Instant>,
    /// `cycles_done` at pickup (the resume point), so the cycles/sec
    /// gauge measures this run's progress, not the checkpoint's head
    /// start.
    cycles_at_start: u64,
    /// What `checkpoint.json` says to a client, held exactly as long as
    /// that file exists: set when a checkpoint lands (or is found at
    /// recovery), dropped when the result replaces it.
    partial: Option<Arc<PartialHead>>,
}

impl JobRecord {
    fn queued(spec: CampaignSpec) -> JobRecord {
        JobRecord {
            spec,
            phase: JobPhase::Queued,
            error: None,
            cycles_done: 0,
            checkpointed: None,
            started: None,
            cycles_at_start: 0,
            partial: None,
        }
    }
}

/// The client-facing part of one durable checkpoint, rendered once when
/// the checkpoint lands so that a `202` neither re-reads nor re-parses
/// `checkpoint.json`. It holds the cycle, the stream offset and the
/// epoch series, never the deliveries: those are spliced from
/// `deliveries.jsonl` per request, so nothing that grows with the
/// job's length stays in memory.
struct PartialHead {
    /// The `partial` object up to and including the `[` that opens its
    /// `deliveries` array.
    open: String,
    /// Leading entries of the delivery stream the checkpoint vouches for.
    delivery_offset: u64,
}

impl PartialHead {
    /// The head of a checkpoint document; `None` when it lacks the
    /// cycle or the offset (then there is nothing to show a client).
    fn of(checkpoint: &JsonValue) -> Option<PartialHead> {
        let cycle = checkpoint.get("cycle")?.as_u64()?;
        let delivery_offset = checkpoint.get("delivery_offset")?.as_u64()?;
        // The epoch series inside the checkpoint is the client-facing
        // time series; the surrounding sampler counters are resume
        // internals.
        let series = checkpoint
            .get("epochs")
            .and_then(|ep| ep.get("series"))
            .cloned()
            .unwrap_or(JsonValue::Null);
        let mut open = obj([
            ("cycle", cycle.into()),
            ("delivery_offset", delivery_offset.into()),
            ("epochs", series),
            ("deliveries", JsonValue::Arr(Vec::new())),
        ])
        .render();
        open.truncate(open.len() - "]}".len());
        Some(PartialHead {
            open,
            delivery_offset,
        })
    }
}

struct SchedState {
    queue: VecDeque<String>,
    /// Queue slots promised to submissions whose spec is still being
    /// made durable; they count against `queue_cap` but no worker can
    /// see them yet.
    reserved: usize,
    jobs: HashMap<String, JobRecord>,
    next_id: u64,
    running: usize,
    /// Wall-clock seconds spent by completed jobs, for the mean job
    /// duration behind the scaled `Retry-After` hint.
    job_secs_sum: f64,
    job_secs_count: u64,
}

struct SchedInner {
    cfg: ServiceConfig,
    state: Mutex<SchedState>,
    work: Condvar,
    shutdown: AtomicBool,
    started: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    checkpoint_writes: AtomicU64,
    checkpoint_write_nanos: AtomicU64,
    log: ObsLog,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Handle to the scheduler; cheap to clone, shared by the HTTP server
/// and the daemon main loop.
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<SchedInner>,
}

/// Seconds a client should wait before retrying a queue-full
/// submission: the expected time for the backlog to clear one slot,
/// `mean_job_secs × queue_depth / workers`, clamped to [1, 600]. Falls
/// back to `fallback` until at least one job has completed (there is
/// no mean to scale from yet).
fn retry_after_hint(
    queue_depth: usize,
    workers: usize,
    mean_job_secs: Option<f64>,
    fallback: u64,
) -> u64 {
    match mean_job_secs {
        None => fallback.max(1),
        Some(mean) => {
            let est = mean * queue_depth as f64 / workers.max(1) as f64;
            (est.ceil() as u64).clamp(1, 600)
        }
    }
}

impl Scheduler {
    /// Create the spool (if missing), recover any interrupted jobs and
    /// start the worker threads. Logging is off; the daemon uses
    /// [`Scheduler::start_with_log`].
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Scheduler> {
        Scheduler::start_with_log(cfg, ObsLog::disabled())
    }

    /// [`Scheduler::start`] with a structured JSONL event log: job
    /// lifecycle events (`job_submitted`, `job_started`,
    /// `job_checkpoint`, `job_completed`, `job_failed`,
    /// `job_interrupted`, `job_recovered`) all carry the job id, so a
    /// single grep reconstructs any job's history.
    pub fn start_with_log(cfg: ServiceConfig, log: ObsLog) -> std::io::Result<Scheduler> {
        let sched = Scheduler::recovered(cfg, log)?;
        let mut handles = sched.inner.workers.lock().unwrap();
        for i in 0..sched.inner.cfg.workers.max(1) {
            let inner = Arc::clone(&sched.inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("noc-service-worker-{i}"))
                    .spawn(move || worker_loop(&inner))?,
            );
        }
        drop(handles);
        Ok(sched)
    }

    /// The scheduler as recovery leaves it — spool created, unfinished
    /// jobs back in the queue — before any worker runs.
    fn recovered(cfg: ServiceConfig, log: ObsLog) -> std::io::Result<Scheduler> {
        fs::create_dir_all(&cfg.spool)?;
        let inner = Arc::new(SchedInner {
            cfg,
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                reserved: 0,
                jobs: HashMap::new(),
                next_id: 1,
                running: 0,
                job_secs_sum: 0.0,
                job_secs_count: 0,
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            checkpoint_writes: AtomicU64::new(0),
            checkpoint_write_nanos: AtomicU64::new(0),
            log,
            workers: Mutex::new(Vec::new()),
        });
        let sched = Scheduler { inner };
        sched.recover()?;
        Ok(sched)
    }

    /// Scan the spool for jobs that were submitted but never finished
    /// and re-queue them (recovery after a crash or SIGKILL).
    fn recover(&self) -> std::io::Result<()> {
        let mut ids: Vec<String> = Vec::new();
        for entry in fs::read_dir(&self.inner.cfg.spool)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                ids.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        ids.sort();
        let mut state = self.inner.state.lock().unwrap();
        for id in ids {
            let dir = self.inner.cfg.spool.join(&id);
            // Keep the id counter ahead of everything already spooled.
            if let Some(n) = id.strip_prefix("job-").and_then(|s| s.parse::<u64>().ok()) {
                state.next_id = state.next_id.max(n + 1);
            }
            let Ok(spec_text) = fs::read_to_string(dir.join("spec.json")) else {
                continue; // torn submission: no durable spec, nothing to run
            };
            let Ok(spec) = CampaignSpec::from_text(&spec_text) else {
                continue;
            };
            let phase = if dir.join("result.json").exists() {
                JobPhase::Completed
            } else if dir.join("error.txt").exists() {
                JobPhase::Failed
            } else {
                JobPhase::Queued
            };
            let total = spec.total_cycles();
            // A completed job's checkpoint is spent (a crash may have
            // left the file behind); any other job shows a client its
            // last durable checkpoint from the first poll on.
            let partial = (phase != JobPhase::Completed)
                .then(|| fs::read_to_string(dir.join("checkpoint.json")).ok())
                .flatten()
                .and_then(|text| JsonValue::parse(&text).ok())
                .and_then(|doc| PartialHead::of(&doc))
                .map(Arc::new);
            state.jobs.insert(
                id.clone(),
                JobRecord {
                    phase,
                    error: fs::read_to_string(dir.join("error.txt")).ok(),
                    cycles_done: if phase == JobPhase::Completed {
                        total
                    } else {
                        0
                    },
                    partial,
                    ..JobRecord::queued(spec)
                },
            );
            if phase == JobPhase::Queued {
                self.inner.log.event(
                    "job_recovered",
                    &[("job", id.as_str().into()), ("phase", "queued".into())],
                );
                state.queue.push_back(id);
            }
        }
        Ok(())
    }

    /// Submit a campaign. Returns the job id, or a queue-full rejection
    /// whose retry hint scales with the backlog (see [`retry_after_hint`]).
    pub fn submit(&self, spec: CampaignSpec) -> Result<String, SubmitError> {
        spec.validate().map_err(SubmitError::Invalid)?;
        // Take the id and a queue slot, but keep the job out of the
        // queue until its directory and spec are on disk: a worker that
        // is awake (just finishing another job) would otherwise pop it
        // and fail opening a delivery stream in a directory that does
        // not exist yet.
        let id = {
            let mut state = self.inner.state.lock().unwrap();
            let depth = state.queue.len() + state.reserved;
            if depth >= self.inner.cfg.queue_cap {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                let mean = (state.job_secs_count > 0)
                    .then(|| state.job_secs_sum / state.job_secs_count as f64);
                return Err(SubmitError::QueueFull {
                    retry_after_secs: retry_after_hint(
                        depth,
                        self.inner.cfg.workers.max(1),
                        mean,
                        self.inner.cfg.retry_after_secs,
                    ),
                });
            }
            state.reserved += 1;
            let id = format!("job-{:06}", state.next_id);
            state.next_id += 1;
            id
        };
        // Durable spec before the submission is acknowledged: a job the
        // client was told about survives any crash from here on.
        let dir = self.job_dir(&id);
        let write = fs::create_dir_all(&dir)
            .and_then(|()| write_atomic(&dir.join("spec.json"), &spec.to_json().render()));
        if let Err(e) = write {
            self.inner.state.lock().unwrap().reserved -= 1;
            return Err(SubmitError::Io(e));
        }
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.log.event(
            "job_submitted",
            &[
                ("job", id.as_str().into()),
                ("name", spec.name.clone().into()),
            ],
        );
        {
            let mut state = self.inner.state.lock().unwrap();
            state.reserved -= 1;
            state.jobs.insert(id.clone(), JobRecord::queued(spec));
            state.queue.push_back(id.clone());
        }
        self.inner.work.notify_one();
        Ok(id)
    }

    fn job_dir(&self, id: &str) -> PathBuf {
        self.inner.cfg.spool.join(id)
    }

    /// Status document for one job, or `None` for an unknown id.
    pub fn status_json(&self, id: &str) -> Option<JsonValue> {
        let state = self.inner.state.lock().unwrap();
        state.jobs.get(id).map(|rec| Scheduler::status_doc(id, rec))
    }

    /// The status document of one job (the whole `GET /jobs/:id` body and
    /// the leading fields of the `202` and progress bodies).
    fn status_doc(id: &str, rec: &JobRecord) -> JsonValue {
        let total = rec.spec.total_cycles();
        obj([
            ("id", id.into()),
            ("name", rec.spec.name.clone().into()),
            ("phase", rec.phase.tag().into()),
            ("cycles_done", rec.cycles_done.into()),
            ("total_cycles", total.into()),
            (
                "progress",
                if total == 0 {
                    0.0.into()
                } else {
                    ((rec.cycles_done as f64 / total as f64).min(1.0)).into()
                },
            ),
            (
                "checkpoint_age_secs",
                match rec.checkpointed {
                    Some(at) => at.elapsed().as_secs_f64().into(),
                    None => JsonValue::Null,
                },
            ),
            (
                "error",
                match &rec.error {
                    Some(e) => e.clone().into(),
                    None => JsonValue::Null,
                },
            ),
            ("spec", rec.spec.to_json()),
        ])
    }

    /// The completed result document (raw JSON text), `None` while the
    /// job is unknown or unfinished.
    pub fn result_text(&self, id: &str) -> Option<String> {
        {
            let state = self.inner.state.lock().unwrap();
            if state.jobs.get(id)?.phase != JobPhase::Completed {
                return None;
            }
        }
        fs::read_to_string(self.job_dir(id).join("result.json")).ok()
    }

    /// Jobs waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// Jobs currently being stepped.
    pub fn running(&self) -> usize {
        self.inner.state.lock().unwrap().running
    }

    /// Mean wall-clock duration of completed jobs, `None` before the
    /// first completion. This is the term the queue-full `Retry-After`
    /// hint scales with.
    pub fn mean_job_secs(&self) -> Option<f64> {
        let state = self.inner.state.lock().unwrap();
        (state.job_secs_count > 0).then(|| state.job_secs_sum / state.job_secs_count as f64)
    }

    /// Partial-progress document (rendered) for a job that is not
    /// finished yet: the status fields plus a `partial` object carrying
    /// the cycle, epoch series and deliveries-so-far at the job's last
    /// durable checkpoint (`partial` is `null` before the first
    /// checkpoint). `None` for an unknown id.
    ///
    /// Nothing is parsed on this path: the head of `partial` was
    /// rendered when the checkpoint landed, and the deliveries are the
    /// stream's first `delivery_offset` lines as they stand on disk.
    pub fn partial_text(&self, id: &str) -> Option<String> {
        let (status, head) = {
            let state = self.inner.state.lock().unwrap();
            let rec = state.jobs.get(id)?;
            (Scheduler::status_doc(id, rec), rec.partial.clone())
        };
        let items = head.as_ref().and_then(|head| {
            let stream = self.job_dir(id).join("deliveries.jsonl");
            JsonlStream::prefix_items(&stream, head.delivery_offset)
        });
        // `{status fields}` reopened to take `partial` as its last field.
        let mut body = status.render();
        body.pop();
        body.push_str(",\"partial\":");
        match (head, items) {
            (Some(head), Some(items)) => {
                body.push_str(&head.open);
                body.push_str(&items);
                body.push_str("]}");
            }
            _ => body.push_str("null"),
        }
        body.push('}');
        Some(body)
    }

    /// The `202` body built the way it was before [`PartialHead`]: the
    /// spooled checkpoint re-read and re-parsed, every delivery line
    /// parsed and rendered again. The reference [`Scheduler::partial_text`]
    /// is compared with, byte for byte.
    #[cfg(test)]
    fn partial_json_from_disk(&self, id: &str) -> Option<JsonValue> {
        let status = self.status_json(id)?;
        let dir = self.job_dir(id);
        let partial = fs::read_to_string(dir.join("checkpoint.json"))
            .ok()
            .and_then(|text| JsonValue::parse(&text).ok())
            .and_then(|doc| {
                let cycle = doc.get("cycle")?.as_u64()?;
                let offset = doc.get("delivery_offset")?.as_u64()?;
                let series = doc
                    .get("epochs")
                    .and_then(|ep| ep.get("series"))
                    .cloned()
                    .unwrap_or(JsonValue::Null);
                let deliveries = JsonlStream::read_prefix(&dir.join("deliveries.jsonl"), offset)?;
                Some(obj([
                    ("cycle", cycle.into()),
                    ("delivery_offset", offset.into()),
                    ("epochs", series),
                    ("deliveries", JsonValue::Arr(deliveries)),
                ]))
            })
            .unwrap_or(JsonValue::Null);
        let JsonValue::Obj(mut fields) = status else {
            return Some(status);
        };
        fields.push(("partial".into(), partial));
        Some(JsonValue::Obj(fields))
    }

    /// Live spatial-progress document for a job: the status fields
    /// plus `heatmap` (the per-router counter grid), `epochs` (the
    /// epoch series), `imbalance` (that series' load-imbalance values,
    /// pre-extracted for dashboards) and `as_of_cycle`. All four come
    /// from the last durable checkpoint while the job runs, and from
    /// the final report once it completes; they are `null` before the
    /// first checkpoint. `None` for an unknown id.
    pub fn progress_json(&self, id: &str) -> Option<JsonValue> {
        let status = self.status_json(id)?;
        let dir = self.job_dir(id);
        let read_doc = |name: &str| {
            fs::read_to_string(dir.join(name))
                .ok()
                .and_then(|text| JsonValue::parse(&text).ok())
        };
        // (as_of_cycle, heatmap, epoch series), each independently
        // nullable so a torn or legacy document degrades gracefully.
        let (cycle, heatmap, series) = if let Some(doc) = read_doc("checkpoint.json") {
            (
                doc.get("cycle").cloned().unwrap_or(JsonValue::Null),
                doc.get("progress").cloned().unwrap_or(JsonValue::Null),
                doc.get("epochs")
                    .and_then(|ep| ep.get("series"))
                    .cloned()
                    .unwrap_or(JsonValue::Null),
            )
        } else if let Some(doc) = read_doc("result.json") {
            let report = doc.get("report").cloned().unwrap_or(JsonValue::Null);
            (
                report.get("cycles_run").cloned().unwrap_or(JsonValue::Null),
                report.get("spatial").cloned().unwrap_or(JsonValue::Null),
                report.get("epochs").cloned().unwrap_or(JsonValue::Null),
            )
        } else {
            (JsonValue::Null, JsonValue::Null, JsonValue::Null)
        };
        let imbalance = series
            .get("samples")
            .and_then(JsonValue::as_array)
            .map(|samples| {
                JsonValue::Arr(
                    samples
                        .iter()
                        .filter_map(|s| s.get("load_imbalance").cloned())
                        .collect(),
                )
            })
            .unwrap_or(JsonValue::Null);
        let JsonValue::Obj(mut fields) = status else {
            return Some(status);
        };
        fields.push(("as_of_cycle".into(), cycle));
        fields.push(("heatmap".into(), heatmap));
        fields.push(("imbalance".into(), imbalance));
        fields.push(("epochs".into(), series));
        Some(JsonValue::Obj(fields))
    }

    /// Prometheus text-format metrics.
    pub fn metrics_text(&self) -> String {
        let uptime = self.inner.started.elapsed().as_secs_f64();
        let completed = self.inner.completed.load(Ordering::Relaxed);
        let jobs_per_sec = if uptime > 0.0 {
            completed as f64 / uptime
        } else {
            0.0
        };
        let (depth, running, checkpoint_ages, job_rates) = {
            let state = self.inner.state.lock().unwrap();
            let ages: Vec<(String, f64)> = state
                .jobs
                .iter()
                .filter(|(_, r)| r.phase == JobPhase::Running)
                .filter_map(|(id, r)| {
                    r.checkpointed
                        .map(|at| (id.clone(), at.elapsed().as_secs_f64()))
                })
                .collect();
            // Simulated cycles per wall-clock second since the worker
            // picked the job up, measured from the resume point so a
            // recovered job's checkpoint head start does not inflate it.
            let rates: Vec<(String, f64)> = state
                .jobs
                .iter()
                .filter(|(_, r)| r.phase == JobPhase::Running)
                .filter_map(|(id, r)| {
                    let secs = r.started?.elapsed().as_secs_f64();
                    (secs > 0.0).then(|| {
                        let cycles = r.cycles_done.saturating_sub(r.cycles_at_start);
                        (id.clone(), cycles as f64 / secs)
                    })
                })
                .collect();
            (state.queue.len(), state.running, ages, rates)
        };
        let mut out = String::new();
        let mut gauge = |name: &str, help: &str, value: String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        gauge(
            "noc_service_queue_depth",
            "Jobs waiting for a worker.",
            depth.to_string(),
        );
        gauge(
            "noc_service_running_jobs",
            "Jobs currently being stepped.",
            running.to_string(),
        );
        gauge(
            "noc_service_uptime_seconds",
            "Seconds since the scheduler started.",
            format!("{uptime:.3}"),
        );
        gauge(
            "noc_service_jobs_per_second",
            "Completed jobs per second of uptime.",
            format!("{jobs_per_sec:.6}"),
        );
        for (name, help, counter) in [
            (
                "noc_service_jobs_submitted_total",
                "Jobs accepted.",
                &self.inner.submitted,
            ),
            (
                "noc_service_jobs_completed_total",
                "Jobs finished with a result.",
                &self.inner.completed,
            ),
            (
                "noc_service_jobs_failed_total",
                "Jobs that ended in error.",
                &self.inner.failed,
            ),
            (
                "noc_service_jobs_rejected_total",
                "Submissions rejected by backpressure.",
                &self.inner.rejected,
            ),
            (
                "noc_service_checkpoint_writes_total",
                "Checkpoints durably written to the spool.",
                &self.inner.checkpoint_writes,
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
                counter.load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "# HELP noc_service_checkpoint_write_seconds_total Total time spent in \
             atomic checkpoint writes.\n\
             # TYPE noc_service_checkpoint_write_seconds_total counter\n\
             noc_service_checkpoint_write_seconds_total {:.6}\n",
            self.inner.checkpoint_write_nanos.load(Ordering::Relaxed) as f64 / 1e9
        ));
        out.push_str(
            "# HELP noc_service_job_cycles_per_second Simulated cycles per second \
             for each running job, measured since its worker picked it up.\n\
             # TYPE noc_service_job_cycles_per_second gauge\n",
        );
        for (id, rate) in job_rates {
            out.push_str(&format!(
                "noc_service_job_cycles_per_second{{job=\"{id}\"}} {rate:.3}\n"
            ));
        }
        out.push_str(
            "# HELP noc_service_checkpoint_age_seconds Seconds since a running job's \
             last checkpoint hit the spool.\n\
             # TYPE noc_service_checkpoint_age_seconds gauge\n",
        );
        for (id, age) in checkpoint_ages {
            out.push_str(&format!(
                "noc_service_checkpoint_age_seconds{{job=\"{id}\"}} {age:.3}\n"
            ));
        }
        out
    }

    /// Whether a shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop handing out queued jobs, interrupt
    /// running jobs at their next checkpoint (which is already on disk
    /// by then) and join every worker. Interrupted and queued jobs stay
    /// in the spool and resume on the next start.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work.notify_all();
        let handles: Vec<_> = self.inner.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Block until every queued/running job has finished (test helper;
    /// returns `false` on timeout).
    pub fn drain(&self, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let state = self.inner.state.lock().unwrap();
                if state.queue.is_empty() && state.running == 0 {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
}

fn worker_loop(inner: &Arc<SchedInner>) {
    loop {
        let id = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = state.queue.pop_front() {
                    state.running += 1;
                    if let Some(rec) = state.jobs.get_mut(&id) {
                        rec.phase = JobPhase::Running;
                        rec.started = Some(Instant::now());
                        rec.cycles_at_start = rec.cycles_done;
                    }
                    break id;
                }
                state = inner.work.wait(state).unwrap();
            }
        };
        inner
            .log
            .event("job_started", &[("job", id.as_str().into())]);
        let started = Instant::now();
        let outcome = run_job(inner, &id);
        let elapsed = started.elapsed().as_secs_f64();
        let mut state = inner.state.lock().unwrap();
        state.running -= 1;
        if matches!(outcome, JobOutcome::Completed) {
            state.job_secs_sum += elapsed;
            state.job_secs_count += 1;
        }
        if let Some(rec) = state.jobs.get_mut(&id) {
            match outcome {
                JobOutcome::Completed => {
                    rec.phase = JobPhase::Completed;
                    rec.cycles_done = rec.spec.total_cycles();
                    rec.partial = None;
                    inner.completed.fetch_add(1, Ordering::Relaxed);
                    inner.log.event(
                        "job_completed",
                        &[
                            ("job", id.as_str().into()),
                            ("cycles", rec.cycles_done.into()),
                            ("secs", elapsed.into()),
                        ],
                    );
                }
                JobOutcome::Interrupted => {
                    // Back to the durable queue: the next start resumes it.
                    rec.phase = JobPhase::Queued;
                    rec.started = None;
                    inner.log.event(
                        "job_interrupted",
                        &[
                            ("job", id.as_str().into()),
                            ("cycles", rec.cycles_done.into()),
                        ],
                    );
                }
                JobOutcome::Failed(e) => {
                    rec.phase = JobPhase::Failed;
                    inner.log.event(
                        "job_failed",
                        &[("job", id.as_str().into()), ("error", e.as_str().into())],
                    );
                    rec.error = Some(e);
                    inner.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

enum JobOutcome {
    Completed,
    Interrupted,
    Failed(String),
}

/// Execute one job end to end: resume from the spooled checkpoint when
/// present, checkpoint periodically, and persist the result atomically.
fn run_job(inner: &Arc<SchedInner>, id: &str) -> JobOutcome {
    let dir = inner.cfg.spool.join(id);
    let spec = {
        let state = inner.state.lock().unwrap();
        match state.jobs.get(id) {
            Some(rec) => rec.spec.clone(),
            None => return JobOutcome::Failed("job record vanished".into()),
        }
    };
    if spec.kind == "fault_campaign" {
        return run_campaign_job(inner, id, &dir, &spec);
    }
    let every = if spec.checkpoint_every == 0 {
        inner.cfg.default_checkpoint_every
    } else {
        spec.checkpoint_every
    };
    let sim = match spec.simulator(every) {
        Ok(s) => s,
        Err(e) => return JobOutcome::Failed(fail(&dir, &e)),
    };
    let mut gen = match spec.generator() {
        Ok(g) => g,
        Err(e) => return JobOutcome::Failed(fail(&dir, &e)),
    };
    let checkpoint_path = dir.join("checkpoint.json");
    let resume = match fs::read_to_string(&checkpoint_path) {
        Ok(text) => match JsonValue::parse(&text) {
            Ok(doc) => Some(doc),
            Err(e) => return JobOutcome::Failed(fail(&dir, &format!("bad checkpoint: {e}"))),
        },
        Err(_) => None,
    };
    if let Some(doc) = &resume {
        if let Some(cycle) = doc.get("cycle").and_then(JsonValue::as_u64) {
            let mut state = inner.state.lock().unwrap();
            if let Some(rec) = state.jobs.get_mut(id) {
                rec.cycles_done = cycle;
                // The resumed cycles were simulated by an earlier run;
                // this run's cycles/sec gauge starts counting here.
                rec.cycles_at_start = cycle;
            }
        }
    }

    let mut stream = match JsonlStream::open(dir.join("deliveries.jsonl")) {
        Ok(s) => s,
        Err(e) => return JobOutcome::Failed(fail(&dir, &format!("opening delivery stream: {e}"))),
    };
    let run = sim.run_streamed(&mut gen, &mut stream, resume.as_ref(), |doc| {
        spool_checkpoint(inner, id, &checkpoint_path, doc)
    });
    match run {
        Err(e) => JobOutcome::Failed(fail(&dir, &e.to_string())),
        Ok((_, SimOutcome::Interrupted)) => JobOutcome::Interrupted,
        Ok((report, outcome)) => {
            let doc = obj([
                ("schema_version", SNAPSHOT_SCHEMA_VERSION.into()),
                ("job", id.into()),
                (
                    "outcome",
                    match outcome {
                        SimOutcome::Completed => "completed",
                        SimOutcome::DrainedEarly => "drained_early",
                        SimOutcome::DeadlockSuspected => "deadlock_suspected",
                        SimOutcome::Interrupted => unreachable!("handled above"),
                    }
                    .into(),
                ),
                ("spec", spec.to_json()),
                ("report", report.to_json()),
            ]);
            if let Err(e) = write_atomic(&dir.join("result.json"), &doc.render()) {
                return JobOutcome::Failed(fail(&dir, &format!("writing result: {e}")));
            }
            // The checkpoint is spent; the delivery stream stays — it
            // now holds the campaign's full delivery log.
            let _ = fs::remove_file(&checkpoint_path);
            JobOutcome::Completed
        }
    }
}

/// Make one checkpoint of job `id` durable and, once it is, publish it:
/// progress and the `202` head on the job's record, the counters, the
/// log. Runs after the deliveries the checkpoint references were
/// fsynced into the stream. Returns whether the job keeps running.
fn spool_checkpoint(inner: &SchedInner, id: &str, path: &Path, doc: &JsonValue) -> bool {
    let write_started = Instant::now();
    let ok = write_atomic(path, &doc.render()).is_ok();
    let write_secs = write_started.elapsed().as_secs_f64();
    if ok {
        inner.checkpoint_writes.fetch_add(1, Ordering::Relaxed);
        inner
            .checkpoint_write_nanos
            .fetch_add((write_secs * 1e9) as u64, Ordering::Relaxed);
        if let Some(cycle) = doc.get("cycle").and_then(JsonValue::as_u64) {
            let head = PartialHead::of(doc).map(Arc::new);
            let mut state = inner.state.lock().unwrap();
            if let Some(rec) = state.jobs.get_mut(id) {
                rec.cycles_done = cycle;
                rec.checkpointed = Some(Instant::now());
                rec.partial = head;
            }
            drop(state);
            inner.log.event(
                "job_checkpoint",
                &[
                    ("job", id.into()),
                    ("cycle", cycle.into()),
                    ("write_secs", write_secs.into()),
                ],
            );
        }
    }
    // A checkpoint that failed to persist must not become the one
    // we stop on; keep running unless it is safely spooled.
    !(ok && inner.shutdown.load(Ordering::SeqCst))
}

/// Execute a `fault_campaign` job. Campaigns are thousands of short
/// independent runs rather than one long one, so they neither
/// checkpoint nor resume: an interrupted campaign simply restarts from
/// its (deterministic) seed on the next daemon start.
fn run_campaign_job(
    inner: &Arc<SchedInner>,
    id: &str,
    dir: &Path,
    spec: &CampaignSpec,
) -> JobOutcome {
    let cc = match spec.campaign_config() {
        Ok(cc) => cc,
        Err(e) => return JobOutcome::Failed(fail(dir, &e)),
    };
    inner.log.event(
        "campaign_started",
        &[
            ("job", id.into()),
            ("scenarios", u64::from(cc.scenarios_per_point).into()),
            ("max_faults", u64::from(cc.max_faults).into()),
        ],
    );
    let run = match noc_campaign::run_campaign(&cc) {
        Ok(run) => run,
        Err(e) => return JobOutcome::Failed(fail(dir, &e)),
    };
    let doc = obj([
        ("schema_version", SNAPSHOT_SCHEMA_VERSION.into()),
        ("job", id.into()),
        ("outcome", "completed".into()),
        ("spec", spec.to_json()),
        ("report", noc_campaign::report_json(&run)),
    ]);
    if let Err(e) = write_atomic(&dir.join("result.json"), &doc.render()) {
        return JobOutcome::Failed(fail(dir, &format!("writing result: {e}")));
    }
    inner.log.event(
        "campaign_completed",
        &[
            ("job", id.into()),
            ("scenarios_per_sec", run.scenarios_per_sec.into()),
        ],
    );
    JobOutcome::Completed
}

/// Record a terminal failure in the spool (so recovery won't retry it
/// forever) and pass the message through.
fn fail(dir: &Path, msg: &str) -> String {
    let _ = write_atomic(&dir.join("error.txt"), msg);
    msg.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::DeliveryStream;

    fn scratch_spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("noc-sched-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A `202` body with the one field that reads the clock blanked, so
    /// that two bodies built microseconds apart compare byte for byte.
    fn without_age(body: &str) -> String {
        const KEY: &str = "\"checkpoint_age_secs\":";
        let at = body.find(KEY).expect("status carries the age") + KEY.len();
        let len = body[at..].find(',').expect("age is not the last field");
        [&body[..at], &body[at + len..]].concat()
    }

    /// The served `202` against the from-disk reference, byte for byte.
    fn assert_served_equals_reference(sched: &Scheduler, id: &str, when: &str) -> String {
        let served = sched.partial_text(id).expect("job is known");
        let reference = sched
            .partial_json_from_disk(id)
            .expect("job is known")
            .render();
        assert_eq!(without_age(&served), without_age(&reference), "{when}");
        served
    }

    /// The one `202` construction in production (head kept in memory,
    /// deliveries spliced from the stream) serves exactly the bytes of
    /// the construction it replaced, at every state a poll can meet.
    /// The test plays the worker itself on a scheduler that has none,
    /// so each comparison happens at a known point of the job.
    #[test]
    fn served_202_equals_the_from_disk_reference_at_every_poll_point() {
        let spool = scratch_spool("differential");
        let sched = Scheduler::recovered(ServiceConfig::new(&spool), ObsLog::disabled()).unwrap();
        let spec = CampaignSpec {
            rate: 0.2,
            sample_every: 100,
            checkpoint_every: 150,
            ..CampaignSpec::default()
        };
        let id = sched.submit(spec.clone()).unwrap();
        let dir = sched.job_dir(&id);

        let body = assert_served_equals_reference(&sched, &id, "before the first checkpoint");
        assert!(body.ends_with(",\"partial\":null}"), "{body}");

        let sim = spec.simulator(spec.checkpoint_every).unwrap();
        let mut gen = spec.generator().unwrap();
        let stream_path = dir.join("deliveries.jsonl");
        let mut stream = JsonlStream::open(&stream_path).unwrap();
        let checkpoint_path = dir.join("checkpoint.json");
        let mut checkpoints = 0u64;
        let mut polls_between_append_and_checkpoint = 0u64;
        let mut last_body = String::new();
        sim.run_streamed(&mut gen, &mut stream, None, |doc| {
            // The batch is in the stream, its checkpoint is not written:
            // the served prefix must still end at the previous offset.
            let served_offset = sched.inner.state.lock().unwrap().jobs[&id]
                .partial
                .as_ref()
                .map_or(0, |head| head.delivery_offset);
            let appended = JsonlStream::read_prefix(&stream_path, served_offset + 1).is_some();
            polls_between_append_and_checkpoint += u64::from(appended);
            assert_served_equals_reference(&sched, &id, "between append and checkpoint");

            assert!(spool_checkpoint(&sched.inner, &id, &checkpoint_path, doc));
            checkpoints += 1;
            last_body = assert_served_equals_reference(&sched, &id, "after a checkpoint");
            true
        })
        .unwrap();
        assert!(checkpoints >= 5, "only {checkpoints} checkpoints");
        assert!(polls_between_append_and_checkpoint >= 3);
        assert!(stream.len() > 100, "too quiet to exercise the splice");
        assert!(last_body.contains("\"load_imbalance\":"), "no epoch series");

        // A restart on this spool (a SIGKILL leaves exactly these
        // files): before any worker runs, the first poll shows the last
        // durable checkpoint, rebuilt from the spool.
        let partial_of = |body: &str| body[body.find(",\"partial\":").unwrap()..].to_string();
        let restarted =
            Scheduler::recovered(ServiceConfig::new(&spool), ObsLog::disabled()).unwrap();
        let body = assert_served_equals_reference(&restarted, &id, "first poll after a restart");
        assert_eq!(partial_of(&body), partial_of(&last_body));
        let _ = fs::remove_dir_all(&spool);
    }

    /// A queued id is one a worker may run at once, so by then its
    /// spool directory and spec must be on disk. The test is the worker
    /// here: it pops as fast as it can while another thread submits.
    #[test]
    fn a_job_is_queued_only_after_its_spec_is_durable() {
        let spool = scratch_spool("submit-order");
        let mut cfg = ServiceConfig::new(&spool);
        cfg.queue_cap = 64;
        let sched = Scheduler::recovered(cfg, ObsLog::disabled()).unwrap();
        std::thread::scope(|scope| {
            let submitter = scope.spawn(|| {
                for seed in 0..50 {
                    let spec = CampaignSpec {
                        seed,
                        ..CampaignSpec::default()
                    };
                    sched.submit(spec).unwrap();
                }
            });
            let mut popped = 0;
            while popped < 50 {
                let next = sched.inner.state.lock().unwrap().queue.pop_front();
                if let Some(id) = next {
                    assert!(
                        sched.job_dir(&id).join("spec.json").exists(),
                        "{id} was in the queue before its spec was on disk"
                    );
                    popped += 1;
                }
            }
            submitter.join().unwrap();
        });
        let _ = fs::remove_dir_all(&spool);
    }

    /// The head is a copy of `checkpoint.json` and goes when it goes:
    /// a scheduler that has completed many jobs holds none.
    #[test]
    fn completed_jobs_hold_no_partial_head() {
        let spool = scratch_spool("heads");
        let mut cfg = ServiceConfig::new(&spool);
        cfg.queue_cap = 200;
        let sched = Scheduler::start(cfg).unwrap();
        let spec = CampaignSpec {
            warmup_cycles: 50,
            measure_cycles: 150,
            drain_cycles: 100,
            checkpoint_every: 100,
            ..CampaignSpec::default()
        };
        for seed in 0..200 {
            sched
                .submit(CampaignSpec {
                    seed,
                    ..spec.clone()
                })
                .unwrap();
        }
        assert!(sched.drain(std::time::Duration::from_secs(300)));
        assert!(sched.inner.checkpoint_writes.load(Ordering::Relaxed) >= 200);
        let state = sched.inner.state.lock().unwrap();
        assert_eq!(state.jobs.len(), 200);
        for (id, rec) in &state.jobs {
            assert_eq!(rec.phase, JobPhase::Completed, "{id}: {:?}", rec.error);
            assert!(rec.partial.is_none(), "{id} still holds its 202 head");
        }
        drop(state);
        sched.shutdown();
        let _ = fs::remove_dir_all(&spool);
    }

    #[test]
    fn retry_hint_falls_back_before_any_completion() {
        assert_eq!(retry_after_hint(16, 2, None, 7), 7);
        // A zero fallback still asks the client to wait at least 1s.
        assert_eq!(retry_after_hint(16, 2, None, 0), 1);
    }

    #[test]
    fn retry_hint_scales_with_backlog_and_mean_duration() {
        // 8 queued jobs at ~3 s each over 2 workers ≈ 12 s of backlog.
        assert_eq!(retry_after_hint(8, 2, Some(3.0), 2), 12);
        // Deeper queue, same jobs: longer wait.
        assert_eq!(retry_after_hint(16, 2, Some(3.0), 2), 24);
        // More workers drain faster.
        assert_eq!(retry_after_hint(16, 8, Some(3.0), 2), 6);
        // Fractional estimates round up.
        assert_eq!(retry_after_hint(1, 2, Some(0.5), 2), 1);
    }

    #[test]
    fn retry_hint_is_clamped_to_a_sane_range() {
        assert_eq!(retry_after_hint(1000, 1, Some(120.0), 2), 600);
        assert_eq!(retry_after_hint(1, 64, Some(0.001), 2), 1);
        // Zero workers must not divide by zero.
        assert_eq!(retry_after_hint(4, 0, Some(2.0), 2), 8);
    }
}
