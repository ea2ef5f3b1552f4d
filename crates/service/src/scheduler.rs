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
//! plus one commit of work and never changes a result.
//!
//! A running `simulate` job is two threads: the *worker* steps the
//! simulation and hands each checkpoint to the job's *writer*, which
//! owns the spool files and makes it durable while the stepping goes on
//! ([`commit`]; ARCHITECTURE.md §5.3 states the invariants).

use crate::fsio::write_atomic;
use crate::obs::ObsLog;
use crate::spec::CampaignSpec;
use crate::stream::{panic_message, JsonlStream, Mailbox};
use noc_sim::{DeliveryStream, SimOutcome};
use noc_telemetry::json::{obj, JsonValue};
use noc_telemetry::snapshot::SNAPSHOT_SCHEMA_VERSION;
use noc_types::DeliveredPacket;
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

/// What the scheduler keeps of a job for as long as the daemon lives:
/// the fields of its status document. Everything else is [`LiveJob`].
struct JobRecord {
    /// The spec's `name` and `total_cycles()`.
    name: String,
    total_cycles: u64,
    phase: JobPhase,
    error: Option<String>,
    /// Cycles completed as of the last checkpoint (or completion).
    cycles_done: u64,
    /// `None` once the job is `Completed` or `Failed`: a daemon's
    /// finished jobs are never dropped, so each must stay small.
    live: Option<Box<LiveJob>>,
}

/// What only a job that can still run needs.
struct LiveJob {
    spec: CampaignSpec,
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
            name: spec.name.clone(),
            total_cycles: spec.total_cycles(),
            phase: JobPhase::Queued,
            error: None,
            cycles_done: 0,
            live: Some(Box::new(LiveJob {
                spec,
                checkpointed: None,
                started: None,
                cycles_at_start: 0,
                partial: None,
            })),
        }
    }

    /// The job has ended for good in `phase`; the record shrinks to its
    /// status fields.
    fn retire(&mut self, phase: JobPhase) {
        self.phase = phase;
        self.live = None;
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
    /// The next cycle to run.
    cycle: u64,
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
            cycle,
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
    /// Checkpoint boundaries not taken because the job's writer was
    /// still committing the previous one.
    checkpoints_skipped: AtomicU64,
    /// Time workers spent blocked on their writers (the close at the
    /// end of a run, the flush on shutdown).
    spool_wait_nanos: AtomicU64,
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
            checkpoints_skipped: AtomicU64::new(0),
            spool_wait_nanos: AtomicU64::new(0),
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
            let mut rec = JobRecord::queued(spec);
            rec.error = fs::read_to_string(dir.join("error.txt")).ok();
            if phase == JobPhase::Queued {
                // An unfinished job shows a client its last durable
                // checkpoint from the first poll on. (A finished job's
                // is spent; a crash may have left the file behind.)
                if let Some(live) = &mut rec.live {
                    live.partial = fs::read_to_string(dir.join("checkpoint.json"))
                        .ok()
                        .and_then(|text| JsonValue::parse(&text).ok())
                        .and_then(|doc| PartialHead::of(&doc))
                        .map(Arc::new);
                }
            } else {
                if phase == JobPhase::Completed {
                    rec.cycles_done = rec.total_cycles;
                }
                rec.retire(phase);
            }
            state.jobs.insert(id.clone(), rec);
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
        self.status_and_head(id).map(|(status, _)| status)
    }

    /// The status document of one job (the whole `GET /jobs/:id` body and
    /// the leading fields of the `202` and progress bodies) and its
    /// `202` head, both as of one instant.
    fn status_and_head(&self, id: &str) -> Option<(JsonValue, Option<Arc<PartialHead>>)> {
        let (status, live) = {
            let state = self.inner.state.lock().unwrap();
            let rec = state.jobs.get(id)?;
            let live = rec
                .live
                .as_ref()
                .map(|live| (live.spec.to_json(), live.partial.clone()));
            (Scheduler::status_doc(id, rec), live)
        };
        // A finished job keeps no spec in memory; its echo is the
        // resolved document the spool holds, which recovery trusts too.
        let (spec, head) = live.unwrap_or_else(|| {
            let spec = fs::read_to_string(self.job_dir(id).join("spec.json"))
                .ok()
                .and_then(|text| JsonValue::parse(&text).ok());
            (spec.unwrap_or(JsonValue::Null), None)
        });
        let JsonValue::Obj(mut fields) = status else {
            return Some((status, head));
        };
        fields.push(("spec".into(), spec));
        Some((JsonValue::Obj(fields), head))
    }

    /// A status document up to its closing `spec` echo.
    fn status_doc(id: &str, rec: &JobRecord) -> JsonValue {
        let total = rec.total_cycles;
        obj([
            ("id", id.into()),
            ("name", rec.name.clone().into()),
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
                match rec.live.as_ref().and_then(|live| live.checkpointed) {
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
        let (status, head) = self.status_and_head(id)?;
        // `{status fields}` reopened to take `partial` as its last field.
        let mut body = status.render();
        body.pop();
        body.push_str(",\"partial\":");
        let before_partial = body.len();
        let spliced = head.is_some_and(|head| {
            body.push_str(&head.open);
            let stream = self.job_dir(id).join("deliveries.jsonl");
            JsonlStream::splice_prefix(&stream, head.delivery_offset, &mut body)
        });
        if spliced {
            body.push_str("]}}");
        } else {
            body.truncate(before_partial);
            body.push_str("null}");
        }
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
            let jobs = &state.jobs;
            let running = || {
                jobs.iter()
                    .filter(|(_, r)| r.phase == JobPhase::Running)
                    .filter_map(|(id, r)| Some((id, r, r.live.as_deref()?)))
            };
            let ages: Vec<(String, f64)> = running()
                .filter_map(|(id, _, live)| {
                    let at = live.checkpointed?;
                    Some((id.clone(), at.elapsed().as_secs_f64()))
                })
                .collect();
            // Simulated cycles per wall-clock second since the worker
            // picked the job up, measured from the resume point so a
            // recovered job's checkpoint head start does not inflate it.
            let rates: Vec<(String, f64)> = running()
                .filter_map(|(id, r, live)| {
                    let secs = live.started?.elapsed().as_secs_f64();
                    (secs > 0.0).then(|| {
                        let cycles = r.cycles_done.saturating_sub(live.cycles_at_start);
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
            (
                "noc_service_checkpoints_skipped_total",
                "Checkpoint boundaries skipped because the spool was still writing.",
                &self.inner.checkpoints_skipped,
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
                counter.load(Ordering::Relaxed)
            ));
        }
        for (name, help, nanos) in [
            (
                "noc_service_checkpoint_write_seconds_total",
                "Total time spent in atomic checkpoint writes.",
                &self.inner.checkpoint_write_nanos,
            ),
            (
                "noc_service_spool_wait_seconds_total",
                "Total time workers spent blocked on their spool writers.",
                &self.inner.spool_wait_nanos,
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {:.6}\n",
                nanos.load(Ordering::Relaxed) as f64 / 1e9
            ));
        }
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

    /// Graceful shutdown: stop handing out queued jobs, interrupt each
    /// running job at its next checkpoint boundary (once that checkpoint
    /// is on disk) and join every worker. Interrupted and queued jobs stay
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
    while let Some(id) = next_job(inner) {
        inner
            .log
            .event("job_started", &[("job", id.as_str().into())]);
        let started = Instant::now();
        // A job that panics is a failed job; the worker takes the next.
        let run = std::panic::AssertUnwindSafe(|| run_job(inner, &id));
        let outcome = std::panic::catch_unwind(run).unwrap_or_else(|panic| {
            let message = format!("job panicked: {}", panic_message(&*panic));
            JobOutcome::Failed(fail(&inner.cfg.spool.join(&id), &message))
        });
        finish_job(inner, &id, outcome, started.elapsed().as_secs_f64());
    }
}

/// Block until a job is queued and mark it running; `None` once a
/// shutdown is requested.
fn next_job(inner: &SchedInner) -> Option<String> {
    let mut state = inner.state.lock().unwrap();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(id) = state.queue.pop_front() {
            state.running += 1;
            if let Some(rec) = state.jobs.get_mut(&id) {
                rec.phase = JobPhase::Running;
                if let Some(live) = &mut rec.live {
                    live.started = Some(Instant::now());
                    live.cycles_at_start = rec.cycles_done;
                }
            }
            return Some(id);
        }
        state = inner.work.wait(state).unwrap();
    }
}

/// Book the end of a run that took `elapsed` seconds: counters, log and
/// the job's record, which shrinks if the job has ended for good.
fn finish_job(inner: &SchedInner, id: &str, outcome: JobOutcome, elapsed: f64) {
    let mut state = inner.state.lock().unwrap();
    state.running -= 1;
    if matches!(outcome, JobOutcome::Completed { .. }) {
        state.job_secs_sum += elapsed;
        state.job_secs_count += 1;
    }
    let Some(rec) = state.jobs.get_mut(id) else {
        return;
    };
    match outcome {
        JobOutcome::Completed { written, skipped } => {
            rec.cycles_done = rec.total_cycles;
            rec.retire(JobPhase::Completed);
            inner.completed.fetch_add(1, Ordering::Relaxed);
            inner.log.event(
                "job_completed",
                &[
                    ("job", id.into()),
                    ("cycles", rec.cycles_done.into()),
                    ("secs", elapsed.into()),
                    ("checkpoints_written", written.into()),
                    ("checkpoints_skipped", skipped.into()),
                ],
            );
        }
        JobOutcome::Interrupted => {
            // Back to the durable queue: the next start resumes it.
            rec.phase = JobPhase::Queued;
            if let Some(live) = &mut rec.live {
                live.started = None;
            }
            inner.log.event(
                "job_interrupted",
                &[("job", id.into()), ("cycles", rec.cycles_done.into())],
            );
        }
        JobOutcome::Failed(e) => {
            inner.log.event(
                "job_failed",
                &[("job", id.into()), ("error", e.as_str().into())],
            );
            rec.error = Some(e);
            rec.retire(JobPhase::Failed);
            inner.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

enum JobOutcome {
    /// With the checkpoints the run wrote and the boundaries it skipped.
    Completed {
        written: u64,
        skipped: u64,
    },
    Interrupted,
    Failed(String),
}

/// Execute one job end to end: resume from the spooled checkpoint when
/// present, checkpoint periodically through the job's writer, and
/// persist the result atomically.
fn run_job(inner: &SchedInner, id: &str) -> JobOutcome {
    let dir = inner.cfg.spool.join(id);
    let spec = {
        let state = inner.state.lock().unwrap();
        match state.jobs.get(id).and_then(|rec| rec.live.as_ref()) {
            Some(live) => live.spec.clone(),
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
                if let Some(live) = &mut rec.live {
                    live.cycles_at_start = cycle;
                }
            }
        }
    }

    let stream = match JsonlStream::open(dir.join("deliveries.jsonl")) {
        Ok(s) => s,
        Err(e) => return JobOutcome::Failed(fail(&dir, &format!("opening delivery stream: {e}"))),
    };
    let mailbox = Mailbox::new(stream);
    let blocked = |since: Instant| {
        let nanos = since.elapsed().as_nanos() as u64;
        inner.spool_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
    };
    let run = std::thread::scope(|scope| {
        let writer = std::thread::Builder::new()
            .name("noc-service-writer".into())
            .spawn_scoped(scope, || {
                mailbox.serve(|stream, batch, checkpoint| {
                    commit(inner, id, &checkpoint_path, stream, batch, checkpoint)
                })
            })
            .map_err(|e| format!("starting the spool writer: {e}"))?;
        let mut stream = mailbox.queued(&inner.shutdown);
        #[cfg(test)]
        if spec.name == tests::PANICKING_JOB {
            panic!("injected into the job body");
        }
        let run = sim.run_streamed(&mut gen, &mut stream, resume.as_ref(), |doc| {
            mailbox.hand_over(Checkpoint::of(doc));
            if !inner.shutdown.load(Ordering::SeqCst) {
                return true;
            }
            // Stop only on a checkpoint that is on disk (I4).
            let since = Instant::now();
            mailbox.wait_idle();
            blocked(since);
            false
        });
        // The result supersedes a checkpoint still pending (I3); an
        // interrupted run has none, it waited for its last one above.
        let since = Instant::now();
        mailbox.close(matches!(&run, Ok((_, outcome)) if *outcome != SimOutcome::Interrupted));
        let joined = writer.join();
        blocked(since);
        joined.map_err(|panic| format!("spool writer panicked: {}", panic_message(&*panic)))?;
        Ok(run)
    });
    // A failed commit fails the job, whatever the run made of it (I5).
    let (run, (written, skipped)) = match (run, mailbox.outcome()) {
        (Ok(run), Ok(counts)) => (run, counts),
        (Err(e), _) | (_, Err(e)) => return JobOutcome::Failed(fail(&dir, &e)),
    };
    inner
        .checkpoints_skipped
        .fetch_add(skipped, Ordering::Relaxed);
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
            JobOutcome::Completed { written, skipped }
        }
    }
}

/// A checkpoint on its way from the worker to the spool: the document
/// as `checkpoint.json` will hold it, and what becomes public once it
/// does.
struct Checkpoint {
    text: String,
    head: Option<PartialHead>,
}

impl Checkpoint {
    fn of(doc: &JsonValue) -> Checkpoint {
        Checkpoint {
            text: doc.render(),
            head: PartialHead::of(doc),
        }
    }
}

/// One commit, the unit of a job's writer: append the deliveries, then
/// spool the checkpoint that names them. The order is the stream's
/// crash guarantee (I1): a checkpoint is never in place before the
/// deliveries up to its `delivery_offset` are `sync_data`-durable.
fn commit(
    inner: &SchedInner,
    id: &str,
    path: &Path,
    stream: &mut JsonlStream,
    batch: &[DeliveredPacket],
    checkpoint: Option<Checkpoint>,
) -> Result<(), String> {
    stream
        .append(batch)
        .map_err(|e| e.within("stream").to_string())?;
    match checkpoint {
        Some(checkpoint) => spool_checkpoint(inner, id, path, checkpoint),
        None => Ok(()),
    }
}

/// Make one checkpoint of job `id` durable and, only once the directory
/// fsync behind the rename has returned (I2), publish it: progress and
/// the `202` head on the job's record, the counters, the log.
fn spool_checkpoint(
    inner: &SchedInner,
    id: &str,
    path: &Path,
    checkpoint: Checkpoint,
) -> Result<(), String> {
    let write_started = Instant::now();
    write_atomic(path, &checkpoint.text).map_err(|e| format!("writing checkpoint: {e}"))?;
    let write = write_started.elapsed();
    inner.checkpoint_writes.fetch_add(1, Ordering::Relaxed);
    inner
        .checkpoint_write_nanos
        .fetch_add(write.as_nanos() as u64, Ordering::Relaxed);
    if let Some(head) = checkpoint.head {
        let cycle = head.cycle;
        let mut state = inner.state.lock().unwrap();
        if let Some(rec) = state.jobs.get_mut(id) {
            rec.cycles_done = cycle;
            if let Some(live) = &mut rec.live {
                live.checkpointed = Some(Instant::now());
                live.partial = Some(Arc::new(head));
            }
        }
        drop(state);
        inner.log.event(
            "job_checkpoint",
            &[
                ("job", id.into()),
                ("cycle", cycle.into()),
                ("write_secs", write.as_secs_f64().into()),
            ],
        );
    }
    Ok(())
}

/// Execute a `fault_campaign` job. Campaigns are thousands of short
/// independent runs rather than one long one, so they neither
/// checkpoint nor resume: an interrupted campaign simply restarts from
/// its (deterministic) seed on the next daemon start.
fn run_campaign_job(inner: &SchedInner, id: &str, dir: &Path, spec: &CampaignSpec) -> JobOutcome {
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
    JobOutcome::Completed {
        written: 0,
        skipped: 0,
    }
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
    use crate::stream::QueuedStream;
    use noc_sim::MemoryStream;
    use noc_telemetry::snapshot::{Snapshot, SnapshotError};
    use std::cell::{Cell, RefCell};

    /// The name of a job whose body panics (the seam is in `run_job`).
    pub(super) const PANICKING_JOB: &str = "panics in the job body";

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

    /// Everything a client or a scrape can see of a job's progress.
    fn observable(sched: &Scheduler, id: &str) -> (String, String, u64) {
        (
            without_age(&sched.partial_text(id).unwrap()),
            without_age(&sched.status_json(id).unwrap().render()),
            sched.inner.checkpoint_writes.load(Ordering::Relaxed),
        )
    }

    /// One `simulate` job on a scheduler that has no workers: the test
    /// is the worker (it steps against [`Played::stream`]) and the
    /// writer (it takes from the mailbox and commits), so every check
    /// happens at a known point of the job.
    struct Played {
        spool: PathBuf,
        sched: Scheduler,
        id: String,
        spec: CampaignSpec,
        mailbox: Mailbox<Checkpoint>,
        checkpoint_path: PathBuf,
        stream_path: PathBuf,
        never_urgent: AtomicBool,
    }

    impl Played {
        fn new(tag: &str, spec: CampaignSpec) -> Played {
            let spool = scratch_spool(tag);
            let sched =
                Scheduler::recovered(ServiceConfig::new(&spool), ObsLog::disabled()).unwrap();
            let id = sched.submit(spec.clone()).unwrap();
            assert_eq!(next_job(&sched.inner).as_ref(), Some(&id));
            let dir = sched.job_dir(&id);
            let stream_path = dir.join("deliveries.jsonl");
            Played {
                mailbox: Mailbox::new(JsonlStream::open(&stream_path).unwrap()),
                checkpoint_path: dir.join("checkpoint.json"),
                stream_path,
                never_urgent: AtomicBool::new(false),
                spool,
                sched,
                id,
                spec,
            }
        }

        /// The worker's stream, with `at_boundary` listening in.
        fn stream<F: Fn(bool)>(&self, at_boundary: F) -> Overheard<'_, F> {
            Overheard {
                stream: self.mailbox.queued(&self.never_urgent),
                at_boundary,
            }
        }

        /// The worker: the whole run against `stream`, every checkpoint
        /// handed over and then shown to `handed_over`. Returns the
        /// rendered report.
        fn run<F: Fn(bool)>(
            &self,
            stream: &mut Overheard<'_, F>,
            mut handed_over: impl FnMut(&JsonValue),
        ) -> Result<String, SnapshotError> {
            let sim = self.spec.simulator(self.spec.checkpoint_every).unwrap();
            let mut gen = self.spec.generator().unwrap();
            let (report, outcome) = sim.run_streamed(&mut gen, stream, None, |doc| {
                self.mailbox.hand_over(Checkpoint::of(doc));
                handed_over(doc);
                true
            })?;
            assert_ne!(outcome, SimOutcome::Interrupted);
            Ok(report.to_json().render())
        }

        /// The writer, one whole commit; `false` when there is none.
        fn commit(&self) -> bool {
            self.commit_after(|_, _| ())
        }

        /// [`Played::commit`], with a look at what the writer took:
        /// the stream as it stands on disk, and the batch.
        fn commit_after(&self, look: impl FnOnce(&JsonlStream, &[DeliveredPacket])) -> bool {
            let Some((mut stream, batch, checkpoint)) = self.mailbox.take() else {
                return false;
            };
            look(&stream, &batch);
            let checkpointed = checkpoint.is_some();
            let result = commit(
                &self.sched.inner,
                &self.id,
                &self.checkpoint_path,
                &mut stream,
                &batch,
                checkpoint,
            );
            self.mailbox.done(stream, result.map(|()| checkpointed));
            true
        }

        /// What an uninterrupted run outside the service reports and
        /// streams, the stream as `deliveries.jsonl` would hold it.
        fn reference(&self) -> (String, String) {
            let sim = self.spec.simulator(self.spec.checkpoint_every).unwrap();
            let mut gen = self.spec.generator().unwrap();
            let mut stream = MemoryStream::new();
            let (report, _) = sim
                .run_streamed(&mut gen, &mut stream, None, |_| true)
                .unwrap();
            let lines = stream.entries().iter();
            let jsonl = lines.map(|d| d.snapshot().render() + "\n").collect();
            (report.to_json().render(), jsonl)
        }

        /// The head the job's record holds: its stream offset.
        fn published_offset(&self) -> Option<u64> {
            let state = self.sched.inner.state.lock().unwrap();
            let live = state.jobs[&self.id].live.as_ref()?;
            Some(live.partial.as_ref()?.delivery_offset)
        }
    }

    impl Drop for Played {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.spool);
        }
    }

    /// The worker's stream as the simulator sees it, except that the
    /// test hears every answer `ready` gives: the one place it can act
    /// at a boundary the run skips.
    struct Overheard<'a, F> {
        stream: QueuedStream<'a, Checkpoint>,
        at_boundary: F,
    }

    impl<F: Fn(bool)> DeliveryStream for Overheard<'_, F> {
        fn append(&mut self, batch: &[DeliveredPacket]) -> Result<(), SnapshotError> {
            self.stream.append(batch)
        }
        fn ready(&self) -> bool {
            let ready = self.stream.ready();
            (self.at_boundary)(ready);
            ready
        }
        fn len(&self) -> u64 {
            self.stream.len()
        }
        fn truncate(&mut self, offset: u64) -> Result<Vec<DeliveredPacket>, SnapshotError> {
            self.stream.truncate(offset)
        }
    }

    /// The one `202` construction in production (head kept in memory,
    /// deliveries spliced from the stream) serves exactly the bytes of
    /// the construction it replaced, at every state a poll can meet:
    /// the writer is played one step at a time, and every other
    /// checkpoint is left pending so that the boundary after it is
    /// skipped.
    #[test]
    fn served_202_equals_the_from_disk_reference_at_every_poll_point() {
        let job = Played::new(
            "differential",
            CampaignSpec {
                rate: 0.2,
                sample_every: 100,
                checkpoint_every: 150,
                ..CampaignSpec::default()
            },
        );
        let (sched, id) = (&job.sched, job.id.as_str());
        let body = assert_served_equals_reference(sched, id, "before the first checkpoint");
        assert!(body.ends_with(",\"partial\":null}"), "{body}");

        let polls_between_append_and_checkpoint = Cell::new(0u64);
        let last_body = RefCell::new(String::new());
        // The writer, a step at a time.
        let commit_in_steps = || {
            let (mut stream, batch, checkpoint) = job.mailbox.take().unwrap();
            assert_served_equals_reference(sched, id, "taken by the writer, nothing written");
            stream.append(&batch).unwrap();
            // The batch is in the stream, its checkpoint is not in
            // place: the served prefix still ends at the previous offset.
            let served = job.published_offset().unwrap_or(0);
            let appended = JsonlStream::read_prefix(&job.stream_path, served + 1).is_some();
            polls_between_append_and_checkpoint
                .set(polls_between_append_and_checkpoint.get() + u64::from(appended));
            assert_served_equals_reference(sched, id, "appended, checkpoint not yet renamed");
            spool_checkpoint(&sched.inner, id, &job.checkpoint_path, checkpoint.unwrap()).unwrap();
            job.mailbox.done(stream, Ok(true));
            *last_body.borrow_mut() = assert_served_equals_reference(sched, id, "committed");
        };
        let skipped = Cell::new(0u64);
        let mut stream = job.stream(|ready| {
            if !ready {
                skipped.set(skipped.get() + 1);
                assert_served_equals_reference(sched, id, "at a skipped boundary");
                commit_in_steps();
                assert_served_equals_reference(sched, id, "after a skipped boundary");
            }
        });
        let mut handed_over = 0u64;
        job.run(&mut stream, |_| {
            assert_served_equals_reference(sched, id, "handed over, not committed");
            handed_over += 1;
            if handed_over % 2 == 1 {
                commit_in_steps();
            }
        })
        .unwrap();
        assert!(handed_over >= 5, "only {handed_over} checkpoints");
        assert!(skipped.get() >= 2, "only {} skips", skipped.get());
        assert!(polls_between_append_and_checkpoint.get() >= 3);
        assert!(stream.len() > 100, "too quiet to exercise the splice");
        let last_body = last_body.into_inner();
        assert!(last_body.contains("\"load_imbalance\":"), "no epoch series");

        // A restart on this spool (a SIGKILL leaves exactly these
        // files): before any worker runs, the first poll shows the last
        // durable checkpoint, rebuilt from the spool.
        let partial_of = |body: &str| body[body.find(",\"partial\":").unwrap()..].to_string();
        let restarted =
            Scheduler::recovered(ServiceConfig::new(&job.spool), ObsLog::disabled()).unwrap();
        let body = assert_served_equals_reference(&restarted, id, "first poll after a restart");
        assert_eq!(partial_of(&body), partial_of(&last_body));
    }

    /// The readiness gate: a boundary reached while a commit is pending
    /// or in flight is skipped, the next one taken carries the batch of
    /// every interval since the last, and nothing a client or a scrape
    /// can see moves between a hand-off and the end of its commit.
    #[test]
    fn a_boundary_met_while_the_writer_is_busy_is_skipped_and_nothing_shows_early() {
        let job = Played::new("gate", busy_spec());
        let (sched, id) = (&job.sched, job.id.as_str());
        // Boundary 1 is handed over and left pending, so 2 is skipped;
        // at 2 the writer takes the commit and sits on it (in flight),
        // so 3 is skipped too; at 3 it finishes, so 4 is taken.
        let boundary = Cell::new(0u64);
        let before = RefCell::new(observable(sched, id));
        let in_flight = RefCell::new(None);
        let mut stream = job.stream(|ready| {
            boundary.set(boundary.get() + 1);
            match boundary.get() {
                2 => {
                    assert!(!ready, "a commit is pending");
                    *in_flight.borrow_mut() = job.mailbox.take();
                    assert_eq!(observable(sched, id), *before.borrow(), "taken");
                }
                3 => {
                    assert!(!ready, "a commit is in flight");
                    let (mut stream, batch, checkpoint) = in_flight.take().unwrap();
                    stream.append(&batch).unwrap();
                    assert_eq!(observable(sched, id), *before.borrow(), "appended");
                    let checkpoint = checkpoint.unwrap();
                    spool_checkpoint(&sched.inner, id, &job.checkpoint_path, checkpoint).unwrap();
                    job.mailbox.done(stream, Ok(true));
                    assert_ne!(observable(sched, id), *before.borrow(), "committed");
                }
                _ => assert!(ready, "the writer is idle"),
            }
        });
        let offsets = RefCell::new(Vec::new());
        job.run(&mut stream, |doc| {
            offsets
                .borrow_mut()
                .push(doc.get("delivery_offset").unwrap().as_u64().unwrap());
            match boundary.get() {
                1 => assert_eq!(observable(sched, id), *before.borrow(), "handed over"),
                // The batch of boundary 4 covers intervals 2 to 4.
                4 => assert!(job.commit_after(|on_disk, batch| {
                    let offsets = offsets.borrow();
                    assert_eq!(on_disk.len(), offsets[0]);
                    assert_eq!(batch.len() as u64, offsets[1] - offsets[0]);
                    assert!(batch.len() > 100, "too quiet: {offsets:?}");
                })),
                _ => assert!(job.commit()),
            }
            *before.borrow_mut() = observable(sched, id);
        })
        .unwrap();
        assert!(boundary.get() >= 6, "only {} boundaries", boundary.get());
        assert_eq!(offsets.borrow().len() as u64, boundary.get() - 2);
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

    /// A run whose writer never gets to its first checkpoint skips every
    /// later boundary, and at the close the result supersedes the one
    /// still pending: zero checkpoints, yet every delivery is in the
    /// stream and the report is the uninterrupted run's.
    #[test]
    fn a_run_that_never_commits_a_checkpoint_loses_nothing() {
        let job = Played::new("all-skipped", busy_spec());
        let skipped = Cell::new(0u64);
        let mut stream = job.stream(|ready| skipped.set(skipped.get() + u64::from(!ready)));
        let mut handed_over = 0;
        let report = job.run(&mut stream, |_| handed_over += 1).unwrap();
        assert_eq!(
            handed_over, 1,
            "only the first boundary finds the writer idle"
        );
        assert!(skipped.get() >= 5, "only {} boundaries", skipped.get());
        drop(stream);

        job.mailbox.close(true);
        assert!(job.commit_after(|on_disk, batch| {
            assert_eq!(on_disk.len(), 0);
            assert!(batch.len() > 100, "too quiet: {}", batch.len());
        }));
        assert!(!job.commit(), "closed and empty");
        let (reference_report, reference_stream) = job.reference();
        assert_eq!(report, reference_report);
        assert_eq!(
            fs::read_to_string(&job.stream_path).unwrap(),
            reference_stream
        );
        assert!(!job.checkpoint_path.exists());
        let inner = &job.sched.inner;
        assert_eq!(inner.checkpoint_writes.load(Ordering::Relaxed), 0);
        assert_eq!(job.published_offset(), None);
    }

    fn busy_spec() -> CampaignSpec {
        CampaignSpec {
            rate: 0.2,
            checkpoint_every: 150,
            ..CampaignSpec::default()
        }
    }

    /// Deliveries before their checkpoint (I1), pinned by making the
    /// append fail: no checkpoint is renamed into place, nothing is
    /// committed afterwards, and the worker hears of it at its next
    /// hand-off.
    #[test]
    fn a_commit_whose_append_fails_leaves_no_checkpoint() {
        let job = Played::new("append-fails", busy_spec());
        let mut stream = job.stream(|_| ());
        let run = job.run(&mut stream, |_| {
            // The stream can no longer be opened for appending.
            fs::remove_file(&job.stream_path).unwrap();
            fs::create_dir(&job.stream_path).unwrap();
            assert!(job.commit());
        });
        let heard = run.expect_err("the append at the next boundary reports the failure");
        let error = job.mailbox.outcome().unwrap_err();
        assert!(
            error.contains("stream: opening stream for append"),
            "{error}"
        );
        assert!(heard.to_string().contains(&error), "{heard}");
        assert!(!job.commit(), "nothing is committed after a failure");
        assert!(!job.checkpoint_path.exists(), "renamed before the append");
        assert_eq!(job.published_offset(), None);
    }

    /// A checkpoint before its publication (I2), pinned by making the
    /// rename fail under the real worker and writer: nothing is
    /// published, and the job fails with the commit's message.
    #[test]
    fn a_commit_whose_checkpoint_write_fails_publishes_nothing_and_fails_the_job() {
        let spool = scratch_spool("rename-fails");
        let sched = Scheduler::recovered(ServiceConfig::new(&spool), ObsLog::disabled()).unwrap();
        let id = sched.submit(busy_spec()).unwrap();
        let dir = sched.job_dir(&id);
        fs::create_dir(dir.join("checkpoint.json")).unwrap();
        assert_eq!(next_job(&sched.inner).as_ref(), Some(&id));
        let JobOutcome::Failed(error) = run_job(&sched.inner, &id) else {
            panic!("the job must fail");
        };
        assert!(error.starts_with("writing checkpoint: "), "{error}");
        assert_eq!(fs::read_to_string(dir.join("error.txt")).unwrap(), error);
        assert_eq!(sched.inner.checkpoint_writes.load(Ordering::Relaxed), 0);
        let status = sched.status_json(&id).unwrap();
        assert_eq!(status.get("cycles_done").unwrap().as_u64(), Some(0));
        assert!(sched
            .partial_text(&id)
            .unwrap()
            .ends_with("\"partial\":null}"));
        finish_job(&sched.inner, &id, JobOutcome::Failed(error.clone()), 0.0);
        let status = sched.status_json(&id).unwrap();
        assert_eq!(status.get("phase").unwrap().as_str(), Some("failed"));
        assert_eq!(status.get("error").unwrap().as_str(), Some(error.as_str()));
        let _ = fs::remove_dir_all(&spool);
    }

    /// A job whose body panics is a failed job with the panic's message;
    /// the worker it ran on completes the next job, and `drain` returns.
    #[test]
    fn a_panicking_job_fails_and_its_worker_takes_the_next() {
        let spool = scratch_spool("panic");
        let mut cfg = ServiceConfig::new(&spool);
        cfg.workers = 1;
        let sched = Scheduler::start(cfg).unwrap();
        let panicking = sched
            .submit(CampaignSpec {
                name: PANICKING_JOB.into(),
                ..CampaignSpec::default()
            })
            .unwrap();
        let next = sched.submit(CampaignSpec::default()).unwrap();
        assert!(sched.drain(std::time::Duration::from_secs(120)));
        let status = sched.status_json(&panicking).unwrap();
        assert_eq!(status.get("phase").unwrap().as_str(), Some("failed"));
        let error = "job panicked: injected into the job body";
        assert_eq!(status.get("error").unwrap().as_str(), Some(error));
        let spooled = fs::read_to_string(sched.job_dir(&panicking).join("error.txt"));
        assert_eq!(spooled.unwrap(), error);
        let status = sched.status_json(&next).unwrap();
        assert_eq!(status.get("phase").unwrap().as_str(), Some("completed"));
        let metrics = sched.metrics_text();
        assert!(metrics.contains("noc_service_jobs_failed_total 1\n"));
        assert!(metrics.contains("noc_service_jobs_completed_total 1\n"));
        assert!(metrics.contains("noc_service_running_jobs 0\n"));
        sched.shutdown();
        let _ = fs::remove_dir_all(&spool);
    }

    /// The head is a copy of `checkpoint.json` and goes when it goes:
    /// it exists once a checkpoint is committed, and the finished job's
    /// record holds none.
    #[test]
    fn completed_jobs_hold_no_partial_head() {
        let job = Played::new("heads", busy_spec());
        let mut stream = job.stream(|_| ());
        job.run(&mut stream, |doc| {
            assert!(job.commit());
            assert_eq!(
                job.published_offset(),
                doc.get("delivery_offset").unwrap().as_u64()
            );
        })
        .unwrap();
        assert!(job.published_offset().is_some(), "a head existed");
        let done = JobOutcome::Completed {
            written: 0,
            skipped: 0,
        };
        finish_job(&job.sched.inner, &job.id, done, 0.0);
        assert_eq!(job.published_offset(), None);
        assert!(job.sched.inner.state.lock().unwrap().jobs[&job.id]
            .live
            .is_none());
    }

    /// What `GET /jobs/:id` says of a finished job does not depend on
    /// where its parts are kept: in the full record, in the compact
    /// one (spec echoed from the spool), or in a daemon restarted on
    /// the same spool.
    #[test]
    fn a_finished_job_reads_the_same_before_and_after_its_record_shrinks() {
        let spool = scratch_spool("compact");
        let sched = Scheduler::recovered(ServiceConfig::new(&spool), ObsLog::disabled()).unwrap();
        let spec = CampaignSpec {
            name: "compact \"record\"".into(),
            topology: "cutmesh2:7".into(),
            rate: 0.08,
            ..CampaignSpec::default()
        };
        let completes = sched.submit(spec.clone()).unwrap();
        let fails = sched.submit(spec).unwrap();
        fs::write(sched.job_dir(&fails).join("checkpoint.json"), "{").unwrap();
        for (id, phase) in [
            (&completes, JobPhase::Completed),
            (&fails, JobPhase::Failed),
        ] {
            assert_eq!(next_job(&sched.inner).as_ref(), Some(id));
            let outcome = run_job(&sched.inner, id);
            // As `finish_job` leaves the record, but for the shrinking.
            {
                let mut state = sched.inner.state.lock().unwrap();
                let rec = state.jobs.get_mut(id).unwrap();
                rec.phase = phase;
                match &outcome {
                    JobOutcome::Completed { .. } => rec.cycles_done = rec.total_cycles,
                    JobOutcome::Failed(e) => rec.error = Some(e.clone()),
                    JobOutcome::Interrupted => panic!("nobody asked {id} to stop"),
                }
            }
            let full = without_age(&sched.status_json(id).unwrap().render());
            assert!(
                full.contains(&format!("\"phase\":\"{}\"", phase.tag())),
                "{full}"
            );
            assert!(full.contains("\"topology\":\"cutmesh2:7\""), "{full}");
            finish_job(&sched.inner, id, outcome, 0.0);
            assert!(sched.inner.state.lock().unwrap().jobs[id].live.is_none());
            let compact = without_age(&sched.status_json(id).unwrap().render());
            assert_eq!(compact, full, "{id} after the shrink");
            let restarted =
                Scheduler::recovered(ServiceConfig::new(&spool), ObsLog::disabled()).unwrap();
            let recovered = without_age(&restarted.status_json(id).unwrap().render());
            assert_eq!(recovered, full, "{id} after a restart");
        }
        let _ = fs::remove_dir_all(&spool);
    }

    /// A daemon never forgets a finished job, so what it keeps of one
    /// must not include the spec: after a thousand tiny jobs no record
    /// holds anything but its status fields.
    #[test]
    fn a_thousand_finished_jobs_keep_compact_records() {
        let spool = scratch_spool("thousand");
        let mut cfg = ServiceConfig::new(&spool);
        cfg.queue_cap = 1_000;
        let sched = Scheduler::start(cfg).unwrap();
        for seed in 0..1_000 {
            sched
                .submit(CampaignSpec {
                    seed,
                    warmup_cycles: 10,
                    measure_cycles: 40,
                    drain_cycles: 50,
                    checkpoint_every: 25,
                    ..CampaignSpec::default()
                })
                .unwrap();
        }
        assert!(sched.drain(std::time::Duration::from_secs(300)));
        let state = sched.inner.state.lock().unwrap();
        assert_eq!(state.jobs.len(), 1_000);
        for (id, rec) in &state.jobs {
            assert_eq!(rec.phase, JobPhase::Completed, "{id}: {:?}", rec.error);
            assert!(rec.live.is_none(), "{id} still holds its spec");
        }
        drop(state);
        assert!(sched
            .metrics_text()
            .contains("noc_service_jobs_completed_total 1000\n"));
        sched.shutdown();
        let _ = fs::remove_dir_all(&spool);
    }

    /// A job whose routing tables would not fit is refused at
    /// submission: it reaches neither the queue nor the spool, so no
    /// worker builds it and a restart cannot meet it again.
    #[test]
    fn oversized_table_routed_jobs_never_reach_a_worker() {
        let spool = scratch_spool("oversized");
        let sched = Scheduler::recovered(ServiceConfig::new(&spool), ObsLog::disabled()).unwrap();
        for (mesh_k, topology, routing) in [
            (255, "cutmesh1", "static"),
            (128, "cutmesh1", "static"),
            (200, "mesh", "adaptive"),
        ] {
            let spec = CampaignSpec {
                mesh_k,
                topology: topology.into(),
                routing: routing.into(),
                ..CampaignSpec::default()
            };
            match sched.submit(spec) {
                Err(SubmitError::Invalid(err)) => {
                    assert!(err.contains("up*/down*-table routing"), "{err}")
                }
                other => panic!("{mesh_k} {topology} {routing} not refused: {other:?}"),
            }
        }
        let state = sched.inner.state.lock().unwrap();
        assert!(state.jobs.is_empty() && state.queue.is_empty());
        drop(state);
        let restarted =
            Scheduler::recovered(ServiceConfig::new(&spool), ObsLog::disabled()).unwrap();
        assert!(restarted.inner.state.lock().unwrap().jobs.is_empty());
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
