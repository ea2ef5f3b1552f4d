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
//! Recovery on startup rescans the spool (`recover`): any job
//! directory with a spec but neither a result nor an error is
//! re-queued, resuming from its checkpoint when one exists. Because a
//! resumed run is byte-identical to an uninterrupted one (see the
//! resume-determinism tests in `noc-sim`), a crash costs at most one
//! checkpoint interval plus one commit of work and never changes a
//! result.
//!
//! A running `simulate` job is two threads (`worker`): the *worker*
//! steps the simulation and hands each checkpoint to the job's
//! *writer*, which owns the spool files and makes it durable while the
//! stepping goes on (`commit`; ARCHITECTURE.md §5.3 states the
//! invariants). What the scheduler knows of a job is its record
//! (`job`); this module is the handle and the documents it serves.

mod commit;
mod job;
mod recover;
mod worker;

use crate::{
    body::Body,
    fsio::{create_dir_durable, write_atomic},
    obs::ObsLog,
    spec::CampaignSpec,
};
use commit::progress_shown;
use job::{JobRecord, PartialHead};
use noc_telemetry::json::{to_text, to_tree, JsonValue, JsonWriter};
use noc_telemetry::Snapshot;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::{fs, thread::JoinHandle, time::Instant};

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

#[derive(Default)]
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

impl SchedState {
    /// See [`Scheduler::mean_job_secs`].
    fn mean_job_secs(&self) -> Option<f64> {
        (self.job_secs_count > 0).then(|| self.job_secs_sum / self.job_secs_count as f64)
    }
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

impl SchedInner {
    /// The scheduler's state, also after a thread panicked holding it:
    /// a poisoned guard still guards a valid state. Each update under it
    /// is a few counter and field writes, queue and map inserts and
    /// pops, and one [`JobRecord`] transition, none of which can panic
    /// midway (the log line some of them write cannot either), so a
    /// panic while the guard is held falls between updates and leaves
    /// the state one whole update made. Readers only copy out.
    fn state(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
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
        let inner = &sched.inner;
        let mut handles = inner.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for i in 0..inner.cfg.workers.max(1) {
            let inner = Arc::clone(inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("noc-service-worker-{i}"))
                    .spawn(move || worker::worker_loop(&inner))?,
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
                next_id: 1,
                ..SchedState::default()
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

    /// Submit a campaign. Returns the job id, or a queue-full rejection
    /// whose retry hint scales with the backlog (see `retry_after_hint`).
    pub fn submit(&self, spec: CampaignSpec) -> Result<String, SubmitError> {
        spec.validate().map_err(SubmitError::Invalid)?;
        // Take the id and a queue slot, but keep the job out of the
        // queue until its directory and spec are on disk: a worker that
        // is awake (just finishing another job) would otherwise pop it
        // and fail opening a delivery stream in a directory that does
        // not exist yet.
        let id = {
            let mut state = self.inner.state();
            let depth = state.queue.len() + state.reserved;
            if depth >= self.inner.cfg.queue_cap {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull {
                    retry_after_secs: retry_after_hint(
                        depth,
                        self.inner.cfg.workers.max(1),
                        state.mean_job_secs(),
                        self.inner.cfg.retry_after_secs,
                    ),
                });
            }
            state.reserved += 1;
            let id = format!("job-{:06}", state.next_id);
            state.next_id += 1;
            id
        };
        // Durable directory and spec before the submission is
        // acknowledged: a job the client was told about survives any
        // crash from here on.
        let dir = self.job_dir(&id);
        let write = create_dir_durable(&dir)
            .and_then(|()| write_atomic(&dir.join("spec.json"), &to_text(|w| spec.encode(w))));
        if let Err(e) = write {
            self.inner.state().reserved -= 1;
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
            let mut state = self.inner.state();
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

    /// The status document of one job (the `GET /jobs/:id` body), or
    /// `None` for an unknown id.
    pub fn status_text(&self, id: &str) -> Option<String> {
        let mut text = String::new();
        let mut w = JsonWriter::new(&mut text);
        self.view(id, &mut w)?;
        w.end_obj();
        Some(text)
    }

    /// [`Scheduler::status_text`] as a tree.
    pub fn status_json(&self, id: &str) -> Option<JsonValue> {
        let text = self.status_text(id)?;
        Some(to_tree(|w| w.raw(&text)))
    }

    /// One job as of one instant: its status document, written to `w`
    /// with the object left open — closed, it is the whole `GET
    /// /jobs/:id` body; the `202` and progress bodies append their
    /// members — and its phase and `202` head. Writes nothing for an
    /// unknown id.
    fn view(
        &self,
        id: &str,
        w: &mut JsonWriter<'_>,
    ) -> Option<(JobPhase, Option<Arc<PartialHead>>)> {
        let (phase, live) = {
            let state = self.inner.state();
            let rec = state.jobs.get(id)?;
            w.begin_obj();
            rec.write_status(id, w);
            let live = rec.live().map(|l| {
                l.spec.encode(w.field("spec"));
                l.partial.clone()
            });
            (rec.phase(), live)
        };
        // A finished job keeps no spec in memory; its echo is the
        // resolved document the spool holds, which recovery trusts too.
        if live.is_none() {
            match recover::spooled_spec(&self.job_dir(id)) {
                Some(spec) => spec.encode(w.field("spec")),
                None => w.field("spec").null(),
            }
        }
        Some((phase, live.flatten()))
    }

    /// The completed result document, served from `result.json` as it
    /// stands; `None` while the job is unknown or unfinished.
    pub fn result(&self, id: &str) -> Option<Body> {
        let completed = self.inner.state().jobs.get(id)?.phase() == JobPhase::Completed;
        completed.then(|| Body::file(&self.job_dir(id).join("result.json")).ok())?
    }

    /// Mean wall-clock duration of completed jobs, `None` before the
    /// first completion. This is the term the queue-full `Retry-After`
    /// hint scales with.
    pub fn mean_job_secs(&self) -> Option<f64> {
        self.inner.state().mean_job_secs()
    }

    /// Partial-progress document for a job that is not finished yet:
    /// the status fields plus a `partial` object carrying the cycle,
    /// epoch series and deliveries-so-far at the job's last durable
    /// checkpoint (`partial` is `null` before the first checkpoint, and
    /// when the stream is shorter than the checkpoint says). `None` for
    /// an unknown id.
    ///
    /// Nothing is parsed or read whole on this path: the head of
    /// `partial` was rendered when the checkpoint landed, and the
    /// deliveries are the stream's first `delivery_offset` lines, copied
    /// from the file a piece at a time as the body is written.
    pub fn partial(&self, id: &str) -> Option<Body> {
        let mut text = String::new();
        let mut w = JsonWriter::new(&mut text);
        let (_, head) = self.view(id, &mut w)?;
        // `partial` is the status document's last member.
        w.key("partial");
        let stream = |head: &PartialHead| {
            let len = head.stream_bytes?;
            let file = fs::File::open(self.job_dir(id).join("deliveries.jsonl")).ok()?;
            (file.metadata().ok()?.len() >= len).then_some((file, len))
        };
        Some(match head.as_deref().and_then(|h| Some((h, stream(h)?))) {
            Some((head, (file, len))) => {
                text.push_str(&head.open);
                Body::lines(text, file, len, head.delivery_offset, "]}}")
            }
            None => {
                w.null();
                w.end_obj();
                Body::from(text)
            }
        })
    }

    /// Live spatial-progress document (rendered) for a job: the status
    /// fields plus `as_of_cycle`, `heatmap` (the per-router counter
    /// grid), `imbalance` (the epoch series' load-imbalance values,
    /// pre-extracted for dashboards) and `epochs` (the epoch series).
    /// All four come from the last durable checkpoint while the job
    /// runs, and from the final report once it completes; they are
    /// `null` together before the first checkpoint or when the file does
    /// not decode. `None` for an unknown id.
    ///
    /// Both files are read straight from their text; no tree is built.
    pub fn progress_text(&self, id: &str) -> Option<String> {
        let mut body = String::new();
        let mut w = JsonWriter::new(&mut body);
        let (phase, _) = self.view(id, &mut w)?;
        let shown = progress_shown(&self.job_dir(id), phase);
        let (cycle, grid, series) = shown.map_or((None, None, None), |(c, g, s)| (Some(c), g, s));
        let imbalance: Option<Vec<f64>> = series
            .as_ref()
            .map(|series| series.samples.iter().map(|s| s.load_imbalance).collect());
        // The four are the status document's last members.
        cycle.encode(w.field("as_of_cycle"));
        grid.encode(w.field("heatmap"));
        imbalance.encode(w.field("imbalance"));
        series.encode(w.field("epochs"));
        w.end_obj();
        Some(body)
    }

    /// Prometheus text-format metrics. A metric is a counter exactly
    /// when its name ends in `_total`, the convention
    /// [`crate::validate_prometheus_text`] holds counters to.
    pub fn metrics_text(&self) -> String {
        let inner = &self.inner;
        let uptime = inner.started.elapsed().as_secs_f64();
        let completed = inner.completed.load(Ordering::Relaxed);
        let jobs_per_sec = if uptime > 0.0 {
            completed as f64 / uptime
        } else {
            0.0
        };
        // Per running job, labelled by its id.
        let per_job = |value: fn(&JobRecord) -> Option<f64>, state: &SchedState| {
            let jobs = state.jobs.iter();
            let running = jobs.filter(|(_, r)| r.phase() == JobPhase::Running);
            let samples = running.filter_map(|(id, r)| Some((id, value(r)?)));
            let samples = samples.map(|(id, v)| (format!("{{job=\"{id}\"}}"), format!("{v:.3}")));
            samples.collect::<Vec<_>>()
        };
        let (depth, running, job_rates, checkpoint_ages) = {
            let state = inner.state();
            let rates = per_job(JobRecord::cycles_per_sec, &state);
            let ages = per_job(JobRecord::checkpoint_age, &state);
            (state.queue.len(), state.running, rates, ages)
        };
        let one = |value: String| vec![(String::new(), value)];
        let count = |c: &AtomicU64| one(c.load(Ordering::Relaxed).to_string());
        let secs = |c: &AtomicU64| one(format!("{:.6}", c.load(Ordering::Relaxed) as f64 / 1e9));
        let families = [
            (
                "noc_service_queue_depth",
                "Jobs waiting for a worker.",
                one(depth.to_string()),
            ),
            (
                "noc_service_running_jobs",
                "Jobs currently being stepped.",
                one(running.to_string()),
            ),
            (
                "noc_service_uptime_seconds",
                "Seconds since the scheduler started.",
                one(format!("{uptime:.3}")),
            ),
            (
                "noc_service_jobs_per_second",
                "Completed jobs per second of uptime.",
                one(format!("{jobs_per_sec:.6}")),
            ),
            (
                "noc_service_jobs_submitted_total",
                "Jobs accepted.",
                count(&inner.submitted),
            ),
            (
                "noc_service_jobs_completed_total",
                "Jobs finished with a result.",
                count(&inner.completed),
            ),
            (
                "noc_service_jobs_failed_total",
                "Jobs that ended in error.",
                count(&inner.failed),
            ),
            (
                "noc_service_jobs_rejected_total",
                "Submissions rejected by backpressure.",
                count(&inner.rejected),
            ),
            (
                "noc_service_checkpoint_writes_total",
                "Checkpoints durably written to the spool.",
                count(&inner.checkpoint_writes),
            ),
            (
                "noc_service_checkpoints_skipped_total",
                "Checkpoint boundaries skipped because the spool was still writing.",
                count(&inner.checkpoints_skipped),
            ),
            (
                "noc_service_checkpoint_write_seconds_total",
                "Total time spent in atomic checkpoint writes.",
                secs(&inner.checkpoint_write_nanos),
            ),
            (
                "noc_service_spool_wait_seconds_total",
                "Total time workers spent blocked on their spool writers.",
                secs(&inner.spool_wait_nanos),
            ),
            (
                "noc_service_job_cycles_per_second",
                "Simulated cycles per second for each running job, measured since its worker \
                 picked it up.",
                job_rates,
            ),
            (
                "noc_service_checkpoint_age_seconds",
                "Seconds since a running job's last checkpoint hit the spool.",
                checkpoint_ages,
            ),
        ];
        let mut out = String::new();
        for (name, help, samples) in families {
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for (labels, value) in samples {
                out.push_str(&format!("{name}{labels} {value}\n"));
            }
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
        let workers = &self.inner.workers;
        let handles = std::mem::take(&mut *workers.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Block until every queued/running job has finished (test helper;
    /// returns `false` on timeout).
    pub fn drain(&self, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let state = self.inner.state();
            if state.queue.is_empty() && state.running == 0 {
                return true;
            }
            drop(state);
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
}

#[cfg(test)]
mod testkit;

#[cfg(test)]
mod tests {
    use super::commit::{spool_checkpoint, write_result};
    use super::testkit::{
        assert_progress_equals_reference, assert_served_equals_reference, busy_spec, scratch_spool,
        served_202, Played,
    };
    use super::worker::{finish_job, next_job, JobOutcome};
    use super::*;
    use crate::stream::JsonlStream;
    use noc_sim::DeliveryStream;
    use std::cell::{Cell, RefCell};

    /// The one `202` construction in production (head kept in memory,
    /// deliveries copied from the stream as the body is written) serves
    /// exactly the bytes, and the `Content-Length`, of the construction
    /// it replaced, at every state a poll can meet: the writer is
    /// played one step at a time, and every other checkpoint is left
    /// pending so that the boundary after it is skipped.
    #[test]
    fn served_202_equals_the_from_disk_reference_at_every_poll_point() {
        let spec = CampaignSpec {
            rate: 0.2,
            sample_every: 100,
            checkpoint_every: 150,
            ..CampaignSpec::default()
        };
        let job = Played::new("differential", spec.clone());
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
            let path = &job.checkpoint_path;
            spool_checkpoint(&sched.inner, id, path, &stream, checkpoint.unwrap()).unwrap();
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
        let report = job
            .run(&mut stream, |_| {
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

        // A stream cut short of the head's offset shows no `partial`, in
        // this daemon and in one restarted on the spool: a body is never
        // one the stream does not hold. Mended, it shows it again.
        let whole = fs::read(&job.stream_path).unwrap();
        let offset = job.published_offset().unwrap();
        let len = JsonlStream::prefix_len(&job.stream_path, offset).unwrap();
        fs::write(&job.stream_path, &whole[..len as usize - 1]).unwrap();
        let cut_restarted =
            Scheduler::recovered(ServiceConfig::new(&job.spool), ObsLog::disabled()).unwrap();
        for (sched, when) in [
            (sched, "cut short"),
            (&cut_restarted, "cut short, restarted"),
        ] {
            let body = assert_served_equals_reference(sched, id, when);
            assert!(body.ends_with(",\"partial\":null}"), "{when}: {body}");
        }
        fs::write(&job.stream_path, &whole).unwrap();
        let body = assert_served_equals_reference(sched, id, "mended");
        assert_eq!(partial_of(&body), partial_of(&last_body));

        // The job completes: its progress comes from its report, in
        // this daemon and in one restarted on the spool.
        let report = JsonValue::parse(&report).unwrap();
        write_result(&sched.job_dir(id), id, "completed", &spec, &|w| {
            report.encode(w)
        })
        .unwrap();
        let done = JobOutcome::Completed {
            written: 0,
            skipped: 0,
        };
        finish_job(&sched.inner, id, done, 0.0);
        let body = assert_progress_equals_reference(sched, id, "completed");
        assert!(body.contains("\"phase\":\"completed\""), "{body}");
        assert!(body.contains("\"load_imbalance\":"), "no epoch series");
        let restarted =
            Scheduler::recovered(ServiceConfig::new(&job.spool), ObsLog::disabled()).unwrap();
        assert_progress_equals_reference(&restarted, id, "completed, after a restart");
    }

    /// A checkpoint that does not decode shows no progress: the body is
    /// still served, its four progress members `null`.
    #[test]
    fn a_checkpoint_that_does_not_decode_shows_null_progress() {
        let job = Played::new("corrupt-progress", busy_spec());
        let mut stream = job.stream(|_| ());
        job.run(&mut stream, |_| assert!(job.commit())).unwrap();
        let (sched, id) = (&job.sched, job.id.as_str());
        let body = assert_progress_equals_reference(sched, id, "intact");
        assert!(!body.contains("\"heatmap\":null"), "{body}");
        let text = fs::read_to_string(&job.checkpoint_path).unwrap();
        for (case, corrupt) in [
            ("empty", ""),
            ("open brace", "{"),
            ("torn", &text[..text.len() / 2]),
            ("no members", "{}"),
        ] {
            fs::write(&job.checkpoint_path, corrupt).unwrap();
            let body = assert_progress_equals_reference(sched, id, case);
            assert!(body.ends_with(NULLS), "{case}: {body}");
        }
        // A well-formed document with a doctored grid nulls all four
        // too, where the tree walk still showed its cycle.
        let doctored = text.replacen("\"progress\":{\"width\"", "\"progress\":{\"wide\"", 1);
        assert_ne!(doctored, text);
        fs::write(&job.checkpoint_path, doctored).unwrap();
        let body = sched.progress_text(id).unwrap();
        assert!(body.ends_with(NULLS), "{body}");
    }

    /// The progress members of a body that shows no progress.
    const NULLS: &str =
        ",\"as_of_cycle\":null,\"heatmap\":null,\"imbalance\":null,\"epochs\":null}";

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

    /// A thread that panics while it holds the scheduler's state leaves
    /// the lock poisoned; every request after it still gets its answer,
    /// and a worker still gets the next job.
    #[test]
    fn a_poisoned_state_lock_still_answers() {
        let spool = scratch_spool("poisoned");
        let sched = Scheduler::recovered(ServiceConfig::new(&spool), ObsLog::disabled()).unwrap();
        let first = sched.submit(CampaignSpec::default()).unwrap();
        let inner = Arc::clone(&sched.inner);
        let poisoner = std::thread::spawn(move || {
            let _state = inner.state.lock().unwrap();
            panic!("poisons the scheduler's state on purpose");
        });
        assert!(poisoner.join().is_err());
        assert!(sched.inner.state.is_poisoned());

        let second = sched.submit(CampaignSpec::default()).unwrap();
        let status = sched.status_json(&first).unwrap();
        assert_eq!(status.get("phase").unwrap().as_str(), Some("queued"));
        let body = served_202(&sched, &second);
        assert!(body.ends_with(",\"partial\":null}"), "{body}");
        let metrics = sched.metrics_text();
        assert!(metrics.contains("noc_service_queue_depth 2\n"), "{metrics}");
        assert!(metrics.contains("noc_service_jobs_submitted_total 2\n"));
        assert_eq!(next_job(&sched.inner), Some(first));
        let _ = fs::remove_dir_all(&spool);
    }
}
