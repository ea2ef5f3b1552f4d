//! The worker threads: take the next queued job, run it, book how it
//! ended. A running `simulate` job adds its writer thread (the
//! [`commit`] side of a [`Mailbox`]).

use super::commit::{commit, write_result};
use super::{job::JobRecord, SchedInner};
use crate::stream::{panic_message, JsonlStream, Mailbox};
use crate::{fsio::write_atomic, spec::CampaignSpec};
use noc_sim::SimOutcome;
use std::sync::{atomic::Ordering, Arc, PoisonError};
use std::{fs, path::Path, time::Instant};

pub(super) fn worker_loop(inner: &Arc<SchedInner>) {
    while let Some(id) = next_job(inner) {
        inner
            .log
            .event("job_started", &[("job", id.as_str().into())]);
        let started = Instant::now();
        let outcome = run_job(inner, &id);
        finish_job(inner, &id, outcome, started.elapsed().as_secs_f64());
    }
}

/// Block until a job is queued and mark it running; `None` once a
/// shutdown is requested.
pub(super) fn next_job(inner: &SchedInner) -> Option<String> {
    let mut state = inner.state();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(id) = state.queue.pop_front() {
            state.running += 1;
            if let Some(rec) = state.jobs.get_mut(&id) {
                rec.started();
            }
            return Some(id);
        }
        state = inner
            .work
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Book the end of a run that took `elapsed` seconds: counters, log and
/// the job's record, which shrinks if the job has ended for good.
pub(super) fn finish_job(inner: &SchedInner, id: &str, outcome: JobOutcome, elapsed: f64) {
    let mut state = inner.state();
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
            let cycles = rec.completed();
            inner.completed.fetch_add(1, Ordering::Relaxed);
            inner.log.event(
                "job_completed",
                &[
                    ("job", id.into()),
                    ("cycles", cycles.into()),
                    ("secs", elapsed.into()),
                    ("checkpoints_written", written.into()),
                    ("checkpoints_skipped", skipped.into()),
                ],
            );
        }
        JobOutcome::Interrupted => {
            let cycles = rec.interrupted();
            inner.log.event(
                "job_interrupted",
                &[("job", id.into()), ("cycles", cycles.into())],
            );
        }
        JobOutcome::Failed(e) => {
            inner.log.event(
                "job_failed",
                &[("job", id.into()), ("error", e.as_str().into())],
            );
            rec.failed(Some(e));
            inner.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

pub(super) enum JobOutcome {
    /// With the checkpoints the run wrote and the boundaries it skipped.
    Completed {
        written: u64,
        skipped: u64,
    },
    Interrupted,
    Failed(String),
}

/// Execute one job end to end. A job that cannot go on, or panics, has
/// failed for good, and `error.txt` says why; its worker takes the next.
pub(super) fn run_job(inner: &SchedInner, id: &str) -> JobOutcome {
    let live = |rec: &JobRecord| Some(rec.live()?.spec.clone());
    let Some(spec) = inner.state().jobs.get(id).and_then(live) else {
        return JobOutcome::Failed("job record vanished".into());
    };
    let dir = inner.cfg.spool.join(id);
    let run = std::panic::AssertUnwindSafe(|| match spec.kind.as_str() {
        "fault_campaign" => run_campaign_job(inner, id, &dir, &spec),
        _ => run_simulate_job(inner, id, &dir, &spec),
    });
    let run = std::panic::catch_unwind(run)
        .unwrap_or_else(|panic| Err(format!("job panicked: {}", panic_message(&*panic))));
    run.unwrap_or_else(|e| {
        // Spooled, so that recovery does not retry the job forever.
        let _ = write_atomic(&dir.join("error.txt"), &e);
        JobOutcome::Failed(e)
    })
}

/// Execute a `simulate` job: resume from the spooled checkpoint when
/// present, checkpoint periodically through the job's writer, and
/// persist the result atomically.
fn run_simulate_job(
    inner: &SchedInner,
    id: &str,
    dir: &Path,
    spec: &CampaignSpec,
) -> Result<JobOutcome, String> {
    let every = match spec.checkpoint_every {
        0 => inner.cfg.default_checkpoint_every,
        every => every,
    };
    let sim = spec.simulator(every)?;
    let mut gen = spec.generator()?;
    // Recovery has already shown this checkpoint on the job's record.
    let checkpoint_path = dir.join("checkpoint.json");
    // Decoded straight from its text by the resume, and refused there
    // before the stream is touched.
    let resume = fs::read_to_string(&checkpoint_path).ok();
    let stream = JsonlStream::open(dir.join("deliveries.jsonl"))
        .map_err(|e| format!("opening delivery stream: {e}"))?;
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
        if spec.name == super::testkit::PANICKING_JOB {
            panic!("injected into the job body");
        }
        // The worker leaves a copy of the run at the boundary and steps
        // on; the writer encodes its document.
        let run = sim.run_streamed(&mut gen, &mut stream, resume.as_deref(), |checkpoint| {
            mailbox.hand_over(checkpoint);
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
        Ok::<_, String>(run)
    })?;
    // A failed commit fails the job, whatever the run made of it (I5).
    let (written, skipped) = mailbox.outcome()?;
    inner
        .checkpoints_skipped
        .fetch_add(skipped, Ordering::Relaxed);
    let (report, outcome) = match run.map_err(|e| e.to_string())? {
        (_, SimOutcome::Interrupted) => return Ok(JobOutcome::Interrupted),
        (report, SimOutcome::Completed) => (report, "completed"),
        (report, SimOutcome::DrainedEarly) => (report, "drained_early"),
        (report, SimOutcome::DeadlockSuspected) => (report, "deadlock_suspected"),
    };
    write_result(dir, id, outcome, spec, &|w| report.encode(w))?;
    Ok(JobOutcome::Completed { written, skipped })
}

/// Execute a `fault_campaign` job. Campaigns are thousands of short
/// independent runs rather than one long one, so they neither
/// checkpoint nor resume: an interrupted campaign simply restarts from
/// its (deterministic) seed on the next daemon start.
fn run_campaign_job(
    inner: &SchedInner,
    id: &str,
    dir: &Path,
    spec: &CampaignSpec,
) -> Result<JobOutcome, String> {
    let cc = spec.campaign_config()?;
    inner.log.event(
        "campaign_started",
        &[
            ("job", id.into()),
            ("scenarios", u64::from(cc.scenarios_per_point).into()),
            ("max_faults", u64::from(cc.max_faults).into()),
        ],
    );
    let run = noc_campaign::run_campaign(&cc)?;
    write_result(dir, id, "completed", spec, &|w| {
        noc_campaign::encode_report(&run, w)
    })?;
    inner.log.event(
        "campaign_completed",
        &[
            ("job", id.into()),
            ("scenarios_per_sec", run.scenarios_per_sec.into()),
        ],
    );
    Ok(JobOutcome::Completed {
        written: 0,
        skipped: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{scratch_spool, PANICKING_JOB};
    use super::super::{Scheduler, ServiceConfig};
    use super::*;

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
}
