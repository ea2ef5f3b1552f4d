//! What the scheduler knows of one job. The record's fields are private:
//! a job's phase, progress and `202` head change only through the
//! methods below, one per event of its life.

use super::JobPhase;
use crate::spec::CampaignSpec;
use noc_sim::CheckpointHead;
use noc_telemetry::json::{obj, JsonSink, JsonValue, JsonWriter};
use noc_telemetry::Snapshot;
use std::sync::Arc;
use std::time::Instant;

/// What the scheduler keeps of a job for as long as the daemon lives:
/// the fields of its status document. Everything else is [`LiveJob`].
pub(super) struct JobRecord {
    /// The spec's `name` and `total_cycles()`.
    name: String,
    total_cycles: u64,
    phase: JobPhase,
    error: Option<String>,
    /// Cycles completed as of the checkpoint the job shows (or its
    /// completion). Written by [`JobRecord::resumes_from`] and
    /// [`JobRecord::completed`] only.
    cycles_done: u64,
    /// `None` once the job is `Completed` or `Failed`: a daemon's
    /// finished jobs are never dropped, so each must stay small.
    live: Option<Box<LiveJob>>,
}

/// What only a job that can still run needs. Other modules read it
/// through [`JobRecord::live`]; only this one can change it.
pub(super) struct LiveJob {
    pub(super) spec: CampaignSpec,
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
    pub(super) partial: Option<Arc<PartialHead>>,
}

impl JobRecord {
    /// A submitted (or recovered) job waiting for a worker.
    pub(super) fn queued(spec: CampaignSpec) -> JobRecord {
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

    /// `head`'s checkpoint is durable, so the job's next run resumes
    /// there and the job shows it: its cycle is `cycles_done`, and it is
    /// the `202` head. `published` is when a commit made it durable (I2);
    /// recovery passes `None` for the checkpoint it finds on disk. This
    /// is the one place progress moves before completion.
    pub(super) fn resumes_from(&mut self, head: PartialHead, published: Option<Instant>) {
        self.cycles_done = head.cycle;
        if let Some(live) = &mut self.live {
            live.partial = Some(Arc::new(head));
            live.checkpointed = published;
        }
    }

    /// A worker picked the job up.
    pub(super) fn started(&mut self) {
        self.phase = JobPhase::Running;
        if let Some(live) = &mut self.live {
            live.started = Some(Instant::now());
            live.cycles_at_start = self.cycles_done;
        }
    }

    /// The run stopped at a durable checkpoint; the job is back in the
    /// durable queue and the next start resumes it. Returns the cycles
    /// done, for the log.
    pub(super) fn interrupted(&mut self) -> u64 {
        self.phase = JobPhase::Queued;
        if let Some(live) = &mut self.live {
            live.started = None;
        }
        self.cycles_done
    }

    /// `result.json` is on disk. The job has ended for good, and its
    /// record shrinks to its status fields. Returns the cycles done.
    pub(super) fn completed(&mut self) -> u64 {
        self.cycles_done = self.total_cycles;
        self.phase = JobPhase::Completed;
        self.live = None;
        self.cycles_done
    }

    /// `error.txt` is on disk and says `error`; the record shrinks too.
    pub(super) fn failed(&mut self, error: Option<String>) {
        self.error = error;
        self.phase = JobPhase::Failed;
        self.live = None;
    }

    pub(super) fn phase(&self) -> JobPhase {
        self.phase
    }

    /// The spec and `202` head, while the job can still run.
    pub(super) fn live(&self) -> Option<&LiveJob> {
        self.live.as_deref()
    }

    /// Seconds since the last checkpoint hit the spool in this daemon's
    /// life.
    pub(super) fn checkpoint_age(&self) -> Option<f64> {
        let at = self.live.as_ref()?.checkpointed?;
        Some(at.elapsed().as_secs_f64())
    }

    /// Simulated cycles per wall-clock second since the worker picked
    /// the job up, measured from the resume point so a recovered job's
    /// checkpoint head start does not inflate it.
    pub(super) fn cycles_per_sec(&self) -> Option<f64> {
        let live = self.live.as_ref()?;
        let secs = live.started?.elapsed().as_secs_f64();
        let cycles = self.cycles_done.saturating_sub(live.cycles_at_start);
        (secs > 0.0).then(|| cycles as f64 / secs)
    }

    /// The job's status document up to its closing `spec` echo.
    pub(super) fn status(&self, id: &str) -> JsonValue {
        let total = self.total_cycles;
        // A job of no cycles has done none: its progress reads 0.
        let progress = (self.cycles_done as f64 / total.max(1) as f64).min(1.0);
        let age = self.checkpoint_age().map_or(JsonValue::Null, Into::into);
        let error = self.error.clone().map_or(JsonValue::Null, Into::into);
        obj([
            ("id", id.into()),
            ("name", self.name.clone().into()),
            ("phase", self.phase.tag().into()),
            ("cycles_done", self.cycles_done.into()),
            ("total_cycles", total.into()),
            ("progress", progress.into()),
            ("checkpoint_age_secs", age),
            ("error", error),
        ])
    }
}

/// The client-facing part of one durable checkpoint, rendered once when
/// the checkpoint lands so that a `202` neither re-reads nor re-parses
/// `checkpoint.json`. It holds the cycle, the stream offset and the
/// epoch series, never the deliveries: those are spliced from
/// `deliveries.jsonl` per request, so nothing that grows with the
/// job's length stays in memory.
pub(super) struct PartialHead {
    /// The `partial` object up to and including the `[` that opens its
    /// `deliveries` array.
    pub(super) open: String,
    /// The next cycle to run.
    pub(super) cycle: u64,
    /// Leading entries of the delivery stream the checkpoint vouches for.
    pub(super) delivery_offset: u64,
}

impl PartialHead {
    /// The `partial` head of a checkpoint's `head`. The one
    /// constructor: a commit passes the head of the checkpoint it
    /// writes, recovery the head read off the spooled file.
    pub(super) fn new(head: &CheckpointHead) -> PartialHead {
        let (cycle, delivery_offset) = (head.cycle(), head.delivery_offset());
        let mut open = String::new();
        let mut w = JsonWriter::new(&mut open);
        w.begin_obj();
        w.field("cycle").u64(cycle);
        w.field("delivery_offset").u64(delivery_offset);
        head.epoch_series().encode(w.field("epochs"));
        w.field("deliveries").begin_arr();
        PartialHead {
            open,
            cycle,
            delivery_offset,
        }
    }
}

/// The epoch series inside a checkpoint: the client-facing time series.
/// The sampler counters around it are resume internals.
pub(super) fn epoch_series(checkpoint: &JsonValue) -> JsonValue {
    checkpoint
        .get("epochs")
        .and_then(|ep| ep.get("series"))
        .cloned()
        .unwrap_or(JsonValue::Null)
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{busy_spec, scratch_spool, without_age, Played};
    use super::super::worker::{finish_job, next_job, run_job, JobOutcome};
    use super::super::{Scheduler, ServiceConfig};
    use super::*;
    use crate::obs::ObsLog;
    use std::fs;

    /// The head is a copy of `checkpoint.json` and goes when it goes:
    /// it exists once a checkpoint is committed, and the finished job's
    /// record holds none.
    #[test]
    fn completed_jobs_hold_no_partial_head() {
        let job = Played::new("heads", busy_spec());
        let mut stream = job.stream(|_| ());
        job.run(&mut stream, |offset| {
            assert!(job.commit());
            assert_eq!(job.published_offset(), Some(offset));
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
}
