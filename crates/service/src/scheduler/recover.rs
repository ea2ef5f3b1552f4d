//! Recovery on startup: rebuild the job table from the spool.

use super::job::{JobRecord, PartialHead};
use super::Scheduler;
use crate::{spec::CampaignSpec, stream::JsonlStream};
use noc_sim::CheckpointHead;
use std::{fs, path::Path};

/// The spec spooled in job directory `dir`, if it is there and reads.
/// Recovery trusts it, and a finished job's status echoes it.
pub(super) fn spooled_spec(dir: &Path) -> Option<CampaignSpec> {
    let text = fs::read_to_string(dir.join("spec.json")).ok()?;
    CampaignSpec::from_text(&text).ok()
}

impl Scheduler {
    /// Scan the spool for jobs that were submitted but never finished
    /// and re-queue them (recovery after a crash or SIGKILL).
    pub(super) fn recover(&self) -> std::io::Result<()> {
        let mut ids: Vec<String> = Vec::new();
        for entry in fs::read_dir(&self.inner.cfg.spool)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                ids.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        ids.sort();
        let mut state = self.inner.state();
        for id in ids {
            let dir = self.job_dir(&id);
            // Keep the id counter ahead of everything already spooled.
            if let Some(n) = id.strip_prefix("job-").and_then(|s| s.parse::<u64>().ok()) {
                state.next_id = state.next_id.max(n + 1);
            }
            let Some(spec) = spooled_spec(&dir) else {
                continue; // torn submission: no durable spec, nothing to run
            };
            let mut rec = JobRecord::queued(spec);
            if dir.join("result.json").exists() {
                // A crash may have left the spent checkpoint behind.
                let _ = fs::remove_file(dir.join("checkpoint.json"));
                rec.completed();
            } else if dir.join("error.txt").exists() {
                rec.failed(fs::read_to_string(dir.join("error.txt")).ok());
            } else {
                // An unfinished job shows a client its last durable
                // checkpoint from the first poll on (if it has one),
                // with the length of the stream prefix it names,
                // measured once here.
                let checkpoint = fs::read_to_string(dir.join("checkpoint.json"));
                if let Some(head) = checkpoint.ok().and_then(|t| CheckpointHead::of(&t).ok()) {
                    let stream = dir.join("deliveries.jsonl");
                    let bytes = JsonlStream::prefix_len(&stream, head.delivery_offset());
                    rec.resumes_from(PartialHead::new(&head, bytes), None);
                }
                self.inner.log.event(
                    "job_recovered",
                    &[("job", id.as_str().into()), ("phase", "queued".into())],
                );
                state.queue.push_back(id.clone());
            }
            state.jobs.insert(id, rec);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::commit::write_result;
    use super::super::testkit::{busy_spec, served_202, Played};
    use super::super::worker::{finish_job, JobOutcome};
    use super::super::ServiceConfig;
    use super::*;
    use crate::obs::ObsLog;
    use noc_telemetry::json::JsonValue;

    /// A restart shows a job with a durable checkpoint as far along as
    /// that checkpoint, in its status and its `202` alike, before any
    /// worker has picked it up.
    #[test]
    fn a_recovered_job_reports_its_checkpoint_cycle_before_a_worker_runs_it() {
        let job = Played::new("recovered-cycles", busy_spec());
        let mut stream = job.stream(|_| ());
        job.run(&mut stream, |_| assert!(job.commit())).unwrap();
        // A SIGKILL here leaves the last checkpoint and no result.
        let restarted =
            Scheduler::recovered(ServiceConfig::new(&job.spool), ObsLog::disabled()).unwrap();
        let status = restarted.status_json(&job.id).unwrap();
        let body = JsonValue::parse(&served_202(&restarted, &job.id)).unwrap();
        let cycle = body.get("partial").and_then(|p| p.get("cycle"));
        let cycle = cycle.and_then(JsonValue::as_u64).unwrap();
        assert!(cycle > 0);
        assert_eq!(status.get("phase").unwrap().as_str(), Some("queued"));
        assert_eq!(status.get("cycles_done").unwrap().as_u64(), Some(cycle));
        let total = status.get("total_cycles").unwrap().as_u64().unwrap();
        let progress = status.get("progress").unwrap().as_f64();
        assert_eq!(progress, Some(cycle as f64 / total as f64));
    }

    /// A crash between the result's write and the checkpoint's removal
    /// leaves the spent checkpoint in the spool. The completed job's
    /// progress comes from its report all the same, before a restart
    /// and after it, and the restart removes the spent checkpoint.
    #[test]
    fn a_completed_jobs_progress_comes_from_its_report_past_a_stale_checkpoint() {
        let job = Played::new("stale-checkpoint", busy_spec());
        let mut stream = job.stream(|_| ());
        let mut stale = None;
        let report = job
            .run(&mut stream, |_| {
                assert!(job.commit());
                stale.get_or_insert_with(|| fs::read_to_string(&job.checkpoint_path).unwrap());
            })
            .unwrap();
        let report = JsonValue::parse(&report).unwrap();
        let dir = job.sched.job_dir(&job.id);
        write_result(&dir, &job.id, "completed", &busy_spec(), &|w| {
            report.encode(w)
        })
        .unwrap();
        let stale = stale.expect("a checkpoint was committed");
        fs::write(&job.checkpoint_path, &stale).unwrap();
        let stale_cycle = JsonValue::parse(&stale).unwrap().get("cycle").cloned();
        assert_ne!(stale_cycle.as_ref(), report.get("cycles_run"));
        let done = JobOutcome::Completed {
            written: 0,
            skipped: 0,
        };
        finish_job(&job.sched.inner, &job.id, done, 0.0);
        let from_report = |sched: &Scheduler| {
            let progress = JsonValue::parse(&sched.progress_text(&job.id).unwrap()).unwrap();
            assert_eq!(progress.get("phase").unwrap().as_str(), Some("completed"));
            assert_eq!(progress.get("as_of_cycle"), report.get("cycles_run"));
            assert_eq!(progress.get("heatmap"), report.get("spatial"));
            assert_eq!(progress.get("epochs"), report.get("epochs"));
        };
        from_report(&job.sched);
        let restarted =
            Scheduler::recovered(ServiceConfig::new(&job.spool), ObsLog::disabled()).unwrap();
        assert!(!job.checkpoint_path.exists(), "recovery removes it");
        from_report(&restarted);
    }
}
