//! A job's spool writes: the commit its writer runs at each checkpoint
//! (I1, I2) and the result that supersedes the checkpoint (I3;
//! ARCHITECTURE.md §5.3 states the invariants), beside what the
//! progress endpoint reads back of them.

use super::{job::PartialHead, JobPhase, SchedInner};
use crate::fsio::write_atomic_with;
use crate::{spec::CampaignSpec, stream::JsonlStream};
use noc_sim::{Checkpoint, CheckpointHead, DeliveryStream};
use noc_telemetry::json::{IoText, JsonReader, JsonWriter};
use noc_telemetry::snapshot::{FromSnapshot, SnapshotError, SNAPSHOT_SCHEMA_VERSION};
use noc_telemetry::{SpatialGrid, TimeSeries};
use noc_types::DeliveredPacket;
use std::{fs, path::Path, sync::atomic::Ordering, time::Instant};

/// One commit, the unit of a job's writer: append the deliveries, then
/// spool the checkpoint that names them. The order is the stream's
/// crash guarantee (I1): a checkpoint is never in place before the
/// deliveries up to its `delivery_offset` are `sync_data`-durable.
/// The checkpoint arrives as the worker left it, a copy of the run at
/// its boundary: the writer, not the stepping thread, encodes it.
pub(super) fn commit(
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
    checkpoint.map_or(Ok(()), |c| spool_checkpoint(inner, id, path, stream, c))
}

/// Make one checkpoint of job `id` durable and, only once the directory
/// fsync behind the rename has returned (I2), publish it: progress and
/// the `202` head on the job's record, the counters, the log. The
/// checkpoint is encoded as text straight into the tmp file, through
/// the writer's fixed buffer ([`IoText`]): neither a document tree nor
/// the whole text is ever built. The head is derived from the
/// checkpoint's own cycle, offset and epochs, and from `stream`, which
/// holds the deliveries it names (and, at the end of a run, more).
pub(super) fn spool_checkpoint(
    inner: &SchedInner,
    id: &str,
    path: &Path,
    stream: &JsonlStream,
    checkpoint: Checkpoint,
) -> Result<(), String> {
    let named = stream.bytes_at(checkpoint.head().delivery_offset());
    let head = PartialHead::new(checkpoint.head(), named);
    let write_started = Instant::now();
    write_atomic_with(path, |file| {
        let mut text = IoText::new(file);
        checkpoint.write_document(&mut text);
        text.finish().map(drop)
    })
    .map_err(|e| format!("writing checkpoint: {e}"))?;
    // The copy goes as soon as it is spent.
    drop(checkpoint);
    let write = write_started.elapsed();
    inner.checkpoint_writes.fetch_add(1, Ordering::Relaxed);
    inner
        .checkpoint_write_nanos
        .fetch_add(write.as_nanos() as u64, Ordering::Relaxed);
    let cycle = head.cycle;
    if let Some(rec) = inner.state().jobs.get_mut(id) {
        rec.resumes_from(head, Some(Instant::now()));
    }
    inner.log.event(
        "job_checkpoint",
        &[
            ("job", id.into()),
            ("cycle", cycle.into()),
            ("write_secs", write.as_secs_f64().into()),
        ],
    );
    Ok(())
}

/// A job's last write: its result document, atomically, in `dir`,
/// encoded straight into the tmp file through the writer's fixed
/// buffer ([`IoText`]), its `report` member written by `report`. The
/// checkpoint is spent then and goes; the delivery stream stays — it
/// holds the campaign's full delivery log.
pub(super) fn write_result(
    dir: &Path,
    id: &str,
    outcome: &str,
    spec: &CampaignSpec,
    report: &dyn Fn(&mut JsonWriter<'_>),
) -> Result<(), String> {
    write_atomic_with(&dir.join("result.json"), |file| {
        let mut text = IoText::new(file);
        JsonWriter::new(&mut text).obj(|w| {
            w.field("schema_version").u64(SNAPSHOT_SCHEMA_VERSION);
            w.field("job").str(id);
            w.field("outcome").str(outcome);
            spec.encode(w.field("spec"));
            report(w.field("report"));
        });
        text.finish().map(drop)
    })
    .map_err(|e| format!("writing result: {e}"))?;
    let _ = fs::remove_file(dir.join("checkpoint.json"));
    Ok(())
}

/// What the spool in `dir` shows of a job's progress in `phase`: its
/// cycle, grid and epoch series, from the last durable checkpoint while
/// it runs and from its result once it completes; `None` when neither
/// file decodes. Each file is read whole: a checkpoint's size is the
/// network's, not the delivery stream's.
pub(super) fn progress_shown(
    dir: &Path,
    phase: JobPhase,
) -> Option<(u64, Option<SpatialGrid>, Option<TimeSeries>)> {
    let read = |name: &str| fs::read_to_string(dir.join(name)).ok();
    // A completed job's checkpoint is spent, even where a crash left
    // the file behind. A running job's result is read only in the
    // moment between its write, which removes the checkpoint, and the
    // job's booking as completed.
    let checkpoint = (phase != JobPhase::Completed)
        .then(|| read("checkpoint.json"))
        .flatten();
    match checkpoint.and_then(|text| CheckpointHead::with_grid(&text).ok()) {
        Some((head, grid)) => Some((head.cycle(), Some(grid), head.epoch_series().cloned())),
        None => read("result.json").and_then(|text| result_progress(&text).ok()),
    }
}

/// What a finished job's `result.json` shows a client: its report's
/// `cycles_run`, `spatial` grid and `epochs` series, read off the text;
/// the rest is checked for syntax only.
fn result_progress(
    text: &str,
) -> Result<(u64, Option<SpatialGrid>, Option<TimeSeries>), SnapshotError> {
    let mut r = JsonReader::new(text);
    r.begin_obj()?;
    r.seek("report")?.begin_obj()?;
    let cycle = r.seek("cycles_run")?.u64()?;
    let grid = Option::decode_member(r.seek("spatial")?, "spatial")?;
    let shown = (cycle, grid, r.field("epochs")?);
    r.skip_rest()?; // the report's
    r.skip_rest()?; // the document's
    r.end()?;
    Ok(shown)
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{
        assert_served_equals_reference, busy_spec, observable, scratch_spool, served_202, Played,
    };
    use super::super::worker::{finish_job, next_job, run_job, JobOutcome};
    use super::super::{Scheduler, ServiceConfig};
    use super::*;
    use crate::obs::ObsLog;
    use std::cell::{Cell, RefCell};

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
                    spool_checkpoint(&sched.inner, id, &job.checkpoint_path, &stream, checkpoint)
                        .unwrap();
                    job.mailbox.done(stream, Ok(true));
                    assert_ne!(observable(sched, id), *before.borrow(), "committed");
                }
                _ => assert!(ready, "the writer is idle"),
            }
        });
        let offsets = RefCell::new(Vec::new());
        job.run(&mut stream, |offset| {
            offsets.borrow_mut().push(offset);
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

    /// The deliveries past a run's last boundary join the batch of a
    /// checkpoint still pending, so one commit can append more than its
    /// checkpoint names: the `202` it publishes serves the checkpoint's
    /// prefix, not the stream's.
    #[test]
    fn a_commit_that_appends_past_its_checkpoint_serves_the_checkpoints_prefix() {
        let job = Played::new("past", busy_spec());
        let mut stream = job.stream(|_| ());
        // Only the first boundary finds the writer idle; it stays pending.
        let mut named = 0;
        job.run(&mut stream, |offset| named = offset).unwrap();
        drop(stream); // closes the mailbox, keeping the checkpoint
        assert!(job.commit_after(|on_disk, batch| {
            assert!(on_disk.len() + (batch.len() as u64) > named + 100);
        }));
        assert_eq!(job.published_offset(), Some(named));
        let (sched, id) = (&job.sched, job.id.as_str());
        let body = assert_served_equals_reference(sched, id, "appended past");
        assert!(body.contains(",\"deliveries\":[{"), "{body}");
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

    /// The stream's directory entry before its first checkpoint (I7):
    /// the worker opens a new stream without the directory fsync, and
    /// the writer's first commit does it before the rename — pinned by
    /// making that fsync fail (the spool directory is gone): the commit
    /// fails with it, not with the rename, and no checkpoint appears.
    #[test]
    fn a_new_streams_directory_fsync_is_the_writers_and_precedes_its_checkpoint() {
        let job = Played::new("settle", busy_spec());
        let mut stream = job.stream(|_| ());
        let settled = RefCell::new(Vec::new());
        job.run(&mut stream, |_| {
            assert!(job.commit_after(|on_disk, _| settled.borrow_mut().push(on_disk.is_settled())));
        })
        .unwrap();
        assert_eq!(
            settled.borrow()[..2],
            [false, true],
            "settled by the first commit"
        );
        assert!(job.checkpoint_path.exists());

        let job = Played::new("settle-fails", busy_spec());
        let dir = job.stream_path.parent().unwrap().to_path_buf();
        let moved = dir.with_extension("moved");
        let mut stream = job.stream(|_| ());
        let run = job.run(&mut stream, |_| {
            if dir.exists() {
                fs::rename(&dir, &moved).unwrap();
                assert!(job.commit());
            }
        });
        let heard = run.expect_err("the append at the next boundary reports the failure");
        let error = job.mailbox.outcome().unwrap_err();
        assert!(error.contains("stream: syncing spool directory"), "{error}");
        assert!(heard.to_string().contains(&error), "{heard}");
        assert!(
            !moved.join("checkpoint.json").exists(),
            "renamed before the fsync"
        );
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
        assert!(served_202(&sched, &id).ends_with("\"partial\":null}"));
        finish_job(&sched.inner, &id, JobOutcome::Failed(error.clone()), 0.0);
        let status = sched.status_json(&id).unwrap();
        assert_eq!(status.get("phase").unwrap().as_str(), Some("failed"));
        assert_eq!(status.get("error").unwrap().as_str(), Some(error.as_str()));
        let _ = fs::remove_dir_all(&spool);
    }
}
