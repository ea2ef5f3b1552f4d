//! What the scheduler's tests share: scratch spools, the from-disk
//! `202` and progress references, and [`Played`], a job whose worker and writer the
//! test plays itself.

use super::commit::commit;
use super::worker::next_job;
use super::{JobPhase, Scheduler, ServiceConfig};
use crate::obs::ObsLog;
use crate::spec::CampaignSpec;
use crate::stream::{JsonlStream, Mailbox, QueuedStream};
use noc_sim::{Checkpoint, DeliveryStream, MemoryStream, SimOutcome};
use noc_telemetry::json::{obj, JsonValue};
use noc_telemetry::snapshot::{Snapshot, SnapshotError};
use noc_types::DeliveredPacket;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// The name of a job whose body panics (the seam is in `run_job`).
pub(super) const PANICKING_JOB: &str = "panics in the job body";

pub(super) fn scratch_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-sched-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

pub(super) fn busy_spec() -> CampaignSpec {
    CampaignSpec {
        rate: 0.2,
        checkpoint_every: 150,
        ..CampaignSpec::default()
    }
}

/// A `202` body with the one field that reads the clock blanked, so
/// that two bodies built microseconds apart compare byte for byte.
pub(super) fn without_age(body: &str) -> String {
    const KEY: &str = "\"checkpoint_age_secs\":";
    let at = body.find(KEY).expect("status carries the age") + KEY.len();
    let len = body[at..].find(',').expect("age is not the last field");
    [&body[..at], &body[at + len..]].concat()
}

/// The `202` body built the way it was before [`PartialHead`]: the
/// spooled checkpoint re-read and re-parsed, every delivery line
/// parsed and rendered again. The reference [`Scheduler::partial`]
/// is compared with, byte for byte.
///
/// [`PartialHead`]: super::job::PartialHead
fn partial_json_from_disk(sched: &Scheduler, id: &str) -> Option<JsonValue> {
    let status = sched.status_json(id)?;
    let dir = sched.job_dir(id);
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

/// The progress body built the way it was before the reader: the
/// spooled checkpoint, or else the result, parsed into a tree and each
/// member looked up by name, a missing one `null`. The reference
/// [`Scheduler::progress_text`] is compared with, byte for byte.
fn progress_json_from_disk(sched: &Scheduler, id: &str) -> Option<JsonValue> {
    let status = sched.status_json(id)?;
    let phase = sched.inner.state().jobs[id].phase();
    let dir = sched.job_dir(id);
    let read_json = |name: &str| {
        let text = fs::read_to_string(dir.join(name)).ok()?;
        JsonValue::parse(&text).ok()
    };
    let field = |doc: &JsonValue, key: &str| doc.get(key).cloned().unwrap_or(JsonValue::Null);
    let checkpoint = (phase != JobPhase::Completed)
        .then(|| read_json("checkpoint.json"))
        .flatten();
    let (cycle, heatmap, series) = if let Some(doc) = checkpoint {
        let epochs = field(&doc, "epochs");
        (
            field(&doc, "cycle"),
            field(&doc, "progress"),
            field(&epochs, "series"),
        )
    } else if let Some(doc) = read_json("result.json") {
        let report = field(&doc, "report");
        (
            field(&report, "cycles_run"),
            field(&report, "spatial"),
            field(&report, "epochs"),
        )
    } else {
        (JsonValue::Null, JsonValue::Null, JsonValue::Null)
    };
    let samples = series.get("samples").and_then(JsonValue::as_array);
    let imbalance = samples.map_or(JsonValue::Null, |samples| {
        let of = |sample: &JsonValue| sample.get("load_imbalance").cloned();
        JsonValue::Arr(samples.iter().filter_map(of).collect())
    });
    let JsonValue::Obj(mut fields) = status else {
        return Some(status);
    };
    fields.extend([
        ("as_of_cycle".into(), cycle),
        ("heatmap".into(), heatmap),
        ("imbalance".into(), imbalance),
        ("epochs".into(), series),
    ]);
    Some(JsonValue::Obj(fields))
}

/// The `202` body as the HTTP path writes it, after checking that it
/// is as long as its `Content-Length` says.
pub(super) fn served_202(sched: &Scheduler, id: &str) -> String {
    let body = sched.partial(id).expect("job is known");
    let mut wire = Vec::new();
    body.write_to(&mut wire).expect("the body is written whole");
    assert_eq!(wire.len() as u64, body.content_length());
    String::from_utf8(wire).expect("the body is text")
}

/// The served `202` and progress bodies against their from-disk
/// references, byte for byte; the `202` body.
pub(super) fn assert_served_equals_reference(sched: &Scheduler, id: &str, when: &str) -> String {
    let served = served_202(sched, id);
    let reference = partial_json_from_disk(sched, id)
        .expect("job is known")
        .render();
    assert_eq!(without_age(&served), without_age(&reference), "{when}");
    assert_progress_equals_reference(sched, id, when);
    served
}

/// The served progress body against its from-disk reference, byte for
/// byte; the body.
pub(super) fn assert_progress_equals_reference(sched: &Scheduler, id: &str, when: &str) -> String {
    let served = sched.progress_text(id).expect("job is known");
    let reference = progress_json_from_disk(sched, id)
        .expect("job is known")
        .render();
    assert_eq!(
        without_age(&served),
        without_age(&reference),
        "progress {when}"
    );
    served
}

/// Everything a client or a scrape can see of a job's progress.
pub(super) fn observable(sched: &Scheduler, id: &str) -> (String, String, u64) {
    (
        without_age(&served_202(sched, id)),
        without_age(&sched.status_json(id).unwrap().render()),
        sched.inner.checkpoint_writes.load(Ordering::Relaxed),
    )
}

/// One `simulate` job on a scheduler that has no workers: the test
/// is the worker (it steps against [`Played::stream`]) and the
/// writer (it takes from the mailbox and commits), so every check
/// happens at a known point of the job.
pub(super) struct Played {
    pub(super) spool: PathBuf,
    pub(super) sched: Scheduler,
    pub(super) id: String,
    spec: CampaignSpec,
    pub(super) mailbox: Mailbox<Checkpoint>,
    pub(super) checkpoint_path: PathBuf,
    pub(super) stream_path: PathBuf,
    never_urgent: AtomicBool,
}

impl Played {
    pub(super) fn new(tag: &str, spec: CampaignSpec) -> Played {
        let spool = scratch_spool(tag);
        let sched = Scheduler::recovered(ServiceConfig::new(&spool), ObsLog::disabled()).unwrap();
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
    pub(super) fn stream<F: Fn(bool)>(&self, at_boundary: F) -> Overheard<'_, F> {
        Overheard {
            stream: self.mailbox.queued(&self.never_urgent),
            at_boundary,
        }
    }

    /// The worker: the whole run against `stream`, every checkpoint
    /// handed over as the job's worker hands it over, and then its
    /// `delivery_offset` shown to `handed_over`. Returns the rendered
    /// report.
    pub(super) fn run<F: Fn(bool)>(
        &self,
        stream: &mut Overheard<'_, F>,
        mut handed_over: impl FnMut(u64),
    ) -> Result<String, SnapshotError> {
        let sim = self.spec.simulator(self.spec.checkpoint_every).unwrap();
        let mut gen = self.spec.generator().unwrap();
        let (report, outcome) = sim.run_streamed(&mut gen, stream, None, |checkpoint| {
            let offset = checkpoint.head().delivery_offset();
            self.mailbox.hand_over(checkpoint);
            handed_over(offset);
            true
        })?;
        assert_ne!(outcome, SimOutcome::Interrupted);
        Ok(report.to_json().render())
    }

    /// The writer, one whole commit; `false` when there is none.
    pub(super) fn commit(&self) -> bool {
        self.commit_after(|_, _| ())
    }

    /// [`Played::commit`], with a look at what the writer took:
    /// the stream as it stands on disk, and the batch.
    pub(super) fn commit_after(&self, look: impl FnOnce(&JsonlStream, &[DeliveredPacket])) -> bool {
        let Some((mut stream, batch, checkpoint)) = self.mailbox.take() else {
            return false;
        };
        look(&stream, &batch);
        let checkpointed = checkpoint.is_some();
        let document = checkpoint.as_ref().map(|c| c.document().render());
        let result = commit(
            &self.sched.inner,
            &self.id,
            &self.checkpoint_path,
            &mut stream,
            &batch,
            checkpoint,
        );
        // The file the commit wrote is the checkpoint's document.
        if let (Ok(()), Some(document)) = (&result, document) {
            assert!(fs::read_to_string(&self.checkpoint_path).unwrap() == document);
        }
        self.mailbox.done(stream, result.map(|()| checkpointed));
        true
    }

    /// What an uninterrupted run outside the service reports and
    /// streams, the stream as `deliveries.jsonl` would hold it.
    pub(super) fn reference(&self) -> (String, String) {
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
    pub(super) fn published_offset(&self) -> Option<u64> {
        let state = self.sched.inner.state();
        Some(
            state.jobs[&self.id]
                .live()?
                .partial
                .as_ref()?
                .delivery_offset,
        )
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
pub(super) struct Overheard<'a, F> {
    stream: QueuedStream<'a, Checkpoint>,
    at_boundary: F,
}

impl<F: Fn(bool)> DeliveryStream for Overheard<'_, F> {
    fn append(&mut self, batch: &[DeliveredPacket]) -> Result<(), SnapshotError> {
        self.stream.append(batch)
    }
    fn append_vec(&mut self, batch: &mut Vec<DeliveredPacket>) -> Result<(), SnapshotError> {
        self.stream.append_vec(batch)
    }
    fn ready(&self) -> bool {
        let ready = self.stream.ready();
        (self.at_boundary)(ready);
        ready
    }
    fn len(&self) -> u64 {
        self.stream.len()
    }
    fn truncate(
        &mut self,
        offset: u64,
        fold: &mut dyn FnMut(&DeliveredPacket),
    ) -> Result<(), SnapshotError> {
        self.stream.truncate(offset, fold)
    }
}
