//! The durable delivery stream: `spool/<id>/deliveries.jsonl`.
//!
//! One JSON object per line, in delivery order, each the
//! [`noc_telemetry::snapshot::Snapshot`] encoding of a
//! [`DeliveredPacket`], written as text by its one encoder
//! ([`Snapshot::write_json`]), no tree between. A batch is appended
//! (fsynced) at every
//! checkpoint boundary taken, *before* the checkpoint document that
//! references the new offset is written, so after any crash the stream
//! is at least as long as the latest durable checkpoint's
//! `delivery_offset`; the tail past that offset — appends whose
//! checkpoint never landed — is truncated away on resume and
//! re-created identically by deterministic re-execution
//! (ARCHITECTURE.md §5.1).
//!
//! A kill mid-append can also leave a *torn last line* (no trailing
//! newline); [`JsonlStream::open`] repairs it by cutting the file back
//! to the last complete line, which is always safe for the same
//! reason: a torn append's checkpoint was never written.
//!
//! Every read of the file — `open` counting its lines, `truncate`
//! replaying its prefix, recovery measuring a checkpoint's prefix, a
//! `202` copying it to the socket — goes a chunk or a line at a time, so
//! neither a resume nor a poll holds more than a piece of the log.
//!
//! A running job does not append on its stepping thread: it steps
//! against a `QueuedStream`, which leaves each batch in a `Mailbox`
//! for the job's writer thread to append (ARCHITECTURE.md §5.3).

use noc_sim::DeliveryStream;
use noc_telemetry::snapshot::{FromSnapshot, Snapshot, SnapshotError};
use noc_types::DeliveredPacket;
use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

fn io_err(context: &str, e: std::io::Error) -> SnapshotError {
    SnapshotError::new(format!("{context}: {e}"))
}

/// A [`DeliveryStream`] spooled to a JSON-lines file, fsynced per
/// append so the checkpoint offsets that reference it stay honest.
pub struct JsonlStream {
    path: PathBuf,
    entries: u64,
    /// The bytes the `entries` lines take, newlines included.
    bytes: u64,
    /// `open` created the file and its directory entry is not yet
    /// durable: the first append fsyncs the directory first.
    unsettled: bool,
}

/// The chunk `open` counts lines in.
const READ_CHUNK: usize = 64 << 10;

impl JsonlStream {
    /// Open (or create) the stream at `path`, repairing a torn final
    /// line left by a crash mid-append. The file is read a chunk at a
    /// time. A stream this call creates is not yet durable as a
    /// directory entry: the first append fsyncs the directory first, so
    /// the thread that appends pays for it, not the one that opens.
    pub fn open(path: impl Into<PathBuf>) -> Result<JsonlStream, SnapshotError> {
        let path = path.into();
        let (entries, bytes, unsettled) = match fs::File::open(&path) {
            Ok(f) => {
                let (complete, valid_len, len) =
                    scan_lines(f, u64::MAX).map_err(|e| io_err("reading stream", e))?;
                if valid_len != len {
                    let f = fs::OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(|e| io_err("opening stream for repair", e))?;
                    f.set_len(valid_len)
                        .map_err(|e| io_err("repairing torn stream tail", e))?;
                    f.sync_all()
                        .map_err(|e| io_err("syncing repaired stream", e))?;
                }
                (complete, valid_len, false)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                fs::File::create(&path).map_err(|e| io_err("creating stream", e))?;
                (0, 0, true)
            }
            Err(e) => return Err(io_err("reading stream", e)),
        };
        Ok(JsonlStream {
            path,
            entries,
            bytes,
            unsettled,
        })
    }

    /// The bytes the stream's first `offset` entries take on disk,
    /// newlines included: the length of the prefix a checkpoint at
    /// `offset` names. Counted by the appends when the entries are all
    /// of the stream; else read off the file ([`JsonlStream::prefix_len`]),
    /// as when a run's last deliveries join the batch of a checkpoint
    /// still pending, and one commit appends past its checkpoint.
    pub(crate) fn bytes_at(&self, offset: u64) -> Option<u64> {
        match offset == self.entries {
            true => Some(self.bytes),
            false => Self::prefix_len(&self.path, offset),
        }
    }

    /// The bytes the first `offset` entries of the stream at `path` take,
    /// newlines included, read a chunk at a time; `None` when the file is
    /// missing or holds fewer complete lines. What recovery records for
    /// a checkpoint it finds.
    pub(crate) fn prefix_len(path: &Path, offset: u64) -> Option<u64> {
        let (lines, len, _) = scan_lines(fs::File::open(path).ok()?, offset).ok()?;
        (lines == offset).then_some(len)
    }

    /// Make a stream [`JsonlStream::open`] created durable as a
    /// directory entry (fsync the spool directory); a no-op after the
    /// first call and on a stream that already existed. Every append
    /// calls it first, so no checkpoint naming the stream is written
    /// before it (I7, ARCHITECTURE.md §5.3).
    pub(crate) fn settle(&mut self) -> Result<(), SnapshotError> {
        if self.unsettled {
            crate::fsio::fsync_parent_dir(&self.path)
                .map_err(|e| io_err("syncing spool directory", e))?;
            self.unsettled = false;
        }
        Ok(())
    }

    /// Whether the stream's directory entry is durable (see
    /// [`JsonlStream::settle`]).
    #[cfg(test)]
    pub(crate) fn is_settled(&self) -> bool {
        !self.unsettled
    }

    /// The file this stream spools to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read `f` a chunk at a time up to its `limit`-th newline (or its
/// end): the complete lines seen, the bytes up to the last of them, and
/// the bytes read.
fn scan_lines(mut f: fs::File, limit: u64) -> std::io::Result<(u64, u64, u64)> {
    let (mut lines, mut valid_len, mut len) = (0u64, 0u64, 0u64);
    let mut chunk = vec![0u8; READ_CHUNK];
    while lines < limit {
        let n = match f.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let ends = chunk[..n].iter().enumerate().filter(|(_, &b)| b == b'\n');
        for (i, _) in ends.take((limit - lines).try_into().unwrap_or(usize::MAX)) {
            lines += 1;
            valid_len = len + i as u64 + 1;
        }
        len += n as u64;
    }
    Ok((lines, valid_len, len))
}

impl DeliveryStream for JsonlStream {
    fn append(&mut self, batch: &[DeliveredPacket]) -> Result<(), SnapshotError> {
        self.settle()?;
        if batch.is_empty() {
            return Ok(());
        }
        let f = fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err("opening stream for append", e))?;
        // Line by line through a small buffer: a batch rendered whole
        // into one `String` first is a peak the daemon's resident set
        // keeps (+14 % measured).
        let mut out = BufWriter::with_capacity(16 << 10, f);
        let mut line = String::new();
        let mut bytes = 0;
        for d in batch {
            line.clear();
            d.write_json(&mut line);
            line.push('\n');
            out.write_all(line.as_bytes())
                .map_err(|e| io_err("appending to stream", e))?;
            bytes += line.len() as u64;
        }
        let f = out
            .into_inner()
            .map_err(|e| io_err("appending to stream", e.into_error()))?;
        f.sync_data().map_err(|e| io_err("syncing stream", e))?;
        self.entries += batch.len() as u64;
        self.bytes += bytes;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.entries
    }

    fn truncate(
        &mut self,
        offset: u64,
        fold: &mut dyn FnMut(&DeliveredPacket),
    ) -> Result<(), SnapshotError> {
        if offset > self.entries {
            return Err(SnapshotError::new(format!(
                "delivery stream {} holds {} entries but the checkpoint references offset {offset}",
                self.path.display(),
                self.entries
            )));
        }
        if offset == 0 && self.entries == 0 {
            return Ok(());
        }
        // One line at a time: the prefix is folded as it is read, and
        // only the current line is held.
        let f = fs::File::open(&self.path).map_err(|e| io_err("reading stream", e))?;
        let mut reader = BufReader::with_capacity(READ_CHUNK, f);
        let mut line = String::new();
        let (mut kept, mut byte_end) = (0u64, 0u64);
        while kept < offset {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| io_err("reading stream", e))?;
            if !line.ends_with('\n') {
                break; // the end, or a torn tail: not a complete entry
            }
            let d = DeliveredPacket::from_text(line.trim_end())
                .map_err(|e| e.within(&format!("stream line {kept}")))?;
            fold(&d);
            kept += 1;
            byte_end += n as u64;
        }
        if kept < offset {
            return Err(SnapshotError::new(format!(
                "delivery stream {} ends after {kept} complete entries, checkpoint wants {offset}",
                self.path.display(),
            )));
        }
        // With `offset == entries` there is nothing to cut: `open` left
        // the file exactly its complete lines, and every append since
        // was whole.
        if offset < self.entries {
            let f = fs::OpenOptions::new()
                .write(true)
                .open(&self.path)
                .map_err(|e| io_err("opening stream for truncate", e))?;
            f.set_len(byte_end)
                .map_err(|e| io_err("truncating stream", e))?;
            f.sync_all()
                .map_err(|e| io_err("syncing truncated stream", e))?;
            self.entries = offset;
            self.bytes = byte_end;
        }
        Ok(())
    }
}

/// What a commit is made of: the stream, the deliveries to append to it
/// and the checkpoint that names them (`None` for the deliveries past a
/// run's last checkpoint).
pub(crate) type Work<C> = (JsonlStream, Vec<DeliveredPacket>, Option<C>);

/// The hand-off point between a job's stepping thread (the *worker*)
/// and the thread that does its spool I/O (the *writer*). The worker
/// leaves delivery batches and the checkpoint `C` that names them; the
/// writer takes both, commits them — append, then checkpoint — and
/// reports back. At most one checkpoint is pending (the latest wins:
/// it names every batch before it) and at most one commit is in flight.
pub(crate) struct Mailbox<C> {
    mail: Mutex<Mail<C>>,
    /// Signalled on every change either side may be waiting for.
    changed: Condvar,
}

struct Mail<C> {
    /// The spooled stream; `None` while a commit has it (in flight).
    stream: Option<JsonlStream>,
    /// Deliveries handed over and not yet taken by the writer.
    batch: Vec<DeliveredPacket>,
    /// The pending checkpoint, which names everything in `batch` but,
    /// at the end of a run, the deliveries past its last boundary.
    checkpoint: Option<C>,
    /// Entries in the stream as the worker sees it: on disk, in flight
    /// and in `batch`.
    entries: u64,
    /// The worker hands over nothing more.
    closed: bool,
    /// The first failed commit. Nothing is committed after it: a later
    /// append would leave a hole in the stream.
    error: Option<String>,
    /// Checkpoints committed, and boundaries skipped while busy.
    committed: u64,
    skipped: u64,
}

impl<C> Mail<C> {
    /// No checkpoint is pending and no commit is in flight.
    fn idle(&self) -> bool {
        self.checkpoint.is_none() && self.stream.is_some()
    }
}

impl<C> Mailbox<C> {
    /// A mailbox in front of `stream`, idle and empty.
    pub(crate) fn new(stream: JsonlStream) -> Mailbox<C> {
        Mailbox {
            mail: Mutex::new(Mail {
                entries: stream.entries,
                stream: Some(stream),
                batch: Vec::new(),
                checkpoint: None,
                closed: false,
                error: None,
                committed: 0,
                skipped: 0,
            }),
            changed: Condvar::new(),
        }
    }

    /// Every update below leaves the mail valid at each step, so a
    /// guard poisoned by a panic on the other side is still good.
    fn lock(&self) -> MutexGuard<'_, Mail<C>> {
        self.mail.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The worker's end: a [`DeliveryStream`] that is always ready once
    /// `urgent` (a requested shutdown) is set.
    pub(crate) fn queued<'a>(&'a self, urgent: &'a AtomicBool) -> QueuedStream<'a, C> {
        QueuedStream {
            mailbox: self,
            urgent,
        }
    }

    /// Worker: leave the checkpoint that names every batch appended so
    /// far. It replaces one still pending.
    pub(crate) fn hand_over(&self, checkpoint: C) {
        self.lock().checkpoint = Some(checkpoint);
        self.changed.notify_all();
    }

    /// Worker: block until nothing is pending or in flight (or a commit
    /// has failed, after which nothing will move).
    pub(crate) fn wait_idle(&self) {
        let mut mail = self.lock();
        while !mail.idle() && mail.error.is_none() {
            mail = self.changed.wait(mail).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Worker: hand over nothing more. With `drop_checkpoint` a
    /// checkpoint still pending is dropped (the run has finished and
    /// its result supersedes it); the deliveries never are.
    pub(crate) fn close(&self, drop_checkpoint: bool) {
        let mut mail = self.lock();
        mail.closed = true;
        if drop_checkpoint {
            mail.checkpoint = None;
        }
        drop(mail);
        self.changed.notify_all();
    }

    /// Writer: block until there is something to commit and take it;
    /// `None` once the mailbox is closed and empty, or a commit failed.
    pub(crate) fn take(&self) -> Option<Work<C>> {
        let mut mail = self.lock();
        while mail.checkpoint.is_none() && !mail.closed && mail.error.is_none() {
            mail = self.changed.wait(mail).unwrap_or_else(|e| e.into_inner());
        }
        if mail.error.is_some() || (mail.checkpoint.is_none() && mail.batch.is_empty()) {
            return None;
        }
        let stream = mail.stream.take()?;
        Some((
            stream,
            std::mem::take(&mut mail.batch),
            mail.checkpoint.take(),
        ))
    }

    /// Writer: the commit that took `stream` has ended; `result` says
    /// whether it committed a checkpoint, or why it failed.
    pub(crate) fn done(&self, stream: JsonlStream, result: Result<bool, String>) {
        let mut mail = self.lock();
        mail.stream = Some(stream);
        match result {
            Ok(checkpointed) => mail.committed += u64::from(checkpointed),
            Err(e) => mail.error = Some(e),
        }
        drop(mail);
        self.changed.notify_all();
    }

    /// The writer's whole life: one commit after another until the
    /// mailbox is closed and empty. A commit that panics counts as
    /// failed, so the worker is never left waiting for it. A stream
    /// that no commit appended to is settled at the end (I7): the
    /// result written after the writer returns names it too.
    pub(crate) fn serve(
        &self,
        mut commit: impl FnMut(&mut JsonlStream, &[DeliveredPacket], Option<C>) -> Result<(), String>,
    ) {
        while let Some((mut stream, batch, checkpoint)) = self.take() {
            let checkpointed = checkpoint.is_some();
            let attempt = std::panic::AssertUnwindSafe(|| commit(&mut stream, &batch, checkpoint));
            let result = std::panic::catch_unwind(attempt).unwrap_or_else(|panic| {
                Err(format!("commit panicked: {}", panic_message(&*panic)))
            });
            self.done(stream, result.map(|()| checkpointed));
        }
        let mut mail = self.lock();
        if mail.error.is_none() {
            if let Some(Err(e)) = mail.stream.as_mut().map(JsonlStream::settle) {
                mail.error = Some(e.within("stream").to_string());
            }
        }
    }

    /// After the writer has returned: the first commit error if there
    /// was one, else `(checkpoints committed, boundaries skipped)`.
    pub(crate) fn outcome(&self) -> Result<(u64, u64), String> {
        let mail = self.lock();
        match &mail.error {
            Some(e) => Err(e.clone()),
            None => Ok((mail.committed, mail.skipped)),
        }
    }
}

/// The text of a caught panic (`panic!` with a literal or a format).
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)")
}

/// The [`DeliveryStream`] a job steps against: `append` leaves the
/// batch in the [`Mailbox`] and returns, and `ready` keeps the
/// simulator from copying its network for a checkpoint the writer
/// could not take yet. It admits a boundary only when the mailbox is
/// idle, so a job holds at most one network copy beside its live
/// network — two only when a shutdown's last checkpoint is handed over
/// while a commit is in flight. Dropping it closes the mailbox, so a
/// worker that unwinds still lets its writer go.
pub(crate) struct QueuedStream<'a, C> {
    mailbox: &'a Mailbox<C>,
    urgent: &'a AtomicBool,
}

impl<C> QueuedStream<'_, C> {
    /// Leave `n` deliveries in the mailbox's batch through `put`, unless
    /// a commit has failed.
    fn leave(
        &mut self,
        n: usize,
        put: impl FnOnce(&mut Vec<DeliveredPacket>),
    ) -> Result<(), SnapshotError> {
        let mut mail = self.mailbox.lock();
        if let Some(e) = &mail.error {
            return Err(SnapshotError::new(e.clone()));
        }
        put(&mut mail.batch);
        mail.entries += n as u64;
        Ok(())
    }
}

impl<C> DeliveryStream for QueuedStream<'_, C> {
    fn append(&mut self, batch: &[DeliveredPacket]) -> Result<(), SnapshotError> {
        self.leave(batch.len(), |mail| mail.extend_from_slice(batch))
    }

    /// The vector moves into the mailbox, and the writer takes it from
    /// there: a boundary's deliveries exist once, not in the network's
    /// buffer and again in the batch.
    fn append_vec(&mut self, batch: &mut Vec<DeliveredPacket>) -> Result<(), SnapshotError> {
        self.leave(batch.len(), |mail| match mail.is_empty() {
            true => *mail = std::mem::take(batch),
            false => mail.append(batch),
        })
    }

    fn ready(&self) -> bool {
        let mut mail = self.mailbox.lock();
        // A failed commit counts as ready: the append that follows
        // reports it and ends the run.
        let ready = mail.idle() || mail.error.is_some() || self.urgent.load(Ordering::SeqCst);
        mail.skipped += u64::from(!ready);
        ready
    }

    fn len(&self) -> u64 {
        self.mailbox.lock().entries
    }

    fn truncate(
        &mut self,
        offset: u64,
        fold: &mut dyn FnMut(&DeliveredPacket),
    ) -> Result<(), SnapshotError> {
        let mut mail = self.mailbox.lock();
        // A run truncates before its first append, so the stream is
        // here and holds everything handed over.
        let Some(stream) = mail.stream.as_mut() else {
            return Err(SnapshotError::new("truncating a stream mid-commit"));
        };
        stream.truncate(offset, fold)?;
        mail.entries = offset;
        Ok(())
    }
}

impl<C> Drop for QueuedStream<'_, C> {
    fn drop(&mut self) {
        self.mailbox.close(false);
    }
}

#[cfg(test)]
impl JsonlStream {
    /// The first `offset` entries parsed one by one: the reference the
    /// served `202` prefix is compared with.
    pub(crate) fn read_prefix(path: &Path, offset: u64) -> Option<Vec<noc_telemetry::JsonValue>> {
        let text = fs::read_to_string(path).ok()?;
        let mut out = Vec::with_capacity(offset as usize);
        for line in text.split_inclusive('\n') {
            if out.len() as u64 == offset {
                break;
            }
            if !line.ends_with('\n') {
                break; // torn tail: not a complete entry
            }
            out.push(noc_telemetry::JsonValue::parse(line.trim_end()).ok()?);
        }
        (out.len() as u64 == offset).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_telemetry::json::JsonValue;
    use noc_types::{Coord, PacketId, PacketKind};

    fn d(id: u64) -> DeliveredPacket {
        DeliveredPacket {
            id: PacketId(id),
            kind: PacketKind::Data,
            src: Coord::new(0, 0),
            dst: Coord::new(3, 2),
            created_at: id * 10,
            injected_at: id * 10 + 2,
            ejected_at: id * 10 + 9,
            hops: 5,
        }
    }

    /// Truncate `s` to `offset` and return the prefix it folded.
    fn cut(s: &mut JsonlStream, offset: u64) -> Result<Vec<DeliveredPacket>, SnapshotError> {
        let mut prefix = Vec::new();
        s.truncate(offset, &mut |d| prefix.push(*d))?;
        Ok(prefix)
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("noc-jsonl-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn appends_survive_reopen_and_round_trip() {
        let dir = scratch("roundtrip");
        let path = dir.join("deliveries.jsonl");
        let mut s = JsonlStream::open(&path).unwrap();
        s.append(&[d(1), d(2)]).unwrap();
        s.append(&[d(3)]).unwrap();
        assert_eq!(s.len(), 3);
        drop(s);

        let mut s = JsonlStream::open(&path).unwrap();
        assert_eq!(s.len(), 3);
        let all = cut(&mut s, 3).unwrap();
        assert_eq!(all, vec![d(1), d(2), d(3)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_cuts_the_file_and_returns_the_prefix() {
        let dir = scratch("truncate");
        let path = dir.join("deliveries.jsonl");
        let mut s = JsonlStream::open(&path).unwrap();
        s.append(&[d(1), d(2), d(3), d(4)]).unwrap();
        let prefix = cut(&mut s, 2).unwrap();
        assert_eq!(prefix, vec![d(1), d(2)]);
        assert_eq!(s.len(), 2);
        // The cut is durable: a reopen sees exactly two entries.
        drop(s);
        let s = JsonlStream::open(&path).unwrap();
        assert_eq!(s.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `truncate(len)` is asked of every fresh job (0 of 0) and of a
    /// resume whose stream ends at its checkpoint: it returns the
    /// entries and leaves the file alone.
    #[test]
    fn truncate_to_the_current_length_cuts_nothing() {
        let dir = scratch("truncate-all");
        let path = dir.join("deliveries.jsonl");
        let mut s = JsonlStream::open(&path).unwrap();
        assert_eq!(cut(&mut s, 0).unwrap(), vec![]);
        assert_eq!(fs::read(&path).unwrap(), b"");

        s.append(&[d(1), d(2), d(3)]).unwrap();
        let whole = fs::read(&path).unwrap();
        assert_eq!(cut(&mut s, 3).unwrap(), vec![d(1), d(2), d(3)]);
        assert_eq!((s.len(), fs::read(&path).unwrap()), (3, whole.clone()));

        // Just repaired: `open` has cut the torn line, nothing is left
        // for `truncate` to cut.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"id\":4,\"kind").unwrap();
        drop(f);
        let mut s = JsonlStream::open(&path).unwrap();
        assert_eq!(cut(&mut s, 3).unwrap(), vec![d(1), d(2), d(3)]);
        assert_eq!((s.len(), fs::read(&path).unwrap()), (3, whole.clone()));

        // One entry less still cuts, durably.
        assert_eq!(cut(&mut s, 2).unwrap(), vec![d(1), d(2)]);
        assert!(whole.starts_with(&fs::read(&path).unwrap()));
        assert_eq!(JsonlStream::open(&path).unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_repairs_a_torn_final_line() {
        let dir = scratch("torn");
        let path = dir.join("deliveries.jsonl");
        let mut s = JsonlStream::open(&path).unwrap();
        s.append(&[d(1), d(2)]).unwrap();
        drop(s);
        // Simulate a kill mid-append: a partial line with no newline.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"id\":3,\"kind").unwrap();
        drop(f);

        let s = JsonlStream::open(&path).unwrap();
        assert_eq!(s.len(), 2, "torn tail must be discarded");
        let text = fs::read_to_string(&path).unwrap();
        assert!(
            text.ends_with('\n'),
            "repaired stream ends on a line boundary"
        );
        assert_eq!(text.lines().count(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_past_the_end_fails_without_touching_the_file() {
        let dir = scratch("overrun");
        let path = dir.join("deliveries.jsonl");
        let mut s = JsonlStream::open(&path).unwrap();
        s.append(&[d(1)]).unwrap();
        assert!(cut(&mut s, 5).is_err());
        assert_eq!(s.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The prefix a `202` serves — measured as recovery measures it and
    /// copied from the file as the HTTP path copies it — is, byte for
    /// byte, what rendering the parsed prefix gives: at every offset,
    /// with a torn tail, and both are absent together.
    #[test]
    fn served_prefix_equals_the_rendered_parse_of_the_same_prefix() {
        let dir = scratch("prefix-served");
        let path = dir.join("deliveries.jsonl");
        let mut s = JsonlStream::open(&path).unwrap();
        s.append(&[d(1), d(2)]).unwrap();
        s.append(&[d(3)]).unwrap();
        let appended = s.bytes_at(3).unwrap();
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"id\":4,\"kind").unwrap(); // torn append
        drop(f);
        let served = |path: &Path, offset| {
            let len = JsonlStream::prefix_len(path, offset)?;
            let file = fs::File::open(path).unwrap();
            let body = crate::body::Body::lines("[".into(), file, len, offset, "]");
            Some(body.to_text().unwrap())
        };
        for offset in 0..=4 {
            let parsed =
                JsonlStream::read_prefix(&path, offset).map(|items| JsonValue::Arr(items).render());
            let served = served(&path, offset);
            assert_eq!(served, parsed, "offset {offset}");
            assert_eq!(served.is_some(), offset <= 3, "offset {offset}");
        }
        assert_eq!(JsonlStream::prefix_len(&path, 3), Some(appended));
        let reopened = JsonlStream::open(&path).unwrap();
        assert_eq!(reopened.bytes_at(3), Some(appended));
        assert_eq!(reopened.bytes_at(2), JsonlStream::prefix_len(&path, 2));
        assert!(served(&dir.join("absent.jsonl"), 0).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_prefix_serves_exactly_the_offset_or_nothing() {
        let dir = scratch("prefix");
        let path = dir.join("deliveries.jsonl");
        let mut s = JsonlStream::open(&path).unwrap();
        s.append(&[d(1), d(2), d(3)]).unwrap();
        let two = JsonlStream::read_prefix(&path, 2).unwrap();
        assert_eq!(two.len(), 2);
        assert_eq!(two[0].get("id").and_then(|v| v.as_u64()), Some(1));
        assert!(JsonlStream::read_prefix(&path, 4).is_none());
        assert!(JsonlStream::read_prefix(&dir.join("absent.jsonl"), 0).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// An appended line is what rendering the snapshot tree writes, on
    /// seeded packets and at the edges: ids and cycles at 2^53 − 1,
    /// 2^53 and `u64::MAX` (where the tree's `f64` form takes over),
    /// coordinates 0 and 255, both kinds. The stream reads back through
    /// `truncate`, past 2^53 included, as the numbers the tree form
    /// parses to — up to the line holding `u64::MAX`, whose `f64` form
    /// (2^64) fits no integer field: reading it fails typed.
    #[test]
    fn delivery_lines_equal_the_rendered_snapshot() {
        let mut rng = noc_types::rng::Rng::seeded(0x11E5);
        let mut packets: Vec<DeliveredPacket> = (0..500)
            .map(|_| {
                let mut coord = || Coord::new(rng.next_u64() as u8, rng.next_u64() as u8);
                let (src, dst) = (coord(), coord());
                let created_at = rng.next_u64() >> (rng.next_u64() % 64);
                DeliveredPacket {
                    id: PacketId(rng.next_u64() >> (rng.next_u64() % 64)),
                    kind: [PacketKind::Control, PacketKind::Data][rng.next_u64() as usize % 2],
                    src,
                    dst,
                    created_at,
                    injected_at: created_at.saturating_add(rng.next_u64() % 50),
                    ejected_at: created_at.saturating_add(rng.next_u64() % 500),
                    hops: rng.next_u64() as u16,
                }
            })
            .collect();
        let two_53 = 1u64 << 53;
        for (i, n) in [0, 1, two_53 - 1, two_53, two_53 + 1, u64::MAX]
            .into_iter()
            .enumerate()
        {
            let (c, kind) = (
                i as u8 % 2 * 255,
                [PacketKind::Control, PacketKind::Data][i % 2],
            );
            packets.push(DeliveredPacket {
                id: PacketId(n),
                kind,
                src: Coord::new(c, 255 - c),
                dst: Coord::new(255 - c, c),
                created_at: n,
                injected_at: n,
                ejected_at: n,
                hops: [0, u16::MAX][i % 2],
            });
        }
        let dir = scratch("lines");
        let path = dir.join("deliveries.jsonl");
        let mut s = JsonlStream::open(&path).unwrap();
        s.append(&packets).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), packets.len());
        for (line, d) in text.lines().zip(&packets) {
            assert_eq!(line, d.snapshot().render(), "{d:?}");
        }
        let err = cut(&mut s, packets.len() as u64).unwrap_err();
        let last = packets.len() - 1;
        assert!(
            err.message.starts_with(&format!("stream line {last}: ")),
            "{err}"
        );
        let read = cut(&mut s, last as u64).unwrap();
        // What the tree form round-trips to: exact below 2^53, the
        // nearest `f64` above it.
        let through_f64 = |d: &DeliveredPacket| {
            let parsed = JsonValue::parse(&d.snapshot().render()).unwrap();
            DeliveredPacket::from_snapshot(&parsed).unwrap()
        };
        assert_eq!(
            read,
            packets[..last].iter().map(through_f64).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A commit for the mailbox tests: append, nothing else.
    fn append_only(
        stream: &mut JsonlStream,
        batch: &[DeliveredPacket],
        _checkpoint: Option<u64>,
    ) -> Result<(), String> {
        stream.append(batch).map_err(|e| e.to_string())
    }

    /// Once shutdown is requested every boundary is taken, whatever the
    /// writer is doing: the batches add up and the latest checkpoint,
    /// which names them all, replaces the pending one.
    #[test]
    fn an_urgent_stream_is_always_ready_and_the_latest_checkpoint_wins() {
        let dir = scratch("urgent");
        let mailbox = Mailbox::new(JsonlStream::open(dir.join("deliveries.jsonl")).unwrap());
        let urgent = AtomicBool::new(false);
        let mut stream = mailbox.queued(&urgent);
        assert!(stream.ready());
        stream.append(&[d(1)]).unwrap();
        mailbox.hand_over(1u64);
        assert!(!stream.ready(), "a checkpoint is pending");
        urgent.store(true, Ordering::SeqCst);
        assert!(stream.ready());
        stream.append(&[d(2), d(3)]).unwrap();
        mailbox.hand_over(3u64);
        assert_eq!(stream.len(), 3);

        let (on_disk, batch, checkpoint) = mailbox.take().unwrap();
        assert_eq!(
            (on_disk.len(), batch, checkpoint),
            (0, vec![d(1), d(2), d(3)], Some(3))
        );
        assert!(stream.ready(), "in flight, but urgent");
        mailbox.done(on_disk, Ok(true));
        assert_eq!(mailbox.outcome(), Ok((1, 1)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A batch the worker gives up moves into the mailbox, buffer and
    /// all, and a later one joins it there; the worker's vector is left
    /// empty either way, and the writer takes the first buffer.
    #[test]
    fn a_given_up_batch_moves_into_the_mailbox() {
        let dir = scratch("move");
        let mailbox = Mailbox::new(JsonlStream::open(dir.join("deliveries.jsonl")).unwrap());
        let urgent = AtomicBool::new(false);
        let mut stream = mailbox.queued(&urgent);
        let mut batch = Vec::with_capacity(8);
        batch.extend([d(1), d(2)]);
        let buffer = batch.as_ptr();
        stream.append_vec(&mut batch).unwrap();
        assert_eq!((batch.len(), batch.capacity()), (0, 0), "moved, not copied");
        let mut more = vec![d(3)];
        stream.append_vec(&mut more).unwrap();
        assert!(more.is_empty());
        assert_eq!(stream.len(), 3);
        mailbox.hand_over(3u64);
        let (_, taken, _) = mailbox.take().unwrap();
        assert_eq!(taken, vec![d(1), d(2), d(3)]);
        assert_eq!(taken.as_ptr(), buffer, "the worker's own buffer");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A worker that unwinds drops its stream, which lets the writer
    /// go once it has appended what was handed over.
    #[test]
    fn dropping_the_queued_stream_releases_the_writer() {
        let dir = scratch("release");
        let path = dir.join("deliveries.jsonl");
        let mailbox = Mailbox::<u64>::new(JsonlStream::open(&path).unwrap());
        let urgent = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| mailbox.serve(append_only));
            let mut stream = mailbox.queued(&urgent);
            stream.append(&[d(1), d(2)]).unwrap();
        });
        assert_eq!(JsonlStream::open(&path).unwrap().len(), 2);
        assert_eq!(mailbox.outcome(), Ok((0, 0)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A commit that panics is a failed commit: the worker waiting for
    /// it wakes, the next append reports it, nothing more is taken.
    #[test]
    fn a_commit_that_panics_reaches_the_worker_as_an_error() {
        let dir = scratch("commit-panics");
        let mailbox = Mailbox::new(JsonlStream::open(dir.join("deliveries.jsonl")).unwrap());
        let urgent = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope
                .spawn(|| mailbox.serve(|_, _, _: Option<u64>| panic!("injected into the commit")));
            let mut stream = mailbox.queued(&urgent);
            stream.append(&[d(1)]).unwrap();
            mailbox.hand_over(1);
            mailbox.wait_idle();
            assert!(stream.ready(), "so that the append below is reached");
            let heard = stream.append(&[d(2)]).unwrap_err().to_string();
            assert!(
                heard.contains("commit panicked: injected into the commit"),
                "{heard}"
            );
        });
        let error = mailbox.outcome().unwrap_err();
        assert_eq!(error, "commit panicked: injected into the commit");
        let _ = fs::remove_dir_all(&dir);
    }
}
