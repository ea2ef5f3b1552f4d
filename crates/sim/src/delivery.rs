//! The append-only delivery stream.
//!
//! The delivery log grows monotonically with campaign length, so
//! embedding it in every checkpoint (as the v1 snapshot format did)
//! made checkpoint cost O(campaign length). Instead, deliveries are
//! spooled incrementally into a [`DeliveryStream`]: the checkpoint
//! document records only a stream *offset* (`delivery_offset`), and a
//! resume truncates the stream back to that offset before replaying —
//! any entries past the offset belong to cycles the resumed run will
//! re-execute, and determinism guarantees it re-appends them
//! byte-identically (ARCHITECTURE.md §5.1).
//!
//! The stream is the only place the log is kept: the network itself
//! holds an exact tally of the deliveries ([`crate::tally`]), and a
//! resume folds the retained prefix back into that tally. A plain run
//! hands its deliveries to a [`NullStream`], which keeps nothing;
//! [`MemoryStream`] is the in-process log for callers that read it
//! (tests, sweeps that filter by ejection cycle), and the campaign
//! service provides a durable JSON-lines implementation over
//! `spool/<id>/deliveries.jsonl`.

use noc_telemetry::snapshot::SnapshotError;
use noc_types::DeliveredPacket;

/// An append-only sink for delivered packets, with just enough
/// structure to support checkpoint/resume: a stable entry count (the
/// checkpoint offset) and truncation back to an offset on restore.
pub trait DeliveryStream {
    /// Append a batch of deliveries to the end of the stream. The
    /// simulator appends *before* emitting the checkpoint that
    /// references the new offset, and a durable implementation owes
    /// exactly that order to the disk: the batch must be durable before
    /// the checkpoint that names it is — not necessarily before this
    /// returns. An implementation may therefore take the batch now and
    /// write it behind the simulator's back, as long as it writes the
    /// checkpoint after it and reports a failed write from a later
    /// `append`. A crash between the two leaves a stream tail the next
    /// resume truncates away.
    fn append(&mut self, batch: &[DeliveredPacket]) -> Result<(), SnapshotError>;

    /// [`DeliveryStream::append`] a batch the caller gives up, leaving
    /// `batch` empty; on an error the batch stays where it was. The
    /// default appends, then clears. A stream that keeps the deliveries
    /// a while may take the vector itself instead of copying it, so that
    /// they exist once; the caller's buffer then regrows from empty.
    fn append_vec(&mut self, batch: &mut Vec<DeliveredPacket>) -> Result<(), SnapshotError> {
        self.append(batch)?;
        batch.clear();
        Ok(())
    }

    /// Whether the stream can take a checkpoint now. The simulator asks
    /// once at every due checkpoint boundary, before it appends or
    /// builds anything; on `false` it skips the boundary — no append,
    /// no snapshot, no call to the checkpoint sink — and the next
    /// boundary taken carries the deliveries of both intervals. The
    /// checkpoint cadence is thereby a *minimum* spacing: a stream that
    /// is still writing the previous checkpoint says `false` rather
    /// than make the run wait. Any checkpoint is a valid resume point,
    /// so which boundaries are taken never changes a result.
    fn ready(&self) -> bool {
        true
    }

    /// Number of entries currently in the stream.
    fn len(&self) -> u64;

    /// Whether the stream holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cut the stream back to its first `offset` entries and hand each
    /// of them, in order, to `fold` (the restore path: the simulator
    /// folds the retained prefix into the network's delivery tally and
    /// the open epoch). An implementation reads the prefix in bounded
    /// memory — one entry at a time, not the whole log. Fails if the
    /// stream holds fewer than `offset` entries — that checkpoint was
    /// written against a stream this one never was — or cannot replay
    /// them.
    fn truncate(
        &mut self,
        offset: u64,
        fold: &mut dyn FnMut(&DeliveredPacket),
    ) -> Result<(), SnapshotError>;
}

/// The error of a truncate to an offset past the stream's end.
fn past_the_end(held: u64, offset: u64) -> SnapshotError {
    SnapshotError::new(format!(
        "delivery stream holds {held} entries but the checkpoint references offset {offset}"
    ))
}

/// A [`DeliveryStream`] that keeps nothing: it drops what it is handed
/// and always holds no entries, so it truncates only to offset 0. Plain
/// runs ([`crate::Simulator::run_with`], `run_traced`) spool to one, so
/// their memory does not grow with run length.
#[derive(Debug, Default)]
pub struct NullStream;

impl DeliveryStream for NullStream {
    fn append(&mut self, _batch: &[DeliveredPacket]) -> Result<(), SnapshotError> {
        Ok(())
    }

    fn len(&self) -> u64 {
        0
    }

    fn truncate(
        &mut self,
        offset: u64,
        _fold: &mut dyn FnMut(&DeliveredPacket),
    ) -> Result<(), SnapshotError> {
        match offset {
            0 => Ok(()),
            _ => Err(past_the_end(0, offset)),
        }
    }
}

/// The in-memory [`DeliveryStream`]: a plain vector, the whole delivery
/// log. This is what [`crate::Simulator::run_resumable`] uses internally
/// when the caller does not provide a durable stream, and what a caller
/// passes that wants to read the log back.
#[derive(Default)]
pub struct MemoryStream {
    entries: Vec<DeliveredPacket>,
}

impl MemoryStream {
    /// An empty stream.
    pub fn new() -> Self {
        MemoryStream::default()
    }

    /// A stream pre-loaded with `entries` — e.g. the full delivery log
    /// of an earlier run, to resume from one of its checkpoints.
    pub fn from_entries(entries: Vec<DeliveredPacket>) -> Self {
        MemoryStream { entries }
    }

    /// The entries appended so far.
    pub fn entries(&self) -> &[DeliveredPacket] {
        &self.entries
    }

    /// Consume the stream, yielding its entries.
    pub fn into_entries(self) -> Vec<DeliveredPacket> {
        self.entries
    }
}

impl DeliveryStream for MemoryStream {
    fn append(&mut self, batch: &[DeliveredPacket]) -> Result<(), SnapshotError> {
        self.entries.extend_from_slice(batch);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    fn truncate(
        &mut self,
        offset: u64,
        fold: &mut dyn FnMut(&DeliveredPacket),
    ) -> Result<(), SnapshotError> {
        if offset > self.len() {
            return Err(past_the_end(self.len(), offset));
        }
        self.entries.truncate(offset as usize);
        self.entries.iter().for_each(fold);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Coord, PacketId, PacketKind};

    fn d(id: u64) -> DeliveredPacket {
        DeliveredPacket {
            id: PacketId(id),
            kind: PacketKind::Control,
            src: Coord::new(0, 0),
            dst: Coord::new(1, 1),
            created_at: id,
            injected_at: id + 1,
            ejected_at: id + 5,
            hops: 2,
        }
    }

    #[test]
    fn append_accumulates_and_len_tracks() {
        let mut s = MemoryStream::new();
        assert!(s.is_empty());
        s.append(&[d(1), d(2)]).unwrap();
        s.append(&[d(3)]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.entries(), &[d(1), d(2), d(3)]);
    }

    #[test]
    fn truncate_folds_the_retained_prefix() {
        let mut s = MemoryStream::from_entries(vec![d(1), d(2), d(3)]);
        let mut prefix = Vec::new();
        s.truncate(2, &mut |e| prefix.push(*e)).unwrap();
        assert_eq!(prefix, vec![d(1), d(2)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn truncate_past_the_end_is_an_error() {
        let mut s = MemoryStream::from_entries(vec![d(1)]);
        assert!(s.truncate(2, &mut |_| ()).is_err());
        // The failed truncate must not have disturbed the stream.
        assert_eq!(s.len(), 1);
    }

    /// A null stream holds nothing it is handed, so it refuses any
    /// resume that would need entries back.
    #[test]
    fn a_null_stream_keeps_nothing_and_cannot_replay() {
        let mut s = NullStream;
        s.append(&[d(1), d(2)]).unwrap();
        assert!(s.is_empty());
        assert!(s.truncate(1, &mut |_| ()).is_err());
        s.truncate(0, &mut |_| panic!("nothing to fold")).unwrap();
    }
}
