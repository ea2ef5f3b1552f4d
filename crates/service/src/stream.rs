//! The durable delivery stream: `spool/<id>/deliveries.jsonl`.
//!
//! One JSON object per line, in delivery order, each the
//! [`noc_telemetry::snapshot::Snapshot`] rendering of a
//! [`DeliveredPacket`]. The simulator appends a batch (fsynced) at
//! every checkpoint boundary *before* the checkpoint document that
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

use noc_sim::DeliveryStream;
use noc_telemetry::json::JsonValue;
use noc_telemetry::snapshot::{FromSnapshot, Snapshot, SnapshotError};
use noc_types::DeliveredPacket;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

fn io_err(context: &str, e: std::io::Error) -> SnapshotError {
    SnapshotError::new(format!("{context}: {e}"))
}

/// A [`DeliveryStream`] spooled to a JSON-lines file, fsynced per
/// append so the checkpoint offsets that reference it stay honest.
pub struct JsonlStream {
    path: PathBuf,
    entries: u64,
}

impl JsonlStream {
    /// Open (or create) the stream at `path`, repairing a torn final
    /// line left by a crash mid-append.
    pub fn open(path: impl Into<PathBuf>) -> Result<JsonlStream, SnapshotError> {
        let path = path.into();
        let entries = match fs::read(&path) {
            Ok(bytes) => {
                let complete: u64 = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
                let valid_len = bytes
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map(|p| p as u64 + 1)
                    .unwrap_or(0);
                if valid_len != bytes.len() as u64 {
                    let f = fs::OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(|e| io_err("opening stream for repair", e))?;
                    f.set_len(valid_len)
                        .map_err(|e| io_err("repairing torn stream tail", e))?;
                    f.sync_all()
                        .map_err(|e| io_err("syncing repaired stream", e))?;
                }
                complete
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                fs::File::create(&path).map_err(|e| io_err("creating stream", e))?;
                crate::fsio::fsync_parent_dir(&path)
                    .map_err(|e| io_err("syncing spool directory", e))?;
                0
            }
            Err(e) => return Err(io_err("reading stream", e)),
        };
        Ok(JsonlStream { path, entries })
    }

    /// The file this stream spools to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The first `offset` entries of the stream at `path` as the items
    /// of a JSON array, comma-separated and without the brackets — the
    /// non-destructive read used to serve partial results. The lines
    /// are spliced as bytes, not parsed: each is the canonical
    /// rendering [`DeliveryStream::append`] wrote, so re-rendering its
    /// parse would reproduce it. Returns `None` when the file is
    /// missing or holds fewer than `offset` complete lines (e.g. a read
    /// racing a concurrent repair), which callers treat as "not
    /// available yet".
    pub fn prefix_items(path: &Path, offset: u64) -> Option<String> {
        let mut bytes = fs::read(path).ok()?;
        let mut lines = 0u64;
        let mut end = 0usize;
        while lines < offset {
            end += bytes[end..].iter().position(|&b| b == b'\n')? + 1;
            lines += 1;
        }
        // Drop the tail and the last newline; the inner ones become
        // the separators (a rendered line holds no raw newline).
        bytes.truncate(end.saturating_sub(1));
        for b in &mut bytes {
            if *b == b'\n' {
                *b = b',';
            }
        }
        String::from_utf8(bytes).ok()
    }

    /// The first `offset` entries parsed one by one: what
    /// [`JsonlStream::prefix_items`] replaced, kept as the reference
    /// the tests compare it with.
    #[cfg(test)]
    pub(crate) fn read_prefix(path: &Path, offset: u64) -> Option<Vec<JsonValue>> {
        let text = fs::read_to_string(path).ok()?;
        let mut out = Vec::with_capacity(offset as usize);
        for line in text.split_inclusive('\n') {
            if out.len() as u64 == offset {
                break;
            }
            if !line.ends_with('\n') {
                break; // torn tail: not a complete entry
            }
            out.push(JsonValue::parse(line.trim_end()).ok()?);
        }
        (out.len() as u64 == offset).then_some(out)
    }
}

impl DeliveryStream for JsonlStream {
    fn append(&mut self, batch: &[DeliveredPacket]) -> Result<(), SnapshotError> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut buf = String::new();
        for d in batch {
            buf.push_str(&d.snapshot().render());
            buf.push('\n');
        }
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err("opening stream for append", e))?;
        f.write_all(buf.as_bytes())
            .map_err(|e| io_err("appending to stream", e))?;
        f.sync_data().map_err(|e| io_err("syncing stream", e))?;
        self.entries += batch.len() as u64;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.entries
    }

    fn truncate(&mut self, offset: u64) -> Result<Vec<DeliveredPacket>, SnapshotError> {
        if offset > self.entries {
            return Err(SnapshotError::new(format!(
                "delivery stream {} holds {} entries but the checkpoint references offset {offset}",
                self.path.display(),
                self.entries
            )));
        }
        let text = fs::read_to_string(&self.path).map_err(|e| io_err("reading stream", e))?;
        let mut prefix = Vec::with_capacity(offset as usize);
        let mut byte_end = 0usize;
        for line in text.split_inclusive('\n') {
            if prefix.len() as u64 == offset {
                break;
            }
            let parsed = JsonValue::parse(line.trim_end())
                .map_err(|e| SnapshotError::new(format!("stream line {}: {e}", prefix.len())))?;
            prefix.push(
                DeliveredPacket::from_snapshot(&parsed)
                    .map_err(|e| e.within(&format!("stream line {}", prefix.len())))?,
            );
            byte_end += line.len();
        }
        if (prefix.len() as u64) < offset {
            return Err(SnapshotError::new(format!(
                "delivery stream {} ends after {} complete entries, checkpoint wants {offset}",
                self.path.display(),
                prefix.len()
            )));
        }
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("opening stream for truncate", e))?;
        f.set_len(byte_end as u64)
            .map_err(|e| io_err("truncating stream", e))?;
        f.sync_all()
            .map_err(|e| io_err("syncing truncated stream", e))?;
        self.entries = offset;
        Ok(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let all = s.truncate(3).unwrap();
        assert_eq!(all, vec![d(1), d(2), d(3)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_cuts_the_file_and_returns_the_prefix() {
        let dir = scratch("truncate");
        let path = dir.join("deliveries.jsonl");
        let mut s = JsonlStream::open(&path).unwrap();
        s.append(&[d(1), d(2), d(3), d(4)]).unwrap();
        let prefix = s.truncate(2).unwrap();
        assert_eq!(prefix, vec![d(1), d(2)]);
        assert_eq!(s.len(), 2);
        // The cut is durable: a reopen sees exactly two entries.
        drop(s);
        let s = JsonlStream::open(&path).unwrap();
        assert_eq!(s.len(), 2);
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
        assert!(s.truncate(5).is_err());
        assert_eq!(s.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The spliced prefix is, byte for byte, what rendering the parsed
    /// prefix gives — at every offset, with a torn tail, and both are
    /// absent together.
    #[test]
    fn prefix_items_equal_the_rendered_parse_of_the_same_prefix() {
        let dir = scratch("splice");
        let path = dir.join("deliveries.jsonl");
        let mut s = JsonlStream::open(&path).unwrap();
        s.append(&[d(1), d(2)]).unwrap();
        s.append(&[d(3)]).unwrap();
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"id\":4,\"kind").unwrap(); // torn append
        drop(f);
        for offset in 0..=4 {
            let parsed =
                JsonlStream::read_prefix(&path, offset).map(|items| JsonValue::Arr(items).render());
            let spliced = JsonlStream::prefix_items(&path, offset).map(|i| format!("[{i}]"));
            assert_eq!(spliced, parsed, "offset {offset}");
            assert_eq!(spliced.is_some(), offset <= 3, "offset {offset}");
        }
        assert!(JsonlStream::prefix_items(&dir.join("absent.jsonl"), 0).is_none());
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
}
