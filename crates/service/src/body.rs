//! Response bodies, some of them served from the spool as they stand on
//! disk.
//!
//! A [`Body`] is text, or text around a part of a spool file that is
//! copied to the socket in fixed-size pieces when the response is
//! written: a finished job's `result.json` whole, or a running job's
//! delivery stream up to its last durable checkpoint, as the items of
//! the `202`'s `deliveries` array. Its length is known before a byte is
//! written (the `Content-Length`), and no file is ever held in memory,
//! however long the stream has grown.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

/// The pieces a file part is copied in, on the writing thread's stack.
const PIECE: usize = 16 << 10;

/// A response body: `head`, then the file part if there is one, then
/// `tail`.
pub struct Body {
    head: String,
    part: Option<FilePart>,
    tail: &'static str,
}

/// The leading `len` bytes of an open spool file.
struct FilePart {
    file: fs::File,
    len: u64,
    /// `Some(n)`: the bytes are `n` complete lines, served as the items
    /// of a JSON array — each newline a comma, the last one dropped.
    lines: Option<u64>,
}

impl From<String> for Body {
    fn from(text: String) -> Body {
        Body {
            head: text,
            part: None,
            tail: "",
        }
    }
}

impl Body {
    /// The whole file at `path`, as it is when opened.
    pub(crate) fn file(path: &Path) -> io::Result<Body> {
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        Ok(Body {
            head: String::new(),
            part: Some(FilePart {
                file,
                len,
                lines: None,
            }),
            tail: "",
        })
    }

    /// `head`, the first `lines` lines of `file` — `len` bytes with their
    /// newlines — as array items, then `tail`.
    pub(crate) fn lines(
        head: String,
        file: fs::File,
        len: u64,
        lines: u64,
        tail: &'static str,
    ) -> Body {
        Body {
            head,
            part: Some(FilePart {
                file,
                len,
                lines: Some(lines),
            }),
            tail,
        }
    }

    /// The body's length in bytes.
    pub fn content_length(&self) -> u64 {
        let part = self.part.as_ref().map_or(0, |p| match p.lines {
            Some(_) => p.len.saturating_sub(1),
            None => p.len,
        });
        (self.head.len() + self.tail.len()) as u64 + part
    }

    /// Write the body to `out`, the file part a piece at a time.
    ///
    /// Fails with `InvalidData` on a piece that is not UTF-8, or on lines
    /// that are not the count the body was made with, and with
    /// `UnexpectedEof` on a file shorter than the body: `out` then has
    /// fewer than [`Body::content_length`] bytes, each of them checked,
    /// so a client that reads to the promised length sees a short body,
    /// never a wrong one.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(self.head.as_bytes())?;
        if let Some(part) = &self.part {
            part.copy_to(out)?;
        }
        out.write_all(self.tail.as_bytes())
    }

    /// The body as text, through [`Body::write_to`].
    pub fn to_text(&self) -> io::Result<String> {
        let mut text = Vec::with_capacity(self.content_length() as usize);
        self.write_to(&mut text)?;
        String::from_utf8(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl FilePart {
    fn copy_to(&self, out: &mut impl Write) -> io::Result<()> {
        let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut piece = [0u8; PIECE];
        let mut file = (&self.file).take(self.len);
        let (mut left, mut carry, mut newlines) = (self.len, 0, 0u64);
        while left > 0 {
            let n = match file.read(&mut piece[carry..]) {
                Ok(0) => {
                    let eof = io::ErrorKind::UnexpectedEof;
                    return Err(io::Error::new(eof, "the spool file ends before the body"));
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            left -= n as u64;
            let filled = carry + n;
            // A character split across two pieces goes out with the
            // second.
            let valid = match std::str::from_utf8(&piece[..filled]) {
                Ok(_) => filled,
                Err(e) if e.error_len().is_none() && left > 0 => e.valid_up_to(),
                Err(_) => return Err(invalid("the spool file is not UTF-8")),
            };
            let mut send = valid;
            if let Some(lines) = self.lines {
                let ends_a_line = valid > 0 && piece[valid - 1] == b'\n';
                for b in piece[..valid].iter_mut().filter(|b| **b == b'\n') {
                    *b = b',';
                    newlines += 1;
                }
                if newlines > lines || (left == 0 && (newlines != lines || !ends_a_line)) {
                    return Err(invalid("the spool file's lines are not the checkpoint's"));
                }
                send -= usize::from(left == 0);
            }
            out.write_all(&piece[..send])?;
            piece.copy_within(valid..filled, 0);
            carry = filled - valid;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("noc-body-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `[` + the first `lines` lines of `path` as items + `]`, as served.
    fn items(path: &Path, len: u64, lines: u64) -> io::Result<String> {
        let body = Body::lines("[".into(), fs::File::open(path)?, len, lines, "]");
        let mut out = Vec::new();
        let written = body.write_to(&mut out);
        assert!(out.len() as u64 <= body.content_length(), "past the end");
        written?;
        assert_eq!(out.len() as u64, body.content_length());
        Ok(String::from_utf8(out).unwrap())
    }

    /// Lines longer than a piece, and characters split between two
    /// pieces, come out whole, at every prefix.
    #[test]
    fn lines_longer_than_a_piece_are_served_whole() {
        let dir = scratch("long");
        let path = dir.join("deliveries.jsonl");
        let lines: Vec<String> = (0..5)
            .map(|i| format!("\"{}\"", "ü—x".repeat(PIECE / 3 + i * 997)))
            .collect();
        fs::write(&path, lines.join("\n") + "\n").unwrap();
        let mut len = 0;
        for n in 0..=lines.len() {
            let expected = format!("[{}]", lines[..n].join(","));
            assert_eq!(items(&path, len, n as u64).unwrap(), expected, "{n} lines");
            len += lines.get(n).map_or(0, |l| l.len() as u64 + 1);
        }
        let whole = Body::file(&path).unwrap().to_text().unwrap();
        assert_eq!(whole, fs::read_to_string(&path).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A file that is shorter than the body, not UTF-8, or not the
    /// promised lines fails the write, after a checked prefix.
    #[test]
    fn a_body_the_file_does_not_hold_fails() {
        let dir = scratch("bad");
        let path = dir.join("deliveries.jsonl");
        fs::write(&path, "{\"a\":1}\n{\"a\":2}\n").unwrap();
        assert_eq!(items(&path, 16, 2).unwrap(), "[{\"a\":1},{\"a\":2}]");
        let kind = |len, lines| items(&path, len, lines).unwrap_err().kind();
        assert_eq!(kind(17, 2), io::ErrorKind::UnexpectedEof);
        assert_eq!(kind(16, 1), io::ErrorKind::InvalidData);
        assert_eq!(kind(16, 3), io::ErrorKind::InvalidData);
        assert_eq!(kind(15, 2), io::ErrorKind::InvalidData);
        fs::write(&path, b"{\"a\":1}\n\xff\n").unwrap();
        assert_eq!(kind(10, 2), io::ErrorKind::InvalidData);
        assert_eq!(items(&path, 8, 1).unwrap(), "[{\"a\":1}]");
        let _ = fs::remove_dir_all(&dir);
    }
}
