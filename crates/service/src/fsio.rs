//! Durable filesystem primitives for the spool.
//!
//! Every "this survived the crash" claim the scheduler makes rests on
//! these functions: atomic same-directory tmp+rename replacement, with
//! the data *and* the directory entry fsynced before the write is
//! acknowledged, and directory creation whose entry is fsynced too.
//! Renaming without syncing the directory leaves the new name in the
//! kernel's page cache only — a power loss can roll the directory back
//! to the old entry (or to neither), turning a "durable"
//! spec/checkpoint/result into a missing file at recovery.

use std::fs;
use std::io::Write;
use std::path::Path;

/// Fsync the directory containing `path`, making a just-created or
/// just-renamed entry durable. On platforms where opening a directory
/// for reading is not supported this degrades to a no-op error, which
/// callers treat as fatal — the spool's guarantees are gone anyway.
pub(crate) fn fsync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    match dir {
        Some(d) => fs::File::open(d)?.sync_all(),
        None => fs::File::open(".")?.sync_all(),
    }
}

/// Create directory `dir` (and any missing ancestors) and fsync its
/// parent, so the new entry survives power loss. A file written into
/// `dir` with [`write_atomic`] fsyncs `dir` itself, not `dir`'s entry in
/// its parent: without this, a crash could lose the whole directory.
pub(crate) fn create_dir_durable(dir: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fsync_parent_dir(dir)
}

/// Write `text` to `path` atomically and durably: [`write_atomic_with`].
pub(crate) fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    write_atomic_with(path, |f| f.write_all(text.as_bytes()))
}

/// Write to `path`, through `write`, atomically and durably:
/// same-directory tmp + fsync + rename + directory fsync. A crash
/// mid-write never leaves a torn file for recovery to trip on, and once
/// this returns `Ok` the file survives power loss.
pub(crate) fn write_atomic_with(
    path: &Path,
    write: impl FnOnce(&mut fs::File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        write(&mut f)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    fsync_parent_dir(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("noc-fsio-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_content_and_leaves_no_tmp_behind() {
        let dir = scratch("basic");
        let path = dir.join("spec.json");
        write_atomic(&path, "{\"a\":1}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"a\":1}");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray tmp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaces_an_existing_file_atomically() {
        let dir = scratch("replace");
        let path = dir.join("checkpoint.json");
        write_atomic(&path, "old").unwrap();
        write_atomic(&path, "new and longer").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "new and longer");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fails_cleanly_when_the_directory_is_missing() {
        let dir = scratch("missing");
        let path = dir.join("nope").join("result.json");
        assert!(write_atomic(&path, "x").is_err());
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn creates_a_directory_durably_and_again_as_a_no_op() {
        let dir = scratch("mkdir");
        let job = dir.join("spool").join("job-000001");
        create_dir_durable(&job).unwrap();
        assert!(job.is_dir());
        write_atomic(&job.join("spec.json"), "{}").unwrap();
        create_dir_durable(&job).unwrap();
        assert_eq!(fs::read_to_string(job.join("spec.json")).unwrap(), "{}");
        // A file in the way is an error, not a silent success.
        let blocked = dir.join("file");
        fs::write(&blocked, "x").unwrap();
        assert!(create_dir_durable(&blocked.join("job")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_parent_dir_handles_files_in_a_real_directory() {
        let dir = scratch("fsync");
        let path = dir.join("f.txt");
        fs::write(&path, "x").unwrap();
        fsync_parent_dir(&path).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
