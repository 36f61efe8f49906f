//! Crash-durable file primitives shared by the file-based workflow
//! layers (`esse::fileio`, `esse_mtc::journal`, the on-disk safe/live
//! covariance protocol).
//!
//! The paper's ESSE is file-based so a real-time forecast survives
//! infrastructure trouble (§4.1, §4.2); that only works if "written to
//! disk" actually means *on* the disk. This module supplies the
//! ingredients every durable format here is built from:
//!
//! * [`crc32`] and [`codec`] — the IEEE CRC-32 checksum and the byte
//!   reader/writer, sealed envelope and stream frame built on it (the
//!   workspace's one implementation of each, re-exported from
//!   [`esse_obs`]), so readers detect truncated or bit-flipped files
//!   instead of silently ingesting them;
//! * [`atomic_write`] — write-to-temp, `fsync` the temp file, rename
//!   over the target, then `fsync` the parent directory, so a published
//!   file survives power loss and concurrent readers never observe a
//!   torn state. On any failure the temporary file is removed.

use std::fs;
use std::io;
use std::path::Path;

pub use esse_obs::codec;
pub use esse_obs::crc::{crc32, crc32_update};

/// `fsync` a directory so a rename/create inside it survives power
/// loss. A no-op on platforms where directories cannot be opened.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    match fs::File::open(dir) {
        Ok(f) => f.sync_all(),
        // Non-unix platforms may refuse to open directories; the rename
        // itself is still atomic there, only the metadata flush is lost.
        Err(e) if e.kind() == io::ErrorKind::PermissionDenied => Ok(()),
        Err(e) => Err(e),
    }
}

/// The temporary-file sibling used by [`atomic_write`] for `path`.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
    path.with_file_name(format!("{name}.tmp"))
}

/// Durable atomic publish: write `data` to a temporary sibling, fsync
/// it, rename it over `path`, and fsync the parent directory. Readers
/// either see the old complete file or the new complete file, and the
/// new one survives power loss once this returns `Ok`. On failure the
/// temporary file is removed — a crashed writer never leaves a torn
/// file where a reader (or a later resume scan) might trust it.
pub fn atomic_write(path: impl AsRef<Path>, data: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_path(path);
    let publish = (|| -> io::Result<()> {
        {
            let mut f = fs::File::create(&tmp)?;
            io::Write::write_all(&mut f, data)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fsync_dir(parent)?;
            }
        }
        Ok(())
    })();
    if publish.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    publish
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_publishes_and_cleans_tmp() {
        let dir = std::env::temp_dir().join(format!("esse-durable-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("value.bin");
        atomic_write(&target, b"hello").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"hello");
        assert!(!tmp_path(&target).exists(), "tmp file must not persist");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_publish_leaves_no_tmp_file() {
        let dir = std::env::temp_dir().join(format!("esse-durable-fail-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // Renaming a file over an existing non-empty directory fails.
        let target = dir.join("occupied");
        fs::create_dir_all(target.join("child")).unwrap();
        assert!(atomic_write(&target, b"doomed").is_err());
        assert!(!tmp_path(&target).exists(), "tmp file must be removed on failure");
        let _ = fs::remove_dir_all(&dir);
    }
}
