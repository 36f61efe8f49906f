//! Binary state-vector and subspace files for the process-level workflow.
//!
//! The paper's ESSE is file-based: `pert` reads the prior modes and the
//! mean state from disk and writes a perturbed initial condition;
//! `pemodel` reads that file and writes the forecast; the diff/SVD
//! stages work on covariance files. The byte formats (`ESV2`/`ESS2`
//! sealed envelopes: magic, version byte, `u64` dimensions,
//! little-endian `f64`s, CRC-32 trailer) are defined once in
//! [`esse_core::format`] and re-exported here; this module adds the
//! path-level half. A truncated or bit-flipped file is rejected with a
//! distinct "corrupt" error, never silently ingested, and there is no
//! un-checksummed format to fall back to. All writes go through
//! [`esse_core::durable::atomic_write`]: temp file, fsync, rename,
//! fsync the parent directory — a published file survives power loss.

use esse_core::durable::atomic_write;
use esse_core::format::vector_from_bytes_with_crc;
pub use esse_core::format::{
    is_corrupt_error, subspace_from_bytes, subspace_to_bytes, vector_from_bytes, vector_to_bytes,
    FORMAT_VERSION,
};
use esse_core::subspace::ErrorSubspace;
use std::fs;
use std::io;
use std::path::Path;

/// Write a state vector to `path` (durable atomic publish).
pub fn write_vector(path: impl AsRef<Path>, data: &[f64]) -> io::Result<()> {
    atomic_write(path, &vector_to_bytes(data))
}

/// Read a state vector from `path`.
pub fn read_vector(path: impl AsRef<Path>) -> io::Result<Vec<f64>> {
    vector_from_bytes(&fs::read(path)?)
}

/// Read a state vector together with its CRC-32 trailer (the `fc_crc`
/// of a pool result record).
pub fn read_vector_with_crc(path: impl AsRef<Path>) -> io::Result<(Vec<f64>, u32)> {
    vector_from_bytes_with_crc(&fs::read(path)?)
}

/// Write an error subspace (modes + variances) to `path`.
pub fn write_subspace(path: impl AsRef<Path>, subspace: &ErrorSubspace) -> io::Result<()> {
    atomic_write(path, &subspace_to_bytes(subspace))
}

/// Read an error subspace from `path`.
pub fn read_subspace(path: impl AsRef<Path>) -> io::Result<ErrorSubspace> {
    subspace_from_bytes(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esse_core::durable::{crc32, tmp_path};
    use esse_linalg::Matrix;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("esse-fileio-{name}-{}", std::process::id()))
    }

    #[test]
    fn vector_roundtrip() {
        let p = tmp("vec");
        let data = vec![1.5, -2.25, 0.0, 1e300, f64::MIN_POSITIVE];
        write_vector(&p, &data).unwrap();
        assert_eq!(read_vector(&p).unwrap(), data);
    }

    #[test]
    fn empty_vector_roundtrip() {
        let p = tmp("empty");
        write_vector(&p, &[]).unwrap();
        assert!(read_vector(&p).unwrap().is_empty());
    }

    #[test]
    fn subspace_roundtrip() {
        let p = tmp("sub");
        let modes = Matrix::from_fn(6, 2, |i, j| (i * 2 + j) as f64 * 0.25);
        let sub = ErrorSubspace { modes: modes.clone(), variances: vec![4.0, 1.0] };
        write_subspace(&p, &sub).unwrap();
        let back = read_subspace(&p).unwrap();
        assert_eq!(back.variances, vec![4.0, 1.0]);
        assert_eq!(back.modes, modes);
    }

    #[test]
    fn vector_file_crc_matches_trailer_and_rejects_corruption() {
        let p = tmp("crc");
        write_vector(&p, &[1.0, 2.5, -3.0]).unwrap();
        let raw = std::fs::read(&p).unwrap();
        let trailer = u32::from_le_bytes(raw[raw.len() - 4..].try_into().unwrap());
        assert_eq!(read_vector_with_crc(&p).unwrap(), (vec![1.0, 2.5, -3.0], trailer));
        let mut bad = raw.clone();
        bad[10] ^= 1;
        std::fs::write(&p, &bad).unwrap();
        assert!(read_vector_with_crc(&p).is_err());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let p = tmp("bad");
        std::fs::write(&p, b"garbage!").unwrap();
        assert!(read_vector(&p).is_err());
        assert!(read_subspace(&p).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let p = tmp("trunc");
        write_vector(&p, &[1.0, 2.0, 3.0]).unwrap();
        let mut raw = std::fs::read(&p).unwrap();
        raw.truncate(raw.len() - 4);
        std::fs::write(&p, raw).unwrap();
        let err = read_vector(&p).unwrap_err();
        assert!(is_corrupt_error(&err), "{err}");
    }

    #[test]
    fn truncation_at_every_byte_boundary_rejected() {
        let bytes = vector_to_bytes(&[1.0, 2.0, 3.0, 4.0]);
        for cut in 0..bytes.len() {
            let err = vector_from_bytes(&bytes[..cut])
                .expect_err(&format!("prefix of {cut} bytes must not parse"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // The full file, of course, parses.
        assert_eq!(vector_from_bytes(&bytes).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn single_bit_flips_rejected() {
        let bytes = subspace_to_bytes(&ErrorSubspace {
            modes: Matrix::from_fn(4, 2, |i, j| (i * 7 + j) as f64 * 0.5),
            variances: vec![3.0, 1.0],
        });
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[byte] ^= 1 << bit;
                assert!(
                    subspace_from_bytes(&flipped).is_err(),
                    "flip at byte {byte} bit {bit} was silently accepted"
                );
            }
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let mut raw = vector_to_bytes(&[9.0]).to_vec();
        raw[4] = FORMAT_VERSION + 1;
        // Re-stamp the trailer so only the version byte is wrong.
        let body_len = raw.len() - 4;
        let crc = crc32(&raw[..body_len]);
        raw[body_len..].copy_from_slice(&crc.to_le_bytes());
        let err = vector_from_bytes(&raw).unwrap_err();
        assert!(is_corrupt_error(&err), "{err}");
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn atomic_write_tmp_never_persists_on_failure() {
        let dir = tmp("atomic-fail");
        std::fs::create_dir_all(&dir).unwrap();
        // Rename over a non-empty directory fails after the temp file
        // was created; the temp sibling must be cleaned up.
        let target = dir.join("vector.bin");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        assert!(write_vector(&target, &[1.0, 2.0]).is_err());
        assert!(!tmp_path(&target).exists(), "temp file persisted after failed publish");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
