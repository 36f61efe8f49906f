//! Binary state-vector and subspace files for the process-level workflow.
//!
//! The paper's ESSE is file-based: `pert` reads the prior modes and the
//! mean state from disk and writes a perturbed initial condition;
//! `pemodel` reads that file and writes the forecast; the diff/SVD
//! stages work on covariance files. This module defines those formats:
//! a small magic-tagged header followed by little-endian `f64`s.
//!
//! Since the format v2 revision every file written here carries a
//! format-version byte after the magic and a CRC-32 trailer over
//! everything before it, so a truncated or bit-flipped file is rejected
//! with a distinct "corrupt" error instead of being silently ingested
//! (or mistaken for a mere length mismatch). Readers still accept the
//! legacy un-checksummed v1 format, so workdirs written by older
//! binaries remain loadable. All writes go through
//! [`esse_core::durable::atomic_write`]: temp file, fsync, rename,
//! fsync the parent directory — a published file survives power loss.

use esse_core::durable::{atomic_write, crc32};
use esse_core::subspace::ErrorSubspace;
use std::fs;
use std::io;
use std::path::Path;

const VEC_MAGIC: u32 = 0x4553_5345; // "ESSE" — legacy v1 vector
const SUB_MAGIC: u32 = 0x4553_5542; // "ESUB" — legacy v1 subspace
const VEC_MAGIC_V2: u32 = 0x4553_5632; // "ESV2" — checksummed vector
const SUB_MAGIC_V2: u32 = 0x4553_5332; // "ESS2" — checksummed subspace

/// Current format version written after the magic in v2 files.
pub const FORMAT_VERSION: u8 = 2;

/// Lay out a v2 file: magic, version byte, `u64` dimension words, the
/// `f64` payload, then the CRC-32 of everything before it.
fn encode<'a>(magic: u32, dims: &[usize], payload: impl Iterator<Item = &'a f64>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(9 + 8 * (dims.len() + payload.size_hint().0));
    buf.extend_from_slice(&magic.to_le_bytes());
    buf.push(FORMAT_VERSION);
    for &d in dims {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for v in payload {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Check the magic of `raw` and, for a v2 file, its CRC-32 trailer and
/// version byte. Returns the dimension words and payload that follow,
/// the trailer (0 for a legacy v1 file, which has none) and whether the
/// file is v2. A missing or mismatched trailer is a *corrupt file* —
/// distinct from "not an ESSE file" so the caller (or a resume scan)
/// knows the file was torn or flipped, not misnamed.
fn open<'a>(raw: &'a [u8], v2: u32, v1: u32, what: &str) -> io::Result<(&'a [u8], u32, bool)> {
    let Some((magic, rest)) = raw.split_first_chunk::<4>() else {
        return Err(corrupt(what, "shorter than a magic number"));
    };
    let magic = u32::from_le_bytes(*magic);
    if magic == v1 {
        return Ok((rest, 0, false));
    }
    if magic != v2 {
        return Err(bad_data(&format!("not an ESSE {what} file")));
    }
    let Some((body, trailer)) = raw.split_last_chunk::<4>().filter(|(body, _)| body.len() >= 5)
    else {
        return Err(corrupt(what, "truncated before checksum"));
    };
    let stored = u32::from_le_bytes(*trailer);
    if crc32(body) != stored {
        return Err(corrupt(what, "checksum mismatch"));
    }
    if body[4] == 0 || body[4] > FORMAT_VERSION {
        return Err(corrupt(what, "unknown format version"));
    }
    Ok((&body[5..], stored, true))
}

/// Take one `u64` dimension word off the front of `rest`.
fn take_dim(rest: &mut &[u8]) -> Option<usize> {
    let (word, tail) = rest.split_first_chunk::<8>()?;
    *rest = tail;
    usize::try_from(u64::from_le_bytes(*word)).ok()
}

fn f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
}

/// A header or payload that does not add up: corrupt in a checksummed
/// v2 file, merely foreign in a legacy v1 one.
fn malformed(what: &str, v2: bool, why: &str) -> io::Error {
    if v2 {
        corrupt(what, why)
    } else {
        bad_data(&format!("legacy ESSE {what} file: {why}"))
    }
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn corrupt(what: &str, why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt ESSE {what} file: {why}"))
}

/// Encode a state vector into the current (v2, checksummed) on-disk
/// format. Exposed so the on-disk safe/live covariance protocol can
/// embed vector payloads without a round-trip through a file.
pub fn vector_to_bytes(data: &[f64]) -> Vec<u8> {
    encode(VEC_MAGIC_V2, &[data.len()], data.iter())
}

/// Write a state vector to `path` (durable atomic publish).
pub fn write_vector(path: impl AsRef<Path>, data: &[f64]) -> io::Result<()> {
    atomic_write(path, &vector_to_bytes(data))
}

fn decode_vector(raw: &[u8]) -> io::Result<(Vec<f64>, u32)> {
    let (mut rest, crc, v2) = open(raw, VEC_MAGIC_V2, VEC_MAGIC, "vector")?;
    let n = take_dim(&mut rest).ok_or_else(|| malformed("vector", v2, "truncated header"))?;
    if n.checked_mul(8) != Some(rest.len()) {
        return Err(malformed("vector", v2, "length mismatch"));
    }
    Ok((f64s(rest).collect(), crc))
}

/// Decode a state vector from raw file bytes (v2 or legacy v1).
pub fn vector_from_bytes(raw: &[u8]) -> io::Result<Vec<f64>> {
    decode_vector(raw).map(|(data, _)| data)
}

/// Read a state vector from `path`.
pub fn read_vector(path: impl AsRef<Path>) -> io::Result<Vec<f64>> {
    vector_from_bytes(&fs::read(path)?)
}

/// Read a state vector together with its CRC-32 trailer — the
/// fingerprint a worker publishes in its pool result record so the
/// coordinator can cross-check that the forecast it ingests is the one
/// the worker validated. Legacy v1 files have no trailer and report 0.
pub fn read_vector_with_crc(path: impl AsRef<Path>) -> io::Result<(Vec<f64>, u32)> {
    decode_vector(&fs::read(path)?)
}

/// Encode an error subspace into the current (v2, checksummed) format.
pub fn subspace_to_bytes(subspace: &ErrorSubspace) -> Vec<u8> {
    let (n, k) = subspace.modes.shape();
    encode(SUB_MAGIC_V2, &[n, k], subspace.variances.iter().chain(subspace.modes.as_slice()))
}

/// Write an error subspace (modes + variances) to `path`.
pub fn write_subspace(path: impl AsRef<Path>, subspace: &ErrorSubspace) -> io::Result<()> {
    atomic_write(path, &subspace_to_bytes(subspace))
}

/// Decode an error subspace from raw file bytes (v2 or legacy v1).
pub fn subspace_from_bytes(raw: &[u8]) -> io::Result<ErrorSubspace> {
    let (mut rest, _crc, v2) = open(raw, SUB_MAGIC_V2, SUB_MAGIC, "subspace")?;
    let (n, k) = take_dim(&mut rest)
        .zip(take_dim(&mut rest))
        .ok_or_else(|| malformed("subspace", v2, "truncated header"))?;
    let bytes = n.checked_mul(k).and_then(|nk| nk.checked_add(k)).and_then(|c| c.checked_mul(8));
    if bytes != Some(rest.len()) {
        return Err(malformed("subspace", v2, "size mismatch"));
    }
    let (variances, modes) = rest.split_at(8 * k);
    Ok(ErrorSubspace {
        modes: esse_linalg::Matrix::from_col_major(n, k, f64s(modes).collect()),
        variances: f64s(variances).collect(),
    })
}

/// Read an error subspace from `path`.
pub fn read_subspace(path: impl AsRef<Path>) -> io::Result<ErrorSubspace> {
    subspace_from_bytes(&fs::read(path)?)
}

/// `true` if `err` is the distinct corrupt-file error produced by the
/// checksum/version validation above (as opposed to "not an ESSE file"
/// or an ordinary I/O failure). Resume scans use this to decide between
/// quarantining a file and treating it as foreign.
pub fn is_corrupt_error(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::InvalidData && err.to_string().starts_with("corrupt ESSE")
}

#[cfg(test)]
mod tests {
    use super::*;
    use esse_core::durable::tmp_path;
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
    fn legacy_v1_vector_still_readable() {
        // Hand-build a v1 file: magic + len + payload, no checksum.
        let data = [3.5f64, -0.75, 42.0];
        let mut raw = Vec::new();
        raw.extend_from_slice(&VEC_MAGIC.to_le_bytes());
        raw.extend_from_slice(&(data.len() as u64).to_le_bytes());
        for v in data {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        let p = tmp("legacy-vec");
        std::fs::write(&p, &raw).unwrap();
        assert_eq!(read_vector(&p).unwrap(), data);
    }

    #[test]
    fn legacy_v1_subspace_still_readable() {
        let modes = Matrix::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        let mut raw = Vec::new();
        raw.extend_from_slice(&SUB_MAGIC.to_le_bytes());
        raw.extend_from_slice(&3u64.to_le_bytes());
        raw.extend_from_slice(&2u64.to_le_bytes());
        for v in [2.0f64, 0.5] {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        for j in 0..2 {
            for &v in modes.col(j) {
                raw.extend_from_slice(&v.to_le_bytes());
            }
        }
        let p = tmp("legacy-sub");
        std::fs::write(&p, &raw).unwrap();
        let back = read_subspace(&p).unwrap();
        assert_eq!(back.variances, vec![2.0, 0.5]);
        assert_eq!(back.modes, modes);
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
