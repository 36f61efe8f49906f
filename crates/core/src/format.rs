//! The byte formats of a state vector (`ESV2`) and an error subspace
//! (`ESS2`): the one encoding of each, whether it sits in a workdir
//! file (`esse::fileio`), a member checkpoint blob or the safe/live
//! covariance payload (`esse-mtc`), or a staged input on the wire.
//!
//! Both are sealed envelopes ([`crate::durable::codec`]) of version
//! [`FORMAT_VERSION`]: `u64` dimension words, then little-endian `f64`s
//! (a subspace stores its variances, then its modes column-major). A
//! truncated or bit-flipped file fails with a distinct `"corrupt ESSE …"`
//! error ([`is_corrupt_error`]) instead of being silently ingested;
//! bytes of another format are merely "not an ESSE … file".

use crate::durable::codec::{magic, seal, trailer, unseal, CodecError};
use crate::subspace::ErrorSubspace;
use std::io;

/// Format version written after the magic.
pub const FORMAT_VERSION: u8 = 2;

/// Foreign bytes are `InvalidData`; anything wrong with bytes that do
/// carry the magic is a *corrupt file* — torn or flipped, not misnamed —
/// so a resume scan knows to quarantine it.
fn invalid(what: &str, e: CodecError) -> io::Error {
    let msg = match e {
        CodecError::WrongMagic => format!("not an ESSE {what} file"),
        e => format!("corrupt ESSE {what} file: {e}"),
    };
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Encode a state vector.
pub fn vector_to_bytes(data: &[f64]) -> Vec<u8> {
    seal(magic::VECTOR, FORMAT_VERSION, |w| {
        w.reserve(12 + 8 * data.len());
        w.u64(data.len() as u64);
        w.f64s(data);
    })
}

/// Decode a state vector together with its CRC-32 trailer — the
/// fingerprint a worker publishes in its pool result record so the
/// coordinator can cross-check that the forecast it ingests is the one
/// the worker validated.
pub fn vector_from_bytes_with_crc(raw: &[u8]) -> io::Result<(Vec<f64>, u32)> {
    unseal(magic::VECTOR, FORMAT_VERSION, raw, |r| {
        let n = r.count()?;
        Ok((r.f64s(n)?, trailer(raw)?))
    })
    .map_err(|e| invalid("vector", e))
}

/// Decode a state vector.
pub fn vector_from_bytes(raw: &[u8]) -> io::Result<Vec<f64>> {
    vector_from_bytes_with_crc(raw).map(|(data, _)| data)
}

/// Encode an error subspace (modes + variances).
pub fn subspace_to_bytes(subspace: &ErrorSubspace) -> Vec<u8> {
    let (n, k) = subspace.modes.shape();
    seal(magic::SUBSPACE, FORMAT_VERSION, |w| {
        w.reserve(20 + 8 * (k + n * k));
        w.u64(n as u64);
        w.u64(k as u64);
        w.f64s(&subspace.variances);
        w.f64s(subspace.modes.as_slice());
    })
}

/// Decode an error subspace.
pub fn subspace_from_bytes(raw: &[u8]) -> io::Result<ErrorSubspace> {
    unseal(magic::SUBSPACE, FORMAT_VERSION, raw, |r| {
        let (n, k) = (r.count()?, r.count()?);
        let variances = r.f64s(k)?;
        let modes = r.f64s(n.checked_mul(k).ok_or(CodecError::FieldTooLarge(n))?)?;
        Ok(ErrorSubspace { modes: esse_linalg::Matrix::from_col_major(n, k, modes), variances })
    })
    .map_err(|e| invalid("subspace", e))
}

/// `true` if `err` is the distinct corrupt-file error produced by the
/// checksum/version/length validation above (as opposed to "not an ESSE
/// file" or an ordinary I/O failure). Resume scans use this to decide
/// between quarantining a file and treating it as foreign.
pub fn is_corrupt_error(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::InvalidData && err.to_string().starts_with("corrupt ESSE")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    /// The posterior's format is pinned, not just self-consistent:
    /// these are the bytes every build since format v2 has written.
    #[test]
    fn vector_and_subspace_bytes_are_pinned() {
        let vector = unhex(
            "32565345020300000000000000000000000000f83f00000000000002c0000000000000000068026ad4",
        );
        assert_eq!(vector_to_bytes(&[1.5, -2.25, 0.0]), vector);
        assert_eq!(vector_from_bytes(&vector).unwrap(), [1.5, -2.25, 0.0]);

        let subspace = ErrorSubspace {
            modes: esse_linalg::Matrix::from_col_major(3, 2, vec![1.0, 0.0, 0.0, 0.0, 0.5, -0.5]),
            variances: vec![4.0, 0.25],
        };
        let bytes = unhex(
            "3253534502030000000000000002000000000000000000000000001040000000000000d03f\
             000000000000f03f000000000000000000000000000000000000000000000000\
             000000000000e03f000000000000e0bf61aaea4c",
        );
        assert_eq!(subspace_to_bytes(&subspace), bytes);
        let back = subspace_from_bytes(&bytes).unwrap();
        assert_eq!((back.modes, back.variances), (subspace.modes, subspace.variances));
    }
}
