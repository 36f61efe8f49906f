//! The one byte codec of the workspace: a bounds-checked little-endian
//! [`Reader`]/[`Writer`], the sealed envelope ([`seal`]/[`unseal`]) and
//! the stream [`frame`].
//!
//! Every durable or wire format is built from these three pieces, so
//! "arbitrary bytes yield `Err`, never a panic" is proved once, here
//! (`crates/net/tests/codec_props.rs` is the mutation suite):
//!
//! ```text
//! envelope      magic[4] | version u8 | payload | crc32(all preceding)
//! stream frame  len u32  | body (len bytes)     | crc32(body)
//! ```
//!
//! A file that stands alone (a vector, a pool record, a covariance
//! frame, a span batch) is an envelope; a record in a sequence (a wire
//! message, a journal entry) is a stream frame. Decoders never allocate
//! from a length word before the bytes it promises are known to exist.
//! Like [`crate::crc`], this lives in `esse-obs` because every codec
//! crate already depends on it; `esse_core::durable` re-exports it.

use crate::crc::crc32;
use std::fmt;

/// Every format magic, so a collision is a compile-time-visible fact
/// (two formats once shared `ESTB`) and one test can prove them
/// pairwise distinct.
pub mod magic {
    /// State vector file (`ESV2` as a little-endian word).
    pub const VECTOR: [u8; 4] = 0x4553_5632_u32.to_le_bytes();
    /// Error-subspace file (`ESS2` as a little-endian word).
    pub const SUBSPACE: [u8; 4] = 0x4553_5332_u32.to_le_bytes();
    /// Pool manifest.
    pub const MANIFEST: [u8; 4] = *b"ESPM";
    /// Pool task record.
    pub const TASK: [u8; 4] = *b"ESTK";
    /// Pool result record.
    pub const RESULT: [u8; 4] = *b"ESRS";
    /// Pool heartbeat.
    pub const HEARTBEAT: [u8; 4] = *b"ESHB";
    /// Safe/live covariance frame (triple buffer).
    pub const COVARIANCE: [u8; 4] = *b"ESTB";
    /// Worker span batch (trace sidecar / `Trace` message).
    pub const SPAN_BATCH: [u8; 4] = *b"ESSP";
    /// Run-journal header; the format version byte follows it.
    pub const JOURNAL: [u8; 7] = *b"ESSEJNL";

    /// Every envelope magic with its format's name.
    pub const ENVELOPES: [(&str, [u8; 4]); 8] = [
        ("vector", VECTOR),
        ("subspace", SUBSPACE),
        ("manifest", MANIFEST),
        ("task", TASK),
        ("result", RESULT),
        ("heartbeat", HEARTBEAT),
        ("covariance", COVARIANCE),
        ("span batch", SPAN_BATCH),
    ];
}

/// Why bytes failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    Truncated,
    /// Bytes left over after the value.
    TrailingBytes(usize),
    /// A length or count word exceeded its cap.
    FieldTooLarge(usize),
    /// A string field was not UTF-8.
    BadUtf8,
    /// Unknown type, kind or tag byte.
    BadType(u8),
    /// The envelope belongs to another format (or is not one at all).
    WrongMagic,
    /// The envelope's CRC-32 trailer does not match its bytes.
    Checksum,
    /// The envelope is intact but of a version this build does not read.
    BadVersion(u8),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            CodecError::FieldTooLarge(n) => write!(f, "field of {n} exceeds its cap"),
            CodecError::BadUtf8 => write!(f, "string field is not utf-8"),
            CodecError::BadType(t) => write!(f, "unknown type byte {t:#04x}"),
            CodecError::WrongMagic => write!(f, "wrong magic"),
            CodecError::Checksum => write!(f, "checksum mismatch"),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Little-endian field writer over a growing buffer.
#[derive(Debug)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Writer {
        Writer(Vec::with_capacity(n))
    }

    /// Make room for `n` more bytes (large payloads: one allocation).
    pub fn reserve(&mut self, n: usize) {
        self.0.reserve(n);
    }

    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// `i32`, little-endian.
    pub fn i32(&mut self, v: i32) {
        self.bytes(&v.to_le_bytes());
    }

    /// `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// `f64` bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Bytes behind a `u32` length prefix (the pair of [`Reader::blob`]).
    pub fn blob(&mut self, b: &[u8]) {
        let n = u32::try_from(b.len()).expect("blob longer than u32::MAX");
        self.u32(n);
        self.bytes(b);
    }

    /// A whole `f64` slice, no length prefix: one resize and a chunked
    /// copy, not a call per element.
    pub fn f64s(&mut self, vs: &[f64]) {
        let start = self.0.len();
        self.0.resize(start + 8 * vs.len(), 0);
        let (chunks, _) = self.0[start..].as_chunks_mut::<8>();
        for (dst, v) in chunks.iter_mut().zip(vs) {
            *dst = v.to_le_bytes();
        }
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

/// Bounds-checked little-endian field reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// Read `buf` from its first byte.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader(buf)
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, tail) = self.0.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.0 = tail;
        Ok(head)
    }

    /// The next `N` bytes as an array (for `from_le_bytes`).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, tail) = self.0.split_first_chunk::<N>().ok_or(CodecError::Truncated)?;
        self.0 = tail;
        Ok(*head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// `i32`, little-endian.
    pub fn i32(&mut self) -> Result<i32, CodecError> {
        self.array().map(i32::from_le_bytes)
    }

    /// `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// `f64` bit pattern, little-endian.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u64` length or count word as a `usize`. Not yet trusted:
    /// [`Reader::take`] and [`Reader::f64s`] check it against the bytes
    /// actually present before anything is sized by it.
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()?;
        usize::try_from(n).map_err(|_| CodecError::FieldTooLarge(usize::MAX))
    }

    /// Bytes behind a `u32` length prefix. Borrowed from the input, so
    /// the length word is capped by the bytes actually present and can
    /// never size an allocation.
    pub fn blob(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A UTF-8 string behind a `u32` length prefix.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        self.str(n).map(str::to_string)
    }

    /// The next `n` bytes as UTF-8.
    pub fn str(&mut self, n: usize) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::BadUtf8)
    }

    /// `n` `f64`s. The bytes are bounds-checked before the vector is
    /// allocated, so `n` cannot size an allocation the input does not
    /// back.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        let bytes = self.take(n.checked_mul(8).ok_or(CodecError::FieldTooLarge(n))?)?;
        Ok(bytes.as_chunks::<8>().0.iter().map(|c| f64::from_le_bytes(*c)).collect())
    }

    /// Every byte must have been consumed: one value, no trailing junk.
    pub fn done(&self) -> Result<(), CodecError> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

/// Seal a payload into an envelope: `magic | version | payload | crc`,
/// the CRC-32 covering every byte before it. `payload` writes straight
/// into the envelope's buffer, so a large body is laid down once.
pub fn seal(magic: [u8; 4], version: u8, payload: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::with_capacity(64);
    w.bytes(&magic);
    w.u8(version);
    payload(&mut w);
    w.u32(crc32(&w.0));
    w.0
}

/// Open an envelope and decode its payload with `get`, which must
/// consume it exactly. Checks run magic → CRC → version, so a file of
/// another format reports [`CodecError::WrongMagic`] and a damaged one
/// [`CodecError::Checksum`], whatever its other bytes say.
pub fn unseal<'a, T>(
    magic: [u8; 4],
    version: u8,
    raw: &'a [u8],
    get: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    if *raw.get(..4).ok_or(CodecError::Truncated)? != magic {
        return Err(CodecError::WrongMagic);
    }
    let (body, stored) = raw.split_last_chunk::<4>().ok_or(CodecError::Truncated)?;
    let mut r = Reader::new(body.get(4..).ok_or(CodecError::Truncated)?);
    let found = r.u8()?;
    if crc32(body) != u32::from_le_bytes(*stored) {
        return Err(CodecError::Checksum);
    }
    if found != version {
        return Err(CodecError::BadVersion(found));
    }
    let value = get(&mut r)?;
    r.done()?;
    Ok(value)
}

/// The CRC-32 trailer of an envelope, as stored. Meaningful once
/// [`unseal`] accepted the same bytes: the trailer then *is* the CRC of
/// everything before it, the fingerprint a worker publishes as `fc_crc`.
pub fn trailer(raw: &[u8]) -> Result<u32, CodecError> {
    raw.last_chunk::<4>().map(|c| u32::from_le_bytes(*c)).ok_or(CodecError::Truncated)
}

pub mod frame {
    //! The stream frame: `len u32 | body | crc32(body) u32` around an
    //! opaque, non-empty body (type byte + fields), little-endian.
    //!
    //! Wire messages (`esse_net`) and journal records (`esse_mtc`) are
    //! both sequences of these. [`split`] is a pure function of a byte
    //! buffer, so every failure mode is testable exhaustively:
    //! truncation at *any* byte yields [`FrameError::Truncated`], a
    //! length prefix above [`MAX_FRAME`] yields [`FrameError::TooLarge`]
    //! before a single body byte is trusted, and any corruption of the
    //! body or trailer yields [`FrameError::Corrupt`] with both CRCs.
    //! [`read_frame`]/[`write_frame`] adapt the same checks to a stream.

    use crate::crc::crc32;
    use std::fmt;
    use std::io::{self, Read, Write};

    /// Hard cap on the body length of a single frame.
    ///
    /// Large enough for a full forecast payload of any domain the
    /// binaries accept (the demo domains are a few thousand f64s; 8 MiB
    /// allows ~1M values), small enough that a corrupt length prefix
    /// cannot make a reader allocate unbounded memory.
    pub const MAX_FRAME: usize = 8 * 1024 * 1024;

    /// Bytes of overhead per frame (length prefix + CRC trailer).
    pub const FRAME_OVERHEAD: usize = 8;

    /// Why a buffer failed to decode as a frame.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FrameError {
        /// The buffer ends before the frame does; not an integrity
        /// failure, the reader simply needs more bytes.
        Truncated {
            /// Total bytes the full frame would occupy.
            needed: usize,
            /// Bytes actually available.
            have: usize,
        },
        /// The length prefix exceeds [`MAX_FRAME`]; the frame is
        /// rejected before any allocation or body read.
        TooLarge {
            /// The advertised body length.
            advertised: usize,
        },
        /// The CRC trailer does not match the body: bytes were damaged.
        Corrupt {
            /// CRC carried in the trailer.
            expected: u32,
            /// CRC recomputed over the received body.
            actual: u32,
        },
        /// The body is empty — every valid body carries at least a
        /// type byte.
        Empty,
    }

    impl fmt::Display for FrameError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                FrameError::Truncated { needed, have } => {
                    write!(f, "truncated frame: need {needed} bytes, have {have}")
                }
                FrameError::TooLarge { advertised } => {
                    write!(f, "frame body of {advertised} bytes exceeds cap of {MAX_FRAME}")
                }
                FrameError::Corrupt { expected, actual } => {
                    write!(f, "frame crc mismatch: trailer {expected:#010x}, body {actual:#010x}")
                }
                FrameError::Empty => write!(f, "empty frame body"),
            }
        }
    }

    impl std::error::Error for FrameError {}

    impl From<FrameError> for io::Error {
        fn from(e: FrameError) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, e)
        }
    }

    /// Encode one body into a self-delimiting frame.
    ///
    /// # Panics
    ///
    /// If `body` is empty or longer than [`MAX_FRAME`] — both are
    /// programming errors on the sending side, not runtime conditions.
    pub fn encode(body: &[u8]) -> Vec<u8> {
        assert!(!body.is_empty(), "refusing to encode an empty frame body");
        assert!(body.len() <= MAX_FRAME, "frame body of {} bytes exceeds cap", body.len());
        let mut out = Vec::with_capacity(body.len() + FRAME_OVERHEAD);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out
    }

    /// The body length a header promises, if it is one a frame may have.
    fn body_len(header: [u8; 4]) -> Result<usize, FrameError> {
        match u32::from_le_bytes(header) as usize {
            0 => Err(FrameError::Empty),
            len if len > MAX_FRAME => Err(FrameError::TooLarge { advertised: len }),
            len => Ok(len),
        }
    }

    /// Split `body | crc` (the bytes after a header promising
    /// `tail.len() - 4`) and verify the trailer.
    fn verified(tail: &[u8]) -> Result<&[u8], FrameError> {
        let (body, trailer) = tail.split_last_chunk::<4>().expect("caller sized the tail");
        let (expected, actual) = (u32::from_le_bytes(*trailer), crc32(body));
        if expected != actual {
            return Err(FrameError::Corrupt { expected, actual });
        }
        Ok(body)
    }

    /// Borrow the body of the first frame in `buf`, with the total
    /// number of bytes the frame occupies — a caller holding a buffer
    /// (a receive window, a journal file) drains it frame by frame.
    pub fn split(buf: &[u8]) -> Result<(&[u8], usize), FrameError> {
        let Some((header, rest)) = buf.split_first_chunk::<4>() else {
            return Err(FrameError::Truncated { needed: 4, have: buf.len() });
        };
        let total = body_len(*header)? + FRAME_OVERHEAD;
        let tail = rest
            .get(..total - 4)
            .ok_or(FrameError::Truncated { needed: total, have: buf.len() })?;
        Ok((verified(tail)?, total))
    }

    /// [`split`], with the body copied out.
    pub fn decode(buf: &[u8]) -> Result<(Vec<u8>, usize), FrameError> {
        split(buf).map(|(body, total)| (body.to_vec(), total))
    }

    /// Write one framed body to a stream.
    pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
        w.write_all(&encode(body))?;
        w.flush()
    }

    /// Read one framed body from a stream, verifying length and CRC.
    ///
    /// A clean EOF before the first header byte surfaces as
    /// [`io::ErrorKind::UnexpectedEof`]; integrity failures surface as
    /// [`io::ErrorKind::InvalidData`] wrapping the [`FrameError`].
    pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
        let mut header = [0u8; 4];
        r.read_exact(&mut header)?;
        let len = body_len(header)?;
        let mut tail = vec![0u8; len + 4];
        r.read_exact(&mut tail)?;
        verified(&tail)?;
        tail.truncate(len);
        Ok(tail)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn roundtrip_decodes_to_the_same_body() {
            let body = b"\x01hello, pool".to_vec();
            let frame = encode(&body);
            assert_eq!(frame.len(), body.len() + FRAME_OVERHEAD);
            let (decoded, consumed) = decode(&frame).unwrap();
            assert_eq!(decoded, body);
            assert_eq!(consumed, frame.len());
        }

        #[test]
        fn two_frames_drain_in_order() {
            let mut buf = encode(b"\x01first");
            buf.extend_from_slice(&encode(b"\x02second"));
            let (a, used) = decode(&buf).unwrap();
            assert_eq!(a, b"\x01first");
            let (b, _) = decode(&buf[used..]).unwrap();
            assert_eq!(b, b"\x02second");
        }

        #[test]
        fn truncation_at_every_byte_is_truncated_not_corrupt() {
            let frame = encode(b"\x03abcdef");
            for cut in 0..frame.len() {
                match decode(&frame[..cut]) {
                    Err(FrameError::Truncated { needed, have }) => {
                        assert_eq!(have, cut);
                        assert!(needed > cut);
                    }
                    other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
                }
            }
        }

        #[test]
        fn stream_roundtrip() {
            let mut wire = Vec::new();
            write_frame(&mut wire, b"\x04payload").unwrap();
            write_frame(&mut wire, b"\x05more").unwrap();
            let mut r = io::Cursor::new(wire);
            assert_eq!(read_frame(&mut r).unwrap(), b"\x04payload");
            assert_eq!(read_frame(&mut r).unwrap(), b"\x05more");
            assert_eq!(read_frame(&mut r).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        }

        #[test]
        fn oversized_length_prefix_is_rejected_before_reading_the_body() {
            let mut buf = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
            buf.extend_from_slice(&[0u8; 16]);
            assert!(matches!(decode(&buf), Err(FrameError::TooLarge { .. })));
            let mut r = io::Cursor::new(buf);
            assert_eq!(read_frame(&mut r).unwrap_err().kind(), io::ErrorKind::InvalidData);
        }

        #[test]
        fn zero_length_body_is_rejected() {
            let buf = 0u32.to_le_bytes().to_vec();
            assert_eq!(decode(&buf), Err(FrameError::Empty));
        }
    }
}
