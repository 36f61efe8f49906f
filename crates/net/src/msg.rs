//! Protocol messages carried inside frames.
//!
//! Every message body is `type byte + fields`, fields in fixed order,
//! integers little-endian, strings and blobs length-prefixed with a
//! `u32`. The conversation is strictly worker-initiated
//! request/response over one connection:
//!
//! ```text
//! worker                          coordinator
//!   | -- Hello ------------------------> |   (proto + config handshake)
//!   | <------------- Welcome / Reject -- |   (manifest + staged inputs)
//!   | -- Claim ------------------------> |
//!   | <-- Task / Idle / Cancelled / Shutdown
//!   | -- Renew ------------------------> |   (from the task wait loop)
//!   | <----------- RenewOk / Fenced ---- |
//!   | -- Result, Data*, ResultEnd -----> |   (forecast streamed in chunks)
//!   | <--------- ResultAck / Fenced ---- |
//!   | -- Rejected ---------------------> |   (self-check quarantine, no payload)
//!   | <--------- ResultAck / Fenced ---- |
//!   | -- Release ----------------------> |
//!   | <------------------ ReleaseAck --- |
//!   | -- Query ------------------------> |   (mid-task tombstone poll)
//!   | <--------------------- RunInfo --- |
//! ```
//!
//! Fencing information rides the replies: `Fenced` to a `Renew` or a
//! result stream tells a worker its claim was requeued under a higher
//! epoch. The reply is advisory — the coordinator's own epoch check on
//! ingest remains the only authority on staleness.

use crate::frame::MAX_FRAME;
use esse_mtc::pool::{Heartbeat, PoolManifest, ResultRecord, TaskSpec};
use std::fmt;

/// Protocol revision; bumped on any wire-incompatible change. A
/// coordinator rejects a `Hello` carrying any other value.
/// (v2: `Result` carries the validator reason code; `Rejected` added.)
pub const PROTO_VERSION: u32 = 2;

/// Preferred chunk size for `Data` frames of a result stream.
pub const DATA_CHUNK: usize = 256 * 1024;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker introduces itself and proves config compatibility.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        proto: u32,
        /// Worker identity for logs and heartbeat records.
        worker_id: u64,
        /// Worker OS pid, recorded into heartbeats and results.
        pid: u32,
        /// Hash of the run config the worker expects (0 = accept any).
        config_hash: u64,
    },
    /// Coordinator accepts: the run manifest plus the staged inputs
    /// (raw bytes of `mean.vec` and `prior.sub`) a remote scratch
    /// workdir needs before `pert`/`pemodel` can run.
    Welcome {
        /// The run-wide manifest.
        manifest: PoolManifest,
        /// Raw bytes of the ensemble mean file.
        mean: Vec<u8>,
        /// Raw bytes of the prior subspace file.
        prior: Vec<u8>,
    },
    /// Coordinator refuses the handshake.
    Reject {
        /// Human-readable reason.
        reason: String,
    },
    /// Ask for the lowest pending task.
    Claim,
    /// A task was claimed for this worker.
    Task {
        /// The claimed task.
        spec: TaskSpec,
    },
    /// Nothing claimable right now.
    Idle,
    /// The run converged; stop working.
    Cancelled,
    /// The run is over; exit.
    Shutdown,
    /// Renew the lease on a held claim.
    Renew {
        /// The held claim.
        spec: TaskSpec,
        /// Monotonic heartbeat.
        hb: Heartbeat,
    },
    /// Lease renewed.
    RenewOk,
    /// Advisory: the claim is no longer current.
    Fenced,
    /// Opens a result stream; `payload_len` bytes of `Data` follow,
    /// then `ResultEnd`.
    Result {
        /// The result record to publish.
        rec: ResultRecord,
        /// Total forecast payload bytes that will be streamed (0 for
        /// failure results, which carry no forecast).
        payload_len: u64,
    },
    /// A worker self-check rejection: the forecast failed semantic
    /// validation *before* publish, so no payload is streamed — only
    /// the typed record (`code == CODE_REJECTED`, `reason` set) is
    /// published, saving the upload.
    Rejected {
        /// The rejection record to publish.
        rec: ResultRecord,
    },
    /// One chunk of a result payload.
    Data {
        /// Raw forecast bytes.
        chunk: Vec<u8>,
    },
    /// Closes a result stream.
    ResultEnd,
    /// Result staged and published.
    ResultAck,
    /// Drop a claim without publishing.
    Release {
        /// The claim to drop.
        spec: TaskSpec,
    },
    /// Claim dropped.
    ReleaseAck,
    /// Poll tombstone state mid-task.
    Query,
    /// Tombstone state.
    RunInfo {
        /// CANCEL tombstone present.
        cancelled: bool,
        /// SHUTDOWN tombstone present.
        shutdown: bool,
    },
    /// Ship an encoded span batch (`esse_obs::fleet::SpanBatch` bytes,
    /// self-framed with their own magic + CRC) to the coordinator. The
    /// server persists it as a trace sidecar next to the results;
    /// shipping is idempotent, so an exchange retry after a reconnect
    /// just rewrites the same sidecar.
    Trace {
        /// Encoded span batch, opaque to the protocol layer.
        bytes: Vec<u8>,
    },
    /// Span batch persisted. Carries the coordinator's receive stamp so
    /// the worker could tighten its own skew estimate if it cared.
    TraceAck {
        /// Coordinator clock at ingest, nanoseconds.
        server_ns: u64,
    },
}

/// Why a frame body failed to decode as a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgError {
    /// Body ended before the message did.
    Truncated,
    /// Unknown type byte.
    BadType(u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// Bytes left over after the message.
    TrailingBytes(usize),
    /// A length-prefixed field exceeded the frame cap.
    FieldTooLarge(usize),
}

impl fmt::Display for MsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgError::Truncated => write!(f, "message body truncated"),
            MsgError::BadType(t) => write!(f, "unknown message type {t:#04x}"),
            MsgError::BadUtf8 => write!(f, "string field is not utf-8"),
            MsgError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            MsgError::FieldTooLarge(n) => write!(f, "field of {n} bytes exceeds frame cap"),
        }
    }
}

impl std::error::Error for MsgError {}

impl From<MsgError> for std::io::Error {
    fn from(e: MsgError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

const T_HELLO: u8 = 0x01;
const T_WELCOME: u8 = 0x02;
const T_REJECT: u8 = 0x03;
const T_CLAIM: u8 = 0x04;
const T_TASK: u8 = 0x05;
const T_IDLE: u8 = 0x06;
const T_CANCELLED: u8 = 0x07;
const T_SHUTDOWN: u8 = 0x08;
const T_RENEW: u8 = 0x09;
const T_RENEW_OK: u8 = 0x0A;
const T_FENCED: u8 = 0x0B;
const T_RESULT: u8 = 0x0C;
const T_DATA: u8 = 0x0D;
const T_RESULT_END: u8 = 0x0E;
const T_RESULT_ACK: u8 = 0x0F;
const T_RELEASE: u8 = 0x10;
const T_RELEASE_ACK: u8 = 0x11;
const T_QUERY: u8 = 0x12;
const T_RUN_INFO: u8 = 0x13;
const T_TRACE: u8 = 0x14;
const T_TRACE_ACK: u8 = 0x15;
const T_REJECTED: u8 = 0x16;

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], MsgError> {
        if self.pos + n > self.buf.len() {
            return Err(MsgError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, MsgError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, MsgError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, MsgError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, MsgError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, MsgError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn blob(&mut self) -> Result<Vec<u8>, MsgError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME {
            return Err(MsgError::FieldTooLarge(n));
        }
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, MsgError> {
        String::from_utf8(self.blob()?).map_err(|_| MsgError::BadUtf8)
    }

    fn done(&self) -> Result<(), MsgError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(MsgError::TrailingBytes(n)),
        }
    }
}

fn put_blob(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_spec(out: &mut Vec<u8>, spec: &TaskSpec) {
    out.extend_from_slice(&spec.member.to_le_bytes());
    out.extend_from_slice(&spec.epoch.to_le_bytes());
    out.extend_from_slice(&spec.seed.to_le_bytes());
    out.extend_from_slice(&spec.parent_span.to_le_bytes());
}

fn get_spec(r: &mut Reader<'_>) -> Result<TaskSpec, MsgError> {
    Ok(TaskSpec { member: r.u64()?, epoch: r.u32()?, seed: r.u64()?, parent_span: r.u64()? })
}

fn put_rec(out: &mut Vec<u8>, rec: &ResultRecord) {
    out.extend_from_slice(&rec.member.to_le_bytes());
    out.extend_from_slice(&rec.epoch.to_le_bytes());
    out.extend_from_slice(&rec.code.to_le_bytes());
    out.extend_from_slice(&rec.pid.to_le_bytes());
    out.extend_from_slice(&rec.fc_crc.to_le_bytes());
    out.extend_from_slice(&rec.reason.to_le_bytes());
}

fn get_rec(r: &mut Reader<'_>) -> Result<ResultRecord, MsgError> {
    Ok(ResultRecord {
        member: r.u64()?,
        epoch: r.u32()?,
        code: r.i32()?,
        pid: r.u32()?,
        fc_crc: r.u32()?,
        reason: r.u32()?,
    })
}

impl Message {
    /// Encode into a frame body (type byte first).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            Message::Hello { proto, worker_id, pid, config_hash } => {
                out.push(T_HELLO);
                out.extend_from_slice(&proto.to_le_bytes());
                out.extend_from_slice(&worker_id.to_le_bytes());
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&config_hash.to_le_bytes());
            }
            Message::Welcome { manifest, mean, prior } => {
                out.push(T_WELCOME);
                put_blob(&mut out, manifest.domain.as_bytes());
                out.extend_from_slice(&manifest.hours.to_le_bytes());
                out.extend_from_slice(&manifest.white_noise.to_le_bytes());
                out.extend_from_slice(&manifest.base_seed.to_le_bytes());
                out.extend_from_slice(&manifest.lease_ms.to_le_bytes());
                out.extend_from_slice(&manifest.config_hash.to_le_bytes());
                out.extend_from_slice(&manifest.trace_run_id.to_le_bytes());
                put_blob(&mut out, mean);
                put_blob(&mut out, prior);
            }
            Message::Reject { reason } => {
                out.push(T_REJECT);
                put_blob(&mut out, reason.as_bytes());
            }
            Message::Claim => out.push(T_CLAIM),
            Message::Task { spec } => {
                out.push(T_TASK);
                put_spec(&mut out, spec);
            }
            Message::Idle => out.push(T_IDLE),
            Message::Cancelled => out.push(T_CANCELLED),
            Message::Shutdown => out.push(T_SHUTDOWN),
            Message::Renew { spec, hb } => {
                out.push(T_RENEW);
                put_spec(&mut out, spec);
                out.extend_from_slice(&hb.pid.to_le_bytes());
                out.extend_from_slice(&hb.counter.to_le_bytes());
            }
            Message::RenewOk => out.push(T_RENEW_OK),
            Message::Fenced => out.push(T_FENCED),
            Message::Result { rec, payload_len } => {
                out.push(T_RESULT);
                put_rec(&mut out, rec);
                out.extend_from_slice(&payload_len.to_le_bytes());
            }
            Message::Rejected { rec } => {
                out.push(T_REJECTED);
                put_rec(&mut out, rec);
            }
            Message::Data { chunk } => {
                out.push(T_DATA);
                put_blob(&mut out, chunk);
            }
            Message::ResultEnd => out.push(T_RESULT_END),
            Message::ResultAck => out.push(T_RESULT_ACK),
            Message::Release { spec } => {
                out.push(T_RELEASE);
                put_spec(&mut out, spec);
            }
            Message::ReleaseAck => out.push(T_RELEASE_ACK),
            Message::Query => out.push(T_QUERY),
            Message::RunInfo { cancelled, shutdown } => {
                out.push(T_RUN_INFO);
                out.push(u8::from(*cancelled));
                out.push(u8::from(*shutdown));
            }
            Message::Trace { bytes } => {
                out.push(T_TRACE);
                put_blob(&mut out, bytes);
            }
            Message::TraceAck { server_ns } => {
                out.push(T_TRACE_ACK);
                out.extend_from_slice(&server_ns.to_le_bytes());
            }
        }
        out
    }

    /// Decode a frame body. The whole body must be consumed.
    pub fn decode(body: &[u8]) -> Result<Message, MsgError> {
        let mut r = Reader::new(body);
        let msg = match r.u8()? {
            T_HELLO => Message::Hello {
                proto: r.u32()?,
                worker_id: r.u64()?,
                pid: r.u32()?,
                config_hash: r.u64()?,
            },
            T_WELCOME => {
                let domain = r.string()?;
                let hours = r.f64()?;
                let white_noise = r.f64()?;
                let base_seed = r.u64()?;
                let lease_ms = r.u64()?;
                let config_hash = r.u64()?;
                let trace_run_id = r.u64()?;
                let mean = r.blob()?;
                let prior = r.blob()?;
                Message::Welcome {
                    manifest: PoolManifest {
                        domain,
                        hours,
                        white_noise,
                        base_seed,
                        lease_ms,
                        config_hash,
                        trace_run_id,
                    },
                    mean,
                    prior,
                }
            }
            T_REJECT => Message::Reject { reason: r.string()? },
            T_CLAIM => Message::Claim,
            T_TASK => Message::Task { spec: get_spec(&mut r)? },
            T_IDLE => Message::Idle,
            T_CANCELLED => Message::Cancelled,
            T_SHUTDOWN => Message::Shutdown,
            T_RENEW => Message::Renew {
                spec: get_spec(&mut r)?,
                hb: Heartbeat { pid: r.u32()?, counter: r.u64()? },
            },
            T_RENEW_OK => Message::RenewOk,
            T_FENCED => Message::Fenced,
            T_RESULT => Message::Result { rec: get_rec(&mut r)?, payload_len: r.u64()? },
            T_REJECTED => Message::Rejected { rec: get_rec(&mut r)? },
            T_DATA => Message::Data { chunk: r.blob()? },
            T_RESULT_END => Message::ResultEnd,
            T_RESULT_ACK => Message::ResultAck,
            T_RELEASE => Message::Release { spec: get_spec(&mut r)? },
            T_RELEASE_ACK => Message::ReleaseAck,
            T_QUERY => Message::Query,
            T_RUN_INFO => Message::RunInfo { cancelled: r.u8()? != 0, shutdown: r.u8()? != 0 },
            T_TRACE => Message::Trace { bytes: r.blob()? },
            T_TRACE_ACK => Message::TraceAck { server_ns: r.u64()? },
            t => return Err(MsgError::BadType(t)),
        };
        r.done()?;
        Ok(msg)
    }

    /// Short name for logs and trace events.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Welcome { .. } => "welcome",
            Message::Reject { .. } => "reject",
            Message::Claim => "claim",
            Message::Task { .. } => "task",
            Message::Idle => "idle",
            Message::Cancelled => "cancelled",
            Message::Shutdown => "shutdown",
            Message::Renew { .. } => "renew",
            Message::RenewOk => "renew_ok",
            Message::Fenced => "fenced",
            Message::Result { .. } => "result",
            Message::Rejected { .. } => "rejected",
            Message::Data { .. } => "data",
            Message::ResultEnd => "result_end",
            Message::ResultAck => "result_ack",
            Message::Release { .. } => "release",
            Message::ReleaseAck => "release_ack",
            Message::Query => "query",
            Message::RunInfo { .. } => "run_info",
            Message::Trace { .. } => "trace",
            Message::TraceAck { .. } => "trace_ack",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello { proto: PROTO_VERSION, worker_id: 7, pid: 4242, config_hash: 0xC0DE },
            Message::Welcome {
                manifest: PoolManifest {
                    domain: "monterey:10,10,3".into(),
                    hours: 24.0,
                    white_noise: 0.01,
                    base_seed: 0x5EED,
                    lease_ms: 1200,
                    config_hash: 0xC0DE,
                    trace_run_id: 0xBEEF_0001,
                },
                mean: vec![1, 2, 3],
                prior: vec![9; 100],
            },
            Message::Reject { reason: "config hash mismatch".into() },
            Message::Claim,
            Message::Task { spec: TaskSpec { member: 3, epoch: 2, seed: 99, parent_span: 0xA1 } },
            Message::Idle,
            Message::Cancelled,
            Message::Shutdown,
            Message::Renew {
                spec: TaskSpec { member: 3, epoch: 2, seed: 99, parent_span: 0xA1 },
                hb: Heartbeat { pid: 4242, counter: 17 },
            },
            Message::RenewOk,
            Message::Fenced,
            Message::Result {
                rec: ResultRecord {
                    member: 3,
                    epoch: 2,
                    code: 0,
                    pid: 4242,
                    fc_crc: 0xFEED,
                    reason: 0,
                },
                payload_len: 2400,
            },
            Message::Rejected {
                rec: ResultRecord {
                    member: 4,
                    epoch: 1,
                    code: esse_mtc::pool::CODE_REJECTED,
                    pid: 4242,
                    fc_crc: 0,
                    reason: 1,
                },
            },
            Message::Data { chunk: vec![0xAB; 64] },
            Message::ResultEnd,
            Message::ResultAck,
            Message::Release { spec: TaskSpec { member: 3, epoch: 2, seed: 99, parent_span: 0 } },
            Message::ReleaseAck,
            Message::Query,
            Message::RunInfo { cancelled: true, shutdown: false },
            Message::Trace { bytes: vec![0x45, 0x53, 0x54, 0x42, 1, 2, 3] },
            Message::TraceAck { server_ns: 123_456_789 },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            let body = msg.encode();
            let back = Message::decode(&body).unwrap_or_else(|e| panic!("{}: {e}", msg.name()));
            assert_eq!(back, msg, "{} did not roundtrip", msg.name());
        }
    }

    #[test]
    fn truncation_at_every_byte_errors_cleanly() {
        for msg in sample_messages() {
            let body = msg.encode();
            for cut in 0..body.len() {
                let err = Message::decode(&body[..cut]);
                assert!(err.is_err(), "{} decoded from a {cut}-byte prefix", msg.name());
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Message::Claim.encode();
        body.push(0);
        assert_eq!(Message::decode(&body), Err(MsgError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_type_byte_is_rejected() {
        assert_eq!(Message::decode(&[0xEE]), Err(MsgError::BadType(0xEE)));
        assert_eq!(Message::decode(&[]), Err(MsgError::Truncated));
    }

    #[test]
    fn negative_exit_codes_survive_the_wire() {
        let msg = Message::Result {
            rec: ResultRecord { member: 0, epoch: 1, code: -9, pid: 1, fc_crc: 0, reason: 0 },
            payload_len: 0,
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }
}
