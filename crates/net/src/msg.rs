//! Protocol messages carried inside frames.
//!
//! Every message body is `type byte + fields`, fields in fixed order,
//! integers little-endian, strings and blobs length-prefixed with a
//! `u32`, written and read through the workspace's one byte codec
//! ([`esse_obs::codec`]). Pool records inside a message use the same
//! field encoding as their on-disk form
//! ([`esse_mtc::pool::Record::put`]/[`get`](esse_mtc::pool::Record::get)).
//! The conversation is strictly worker-initiated request/response over
//! one connection:
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

use esse_mtc::pool::{Heartbeat, PoolManifest, Record, ResultRecord, TaskSpec};
use esse_obs::codec::{CodecError, Reader, Writer};

/// Protocol revision; bumped on any wire-incompatible change. A
/// coordinator rejects a `Hello` carrying any other value.
/// (v2: `Result` carries the validator reason code; `Rejected` added.
/// v3: `Welcome` carries the central forecast.)
pub const PROTO_VERSION: u32 = 3;

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
    /// (raw bytes of `mean.vec`, `prior.sub` and `fc_central.vec`) a
    /// remote scratch workdir needs to run `pert`/`pemodel` and build
    /// the coordinator's semantic gate.
    Welcome {
        /// The run-wide manifest.
        manifest: PoolManifest,
        /// Raw bytes of the ensemble mean file.
        mean: Vec<u8>,
        /// Raw bytes of the prior subspace file.
        prior: Vec<u8>,
        /// Raw bytes of the central forecast file (empty when the
        /// coordinator's workdir has none).
        central: Vec<u8>,
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

/// Why a frame body failed to decode as a message: the shared codec's
/// error, under the name this crate has always exported.
pub type MsgError = CodecError;

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

impl Message {
    /// Encode into a frame body (type byte first).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        match self {
            Message::Hello { proto, worker_id, pid, config_hash } => {
                w.u8(T_HELLO);
                w.u32(*proto);
                w.u64(*worker_id);
                w.u32(*pid);
                w.u64(*config_hash);
            }
            Message::Welcome { manifest, mean, prior, central } => {
                w.u8(T_WELCOME);
                manifest.put(&mut w);
                w.blob(mean);
                w.blob(prior);
                w.blob(central);
            }
            Message::Reject { reason } => {
                w.u8(T_REJECT);
                w.blob(reason.as_bytes());
            }
            Message::Claim => w.u8(T_CLAIM),
            Message::Task { spec } => {
                w.u8(T_TASK);
                spec.put(&mut w);
            }
            Message::Idle => w.u8(T_IDLE),
            Message::Cancelled => w.u8(T_CANCELLED),
            Message::Shutdown => w.u8(T_SHUTDOWN),
            Message::Renew { spec, hb } => {
                w.u8(T_RENEW);
                spec.put(&mut w);
                hb.put(&mut w);
            }
            Message::RenewOk => w.u8(T_RENEW_OK),
            Message::Fenced => w.u8(T_FENCED),
            Message::Result { rec, payload_len } => {
                w.u8(T_RESULT);
                rec.put(&mut w);
                w.u64(*payload_len);
            }
            Message::Rejected { rec } => {
                w.u8(T_REJECTED);
                rec.put(&mut w);
            }
            Message::Data { chunk } => {
                w.u8(T_DATA);
                w.blob(chunk);
            }
            Message::ResultEnd => w.u8(T_RESULT_END),
            Message::ResultAck => w.u8(T_RESULT_ACK),
            Message::Release { spec } => {
                w.u8(T_RELEASE);
                spec.put(&mut w);
            }
            Message::ReleaseAck => w.u8(T_RELEASE_ACK),
            Message::Query => w.u8(T_QUERY),
            Message::RunInfo { cancelled, shutdown } => {
                w.u8(T_RUN_INFO);
                w.u8(u8::from(*cancelled));
                w.u8(u8::from(*shutdown));
            }
            Message::Trace { bytes } => {
                w.u8(T_TRACE);
                w.blob(bytes);
            }
            Message::TraceAck { server_ns } => {
                w.u8(T_TRACE_ACK);
                w.u64(*server_ns);
            }
        }
        w.into_bytes()
    }

    /// Decode a frame body. The whole body must be consumed.
    pub fn decode(body: &[u8]) -> Result<Message, MsgError> {
        let mut r = Reader::new(body);
        let r = &mut r;
        let msg = match r.u8()? {
            T_HELLO => Message::Hello {
                proto: r.u32()?,
                worker_id: r.u64()?,
                pid: r.u32()?,
                config_hash: r.u64()?,
            },
            T_WELCOME => Message::Welcome {
                manifest: PoolManifest::get(r)?,
                mean: r.blob()?.to_vec(),
                prior: r.blob()?.to_vec(),
                central: r.blob()?.to_vec(),
            },
            T_REJECT => Message::Reject { reason: r.string()? },
            T_CLAIM => Message::Claim,
            T_TASK => Message::Task { spec: TaskSpec::get(r)? },
            T_IDLE => Message::Idle,
            T_CANCELLED => Message::Cancelled,
            T_SHUTDOWN => Message::Shutdown,
            T_RENEW => Message::Renew { spec: TaskSpec::get(r)?, hb: Heartbeat::get(r)? },
            T_RENEW_OK => Message::RenewOk,
            T_FENCED => Message::Fenced,
            T_RESULT => Message::Result { rec: ResultRecord::get(r)?, payload_len: r.u64()? },
            T_REJECTED => Message::Rejected { rec: ResultRecord::get(r)? },
            T_DATA => Message::Data { chunk: r.blob()?.to_vec() },
            T_RESULT_END => Message::ResultEnd,
            T_RESULT_ACK => Message::ResultAck,
            T_RELEASE => Message::Release { spec: TaskSpec::get(r)? },
            T_RELEASE_ACK => Message::ReleaseAck,
            T_QUERY => Message::Query,
            T_RUN_INFO => Message::RunInfo { cancelled: r.u8()? != 0, shutdown: r.u8()? != 0 },
            T_TRACE => Message::Trace { bytes: r.blob()?.to_vec() },
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
                central: vec![4; 10],
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
