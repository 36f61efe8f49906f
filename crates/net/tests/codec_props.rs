//! The seeded mutation suite for every durable and wire format.
//!
//! The shared pieces — byte `Reader`/`Writer`, sealed envelope, stream
//! frame (`esse_obs::codec`) — are damaged exhaustively: truncation at
//! any byte, any single bit flip, length words forced to their maximum.
//! Every outcome must be a distinct decode error, never a panic and
//! never a silently wrong value. Each format built on them (pool
//! records, journal stream, wire messages, span batch, covariance frame,
//! vector, subspace) then needs only a round-trip, a wrong-magic check
//! and re-sealed garbage payloads that reach its field decoder.

use esse_core::format::{
    subspace_from_bytes, subspace_to_bytes, vector_from_bytes, vector_to_bytes,
};
use esse_mtc::journal::{Journal, JournalRecord};
use esse_mtc::pool::{Heartbeat, PoolManifest, Record, ResultRecord, TaskSpec};
use esse_mtc::DiskTripleBuffer;
use esse_net::frame::{self, FrameError, FRAME_OVERHEAD, MAX_FRAME};
use esse_net::msg::{Message, PROTO_VERSION};
use esse_obs::codec::{magic, seal, unseal, CodecError, Reader, Writer};
use esse_obs::fleet::{RemoteEvent, RemoteKind, SpanBatch};
use esse_obs::ArgValue;

/// xorshift64* — deterministic, dependency-free case generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

const CASES: u64 = 64;

/// Every strict prefix and every single-bit flip of `bytes`.
fn damaged(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
    let flips = (0..bytes.len() * 8).map(|i| {
        let mut bad = bytes.to_vec();
        bad[i / 8] ^= 1 << (i % 8);
        bad
    });
    cuts.chain(flips)
}

/// `bytes` with a random window overwritten, or random bytes outright.
fn garbled(rng: &mut Rng, bytes: &[u8]) -> Vec<u8> {
    if rng.below(3) == 0 {
        let n = rng.below(2 * bytes.len() as u64 + 2) as usize;
        return rng.bytes(n);
    }
    let mut out = bytes.to_vec();
    if !out.is_empty() {
        let at = rng.below(out.len() as u64) as usize;
        let n = (1 + rng.below(8) as usize).min(out.len() - at);
        out[at..at + n].copy_from_slice(&rng.bytes(n));
    }
    out
}

fn manifest() -> PoolManifest {
    PoolManifest {
        domain: "monterey:6,5,4".into(),
        hours: 1.5,
        white_noise: 0.01,
        base_seed: 0x5EED,
        lease_ms: 1200,
        config_hash: 0xC0DE,
        trace_run_id: 0xBEEF,
    }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
}

#[test]
fn random_bodies_roundtrip_exactly() {
    let mut rng = Rng::new(0xC0DEC);
    for _ in 0..CASES {
        let n = 1 + rng.below(4096) as usize;
        let body = rng.bytes(n);
        let wire = frame::encode(&body);
        assert_eq!(wire.len(), body.len() + FRAME_OVERHEAD);
        let (decoded, consumed) = frame::decode(&wire).expect("clean frame decodes");
        assert_eq!(decoded, body);
        assert_eq!(consumed, wire.len());
    }
}

#[test]
fn truncation_at_every_byte_is_reported_as_truncated() {
    let mut rng = Rng::new(0x7A11);
    for _ in 0..8 {
        let n = 1 + rng.below(256) as usize;
        let body = rng.bytes(n);
        let wire = frame::encode(&body);
        for cut in 0..wire.len() {
            match frame::decode(&wire[..cut]) {
                Err(FrameError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert!(needed > cut, "needed {needed} should exceed cut {cut}");
                }
                other => panic!("cut {cut}/{}: expected Truncated, got {other:?}", wire.len()),
            }
        }
    }
}

#[test]
fn every_single_bit_flip_is_detected() {
    let mut rng = Rng::new(0xB17F);
    for _ in 0..4 {
        let n = 1 + rng.below(128) as usize;
        let body = rng.bytes(n);
        let wire = frame::encode(&body);
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[byte] ^= 1 << bit;
                match frame::decode(&bad) {
                    // A flip in the body or trailer must be a CRC
                    // mismatch; a flip in the length prefix may also
                    // resize the frame into truncation or the cap.
                    Err(
                        FrameError::Corrupt { .. }
                        | FrameError::Truncated { .. }
                        | FrameError::TooLarge { .. }
                        | FrameError::Empty,
                    ) => {}
                    Ok((decoded, _)) => panic!(
                        "bit {bit} of byte {byte} flipped and the frame still decoded \
                         ({} bytes)",
                        decoded.len()
                    ),
                }
                if byte >= 4 {
                    // Past the length prefix the error is specifically
                    // frame corruption, the distinct CRC error.
                    assert!(
                        matches!(frame::decode(&bad), Err(FrameError::Corrupt { .. })),
                        "flip in body/trailer byte {byte} was not reported as Corrupt"
                    );
                }
            }
        }
    }
}

#[test]
fn oversized_length_prefixes_are_rejected_without_allocation() {
    let mut rng = Rng::new(0x0BE5E);
    for _ in 0..CASES {
        let advertised = MAX_FRAME as u64 + 1 + rng.below(u32::MAX as u64 - MAX_FRAME as u64 - 1);
        let mut wire = (advertised as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&rng.bytes(32));
        match frame::decode(&wire) {
            Err(FrameError::TooLarge { advertised: got }) => {
                assert_eq!(got, advertised as usize);
            }
            other => panic!("advertised {advertised}: expected TooLarge, got {other:?}"),
        }
    }
}

fn random_message(rng: &mut Rng) -> Message {
    let spec = TaskSpec {
        member: rng.below(1 << 20),
        epoch: rng.below(99_999) as u32,
        seed: rng.next(),
        parent_span: rng.next(),
    };
    match rng.below(12) {
        0 => Message::Hello {
            proto: PROTO_VERSION,
            worker_id: rng.next(),
            pid: rng.next() as u32,
            config_hash: rng.next(),
        },
        1 => Message::Welcome {
            manifest: PoolManifest {
                domain: format!(
                    "monterey:{},{},{}",
                    1 + rng.below(40),
                    1 + rng.below(40),
                    1 + rng.below(8)
                ),
                hours: rng.below(100) as f64 / 4.0,
                white_noise: rng.below(1000) as f64 / 1e4,
                base_seed: rng.next(),
                lease_ms: rng.below(10_000),
                config_hash: rng.next(),
                trace_run_id: rng.next(),
            },
            mean: {
                let n = rng.below(512) as usize;
                rng.bytes(n)
            },
            prior: {
                let n = rng.below(512) as usize;
                rng.bytes(n)
            },
        },
        2 => Message::Reject { reason: format!("reason-{}", rng.next()) },
        3 => Message::Task { spec },
        4 => Message::Renew { spec, hb: Heartbeat { pid: rng.next() as u32, counter: rng.next() } },
        5 => Message::Result {
            rec: ResultRecord {
                member: rng.below(1 << 20),
                epoch: rng.below(99_999) as u32,
                code: rng.next() as i32,
                pid: rng.next() as u32,
                fc_crc: rng.next() as u32,
                reason: rng.next() as u32,
            },
            payload_len: rng.next(),
        },
        6 => Message::Data {
            chunk: {
                let n = rng.below(1024) as usize;
                rng.bytes(n)
            },
        },
        7 => Message::Release { spec },
        8 => Message::RunInfo { cancelled: rng.below(2) == 1, shutdown: rng.below(2) == 1 },
        9 => Message::Claim,
        10 => Message::Idle,
        _ => Message::Fenced,
    }
}

#[test]
fn random_messages_survive_the_full_frame_pipeline() {
    let mut rng = Rng::new(0x5EED);
    for _ in 0..CASES * 4 {
        let msg = random_message(&mut rng);
        let wire = frame::encode(&msg.encode());
        let (body, _) = frame::decode(&wire).expect("framed message decodes");
        assert_eq!(Message::decode(&body).expect("message decodes"), msg);
    }
}

#[test]
fn truncated_messages_never_decode() {
    let mut rng = Rng::new(0xDEAD);
    for _ in 0..CASES {
        let body = random_message(&mut rng).encode();
        for cut in 0..body.len() {
            assert!(Message::decode(&body[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
    }
}

// ---------------------------------------------------------------------
// The shared pieces, proved once.
// ---------------------------------------------------------------------

#[test]
fn reader_returns_what_writer_wrote_and_errs_on_every_damage() {
    type Fields = (u8, u32, i32, u64, u64, Vec<u8>, String, Vec<f64>);
    fn read(buf: &[u8]) -> Result<Fields, CodecError> {
        let mut r = Reader::new(buf);
        let head = (r.u8()?, r.u32()?, r.i32()?, r.u64()?, r.f64()?.to_bits());
        let (blob, text) = (r.blob()?.to_vec(), r.string()?);
        let n = r.count()?;
        let vs = r.f64s(n)?;
        r.done()?;
        Ok((head.0, head.1, head.2, head.3, head.4, blob, text, vs))
    }
    let mut rng = Rng::new(0x0DEC);
    for _ in 0..CASES {
        let (a, b, c, d) = (rng.next() as u8, rng.next() as u32, rng.next() as i32, rng.next());
        let x = rng.next();
        let blob = {
            let n = rng.below(64) as usize;
            rng.bytes(n)
        };
        let text = format!("domain-{}", rng.next());
        let vs: Vec<f64> = (0..rng.below(16)).map(|_| rng.next() as f64).collect();
        let mut w = Writer::with_capacity(64);
        w.u8(a);
        w.u32(b);
        w.i32(c);
        w.u64(d);
        w.f64(f64::from_bits(x));
        w.blob(&blob);
        w.blob(text.as_bytes());
        w.u64(vs.len() as u64);
        w.f64s(&vs);
        let bytes = w.into_bytes();
        assert_eq!(read(&bytes), Ok((a, b, c, d, x, blob.clone(), text.clone(), vs)));
        for cut in 0..bytes.len() {
            assert_eq!(read(&bytes[..cut]), Err(CodecError::Truncated), "cut {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(read(&long), Err(CodecError::TrailingBytes(1)));
        // Each length or count word forced to its maximum is an error
        // (and no allocation is sized by it).
        let at_blob = 25;
        let at_text = at_blob + 4 + blob.len();
        let at_count = at_text + 4 + text.len();
        for (at, width) in [(at_blob, 4), (at_text, 4), (at_count, 8)] {
            let mut bad = bytes.clone();
            bad[at..at + width].fill(0xFF);
            assert!(read(&bad).is_err(), "length word at {at} forced to MAX was accepted");
        }
        // Unsealed bytes carry no CRC, so a flip may read back as another
        // value — but never as a panic.
        for bad in damaged(&bytes) {
            let _ = read(&bad);
        }
    }
}

#[test]
fn envelope_opens_only_what_it_sealed() {
    const MAGIC: [u8; 4] = *b"TEST";
    let mut rng = Rng::new(0x5EA1);
    for _ in 0..8 {
        let n = 1 + rng.below(96) as usize;
        let whole = |r: &mut Reader<'_>| Ok(r.take(n)?.to_vec());
        let payload = rng.bytes(n);
        let sealed = seal(MAGIC, 3, |w| w.bytes(&payload));
        assert_eq!(sealed.len(), payload.len() + 9);
        assert_eq!(unseal(MAGIC, 3, &sealed, whole), Ok(payload.clone()));
        for bad in damaged(&sealed) {
            assert!(unseal(MAGIC, 3, &bad, whole).is_err(), "damaged envelope opened");
        }
        assert_eq!(unseal(*b"ELSE", 3, &sealed, whole), Err(CodecError::WrongMagic));
        assert_eq!(unseal(MAGIC, 4, &sealed, whole), Err(CodecError::BadVersion(3)));
        assert_eq!(unseal(MAGIC, 3, &sealed, |_| Ok(())), Err(CodecError::TrailingBytes(n)));
    }
}

#[test]
fn stream_reader_rejects_every_damage_the_buffer_decoder_rejects() {
    let mut rng = Rng::new(0x57EA);
    for _ in 0..4 {
        let n = 1 + rng.below(64) as usize;
        let wire = frame::encode(&rng.bytes(n));
        for bad in damaged(&wire) {
            assert!(frame::split(&bad).is_err());
            assert!(frame::read_frame(&mut bad.as_slice()).is_err());
        }
    }
}

#[test]
fn magics_are_pairwise_distinct() {
    let mut all: Vec<[u8; 4]> = magic::ENVELOPES.iter().map(|(_, m)| *m).collect();
    all.push(magic::JOURNAL[..4].try_into().unwrap());
    for (i, a) in all.iter().enumerate() {
        assert!(!all[..i].contains(a), "magic {a:?} is declared twice");
    }
}

// ---------------------------------------------------------------------
// Each format: round-trip, wrong magic, re-sealed garbage.
// ---------------------------------------------------------------------

/// Decode and re-encode; `Ok(bytes)` of a valid input reproduces it.
type Recode = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, String>>;

struct Format {
    valid: Vec<u8>,
    recode: Recode,
    /// What this decoder says to another format's bytes.
    wrong_magic: &'static str,
    /// `(offset, width)` of each length or count word in the payload.
    length_words: &'static [(usize, usize)],
}

fn record<T: Record + 'static>(value: T, length_words: &'static [(usize, usize)]) -> Format {
    Format {
        valid: value.encode(),
        recode: Box::new(|raw| T::decode(raw).map(|v| v.encode()).map_err(|e| e.to_string())),
        wrong_magic: "wrong magic",
        length_words,
    }
}

/// One of every sealed format, in the order of `magic::ENVELOPES`.
fn formats() -> Vec<Format> {
    let subspace = seal(magic::SUBSPACE, 2, |w| {
        w.u64(3);
        w.u64(2);
        w.f64s(&[4.0, 0.25, 1.0, 0.0, 0.0, 0.0, 0.5, -0.5]);
    });
    let batch = SpanBatch {
        run_id: 0xBEEF,
        worker_id: 3,
        member: 5,
        epoch: 2,
        final_flush: false,
        dropped: 1,
        events: vec![RemoteEvent {
            kind: RemoteKind::Instant,
            ts_ns: 77,
            cat: "task".into(),
            name: "claim".into(),
            args: vec![
                ("member".into(), ArgValue::U64(5)),
                ("outcome".into(), ArgValue::Str("ok".into())),
                ("constrained".into(), ArgValue::Bool(true)),
                ("offset_ns".into(), ArgValue::F64(-1.5)),
            ],
        }],
    };
    vec![
        Format {
            valid: vector_to_bytes(&[1.5, -2.25, 0.0]),
            recode: Box::new(|raw| {
                vector_from_bytes(raw).map(|v| vector_to_bytes(&v)).map_err(|e| e.to_string())
            }),
            wrong_magic: "not an ESSE vector file",
            length_words: &[(0, 8)],
        },
        Format {
            valid: subspace,
            recode: Box::new(|raw| {
                subspace_from_bytes(raw).map(|s| subspace_to_bytes(&s)).map_err(|e| e.to_string())
            }),
            wrong_magic: "not an ESSE subspace file",
            length_words: &[(0, 8), (8, 8)],
        },
        record(manifest(), &[(0, 4)]),
        record(TaskSpec { member: 3, epoch: 2, seed: 99, parent_span: 0xA1 }, &[]),
        record(
            ResultRecord { member: 3, epoch: 2, code: -9, pid: 4242, fc_crc: 0xFEED, reason: 5 },
            &[],
        ),
        record(Heartbeat { pid: 4242, counter: 17 }, &[]),
        Format {
            valid: DiskTripleBuffer::encode(b"covariance payload", 7),
            recode: Box::new(|raw| {
                DiskTripleBuffer::try_decode(raw)
                    .map(|(payload, version)| DiskTripleBuffer::encode(&payload, version))
                    .map_err(|e| e.to_string())
            }),
            wrong_magic: "wrong magic",
            length_words: &[(8, 8)],
        },
        Format {
            valid: batch.encode(),
            recode: Box::new(|raw| SpanBatch::decode(raw).map(|b| b.encode())),
            wrong_magic: "wrong magic",
            length_words: &[(33, 4)],
        },
    ]
}

#[test]
fn every_sealed_format_roundtrips_and_survives_resealed_garbage() {
    let mut rng = Rng::new(0xF0F0);
    let formats = formats();
    let magics: Vec<&[u8]> = formats.iter().map(|f| &f.valid[..4]).collect();
    let declared: Vec<&[u8]> = magic::ENVELOPES.iter().map(|(_, m)| &m[..]).collect();
    assert_eq!(magics, declared, "a declared format is missing from the suite");
    for (f, (name, _)) in formats.iter().zip(magic::ENVELOPES) {
        assert_eq!((f.recode)(&f.valid).as_deref(), Ok(&f.valid[..]), "{name}");
        // Another format's valid bytes are the wrong magic — not a
        // checksum or length error.
        for other in formats.iter().filter(|o| o.valid[..4] != f.valid[..4]) {
            let err = (f.recode)(&other.valid).expect_err("foreign bytes decoded");
            assert!(err.contains(f.wrong_magic), "{name} on foreign bytes: {err}");
        }
        // Re-seal so the CRC passes and the field decoder is reached.
        let (m, version) = (f.valid[..4].try_into().unwrap(), f.valid[4]);
        let reseal = |payload: &[u8]| seal(m, version, |w| w.bytes(payload));
        let payload = &f.valid[5..f.valid.len() - 4];
        assert_eq!(reseal(payload), f.valid);
        for &(at, width) in f.length_words {
            let mut bad = payload.to_vec();
            bad[at..at + width].fill(0xFF);
            assert!((f.recode)(&reseal(&bad)).is_err(), "{name}: length word at {at} = MAX");
        }
        // Garbage decodes to an error, or to a value that encodes
        // stably; never to a panic.
        for _ in 0..CASES * 4 {
            if let Ok(back) = (f.recode)(&reseal(&garbled(&mut rng, payload))) {
                assert_eq!((f.recode)(&back), Ok(back), "{name}");
            }
        }
    }
}

#[test]
fn journal_stream_roundtrips_and_stops_at_a_malformed_record() {
    let dir = std::env::temp_dir().join(format!("esse-codec-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.journal");
    let records = [
        JournalRecord::RunStart { config_hash: 42 },
        JournalRecord::MemberQuarantined { member: 2, reason: 0 },
        JournalRecord::SvdPublished { members: 4, version: 1, rho: 0.5 },
    ];
    let journal = Journal::create(&path).unwrap();
    for rec in &records {
        journal.append(rec).unwrap();
    }
    let good = std::fs::read(&path).unwrap();
    assert_eq!(Journal::replay(&path).unwrap().records, records);
    // Well-framed (CRC-clean) bodies that are not a record: an unknown
    // kind, the retired kind 7 (never written by any build), a known
    // kind one field short, a known kind with a byte over.
    let mut rng = Rng::new(0x10C5);
    let retired = [&[7u8][..], &128u64.to_le_bytes()].concat();
    let short_quarantine = [&[4u8][..], &7u64.to_le_bytes()].concat();
    let long_run_start = [&[1u8][..], &rng.bytes(9)].concat();
    for body in [vec![0xEE; 9], retired, short_quarantine, long_run_start] {
        let raw = [&good[..], &frame::encode(&body)].concat();
        std::fs::write(&path, &raw).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(
            (replay.valid_len, replay.torn_bytes),
            (good.len() as u64, body.len() as u64 + 8)
        );
    }
    for _ in 0..CASES {
        std::fs::write(&path, garbled(&mut rng, &good)).unwrap();
        if let Ok(replay) = Journal::replay(&path) {
            assert!(replay.records.len() <= records.len());
        }
    }
    // A sealed file of any other format is not a journal.
    for f in formats() {
        std::fs::write(&path, &f.valid).unwrap();
        let err = Journal::replay(&path).unwrap_err().to_string();
        assert!(err.contains("missing journal magic"), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One of every message variant with the bytes the parent build encoded
/// it to: the wire format is pinned, not just self-consistent.
fn golden_messages() -> Vec<(Message, &'static str)> {
    let spec = TaskSpec { member: 3, epoch: 2, seed: 99, parent_span: 0xA1 };
    let rec = ResultRecord { member: 3, epoch: 2, code: -9, pid: 4242, fc_crc: 0xFEED, reason: 5 };
    vec![
        (
            Message::Hello { proto: 2, worker_id: 7, pid: 4242, config_hash: 0xC0DE },
            "0102000000070000000000000092100000dec0000000000000",
        ),
        (
            Message::Welcome { manifest: manifest(), mean: vec![1, 2, 3], prior: vec![9, 8] },
            "020e0000006d6f6e74657265793a362c352c34000000000000f83f7b14ae47e17a843fed5e0000000000\
             00b004000000000000dec0000000000000efbe00000000000003000000010203020000000908",
        ),
        (Message::Reject { reason: "no".into() }, "03020000006e6f"),
        (Message::Claim, "04"),
        (Message::Task { spec }, "050300000000000000020000006300000000000000a100000000000000"),
        (Message::Idle, "06"),
        (Message::Cancelled, "07"),
        (Message::Shutdown, "08"),
        (
            Message::Renew { spec, hb: Heartbeat { pid: 4242, counter: 17 } },
            "090300000000000000020000006300000000000000a100000000000000921000001100000000000000",
        ),
        (Message::RenewOk, "0a"),
        (Message::Fenced, "0b"),
        (
            Message::Result { rec, payload_len: 2400 },
            "0c030000000000000002000000f7ffffff92100000edfe0000050000006009000000000000",
        ),
        (Message::Rejected { rec }, "16030000000000000002000000f7ffffff92100000edfe000005000000"),
        (Message::Data { chunk: vec![0xAB, 0xCD] }, "0d02000000abcd"),
        (Message::ResultEnd, "0e"),
        (Message::ResultAck, "0f"),
        (Message::Release { spec }, "100300000000000000020000006300000000000000a100000000000000"),
        (Message::ReleaseAck, "11"),
        (Message::Query, "12"),
        (Message::RunInfo { cancelled: true, shutdown: false }, "130100"),
        (Message::Trace { bytes: vec![4, 5, 6] }, "1403000000040506"),
        (Message::TraceAck { server_ns: 123_456_789 }, "1515cd5b0700000000"),
    ]
}

#[test]
fn every_message_variant_encodes_to_its_golden_bytes() {
    let golden = golden_messages();
    let mut names: Vec<&str> = golden.iter().map(|(m, _)| m.name()).collect();
    names.dedup();
    assert_eq!(names.len(), 22, "one golden case per variant");
    for (msg, hex) in golden {
        let bytes = unhex(hex);
        assert_eq!(msg.encode(), bytes, "{} changed on the wire", msg.name());
        assert_eq!(Message::decode(&bytes), Ok(msg));
    }
}

#[test]
fn garbage_message_bodies_error_or_encode_stably() {
    let mut rng = Rng::new(0x6A5B);
    for (msg, hex) in golden_messages() {
        let body = unhex(hex);
        for _ in 0..CASES {
            let mut bad = garbled(&mut rng, &body[1..]);
            bad.insert(0, body[0]);
            if let Ok(back) = Message::decode(&bad) {
                // Compared as bytes: a garbled f64 may be NaN.
                let again = back.encode();
                let stable = Message::decode(&again).map(|m| m.encode());
                assert_eq!(stable, Ok(again), "{}", msg.name());
            }
        }
        // A blob or string length forced to u32::MAX (every such field
        // that leads a body does so at offset 1).
        if matches!(
            msg,
            Message::Welcome { .. }
                | Message::Reject { .. }
                | Message::Data { .. }
                | Message::Trace { .. }
        ) {
            let mut bad = body.clone();
            bad[1..5].fill(0xFF);
            assert_eq!(Message::decode(&bad), Err(CodecError::Truncated), "{}", msg.name());
        }
    }
}
