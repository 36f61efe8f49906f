//! Crash-consistent run journal (write-ahead log) and durable
//! checkpointing for the ESSE workflow.
//!
//! The paper's workflow is file-based precisely so a real-time forecast
//! survives infrastructure trouble: §4.1's safe/live covariance files
//! and §4.2's per-member status records exist so the master "can be
//! restarted without rerunning all jobs". This module makes that
//! guarantee hold against *coordinator* death at any instant:
//!
//! * [`Journal`] — an append-only log: an 8-byte header (`ESSEJNL` +
//!   [`JOURNAL_VERSION`]) followed by one stream frame
//!   ([`esse_core::durable::codec::frame`]: `len | body | crc`) per
//!   [`JournalRecord`] — run config hash, member completions/failures,
//!   SVD publications, convergence, assimilation, completion. Appends
//!   follow fsync-the-file discipline (the directory is fsynced at
//!   creation), and replay truncates a torn tail — a record is either
//!   fully in the log or it never happened.
//! * [`JournalState`] — a pure fold over replayed records. Any prefix
//!   of a valid journal folds to a valid state, which is what makes
//!   killing the coordinator at an arbitrary byte offset recoverable.
//! * [`Checkpoint`] — a journal plus per-member result blobs (state
//!   vectors in the one `ESV2` encoding, [`esse_core::format`]) in one
//!   directory, the durable mirror of the in-memory differ. The engine
//!   ([`crate::workflow::MtcEsse::with_checkpoint`]) records each
//!   completed member; [`Checkpoint::open`] validates every blob
//!   against its CRC, quarantines corrupt files, and hands back a
//!   [`ResumeState`] that [`crate::workflow::RunInit::resuming`] can
//!   rehydrate — completed members are never re-run.

use esse_core::durable::codec::{frame, magic, CodecError, Reader, Writer};
use esse_core::durable::{atomic_write, fsync_dir};
use esse_core::format::{vector_from_bytes, vector_to_bytes};
use std::fs;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Format version byte after the `ESSEJNL` magic (2: records are
/// `len | body | crc` stream frames, one fixed length per kind).
pub const JOURNAL_VERSION: u8 = 2;

/// Header length: magic + version byte.
const HEADER_LEN: usize = magic::JOURNAL.len() + 1;

/// The subspace bytes the coordinators publish through the safe/live
/// covariance protocol: the one `ESS2` encoding, under the name the
/// perf ledger imports.
pub use esse_core::format::subspace_to_bytes as encode_subspace_blob;

/// One durable event in the run's history.
///
/// Bodies are a kind byte plus fixed little-endian fields; every record
/// is one stream frame on disk, so readers can tell a torn tail from a
/// complete record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalRecord {
    /// The run began under this configuration fingerprint. Always the
    /// first record; resume refuses a journal whose hash differs from
    /// the configuration it was asked to continue.
    RunStart {
        /// [`config_hash`] of the run parameters.
        config_hash: u64,
    },
    /// Member `member` completed successfully; its result blob (or
    /// forecast file) is durable on disk.
    MemberCompleted {
        /// Member index.
        member: u64,
        /// Attempts consumed to get the success.
        attempts: u32,
    },
    /// Member `member` failed permanently (retry budget exhausted).
    MemberFailed {
        /// Member index.
        member: u64,
        /// Final exit/error code.
        code: i32,
    },
    /// A member's result failed validation — semantic checks at
    /// ingestion (NaN/Inf, physical bounds, norm blowup, ensemble
    /// outlier) or a checksum failure on resume. The payload was
    /// quarantined and the member requeued. The run is degraded until
    /// it completes again.
    MemberQuarantined {
        /// Member index.
        member: u64,
        /// Stable [`esse_core::validate::Reason`] code. Persisted so a
        /// resumed run replays the same decision bit-for-bit.
        reason: u32,
    },
    /// The continuous SVD stage published a new subspace estimate to
    /// the safe file (the §4.1 three-file protocol).
    SvdPublished {
        /// Members in the decomposed snapshot.
        members: u64,
        /// Safe-file version the estimate was published as.
        version: u64,
        /// Similarity against the previous estimate (NaN for the first
        /// round, which has nothing to compare against).
        rho: f64,
    },
    /// The convergence criterion fired.
    Converged {
        /// Members in the differ at convergence.
        members: u64,
        /// The similarity value that crossed the threshold.
        rho: f64,
    },
    /// The posterior was assimilated against observations.
    Assimilated {
        /// Innovations (observations) used.
        innovations: u64,
    },
    /// The run finished and published its posterior.
    RunComplete {
        /// Members in the final subspace.
        members: u64,
    },
    /// The coordinator issued (seeded or requeued) task incarnation
    /// `epoch` for `member`. Appended *before* the task record appears
    /// in the pool, so replaying any journal prefix restores a fencing
    /// high-water mark ≥ every epoch a worker could ever have seen —
    /// a restarted coordinator never re-issues an epoch that a zombie
    /// result from the previous incarnation could impersonate.
    EpochAdvanced {
        /// Member index.
        member: u64,
        /// Fencing epoch issued (1-based).
        epoch: u32,
    },
    /// A coordinator incarnation started serving this run (1 for the
    /// initial start, +1 per `--resume`). Lets observability label
    /// work by incarnation across a crash-and-restart boundary.
    CoordinatorStarted {
        /// Incarnation number (1-based).
        incarnation: u64,
    },
}

impl JournalRecord {
    fn kind(&self) -> u8 {
        match self {
            JournalRecord::RunStart { .. } => 1,
            JournalRecord::MemberCompleted { .. } => 2,
            JournalRecord::MemberFailed { .. } => 3,
            JournalRecord::MemberQuarantined { .. } => 4,
            JournalRecord::SvdPublished { .. } => 5,
            JournalRecord::Converged { .. } => 6,
            JournalRecord::Assimilated { .. } => 7,
            JournalRecord::RunComplete { .. } => 8,
            JournalRecord::EpochAdvanced { .. } => 9,
            JournalRecord::CoordinatorStarted { .. } => 10,
        }
    }

    /// Encode the frame body (kind byte + fields, little endian).
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(32);
        w.u8(self.kind());
        match *self {
            JournalRecord::RunStart { config_hash } => w.u64(config_hash),
            JournalRecord::MemberCompleted { member, attempts } => {
                w.u64(member);
                w.u32(attempts);
            }
            JournalRecord::MemberFailed { member, code } => {
                w.u64(member);
                w.i32(code);
            }
            JournalRecord::MemberQuarantined { member, reason } => {
                w.u64(member);
                w.u32(reason);
            }
            JournalRecord::SvdPublished { members, version, rho } => {
                w.u64(members);
                w.u64(version);
                w.f64(rho);
            }
            JournalRecord::Converged { members, rho } => {
                w.u64(members);
                w.f64(rho);
            }
            JournalRecord::Assimilated { innovations } => w.u64(innovations),
            JournalRecord::RunComplete { members } => w.u64(members),
            JournalRecord::EpochAdvanced { member, epoch } => {
                w.u64(member);
                w.u32(epoch);
            }
            JournalRecord::CoordinatorStarted { incarnation } => w.u64(incarnation),
        }
        w.into_bytes()
    }

    /// Decode a body produced by [`JournalRecord::encode`]: exactly one
    /// record, no trailing bytes. Replay treats any error as a torn or
    /// corrupt frame.
    fn decode(body: &[u8]) -> Result<JournalRecord, CodecError> {
        let mut r = Reader::new(body);
        let rec = match r.u8()? {
            1 => JournalRecord::RunStart { config_hash: r.u64()? },
            2 => JournalRecord::MemberCompleted { member: r.u64()?, attempts: r.u32()? },
            3 => JournalRecord::MemberFailed { member: r.u64()?, code: r.i32()? },
            4 => JournalRecord::MemberQuarantined { member: r.u64()?, reason: r.u32()? },
            5 => {
                JournalRecord::SvdPublished { members: r.u64()?, version: r.u64()?, rho: r.f64()? }
            }
            6 => JournalRecord::Converged { members: r.u64()?, rho: r.f64()? },
            7 => JournalRecord::Assimilated { innovations: r.u64()? },
            8 => JournalRecord::RunComplete { members: r.u64()? },
            9 => JournalRecord::EpochAdvanced { member: r.u64()?, epoch: r.u32()? },
            10 => JournalRecord::CoordinatorStarted { incarnation: r.u64()? },
            kind => return Err(CodecError::BadType(kind)),
        };
        r.done()?;
        Ok(rec)
    }
}

/// Result of replaying a journal file.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Records recovered, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + complete records).
    pub valid_len: u64,
    /// Bytes past the valid prefix — a torn append or tail corruption.
    /// [`Journal::open`] truncates these away.
    pub torn_bytes: u64,
}

/// Append-only, checksummed, fsynced run journal.
pub struct Journal {
    path: PathBuf,
    file: Mutex<fs::File>,
    /// Write-error injection: appends remaining before every further
    /// append fails like a full disk. `u64::MAX` disables injection.
    fail_after: std::sync::atomic::AtomicU64,
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt journal: {}", msg.into()))
}

impl Journal {
    /// Create a fresh journal at `path` (truncating any existing file),
    /// durably: the header is fsynced and so is the parent directory.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let mut file = fs::File::create(&path)?;
        let mut header = [JOURNAL_VERSION; HEADER_LEN];
        header[..magic::JOURNAL.len()].copy_from_slice(&magic::JOURNAL);
        file.write_all(&header)?;
        file.sync_all()?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fsync_dir(parent)?;
            }
        }
        Ok(Journal {
            path,
            file: Mutex::new(file),
            fail_after: std::sync::atomic::AtomicU64::new(u64::MAX),
        })
    }

    /// Replay `path` without opening it for appends. Stops at the first
    /// torn or corrupt frame; everything before it is returned.
    pub fn replay(path: impl AsRef<Path>) -> io::Result<Replay> {
        let raw = fs::read(path)?;
        let header = raw.strip_prefix(&magic::JOURNAL).and_then(|rest| rest.split_first());
        let Some((&found, mut rest)) = header else {
            return Err(corrupt("missing journal magic"));
        };
        if found != JOURNAL_VERSION {
            return Err(corrupt(format!(
                "unsupported journal version {found} (this build reads version {JOURNAL_VERSION})"
            )));
        }
        let mut records = Vec::new();
        while let Ok((body, used)) = frame::split(rest) {
            let Ok(rec) = JournalRecord::decode(body) else { break };
            records.push(rec);
            rest = &rest[used..];
        }
        let torn_bytes = rest.len() as u64;
        Ok(Replay { records, valid_len: raw.len() as u64 - torn_bytes, torn_bytes })
    }

    /// Open an existing journal for appending: replay it, truncate any
    /// torn tail, and position the writer at the end of the valid
    /// prefix. Returns the journal and what was recovered.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Journal, Replay)> {
        let path = path.as_ref().to_path_buf();
        let replay = Journal::replay(&path)?;
        let file = fs::OpenOptions::new().read(true).write(true).open(&path)?;
        if replay.torn_bytes > 0 {
            file.set_len(replay.valid_len)?;
            file.sync_all()?;
        }
        let mut file = file;
        file.seek(io::SeekFrom::End(0))?;
        let journal = Journal {
            path,
            file: Mutex::new(file),
            fail_after: std::sync::atomic::AtomicU64::new(u64::MAX),
        };
        Ok((journal, replay))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Inject a write error: after `appends` more successful appends,
    /// every further append fails like a full disk (the frame is never
    /// written, so the on-disk valid prefix stays intact). Testing
    /// hook for the ENOSPC/failed-fsync parking path.
    pub fn inject_write_error_after(&self, appends: u64) {
        self.fail_after.store(appends, std::sync::atomic::Ordering::SeqCst);
    }

    /// Durably append one record: the frame is written and fsynced
    /// before this returns. A record is the commit point of whatever it
    /// describes — write data files first, then append.
    ///
    /// On failure (real ENOSPC/fsync trouble or an injected error) the
    /// journal's valid prefix is still replayable: either the frame
    /// never hit the file, or replay truncates the torn tail.
    pub fn append(&self, rec: &JournalRecord) -> io::Result<()> {
        use std::sync::atomic::Ordering;
        let left = self.fail_after.load(Ordering::SeqCst);
        if left == 0 {
            return Err(io::Error::other("injected journal write error (disk full)"));
        }
        if left != u64::MAX {
            self.fail_after.store(left - 1, Ordering::SeqCst);
        }
        // A panicked appender cannot leave the file half-updated in a
        // way replay does not already handle, so poisoning is ignored.
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(&frame::encode(&rec.encode()))?;
        file.sync_data()
    }
}

/// One SVD round recovered from the journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvdRound {
    /// Members in the decomposed snapshot.
    pub members: u64,
    /// Safe-file version published.
    pub version: u64,
    /// Similarity against the previous round (NaN for the first).
    pub rho: f64,
}

/// Pure fold of a record sequence into workflow state. Folding any
/// prefix of a valid journal yields a valid (earlier) state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalState {
    /// Configuration fingerprint from the `RunStart` record.
    pub config_hash: Option<u64>,
    /// Completed members with their attempt counts, ascending by id.
    /// A later quarantine removes the member again.
    pub completed: Vec<(u64, u32)>,
    /// Permanently failed members, ascending.
    pub failed: Vec<u64>,
    /// Members whose results were quarantined and not yet re-completed,
    /// ascending. (Requeued members that complete again leave this
    /// list.)
    pub quarantined: Vec<u64>,
    /// Last quarantine reason code per member that was *ever*
    /// quarantined, ascending by id — members present here but absent
    /// from `quarantined` were healed by a replacement.
    pub quarantine_reasons: Vec<(u64, u32)>,
    /// Total quarantine events replayed (a member can contribute more
    /// than one).
    pub quarantine_events: u64,
    /// SVD publications in order.
    pub svd_rounds: Vec<SvdRound>,
    /// The convergence record, if the criterion fired.
    pub converged: Option<(u64, f64)>,
    /// Innovations assimilated, if assimilation ran.
    pub assimilated: Option<u64>,
    /// Members in the published posterior, if the run completed.
    pub complete: Option<u64>,
    /// Fencing-epoch high-water mark per member, ascending by id: the
    /// largest epoch ever issued for each member. A resumed
    /// coordinator seeds strictly above this, so no stale incarnation
    /// from before the crash can pass the fence.
    pub epoch_high_water: Vec<(u64, u32)>,
    /// Coordinator incarnations that have served this run (max of the
    /// `CoordinatorStarted` records; 0 for pre-incarnation journals).
    pub incarnations: u64,
}

impl JournalState {
    /// Fold `records` into a state.
    pub fn replay(records: &[JournalRecord]) -> JournalState {
        let mut st = JournalState::default();
        for rec in records {
            match *rec {
                JournalRecord::RunStart { config_hash } => st.config_hash = Some(config_hash),
                JournalRecord::MemberCompleted { member, attempts } => {
                    if let Err(i) = st.completed.binary_search_by_key(&member, |(m, _)| *m) {
                        st.completed.insert(i, (member, attempts));
                    }
                    if let Ok(i) = st.quarantined.binary_search(&member) {
                        st.quarantined.remove(i);
                    }
                    if let Ok(i) = st.failed.binary_search(&member) {
                        st.failed.remove(i);
                    }
                }
                JournalRecord::MemberFailed { member, .. } => {
                    if let Err(i) = st.failed.binary_search(&member) {
                        st.failed.insert(i, member);
                    }
                }
                JournalRecord::MemberQuarantined { member, reason } => {
                    if let Ok(i) = st.completed.binary_search_by_key(&member, |(m, _)| *m) {
                        st.completed.remove(i);
                    }
                    if let Err(i) = st.quarantined.binary_search(&member) {
                        st.quarantined.insert(i, member);
                    }
                    match st.quarantine_reasons.binary_search_by_key(&member, |(m, _)| *m) {
                        Ok(i) => st.quarantine_reasons[i].1 = reason,
                        Err(i) => st.quarantine_reasons.insert(i, (member, reason)),
                    }
                    st.quarantine_events += 1;
                }
                JournalRecord::SvdPublished { members, version, rho } => {
                    st.svd_rounds.push(SvdRound { members, version, rho });
                }
                JournalRecord::Converged { members, rho } => st.converged = Some((members, rho)),
                JournalRecord::Assimilated { innovations } => st.assimilated = Some(innovations),
                JournalRecord::RunComplete { members } => st.complete = Some(members),
                JournalRecord::EpochAdvanced { member, epoch } => {
                    match st.epoch_high_water.binary_search_by_key(&member, |(m, _)| *m) {
                        Ok(i) => {
                            let hw = &mut st.epoch_high_water[i].1;
                            *hw = (*hw).max(epoch);
                        }
                        Err(i) => st.epoch_high_water.insert(i, (member, epoch)),
                    }
                }
                JournalRecord::CoordinatorStarted { incarnation } => {
                    st.incarnations = st.incarnations.max(incarnation);
                }
            }
        }
        st
    }

    /// Similarity history to rehydrate the convergence monitor with
    /// (finite rho values of the SVD rounds, in order).
    pub fn rho_history(&self) -> Vec<f64> {
        self.svd_rounds.iter().map(|r| r.rho).filter(|r| r.is_finite()).collect()
    }

    /// Member count at the latest SVD publication (0 if none ran yet):
    /// the resumed coordinator uses it to continue the SVD cadence
    /// exactly where the dead one left off.
    pub fn last_svd_members(&self) -> u64 {
        self.svd_rounds.last().map_or(0, |r| r.members)
    }
}

/// Fingerprint a run configuration as FNV-1a over canonical
/// `key=value` lines. Stable across processes and platforms; resume
/// refuses to continue a journal written under a different hash.
pub fn config_hash(parts: &[(&str, String)]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (k, v) in parts {
        for b in k.bytes().chain([b'=']).chain(v.bytes()).chain([b'\n']) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01B3);
        }
    }
    h
}

// ---------------------------------------------------------------------
// Checkpoint: journal + member result blobs in one directory.
// ---------------------------------------------------------------------

/// What [`Checkpoint::open`] recovered for the engine to resume from.
#[derive(Debug, Clone, Default)]
pub struct ResumeState {
    /// Completed members with validated results, ascending by id —
    /// feed to [`crate::workflow::RunInit::resuming`].
    pub completed: Vec<(usize, Vec<f64>)>,
    /// Members recorded as permanently failed.
    pub failed: Vec<usize>,
    /// Members whose blobs failed validation and were quarantined this
    /// open (they must be re-run).
    pub quarantined: Vec<usize>,
    /// The journal fold (SVD cadence, convergence, completion flags).
    pub state: JournalState,
}

/// A checkpoint directory: `run.journal` + one blob per completed
/// member + a `quarantine/` corner for files that failed validation.
pub struct Checkpoint {
    dir: PathBuf,
    journal: Journal,
}

impl Checkpoint {
    /// Journal file name inside a checkpoint directory.
    pub const JOURNAL: &'static str = "run.journal";
    /// Quarantine subdirectory name.
    pub const QUARANTINE: &'static str = "quarantine";

    fn member_path(dir: &Path, member: usize) -> PathBuf {
        dir.join(format!("member_{member}.ck"))
    }

    /// Create a fresh checkpoint directory (the directory itself may
    /// exist; a pre-existing journal is an error — refuse to clobber).
    pub fn create(dir: impl AsRef<Path>, config_hash: u64) -> io::Result<Checkpoint> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let jpath = dir.join(Self::JOURNAL);
        if jpath.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("checkpoint journal already exists at {}", jpath.display()),
            ));
        }
        let journal = Journal::create(jpath)?;
        journal.append(&JournalRecord::RunStart { config_hash })?;
        Ok(Checkpoint { dir, journal })
    }

    /// Open an existing checkpoint: replay the journal (truncating a
    /// torn tail), refuse a configuration-hash mismatch, validate every
    /// completed member's blob, quarantine the corrupt ones (journaled
    /// as [`JournalRecord::MemberQuarantined`] so the next incarnation
    /// knows too), and return the state to resume from.
    pub fn open(dir: impl AsRef<Path>, expect_hash: u64) -> io::Result<(Checkpoint, ResumeState)> {
        let dir = dir.as_ref().to_path_buf();
        let (journal, replay) = Journal::open(dir.join(Self::JOURNAL))?;
        let state = JournalState::replay(&replay.records);
        match state.config_hash {
            Some(h) if h == expect_hash => {}
            Some(h) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint config hash mismatch: journal {h:#018x}, expected {expect_hash:#018x} — refusing to mix runs"
                    ),
                ));
            }
            None => {
                return Err(corrupt("no RunStart record survived replay"));
            }
        }
        let ck = Checkpoint { dir, journal };
        let mut out = ResumeState { state: state.clone(), ..ResumeState::default() };
        out.failed = state.failed.iter().map(|&m| m as usize).collect();
        for &(member, _attempts) in &state.completed {
            let member = member as usize;
            let path = Self::member_path(&ck.dir, member);
            match fs::read(&path).and_then(|raw| vector_from_bytes(&raw)) {
                Ok(data) => out.completed.push((member, data)),
                Err(_) => {
                    ck.quarantine(member)?;
                    out.quarantined.push(member);
                }
            }
        }
        // The journal fold in `out.state` should reflect the
        // quarantines we just performed.
        for &m in &out.quarantined {
            let m = m as u64;
            if let Ok(i) = out.state.completed.binary_search_by_key(&m, |(id, _)| *id) {
                out.state.completed.remove(i);
            }
            if let Err(i) = out.state.quarantined.binary_search(&m) {
                out.state.quarantined.insert(i, m);
            }
        }
        Ok((ck, out))
    }

    /// Move a member's (invalid) blob to `quarantine/` and journal it.
    fn quarantine(&self, member: usize) -> io::Result<()> {
        let src = Self::member_path(&self.dir, member);
        if src.exists() {
            let qdir = self.dir.join(Self::QUARANTINE);
            fs::create_dir_all(&qdir)?;
            fs::rename(&src, qdir.join(format!("member_{member}.ck")))?;
        }
        self.record_quarantined(member, esse_core::validate::Reason::CorruptPayload.code())
    }

    /// Journal a semantic quarantine decision (validator verdict at
    /// ingestion) so resume replays the same decision bit-for-bit.
    pub fn record_quarantined(&self, member: usize, reason: u32) -> io::Result<()> {
        self.journal.append(&JournalRecord::MemberQuarantined { member: member as u64, reason })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The underlying journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Durably record a completed member: the result blob is published
    /// atomically first, then the journal record commits it. A crash
    /// between the two leaves an unreferenced blob, which is harmless —
    /// replay treats the member as incomplete and re-runs it.
    pub fn record_member(&self, member: usize, attempts: u32, data: &[f64]) -> io::Result<()> {
        atomic_write(Self::member_path(&self.dir, member), &vector_to_bytes(data))?;
        self.journal.append(&JournalRecord::MemberCompleted { member: member as u64, attempts })
    }

    /// Record a permanent member failure.
    pub fn record_failed(&self, member: usize, code: i32) -> io::Result<()> {
        self.journal.append(&JournalRecord::MemberFailed { member: member as u64, code })
    }

    /// Record an SVD publication.
    pub fn record_svd(&self, members: usize, version: u64, rho: f64) -> io::Result<()> {
        self.journal.append(&JournalRecord::SvdPublished { members: members as u64, version, rho })
    }

    /// Record convergence.
    pub fn record_converged(&self, members: usize, rho: f64) -> io::Result<()> {
        self.journal.append(&JournalRecord::Converged { members: members as u64, rho })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("esse-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::RunStart { config_hash: 0xDEAD_BEEF },
            JournalRecord::CoordinatorStarted { incarnation: 1 },
            JournalRecord::EpochAdvanced { member: 0, epoch: 1 },
            JournalRecord::EpochAdvanced { member: 3, epoch: 1 },
            JournalRecord::MemberCompleted { member: 0, attempts: 1 },
            JournalRecord::MemberCompleted { member: 3, attempts: 2 },
            JournalRecord::MemberFailed { member: 1, code: 3 },
            JournalRecord::SvdPublished { members: 2, version: 1, rho: f64::NAN },
            JournalRecord::SvdPublished { members: 4, version: 2, rho: 0.97 },
            JournalRecord::MemberQuarantined { member: 3, reason: 0 },
            JournalRecord::MemberQuarantined { member: 5, reason: 3 },
            JournalRecord::CoordinatorStarted { incarnation: 2 },
            JournalRecord::EpochAdvanced { member: 3, epoch: 2 },
            JournalRecord::Converged { members: 8, rho: 0.995 },
            JournalRecord::Assimilated { innovations: 12 },
            JournalRecord::RunComplete { members: 8 },
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmpdir("rt");
        let jpath = dir.join("run.journal");
        let j = Journal::create(&jpath).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        let replay = Journal::replay(&jpath).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        // NaN rho compares unequal; compare via encoded bytes instead.
        let enc = |r: &[JournalRecord]| -> Vec<Vec<u8>> { r.iter().map(|x| x.encode()).collect() };
        assert_eq!(enc(&replay.records), enc(&sample_records()));
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        let jpath = dir.join("run.journal");
        let j = Journal::create(&jpath).unwrap();
        j.append(&JournalRecord::RunStart { config_hash: 1 }).unwrap();
        j.append(&JournalRecord::MemberCompleted { member: 0, attempts: 1 }).unwrap();
        drop(j);
        let full = fs::read(&jpath).unwrap();
        // Tear the last record: keep the file but chop 3 bytes.
        fs::write(&jpath, &full[..full.len() - 3]).unwrap();
        let (j, replay) = Journal::open(&jpath).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn_bytes > 0);
        // The torn bytes are gone; appending after resume works.
        j.append(&JournalRecord::MemberCompleted { member: 0, attempts: 2 }).unwrap();
        let replay = Journal::replay(&jpath).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.torn_bytes, 0);
    }

    #[test]
    fn every_byte_prefix_replays_to_a_record_prefix() {
        let dir = tmpdir("prefix");
        let jpath = dir.join("run.journal");
        let j = Journal::create(&jpath).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let full = fs::read(&jpath).unwrap();
        let all = Journal::replay(&jpath).unwrap().records;
        let enc = |r: &[JournalRecord]| -> Vec<Vec<u8>> { r.iter().map(|x| x.encode()).collect() };
        let cut = dir.join("cut.journal");
        for n in HEADER_LEN..=full.len() {
            fs::write(&cut, &full[..n]).unwrap();
            let replay = Journal::replay(&cut).unwrap();
            let k = replay.records.len();
            assert!(k <= all.len());
            assert_eq!(enc(&replay.records), enc(&all[..k]), "prefix {n} bytes");
            // The state fold never panics on a prefix.
            let _ = JournalState::replay(&replay.records);
        }
    }

    #[test]
    fn bit_flips_never_corrupt_the_replayed_prefix() {
        let dir = tmpdir("flip");
        let jpath = dir.join("run.journal");
        let j = Journal::create(&jpath).unwrap();
        for rec in sample_records().into_iter().take(4) {
            j.append(&rec).unwrap();
        }
        drop(j);
        let full = fs::read(&jpath).unwrap();
        let clean = Journal::replay(&jpath).unwrap().records;
        let enc = |r: &[JournalRecord]| -> Vec<Vec<u8>> { r.iter().map(|x| x.encode()).collect() };
        let mutated = dir.join("mut.journal");
        for byte in HEADER_LEN..full.len() {
            let mut raw = full.clone();
            raw[byte] ^= 0x10;
            fs::write(&mutated, &raw).unwrap();
            let replay = Journal::replay(&mutated).unwrap();
            // Replay stops at or before the flipped frame; whatever it
            // returns must be a prefix of the clean record stream.
            let k = replay.records.len();
            assert!(k < clean.len() || byte >= full.len() - 8, "flip at {byte} not detected");
            assert_eq!(enc(&replay.records), enc(&clean[..k]), "flip at {byte}");
        }
    }

    #[test]
    fn state_fold_tracks_completions_failures_and_quarantine() {
        let st = JournalState::replay(&sample_records());
        assert_eq!(st.config_hash, Some(0xDEAD_BEEF));
        // Member 3 completed then got quarantined on a later resume.
        assert_eq!(st.completed, vec![(0, 1)]);
        assert_eq!(st.failed, vec![1]);
        assert_eq!(st.quarantined, vec![3, 5]);
        assert_eq!(st.quarantine_reasons, vec![(3, 0), (5, 3)]);
        assert_eq!(st.quarantine_events, 2);
        assert_eq!(st.svd_rounds.len(), 2);
        assert_eq!(st.rho_history(), vec![0.97]);
        assert_eq!(st.last_svd_members(), 4);
        assert_eq!(st.converged, Some((8, 0.995)));
        assert_eq!(st.assimilated, Some(12));
        assert_eq!(st.complete, Some(8));
        // Epoch high-water keeps the max ever issued, per member.
        assert_eq!(st.epoch_high_water, vec![(0, 1), (3, 2)]);
        assert_eq!(st.incarnations, 2);
    }

    #[test]
    fn member_blob_roundtrip_and_corruption() {
        let data = vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE, 1e300];
        let blob = vector_to_bytes(&data);
        assert_eq!(vector_from_bytes(&blob).unwrap(), data);
        for n in 0..blob.len() {
            assert!(vector_from_bytes(&blob[..n]).is_err(), "truncation at {n} accepted");
        }
        for byte in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[byte] ^= 1 << bit;
                assert!(vector_from_bytes(&bad).is_err(), "bit flip at {byte}.{bit} accepted");
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip_with_quarantine() {
        let dir = tmpdir("ckpt");
        let hash = config_hash(&[("domain", "toy".into()), ("n", "8".into())]);
        let ck = Checkpoint::create(&dir, hash).unwrap();
        ck.record_member(0, 1, &[1.0, 2.0]).unwrap();
        ck.record_member(2, 1, &[3.0, 4.0]).unwrap();
        ck.record_failed(1, 3).unwrap();
        ck.record_svd(2, 1, f64::NAN).unwrap();
        drop(ck);
        // Corrupt member 2's blob.
        let p = Checkpoint::member_path(&dir, 2);
        let mut raw = fs::read(&p).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x01;
        fs::write(&p, raw).unwrap();

        let (_ck, resume) = Checkpoint::open(&dir, hash).unwrap();
        assert_eq!(resume.completed, vec![(0, vec![1.0, 2.0])]);
        assert_eq!(resume.failed, vec![1]);
        assert_eq!(resume.quarantined, vec![2]);
        assert!(dir.join(Checkpoint::QUARANTINE).join("member_2.ck").exists());
        assert!(!p.exists());
        // A second open sees the quarantine record and doesn't re-quarantine.
        let (_ck, resume2) = Checkpoint::open(&dir, hash).unwrap();
        assert!(resume2.quarantined.is_empty());
        assert_eq!(resume2.state.quarantined, vec![2]);
    }

    #[test]
    fn checkpoint_refuses_hash_mismatch_and_clobber() {
        let dir = tmpdir("hash");
        let ck = Checkpoint::create(&dir, 42).unwrap();
        drop(ck);
        let err = match Checkpoint::open(&dir, 43) {
            Err(e) => e,
            Ok(_) => panic!("open with wrong hash must fail"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("hash mismatch"), "{err}");
        let err = match Checkpoint::create(&dir, 42) {
            Err(e) => e,
            Ok(_) => panic!("create over an existing journal must fail"),
        };
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn injected_write_error_parks_with_a_replayable_prefix() {
        let dir = tmpdir("enospc");
        let jpath = dir.join("run.journal");
        let j = Journal::create(&jpath).unwrap();
        j.inject_write_error_after(2);
        j.append(&JournalRecord::RunStart { config_hash: 9 }).unwrap();
        j.append(&JournalRecord::MemberCompleted { member: 0, attempts: 1 }).unwrap();
        // The third append fails like ENOSPC — and keeps failing.
        let err = j.append(&JournalRecord::MemberCompleted { member: 1, attempts: 1 });
        assert!(err.is_err());
        assert!(j.append(&JournalRecord::RunComplete { members: 2 }).is_err());
        drop(j);
        // The valid prefix survives: both committed records replay.
        let replay = Journal::replay(&jpath).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.torn_bytes, 0);
        let st = JournalState::replay(&replay.records);
        assert_eq!(st.completed, vec![(0, 1)]);
        assert_eq!(st.complete, None);
    }

    #[test]
    fn config_hash_is_order_and_value_sensitive() {
        let a = config_hash(&[("x", "1".into()), ("y", "2".into())]);
        let b = config_hash(&[("x", "1".into()), ("y", "3".into())]);
        let c = config_hash(&[("y", "2".into()), ("x", "1".into())]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, config_hash(&[("x", "1".into()), ("y", "2".into())]));
    }
}
