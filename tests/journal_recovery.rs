//! Crash-consistency invariants of the durable run journal and the
//! engine checkpoint hooks.
//!
//! Hand-rolled property sweeps (no `proptest`): the journal must
//! replay identically from *any* byte prefix, detect every single-bit
//! flip, and the engine rehydrated from a torn checkpoint must produce
//! a posterior bit-identical to an uninterrupted run — with no
//! completed member ever re-run and no corrupt blob silently ingested.

mod common;

use common::smooth_t_prior;
use esse::core::adaptive::{CompletionPolicy, EnsembleSchedule};
use esse::core::model::{LinearGaussianModel, PeForecastModel};
use esse::core::perturb::PerturbationGenerator;
use esse::core::subspace::ErrorSubspace;
use esse::fileio::{vector_from_bytes, vector_to_bytes};
use esse::mtc::journal::{encode_subspace_blob, Checkpoint, Journal, JournalRecord};
use esse::mtc::rundir;
use esse::mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("esse-jrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A representative record sequence exercising every kind. Finite rho
/// values only, so `PartialEq` prefix comparison is exact.
fn sample_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::RunStart { config_hash: 42 },
        JournalRecord::MemberCompleted { member: 0, attempts: 1 },
        JournalRecord::MemberFailed { member: 3, code: -9 },
        JournalRecord::SvdPublished { members: 4, version: 1, rho: 0.5 },
        JournalRecord::MemberQuarantined { member: 2, reason: 0 },
        JournalRecord::MemberCompleted { member: 2, attempts: 2 },
        JournalRecord::SvdPublished { members: 6, version: 2, rho: 0.97 },
        JournalRecord::Converged { members: 6, rho: 0.97 },
        JournalRecord::RunComplete { members: 6 },
    ]
}

fn write_journal(dir: &Path, records: &[JournalRecord]) -> Vec<u8> {
    let path = dir.join("full.journal");
    let j = Journal::create(&path).unwrap();
    for r in records {
        j.append(r).unwrap();
    }
    std::fs::read(&path).unwrap()
}

/// Byte offsets at which each frame ends (the magic header is frame 0's
/// start); walking the `[len][body][crc]` framing directly.
fn frame_ends(raw: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 8;
    while pos + 8 <= raw.len() {
        let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        ends.push(pos);
    }
    ends
}

#[test]
fn journal_replays_identically_from_any_byte_prefix() {
    let dir = tmp("prefix");
    let full = sample_records();
    let raw = write_journal(&dir, &full);
    let ends = frame_ends(&raw);
    assert_eq!(ends.len(), full.len());

    let path = dir.join("prefix.journal");
    for cut in 8..=raw.len() {
        std::fs::write(&path, &raw[..cut]).unwrap();
        let replay = Journal::replay(&path).unwrap();
        // Exactly the frames wholly inside the prefix survive, in order.
        let expect = ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(replay.records, full[..expect], "cut at byte {cut}");
        let valid = if expect == 0 { 8 } else { ends[expect - 1] };
        assert_eq!(replay.valid_len, valid as u64, "cut at byte {cut}");
        assert_eq!(replay.torn_bytes, (cut - valid) as u64, "cut at byte {cut}");
    }
}

#[test]
fn journal_open_truncates_torn_tail_and_appends_continue() {
    let dir = tmp("torn");
    let full = sample_records();
    let raw = write_journal(&dir, &full);
    let ends = frame_ends(&raw);
    // Tear mid-way through the 4th frame.
    let cut = ends[3] - 3;
    let path = dir.join("torn.journal");
    std::fs::write(&path, &raw[..cut]).unwrap();

    let (j, replay) = Journal::open(&path).unwrap();
    assert_eq!(replay.records, full[..3]);
    assert!(replay.torn_bytes > 0);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), replay.valid_len, "tail truncated");
    // The journal is writable again at the valid prefix: appending the
    // lost records reconstructs the original history exactly.
    for r in &full[3..] {
        j.append(r).unwrap();
    }
    assert_eq!(Journal::replay(&path).unwrap().records, full);
}

#[test]
fn journal_survives_any_single_bit_flip() {
    let dir = tmp("flip");
    let full = sample_records();
    let raw = write_journal(&dir, &full);
    let path = dir.join("flip.journal");
    // Flip one bit at every body byte (past the 8-byte magic). Replay
    // must never error, never invent records, and always return a
    // strict prefix of the true history.
    for pos in 8..raw.len() {
        let mut bad = raw.clone();
        bad[pos] ^= 1 << (pos % 8);
        std::fs::write(&path, &bad).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert!(replay.records.len() < full.len(), "flip at {pos} must lose its frame");
        assert_eq!(replay.records, full[..replay.records.len()], "flip at {pos}");
    }
}

#[test]
fn member_blob_rejects_truncation_and_bit_flips() {
    let smooth: Vec<f64> = (0..17).map(|i| (i as f64).sin()).collect();
    let extremes = vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE, 1e300];
    for data in [smooth, extremes] {
        let blob = vector_to_bytes(&data);
        assert_eq!(vector_from_bytes(&blob).unwrap(), data);
        for cut in 0..blob.len() {
            assert!(vector_from_bytes(&blob[..cut]).is_err(), "truncation at {cut} accepted");
        }
        for pos in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[pos] ^= 1 << bit;
                assert!(vector_from_bytes(&bad).is_err(), "bit flip at {pos}.{bit} accepted");
            }
        }
    }
}

fn engine_fixture() -> (PeForecastModel, Vec<f64>, esse::core::subspace::ErrorSubspace, MtcConfig) {
    let (pe, st0) = esse::ocean::scenario::monterey(10, 10, 3);
    let grid = pe.grid.clone();
    let model = PeForecastModel::new(pe);
    let mean0 = st0.pack();
    let prior = smooth_t_prior(&grid, 6, 0.3, 8);
    let cfg = MtcConfig {
        workers: 1, // deterministic completion order
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(8, 8),
        tolerance: 1e-12,
        duration: 1800.0,
        max_rank: 8,
        svd_stride: 8,
        completion: CompletionPolicy::UseCompleted,
        ..Default::default()
    };
    (model, mean0, prior, cfg)
}

#[test]
fn rehydrated_engine_is_bit_identical_and_never_reruns_completed_members() {
    let (model, mean0, prior, cfg) = engine_fixture();
    let hash = 0xC0FFEE;

    // Reference: uninterrupted run, no checkpoint.
    let fresh = MtcEsse::new(&model, cfg.clone()).run(RunInit::new(&mean0, &prior)).expect("fresh");

    // Checkpointed run — the hooks must not perturb the result.
    let dir = tmp("engine");
    let ck = Checkpoint::create(&dir, hash).unwrap();
    let full = MtcEsse::new(&model, cfg.clone())
        .with_checkpoint(&ck)
        .run(RunInit::new(&mean0, &prior))
        .expect("checkpointed");
    assert_eq!(full.central, fresh.central, "checkpoint hooks changed the central forecast");
    assert_eq!(
        encode_subspace_blob(&full.subspace),
        encode_subspace_blob(&fresh.subspace),
        "checkpoint hooks changed the subspace"
    );
    drop(ck);

    // Simulate a crash: tear the journal right after its third
    // `MemberCompleted` (dropping the later members and the SVD round).
    let jpath = dir.join(rundir::JOURNAL);
    let raw = std::fs::read(&jpath).unwrap();
    let ends = frame_ends(&raw);
    let records = Journal::replay(&jpath).unwrap().records;
    let completed = |r: &&JournalRecord| matches!(r, JournalRecord::MemberCompleted { .. });
    let third = records.iter().enumerate().filter(|(_, r)| completed(r)).nth(2).unwrap().0;
    std::fs::write(&jpath, &raw[..ends[third]]).unwrap();

    let (ck2, state) = Checkpoint::open(&dir, hash).unwrap();
    assert_eq!(state.completed.len(), 3, "three members survive the torn journal");
    assert!(state.quarantined.is_empty());
    let resumed = MtcEsse::new(&model, cfg)
        .with_checkpoint(&ck2)
        .run(RunInit::new(&mean0, &prior))
        .expect("resumed");

    assert_eq!(resumed.central, fresh.central, "resumed central differs");
    assert_eq!(
        encode_subspace_blob(&resumed.subspace),
        encode_subspace_blob(&fresh.subspace),
        "resumed posterior subspace is not bit-identical"
    );

    // The journal across both incarnations never completes a member
    // twice: the resumed run re-ran only the members the tear lost.
    let records = Journal::replay(&jpath).unwrap().records;
    let mut seen = std::collections::HashSet::new();
    for r in &records {
        if let JournalRecord::MemberCompleted { member, .. } = r {
            assert!(seen.insert(*member), "member {member} was re-run after completing");
        }
    }
    assert_eq!(seen.len(), 8, "all eight members completed exactly once");
}

#[test]
fn corrupt_member_blob_is_quarantined_never_ingested() {
    let dir = tmp("quarantine");
    let hash = 7;
    let a: Vec<f64> = vec![1.0, 2.0, 3.0];
    let b: Vec<f64> = vec![4.0, 5.0, 6.0];
    {
        let ck = Checkpoint::create(&dir, hash).unwrap();
        for (member, data) in [(0, &a), (1, &b)] {
            ck.store().write_forecast(member, data).unwrap();
            ck.journal().append(&JournalRecord::MemberCompleted { member, attempts: 1 }).unwrap();
        }
    }
    // Corrupt member 0's forecast in place.
    let p0 = dir.join(rundir::fc(0));
    let mut raw = std::fs::read(&p0).unwrap();
    let last = raw.len() - 1;
    raw[last] ^= 0x40;
    std::fs::write(&p0, &raw).unwrap();

    // A run on the checkpoint resumes it: the corrupt blob is
    // quarantined, journalled and re-run — never ingested — and the
    // intact member is not re-run.
    let model = LinearGaussianModel::diagonal(&[1.0; 3], 0.0, 1.0);
    let prior = ErrorSubspace::isotropic(&mut StdRng::seed_from_u64(3), 3, 1, 1.0);
    let cfg = MtcConfig {
        workers: 1,
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(2, 2),
        tolerance: 1e-12,
        duration: 1.0,
        max_rank: 3,
        svd_stride: 2,
        ..Default::default()
    };
    let (ck, _) = Checkpoint::open(&dir, hash).unwrap();
    let out = MtcEsse::new(&model, cfg.clone())
        .with_checkpoint(&ck)
        .run(RunInit::new(&[0.0; 3], &prior))
        .expect("resumed run");
    assert_eq!(out.members_used, 2);
    let ran: Vec<usize> = out.records.iter().filter(|r| r.worker.is_some()).map(|r| r.id).collect();
    assert_eq!(ran, [0], "only the quarantined member re-runs");
    assert_eq!(std::fs::read(dir.join(rundir::QUARANTINE).join("fc_0.vec")).unwrap(), raw);
    let gen = PerturbationGenerator::new(&prior, cfg.perturb.clone());
    assert_eq!(vector_from_bytes(&std::fs::read(&p0).unwrap()).unwrap(), gen.perturb(&[0.0; 3], 0));
    // The quarantine is journalled before the re-run's completion.
    let records = Journal::replay(dir.join(rundir::JOURNAL)).unwrap().records;
    let at = |rec: &JournalRecord| records.iter().position(|r| r == rec);
    let reason = esse::core::validate::Reason::CorruptPayload.code();
    let quarantined = at(&JournalRecord::MemberQuarantined { member: 0, reason });
    let redone = records
        .iter()
        .rposition(|r| *r == JournalRecord::MemberCompleted { member: 0, attempts: 1 });
    assert!(quarantined.is_some() && quarantined < redone, "{records:?}");
    assert_eq!(ck.state().unwrap().completed, vec![(0, 1), (1, 1)]);
}

#[test]
fn checkpoint_open_refuses_config_hash_mismatch() {
    let dir = tmp("hash");
    Checkpoint::create(&dir, 1234).unwrap();
    let err = match Checkpoint::open(&dir, 5678) {
        Err(e) => e,
        Ok(_) => panic!("mismatched hash accepted"),
    };
    assert!(err.to_string().contains("hash mismatch"), "err: {err}");
}
