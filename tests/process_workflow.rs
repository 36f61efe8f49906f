//! End-to-end test of the *process-level* workflow: the real `pert`,
//! `pemodel` and `esse_master` executables coordinating through files
//! and per-member result records, exactly like the paper's shell-script
//! implementation (§4.2).

use esse::mtc::journal::{Journal, JournalRecord};
use std::path::{Path, PathBuf};
use std::process::Command;

const DOMAIN: &str = "monterey:10,10,3";

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("esse-procwf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn master_cmd(dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_esse_master"));
    cmd.args([
        "--workdir",
        dir.to_str().unwrap(),
        "--domain",
        DOMAIN,
        "--hours",
        "1",
        "--initial",
        "4",
        "--max",
        "8",
        "--tolerance",
        "0.15",
        "--workers",
        "2",
    ]);
    cmd.args(extra);
    cmd
}

fn run_master(dir: &Path, extra: &[&str]) -> String {
    let out = master_cmd(dir, extra).output().expect("esse_master runs");
    assert!(
        out.status.success(),
        "master failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn master_produces_posterior_subspace() {
    let dir = workdir("basic");
    let log = run_master(&dir, &[]);
    assert!(log.contains("done"), "log: {log}");
    // The posterior subspace file loads and is well-formed.
    let sub = esse::fileio::read_subspace(dir.join("posterior.sub")).expect("posterior exists");
    assert!(sub.rank() >= 1);
    assert!(sub.total_variance() > 0.0);
    assert!(sub.orthonormality_defect() < 1e-8);
    // The journal and the pool result records are the only member
    // records: no per-member status directory.
    assert!(!dir.join("status").exists(), "a status/ directory came back");
    let n_fc = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            let s = name.to_string_lossy().into_owned();
            s.starts_with("fc_") && s != "fc_central.vec"
        })
        .count();
    assert!(n_fc >= 4, "at least the initial ensemble ran: {n_fc}");
}

#[test]
fn resume_reuses_completed_members() {
    let dir = workdir("resume");
    run_master(&dir, &[]);
    // Resume with a larger Nmax and tight tolerance: the master must
    // report the previously completed members as resumed.
    let log = run_master(&dir, &["--resume", "--max", "12", "--tolerance", "0.05"]);
    let resumed_line = log.lines().find(|l| l.contains("resumed")).expect("resume line present");
    // "starting with N members in the differ (resumed N)" with N >= 4.
    assert!(!resumed_line.contains("(resumed 0)"), "must resume previous members: {resumed_line}");
}

#[test]
fn master_refuses_nonempty_workdir_without_resume_or_force() {
    let dir = workdir("refuse");
    run_master(&dir, &[]);
    // A second plain invocation must refuse the populated workdir …
    let out = master_cmd(&dir, &[]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "expected refusal exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--resume") && err.contains("--force"), "stderr: {err}");
    // … while --force wipes it and starts over.
    let log = run_master(&dir, &["--force"]);
    assert!(log.contains("done"), "log: {log}");
}

#[test]
fn resume_refuses_mismatched_configuration() {
    let dir = workdir("confmismatch");
    run_master(&dir, &[]);
    // Same workdir, different forecast horizon: the journal's config
    // hash no longer matches, so --resume must refuse to mix runs.
    let out = master_cmd(&dir, &["--resume", "--hours", "2"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "expected config-mismatch refusal");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("different run"), "stderr: {err}");
}

#[test]
fn resume_refuses_a_journal_of_another_format_version() {
    let dir = workdir("jversion");
    run_master(&dir, &[]);
    // Overwrite the version byte after the 7-byte magic: what a journal
    // written by another build looks like.
    let journal = dir.join("run.journal");
    let mut raw = std::fs::read(&journal).unwrap();
    raw[7] = 1;
    std::fs::write(&journal, &raw).unwrap();
    let listing = |dir: &Path| -> Vec<_> {
        let mut names: Vec<_> =
            std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        names.sort();
        names
    };
    let before = listing(&dir);
    let out = master_cmd(&dir, &["--resume"]).output().unwrap();
    // A typed refusal, not a panic: exit code 2 and one line naming the
    // journal and the version found.
    assert_eq!(out.status.code(), Some(2), "expected a version refusal");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "stderr: {err}");
    assert!(err.contains("run.journal") && err.contains("version 1"), "stderr: {err}");
    // The workdir is untouched: same files (no stranded lock), same journal.
    assert_eq!(listing(&dir), before);
    assert_eq!(std::fs::read(&journal).unwrap(), raw);
}

#[test]
fn crashed_master_resumes_to_a_bit_identical_posterior() {
    // Reference: an uninterrupted run.
    let ref_dir = workdir("crash-ref");
    run_master(&ref_dir, &[]);
    let reference = std::fs::read(ref_dir.join("posterior.sub")).unwrap();

    // Crash the master right after its 12th durable journal append
    // (RunStart + CoordinatorStarted + the initial four EpochAdvanced
    // seeds + a handful of completed members), then resume.
    let dir = workdir("crash");
    let out = master_cmd(&dir, &["--crash-after-appends", "12"]).output().unwrap();
    assert!(!out.status.success(), "injected crash did not fire");
    assert!(dir.join("run.journal").exists(), "journal survives the crash");
    let completed = |dir: &Path| -> Vec<u64> {
        let replay = Journal::replay(dir.join("run.journal")).expect("replay journal");
        let done = replay.records.iter().filter_map(|r| match r {
            JournalRecord::MemberCompleted { member, .. } => Some(*member),
            _ => None,
        });
        done.collect()
    };
    let before = completed(&dir);
    assert!(!before.is_empty(), "the crash point is past the first completion");
    let log = run_master(&dir, &["--resume"]);
    // The journal alone carries the restart: every member completed
    // before the crash is reused, none is run again.
    assert!(log.contains(&format!("(resumed {})", before.len())), "log: {log}");
    let mut after = completed(&dir);
    assert_eq!(after[..before.len()], before[..]);
    after.sort_unstable();
    assert!(after.windows(2).all(|w| w[0] != w[1]), "a completed member ran twice: {after:?}");

    let resumed = std::fs::read(dir.join("posterior.sub")).unwrap();
    assert_eq!(resumed, reference, "resumed posterior is not bit-identical");

    // Resuming a complete run is a durable no-op.
    let log = run_master(&dir, &["--resume"]);
    assert!(log.contains("already complete"), "log: {log}");
    assert_eq!(std::fs::read(dir.join("posterior.sub")).unwrap(), reference);
}

#[test]
fn incremental_and_full_checkpoint_lanes_write_the_same_posterior() {
    // A schedule that never converges, so every checkpoint fires under
    // both estimators; the posterior is a fresh full recompute either
    // way and must not depend on `--subspace`.
    let schedule = ["--max", "12", "--tolerance", "1e-9"];
    let full = workdir("lane-full");
    run_master(&full, &[&schedule[..], &["--subspace", "full"]].concat());
    let incremental = workdir("lane-inc");
    let log = run_master(&incremental, &[&schedule[..], &["--subspace", "incremental"]].concat());
    assert!(log.contains("N=12 rho="), "the last checkpoint fired: {log}");
    assert_eq!(
        std::fs::read(incremental.join("posterior.sub")).unwrap(),
        std::fs::read(full.join("posterior.sub")).unwrap(),
        "--subspace changed the posterior bytes"
    );
}

#[test]
fn pert_singleton_is_deterministic_per_member() {
    let dir = workdir("pert");
    // Prepare mean + prior by letting the master initialize, but run
    // pert directly twice for the same member.
    let (model, st0) = esse::cli::build_model(DOMAIN).unwrap();
    esse::fileio::write_vector(dir.join("mean.vec"), &st0.pack()).unwrap();
    let prior = esse::core::priors::smooth_temperature_prior(&model.grid, 6, 0.4, 2.0, 9);
    esse::fileio::write_subspace(dir.join("prior.sub"), &prior).unwrap();
    for _ in 0..2 {
        let out = Command::new(env!("CARGO_BIN_EXE_pert"))
            .args(["--workdir", dir.to_str().unwrap(), "--member", "3"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let a = esse::fileio::read_vector(dir.join("ic_3.vec")).unwrap();
    // Regenerate in-process and compare bitwise.
    let gen = esse::core::perturb::PerturbationGenerator::new(
        &prior,
        esse::core::perturb::PerturbConfig::default(),
    );
    let b = gen.perturb(&st0.pack(), 3);
    assert_eq!(a, b, "file-based pert must equal in-process pert");
}

#[test]
fn pemodel_rejects_mismatched_domain() {
    let dir = workdir("mismatch");
    // IC from a 10x10x3 domain, pemodel told 12x12x3: must exit nonzero.
    let (_, st0) = esse::cli::build_model(DOMAIN).unwrap();
    esse::fileio::write_vector(dir.join("ic_0.vec"), &st0.pack()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pemodel"))
        .args([
            "--workdir",
            dir.to_str().unwrap(),
            "--domain",
            "monterey:12,12,3",
            "--hours",
            "1",
            "--member",
            "0",
            "--seed",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not match"));
}
