//! End-to-end test of the *process-level* workflow: the real `pert`,
//! `pemodel` and `esse_master` executables coordinating through files
//! and per-member result records, exactly like the paper's shell-script
//! implementation (§4.2).

use esse::mtc::journal::{Journal, JournalRecord};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

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
fn force_on_a_live_masters_workdir_exits_locked_and_leaves_its_journal() {
    let dir = workdir("force-live");
    // A pure coordinator: it seeds the pool and waits for workers that
    // never come.
    let mut live = master_cmd(&dir, &["--workers", "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("esse_master starts");
    let seeded = || std::fs::read_dir(dir.join("pool/pending")).map_or(0, |d| d.count()) >= 4;
    let deadline = Instant::now() + Duration::from_secs(60);
    while !seeded() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let journal = std::fs::read(dir.join("run.journal"));
    let out = master_cmd(&dir, &["--force"]).output().unwrap();
    let after = std::fs::read(dir.join("run.journal"));
    let alive = live.try_wait().unwrap().is_none();
    let _ = live.kill();
    let _ = live.wait();
    assert!(seeded(), "the live master never seeded its pool");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "--force on a live master's workdir: {err}");
    assert!(alive, "the live master exited");
    assert!(after.ok() == journal.ok(), "--force changed a live master's run.journal");
}

/// `bin` with `args` and a misspelled `--workers` exits 2 naming it.
fn rejects_a_misspelled_flag(cmd: &mut Command) {
    let out = cmd.args(["--wokers", "1"]).output().expect("the binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "a misspelled flag is a usage error: {err}");
    assert!(err.contains("--wokers"), "stderr: {err}");
}

#[test]
fn esse_master_rejects_a_misspelled_flag() {
    let dir = workdir("flag-master");
    rejects_a_misspelled_flag(&mut master_cmd(&dir, &[]));
    assert!(!dir.join("run.journal").exists(), "a refused run wrote a journal");
}

#[test]
fn esse_worker_rejects_a_misspelled_flag() {
    let dir = workdir("flag-worker");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_esse_worker"));
    rejects_a_misspelled_flag(cmd.args([
        "--workdir",
        dir.to_str().unwrap(),
        "--wait-pool-ms",
        "50",
    ]));
}

#[test]
fn pert_rejects_a_misspelled_flag() {
    let dir = workdir("flag-pert");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pert"));
    rejects_a_misspelled_flag(cmd.args(["--workdir", dir.to_str().unwrap(), "--member", "0"]));
}

#[test]
fn pemodel_rejects_a_misspelled_flag() {
    let dir = workdir("flag-pemodel");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pemodel"));
    let args = ["--domain", DOMAIN, "--hours", "1", "--member", "0", "--seed", "1"];
    rejects_a_misspelled_flag(cmd.args(["--workdir", dir.to_str().unwrap()]).args(args));
}

/// A flag value that does not parse exits 2 naming the flag, as a
/// misspelled flag does; it never runs as the flag's default. The
/// master refuses before it writes a journal.
#[test]
fn every_binary_rejects_a_malformed_flag_value() {
    let dir = workdir("flag-values");
    let d = dir.to_str().unwrap();
    let mut worker = Command::new(env!("CARGO_BIN_EXE_esse_worker"));
    worker.args(["--workdir", d, "--wait-pool-ms", "50", "--worker-id", "w1"]);
    let mut pert = Command::new(env!("CARGO_BIN_EXE_pert"));
    pert.args(["--workdir", d, "--member", "0", "--white-noise", "lots"]);
    let mut pemodel = Command::new(env!("CARGO_BIN_EXE_pemodel"));
    pemodel.args(["--workdir", d, "--domain", DOMAIN, "--hours", "one", "--member", "0"]);
    pemodel.args(["--seed", "1"]);
    let cases = [
        (master_cmd(&dir, &["--fail-appends", "two"]), "--fail-appends"),
        (worker, "--worker-id"),
        (pert, "--white-noise"),
        (pemodel, "--hours"),
    ];
    for (mut cmd, flag) in cases {
        let out = cmd.output().expect("the binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "a malformed {flag} is a usage error: {err}");
        assert!(err.contains(flag), "stderr: {err}");
    }
    assert!(!dir.join("run.journal").exists(), "a refused run wrote a journal");
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

    // Resuming a complete run is a durable no-op: it appends nothing and
    // reads no forecast, so a missing one changes nothing either.
    let journal = std::fs::read(dir.join("run.journal")).unwrap();
    let log = run_master(&dir, &["--resume"]);
    assert!(log.contains("already complete"), "log: {log}");
    assert_eq!(std::fs::read(dir.join("posterior.sub")).unwrap(), reference);
    assert_eq!(std::fs::read(dir.join("run.journal")).unwrap(), journal);
    std::fs::remove_file(dir.join("fc_0.vec")).unwrap();
    let log = run_master(&dir, &["--resume"]);
    assert!(log.contains("already complete"), "log: {log}");
    assert_eq!(std::fs::read(dir.join("run.journal")).unwrap(), journal);
    assert_eq!(std::fs::read(dir.join("posterior.sub")).unwrap(), reference);
    assert!(!dir.join("quarantine").exists(), "a finished run quarantined a member");
}

/// Run the master with `--listen` on a port the test holds: a refusal
/// (exit 2) naming the listen address.
fn refused_listen(dir: &Path, extra: &[&str]) {
    let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = held.local_addr().unwrap().to_string();
    let out = master_cmd(dir, &[extra, &["--listen", &addr]].concat()).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "an unbindable --listen is a refusal: {err}");
    assert!(err.contains("cannot listen") && err.contains(&addr), "stderr: {err}");
}

#[test]
fn an_unbindable_listen_address_leaves_a_fresh_workdir_as_found() {
    let dir = workdir("listen-fresh");
    refused_listen(&dir, &[]);
    for name in ["run.journal", "pool", "mean.vec", "prior.sub", "fc_central.vec", "master.lock"] {
        assert!(!dir.join(name).exists(), "a refused run left {name}");
    }
}

#[test]
fn an_unbindable_listen_address_leaves_a_crashed_runs_journal_unchanged() {
    let dir = workdir("listen-resume");
    let out = master_cmd(&dir, &["--crash-after-appends", "8"]).output().unwrap();
    assert!(!out.status.success(), "injected crash did not fire");
    let journal = std::fs::read(dir.join("run.journal")).unwrap();
    refused_listen(&dir, &["--resume"]);
    let after = std::fs::read(dir.join("run.journal")).unwrap();
    assert!(after == journal, "a refused resume changed run.journal");
}

#[test]
fn a_failed_journal_append_parks_the_master_and_resume_finishes_the_run() {
    let ref_dir = workdir("park-ref");
    run_master(&ref_dir, &[]);

    // The 11th append of the incarnation fails like a full disk.
    let dir = workdir("park");
    let out = master_cmd(&dir, &["--fail-appends", "10"]).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "a parked run exits 4: {err}");
    assert!(err.contains("journal append failed"), "stderr: {err}");
    // Exactly the appends before the failure are durable, and nothing
    // is torn.
    let replay = Journal::replay(dir.join("run.journal")).expect("replay journal");
    assert_eq!((replay.records.len(), replay.torn_bytes), (10, 0));
    // Parked, not finished: no tombstone tells the workers to leave.
    assert!(!dir.join("pool/SHUTDOWN").exists(), "a parked run wrote SHUTDOWN");

    run_master(&dir, &["--resume"]);
    assert_eq!(
        std::fs::read(dir.join("posterior.sub")).unwrap(),
        std::fs::read(ref_dir.join("posterior.sub")).unwrap(),
        "the resumed posterior differs from an uninterrupted run's"
    );
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
