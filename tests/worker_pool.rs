//! Integration tests for the decoupled task pool (§4): a pure
//! coordinator (`--workers 0`) driven entirely by autonomous
//! `esse_worker` processes that were started independently, plus the
//! advisory `master.lock` workdir exclusion.

use esse::mtc::journal::{Journal, JournalRecord};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const DOMAIN: &str = "monterey:10,10,3";

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("esse-workerpool-{tag}-{}", std::process::id()));
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
    ]);
    cmd.args(extra);
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

fn spawn_worker(dir: &Path, id: usize) -> Child {
    Command::new(env!("CARGO_BIN_EXE_esse_worker"))
        .args([
            "--workdir",
            dir.to_str().unwrap(),
            "--worker-id",
            &id.to_string(),
            "--poll-ms",
            "5",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn esse_worker")
}

fn wait_deadline(child: &mut Child, secs: u64, what: &str) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            return st;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} did not exit within {secs}s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn external_workers_drive_the_run_to_completion() {
    let dir = workdir("external");
    // Pure coordinator: seeds tasks, watches leases, never forks a
    // singleton itself.
    let mut master = master_cmd(&dir, &["--workers", "0"]).spawn().expect("spawn master");
    // Workers started independently — no registration, they discover
    // the pool on disk (racing master startup on purpose).
    let mut workers: Vec<Child> = (0..2).map(|id| spawn_worker(&dir, id)).collect();

    let status = wait_deadline(&mut master, 120, "coordinator");
    assert!(status.success(), "coordinator failed: {status}");
    // The SHUTDOWN tombstone sends every worker home.
    for (id, w) in workers.iter_mut().enumerate() {
        let st = wait_deadline(w, 15, "worker");
        assert!(st.success(), "worker {id} exited with {st}");
    }

    let sub = esse::fileio::read_subspace(dir.join("posterior.sub")).expect("posterior exists");
    assert!(sub.rank() >= 1);
    assert!(sub.orthonormality_defect() < 1e-8);
    let replay = Journal::replay(dir.join("run.journal")).expect("replay journal");
    assert!(
        replay.records.iter().any(|r| matches!(r, JournalRecord::RunComplete { .. })),
        "journal must record completion"
    );
    let completed = replay
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::MemberCompleted { .. }))
        .count();
    assert!(completed >= 4, "external workers completed {completed} members");
}

/// Run the master to completion with a local fleet and return its
/// stdout and wall time.
fn run_master(dir: &Path, extra: &[&str]) -> (String, Duration) {
    let started = Instant::now();
    let out = master_cmd(dir, extra).stdout(Stdio::piped()).output().expect("run esse_master");
    assert!(out.status.success(), "master failed: {}", out.status);
    (String::from_utf8_lossy(&out.stdout).into_owned(), started.elapsed())
}

/// The number after `key` on the master's "pool stats" line.
fn pool_stat(log: &str, key: &str) -> u64 {
    let line = log.lines().find(|l| l.contains("pool stats")).expect("pool stats line");
    let tail =
        &line[line.find(key).unwrap_or_else(|| panic!("no {key:?} in {line:?}")) + key.len()..];
    tail.trim_start().split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
}

#[test]
fn a_member_that_outlasts_its_lease_is_renewed_not_expired() {
    let dir = workdir("longlease");
    // Each member runs for about a second — between two and three
    // 400 ms leases — in either build profile; the worker's wait loop
    // must keep renewing the whole time.
    let hours = if cfg!(debug_assertions) { "18" } else { "120" };
    let scenario =
        ["--domain", "monterey:24,24,6", "--hours", hours, "--initial", "2", "--max", "2"];
    let (log, _) =
        run_master(&dir, &[&scenario[..], &["--workers", "2", "--lease-ms", "400"]].concat());
    assert_eq!(pool_stat(&log, "expired"), 0, "a live worker lost its lease: {log}");
    // Five renewals span one lease: fewer than that per member means the
    // members did not outlast it and the scenario needs resizing.
    assert!(pool_stat(&log, "renewed") >= 10, "members did not outlast the lease: {log}");
}

#[test]
fn a_finished_task_does_not_wait_out_a_heartbeat_interval() {
    let dir = workdir("nojoin");
    // With a 3 s lease the heartbeat interval is 600 ms. Eight trivial
    // members on one worker must not cost anything like 8 x 600 ms:
    // nothing sleeps out an interval after the forecast is done.
    let members = 8;
    let (log, took) = run_master(
        &dir,
        &[
            "--initial",
            "8",
            "--max",
            "8",
            "--tolerance",
            "1e-9",
            "--workers",
            "1",
            "--lease-ms",
            "3000",
        ],
    );
    assert_eq!(pool_stat(&log, "ingested"), members);
    assert_eq!(pool_stat(&log, "expired"), 0);
    assert!(took < Duration::from_millis(300 * members), "{members} members took {took:?}");
}

#[test]
fn workdir_locked_by_a_live_master_is_refused() {
    let dir = workdir("locked");
    // The lock names this test process — very much alive.
    std::fs::write(dir.join("master.lock"), format!("{}\n", std::process::id())).unwrap();
    let out = master_cmd(&dir, &["--resume"])
        .stderr(Stdio::piped())
        .output()
        .expect("run master against locked workdir");
    // Exit 3 is the live-owner/race-loser code, distinct from config
    // errors (exit 2) so a resume supervisor can tell them apart.
    assert_eq!(out.status.code(), Some(3), "expected lock refusal");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("locked by a running master"), "stderr: {err}");
}

#[test]
fn stale_lock_from_a_dead_master_is_broken() {
    let dir = workdir("stalelock");
    // A PID beyond pid_max cannot be alive: the lock is stale and the
    // run must proceed as if it were not there.
    std::fs::write(dir.join("master.lock"), "4194304999\n").unwrap();
    let status = master_cmd(&dir, &["--resume", "--workers", "2"])
        .status()
        .expect("run master over stale lock");
    assert!(status.success(), "stale lock must be broken, got {status}");
    assert!(dir.join("posterior.sub").exists());
}

#[test]
fn worker_gives_up_when_no_pool_appears() {
    let dir = workdir("nopool");
    let out = Command::new(env!("CARGO_BIN_EXE_esse_worker"))
        .args(["--workdir", dir.to_str().unwrap(), "--wait-pool-ms", "200"])
        .output()
        .expect("run esse_worker without a pool");
    assert_eq!(out.status.code(), Some(2), "expected pool-wait timeout exit");
}
