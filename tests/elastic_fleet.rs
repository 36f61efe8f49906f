//! Elastic-membership integration test for the TCP transport (§13):
//! a pure coordinator serves a remote fleet that *changes shape
//! mid-run* — two workers connect at launch, two more join while the
//! ensemble is in flight, and one founding worker is SIGKILLed — and
//! the posterior must still be bit-identical to a fixed one-worker
//! disk-transport reference, because forecasts are pure functions of
//! `(member, seed)` and the decided prefix is transport-independent.
//!
//! The same pair of runs doubles as the makespan check: the elastic
//! fleet keeps at least two workers live at all times, so it must beat
//! the serial reference wall-clock on the identical task set.

use esse::mtc::journal::{Journal, JournalRecord};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

// Sized so a member forecast costs about 200 ms in either build
// profile: the killed founder's task is only requeued after its 500 ms
// lease expires, and the makespan comparison below needs the sixteen
// members' compute, not that one stall, to dominate both runs.
const DOMAIN: &str = "monterey:24,24,6";
const HOURS: &str = if cfg!(debug_assertions) { "3" } else { "40" };
const INITIAL: &str = "6";
const MAX: &str = "16";
// Low tolerance drives the adaptive schedule toward --max so there is
// plenty of undecided work left when the joiners arrive.
const TOLERANCE: &str = "0.05";

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("esse-elastic-{tag}-{}", std::process::id()));
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
        HOURS,
        "--initial",
        INITIAL,
        "--max",
        MAX,
        "--tolerance",
        TOLERANCE,
        "--lease-ms",
        "500",
    ]);
    cmd.args(extra);
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// Spawn a TCP worker with stdout piped so the final
/// `exiting after X/Y task(s) published` line can be parsed.
fn spawn_tcp_worker(dir: &Path, endpoint: &str, id: usize) -> Child {
    Command::new(env!("CARGO_BIN_EXE_esse_worker"))
        .args([
            "--connect",
            endpoint,
            "--scratch",
            dir.join(format!("scratch-w{id}")).to_str().unwrap(),
            "--worker-id",
            &id.to_string(),
            "--poll-ms",
            "5",
            "--reconnect-grace-ms",
            "3000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn esse_worker")
}

fn wait_endpoint(dir: &Path) -> String {
    let path = dir.join("pool").join("endpoint");
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(30) {
        if let Ok(Some((addr, _generation))) = esse_net::read_endpoint(&path) {
            return addr;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("coordinator never published {}", path.display());
}

/// Block until the journal records at least `n` completed members —
/// the signal that the run is genuinely underway before the fleet
/// changes shape. Replay tolerates the torn tail of a live journal.
fn wait_completed(dir: &Path, n: usize) {
    let journal = dir.join("run.journal");
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(60) {
        let count = Journal::replay(&journal)
            .map(|r| {
                r.records
                    .iter()
                    .filter(|rec| matches!(rec, JournalRecord::MemberCompleted { .. }))
                    .count()
            })
            .unwrap_or(0);
        if count >= n {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("run never completed {n} members");
}

fn wait_master(child: &mut Child, secs: u64) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            return st;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("coordinator did not exit within {secs}s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Published-task count from a finished worker's
/// `esse_worker[id]: exiting after X/Y task(s) published` line.
fn published_tasks(worker: &mut Child) -> usize {
    let mut out = String::new();
    worker.stdout.take().expect("piped stdout").read_to_string(&mut out).expect("read stdout");
    out.lines()
        .filter_map(|l| l.split("exiting after ").nth(1))
        .filter_map(|tail| tail.split('/').next())
        .filter_map(|n| n.trim().parse::<usize>().ok())
        .next_back()
        .unwrap_or_else(|| panic!("no exit summary in worker stdout: {out:?}"))
}

#[test]
fn midrun_joins_and_a_kill_leave_the_posterior_bit_identical() {
    // Fixed-fleet reference: one local disk-transport worker, serial.
    let ref_dir = workdir("reference");
    let ref_t0 = Instant::now();
    let status = master_cmd(&ref_dir, &["--workers", "1"]).status().expect("run reference master");
    let ref_makespan = ref_t0.elapsed();
    assert!(status.success(), "reference run failed: {status}");
    let reference =
        std::fs::read(ref_dir.join("posterior.sub")).expect("reference posterior exists");

    // Elastic run: pure coordinator, remote fleet over TCP.
    let dir = workdir("elastic");
    let t0 = Instant::now();
    let mut master = master_cmd(&dir, &["--workers", "0", "--listen", "127.0.0.1:0"])
        .spawn()
        .expect("spawn elastic master");
    let endpoint = wait_endpoint(&dir);

    // Founding fleet of two.
    let mut w0 = spawn_tcp_worker(&dir, &endpoint, 0);
    let mut w1 = spawn_tcp_worker(&dir, &endpoint, 1);

    // Once the run is demonstrably in flight, grow the fleet by two…
    wait_completed(&dir, 2);
    let mut joiners = [spawn_tcp_worker(&dir, &endpoint, 2), spawn_tcp_worker(&dir, &endpoint, 3)];
    // …and kill a founder. Its leased task expires on the coordinator
    // clock and is requeued to whoever claims next.
    wait_completed(&dir, 3);
    let _ = w1.kill();
    let _ = w1.wait();

    let status = wait_master(&mut master, 120);
    let makespan = t0.elapsed();
    assert!(status.success(), "elastic run failed: {status}");

    // Survivors drain home on the SHUTDOWN reply.
    let deadline = Instant::now() + Duration::from_secs(15);
    for w in std::iter::once(&mut w0).chain(joiners.iter_mut()) {
        loop {
            if let Some(st) = w.try_wait().expect("try_wait worker") {
                assert!(st.success(), "surviving worker exited with {st}");
                break;
            }
            assert!(Instant::now() < deadline, "worker did not exit after shutdown");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // The joiners were handed real work, not just connections.
    for (i, w) in joiners.iter_mut().enumerate() {
        let n = published_tasks(w);
        assert!(n >= 1, "mid-run joiner {} published {n} tasks — never received work", i + 2);
    }

    // Same decided prefix, same forecasts, same posterior — bit for bit.
    let elastic = std::fs::read(dir.join("posterior.sub")).expect("elastic posterior exists");
    assert_eq!(reference, elastic, "elastic posterior diverged from fixed-fleet reference");

    // At least two workers were live at every instant, so the elastic
    // fleet must beat the one-worker reference on wall clock.
    assert!(
        makespan < ref_makespan,
        "mid-run joins failed to reduce makespan: elastic {makespan:?} vs serial reference \
         {ref_makespan:?}"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
