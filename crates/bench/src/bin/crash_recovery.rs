//! `crash_recovery` — the kill–resume recovery harness.
//!
//! Proves the crash-consistency contract of the durable run journal by
//! actually killing `esse_master` and resuming it, two ways:
//!
//! 1. **Deterministic abort sweep** — run the master with the hidden
//!    `--crash-after-appends K` injection for every journal append
//!    point `K` of the reference run, so the coordinator dies exactly
//!    once at every commit boundary;
//! 2. **Seeded SIGKILL loop** — spawn the master, poll the journal's
//!    byte length, and SIGKILL the process the moment it crosses a
//!    seeded offset — a death point *inside* write syscalls, not just
//!    between them.
//!
//! After every death the harness resumes the run and asserts the
//! kill–resume invariant:
//!
//! * the resumed run completes and its `posterior.sub` is
//!   **bit-identical** to an uninterrupted reference run's;
//! * the journal never records `MemberCompleted` twice for a member
//!   that was not quarantined in between — i.e. no completed member
//!   was ever re-run.
//!
//! Flags: `USAGE` below.
//!
//! Exits non-zero on the first violated invariant (CI gate).

#[path = "../run_checks.rs"]
mod run_checks;

use esse::cli::{self, get, sibling};
use esse_mtc::rundir;
use run_checks::{assert_no_reruns, read_posterior, xorshift64};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const USAGE: &str = "crash_recovery [--domain D] [--hours H] [--initial N] [--max NMAX] \
                     [--tolerance T] [--workers C] [--base-seed S] \
                     [--stride K] [--kills K] [--master PATH] [--keep]";

struct MasterConfig {
    master: PathBuf,
    domain: String,
    hours: f64,
    initial: usize,
    max: usize,
    tolerance: f64,
    workers: usize,
    base_seed: u64,
}

impl MasterConfig {
    fn command(&self, workdir: &Path) -> Command {
        let mut cmd = Command::new(&self.master);
        cmd.arg("--workdir")
            .arg(workdir)
            .arg("--domain")
            .arg(&self.domain)
            .arg("--hours")
            .arg(self.hours.to_string())
            .arg("--initial")
            .arg(self.initial.to_string())
            .arg("--max")
            .arg(self.max.to_string())
            .arg("--tolerance")
            .arg(self.tolerance.to_string())
            .arg("--workers")
            .arg(self.workers.to_string())
            .arg("--base-seed")
            .arg(self.base_seed.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        cmd
    }
}

/// Resume a killed run to completion (the resume itself must succeed
/// on the first try; a second attempt would mask a recovery bug).
fn resume_and_check(cfg: &MasterConfig, workdir: &Path, reference: &[u8]) -> Result<(), String> {
    let status =
        cfg.command(workdir).arg("--resume").status().map_err(|e| format!("spawn resume: {e}"))?;
    if !status.success() {
        return Err(format!("resume exited with {status}"));
    }
    assert_no_reruns(&workdir.join(rundir::JOURNAL))?;
    let posterior = read_posterior(workdir)?;
    if posterior != reference {
        return Err("resumed posterior differs from uninterrupted reference".into());
    }
    Ok(())
}

fn main() {
    let args = cli::args(USAGE);
    let cfg = MasterConfig {
        master: args.get("master").map(PathBuf::from).unwrap_or_else(|| sibling("esse_master")),
        domain: args.get("domain").cloned().unwrap_or_else(|| "monterey:6,5,4".into()),
        hours: get(&args, "hours").unwrap_or(2.0),
        initial: get(&args, "initial").unwrap_or(4),
        max: get(&args, "max").unwrap_or(12),
        tolerance: get(&args, "tolerance").unwrap_or(0.2),
        workers: get(&args, "workers").unwrap_or(2),
        base_seed: get(&args, "base-seed").unwrap_or(0x5EED),
    };
    let stride: usize = get(&args, "stride").unwrap_or(1).max(1);
    let kills: usize = get(&args, "kills").unwrap_or(3);
    let keep = args.contains_key("keep");
    if !cfg.master.exists() {
        eprintln!(
            "FAIL: esse_master not found at {} (build it, or pass --master PATH)",
            cfg.master.display()
        );
        std::process::exit(2);
    }

    let root = std::env::temp_dir().join(format!("esse-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create harness root");

    // --- Reference: one uninterrupted run. ---
    let t0 = Instant::now();
    let ref_dir = root.join("reference");
    let status = cfg.command(&ref_dir).status().expect("spawn reference master");
    if !status.success() {
        eprintln!("FAIL: reference run exited with {status}");
        std::process::exit(1);
    }
    let reference = read_posterior(&ref_dir).unwrap_or_else(|e| {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    });
    let ref_appends = assert_no_reruns(&ref_dir.join(rundir::JOURNAL)).unwrap_or_else(|e| {
        eprintln!("FAIL: reference journal: {e}");
        std::process::exit(1);
    });
    let ref_journal_len =
        std::fs::metadata(ref_dir.join(rundir::JOURNAL)).map(|m| m.len()).unwrap_or(0);
    println!(
        "reference: {} journal records, {} journal bytes, posterior {} bytes ({:.1?})",
        ref_appends,
        ref_journal_len,
        reference.len(),
        t0.elapsed()
    );

    let mut failures = 0usize;
    let mut trials = 0usize;

    // --- Sweep 1: deterministic abort at every journal append. ---
    for k in (1..=ref_appends).step_by(stride) {
        trials += 1;
        let dir = root.join(format!("abort-{k}"));
        let status = cfg
            .command(&dir)
            .arg("--crash-after-appends")
            .arg(k.to_string())
            .status()
            .expect("spawn crashing master");
        if status.success() {
            // The injection point was past the run's own append count
            // (e.g. fewer SVD rounds this time); nothing to recover.
            println!("abort@{k:<3}: run finished before injection point");
        }
        match resume_and_check(&cfg, &dir, &reference) {
            Ok(()) => println!("abort@{k:<3}: resumed, bit-identical posterior"),
            Err(e) => {
                failures += 1;
                eprintln!("FAIL abort@{k}: {e}");
            }
        }
        if !keep {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // --- Sweep 2: SIGKILL at seeded journal byte offsets. ---
    let mut seed = cfg.base_seed | 1;
    for i in 0..kills {
        trials += 1;
        seed = xorshift64(seed);
        // Offsets past the header, up to slightly beyond the reference
        // length (a kill that never fires degenerates to a clean run).
        let offset = 9 + seed % ref_journal_len.max(10);
        let dir = root.join(format!("kill-{i}"));
        let mut child = cfg.command(&dir).spawn().expect("spawn master for SIGKILL");
        let journal = dir.join(rundir::JOURNAL);
        let killed = loop {
            if let Some(st) = child.try_wait().expect("try_wait") {
                break st.success(); // finished before the offset
            }
            let len = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
            if len >= offset {
                child.kill().expect("SIGKILL master");
                let _ = child.wait();
                break false;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let what = if killed { "finished first" } else { "killed" };
        match resume_and_check(&cfg, &dir, &reference) {
            Ok(()) => println!("kill@{offset:<5} ({what}): resumed, bit-identical posterior"),
            Err(e) => {
                failures += 1;
                eprintln!("FAIL kill@{offset} ({what}): {e}");
            }
        }
        if !keep {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    if !keep {
        let _ = std::fs::remove_dir_all(&root);
    }
    if failures > 0 {
        eprintln!("FAIL: {failures}/{trials} kill–resume trials violated the invariant");
        std::process::exit(1);
    }
    println!(
        "PASS: {trials} kill–resume trials, every resume bit-identical, no member re-run ({:.1?})",
        t0.elapsed()
    );
}
