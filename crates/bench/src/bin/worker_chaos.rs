//! `worker_chaos` — the kill-random-workers chaos harness for the
//! decoupled on-disk task pool.
//!
//! Proves the lease + fencing contract of the pull-model workflow by
//! actually SIGKILLing `esse_worker` processes while a pure-coordinator
//! `esse_master` (`--workers 0`) watches the pool:
//!
//! 1. **Reference** — one uninterrupted run with a single local worker.
//! 2. **Chaos sweep** — N external workers, with a seeded schedule that
//!    SIGKILLs a random worker every few tens of milliseconds and
//!    spawns a replacement; killed workers die holding claims, so every
//!    recovery goes through lease expiry and an epoch-bumped requeue.
//! 3. **Zombie fencing** — one worker is started with a stall injection
//!    (`--stall-task 0 --stall-ms D`, D ≫ lease): it claims member 0,
//!    stops heartbeating, sleeps past its lease expiry while the
//!    coordinator requeues the member at the next epoch, then *wakes up
//!    and publishes anyway*. The harness asserts the stale-epoch result
//!    was fenced off (never ingested) and the lease expiry was seen.
//!
//! After every scenario the harness asserts the chaos invariant:
//!
//! * the run **converges** and its `posterior.sub` is **bit-identical**
//!   to the unkilled single-worker reference;
//! * the journal never records `MemberCompleted` twice for a member
//!   that was not quarantined in between — no double ingestion;
//! * (scenario 3) the fencing-rejected and lease-expired counters are
//!   both non-zero — the zombie's publish really was rejected.
//!
//! Every scenario runs with distributed tracing on, and two more
//! invariants ride along: the merged trace (`pool.trace.jsonl`) must
//! analyze to a valid fleet DAG — zero orphan cross-process edges and
//! a critical path that enters the worker processes — even though
//! SIGKILL'd workers died holding unshipped span batches, and a
//! tracing-off re-run of the reference must produce a byte-identical
//! posterior, proving tracing is purely observational.
//!
//! With `--transport tcp` the chaos and zombie scenarios run over the
//! esse-net wire protocol instead of the shared filesystem: the master
//! opens `--listen 127.0.0.1:0`, the harness reads the bound address
//! from the pool's endpoint file, and every worker joins with
//! `--connect` and a private scratch workdir. The reference run stays
//! on the disk transport, so the bit-identity assertions prove the two
//! transports produce the same posterior under the same kill schedule
//! — including the held-open zombie whose stale publish must be fenced
//! at the coordinator regardless of how it arrived.
//!
//! **`--kill-master`** inverts the chaos: instead of killing workers
//! under a healthy coordinator, it kills the *coordinator* under a
//! healthy fleet — once inside the ingest loop (a journal-append abort
//! immediately after the first `MemberCompleted`, before the result is
//! consumed), once at the SVD-publish point (SIGKILL the instant the
//! first `SvdPublished` record lands), and once at a seeded arbitrary
//! instant — resuming with `--resume` after each kill, with worker
//! kills interleaved into the outage windows. Workers run with a
//! 10-second `--coordinator-grace-ms` so they park through every
//! outage (finding the restarted coordinator via `master.lock` on the
//! disk transport, via the rewritten `pool/endpoint` file over TCP),
//! and the harness asserts that no completed member is ever re-run, no
//! surviving worker orphans out of the fleet, the journal counts
//! exactly one `CoordinatorStarted` per *working* incarnation (a
//! resume that finds the run already finished is a durable no-op and
//! journals nothing) in agreement with the incarnation gauge, and the
//! posterior is bit-identical to the never-killed reference.
//!
//! **`--corrupt-members RATE`** swaps the crash chaos for *semantic*
//! chaos: every worker runs with seeded payload corruption (NaN
//! injection, norm blowups, off-by-one block shifts) at the given rate,
//! so a fraction of forecasts publish plausible-looking garbage instead
//! of dying loudly. Two scenarios run: one under the worker-kill
//! schedule, and one that SIGKILLs the *coordinator* right after the
//! first quarantine lands (with a worker kill in the outage) and
//! resumes. The harness asserts every corrupt payload was quarantined
//! with a journalled non-zero reason code, no quarantined member was
//! lost to the requeue budget, the coordinator's trace rollup agrees
//! with the journal, and the final posterior is **bit-identical** to
//! the corruption-free reference — self-healing replacement leaves no
//! trace of the corruption in the subspace. Because the corruption
//! draw is a pure hash of `(--fault-seed, member, epoch)`, the harness
//! refuses seeds whose first-epoch draws inject nothing (exit 2): a
//! passing run always actually exercised quarantine.
//!
//! ```text
//! worker_chaos [--transport disk|tcp] [--kill-master] [--domain D]
//!              [--hours H] [--initial N] [--max NMAX] [--tolerance T]
//!              [--workers W] [--seed S] [--kill-ms MS] [--lease-ms MS]
//!              [--base-seed S] [--corrupt-members RATE] [--fault-seed S]
//!              [--master PATH] [--worker PATH] [--artifacts DIR] [--keep]
//! ```
//!
//! Exits non-zero on the first violated invariant (CI gate). On failure
//! the workdirs (journals, pool state, traces) are left in the
//! artifacts directory for post-mortem upload.

use esse_mtc::journal::{Journal, JournalRecord};
use esse_mtc::pool::CODE_QUARANTINE_BUDGET;
use esse_mtc::FaultPlan;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn parse_args(argv: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < argv.len() {
        if let Some(key) = argv[i].strip_prefix("--") {
            let val = argv.get(i + 1).filter(|v| !v.starts_with("--"));
            match val {
                Some(v) => {
                    map.insert(key.to_string(), v.clone());
                    i += 2;
                }
                None => {
                    map.insert(key.to_string(), String::new());
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    map
}

fn get_or<T: std::str::FromStr>(args: &HashMap<String, String>, key: &str, default: T) -> T {
    args.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn sibling(name: &str) -> PathBuf {
    let mut exe = std::env::current_exe().expect("current exe path");
    exe.set_file_name(name);
    exe
}

/// Deterministic stream for the kill schedule.
fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

struct ChaosConfig {
    master: PathBuf,
    worker: PathBuf,
    domain: String,
    hours: f64,
    initial: usize,
    max: usize,
    tolerance: f64,
    base_seed: u64,
    lease_ms: u64,
    /// `true` = workers join over the esse-net TCP transport instead of
    /// the shared filesystem.
    tcp: bool,
}

impl ChaosConfig {
    /// Coordinator command; `workers` local workers (0 = externals
    /// only). `trace` enables distributed tracing (`--trace-out`);
    /// tracing must be purely observational, so a tracing-off run of
    /// the same config asserts the posterior is byte-identical.
    fn master(&self, workdir: &Path, workers: usize, trace: bool) -> Command {
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
            .arg(workers.to_string())
            .arg("--base-seed")
            .arg(self.base_seed.to_string())
            .arg("--lease-ms")
            .arg(self.lease_ms.to_string())
            .arg("--metrics-out")
            .arg(workdir.join("metrics.prom"))
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if trace {
            cmd.arg("--trace-out").arg(workdir.join("pool.trace.jsonl"));
        }
        if self.tcp && workers == 0 {
            // Pure-coordinator scenarios listen for the remote fleet on
            // an ephemeral port discovered via the endpoint file.
            cmd.arg("--listen").arg("127.0.0.1:0");
        }
        cmd
    }

    /// Block until the coordinator's listener publishes its bound
    /// address into `pool/endpoint` (TCP transport only).
    fn wait_endpoint(&self, workdir: &Path) -> String {
        let path = workdir.join("pool").join("endpoint");
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            if let Ok(Some((addr, _generation))) = esse_net::read_endpoint(&path) {
                return addr;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        eprintln!("FAIL: coordinator never wrote {}", path.display());
        std::process::exit(2);
    }

    fn spawn_worker(&self, workdir: &Path, id: usize, extra: &[String]) -> Child {
        let mut cmd = Command::new(&self.worker);
        if self.tcp {
            // Remote worker: no shared filesystem assumptions — inputs
            // are staged over the wire into a private scratch dir.
            cmd.arg("--connect")
                .arg(self.wait_endpoint(workdir))
                .arg("--scratch")
                .arg(workdir.join(format!("scratch-w{id}")))
                .arg("--reconnect-grace-ms")
                .arg("3000");
        } else {
            cmd.arg("--workdir").arg(workdir);
        }
        cmd.arg("--worker-id")
            .arg(id.to_string())
            .arg("--poll-ms")
            .arg("5")
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for a in extra {
            cmd.arg(a);
        }
        cmd.spawn().expect("spawn esse_worker")
    }

    /// A worker for the `--kill-master` scenario: a coordinator-grace
    /// window far above any outage this harness stages, so coordinator
    /// death means *park* — finish and publish the held task, keep
    /// heartbeating, find the restarted coordinator (via `master.lock`
    /// on the disk transport, via the rewritten endpoint file over
    /// TCP) — never exit. Stderr goes to a per-id log file so the
    /// harness can assert no surviving worker ever logged the orphan
    /// marker.
    fn spawn_parked_worker(
        &self,
        workdir: &Path,
        id: usize,
        master_pid: u32,
        logs: &Path,
        extra: &[String],
    ) -> Child {
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(logs.join(format!("w{id:03}.log")))
            .map(Stdio::from)
            .unwrap_or_else(|_| Stdio::null());
        let mut cmd = Command::new(&self.worker);
        if self.tcp {
            cmd.arg("--connect")
                .arg(self.wait_endpoint(workdir))
                .arg("--endpoint-file")
                .arg(workdir.join("pool").join("endpoint"))
                .arg("--scratch")
                .arg(workdir.join(format!("scratch-w{id}")));
        } else {
            // Only a tracked parent pid lets the disk transport notice
            // the coordinator died (and adopt its successor).
            cmd.arg("--workdir").arg(workdir).arg("--parent-pid").arg(master_pid.to_string());
        }
        cmd.arg("--worker-id")
            .arg(id.to_string())
            .arg("--poll-ms")
            .arg("5")
            .arg("--coordinator-grace-ms")
            .arg("10000")
            .stdout(Stdio::null())
            .stderr(stderr);
        for a in extra {
            cmd.arg(a);
        }
        cmd.spawn().expect("spawn esse_worker")
    }
}

/// The no-double-ingestion invariant: walking the journal in order, a
/// member may only complete again after an intervening quarantine.
fn assert_no_reruns(journal: &Path) -> Result<(), String> {
    let replay = Journal::replay(journal).map_err(|e| format!("replay {journal:?}: {e}"))?;
    let mut completed: HashSet<u64> = HashSet::new();
    for rec in &replay.records {
        match rec {
            JournalRecord::MemberCompleted { member, .. } if !completed.insert(*member) => {
                return Err(format!(
                    "member {member} recorded MemberCompleted twice without quarantine \
                     — a result was ingested twice"
                ));
            }
            JournalRecord::MemberQuarantined { member, .. } => {
                completed.remove(member);
            }
            _ => {}
        }
    }
    Ok(())
}

fn journal_converged(journal: &Path) -> Result<bool, String> {
    let replay = Journal::replay(journal).map_err(|e| format!("replay {journal:?}: {e}"))?;
    Ok(replay.records.iter().any(|r| matches!(r, JournalRecord::Converged { .. })))
}

fn read_posterior(workdir: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(workdir.join("posterior.sub"))
        .map_err(|e| format!("read {}/posterior.sub: {e}", workdir.display()))
}

/// Read one counter or gauge out of the Prometheus text the master
/// exported (gauges print as floats; round back to the count).
fn metric(workdir: &Path, name: &str) -> u64 {
    let raw = std::fs::read_to_string(workdir.join("metrics.prom")).unwrap_or_default();
    raw.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse::<f64>().ok()))
        .map(|v| v.round() as u64)
        .unwrap_or(0)
}

/// Count journal records matching `pred`, tolerating the torn tail of
/// a live (or killed-mid-append) journal.
fn journal_count(journal: &Path, pred: impl Fn(&JournalRecord) -> bool) -> usize {
    Journal::replay(journal).map(|r| r.records.iter().filter(|rec| pred(rec)).count()).unwrap_or(0)
}

fn wait_with_timeout(
    child: &mut Child,
    secs: u64,
    what: &str,
) -> Result<std::process::ExitStatus, String> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(st) = child.try_wait().map_err(|e| format!("poll {what}: {e}"))? {
            return Ok(st);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{what} did not exit within {secs}s"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Distributed-trace invariant: the merged timeline the coordinator
/// exported must analyze cleanly even when SIGKILL'd workers never
/// shipped (or only partially shipped) their span batches — a valid
/// fleet DAG with zero orphan cross-process edges and a critical path
/// that actually crosses into the worker processes. Returns a one-line
/// summary for the scenario report.
fn check_merged_trace(workdir: &Path) -> Result<String, String> {
    let path = workdir.join("pool.trace.jsonl");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let loaded = esse_obs::LoadedTrace::from_jsonl(&text)
        .map_err(|e| format!("parse {}: {e}", path.display()))?;
    let a = loaded.analyze();
    if !a.fleet.any() {
        return Err("merged trace has no fleet section (no worker batches merged)".into());
    }
    if a.fleet.orphan_edges > 0 {
        return Err(format!(
            "{} orphan cross-process edge(s) in the merged timeline",
            a.fleet.orphan_edges
        ));
    }
    if a.fleet.remote_tasks == 0 {
        return Err("no remote task spans survived the merge".into());
    }
    if !a.critical_path_crosses_fleet() {
        return Err("critical path never enters a worker lane".into());
    }
    Ok(format!(
        "merged trace: {} worker(s), {} remote tasks, 0 orphan edges",
        a.fleet.workers.len(),
        a.fleet.remote_tasks
    ))
}

/// Coordinator-side quarantine rollup in the merged trace — the same
/// numbers `trace_report` prints on its "semantic faults" line, which
/// CI greps, so the rollup must agree with the journal. Returns
/// `(members_quarantined, replacements_scheduled)`.
fn trace_quarantines(workdir: &Path) -> Result<(u64, u64), String> {
    let path = workdir.join("pool.trace.jsonl");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let loaded = esse_obs::LoadedTrace::from_jsonl(&text)
        .map_err(|e| format!("parse {}: {e}", path.display()))?;
    let a = loaded.analyze();
    Ok((a.pool.members_quarantined, a.pool.replacements_scheduled))
}

/// Journal-side quarantine invariants shared by both corruption
/// scenarios: at least one quarantine fired, every one carries a
/// non-zero reason code, and none of them fell off the requeue budget
/// (`MemberFailed` with the quarantine-budget code −10 means the run
/// degraded instead of self-healing — the posterior check would also
/// fail, but this names the cause). Returns the quarantine count.
fn assert_quarantines(journal: &Path) -> Result<usize, String> {
    let qcount = journal_count(journal, |r| matches!(r, JournalRecord::MemberQuarantined { .. }));
    if qcount == 0 {
        return Err("no MemberQuarantined record — the corruption never tripped a validator".into());
    }
    let unreasoned = journal_count(
        journal,
        |r| matches!(r, JournalRecord::MemberQuarantined { reason, .. } if *reason == 0),
    );
    if unreasoned > 0 {
        return Err(format!(
            "{unreasoned} of {qcount} MemberQuarantined record(s) carry reason code 0 \
             — the quarantine cause was not journalled"
        ));
    }
    let lost = journal_count(
        journal,
        |r| matches!(r, JournalRecord::MemberFailed { code, .. } if *code == CODE_QUARANTINE_BUDGET),
    );
    if lost > 0 {
        return Err(format!(
            "{lost} member(s) lost to the quarantine requeue budget — replacement did not \
             cover every quarantine"
        ));
    }
    Ok(qcount)
}

fn reap_all(workers: &mut Vec<Child>, grace: Duration) {
    let deadline = Instant::now() + grace;
    for w in workers.iter_mut() {
        loop {
            match w.try_wait().expect("reap worker") {
                Some(_) => break,
                None if Instant::now() >= deadline => {
                    let _ = w.kill();
                    let _ = w.wait();
                    break;
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
    workers.clear();
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    let cfg = ChaosConfig {
        master: args.get("master").map(PathBuf::from).unwrap_or_else(|| sibling("esse_master")),
        worker: args.get("worker").map(PathBuf::from).unwrap_or_else(|| sibling("esse_worker")),
        domain: args.get("domain").cloned().unwrap_or_else(|| "monterey:6,5,4".into()),
        hours: get_or(&args, "hours", 2.0),
        initial: get_or(&args, "initial", 4),
        max: get_or(&args, "max", 12),
        tolerance: get_or(&args, "tolerance", 0.2),
        base_seed: get_or(&args, "base-seed", 0x5EED),
        lease_ms: get_or(&args, "lease-ms", 400),
        tcp: match args.get("transport").map(String::as_str).unwrap_or("disk") {
            "disk" => false,
            "tcp" => true,
            other => {
                eprintln!("FAIL: unknown --transport {other:?} (use disk or tcp)");
                std::process::exit(2);
            }
        },
    };
    let workers: usize = get_or(&args, "workers", 4);
    let seed: u64 = get_or(&args, "seed", 1);
    let kill_ms: u64 = get_or(&args, "kill-ms", 60).max(5);
    let keep = args.contains_key("keep");
    // `--kill-master` swaps the worker-kill scenarios for the
    // coordinator-kill scenario: same reference, inverse chaos.
    let kill_master = args.contains_key("kill-master");
    // `--corrupt-members RATE` swaps both for the semantic-corruption
    // scenarios (which stage their own worker and coordinator kills).
    let corrupt_rate: f64 = get_or(&args, "corrupt-members", 0.0);
    let fault_seed: u64 = get_or(&args, "fault-seed", 0xC0FFEE);
    let corrupt = corrupt_rate > 0.0;
    if corrupt {
        // The corruption draw is a pure hash of (seed, member, epoch):
        // refuse seeds whose first-epoch draws inject nothing, so a
        // passing run always actually exercised quarantine. (A worker
        // kill can still eat a first attempt — the requeued epoch
        // draws fresh — but at least one member starts corrupt.)
        let plan = FaultPlan::seeded(fault_seed).with_corruption(corrupt_rate);
        let hits: Vec<usize> =
            (0..cfg.initial).filter(|&m| plan.corruption_for(m, 1).is_some()).collect();
        if hits.is_empty() {
            eprintln!(
                "FAIL: --corrupt-members {corrupt_rate} with --fault-seed {fault_seed:#x} \
                 draws no corruption for any first-epoch member (0..{}) — pick another \
                 seed or raise the rate",
                cfg.initial
            );
            std::process::exit(2);
        }
        println!(
            "corruption plan: rate {corrupt_rate}, seed {fault_seed:#x}, first-epoch \
             corruption on member(s) {hits:?}"
        );
    }
    for (what, path) in [("esse_master", &cfg.master), ("esse_worker", &cfg.worker)] {
        if !path.exists() {
            eprintln!("FAIL: {what} not found at {} (build it first)", path.display());
            std::process::exit(2);
        }
    }

    let root = args.get("artifacts").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("esse-worker-chaos-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create harness root");
    let t0 = Instant::now();
    let mut failures: Vec<String> = Vec::new();

    // --- Scenario 1: the unkilled single-worker reference. ---
    let ref_dir = root.join("reference");
    let status = cfg.master(&ref_dir, 1, true).status().expect("spawn reference master");
    if !status.success() {
        eprintln!("FAIL: reference run exited with {status}");
        std::process::exit(1);
    }
    let reference = read_posterior(&ref_dir).unwrap_or_else(|e| {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    });
    if let Err(e) = assert_no_reruns(&ref_dir.join("run.journal")) {
        eprintln!("FAIL: reference journal: {e}");
        std::process::exit(1);
    }
    let ref_converged = journal_converged(&ref_dir.join("run.journal")).unwrap_or(false);
    let ref_fleet = check_merged_trace(&ref_dir).unwrap_or_else(|e| {
        eprintln!("FAIL: reference trace: {e}");
        std::process::exit(1);
    });
    println!(
        "reference: posterior {} bytes, converged={ref_converged}, {ref_fleet} ({:.1?})",
        reference.len(),
        t0.elapsed()
    );

    // --- Scenario 1b: the same run with tracing disabled. Tracing is
    // purely observational, so the posterior must not move by a bit.
    if !kill_master && !corrupt {
        let dir = root.join("reference-notrace");
        let status = cfg.master(&dir, 1, false).status().expect("spawn notrace master");
        let outcome = (|| -> Result<(), String> {
            if !status.success() {
                return Err(format!("tracing-off reference exited with {status}"));
            }
            if dir.join("pool.trace.jsonl").exists() {
                return Err("tracing-off run still exported a trace".into());
            }
            if read_posterior(&dir)? != reference {
                return Err("posterior differs with tracing off — tracing is not \
                     observational"
                    .into());
            }
            Ok(())
        })();
        match outcome {
            Ok(()) => println!("reference-notrace: posterior bit-identical with tracing off"),
            Err(e) => {
                failures.push(format!("reference-notrace: {e}"));
                eprintln!("FAIL reference-notrace: {e}");
            }
        }
    }

    // --- Scenario 2: kill random workers on a seeded schedule. ---
    if !kill_master && !corrupt {
        let dir = root.join("chaos");
        let mut master = cfg.master(&dir, 0, true).spawn().expect("spawn chaos master");
        let mut fleet: Vec<Child> = (0..workers).map(|i| cfg.spawn_worker(&dir, i, &[])).collect();
        let mut next_id = workers;
        let mut rng = seed | 1;
        let mut kills = 0usize;
        let done = loop {
            if let Some(st) = master.try_wait().expect("poll chaos master") {
                break st;
            }
            rng = xorshift64(rng);
            // Seeded jittered cadence around --kill-ms.
            std::thread::sleep(Duration::from_millis(kill_ms / 2 + rng % kill_ms));
            rng = xorshift64(rng);
            let victim = (rng % fleet.len() as u64) as usize;
            let _ = fleet[victim].kill();
            let _ = fleet[victim].wait();
            kills += 1;
            // A replacement with a fresh id: workers register nowhere,
            // they just start pulling.
            fleet[victim] = cfg.spawn_worker(&dir, next_id, &[]);
            next_id += 1;
        };
        reap_all(&mut fleet, Duration::from_secs(5));
        let outcome = (|| -> Result<String, String> {
            if !done.success() {
                return Err(format!("chaos master exited with {done}"));
            }
            assert_no_reruns(&dir.join("run.journal"))?;
            if journal_converged(&dir.join("run.journal"))? != ref_converged {
                return Err("chaos run convergence differs from reference".into());
            }
            let posterior = read_posterior(&dir)?;
            if posterior != reference {
                return Err("chaos posterior differs from unkilled reference".into());
            }
            // SIGKILL'd workers died holding unshipped span batches; the
            // merged timeline must stay valid without them.
            check_merged_trace(&dir)
        })();
        let expired = metric(&dir, "esse_pool_lease_expired_total");
        match outcome {
            Ok(fleet) => println!(
                "chaos: {kills} worker kills ({} spawned), {expired} lease expiries, \
                 bit-identical posterior; {fleet}",
                next_id
            ),
            Err(e) => {
                failures.push(format!("chaos: {e}"));
                eprintln!("FAIL chaos ({kills} kills): {e}");
            }
        }
    }

    // --- Scenario 3: the zombie — stall past lease expiry, publish a
    // stale-epoch result, and get fenced; then SIGKILL the zombie. ---
    if !kill_master && !corrupt {
        let dir = root.join("zombie");
        let stall_ms = cfg.lease_ms * 4;
        let mut master = cfg.master(&dir, 0, true).spawn().expect("spawn zombie master");
        // The zombie goes first, alone, so it claims member 0.
        let zombie = cfg.spawn_worker(
            &dir,
            100,
            &["--stall-task".into(), "0".into(), "--stall-ms".into(), stall_ms.to_string()],
        );
        let mut fleet = vec![zombie];
        // Wait until the zombie holds the claim before letting the
        // healthy workers in (they would win member 0 otherwise).
        let claim = dir.join("pool").join("claimed").join("t000000.e00001");
        let t_claim = Instant::now();
        while !claim.exists() && t_claim.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let claimed = claim.exists();
        // No healthy workers yet: member 0's epoch-2 requeue has nobody
        // to run it, so the coordinator *cannot* finish the run before
        // the zombie wakes, publishes at the dead epoch, and is fenced.
        // The fenced record lands in results/stale — wait for it.
        let stale_marker = dir.join("pool").join("results").join("stale").join("r000000.e00001");
        let t_fence = Instant::now();
        while claimed && !stale_marker.exists() && t_fence.elapsed() < Duration::from_secs(60) {
            if master.try_wait().expect("poll zombie master").is_some() {
                break; // finished without fencing: the assertions below report it
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Fencing observed: SIGKILL the zombie and let healthy workers
        // finish whatever is left (including member 0's live epoch).
        let _ = fleet[0].kill();
        let _ = fleet[0].wait();
        for i in 0..workers.saturating_sub(1).max(1) {
            fleet.push(cfg.spawn_worker(&dir, i, &[]));
        }
        let done = master.wait().expect("wait zombie master");
        reap_all(&mut fleet, Duration::from_secs(5));
        let fenced_on_disk = stale_marker.exists();
        let fenced = metric(&dir, "esse_pool_fencing_rejected_total");
        let expired = metric(&dir, "esse_pool_lease_expired_total");
        let outcome = (|| -> Result<String, String> {
            if !claimed {
                return Err("zombie never claimed member 0".into());
            }
            if !done.success() {
                return Err(format!("zombie master exited with {done}"));
            }
            assert_no_reruns(&dir.join("run.journal"))?;
            if journal_converged(&dir.join("run.journal"))? != ref_converged {
                return Err("zombie run convergence differs from reference".into());
            }
            if expired == 0 {
                return Err(
                    "no lease expiry recorded — the stall never tripped the watchdog".into()
                );
            }
            if fenced == 0 || !fenced_on_disk {
                return Err("no fencing rejection recorded — the stale publish was ingested".into());
            }
            let posterior = read_posterior(&dir)?;
            if posterior != reference {
                return Err("zombie posterior differs from unkilled reference".into());
            }
            // The zombie's fenced epoch and SIGKILL'd batch must not
            // poison the merged timeline with orphan edges.
            check_merged_trace(&dir)
        })();
        match outcome {
            Ok(fleet) => println!(
                "zombie: stale publish fenced (fenced={fenced}, expired={expired}), \
                 bit-identical posterior; {fleet}"
            ),
            Err(e) => {
                failures.push(format!("zombie: {e}"));
                eprintln!("FAIL zombie (fenced={fenced}, expired={expired}): {e}");
            }
        }
    }

    // Worker-side corruption flags shared by both semantic scenarios.
    // Every worker gets the same fault seed, so the corruption draw is
    // a pure function of (member, epoch) no matter which worker claims
    // the task — the chaos stays schedule-independent.
    let corrupt_extra: Vec<String> = vec![
        "--corrupt-members".into(),
        corrupt_rate.to_string(),
        "--fault-seed".into(),
        fault_seed.to_string(),
    ];

    // --- Scenario 5 (--corrupt-members): semantic chaos — seeded
    // payload corruption under the worker-kill schedule. Corrupt
    // members must be quarantined with journalled reasons, replaced
    // under the requeue budget, and leave zero trace in the posterior.
    if corrupt {
        let dir = root.join("member-chaos");
        let journal = dir.join("run.journal");
        let mut master = {
            let mut cmd = cfg.master(&dir, 0, true);
            // The bit-identity arm needs the budget to cover every
            // quarantine; lease requeues from worker kills share it.
            cmd.arg("--requeue-budget").arg("64");
            cmd.spawn().expect("spawn member-chaos master")
        };
        let mut fleet: Vec<Child> =
            (0..workers).map(|i| cfg.spawn_worker(&dir, i, &corrupt_extra)).collect();
        let mut next_id = workers;
        let mut rng = seed | 1;
        let mut kills = 0usize;
        let done = loop {
            if let Some(st) = master.try_wait().expect("poll member-chaos master") {
                break st;
            }
            rng = xorshift64(rng);
            std::thread::sleep(Duration::from_millis(kill_ms / 2 + rng % kill_ms));
            rng = xorshift64(rng);
            let victim = (rng % fleet.len() as u64) as usize;
            let _ = fleet[victim].kill();
            let _ = fleet[victim].wait();
            kills += 1;
            fleet[victim] = cfg.spawn_worker(&dir, next_id, &corrupt_extra);
            next_id += 1;
        };
        reap_all(&mut fleet, Duration::from_secs(5));
        let outcome = (|| -> Result<String, String> {
            if !done.success() {
                return Err(format!("member-chaos master exited with {done}"));
            }
            assert_no_reruns(&journal)?;
            let qcount = assert_quarantines(&journal)?;
            if journal_converged(&journal)? != ref_converged {
                return Err("member-chaos convergence differs from reference".into());
            }
            if read_posterior(&dir)? != reference {
                return Err("member-chaos posterior differs from the corruption-free \
                     reference — a corrupt payload leaked into the subspace, or a \
                     replacement moved the decided prefix"
                    .into());
            }
            // Single coordinator incarnation: the metric and the trace
            // rollup must agree with the journal exactly.
            let m_q = metric(&dir, "esse_quarantined_total");
            if m_q != qcount as u64 {
                return Err(format!(
                    "esse_quarantined_total reads {m_q}, journal records {qcount} \
                     quarantine(s)"
                ));
            }
            let (t_q, t_r) = trace_quarantines(&dir)?;
            if t_q != qcount as u64 {
                return Err(format!(
                    "trace rollup counts {t_q} quarantine instant(s), journal records \
                     {qcount}"
                ));
            }
            let fleet = check_merged_trace(&dir)?;
            Ok(format!(
                "{qcount} quarantine(s) ({t_r} replacement(s) scheduled), {kills} worker \
                 kills, bit-identical posterior; {fleet}"
            ))
        })();
        match outcome {
            Ok(line) => println!("member-chaos: {line}"),
            Err(e) => {
                failures.push(format!("member-chaos: {e}"));
                eprintln!("FAIL member-chaos ({kills} kills): {e}");
            }
        }
    }

    // --- Scenario 6 (--corrupt-members): SIGKILL the coordinator the
    // instant the first quarantine is journalled — the crash window
    // sits between the quarantine decision and its replacement
    // running, so the resume must re-seed the replacement from the
    // journal alone, with a worker kill staged into the outage. ---
    if corrupt {
        let dir = root.join("member-chaos-restart");
        let logs = root.join("member-chaos-wlogs");
        std::fs::create_dir_all(&logs).expect("create worker log dir");
        let journal = dir.join("run.journal");
        let mut rng = (seed ^ 0xDEAD) | 1;
        let mut master = {
            let mut cmd = cfg.master(&dir, 0, true);
            cmd.arg("--requeue-budget").arg("64");
            cmd.spawn().expect("spawn member-chaos-restart master")
        };
        let mut fleet: Vec<Child> = (0..workers)
            .map(|i| cfg.spawn_parked_worker(&dir, i, master.id(), &logs, &corrupt_extra))
            .collect();
        let mut next_id = workers;
        let mut master_killed = false;
        let outcome = (|| -> Result<String, String> {
            let mut final_status = None;
            let t_kill = Instant::now();
            loop {
                if journal_count(&journal, |r| matches!(r, JournalRecord::MemberQuarantined { .. }))
                    > 0
                {
                    let _ = master.kill();
                    let _ = master.wait();
                    master_killed = true;
                    break;
                }
                if let Some(st) = master.try_wait().expect("poll member-chaos-restart master") {
                    // Outran the poll to completion — the assertions
                    // below still require the quarantine evidence.
                    final_status = Some(st);
                    break;
                }
                if t_kill.elapsed() > Duration::from_secs(120) {
                    let _ = master.kill();
                    let _ = master.wait();
                    return Err("no quarantine was journalled within 120s".into());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let done = match final_status {
                Some(st) => st,
                None => {
                    // Outage window: one worker dies while nobody
                    // coordinates; the resumed incarnation must fence
                    // its frozen lease *and* re-run the quarantine
                    // replacement it never got to seed.
                    std::thread::sleep(Duration::from_millis(100 + rng % 200));
                    rng = xorshift64(rng);
                    let victim = (rng % fleet.len() as u64) as usize;
                    let _ = fleet[victim].kill();
                    let _ = fleet[victim].wait();
                    let mut cmd = cfg.master(&dir, 0, true);
                    cmd.arg("--requeue-budget").arg("64").arg("--resume");
                    let mut master = cmd.spawn().expect("spawn resumed master");
                    fleet[victim] =
                        cfg.spawn_parked_worker(&dir, next_id, master.id(), &logs, &corrupt_extra);
                    next_id += 1;
                    wait_with_timeout(&mut master, 180, "resumed member-chaos master")?
                }
            };
            if !done.success() {
                return Err(format!("final incarnation exited with {done}"));
            }
            assert_no_reruns(&journal)?;
            let qcount = assert_quarantines(&journal)?;
            if journal_converged(&journal)? != ref_converged {
                return Err("member-chaos-restart convergence differs from reference".into());
            }
            if read_posterior(&dir)? != reference {
                return Err("member-chaos-restart posterior differs from the \
                     corruption-free reference across the coordinator restart"
                    .into());
            }
            let fleet = check_merged_trace(&dir)?;
            Ok(format!(
                "{qcount} quarantine(s) ridden through a coordinator kill \
                 (killed={master_killed}), bit-identical posterior; {fleet}"
            ))
        })();
        reap_all(&mut fleet, Duration::from_secs(15));
        match outcome {
            Ok(line) => println!("member-chaos-restart: {line}"),
            Err(e) => {
                failures.push(format!("member-chaos-restart: {e}"));
                eprintln!("FAIL member-chaos-restart: {e}");
            }
        }
    }

    // --- Scenario 4 (--kill-master): SIGKILL the coordinator on a
    // seeded schedule while the fleet parks through each outage. ---
    if kill_master && !corrupt {
        let dir = root.join("master-chaos");
        // Sibling of the workdir: the fresh coordinator refuses a
        // non-empty workdir, so the logs cannot live inside it.
        let logs = root.join("master-chaos-wlogs");
        std::fs::create_dir_all(&logs).expect("create worker log dir");
        let journal = dir.join("run.journal");
        let mut rng = seed | 1;
        let mut next_id = workers;
        let mut incarnations = 1u64;
        let mut master_kills = 0usize;
        let mut worker_kills = 0usize;

        // Incarnation 1 aborts inside the ingest loop, immediately
        // after the first MemberCompleted append (appends 1–6 are the
        // fixed RunStart / CoordinatorStarted / initial-EpochAdvanced
        // prologue): the consumed-result cleanup never runs, so the
        // resume must re-ingest the already-journalled result
        // idempotently and fence nothing that is still live.
        let mut master = {
            let mut cmd = cfg.master(&dir, 0, true);
            cmd.arg("--crash-after-appends").arg("7");
            cmd.spawn().expect("spawn master incarnation 1")
        };
        let mut fleet: Vec<Child> = (0..workers)
            .map(|i| cfg.spawn_parked_worker(&dir, i, master.id(), &logs, &[]))
            .collect();

        let outcome = (|| -> Result<String, String> {
            let st = wait_with_timeout(&mut master, 120, "master incarnation 1")?;
            master_kills += 1;
            if st.success() {
                return Err("incarnation 1 finished — the injected ingest crash never fired".into());
            }
            if !journal.exists() {
                return Err("journal did not survive the ingest crash".into());
            }

            // Outage window: the fleet is alone with the pool. A seeded
            // pause makes the park real, and one worker dies mid-outage
            // so the restarted coordinator must fence its frozen lease.
            std::thread::sleep(Duration::from_millis(150 + rng % 250));
            rng = xorshift64(rng);
            let victim = (rng % fleet.len() as u64) as usize;
            rng = xorshift64(rng);
            let _ = fleet[victim].kill();
            let _ = fleet[victim].wait();
            worker_kills += 1;

            // Incarnation 2: resume, then SIGKILL the instant the first
            // SvdPublished record lands — the kill-during-SVD-publish
            // point, after the covariance files but mid-checkpoint.
            let mut cmd = cfg.master(&dir, 0, true);
            cmd.arg("--resume");
            let mut master = cmd.spawn().expect("spawn master incarnation 2");
            incarnations += 1;
            fleet[victim] = cfg.spawn_parked_worker(&dir, next_id, master.id(), &logs, &[]);
            next_id += 1;
            let mut final_status = None;
            let t_svd = Instant::now();
            loop {
                if journal_count(&journal, |r| matches!(r, JournalRecord::SvdPublished { .. })) > 0
                {
                    let _ = master.kill();
                    let _ = master.wait();
                    master_kills += 1;
                    break;
                }
                if let Some(st) = master.try_wait().expect("poll incarnation 2") {
                    // Outran the poll to completion: no more kills.
                    final_status = Some(st);
                    break;
                }
                if t_svd.elapsed() > Duration::from_secs(120) {
                    let _ = master.kill();
                    let _ = master.wait();
                    return Err("incarnation 2 never published an SVD".into());
                }
                std::thread::sleep(Duration::from_millis(2));
            }

            // Incarnation 3: resume, SIGKILL at a seeded arbitrary
            // instant, with a second worker kill in the outage.
            if final_status.is_none() {
                std::thread::sleep(Duration::from_millis(100 + rng % 300));
                rng = xorshift64(rng);
                let victim = (rng % fleet.len() as u64) as usize;
                rng = xorshift64(rng);
                let _ = fleet[victim].kill();
                let _ = fleet[victim].wait();
                worker_kills += 1;
                let mut cmd = cfg.master(&dir, 0, true);
                cmd.arg("--resume");
                // `try_wait` returning `Some` reaps the child, which the
                // lint cannot see across the loop.
                #[allow(clippy::zombie_processes)]
                let mut master = cmd.spawn().expect("spawn master incarnation 3");
                incarnations += 1;
                fleet[victim] = cfg.spawn_parked_worker(&dir, next_id, master.id(), &logs, &[]);
                next_id += 1;
                let wait_ms = 30 + rng % 200;
                rng = xorshift64(rng);
                let t = Instant::now();
                while t.elapsed() < Duration::from_millis(wait_ms) && final_status.is_none() {
                    if let Some(st) = master.try_wait().expect("poll incarnation 3") {
                        final_status = Some(st);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                if final_status.is_none() {
                    let _ = master.kill();
                    let _ = master.wait();
                    master_kills += 1;
                }
            }

            // Final incarnation: resume and run to completion.
            let done = match final_status {
                Some(st) => st,
                None => {
                    std::thread::sleep(Duration::from_millis(100 + rng % 200));
                    rng = xorshift64(rng);
                    let mut cmd = cfg.master(&dir, 0, true);
                    cmd.arg("--resume");
                    let mut master = cmd.spawn().expect("spawn final master incarnation");
                    incarnations += 1;
                    wait_with_timeout(&mut master, 180, "final master incarnation")?
                }
            };
            if !done.success() {
                return Err(format!("final incarnation exited with {done}"));
            }

            // Every surviving worker drains home on SHUTDOWN — a
            // worker lost to a coordinator outage shows up right here.
            let deadline = Instant::now() + Duration::from_secs(15);
            for (i, w) in fleet.iter_mut().enumerate() {
                loop {
                    match w.try_wait().expect("reap surviving worker") {
                        Some(st) if st.success() => break,
                        Some(st) => {
                            return Err(format!(
                                "surviving worker {i} exited with {st} — lost across a restart"
                            ));
                        }
                        None if Instant::now() >= deadline => {
                            return Err(format!("surviving worker {i} never saw the shutdown"));
                        }
                        None => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            }
            // …and none of them ever gave up on a parked outage (only
            // SIGKILL'd workers may die, and those die silently).
            for entry in std::fs::read_dir(&logs).map_err(|e| format!("read {logs:?}: {e}"))? {
                let path = entry.map_err(|e| e.to_string())?.path();
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                if text.contains("orphaned past coordinator grace") {
                    return Err(format!(
                        "worker log {} records an orphan exit — a worker fell out of the \
                         fleet during a coordinator outage",
                        path.display()
                    ));
                }
            }

            assert_no_reruns(&journal)?;
            if journal_converged(&journal)? != ref_converged {
                return Err("master-chaos run convergence differs from reference".into());
            }
            let posterior = read_posterior(&dir)?;
            if posterior != reference {
                return Err("master-chaos posterior differs from never-killed reference".into());
            }
            // A spawned `--resume` that finds the run already finished
            // (a kill racing run completion) is a durable no-op and
            // journals nothing, so the exact CoordinatorStarted count
            // is schedule-dependent: assert the self-consistency that
            // matters — the journal and the gauge agree on how many
            // coordinators actually ran the pool, at least one crash
            // was ridden through, and no phantom incarnations appear.
            let starts =
                journal_count(&journal, |r| matches!(r, JournalRecord::CoordinatorStarted { .. }));
            if !(2..=incarnations as usize).contains(&starts) {
                return Err(format!(
                    "journal records {starts} CoordinatorStarted(s) across {incarnations} \
                     coordinator spawns"
                ));
            }
            let gauge = metric(&dir, "esse_master_incarnation");
            if gauge != starts as u64 {
                return Err(format!(
                    "esse_master_incarnation gauge reads {gauge}, but the journal records \
                     {starts} incarnation(s)"
                ));
            }
            // The merged timeline must stay a valid DAG across the
            // restart boundary: batches published while no coordinator
            // was alive anchor to the resumed master's re-emitted
            // enqueue instants.
            check_merged_trace(&dir)
        })();
        reap_all(&mut fleet, Duration::from_secs(5));
        match outcome {
            Ok(fleet) => println!(
                "master-chaos: {master_kills} coordinator kill(s) over {incarnations} \
                 incarnation(s), {worker_kills} worker kill(s) interleaved, \
                 bit-identical posterior; {fleet}"
            ),
            Err(e) => {
                failures.push(format!("master-chaos: {e}"));
                eprintln!("FAIL master-chaos ({master_kills} master kills): {e}");
            }
        }
    }

    if failures.is_empty() {
        if !keep {
            let _ = std::fs::remove_dir_all(&root);
        }
        println!(
            "PASS [{}]: {}, every posterior bit-identical to the unkilled reference ({:.1?})",
            if cfg.tcp { "tcp" } else { "disk" },
            if corrupt {
                "semantic corruption scenarios"
            } else if kill_master {
                "coordinator kill-and-resume scenario"
            } else {
                "chaos + zombie scenarios"
            },
            t0.elapsed()
        );
    } else {
        eprintln!(
            "FAIL: {} scenario(s) violated the chaos invariant; artifacts kept in {}",
            failures.len(),
            root.display()
        );
        std::process::exit(1);
    }
}
