//! `esse_master` — the master script of paper §4.2 over a fleet of
//! worker processes. The coordinator is [`esse::mtc::coordinator`]; this
//! binary is its flags, its ports — the task pool under `workdir/pool/`
//! (also served over TCP with `--listen`), `run.journal`, the workdir's
//! forecast and safe/live covariance files — and its local fleet. Exit
//! codes (docs/FAULT_TOLERANCE.md): 0 done, 1 I/O failure, 2 refusal or
//! bad configuration, 3 workdir locked, 4 journal append failed.

use esse::cli::{self, files};
use esse::core::adaptive::{CompletionPolicy, EnsembleSchedule};
use esse::core::perturb::{PerturbConfig, PerturbationGenerator};
use esse::core::subspace::{ErrorSubspace, SubspaceStrategy};
use esse::core::validate::{ForecastValidator, ValidatorConfig};
use esse::fileio;
use esse::mtc::coordinator::{
    begin_incarnation, CoordError, Coordinator, JournalPort, Level, Setup, StorePort,
};
use esse::mtc::journal::{config_hash, Journal, JournalRecord, JournalState};
use esse::mtc::pool::{PoolManifest, TaskPool};
use esse::mtc::{DiskTripleBuffer, LockError, RetryPolicy, WorkdirLock};
use esse_obs::event::Lane;
use esse_obs::recorder::{Recorder, RecorderExt, NULL};
use esse_obs::registry::{Counter, MetricsRegistry};
use esse_obs::ring::RingRecorder;
use std::cell::Cell;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "esse_master --workdir DIR --domain monterey:NX,NY,NZ --hours H \
                     [--initial N] [--max NMAX] [--tolerance T] [--workers C] \
                     [--lease-ms MS] [--task-attempts A] [--requeue-budget B] \
                     [--white-noise E] [--base-seed S] [--resume | --force] \
                     [--subspace full|incremental[:REFRESH,TOL]] [--listen ADDR] \
                     [--trace-out PATH] [--trace-capacity N] [--metrics-out PATH]\n\
                     esse_master --workdir DIR --gc [--gc-keep N]";

/// `--subspace`: `full` (the default), `incremental`, or
/// `incremental:REFRESH,TOL` (refresh cadence, orthonormality tolerance).
fn parse_subspace_flag(v: &str) -> Option<SubspaceStrategy> {
    let (refresh, tol) = match v.strip_prefix("incremental") {
        _ if v == "full" => return Some(SubspaceStrategy::FullRecompute),
        Some("") => ("8", "1e-6"),
        rest => rest?.strip_prefix(':')?.split_once(',')?,
    };
    let (refresh_every, defect_tol) = (refresh.parse().ok()?, tol.parse().ok()?);
    Some(SubspaceStrategy::Incremental { refresh_every, defect_tol })
}

/// Per-worker stdio logs and metric snapshots of the local fleet.
const WORKER_LOG_DIR: &str = "logs";

/// Why the master stopped: an I/O failure, a refusal (the workdir left
/// as found), a held lock, or the coordinator's error; see `main`.
enum Stop {
    Io(String),
    Refused(String),
    Locked(String),
    Coord(CoordError),
}

impl From<CoordError> for Stop {
    fn from(e: CoordError) -> Stop {
        Stop::Coord(e)
    }
}

fn io<T>(result: io::Result<T>, what: &str) -> Result<T, Stop> {
    result.map_err(|e| Stop::Io(format!("cannot {what}: {e}")))
}

/// The journal port, with the recovery harness's `--crash-after-appends
/// N`: abort the instant this incarnation's N-th append is durable.
struct MasterJournal {
    journal: Journal,
    crash_in: Cell<Option<u64>>,
}

impl JournalPort for MasterJournal {
    fn append(&self, rec: &JournalRecord) -> io::Result<()> {
        self.journal.append(rec)?;
        match self.crash_in.get() {
            // No destructors, no flush: as close as a process gets to
            // losing power.
            Some(n) if n <= 1 => std::process::abort(),
            left => self.crash_in.set(left.map(|n| n - 1)),
        }
        Ok(())
    }
}

/// The store port: forecast files, their quarantine corner, covariance.
struct DiskStore {
    workdir: PathBuf,
    cov: DiskTripleBuffer,
}

impl StorePort for DiskStore {
    fn read_forecast(&self, member: u64) -> io::Result<(Vec<f64>, u32)> {
        fileio::read_vector_with_crc(self.workdir.join(files::fc(member as usize)))
    }

    fn quarantine_forecast(&self, member: u64) -> io::Result<()> {
        let (name, qdir) = (files::fc(member as usize), self.workdir.join("quarantine"));
        fs::create_dir_all(&qdir)?;
        if self.workdir.join(&name).exists() {
            fs::rename(self.workdir.join(&name), qdir.join(&name))?;
        }
        Ok(())
    }

    fn publish_covariance(&self, estimate: &ErrorSubspace, version: u64) -> io::Result<()> {
        self.cov.publish(&fileio::subspace_to_bytes(estimate), version)
    }
}

/// The local worker fleet; external workers may claim tasks too.
struct Fleet {
    slots: Vec<Option<Child>>,
    spawns: usize,
}

impl Fleet {
    /// Keep the fleet at strength; the respawn budget keeps a worker
    /// that keeps dying from fork-bombing the host.
    fn upkeep(&mut self, workdir: &Path, rec: &dyn Recorder) -> Result<(), Stop> {
        let budget = self.slots.len() * 8;
        for (slot, entry) in self.slots.iter_mut().enumerate() {
            let dead = match entry {
                Some(child) => io(child.try_wait(), "poll a local worker")?.is_some(),
                None => true,
            };
            if dead && self.spawns < budget {
                *entry = spawn_local_worker(workdir, slot);
                if entry.is_some() {
                    self.spawns += 1;
                    let args = vec![("slot", (slot as u64).into())];
                    rec.instant_at(rec.now_ns(), Lane::Coordinator, "pool", "worker_spawned", args);
                }
            }
        }
        Ok(())
    }

    /// Give the fleet ten seconds to see the shutdown tombstone.
    fn reap(&mut self) -> Result<(), Stop> {
        let deadline = Instant::now() + Duration::from_secs(10);
        for child in self.slots.iter_mut().flatten() {
            while io(child.try_wait(), "reap a local worker")?.is_none() {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        Ok(())
    }
}

fn spawn_local_worker(workdir: &Path, slot: usize) -> Option<Child> {
    // Stdio goes to a per-slot log (respawns append): a regular file,
    // unlike an inherited pipe, cannot keep a caller's `output()` on the
    // master blocked while an orphaned worker outlives the master.
    let log_dir = workdir.join(WORKER_LOG_DIR);
    let log_path = log_dir.join(format!("worker-{slot:03}.log"));
    let log = fs::create_dir_all(&log_dir)
        .and_then(|()| fs::OpenOptions::new().create(true).append(true).open(log_path))
        .and_then(|f| Ok((Stdio::from(f.try_clone()?), Stdio::from(f))));
    let (out, err) = log.unwrap_or_else(|e| {
        eprintln!("esse_master: cannot open worker log for slot {slot}: {e}");
        (Stdio::null(), Stdio::null())
    });
    let mut cmd = Command::new(cli::sibling("esse_worker"));
    cmd.arg("--workdir").arg(workdir).arg("--metrics-out");
    cmd.arg(log_dir.join(format!("worker-{slot:03}.metrics")));
    cmd.args(["--worker-id", &slot.to_string(), "--parent-pid", &std::process::id().to_string()]);
    cmd.args(["--poll-ms", "10"]).stdout(out).stderr(err);
    cli::spawn_with_retry(&mut cmd, "esse_worker", None, 3)
        .map_err(|e| eprintln!("esse_master: {e}"))
        .ok()
}

/// One live master (or `--gc`) per workdir; a dead master's lock is
/// broken. Of two racing `--resume`s the loser exits 3.
fn lock_workdir(workdir: &Path) -> Result<WorkdirLock, Stop> {
    WorkdirLock::acquire(workdir).map_err(|e| match e {
        LockError::Held { pid } => Stop::Locked(format!(
            "workdir {} is locked by a running master (pid {})",
            workdir.display(),
            pid.map_or_else(|| "unknown".into(), |p| p.to_string())
        )),
        e => Stop::Refused(format!("cannot acquire master.lock: {e}")),
    })
}

/// `--gc`: under the workdir lock, prune what no lease or `--resume`
/// needs, keeping the newest `keep` fenced results.
fn run_gc(workdir: &Path, keep: usize) -> Result<(), Stop> {
    let _lock = lock_workdir(workdir)?;
    let (pool, _manifest) = TaskPool::open(workdir)
        .map_err(|e| Stop::Refused(format!("no task pool under {}: {e}", workdir.display())))?;
    let report = io(pool.gc(keep), "prune the task pool")?;
    let cov = DiskTripleBuffer::create(workdir).and_then(|b| b.prune_superseded());
    let blobs = io(cov, "prune covariance blobs")?;
    println!(
        "esse_master: gc removed {} fenced result(s), {} trace sidecar(s), \
         {} superseded covariance blob(s) (kept newest {keep})",
        report.stale_results, report.trace_sidecars, blobs
    );
    Ok(())
}

/// Take the workdir (a populated one only with `--resume` or `--force`)
/// and open its journal: fresh, or replayed and checked to be this run's.
fn open_journal(
    workdir: &Path,
    resume: bool,
    force: bool,
    run_hash: u64,
) -> Result<(WorkdirLock, Journal, JournalState), Stop> {
    if !resume && fs::read_dir(workdir).is_ok_and(|mut d| d.next().is_some()) {
        if !force {
            return Err(Stop::Refused(format!(
                "workdir {} is not empty; pass --resume to continue the run or --force to \
                 discard it",
                workdir.display()
            )));
        }
        eprintln!("esse_master: --force: clearing existing workdir");
        io(fs::remove_dir_all(workdir), "clear the workdir")?;
    }
    io(fs::create_dir_all(workdir), "create the workdir")?;
    let lock = lock_workdir(workdir)?;
    let path = workdir.join("run.journal");
    if !(resume && path.exists()) {
        let journal = io(Journal::create(&path), "create the journal")?;
        return Ok((lock, journal, JournalState::default()));
    }
    let (journal, replay) = Journal::open(&path)
        .map_err(|e| Stop::Refused(format!("cannot resume from {}: {e}", path.display())))?;
    if replay.torn_bytes > 0 {
        let torn = replay.torn_bytes;
        eprintln!("esse_master: truncated {torn} torn byte(s) from the journal tail");
    }
    let state = JournalState::replay(&replay.records);
    if let Some(h) = state.config_hash.filter(|&h| h != run_hash) {
        return Err(Stop::Refused(format!(
            "journal belongs to a different run (config hash {h:#018x} != {run_hash:#018x}); \
             refusing to mix results"
        )));
    }
    Ok((lock, journal, state))
}

/// The prior and central forecast (written once, reused on resume) and
/// the gate the workers run, rebuilt here: never trust the wire.
fn inputs(
    workdir: &Path,
    domain: &str,
    hours: f64,
    fresh: bool,
    seed: u64,
) -> Result<(ErrorSubspace, Vec<f64>, ForecastValidator), Stop> {
    let (model, st0) = cli::build_model(domain).map_err(Stop::Refused)?;
    let (mean_path, prior_path) = (workdir.join(files::MEAN), workdir.join(files::PRIOR));
    if fresh || !mean_path.exists() {
        io(fileio::write_vector(&mean_path, &st0.pack()), "write the mean state")?;
    }
    if fresh || !prior_path.exists() {
        let prior = esse::core::priors::smooth_temperature_prior(&model.grid, 12, 0.5, 2.5, seed);
        io(fileio::write_subspace(&prior_path, &prior), "write the prior")?;
    }
    let prior = io(fileio::read_subspace(&prior_path), "read the prior")?;
    let central_path = workdir.join(files::CENTRAL);
    if !central_path.exists() {
        let mut cmd = Command::new(cli::sibling("pemodel"));
        cmd.arg("--workdir").arg(workdir);
        cmd.args(["--domain", domain, "--hours", &hours.to_string(), "--central"]);
        let mut child = cli::spawn_with_retry(&mut cmd, "central pemodel", None, 3)
            .map_err(|e| Stop::Io(format!("central forecast failed: {e}")))?;
        if !io(child.wait(), "wait for the central pemodel")?.success() {
            return Err(Stop::Io("central forecast failed".into()));
        }
    }
    let central = io(fileio::read_vector(&central_path), "read the central forecast")?;
    let mean = io(fileio::read_vector(&mean_path), "read the mean state")?;
    let baselines = [mean.as_slice(), central.as_slice()];
    let cfg = ValidatorConfig::default();
    let validator = ForecastValidator::for_scenario(&model.grid, &baselines, &prior, cfg);
    Ok((prior, central, validator))
}

/// Write the trace with the span batches workers shipped; a torn or foreign batch is dropped.
fn write_trace(
    ring: &RingRecorder,
    path: &Path,
    pool: &TaskPool,
    trace_run: u64,
    [batches_ok, rejected, merged]: &[Counter; 3],
) -> Result<(), Stop> {
    let mut trace = ring.drain();
    let (batches, dropped) = pool.span_batches(trace_run);
    batches_ok.add(batches.len() as u64);
    rejected.add(dropped.len() as u64);
    for why in dropped {
        eprintln!("esse_master: dropping unreadable trace batch {why}");
    }
    let report = esse_obs::fleet::merge_batches(&mut trace, &batches);
    merged.add(report.spans_merged as u64);
    let (spans, events, workers) =
        (report.spans_merged, report.events_merged, report.workers.len());
    if workers > 0 {
        println!(
            "esse_master: fleet trace — merged {spans} span(s) / {events} event(s) from \
             {workers} worker(s), {} event(s) dropped at the rings",
            report.dropped()
        );
    }
    io(esse_obs::export::save(&trace, path), "write the trace")?;
    println!("esse_master: trace written to {}", path.display());
    Ok(())
}

fn run(args: &HashMap<String, String>, workdir: &Path) -> Result<(), Stop> {
    let domain = cli::require(args, "domain", USAGE).to_string();
    let hours: f64 = cli::get_or(args, "hours", 6.0);
    let initial: usize = cli::get_or(args, "initial", 8);
    let max: usize = cli::get_or(args, "max", 32);
    let tolerance: f64 = cli::get_or(args, "tolerance", 0.08);
    let white_noise: f64 = cli::get_or(args, "white-noise", 0.0);
    let base_seed: u64 = cli::get_or(args, "base-seed", 0x5EED);
    let lease_ms: u64 = cli::get_or(args, "lease-ms", 1200u64).max(50);
    let resume = args.contains_key("resume");
    let trace_out = args.get("trace-out").map(PathBuf::from);
    let strategy = parse_subspace_flag(args.get("subspace").map_or("full", String::as_str));
    let strategy = strategy.ok_or_else(|| {
        Stop::Refused("bad --subspace value (want full or incremental[:REFRESH,TOL])".into())
    })?;
    // The run identity: only what changes member *content* (a forecast is
    // a pure function of domain, hours, noise and seed), so a resume may
    // extend the ensemble, tighten the tolerance or change parallelism.
    let run_hash = config_hash(&[
        ("domain", domain.clone()),
        ("hours", hours.to_string()),
        ("white-noise", white_noise.to_string()),
        ("base-seed", base_seed.to_string()),
    ]);
    let (_lock, journal, state) =
        open_journal(workdir, resume, args.contains_key("force"), run_hash)?;
    let crash_in = Cell::new(args.get("crash-after-appends").and_then(|v| v.parse().ok()));
    let journal = MasterJournal { journal, crash_in };
    if let Some(n) = args.get("fail-appends").and_then(|v| v.parse().ok()) {
        // The N-th append of this incarnation on fails like a full disk.
        journal.journal.inject_write_error_after(n);
    }
    let say = |level, line: std::fmt::Arguments| match level {
        Level::Info => println!("esse_master: {line}"),
        Level::Warn => eprintln!("esse_master: {line}"),
    };
    let begun = begin_incarnation(&journal, &state, run_hash, (max, tolerance), &say)?;
    let Some(incarnation) = begun else {
        return Ok(());
    };
    // Arc-shared: esse-net connection threads record into it too.
    let ring = Arc::new(RingRecorder::with_capacity(cli::get_or(args, "trace-capacity", 1 << 18)));
    let rec: &dyn Recorder = if trace_out.is_some() { ring.as_ref() } else { &NULL };
    let metrics = MetricsRegistry::new();
    metrics.gauge("esse_master_incarnation").set(incarnation as f64);
    // Exported at zero by an untraced run too.
    let trace_counters = [
        "esse_fleet_trace_batches_total",
        "esse_fleet_trace_batches_rejected_total",
        "esse_fleet_spans_merged_total",
    ]
    .map(|name| metrics.counter(name));
    // Nonzero iff tracing is on. Every parent span id a task carries
    // derives from it, so no other run's batch merges into this trace.
    let trace_run =
        if trace_out.is_some() { esse_obs::fleet::run_id(run_hash as u32, base_seed) } else { 0 };
    let (prior, central, validator) = inputs(workdir, &domain, hours, !resume, base_seed)?;
    let perturb = PerturbConfig { white_noise, base_seed, frozen_indices: Vec::new() };
    let gen = PerturbationGenerator::new(&prior, perturb);
    let manifest = PoolManifest {
        domain,
        hours,
        white_noise,
        base_seed,
        lease_ms,
        config_hash: run_hash,
        trace_run_id: trace_run,
    };
    let pool = io(TaskPool::create(workdir, &manifest), "create the task pool")?;
    // A previous incarnation may have left CANCEL/SHUTDOWN behind.
    io(pool.clear_tombstones(), "clear the tombstones")?;
    // Remote workers claim and publish through proxy threads against this
    // same pool, so one atomic rename arbitrates every claimer.
    let net_server = args.get("listen").map(|addr| -> Result<_, Stop> {
        let recorder: Arc<dyn Recorder + Send + Sync> =
            if trace_out.is_some() { ring.clone() } else { Arc::new(NULL) };
        let server = esse::net::NetServer::start(esse::net::ServerConfig {
            pool: pool.clone(),
            manifest,
            workdir: workdir.to_path_buf(),
            listen: addr.clone(),
            generation: incarnation,
            metrics: esse::net::NetMetrics::from_registry(&metrics),
            recorder,
        });
        let server =
            server.map_err(|e| Stop::Refused(format!("cannot listen for remote workers: {e}")))?;
        println!("esse_master: listening for remote workers on {}", server.local_addr());
        Ok(server)
    });
    let mut net_server = net_server.transpose()?;
    let cov = io(DiskTripleBuffer::create(workdir), "open the covariance files")?;
    let store = DiskStore { workdir: workdir.to_path_buf(), cov };
    let attempts = cli::get_or(args, "task-attempts", 3u32).max(1);
    let backoff = Duration::from_millis(20);
    let setup = Setup {
        gen: &gen,
        central: &central,
        validator: Some(validator),
        strategy,
        mode_rel_tol: 1e-4,
        max_rank: 64,
        linalg: Default::default(),
        schedule: EnsembleSchedule::new(initial, max),
        stride: (initial / 2).max(4),
        pool_factor: 1.0,
        tolerance,
        completion: CompletionPolicy::CancelImmediately,
        deadline: None,
        lease_ms,
        retry: RetryPolicy::retries(attempts).with_backoff(backoff, 2.0, 0.0),
        requeue_budget: cli::get_or(args, "requeue-budget", 16u32).max(1),
        trace_run,
        incarnation,
        rec,
        metrics: &metrics,
        progress: &say,
    };
    let epochs = io(pool.epochs(), "recover epochs from the task pool")?;
    let mut co = Coordinator::resume(&state, epochs, (&pool, &journal, &store), setup)?;
    // `--workers 0` runs a pure coordinator for external workers.
    let workers = cli::get_or(args, "workers", 2usize);
    let mut fleet = Fleet { slots: (0..workers).map(|_| None).collect(), spawns: 0 };
    let t0 = Instant::now();
    loop {
        if !co.converged() {
            fleet.upkeep(workdir, rec)?;
        }
        let scan = io(pool.scan(), "scan the task pool")?;
        if co.step(&scan, t0.elapsed())? {
            break;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    io(pool.write_shutdown(), "write the shutdown tombstone")?;
    fleet.reap()?;
    // Remote workers learn of the end from a `Shutdown` claim reply and
    // ship their last trace batch over it: serve until connections drain.
    // A resumed run may have a worker parked and disconnected; 750 ms
    // covers its reconnect poll, so it hears `Shutdown`, not a dead port.
    if let Some(server) = net_server.as_mut() {
        let linger = if incarnation > 1 { Duration::from_millis(750) } else { Duration::ZERO };
        server.drain(linger, Duration::from_secs(10));
        server.stop();
    }
    let posterior = co.posterior()?;
    let written = fileio::write_subspace(workdir.join(files::POSTERIOR), &posterior.subspace);
    io(written, "write the posterior")?;
    co.complete(&posterior)?;
    let log_dir = workdir.join(WORKER_LOG_DIR);
    let is_log = |e: &fs::DirEntry| e.path().extension().is_some_and(|x| x == "log");
    let logs = fs::read_dir(&log_dir).map_or(0, |d| d.flatten().filter(is_log).count());
    if logs > 0 {
        println!("esse_master: {logs} worker log(s) under {}", log_dir.display());
    }
    if let Some(path) = trace_out {
        write_trace(&ring, &path, &pool, trace_run, &trace_counters)?;
    }
    if let Some(path) = args.get("metrics-out") {
        io(fs::write(path, metrics.snapshot().to_prometheus()), "write the metrics")?;
        println!("esse_master: metrics written to {path}");
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse_args(&argv);
    let workdir = PathBuf::from(cli::require(&args, "workdir", USAGE));
    let outcome = if args.contains_key("gc") {
        run_gc(&workdir, cli::get_or(&args, "gc-keep", 4usize))
    } else {
        run(&args, &workdir)
    };
    if let Err(stop) = outcome {
        let (code, why) = match stop {
            Stop::Io(why) => (1, why),
            Stop::Refused(why) => (2, why),
            Stop::Locked(why) => (3, why),
            Stop::Coord(e @ CoordError::Parked(_)) => (4, e.to_string()),
            Stop::Coord(e) => (1, e.to_string()),
        };
        eprintln!("esse_master: {why}");
        std::process::exit(code);
    }
}
