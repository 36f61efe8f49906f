//! `esse_master` — the master script of paper §4.2 over a fleet of
//! worker processes. The run is [`MtcEsse::run_on`] over the fleet
//! resource of [`esse::fleet`]: the task pool under `workdir/pool/`
//! (also served over TCP with `--listen`), `run.journal`, the workdir's
//! forecast, covariance and posterior files, and the local workers. This
//! binary maps its flags to an `MtcConfig` ([`cli::master_config`]) and
//! keeps the process work: the workdir lock, `--gc`, the journal and its
//! crash/fail-append hooks, the scenario inputs, the trace merge, the
//! metrics dump and the exit codes (docs/FAULT_TOLERANCE.md): 0 done,
//! 1 I/O failure, 2 refusal or bad configuration, 3 workdir locked,
//! 4 journal append failed.

use esse::cli::{self, files};
use esse::core::model::PeForecastModel;
use esse::core::subspace::ErrorSubspace;
use esse::fileio;
use esse::fleet::{Fleet, LocalWorkers, WORKER_LOG_DIR};
use esse::mtc::coordinator::{CoordError, JournalPort, Level};
use esse::mtc::journal::{config_hash, Journal, JournalRecord, JournalState};
use esse::mtc::lock::LOCK_FILE;
use esse::mtc::pool::{PoolManifest, TaskPool};
use esse::mtc::rundir::{self, DiskStore};
use esse::mtc::workflow::{Journalled, MtcEsse, RunInit};
use esse::mtc::{DiskTripleBuffer, LockError, WorkdirLock};
use esse::EsseError;
use esse_obs::recorder::{Recorder, NULL};
use esse_obs::registry::{Counter, MetricsRegistry};
use esse_obs::ring::RingRecorder;
use std::cell::Cell;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "esse_master --workdir DIR --domain monterey:NX,NY,NZ --hours H \
                     [--initial N] [--max NMAX] [--tolerance T] [--workers C] \
                     [--lease-ms MS] [--requeue-budget B] \
                     [--white-noise E] [--base-seed S] [--resume | --force] \
                     [--subspace full|incremental[:REFRESH,TOL]] [--listen ADDR] \
                     [--trace-out PATH] [--metrics-out PATH] \
                     [--crash-after-appends K] [--fail-appends K]\n\
                     esse_master --workdir DIR --gc [--gc-keep N]";

/// Why the master stopped: an I/O failure, a refusal (the workdir left
/// as found), a held lock, or a failed journal append; see `main`.
enum Stop {
    Io(String),
    Refused(String),
    Locked(String),
    Parked(String),
}

fn io<T>(result: io::Result<T>, what: &str) -> Result<T, Stop> {
    result.map_err(|e| Stop::Io(format!("cannot {what}: {e}")))
}

/// The journal port, with the recovery harness's `--crash-after-appends
/// N` (abort the instant this incarnation's N-th append is durable) and
/// a note of any failed append, which parks the run.
struct MasterJournal {
    journal: Journal,
    crash_in: Cell<Option<u64>>,
    failed: Cell<bool>,
}

impl JournalPort for MasterJournal {
    fn append(&self, rec: &JournalRecord) -> io::Result<()> {
        self.journal.append(rec).inspect_err(|_| self.failed.set(true))?;
        match self.crash_in.get() {
            // No destructors, no flush: as close as a process gets to
            // losing power.
            Some(n) if n <= 1 => std::process::abort(),
            left => self.crash_in.set(left.map(|n| n - 1)),
        }
        Ok(())
    }
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

/// Take the workdir: a populated one only with `--resume` or `--force`.
/// `--force` clears it under the lock, so a live master's workdir is
/// never touched.
fn take_workdir(workdir: &Path, resume: bool, force: bool) -> Result<WorkdirLock, Stop> {
    let populated = !resume && fs::read_dir(workdir).is_ok_and(|mut d| d.next().is_some());
    if populated && !force {
        return Err(Stop::Refused(format!(
            "workdir {} is not empty; pass --resume to continue the run or --force to discard it",
            workdir.display()
        )));
    }
    io(fs::create_dir_all(workdir), "create the workdir")?;
    let lock = lock_workdir(workdir)?;
    if populated {
        eprintln!("esse_master: --force: clearing existing workdir");
        for entry in io(fs::read_dir(workdir), "list the workdir")? {
            let path = io(entry, "list the workdir")?.path();
            if path.file_name() == Some(LOCK_FILE.as_ref()) {
                continue;
            }
            let removed =
                if path.is_dir() { fs::remove_dir_all(&path) } else { fs::remove_file(&path) };
            io(removed, "clear the workdir")?;
        }
    }
    Ok(lock)
}

/// The workdir's journal: fresh, or replayed and checked to be this run's.
fn open_journal(workdir: &Path, resume: bool, hash: u64) -> Result<(Journal, JournalState), Stop> {
    let path = workdir.join(rundir::JOURNAL);
    if !(resume && path.exists()) {
        let journal = io(Journal::create(&path), "create the journal")?;
        return Ok((journal, JournalState::default()));
    }
    let (journal, replay) = Journal::open(&path)
        .map_err(|e| Stop::Refused(format!("cannot resume from {}: {e}", path.display())))?;
    if replay.torn_bytes > 0 {
        let torn = replay.torn_bytes;
        eprintln!("esse_master: truncated {torn} torn byte(s) from the journal tail");
    }
    let state = JournalState::replay(&replay.records);
    if let Some(h) = state.config_hash.filter(|&h| h != hash) {
        return Err(Stop::Refused(format!(
            "journal belongs to a different run (config hash {h:#018x} != {hash:#018x}); \
             refusing to mix results"
        )));
    }
    Ok((journal, state))
}

/// The mean state and prior (written once, reused on resume) that
/// workers perturb from, and the model.
fn inputs(
    workdir: &Path,
    domain: &str,
    fresh: bool,
    seed: u64,
) -> Result<(PeForecastModel, Vec<f64>, ErrorSubspace), Stop> {
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
    let mean = io(fileio::read_vector(&mean_path), "read the mean state")?;
    Ok((PeForecastModel::new(model), mean, prior))
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
    let domain: String = cli::require(args, "domain", USAGE);
    let hours: f64 = cli::get(args, "hours").unwrap_or(6.0);
    let cfg = cli::master_config(args).map_err(Stop::Refused)?;
    // Parsed before the workdir is touched: a malformed value exits 2
    // with the workdir as found.
    let workers: usize = cli::get(args, "workers").unwrap_or(2);
    let crash_after: Option<u64> = cli::get(args, "crash-after-appends");
    let fail_after: Option<u64> = cli::get(args, "fail-appends");
    let (white_noise, base_seed) = (cfg.perturb.white_noise, cfg.perturb.base_seed);
    let trace_out = args.get("trace-out").map(PathBuf::from);
    // The run identity: only what changes member *content* (a forecast is
    // a pure function of domain, hours, noise and seed), so a resume may
    // extend the ensemble, tighten the tolerance or change parallelism.
    let run_hash = config_hash(&[
        ("domain", domain.clone()),
        ("hours", hours.to_string()),
        ("white-noise", white_noise.to_string()),
        ("base-seed", base_seed.to_string()),
    ]);
    let resume = args.contains_key("resume");
    let _lock = take_workdir(workdir, resume, args.contains_key("force"))?;
    // Bound before the journal or any input is touched, so an address that
    // cannot be bound is a refusal that leaves the workdir as found.
    let bind = |addr: &String| {
        let why = |e| format!("cannot listen for remote workers on {addr}: {e}");
        TcpListener::bind(addr).map_err(|e| Stop::Refused(why(e)))
    };
    let listener = args.get("listen").map(bind).transpose()?;
    let (journal, state) = open_journal(workdir, resume, run_hash)?;
    let journal =
        MasterJournal { journal, crash_in: Cell::new(crash_after), failed: Cell::new(false) };
    if let Some(n) = fail_after {
        // The N-th append of this incarnation on fails like a full disk.
        journal.journal.inject_write_error_after(n);
    }
    let say = |level, line: std::fmt::Arguments| match level {
        Level::Info => println!("esse_master: {line}"),
        Level::Warn => eprintln!("esse_master: {line}"),
    };
    // Arc-shared: esse-net connection threads record into it too.
    let ring = Arc::new(RingRecorder::with_capacity(cli::TRACE_CAPACITY));
    let recorder: Arc<dyn Recorder + Send + Sync> =
        if trace_out.is_some() { ring.clone() } else { Arc::new(NULL) };
    let metrics = MetricsRegistry::new();
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
    let (model, mean, prior) = inputs(workdir, &domain, !resume, base_seed)?;
    let manifest = PoolManifest {
        domain,
        hours,
        white_noise,
        base_seed,
        lease_ms: cfg.retry.lease_ms(),
        config_hash: run_hash,
        trace_run_id: trace_run,
    };
    let store = io(DiskStore::open(workdir), "open the covariance files")?;
    let fleet = Fleet {
        pool: io(TaskPool::prepare(workdir), "create the task pool")?,
        manifest,
        journal,
        store,
        // `--workers 0` runs a pure coordinator for external workers.
        local: LocalWorkers::new(workers),
        listener: listener.into(),
        recorder: recorder.clone(),
        t0: Instant::now(),
    };
    // The gate the workers run, rebuilt here: never trust the wire.
    let gate =
        |central: &[f64]| cli::scenario_gate(&model.model.grid, &mean, Some(central), &prior);
    let engine = MtcEsse::new(&model, cfg)
        .with_gate(gate)
        .with_recorder(recorder.as_ref())
        .with_metrics(&metrics)
        .with_progress(&say);
    let journalled = Journalled { state: &state, config_hash: run_hash, trace_run };
    match engine.run_on(RunInit::new(&mean, &prior), &fleet, journalled) {
        Ok(Some(_)) => {}
        // Already complete: the journal and workdir are left as found.
        Ok(None) => return Ok(()),
        Err(EsseError::Io(e)) if fleet.journal.failed.get() => {
            return Err(Stop::Parked(CoordError::Parked(e).to_string()))
        }
        Err(e @ EsseError::Config(_)) => return Err(Stop::Refused(e.to_string())),
        Err(e) => return Err(Stop::Io(e.to_string())),
    }
    let log_dir = workdir.join(WORKER_LOG_DIR);
    let is_log = |e: &fs::DirEntry| e.path().extension().is_some_and(|x| x == "log");
    let logs = fs::read_dir(&log_dir).map_or(0, |d| d.flatten().filter(is_log).count());
    if logs > 0 {
        println!("esse_master: {logs} worker log(s) under {}", log_dir.display());
    }
    if let Some(path) = trace_out {
        write_trace(&ring, &path, &fleet.pool, trace_run, &trace_counters)?;
    }
    if let Some(path) = args.get("metrics-out") {
        io(fs::write(path, metrics.snapshot().to_prometheus()), "write the metrics")?;
        println!("esse_master: metrics written to {path}");
    }
    Ok(())
}

fn main() {
    let args = cli::args(USAGE);
    let workdir: PathBuf = cli::require(&args, "workdir", USAGE);
    let outcome = if args.contains_key("gc") {
        run_gc(&workdir, cli::get(&args, "gc-keep").unwrap_or(4usize))
    } else {
        run(&args, &workdir)
    };
    if let Err(stop) = outcome {
        let (code, why) = match stop {
            Stop::Io(why) => (1, why),
            Stop::Refused(why) => (2, why),
            Stop::Locked(why) => (3, why),
            Stop::Parked(why) => (4, why),
        };
        eprintln!("esse_master: {why}");
        std::process::exit(code);
    }
}
