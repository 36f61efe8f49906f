//! `esse_worker` — an autonomous pull-model worker for the task pool
//! (paper Fig. 4, §4).
//!
//! The paper's ensemble members ran wherever capacity existed — SGE,
//! Condor, Teragrid, EC2 — with no registration at the master; workers
//! simply pulled perturbation/forecast tasks from the pool. This binary
//! is that worker, over either transport:
//!
//! * `--workdir DIR` — the original shared-filesystem pool: claims by
//!   atomic rename, heartbeat files, result records on disk;
//! * `--connect HOST:PORT` — the `esse-net` TCP protocol: the same
//!   claims, lease renewals and result publishes proxied through the
//!   coordinator's listener, with the forecast payload streamed back
//!   over the wire. The worker stages `mean.vec`/`prior.sub` into a
//!   private scratch workdir from the `Welcome` handshake, so it needs
//!   no filesystem in common with the coordinator.
//!
//! Either way each worker
//!
//! 1. claims a pending task (exactly one claimer wins),
//! 2. renews the claim's lease with a monotonic heartbeat counter,
//! 3. runs the real `pert` + `pemodel` singleton chain for the member,
//! 4. publishes a result record carrying the claim's fencing epoch —
//!    the coordinator rejects it if the lease expired and the task was
//!    requeued at a higher epoch in the meantime.
//!
//! Workers observe the coordinator's `CANCEL` tombstone *mid-run* (the
//! in-flight `pemodel` child is killed — the paper's task-cancellation
//! protocol) and exit on `SHUTDOWN`, after `--idle-exit-ms` with
//! nothing to do, or when the coordinator is gone past the bounded
//! `--coordinator-grace-ms` window. Coordinator death is *not*
//! immediately terminal: within the grace the worker **parks** — it
//! finishes and publishes the task it holds, keeps heartbeating, and
//! polls for a restarted coordinator (a successor PID in `master.lock`
//! for local workers; a rewritten `pool/endpoint` + re-handshake for
//! remote ones, see `--endpoint-file`). Adoption re-verifies the run's
//! config hash; only grace expiry makes the worker an orphan that
//! self-exits rather than hold claims a successor would wait out.
//!
//! Fault injection for the chaos harness: `--die-after K` aborts the
//! process the instant it claims its K-th task (routed through
//! `FaultPlan::worker_dies`, the scripted worker-death schedule) and
//! `--stall-task M --stall-ms D` suppresses the heartbeat for member
//! `M` and sleeps `D` ms before running it — long enough for the lease
//! to expire, so the eventual publish exercises the fencing path.
//!
//! **Semantic self-check.** Before publishing a finished forecast the
//! worker runs the same [`ForecastValidator`] the coordinator applies
//! at ingest, built from the staged `mean.vec`/`prior.sub` (plus the
//! central forecast when present). A member that fails the check never
//! uploads its payload: the worker publishes a typed `REJECTED` result
//! carrying the validator's reason code, and the coordinator schedules
//! a replacement. `--corrupt-members RATE` injects seeded payload
//! corruption (`FaultPlan::corruption_for`): NaN injection lands
//! *before* the self-check (the worker must catch it), while blowup and
//! block-shift corruption are written *after* it with a matching CRC —
//! a worker lying about its own health — so only the coordinator's
//! re-validation can stop them.
//!
//! **Distributed tracing.** When the coordinator runs with tracing
//! enabled it stamps a nonzero `trace_run_id` into the pool manifest
//! and a parent span id into every task record. The worker then records
//! real spans around claim/stage/pert/pemodel/publish into a bounded
//! local ring (`--trace-capacity`, drop-oldest with a counter) and
//! ships each task's finished spans back to the coordinator as a
//! CRC-framed [`SpanBatch`] — a sidecar file next to the result on the
//! disk transport, a `TRACE` message over TCP. Shipping is best-effort
//! and idempotent; tracing is never load-bearing for the task flow. An
//! `esse_worker_*` metrics registry rides along and is dumped to
//! `--metrics-out` on any orderly exit, including tombstone shutdown.
//!
//! ```text
//! esse_worker (--workdir DIR | --connect HOST:PORT [--scratch DIR])
//!             [--worker-id N] [--poll-ms MS] [--idle-exit-ms MS]
//!             [--parent-pid PID] [--wait-pool-ms MS]
//!             [--coordinator-grace-ms MS] [--reconnect-grace-ms MS]
//!             [--endpoint-file PATH] [--fault-seed S] [--die-after K]
//!             [--stall-task M] [--stall-ms MS]
//!             [--trace-capacity N] [--metrics-out PATH]
//! ```

use esse::cli::{self, files};
use esse::core::validate::{ForecastValidator, ValidatorConfig, Verdict};
use esse::fileio;
use esse::mtc::pool::{ResultRecord, TaskPool, TaskSpec, CODE_REJECTED};
use esse::mtc::transport::{local_process_alive, ClaimOutcome, DiskTransport, PoolTransport};
use esse::mtc::{FaultPlan, Heartbeat, RenewAck};
use esse::net::{TcpConfig, TcpTransport};
use esse_obs::event::Lane;
use esse_obs::fleet::SpanBatch;
use esse_obs::recorder::{Recorder, RecorderExt, NULL};
use esse_obs::registry::{Counter, MetricsRegistry};
use esse_obs::ring::RingRecorder;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

const USAGE: &str = "esse_worker (--workdir DIR | --connect HOST:PORT [--scratch DIR]) \
                     [--worker-id N] [--poll-ms MS] [--idle-exit-ms MS] [--parent-pid PID] \
                     [--coordinator-grace-ms MS] [--reconnect-grace-ms MS] \
                     [--endpoint-file PATH] [--die-after K] [--stall-task M] [--stall-ms MS] \
                     [--corrupt-members RATE] [--trace-capacity N] [--metrics-out PATH]";

/// Result code a worker publishes when it could not even spawn the
/// singleton chain (distinct from any real `pert`/`pemodel` exit code).
const CODE_SPAWN_FAILED: i32 = 120;
/// Result code for a forecast file that failed its checksum validation.
const CODE_CORRUPT_FORECAST: i32 = 121;

/// The lease on a held claim, renewed from the loop that waits on the
/// task's singletons. A SIGKILLed worker stops renewing, the heartbeat
/// counter stops advancing, and the coordinator reclaims the lease.
struct Lease {
    spec: TaskSpec,
    counter: u64,
    interval: Duration,
    /// When the next renewal is due; `None` once renewing has stopped
    /// (the stall injection never starts it, a renewal error ends it).
    due: Option<Instant>,
}

impl Lease {
    /// Renew if a renewal is due. Returns `false` when the coordinator
    /// answered `Fenced`: the claim is no longer current and the task
    /// is pointless.
    fn keep(&mut self, transport: &dyn PoolTransport) -> bool {
        if self.due.is_none_or(|due| Instant::now() < due) {
            return true;
        }
        self.counter += 1;
        let hb = Heartbeat { pid: std::process::id(), counter: self.counter };
        match transport.renew_lease(&self.spec, &hb) {
            Ok(RenewAck::Ok) => self.due = Some(Instant::now() + self.interval),
            Ok(RenewAck::Fenced) => return false,
            // Claim gone (workdir torn down) or coordinator
            // unreachable: nothing left to renew.
            Err(_) => self.due = None,
        }
        true
    }
}

/// Wait for a child while renewing the lease and watching for
/// cancellation and fencing; on either the child is killed mid-run and
/// `None` is returned.
fn wait_or_cancel(
    child: &mut Child,
    transport: &dyn PoolTransport,
    lease: &mut Lease,
) -> Option<i32> {
    let mut last_poll = Instant::now();
    // Tombstone polls go over the transport (a network round trip for
    // remote workers), so they run on a coarser cadence than the local
    // child wait.
    let poll_every = Duration::from_millis(50);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait on singleton") {
            return Some(status.code().unwrap_or(-1));
        }
        let mut abandon = !lease.keep(transport);
        if !abandon && last_poll.elapsed() >= poll_every {
            last_poll = Instant::now();
            abandon = match transport.run_state() {
                Ok(rs) => rs.cancelled,
                // Orphaned mid-task: abandon the child, the lease will
                // expire and the work requeue.
                Err(_) => !transport.coordinator_alive(),
            };
        }
        if abandon {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

struct WorkerConfig {
    workdir: PathBuf,
    worker_id: u32,
    poll: Duration,
    idle_exit: Option<Duration>,
    plan: FaultPlan,
    stall_task: Option<u64>,
    stall: Duration,
    /// The semantic self-check gate; `None` when the scenario inputs
    /// could not be staged (the coordinator's re-validation still
    /// stands).
    validator: Option<ForecastValidator>,
    /// One 3-D field's packed length — the rotation unit for injected
    /// block-shift corruption.
    corrupt_block: usize,
}

/// Run one claimed task end to end. Returns `true` if a result was
/// published (the stalled/fenced path also counts — publishing *is* the
/// point of the stall injection).
fn run_task(
    cfg: &WorkerConfig,
    transport: &dyn PoolTransport,
    spec: TaskSpec,
    stalled: bool,
    rec: &dyn Recorder,
    lane: Lane,
    rejected: &Counter,
) -> bool {
    let manifest = transport.manifest().clone();
    let member = spec.member as usize;
    let mut lease = Lease {
        spec,
        counter: 0,
        interval: Duration::from_millis((manifest.lease_ms / 5).max(10)),
        // Injection: a stalled task holds the claim without ever
        // renewing the lease.
        due: (!stalled).then(Instant::now),
    };
    if stalled {
        // ... and sleeps past its expiry — the zombie-worker scenario.
        eprintln!(
            "esse_worker[{}]: stalling on member {member} for {:?} (lease is {}ms)",
            cfg.worker_id, cfg.stall, manifest.lease_ms
        );
        std::thread::sleep(cfg.stall);
    }

    let publish = |code: i32, fc_crc: u32, reason: u32| {
        let record = ResultRecord {
            member: spec.member,
            epoch: spec.epoch,
            code,
            pid: std::process::id(),
            fc_crc,
            reason,
        };
        // A remote transport ships the forecast bytes alongside the
        // record; on disk they are already in the shared workdir.
        let payload = if transport.wants_payload() && code == 0 {
            std::fs::read(cfg.workdir.join(files::fc(member))).ok()
        } else {
            None
        };
        rec.begin_at(
            rec.now_ns(),
            lane,
            "phase",
            "publish",
            vec![("member", spec.member.into()), ("code", (code as i64 as u64).into())],
        );
        let outcome = transport.publish(&record, payload.as_deref());
        rec.end_at(rec.now_ns(), lane, "phase", "publish");
        match outcome {
            Ok(_) => true, // Fenced reply is advisory; the record landed.
            Err(e) => {
                eprintln!(
                    "esse_worker[{}]: publish for member {member} failed: {e}",
                    cfg.worker_id
                );
                false
            }
        }
    };
    let mut published = false;

    // pert → pemodel, the §4.2 singleton chain, via the shared
    // bounded-retry spawner (a transient fork failure degrades into a
    // retryable failure result instead of killing the worker). Each
    // singleton runs under its own phase span (spawn + wait).
    let mut run_child = |name: &'static str, cmd: &mut Command| {
        rec.begin_at(rec.now_ns(), lane, "phase", name, vec![("member", spec.member.into())]);
        let exit = match cli::spawn_with_retry(cmd, name, Some(member), 3) {
            Ok(mut child) => Ok(wait_or_cancel(&mut child, transport, &mut lease)),
            Err(e) => Err(e),
        };
        rec.end_at(rec.now_ns(), lane, "phase", name);
        exit
    };

    let mut pert = Command::new(cli::sibling("pert"));
    pert.arg("--workdir")
        .arg(&cfg.workdir)
        .arg("--member")
        .arg(member.to_string())
        .arg("--white-noise")
        .arg(manifest.white_noise.to_string())
        .arg("--base-seed")
        .arg(manifest.base_seed.to_string());
    match run_child("pert", &mut pert) {
        Ok(Some(0)) => {
            let mut pemodel = Command::new(cli::sibling("pemodel"));
            pemodel
                .arg("--workdir")
                .arg(&cfg.workdir)
                .arg("--domain")
                .arg(&manifest.domain)
                .arg("--hours")
                .arg(manifest.hours.to_string())
                .arg("--member")
                .arg(member.to_string())
                .arg("--seed")
                .arg(spec.seed.to_string());
            match run_child("pemodel", &mut pemodel) {
                Ok(Some(0)) => {
                    let fc_path = cfg.workdir.join(files::fc(member));
                    // Chaos injection: rewrite the forecast in place,
                    // deterministically for (seed, member, epoch). A
                    // NaN plant lands before the self-check; blowup and
                    // block shift land after it, so the published CRC
                    // matches the corrupted bytes and only the
                    // coordinator's re-validation can catch them.
                    let corruption = cfg.plan.corruption_for(member, spec.epoch);
                    let inject = |kind: &esse::mtc::CorruptionKind| {
                        let res = fileio::read_vector(&fc_path).and_then(|mut xf| {
                            kind.apply(
                                cfg.plan.seed,
                                spec.member,
                                cfg.corrupt_block.max(1),
                                &mut xf,
                            );
                            fileio::write_vector(&fc_path, &xf)
                        });
                        match res {
                            Ok(()) => eprintln!(
                                "esse_worker[{}]: injected {kind:?} corruption into member {member}",
                                cfg.worker_id
                            ),
                            Err(e) => eprintln!(
                                "esse_worker[{}]: corruption injection failed for member {member}: {e}",
                                cfg.worker_id
                            ),
                        }
                    };
                    if let Some(kind) = corruption.filter(|k| !k.bypasses_self_check()) {
                        inject(&kind);
                    }
                    // The forecast file is durable (pemodel publishes
                    // atomically). Self-check it semantically before any
                    // bytes move: a failing member publishes a typed
                    // REJECTED result with the validator's reason code
                    // instead of uploading garbage.
                    match fileio::read_vector_with_crc(&fc_path) {
                        Ok((xf, crc)) => {
                            let verdict =
                                cfg.validator.as_ref().map_or(Verdict::Pass, |v| v.validate(&xf));
                            match verdict {
                                Verdict::Pass => {
                                    // A post-self-check injection rewrites
                                    // the file: publish the CRC of the
                                    // corrupted bytes.
                                    let crc = match corruption.filter(|k| k.bypasses_self_check()) {
                                        Some(kind) => {
                                            inject(&kind);
                                            fileio::read_vector_with_crc(&fc_path)
                                                .map(|(_, crc)| crc)
                                        }
                                        None => Ok(crc),
                                    };
                                    match crc {
                                        Ok(crc) => published = publish(0, crc, 0),
                                        Err(e) => {
                                            eprintln!(
                                                "esse_worker[{}]: member {member} forecast invalid: {e}",
                                                cfg.worker_id
                                            );
                                            published = publish(CODE_CORRUPT_FORECAST, 0, 0);
                                        }
                                    }
                                }
                                Verdict::Quarantine(reason) => {
                                    eprintln!(
                                        "esse_worker[{}]: member {member} failed self-check ({}), publishing REJECTED",
                                        cfg.worker_id,
                                        reason.describe()
                                    );
                                    rec.instant_at(
                                        rec.now_ns(),
                                        lane,
                                        "fault",
                                        "self_reject",
                                        vec![
                                            ("member", spec.member.into()),
                                            ("reason", (reason.code() as u64).into()),
                                        ],
                                    );
                                    rejected.inc();
                                    published = publish(CODE_REJECTED, 0, reason.code());
                                }
                            }
                        }
                        Err(e) => {
                            eprintln!(
                                "esse_worker[{}]: member {member} forecast invalid: {e}",
                                cfg.worker_id
                            );
                            published = publish(CODE_CORRUPT_FORECAST, 0, 0);
                        }
                    }
                }
                Ok(Some(code)) => published = publish(code, 0, 0),
                Ok(None) => {} // cancelled or fenced mid-run
                Err(e) => {
                    eprintln!("esse_worker[{}]: {e}", cfg.worker_id);
                    published = publish(CODE_SPAWN_FAILED, 0, 0);
                }
            }
        }
        Ok(Some(code)) => published = publish(code, 0, 0),
        Ok(None) => {} // cancelled or fenced mid-run
        Err(e) => {
            eprintln!("esse_worker[{}]: {e}", cfg.worker_id);
            published = publish(CODE_SPAWN_FAILED, 0, 0);
        }
    }

    // Release after the publish: the result record is the commit point,
    // the claim files are just lease bookkeeping. Tolerant of a claim
    // the lease watchdog already swept.
    let _ = transport.release(&spec);
    published
}

/// Open the transport named on the command line, waiting up to
/// `wait_pool` for the pool (or listener) to appear — workers may
/// legitimately start before the coordinator.
fn open_transport(
    args: &std::collections::HashMap<String, String>,
    cfg: &WorkerConfig,
    parent_pid: Option<u32>,
    wait_pool: Duration,
) -> Result<Box<dyn PoolTransport>, String> {
    let t0 = Instant::now();
    // The coordinator-outage parking window, shared by both transports.
    // `--reconnect-grace-ms` is the historical TCP spelling and still
    // honoured; `--coordinator-grace-ms` wins when both are given.
    let grace = Duration::from_millis(
        args.get("coordinator-grace-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| cli::get_or(args, "reconnect-grace-ms", 5_000u64)),
    );
    if let Some(addr) = args.get("connect") {
        let mut tcp = TcpConfig::new(addr.clone(), cfg.worker_id as u64);
        tcp.reconnect_grace = grace;
        tcp.endpoint_file = args.get("endpoint-file").map(PathBuf::from);
        loop {
            match TcpTransport::connect(tcp.clone()) {
                Ok(t) => return Ok(Box::new(t)),
                Err(e)
                    if e.kind() == std::io::ErrorKind::ConnectionRefused
                        && e.to_string().contains("rejected") =>
                {
                    return Err(format!("coordinator at {addr}: {e}"));
                }
                Err(_) if t0.elapsed() < wait_pool => {
                    if !parent_pid.is_none_or(local_process_alive) {
                        std::process::exit(0);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(format!("no coordinator at {addr}: {e}")),
            }
        }
    }
    let workdir = &cfg.workdir;
    loop {
        match TaskPool::open(workdir) {
            Ok((pool, manifest)) => {
                return Ok(Box::new(
                    DiskTransport::new(pool, manifest, parent_pid).with_coordinator_grace(grace),
                ));
            }
            Err(_) if t0.elapsed() < wait_pool => {
                if !parent_pid.is_none_or(local_process_alive) {
                    std::process::exit(0);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(format!("no task pool under {}: {e}", workdir.display())),
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse_args(&argv);
    let worker_id: u32 = cli::get_or(&args, "worker-id", 0);
    let remote = args.contains_key("connect");
    let workdir = if remote {
        // Remote workers get a private scratch workdir; nothing in it
        // is shared with the coordinator.
        args.get("scratch").map(PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir()
                .join(format!("esse-worker-scratch-{}-{worker_id}", std::process::id()))
        })
    } else {
        PathBuf::from(cli::require(&args, "workdir", USAGE))
    };
    let mut cfg = WorkerConfig {
        worker_id,
        poll: Duration::from_millis(cli::get_or(&args, "poll-ms", 25u64).max(1)),
        idle_exit: args.get("idle-exit-ms").and_then(|v| v.parse().ok()).map(Duration::from_millis),
        plan: {
            let mut plan = FaultPlan::seeded(cli::get_or(&args, "fault-seed", 0u64));
            if let Some(k) = args.get("die-after").and_then(|v| v.parse().ok()) {
                plan = plan.with_worker_death(worker_id as usize, k);
            }
            if let Some(rate) = args.get("corrupt-members").and_then(|v| v.parse().ok()) {
                plan = plan.with_corruption(rate);
            }
            plan
        },
        stall_task: args.get("stall-task").and_then(|v| v.parse().ok()),
        stall: Duration::from_millis(cli::get_or(&args, "stall-ms", 0u64)),
        workdir,
        validator: None,
        corrupt_block: 0,
    };
    let parent_pid: Option<u32> = args.get("parent-pid").and_then(|v| v.parse().ok());
    let wait_pool = Duration::from_millis(cli::get_or(&args, "wait-pool-ms", 30_000u64));
    let trace_capacity: usize = cli::get_or(&args, "trace-capacity", 1usize << 18);
    let metrics_out = args.get("metrics-out").map(PathBuf::from);

    // The pool may not exist yet (worker started before the master
    // seeded it — that's allowed, there is no registration step).
    let transport = match open_transport(&args, &cfg, parent_pid, wait_pool) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("esse_worker[{worker_id}]: {e}");
            std::process::exit(2);
        }
    };

    // --- Observability: tracing is opt-in *by the coordinator* — a
    // nonzero trace_run_id in the manifest is the whole trace context
    // handshake. With id zero every instrumented path collapses to a
    // branch on the null recorder and nothing is ever shipped. ---
    let trace_run = transport.manifest().trace_run_id;
    let tracing = trace_run != 0;
    let ring = RingRecorder::with_capacity(trace_capacity);
    let rec: &dyn Recorder = if tracing { &ring } else { &NULL };
    let lane = Lane::Worker(worker_id);
    let metrics = MetricsRegistry::new();
    let m_claimed = metrics.counter("esse_worker_tasks_claimed_total");
    let m_published = metrics.counter("esse_worker_tasks_published_total");
    let m_rejected = metrics.counter("esse_worker_results_rejected_total");
    let m_batches = metrics.counter("esse_worker_trace_batches_shipped_total");
    let m_ship_failed = metrics.counter("esse_worker_trace_ship_failures_total");
    let g_dropped = metrics.gauge("esse_worker_trace_dropped_events");
    let mut dropped_total = 0u64;

    if remote {
        rec.begin_at(rec.now_ns(), lane, "phase", "stage", vec![]);
        let staged = std::fs::create_dir_all(&cfg.workdir)
            .and_then(|()| transport.stage_inputs(&cfg.workdir));
        rec.end_at(rec.now_ns(), lane, "phase", "stage");
        if let Err(e) = staged {
            eprintln!("esse_worker[{worker_id}]: staging inputs failed: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "esse_worker[{worker_id}]: joined {} with scratch {}",
            transport.describe(),
            cfg.workdir.display()
        );
    }

    // --- Semantic self-check: build the same validator the coordinator
    // runs at ingest, from the staged scenario inputs. Both transports
    // provide `mean.vec`/`prior.sub`; the central forecast joins the
    // bounds envelope only when present (the shared disk pool has it, a
    // TCP scratch dir does not — the envelopes stay compatible because
    // the central forecast only ever *widens* them). A missing input
    // degrades to "no self-check" rather than a dead worker; the
    // coordinator's gate still stands. ---
    match cli::build_model(&transport.manifest().domain) {
        Ok((model, _)) => {
            let mean = fileio::read_vector(cfg.workdir.join(files::MEAN));
            let prior = fileio::read_subspace(cfg.workdir.join(files::PRIOR));
            match (mean, prior) {
                (Ok(mean), Ok(prior)) => {
                    let central = fileio::read_vector(cfg.workdir.join(files::CENTRAL)).ok();
                    let mut baselines: Vec<&[f64]> = vec![&mean];
                    if let Some(c) = central.as_deref() {
                        baselines.push(c);
                    }
                    cfg.validator = Some(ForecastValidator::for_scenario(
                        &model.grid,
                        &baselines,
                        &prior,
                        ValidatorConfig::default(),
                    ));
                    cfg.corrupt_block = model.grid.cells3();
                }
                (mean, prior) => {
                    let why = mean.err().or(prior.err()).map(|e| e.to_string());
                    eprintln!(
                        "esse_worker[{worker_id}]: self-check disabled, scenario inputs unreadable: {}",
                        why.as_deref().unwrap_or("unknown")
                    );
                }
            }
        }
        Err(e) => {
            eprintln!("esse_worker[{worker_id}]: self-check disabled, bad domain spec: {e}");
        }
    }
    rec.instant_at(
        rec.now_ns(),
        lane,
        "task",
        "startup",
        vec![("worker", (worker_id as u64).into()), ("run", trace_run.into())],
    );

    // Drain whatever the ring holds into a batch and ship it; returns
    // the events the ring dropped since the last drain. Failure is
    // counted, never fatal — tracing must not perturb the task flow.
    let ship = |member: u64, epoch: u32, final_flush: bool| -> u64 {
        let trace = ring.drain();
        let dropped_now = trace.dropped;
        if trace.events.is_empty() && dropped_now == 0 {
            return 0;
        }
        let batch = SpanBatch::from_trace(trace_run, worker_id, member, epoch, final_flush, &trace);
        match transport.ship_trace(&batch.encode()) {
            Ok(()) => m_batches.inc(),
            Err(e) => {
                m_ship_failed.inc();
                eprintln!("esse_worker[{worker_id}]: trace batch not shipped: {e}");
            }
        }
        dropped_now
    };

    let mut tasks_started = 0usize;
    let mut tasks_published = 0usize;
    let mut idle_since: Option<Instant> = None;
    let mut stalled_once = cfg.stall_task;
    let mut last_net_err: Option<String> = None;
    loop {
        if !transport.coordinator_alive() {
            // The coordinator stayed gone past the parking grace (or a
            // successor ran a different config); holding claims would
            // only delay a future coordinator until the leases expire.
            eprintln!(
                "esse_worker[{}]: orphaned past coordinator grace, exiting ({})",
                cfg.worker_id,
                last_net_err.as_deref().unwrap_or("no transport error recorded"),
            );
            break;
        }
        let t_claim = rec.now_ns();
        let spec = match transport.claim_next() {
            Ok(ClaimOutcome::Task(spec)) => spec,
            Ok(ClaimOutcome::Cancelled) | Ok(ClaimOutcome::Shutdown) => break,
            Ok(ClaimOutcome::Idle) => {
                let since = *idle_since.get_or_insert_with(Instant::now);
                if cfg.idle_exit.is_some_and(|d| since.elapsed() >= d) {
                    break;
                }
                std::thread::sleep(cfg.poll);
                continue;
            }
            Err(e) if !transport.coordinator_alive() => {
                // Keep the terminal transport error for the orphan-exit
                // line — the loop top breaks on the next iteration.
                last_net_err = Some(e.to_string());
                continue;
            }
            Err(e) => {
                eprintln!("esse_worker[{}]: claim failed: {e}", cfg.worker_id);
                std::thread::sleep(cfg.poll);
                continue;
            }
        };
        idle_since = None;
        tasks_started += 1;
        m_claimed.inc();
        // The task span carries the full trace context (parent span id
        // assigned by the coordinator at enqueue); the claim phase span
        // brackets the claim exchange itself, which is what the
        // coordinator's skew estimator aligns against.
        rec.begin_at(
            t_claim,
            lane,
            "task",
            "task",
            vec![
                ("member", spec.member.into()),
                ("epoch", (spec.epoch as u64).into()),
                ("parent", spec.parent_span.into()),
                ("run", trace_run.into()),
                ("worker", (worker_id as u64).into()),
            ],
        );
        rec.begin_at(t_claim, lane, "phase", "claim", vec![("member", spec.member.into())]);
        rec.end_at(rec.now_ns(), lane, "phase", "claim");
        if cfg.plan.worker_dies(cfg.worker_id as usize, tasks_started) {
            // Scripted worker death (FaultPlan): die holding the claim,
            // no cleanup, no batch — the lease watchdog must reclaim the
            // claim and the merge must tolerate the absent spans.
            eprintln!(
                "esse_worker[{}]: injected death on task {tasks_started} (member {})",
                cfg.worker_id, spec.member
            );
            std::process::abort();
        }
        let stalled = stalled_once == Some(spec.member);
        if run_task(&cfg, transport.as_ref(), spec, stalled, rec, lane, &m_rejected) {
            tasks_published += 1;
            m_published.inc();
        }
        rec.end_at(rec.now_ns(), lane, "task", "task");
        if tracing {
            dropped_total += ship(spec.member, spec.epoch, false);
            g_dropped.set(dropped_total as f64);
        }
        if stalled {
            stalled_once = None; // the injection fires once
        }
    }

    // Orderly exit (tombstone shutdown, cancel, idle timeout or orphan):
    // flush any tail spans, then dump the metrics snapshot.
    rec.instant_at(
        rec.now_ns(),
        lane,
        "task",
        "shutdown",
        vec![("worker", (worker_id as u64).into())],
    );
    if tracing {
        dropped_total += ship(0, 0, true);
        g_dropped.set(dropped_total as f64);
    }
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(&path, metrics.snapshot().to_prometheus()) {
            eprintln!("esse_worker[{worker_id}]: cannot write metrics: {e}");
        }
    }
    println!(
        "esse_worker[{}]: exiting after {tasks_published}/{tasks_started} task(s) published",
        cfg.worker_id
    );
}
