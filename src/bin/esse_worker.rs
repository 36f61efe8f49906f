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
//!   over the wire. The worker stages `mean.vec`, `prior.sub` and
//!   `fc_central.vec` into a private scratch workdir from the `Welcome`
//!   handshake, so it needs no filesystem in common with the coordinator.
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
//! protocol) and exit on `SHUTDOWN`, or when the coordinator is gone
//! past the bounded `--coordinator-grace-ms` window. Coordinator death is *not*
//! immediately terminal: within the grace the worker **parks** — it
//! finishes and publishes the task it holds, keeps heartbeating, and
//! polls for a restarted coordinator (a successor PID in `master.lock`
//! for local workers; a rewritten `pool/endpoint` + re-handshake for
//! remote ones, see `--endpoint-file`). Adoption re-verifies the run's
//! config hash; only grace expiry makes the worker an orphan that
//! self-exits rather than hold claims a successor would wait out.
//!
//! Fault injection for the chaos harness: `--stall-task M --stall-ms D`
//! suppresses the heartbeat for member `M` and sleeps `D` ms before
//! running it — long enough for the lease to expire, so the eventual
//! publish exercises the fencing path. A worker that renews its lease
//! after its member was requeued is answered `Fenced` by either
//! transport and stops the member at once.
//!
//! **Semantic self-check.** Before publishing a finished forecast the
//! worker runs the same [`ForecastValidator`] the coordinator applies
//! at ingest ([`cli::scenario_gate`]), built from the staged `mean.vec`,
//! `prior.sub` and `fc_central.vec`. A member that fails the check never
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
//! local ring ([`cli::TRACE_CAPACITY`] events, drop-oldest with a counter) and
//! ships each task's finished spans back to the coordinator as a
//! CRC-framed [`SpanBatch`] — a sidecar file next to the result on the
//! disk transport, a `TRACE` message over TCP. Shipping is best-effort
//! and idempotent; tracing is never load-bearing for the task flow. An
//! `esse_worker_*` metrics registry rides along and is dumped to
//! `--metrics-out` on any orderly exit, including tombstone shutdown.
//!
//! ```text
//! esse_worker (--workdir DIR | --connect HOST:PORT [--scratch DIR])
//!             [--worker-id N] [--poll-ms MS] [--parent-pid PID]
//!             [--wait-pool-ms MS] [--coordinator-grace-ms MS]
//!             [--endpoint-file PATH] [--fault-seed S]
//!             [--stall-task M] [--stall-ms MS]
//!             [--corrupt-members RATE] [--metrics-out PATH]
//! ```

use esse::cli::{self, files};
use esse::core::validate::{ForecastValidator, Verdict};
use esse::fileio;
use esse::mtc::lock::process_alive;
use esse::mtc::pool::{ResultRecord, TaskPool, TaskSpec, CODE_REJECTED};
use esse::mtc::transport::{ClaimOutcome, DiskTransport, PoolTransport};
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
                     [--worker-id N] [--poll-ms MS] [--parent-pid PID] \
                     [--coordinator-grace-ms MS] \
                     [--endpoint-file PATH] [--stall-task M] [--stall-ms MS] \
                     [--corrupt-members RATE] [--fault-seed S] [--wait-pool-ms MS] \
                     [--metrics-out PATH]";

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
            // Workdir torn down or coordinator unreachable: nothing
            // left to renew.
            Err(_) => self.due = None,
        }
        true
    }
}

/// Wait for a child while renewing the lease and watching for
/// cancellation and fencing; on either the child is killed mid-run and
/// `None` is returned. A child that cannot be polled is killed too, and
/// the attempt fails like a failed spawn.
fn wait_or_cancel(
    child: &mut Child,
    transport: &dyn PoolTransport,
    lease: &mut Lease,
) -> std::io::Result<Option<i32>> {
    let mut last_poll = Instant::now();
    // Tombstone polls go over the transport (a network round trip for
    // remote workers), so they run on a coarser cadence than the local
    // child wait.
    let poll_every = Duration::from_millis(50);
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(Some(status.code().unwrap_or(-1))),
            Ok(None) => {}
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
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
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

struct WorkerConfig {
    workdir: PathBuf,
    worker_id: u32,
    poll: Duration,
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
            std::fs::read(cfg.workdir.join(files::fc(spec.member))).ok()
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
    // pert → pemodel, the §4.2 singleton chain, via the shared
    // bounded-retry spawner (a transient fork failure degrades into a
    // retryable failure result instead of killing the worker). Each
    // singleton runs under its own phase span (spawn + wait).
    let mut run_child = |name: &'static str, cmd: &mut Command| {
        rec.begin_at(rec.now_ns(), lane, "phase", name, vec![("member", spec.member.into())]);
        let exit = match cli::spawn_with_retry(cmd, name, Some(member), 3) {
            Ok(mut child) => {
                wait_or_cancel(&mut child, transport, &mut lease).map_err(esse::EsseError::Io)
            }
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
    let exit = match run_child("pert", &mut pert) {
        Ok(Some(0)) => run_child("pemodel", &mut pemodel),
        other => other,
    };
    let fc_path = cfg.workdir.join(files::fc(spec.member));
    // Chaos injection: rewrite the forecast in place, deterministically
    // for (seed, member, epoch). A NaN plant lands before the self-check;
    // blowup and block shift land after it, so the published CRC matches
    // the corrupted bytes and only the coordinator's re-validation can
    // catch them.
    let corruption = cfg.plan.corruption_for(member, spec.epoch);
    let inject = |kind: &esse::mtc::CorruptionKind| {
        let res = fileio::read_vector(&fc_path).and_then(|mut xf| {
            kind.apply(cfg.plan.seed, spec.member, cfg.corrupt_block.max(1), &mut xf);
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
    let invalid = |e: std::io::Error| {
        eprintln!("esse_worker[{}]: member {member} forecast invalid: {e}", cfg.worker_id);
        publish(CODE_CORRUPT_FORECAST, 0, 0)
    };
    let published = match exit {
        Ok(Some(0)) => {
            if let Some(kind) = corruption.filter(|k| !k.bypasses_self_check()) {
                inject(&kind);
            }
            // The forecast file is durable (pemodel publishes atomically).
            // Self-check it semantically before any bytes move: a failing
            // member publishes a typed REJECTED result with the
            // validator's reason code instead of uploading garbage.
            let checked = fileio::read_vector_with_crc(&fc_path).map(|(xf, crc)| {
                (cfg.validator.as_ref().map_or(Verdict::Pass, |v| v.validate(&xf)), crc)
            });
            match checked {
                // A post-self-check injection rewrites the file: publish
                // the CRC of the corrupted bytes.
                Ok((Verdict::Pass, crc)) => match corruption.filter(|k| k.bypasses_self_check()) {
                    Some(kind) => {
                        inject(&kind);
                        fileio::read_vector_with_crc(&fc_path).map(|(_, crc)| crc)
                    }
                    None => Ok(crc),
                }
                .map_or_else(invalid, |crc| publish(0, crc, 0)),
                Ok((Verdict::Quarantine(reason), _)) => {
                    eprintln!(
                        "esse_worker[{}]: member {member} failed self-check ({}), publishing REJECTED",
                        cfg.worker_id,
                        reason.describe()
                    );
                    let args = vec![
                        ("member", spec.member.into()),
                        ("reason", (reason.code() as u64).into()),
                    ];
                    rec.instant_at(rec.now_ns(), lane, "fault", "self_reject", args);
                    rejected.inc();
                    publish(CODE_REJECTED, 0, reason.code())
                }
                Err(e) => invalid(e),
            }
        }
        Ok(Some(code)) => publish(code, 0, 0),
        Ok(None) => false, // cancelled or fenced mid-run
        Err(e) => {
            eprintln!("esse_worker[{}]: {e}", cfg.worker_id);
            publish(CODE_SPAWN_FAILED, 0, 0)
        }
    };

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
    let grace = Duration::from_millis(cli::get_or(args, "coordinator-grace-ms", 5_000u64));
    let connect = args.get("connect");
    let open = || -> std::io::Result<Box<dyn PoolTransport>> {
        let Some(addr) = connect else {
            let (pool, manifest) = TaskPool::open(&cfg.workdir)?;
            let disk = DiskTransport::new(pool, manifest, parent_pid);
            return Ok(Box::new(disk.with_coordinator_grace(grace)));
        };
        let mut tcp = TcpConfig::new(addr.clone(), cfg.worker_id as u64);
        tcp.reconnect_grace = grace;
        tcp.endpoint_file = args.get("endpoint-file").map(PathBuf::from);
        Ok(Box::new(TcpTransport::connect(tcp)?))
    };
    let place = connect.map_or_else(
        || format!("task pool under {}", cfg.workdir.display()),
        |addr| format!("coordinator at {addr}"),
    );
    loop {
        match open() {
            Ok(t) => return Ok(t),
            Err(e)
                if e.kind() == std::io::ErrorKind::ConnectionRefused
                    && e.to_string().contains("rejected") =>
            {
                return Err(format!("{place}: {e}"));
            }
            Err(_) if t0.elapsed() < wait_pool => {
                if !parent_pid.is_none_or(process_alive) {
                    std::process::exit(0);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(format!("no {place}: {e}")),
        }
    }
}

fn main() {
    let args = cli::args(USAGE);
    let worker_id: u32 = cli::get_or(&args, "worker-id", 0);
    let connect = args.get("connect");
    let workdir = if connect.is_some() {
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
        plan: {
            let mut plan = FaultPlan::seeded(cli::get_or(&args, "fault-seed", 0u64));
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
    let ring = RingRecorder::with_capacity(cli::TRACE_CAPACITY);
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

    if let Some(addr) = connect {
        rec.begin_at(rec.now_ns(), lane, "phase", "stage", vec![]);
        let staged = std::fs::create_dir_all(&cfg.workdir)
            .and_then(|()| transport.stage_inputs(&cfg.workdir));
        rec.end_at(rec.now_ns(), lane, "phase", "stage");
        if let Err(e) = staged {
            eprintln!("esse_worker[{worker_id}]: staging inputs failed: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "esse_worker[{worker_id}]: joined tcp:{addr} with scratch {}",
            cfg.workdir.display()
        );
    }

    // --- Semantic self-check: build the same validator the coordinator
    // runs at ingest, from the scenario inputs both transports provide
    // (the shared workdir, or the `Welcome` staging). A missing mean or
    // prior degrades to "no self-check" rather than a dead worker; the
    // coordinator's gate still stands. ---
    let read = |name| cfg.workdir.join(name);
    let inputs = cli::build_model(&transport.manifest().domain)
        .map_err(|e| format!("bad domain spec: {e}"))
        .and_then(|(model, _)| {
            let unreadable = |e: std::io::Error| format!("scenario inputs unreadable: {e}");
            let mean = fileio::read_vector(read(files::MEAN)).map_err(unreadable)?;
            Ok((model, mean, fileio::read_subspace(read(files::PRIOR)).map_err(unreadable)?))
        });
    match inputs {
        Ok((model, mean, prior)) => {
            let central = fileio::read_vector(read(files::CENTRAL)).ok();
            cfg.validator =
                Some(cli::scenario_gate(&model.grid, &mean, central.as_deref(), &prior));
            cfg.corrupt_block = model.grid.cells3();
        }
        Err(why) => eprintln!("esse_worker[{worker_id}]: self-check disabled, {why}"),
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

    // Orderly exit (tombstone shutdown, cancel or orphan):
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
