//! The worker-side pool transport abstraction.
//!
//! The paper's pull model (§4, Fig. 4) is transport-agnostic: a worker
//! needs *some* way to claim a task, renew its lease, and publish a
//! result — the original implementation routed all three through a
//! shared filesystem, which is exactly the NFS bottleneck §5.2
//! measures. [`PoolTransport`] extracts that contract so the on-disk
//! pool ([`DiskTransport`], wrapping [`TaskPool`]) and the TCP protocol
//! of `esse-net` are interchangeable behind one worker loop.
//! [`DiskTransport`] is the one implementation of the pool operations:
//! a local worker calls it directly, and the `esse-net` server calls a
//! coordinator-side one on behalf of each remote worker, so the
//! coordinator-side invariants hold for both:
//!
//! * **atomic single-claimer semantics** — every claim, local or
//!   remote, is arbitrated by the same `pending/ → claimed/` rename on
//!   the coordinator's filesystem, so exactly one claimer wins;
//! * **coordinator-clock leases** — a transport only ferries heartbeat
//!   counters; expiry is judged by the coordinator's [`LeaseWatch`]
//!   watching counters advance on its own clock, never by comparing
//!   cross-host timestamps;
//! * **monotonic fencing epochs** — results carry the epoch of the
//!   claim that produced them and the coordinator's epoch check is the
//!   only authority. A renew or publish whose claim file is gone (the
//!   member was requeued under a higher epoch, or decided) is answered
//!   [`RenewAck::Fenced`]; the reply is advisory (it lets a zombie stop
//!   wasting cycles). A fenced publish stages no forecast, but the stale
//!   record itself still lands in `pool/results/` so the coordinator's
//!   fencing path — the move to `results/stale/`, the metric, the trace
//!   event — runs unchanged.
//!
//! [`LeaseWatch`]: crate::pool::LeaseWatch

use crate::lock::process_alive;
use crate::pool::{Heartbeat, PoolManifest, ResultRecord, TaskPool, TaskSpec};
use crate::rundir;
use esse_core::durable::atomic_write;
use esse_obs::fleet::SpanBatch;
use std::io;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What a claim attempt produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// A task was claimed; this worker is now the (sole) leaseholder.
    Task(TaskSpec),
    /// Nothing claimable right now; poll again later.
    Idle,
    /// The run converged — abandon outstanding work and exit.
    Cancelled,
    /// The run is complete — exit.
    Shutdown,
}

/// Reply to a lease renewal or a publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenewAck {
    /// The lease (or result) was accepted.
    Ok,
    /// Advisory: the claim is no longer current (requeued at a higher
    /// epoch, or already decided). The worker should abandon the task;
    /// the coordinator's own epoch check remains the authority.
    Fenced,
}

/// Tombstone state of the run as seen through the transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunState {
    /// The CANCEL tombstone is present (converged).
    pub cancelled: bool,
    /// The SHUTDOWN tombstone is present (run over).
    pub shutdown: bool,
}

/// A worker's connection to the task pool — on-disk or over the wire.
///
/// `esse_worker` drives it from one thread — it renews the lease from
/// the loop that waits on the task — but implementations stay `Sync`
/// so a caller may also renew from a thread of its own.
pub trait PoolTransport: Send + Sync {
    /// The run-wide manifest (the contract every worker executes under).
    fn manifest(&self) -> &PoolManifest;

    /// Claim the lowest pending task, observing tombstones first.
    fn claim_next(&self) -> io::Result<ClaimOutcome>;

    /// Renew the lease on a held claim with a strictly increasing
    /// counter.
    fn renew_lease(&self, spec: &TaskSpec, hb: &Heartbeat) -> io::Result<RenewAck>;

    /// Publish a result record; the commit point of the task. When
    /// [`PoolTransport::wants_payload`] is true and the task succeeded,
    /// `forecast` carries the raw forecast-file bytes to be staged on
    /// the coordinator's side *before* the record is published.
    fn publish(&self, rec: &ResultRecord, forecast: Option<&[u8]>) -> io::Result<RenewAck>;

    /// Release a claim after publishing (or abandoning) it.
    fn release(&self, spec: &TaskSpec) -> io::Result<()>;

    /// Ship an encoded span batch (`esse_obs::fleet::SpanBatch` bytes)
    /// to the coordinator, to be persisted as a trace sidecar next to
    /// the results. Best-effort and idempotent: the batch file name is
    /// derived from its (member, epoch) key, so re-shipping after a
    /// retry rewrites the same sidecar. The default does nothing —
    /// tracing must never be load-bearing for a transport.
    fn ship_trace(&self, _bytes: &[u8]) -> io::Result<()> {
        Ok(())
    }

    /// Current tombstone state (polled mid-task for cancellation).
    fn run_state(&self) -> io::Result<RunState>;

    /// Is the coordinator still reachable? `false` means the worker
    /// should exit rather than hold claims a successor must wait out.
    fn coordinator_alive(&self) -> bool;

    /// Stage the run inputs (mean + prior) into `workdir` so the
    /// `pert`/`pemodel` singletons can run there. The disk transport
    /// shares the coordinator's workdir and needs no staging.
    fn stage_inputs(&self, workdir: &Path) -> io::Result<()>;

    /// Whether [`PoolTransport::publish`] wants the forecast bytes
    /// attached (a remote transport must ship them; the disk transport
    /// already shares the filesystem).
    fn wants_payload(&self) -> bool;
}

/// The original shared-filesystem transport: the pool operations over
/// [`TaskPool`], plus `/proc` liveness of the spawning coordinator. The
/// `esse-net` server answers remote workers through one of these, built
/// with no coordinator to watch.
///
/// Coordinator death is not immediately terminal: with a non-zero
/// coordinator grace the transport *parks* — claims, heartbeats, and
/// publishes keep flowing through the filesystem (none of them need a
/// live coordinator) while [`DiskTransport::coordinator_alive`] polls
/// `master.lock` for a successor incarnation. A successor naming a
/// live PID is adopted after its manifest re-verifies the run's config
/// hash (the disk-side re-handshake); only when the grace expires with
/// no successor does the transport declare the coordinator dead.
#[derive(Debug)]
pub struct DiskTransport {
    pool: TaskPool,
    manifest: PoolManifest,
    watch: Mutex<CoordinatorWatch>,
}

/// Mutable parking state behind [`DiskTransport::coordinator_alive`].
#[derive(Debug)]
struct CoordinatorWatch {
    /// PID of the local coordinator to watch, if any (workers started
    /// by hand legitimately have no parent to watch).
    parent_pid: Option<u32>,
    /// When the watched coordinator was first observed gone.
    gone_since: Option<Instant>,
    /// How long to park on a gone coordinator before giving up.
    grace: Duration,
    /// Terminal: grace expired or a successor failed the re-handshake.
    dead: bool,
}

impl DiskTransport {
    /// Wrap an opened pool. The coordinator grace starts at zero
    /// (coordinator death is immediately terminal, the historical
    /// behaviour); see [`DiskTransport::with_coordinator_grace`].
    pub fn new(pool: TaskPool, manifest: PoolManifest, parent_pid: Option<u32>) -> DiskTransport {
        DiskTransport {
            pool,
            manifest,
            watch: Mutex::new(CoordinatorWatch {
                parent_pid,
                gone_since: None,
                grace: Duration::ZERO,
                dead: false,
            }),
        }
    }

    /// Park for up to `grace` when the watched coordinator dies,
    /// adopting a restarted coordinator found through `master.lock`.
    pub fn with_coordinator_grace(self, grace: Duration) -> DiskTransport {
        self.watch.lock().unwrap_or_else(PoisonError::into_inner).grace = grace;
        self
    }

    /// Persist an encoded span batch as the trace sidecar its key names
    /// and return it decoded. Corrupt bytes are refused (`InvalidData`)
    /// before anything lands next to the results.
    pub fn store_trace(&self, bytes: &[u8]) -> io::Result<SpanBatch> {
        let batch =
            SpanBatch::decode(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.pool.write_trace_sidecar(&batch.file_name(), bytes)?;
        Ok(batch)
    }

    /// A successor coordinator's PID from `master.lock`, if the file
    /// names a live process other than `old` — and its rewritten pool
    /// manifest still describes the same run (config-hash
    /// re-handshake). `Err(())` means a successor is present but runs
    /// a *different* config: terminal, never adopted.
    fn successor(&self, old: u32) -> Result<Option<u32>, ()> {
        let workdir = self.pool.workdir();
        let raw = match std::fs::read_to_string(workdir.join(crate::lock::LOCK_FILE)) {
            Ok(raw) => raw,
            Err(_) => return Ok(None),
        };
        let Ok(pid) = raw.trim().parse::<u32>() else { return Ok(None) };
        if pid == old || !process_alive(pid) {
            return Ok(None);
        }
        // Re-handshake: the successor rewrote the manifest on resume;
        // refuse to follow a coordinator running a different run.
        match TaskPool::open(workdir) {
            Ok((_, m)) if m.config_hash == self.manifest.config_hash => Ok(Some(pid)),
            Ok(_) => Err(()),
            // Manifest unreadable mid-rewrite: not adopted yet.
            Err(_) => Ok(None),
        }
    }
}

impl PoolTransport for DiskTransport {
    fn manifest(&self) -> &PoolManifest {
        &self.manifest
    }

    fn claim_next(&self) -> io::Result<ClaimOutcome> {
        if self.pool.shutdown() {
            return Ok(ClaimOutcome::Shutdown);
        }
        if self.pool.cancelled() {
            return Ok(ClaimOutcome::Cancelled);
        }
        for name in self.pool.pending_names()? {
            if let Some(spec) = self.pool.try_claim(&name)? {
                return Ok(ClaimOutcome::Task(spec));
            }
        }
        Ok(ClaimOutcome::Idle)
    }

    fn renew_lease(&self, spec: &TaskSpec, hb: &Heartbeat) -> io::Result<RenewAck> {
        if !self.pool.holds_claim(spec.member, spec.epoch) {
            return Ok(RenewAck::Fenced);
        }
        self.pool.heartbeat(spec, hb)?;
        Ok(RenewAck::Ok)
    }

    /// A local worker's forecast is already durable in the shared
    /// workdir; a shipped one is staged there *before* the record, the
    /// commit point (the coordinator checks its CRC against `fc_crc`).
    fn publish(&self, rec: &ResultRecord, forecast: Option<&[u8]>) -> io::Result<RenewAck> {
        let current = self.pool.holds_claim(rec.member, rec.epoch);
        if let Some(bytes) = forecast.filter(|b| current && !b.is_empty()) {
            atomic_write(self.pool.workdir().join(rundir::fc(rec.member)), bytes)?;
        }
        self.pool.publish_result(rec)?;
        Ok(if current { RenewAck::Ok } else { RenewAck::Fenced })
    }

    fn release(&self, spec: &TaskSpec) -> io::Result<()> {
        self.pool.release_claim(spec)
    }

    fn ship_trace(&self, bytes: &[u8]) -> io::Result<()> {
        self.store_trace(bytes).map(drop)
    }

    fn run_state(&self) -> io::Result<RunState> {
        Ok(RunState { cancelled: self.pool.cancelled(), shutdown: self.pool.shutdown() })
    }

    fn coordinator_alive(&self) -> bool {
        let mut w = self.watch.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(old) = w.parent_pid else { return true };
        if w.dead {
            return false;
        }
        if process_alive(old) {
            w.gone_since = None;
            return true;
        }
        match self.successor(old) {
            Ok(Some(pid)) => {
                eprintln!("esse_worker: adopted restarted coordinator (pid {pid})");
                w.parent_pid = Some(pid);
                w.gone_since = None;
                true
            }
            Err(()) => {
                eprintln!("esse_worker: successor coordinator runs a different config; exiting");
                w.dead = true;
                false
            }
            Ok(None) => {
                let since = *w.gone_since.get_or_insert_with(Instant::now);
                if since.elapsed() < w.grace {
                    true // parked: ride out the coordinator outage
                } else {
                    w.dead = true;
                    false
                }
            }
        }
    }

    fn stage_inputs(&self, _workdir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn wants_payload(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("esse-transport-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn manifest() -> PoolManifest {
        PoolManifest {
            domain: "monterey:6,5,4".into(),
            hours: 1.0,
            white_noise: 0.0,
            base_seed: 1,
            lease_ms: 500,
            config_hash: 0xFEED,
            trace_run_id: 0,
        }
    }

    fn open(dir: &Path) -> DiskTransport {
        let m = manifest();
        let pool = TaskPool::create(dir, &m).unwrap();
        DiskTransport::new(pool, m, None)
    }

    #[test]
    fn disk_transport_claims_lowest_pending_first() {
        let dir = tmpdir("lowest");
        let t = open(&dir);
        t.pool.seed(&TaskSpec { member: 5, epoch: 1, seed: 0, parent_span: 0 }).unwrap();
        t.pool.seed(&TaskSpec { member: 2, epoch: 1, seed: 0, parent_span: 0 }).unwrap();
        match t.claim_next().unwrap() {
            ClaimOutcome::Task(spec) => assert_eq!(spec.member, 2),
            other => panic!("expected a task, got {other:?}"),
        }
        match t.claim_next().unwrap() {
            ClaimOutcome::Task(spec) => assert_eq!(spec.member, 5),
            other => panic!("expected a task, got {other:?}"),
        }
        assert_eq!(t.claim_next().unwrap(), ClaimOutcome::Idle);
    }

    /// A PID beyond Linux's default pid_max: never alive.
    const DEAD_PID: u32 = 4_194_304_999;

    #[test]
    fn zero_grace_keeps_coordinator_death_terminal() {
        let dir = tmpdir("grace0");
        let m = manifest();
        let pool = TaskPool::create(&dir, &m).unwrap();
        let t = DiskTransport::new(pool, m, Some(DEAD_PID));
        assert!(!t.coordinator_alive());
    }

    #[test]
    fn parked_worker_rides_out_the_grace_then_expires() {
        let dir = tmpdir("park");
        let m = manifest();
        let pool = TaskPool::create(&dir, &m).unwrap();
        let t = DiskTransport::new(pool, m, Some(DEAD_PID))
            .with_coordinator_grace(Duration::from_millis(120));
        // Parked: still "alive", and the pool still works end to end.
        assert!(t.coordinator_alive());
        t.pool.seed(&TaskSpec { member: 1, epoch: 1, seed: 0, parent_span: 0 }).unwrap();
        assert!(matches!(t.claim_next().unwrap(), ClaimOutcome::Task(_)));
        std::thread::sleep(Duration::from_millis(150));
        // Grace expired with no successor: orphan self-exit, sticky.
        assert!(!t.coordinator_alive());
        assert!(!t.coordinator_alive());
    }

    #[test]
    fn parked_worker_adopts_a_restarted_coordinator() {
        let dir = tmpdir("adopt");
        let m = manifest();
        let pool = TaskPool::create(&dir, &m).unwrap();
        let t = DiskTransport::new(pool, m, Some(DEAD_PID))
            .with_coordinator_grace(Duration::from_secs(30));
        assert!(t.coordinator_alive());
        // A successor incarnation takes the workdir lock (this test
        // process stands in for the live restarted master).
        fs::write(dir.join(crate::lock::LOCK_FILE), format!("{}\n", std::process::id())).unwrap();
        assert!(t.coordinator_alive());
        // Adoption is durable: the new PID is now the watched parent,
        // so a vanished lock file no longer matters.
        fs::remove_file(dir.join(crate::lock::LOCK_FILE)).unwrap();
        assert!(t.coordinator_alive());
    }

    #[test]
    fn successor_with_a_different_config_is_never_adopted() {
        let dir = tmpdir("adopt-conf");
        let m = manifest();
        let pool = TaskPool::create(&dir, &m).unwrap();
        let t = DiskTransport::new(pool, m, Some(DEAD_PID))
            .with_coordinator_grace(Duration::from_secs(30));
        assert!(t.coordinator_alive());
        // The successor rewrote the manifest under a different run.
        let mut other = manifest();
        other.config_hash = 0xD1FF;
        TaskPool::create(&dir, &other).unwrap();
        fs::write(dir.join(crate::lock::LOCK_FILE), format!("{}\n", std::process::id())).unwrap();
        assert!(!t.coordinator_alive());
    }
}
