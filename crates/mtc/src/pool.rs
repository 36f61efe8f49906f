//! Decoupled on-disk task pool with lease-based ownership and fencing.
//!
//! The paper's MTC workflow (Fig. 4, §4) is a *pull* model: tasks live
//! on a shared filesystem and heterogeneous workers (SGE, Condor,
//! Teragrid, EC2) claim them independently — the master never pushes
//! work at a worker, so workers can appear, disappear, or die at any
//! moment without the master's involvement. This module is that layer
//! for the process-level workflow:
//!
//! * **Tasks are claim files.** The coordinator seeds one CRC-framed
//!   task record per member under `pool/pending/`; a worker acquires a
//!   task by atomically renaming it into `pool/claimed/` — exactly one
//!   renamer wins, with no lock server.
//! * **Claims carry expiring leases.** A claiming worker renews a
//!   heartbeat file next to its claim; the coordinator's [`LeaseWatch`]
//!   tracks heartbeat progress on its *own* clock (no cross-host clock
//!   comparison) and declares the lease expired when the heartbeat
//!   stops advancing for the lease duration.
//! * **Every claim has a fencing epoch.** Requeuing an expired claim
//!   writes a fresh task file with the epoch incremented; results carry
//!   the epoch of the claim that produced them, and the coordinator
//!   accepts a result only if its epoch is the member's *current*
//!   epoch. A zombie worker resuming after its lease expired can still
//!   publish — but its stale-epoch result is fenced off and moved to
//!   `pool/results/stale/`, never ingested.
//! * **Cancellation is a tombstone.** On convergence the coordinator
//!   writes `pool/CANCEL`; workers observe it between *and during*
//!   tasks (they poll it while the forecast child runs and kill the
//!   child mid-run — the paper's task-cancellation protocol).
//!   `pool/SHUTDOWN` tells idle workers the run is over.
//!
//! Every record is one sealed envelope ([`esse_core::durable::codec`]:
//! magic, [`POOL_VERSION`], fields, CRC-32) and every publish goes
//! through [`esse_core::durable::atomic_write`], so a torn record is
//! detected and skipped, never trusted. Each record type has exactly one
//! field encoding ([`Record::put`]/[`Record::get`]); the sealed disk
//! record and the `esse-net` wire message both call it, so a record that
//! crosses a socket and one that crosses a rename cannot drift apart.

use esse_core::durable::atomic_write;
use esse_core::durable::codec::{magic, seal, unseal, CodecError, Reader, Writer};
use esse_obs::fleet::SpanBatch;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Pool subdirectory of a working directory.
pub const POOL_DIR: &str = "pool";
/// Pending (claimable) task records.
pub const PENDING_DIR: &str = "pending";
/// Claimed task records + heartbeat files.
pub const CLAIMED_DIR: &str = "claimed";
/// Published result records.
pub const RESULTS_DIR: &str = "results";
/// Fencing-rejected (stale-epoch) results, kept for post-mortem.
pub const STALE_DIR: &str = "stale";
/// Cancellation tombstone: converged, abandon outstanding tasks.
pub const CANCEL_TOMBSTONE: &str = "CANCEL";
/// Shutdown tombstone: the run is complete, workers should exit.
pub const SHUTDOWN_TOMBSTONE: &str = "SHUTDOWN";

/// Version byte of every pool record (2: one fixed length per record).
pub const POOL_VERSION: u8 = 2;

fn bad(what: &str, why: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt pool {what}: {why}"))
}

/// A pool record: one field encoding, used sealed on disk
/// ([`Record::encode`]/[`Record::decode`]) and bare inside wire
/// messages (`esse_net::msg`).
pub trait Record: Sized {
    /// Envelope magic of the on-disk record.
    const MAGIC: [u8; 4];
    /// Name used in error messages.
    const WHAT: &'static str;

    /// Write the fields, in order.
    fn put(&self, w: &mut Writer);

    /// Read the fields back.
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// The sealed on-disk record.
    fn encode(&self) -> Vec<u8> {
        seal(Self::MAGIC, POOL_VERSION, |w| self.put(w))
    }

    /// Validate and decode a sealed on-disk record.
    fn decode(raw: &[u8]) -> io::Result<Self> {
        unseal(Self::MAGIC, POOL_VERSION, raw, Self::get).map_err(|e| bad(Self::WHAT, e))
    }
}

/// Run-wide parameters every worker needs to execute a task, written
/// once by the coordinator when the pool is created. Workers carry no
/// configuration of their own — the pool *is* the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolManifest {
    /// Domain spec string (`monterey:NX,NY,NZ`).
    pub domain: String,
    /// Forecast horizon in hours.
    pub hours: f64,
    /// White-noise floor of the perturbation generator.
    pub white_noise: f64,
    /// Base seed of the perturbation stream.
    pub base_seed: u64,
    /// Lease duration in milliseconds: a claim whose heartbeat has not
    /// advanced for this long is reclaimable.
    pub lease_ms: u64,
    /// Fingerprint of the run configuration (journal `config_hash`);
    /// workers refuse a pool whose hash differs from their claim's.
    pub config_hash: u64,
    /// Trace-context run id. Nonzero when the coordinator runs with
    /// tracing enabled: workers record spans and ship batches tagged
    /// with this id. Zero disables worker-side tracing entirely.
    pub trace_run_id: u64,
}

impl Record for PoolManifest {
    const MAGIC: [u8; 4] = magic::MANIFEST;
    const WHAT: &'static str = "manifest";

    fn put(&self, w: &mut Writer) {
        w.blob(self.domain.as_bytes());
        w.f64(self.hours);
        w.f64(self.white_noise);
        w.u64(self.base_seed);
        w.u64(self.lease_ms);
        w.u64(self.config_hash);
        w.u64(self.trace_run_id);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PoolManifest {
            domain: r.string()?,
            hours: r.f64()?,
            white_noise: r.f64()?,
            base_seed: r.u64()?,
            lease_ms: r.u64()?,
            config_hash: r.u64()?,
            trace_run_id: r.u64()?,
        })
    }
}

/// One claimable unit of work: perturb member `member` and run its
/// forecast with `seed`. The `epoch` is the fencing token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpec {
    /// Ensemble member index.
    pub member: u64,
    /// Fencing epoch of this incarnation of the task (1-based; each
    /// requeue increments it).
    pub epoch: u32,
    /// Forecast seed for the member (computed by the coordinator so
    /// workers need no access to the perturbation generator).
    pub seed: u64,
    /// Coordinator-assigned parent span id for distributed tracing
    /// (`esse_obs::fleet::span_id(run_id, member, epoch)`); 0 when the
    /// run is untraced.
    pub parent_span: u64,
}

impl TaskSpec {
    /// Canonical file name of this task incarnation.
    pub fn file_name(&self) -> String {
        format!("t{:06}.e{:05}", self.member, self.epoch)
    }
}

impl Record for TaskSpec {
    const MAGIC: [u8; 4] = magic::TASK;
    const WHAT: &'static str = "task record";

    fn put(&self, w: &mut Writer) {
        w.u64(self.member);
        w.u32(self.epoch);
        w.u64(self.seed);
        w.u64(self.parent_span);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TaskSpec { member: r.u64()?, epoch: r.u32()?, seed: r.u64()?, parent_span: r.u64()? })
    }
}

/// Result code of a worker self-check rejection: the forecast failed
/// the semantic validator *before* publish, so the worker sent a typed
/// `REJECTED` record (no payload upload) with the validator's reason.
pub const CODE_REJECTED: i32 = 122;

/// `MemberFailed` code: the member's lease expired more often than the
/// requeue budget allows.
pub const CODE_LEASE_BUDGET: i32 = -9;
/// `MemberFailed` code: the member kept failing semantic validation
/// until its budget ran out (replacements could not heal it).
pub const CODE_QUARANTINE_BUDGET: i32 = -10;
/// Result code of an in-process crew attempt, which ends in an error
/// value rather than an exit code; a member lost to it journals it.
pub const CODE_ATTEMPTS_EXHAUSTED: i32 = -11;
/// `MemberFailed` code of the in-process engine: the member was waiting
/// out a backoff when the last worker thread died.
pub const CODE_POOL_DIED: i32 = -12;

/// A published task result: the commit record a worker writes after its
/// forecast file is durable. `code == 0` means success and `fc_crc` is
/// the CRC-32 trailer of the forecast file the worker validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultRecord {
    /// Ensemble member index.
    pub member: u64,
    /// Fencing epoch of the claim that produced this result.
    pub epoch: u32,
    /// 0 = success; otherwise the failing singleton's exit code, or
    /// [`CODE_REJECTED`] for a worker self-check rejection.
    pub code: i32,
    /// PID of the publishing worker (post-mortem info only).
    pub pid: u32,
    /// CRC-32 trailer of the published forecast file (0 on failure).
    pub fc_crc: u32,
    /// Validator [`esse_core::validate::Reason`] code accompanying a
    /// [`CODE_REJECTED`] result (0 otherwise).
    pub reason: u32,
}

impl ResultRecord {
    /// Canonical file name of this result.
    pub fn file_name(&self) -> String {
        format!("r{:06}.e{:05}", self.member, self.epoch)
    }
}

impl Record for ResultRecord {
    const MAGIC: [u8; 4] = magic::RESULT;
    const WHAT: &'static str = "result record";

    fn put(&self, w: &mut Writer) {
        w.u64(self.member);
        w.u32(self.epoch);
        w.i32(self.code);
        w.u32(self.pid);
        w.u32(self.fc_crc);
        w.u32(self.reason);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ResultRecord {
            member: r.u64()?,
            epoch: r.u32()?,
            code: r.i32()?,
            pid: r.u32()?,
            fc_crc: r.u32()?,
            reason: r.u32()?,
        })
    }
}

/// A heartbeat file's contents: who holds the lease and a monotonically
/// increasing renewal counter. The coordinator never compares the
/// *time* in a heartbeat (clock skew on a shared filesystem); it only
/// watches the counter advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// PID of the leaseholder.
    pub pid: u32,
    /// Renewal counter (strictly increasing while the worker is alive).
    pub counter: u64,
}

impl Record for Heartbeat {
    const MAGIC: [u8; 4] = magic::HEARTBEAT;
    const WHAT: &'static str = "heartbeat";

    fn put(&self, w: &mut Writer) {
        w.u32(self.pid);
        w.u64(self.counter);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Heartbeat { pid: r.u32()?, counter: r.u64()? })
    }
}

/// One claimed task as the coordinator's scan sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimScan {
    /// The claimed task.
    pub spec: TaskSpec,
    /// The latest heartbeat, if the worker has written one yet.
    pub heartbeat: Option<Heartbeat>,
}

/// A snapshot of the pool directories.
#[derive(Debug, Clone, Default)]
pub struct PoolScan {
    /// Claimable task records, ascending by (member, epoch).
    pub pending: Vec<TaskSpec>,
    /// Claimed tasks with their heartbeats.
    pub claims: Vec<ClaimScan>,
    /// Published results (excluding fenced-off stale ones).
    pub results: Vec<ResultRecord>,
}

/// The on-disk task pool. Both sides (coordinator and workers) open the
/// same working directory; all coordination flows through renames and
/// durable atomic writes inside `workdir/pool/`.
#[derive(Debug, Clone)]
pub struct TaskPool {
    root: PathBuf,
}

impl TaskPool {
    fn pending_dir(&self) -> PathBuf {
        self.root.join(PENDING_DIR)
    }
    fn claimed_dir(&self) -> PathBuf {
        self.root.join(CLAIMED_DIR)
    }
    fn results_dir(&self) -> PathBuf {
        self.root.join(RESULTS_DIR)
    }
    fn stale_dir(&self) -> PathBuf {
        self.results_dir().join(STALE_DIR)
    }

    /// The pool root (`workdir/pool`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The run directory the pool lives in.
    pub fn workdir(&self) -> &Path {
        self.root.parent().unwrap_or(&self.root)
    }

    /// Create (or re-create idempotently) the pool under `workdir` and
    /// publish the manifest.
    pub fn create(workdir: impl AsRef<Path>, manifest: &PoolManifest) -> io::Result<TaskPool> {
        let pool = TaskPool::prepare(workdir)?;
        pool.write_manifest(manifest)?;
        Ok(pool)
    }

    /// The pool's directories under `workdir`, created idempotently, with
    /// no manifest yet: workers wait for [`write_manifest`](Self::write_manifest).
    pub fn prepare(workdir: impl AsRef<Path>) -> io::Result<TaskPool> {
        let pool = TaskPool { root: workdir.as_ref().join(POOL_DIR) };
        fs::create_dir_all(pool.pending_dir())?;
        fs::create_dir_all(pool.claimed_dir())?;
        fs::create_dir_all(pool.stale_dir())?;
        Ok(pool)
    }

    /// Publish the manifest: workers may open the pool from now on.
    pub fn write_manifest(&self, manifest: &PoolManifest) -> io::Result<()> {
        atomic_write(self.root.join("manifest"), &manifest.encode())
    }

    /// Open an existing pool and read its manifest.
    pub fn open(workdir: impl AsRef<Path>) -> io::Result<(TaskPool, PoolManifest)> {
        let pool = TaskPool { root: workdir.as_ref().join(POOL_DIR) };
        let raw = fs::read(pool.root.join("manifest"))?;
        let manifest = PoolManifest::decode(&raw)?;
        Ok((pool, manifest))
    }

    // --- Coordinator side -------------------------------------------------

    /// Seed (or requeue) a task: durably publish its record under
    /// `pending/`. Idempotent for the same spec.
    pub fn seed(&self, spec: &TaskSpec) -> io::Result<()> {
        atomic_write(self.pending_dir().join(spec.file_name()), &spec.encode())
    }

    /// Remove a claim and its heartbeat (after requeueing it at a
    /// higher epoch, or after its result was ingested). Missing files
    /// are fine — the worker may have cleaned up after itself.
    pub fn remove_claim(&self, spec: &TaskSpec) -> io::Result<()> {
        let name = spec.file_name();
        for p in [self.claimed_dir().join(&name), self.claimed_dir().join(format!("{name}.hb"))] {
            match fs::remove_file(&p) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Remove a consumed result record (after its journal commit, or
    /// after deciding the member). Missing is fine — idempotent.
    pub fn consume_result(&self, rec: &ResultRecord) -> io::Result<()> {
        match fs::remove_file(self.results_dir().join(rec.file_name())) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Remove the CANCEL/SHUTDOWN tombstones left by a previous
    /// incarnation, so a resumed run can hand out tasks again.
    pub fn clear_tombstones(&self) -> io::Result<()> {
        for name in [CANCEL_TOMBSTONE, SHUTDOWN_TOMBSTONE] {
            match fs::remove_file(self.root.join(name)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Write the cancellation tombstone (converged: abandon outstanding
    /// tasks, including in-flight ones).
    pub fn write_cancel(&self) -> io::Result<()> {
        atomic_write(self.root.join(CANCEL_TOMBSTONE), b"cancelled\n")
    }

    /// Write the shutdown tombstone (run complete: workers exit).
    pub fn write_shutdown(&self) -> io::Result<()> {
        atomic_write(self.root.join(SHUTDOWN_TOMBSTONE), b"shutdown\n")
    }

    /// Is the cancellation tombstone present?
    pub fn cancelled(&self) -> bool {
        self.root.join(CANCEL_TOMBSTONE).exists()
    }

    /// Is the shutdown tombstone present?
    pub fn shutdown(&self) -> bool {
        self.root.join(SHUTDOWN_TOMBSTONE).exists()
    }

    /// Scan all three pool directories. Concurrent renames are
    /// tolerated (a file that vanishes mid-scan is simply skipped), and
    /// torn or foreign records are skipped, never trusted.
    pub fn scan(&self) -> io::Result<PoolScan> {
        let named = |entry: io::Result<fs::DirEntry>, prefix: u8| -> io::Result<Option<PathBuf>> {
            let entry = entry?;
            let ok = entry.file_name().into_string().is_ok_and(|n| valid_record_name(&n, prefix));
            Ok(ok.then(|| entry.path()))
        };
        let mut scan = PoolScan::default();
        for entry in fs::read_dir(self.pending_dir())? {
            let Some(path) = named(entry, b't')? else { continue };
            if let Some(raw) = read_if_exists(&path)? {
                if let Ok(spec) = TaskSpec::decode(&raw) {
                    scan.pending.push(spec);
                }
            }
        }
        for entry in fs::read_dir(self.claimed_dir())? {
            let Some(path) = named(entry, b't')? else { continue };
            let Some(raw) = read_if_exists(&path)? else { continue };
            let Ok(spec) = TaskSpec::decode(&raw) else { continue };
            let hb_path = self.claimed_dir().join(format!("{}.hb", spec.file_name()));
            let heartbeat = match read_if_exists(&hb_path)? {
                Some(raw) => Heartbeat::decode(&raw).ok(),
                None => None,
            };
            scan.claims.push(ClaimScan { spec, heartbeat });
        }
        for entry in fs::read_dir(self.results_dir())? {
            let Some(path) = named(entry, b'r')? else { continue };
            if let Some(raw) = read_if_exists(&path)? {
                if let Ok(rec) = ResultRecord::decode(&raw) {
                    scan.results.push(rec);
                }
            }
        }
        scan.pending.sort_by_key(|t| (t.member, t.epoch));
        scan.claims.sort_by_key(|c| (c.spec.member, c.spec.epoch));
        scan.results.sort_by_key(|r| (r.member, r.epoch));
        Ok(scan)
    }

    /// The highest epoch present anywhere in the pool for each member —
    /// how a resumed coordinator recovers its authoritative epoch map.
    pub fn epochs(&self) -> io::Result<HashMap<u64, u32>> {
        let scan = self.scan()?;
        let mut epochs: HashMap<u64, u32> = HashMap::new();
        let mut bump = |member: u64, epoch: u32| {
            let e = epochs.entry(member).or_insert(0);
            *e = (*e).max(epoch);
        };
        for t in &scan.pending {
            bump(t.member, t.epoch);
        }
        for c in &scan.claims {
            bump(c.spec.member, c.spec.epoch);
        }
        for r in &scan.results {
            bump(r.member, r.epoch);
        }
        Ok(epochs)
    }

    // --- Worker side ------------------------------------------------------

    /// List claimable task file names, ascending (members in index
    /// order, so prefix checkpoints complete early).
    pub fn pending_names(&self) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = fs::read_dir(self.pending_dir())?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| valid_record_name(n, b't'))
            .collect();
        names.sort();
        Ok(names)
    }

    /// Try to claim the pending task named `name` by atomic rename.
    /// Exactly one concurrent claimer wins; everyone else gets
    /// `Ok(None)` (the file was already gone).
    pub fn try_claim(&self, name: &str) -> io::Result<Option<TaskSpec>> {
        let src = self.pending_dir().join(name);
        let dst = self.claimed_dir().join(name);
        match fs::rename(&src, &dst) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        match fs::read(&dst) {
            Ok(raw) => Ok(Some(TaskSpec::decode(&raw)?)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Is the claim of `member` at `epoch` current? Requeueing it under a
    /// higher epoch, or deciding the member, removes its claim file.
    pub fn holds_claim(&self, member: u64, epoch: u32) -> bool {
        let spec = TaskSpec { member, epoch, seed: 0, parent_span: 0 };
        self.claimed_dir().join(spec.file_name()).exists()
    }

    /// Renew the lease on `spec`: durably publish a heartbeat with the
    /// given renewal counter.
    pub fn heartbeat(&self, spec: &TaskSpec, hb: &Heartbeat) -> io::Result<()> {
        atomic_write(self.claimed_dir().join(format!("{}.hb", spec.file_name())), &hb.encode())
    }

    /// Publish a result: the record is the commit point, so the caller
    /// must make the forecast file durable *first*.
    pub fn publish_result(&self, rec: &ResultRecord) -> io::Result<()> {
        atomic_write(self.results_dir().join(rec.file_name()), &rec.encode())
    }

    /// Worker-side cleanup after publishing (or abandoning) a claim.
    pub fn release_claim(&self, spec: &TaskSpec) -> io::Result<()> {
        self.remove_claim(spec)
    }

    // --- Trace sidecars ---------------------------------------------------

    /// Durably write a span-batch sidecar into `results/`. Sidecar
    /// names (`rMMMMMM.eEEEEE.trace`, `wWWWWW.final.trace`) are longer
    /// than the strict 14-byte record names, so they are invisible to
    /// every pool scan — tracing can never perturb claims or results.
    /// The name is validated to stay inside the results directory.
    pub fn write_trace_sidecar(&self, file_name: &str, bytes: &[u8]) -> io::Result<()> {
        if !valid_sidecar_name(file_name) {
            return Err(bad("trace sidecar", "invalid sidecar file name"));
        }
        atomic_write(self.results_dir().join(file_name), bytes)
    }

    /// The sidecar path for a given result key, if the file exists
    /// (results dir first, then `stale/` — a fenced task's spans are
    /// still real timeline).
    pub fn trace_sidecar_for(&self, member: u64, epoch: u32) -> Option<PathBuf> {
        let name = format!("r{member:06}.e{epoch:05}{TRACE_SUFFIX}");
        [self.results_dir().join(&name), self.stale_dir().join(&name)]
            .into_iter()
            .find(|p| p.exists())
    }

    /// Every span-batch sidecar currently in the pool (results and
    /// stale directories), sorted by file name.
    pub fn trace_sidecars(&self) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for dir in [self.results_dir(), self.stale_dir()] {
            let entries = match fs::read_dir(&dir) {
                Ok(e) => e,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            for entry in entries.filter_map(|e| e.ok()) {
                if entry.file_name().into_string().is_ok_and(|n| valid_sidecar_name(&n)) {
                    out.push(entry.path());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// The span batches of trace run `run_id` shipped into the pool, and
    /// why each unreadable sidecar (a killed worker's torn write) was
    /// dropped whole. Batches of any other run are skipped.
    pub fn span_batches(&self, run_id: u64) -> (Vec<SpanBatch>, Vec<String>) {
        let (mut batches, mut dropped) = (Vec::new(), Vec::new());
        for p in self.trace_sidecars().unwrap_or_default() {
            match fs::read(&p).map_err(|e| e.to_string()).and_then(|b| SpanBatch::decode(&b)) {
                Ok(b) if b.run_id == run_id => batches.push(b),
                Ok(_) => {}
                Err(why) => dropped.push(format!("{}: {why}", p.display())),
            }
        }
        (batches, dropped)
    }

    // --- Garbage collection -----------------------------------------------

    /// Prune bounded pool history, keeping the newest `keep` entries of
    /// each pruned class (ordered by record name, i.e. member then
    /// epoch):
    ///
    /// - fenced records in `results/stale/` and their trace sidecars,
    /// - trace sidecars in `results/` whose result record is gone
    ///   (the result was consumed; the spans were merged at wind-down).
    ///
    /// Never touches `pending/`, `claimed/` (records under an active
    /// lease), live result records, their not-yet-consumed sidecars, or
    /// worker wind-down sidecars (`w*.final.trace`) — those have no
    /// record to mark them consumed, so they are left for the
    /// coordinator's trace merge. Intended for a run-and-exit
    /// `esse_master --gc` on a completed or parked run.
    pub fn gc(&self, keep: usize) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let names_in = |dir: &Path, pred: &dyn Fn(&str) -> bool| -> io::Result<Vec<String>> {
            let entries = match fs::read_dir(dir) {
                Ok(e) => e,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
                Err(e) => return Err(e),
            };
            let mut names: Vec<String> = entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| pred(n))
                .collect();
            names.sort();
            Ok(names)
        };
        let remove = |path: PathBuf| -> io::Result<bool> {
            match fs::remove_file(&path) {
                Ok(()) => Ok(true),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
                Err(e) => Err(e),
            }
        };

        // Fenced records beyond the retention count, plus their spans.
        let stale = names_in(&self.stale_dir(), &|n| valid_record_name(n, b'r'))?;
        for name in &stale[..stale.len().saturating_sub(keep)] {
            if remove(self.stale_dir().join(name))? {
                report.stale_results += 1;
            }
            if remove(self.stale_dir().join(format!("{name}{TRACE_SUFFIX}")))? {
                report.trace_sidecars += 1;
            }
        }
        // Stale-dir sidecars whose record is already gone (orphans from
        // an earlier, smaller-retention sweep).
        for name in names_in(&self.stale_dir(), &|n| {
            valid_sidecar_name(n) && valid_record_name(&n[..n.len() - TRACE_SUFFIX.len()], b'r')
        })? {
            let rec = &name[..name.len() - TRACE_SUFFIX.len()];
            if !self.stale_dir().join(rec).exists() && remove(self.stale_dir().join(&name))? {
                report.trace_sidecars += 1;
            }
        }

        // Consumed sidecars in results/: the record was ingested and
        // removed, so only the merged timeline still references them.
        let consumed: Vec<String> = names_in(&self.results_dir(), &|n| {
            valid_sidecar_name(n) && valid_record_name(&n[..n.len() - TRACE_SUFFIX.len()], b'r')
        })?
        .into_iter()
        .filter(|n| !self.results_dir().join(&n[..n.len() - TRACE_SUFFIX.len()]).exists())
        .collect();
        for name in &consumed[..consumed.len().saturating_sub(keep)] {
            if remove(self.results_dir().join(name))? {
                report.trace_sidecars += 1;
            }
        }
        Ok(report)
    }
}

impl crate::coordinator::PoolPort for TaskPool {
    fn seed(&self, spec: &TaskSpec) -> io::Result<()> {
        TaskPool::seed(self, spec)
    }

    fn epochs(&self) -> io::Result<HashMap<u64, u32>> {
        TaskPool::epochs(self)
    }

    /// Moves the record to `results/stale/`: never scanned again, kept
    /// for post-mortems.
    fn fence_result(&self, rec: &ResultRecord) -> io::Result<()> {
        let name = rec.file_name();
        match fs::rename(self.results_dir().join(&name), self.stale_dir().join(&name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    fn consume_result(&self, rec: &ResultRecord) -> io::Result<()> {
        TaskPool::consume_result(self, rec)
    }

    fn remove_claim(&self, spec: &TaskSpec) -> io::Result<()> {
        TaskPool::remove_claim(self, spec)
    }

    fn cancel_pending(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in fs::read_dir(self.pending_dir())? {
            match fs::remove_file(entry?.path()) {
                Ok(()) => n += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(n)
    }

    fn write_cancel(&self) -> io::Result<()> {
        TaskPool::write_cancel(self)
    }

    fn trace_sidecar(&self, member: u64, epoch: u32) -> Option<Vec<u8>> {
        self.trace_sidecar_for(member, epoch).and_then(|p| fs::read(p).ok())
    }
}

/// What [`TaskPool::gc`] pruned.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Fenced records removed from `results/stale/`.
    pub stale_results: usize,
    /// Trace sidecars removed (fenced and consumed classes combined).
    pub trace_sidecars: usize,
}

impl GcReport {
    /// Total files removed.
    pub fn total(&self) -> usize {
        self.stale_results + self.trace_sidecars
    }
}

/// Suffix of span-batch sidecar files.
pub const TRACE_SUFFIX: &str = ".trace";

/// A sidecar name is a plain file name (no separators) ending in
/// [`TRACE_SUFFIX`] — and, being longer than 14 bytes, never a valid
/// record name.
fn valid_sidecar_name(name: &str) -> bool {
    name.len() > TRACE_SUFFIX.len()
        && name.ends_with(TRACE_SUFFIX)
        && !name.contains(['/', '\\'])
        && !name.contains("..")
}

/// Strict record file-name check: `<prefix>MMMMMM.eEEEEE`. Directory
/// scans must use this so an in-flight `atomic_write` temporary (e.g.
/// `t000000.e00001.tmp`) is never claimed or decoded — a worker that
/// renamed a temp away mid-publish would make the publisher's own
/// commit rename fail.
fn valid_record_name(name: &str, prefix: u8) -> bool {
    let b = name.as_bytes();
    b.len() == 14
        && b[0] == prefix
        && b[1..7].iter().all(u8::is_ascii_digit)
        && b[7] == b'.'
        && b[8] == b'e'
        && b[9..14].iter().all(u8::is_ascii_digit)
}

fn read_if_exists(path: &Path) -> io::Result<Option<Vec<u8>>> {
    match fs::read(path) {
        Ok(raw) => Ok(Some(raw)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The coordinator's lease monitor.
///
/// Expiry is judged entirely on the coordinator's clock: a lease is
/// expired when the claim's heartbeat counter has not advanced for the
/// lease duration (a claim that never heartbeats is timed from its
/// first observation). Timestamps are opaque milliseconds supplied by
/// the caller, which keeps the logic deterministic and testable.
#[derive(Debug, Default)]
pub struct LeaseWatch {
    /// `(member, epoch)` → (last counter seen, when it last advanced).
    seen: HashMap<(u64, u32), (Option<u64>, u64)>,
}

/// What [`LeaseWatch::observe`] concluded about a claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// First time this claim (epoch) was observed: the lease starts now.
    Granted,
    /// The heartbeat counter advanced since the last observation.
    Renewed,
    /// The heartbeat has not advanced, but the lease has time left.
    Held,
    /// The heartbeat has not advanced for at least the lease duration.
    Expired,
}

impl LeaseWatch {
    /// New watch.
    pub fn new() -> LeaseWatch {
        LeaseWatch::default()
    }

    /// Feed one scan observation of a claim at local time `now_ms`;
    /// returns the lease state under `lease_ms`.
    pub fn observe(
        &mut self,
        member: u64,
        epoch: u32,
        counter: Option<u64>,
        now_ms: u64,
        lease_ms: u64,
    ) -> LeaseState {
        match self.seen.get_mut(&(member, epoch)) {
            None => {
                self.seen.insert((member, epoch), (counter, now_ms));
                LeaseState::Granted
            }
            Some((last, since)) => {
                if counter > *last {
                    *last = counter;
                    *since = now_ms;
                    LeaseState::Renewed
                } else if now_ms.saturating_sub(*since) >= lease_ms {
                    LeaseState::Expired
                } else {
                    LeaseState::Held
                }
            }
        }
    }

    /// The first instant after `now_ms` at which a watched claim that
    /// stays silent expires under `lease_ms`.
    pub fn next_expiry(&self, lease_ms: u64, now_ms: u64) -> Option<u64> {
        let expiries = self.seen.values().map(|&(_, since)| since.saturating_add(lease_ms));
        expiries.filter(|&t| t > now_ms).min()
    }

    /// Drop all state for a member (its claim was removed or its result
    /// ingested).
    pub fn forget(&mut self, member: u64) {
        self.seen.retain(|(m, _), _| *m != member);
    }

    /// Rebase the watch onto a new coordinator clock (a restart).
    ///
    /// All remembered observations are discarded: they carry `since`
    /// timestamps from the dead incarnation's clock, which the new
    /// clock (restarting at zero) can neither compare against nor
    /// saturate correctly. After a rebase every surviving claim is
    /// re-`Granted` a full fresh lease at its next observation and
    /// judged only by heartbeat progress observed *on the new clock* —
    /// a live worker mid-task is never falsely expired by pre-crash
    /// staleness, and a dead worker's frozen heartbeat still expires
    /// one lease after the new coordinator first sees it.
    pub fn rebase(&mut self) {
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::PoolPort;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("esse-pool-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn manifest() -> PoolManifest {
        PoolManifest {
            domain: "monterey:6,5,4".into(),
            hours: 2.0,
            white_noise: 0.0,
            base_seed: 0x5EED,
            lease_ms: 500,
            config_hash: 0xABCD,
            trace_run_id: 0,
        }
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let m = manifest();
        let raw = m.encode();
        assert_eq!(PoolManifest::decode(&raw).unwrap(), m);
        for cut in 0..raw.len() {
            assert!(PoolManifest::decode(&raw[..cut]).is_err(), "prefix {cut} accepted");
        }
        for byte in 0..raw.len() {
            let mut flip = raw.clone();
            flip[byte] ^= 0x20;
            assert!(PoolManifest::decode(&flip).is_err(), "flip at {byte} accepted");
        }
    }

    #[test]
    fn task_and_result_records_roundtrip() {
        let t = TaskSpec { member: 42, epoch: 3, seed: 0xDEAD_BEEF, parent_span: 0xABCD_1234_5678 };
        assert_eq!(TaskSpec::decode(&t.encode()).unwrap(), t);
        assert_eq!(t.file_name(), "t000042.e00003");
        let r = ResultRecord { member: 42, epoch: 3, code: 0, pid: 123, fc_crc: 77, reason: 0 };
        assert_eq!(ResultRecord::decode(&r.encode()).unwrap(), r);
        for byte in 0..r.encode().len() {
            let mut flip = r.encode();
            flip[byte] ^= 1;
            assert!(ResultRecord::decode(&flip).is_err(), "flip at {byte} accepted");
        }
    }

    #[test]
    fn gc_prunes_fenced_history_but_never_live_state() {
        let dir = tmpdir("gc");
        let pool = TaskPool::create(&dir, &manifest()).unwrap();
        // Live state: a pending task, a claimed task, and an unconsumed
        // result with its sidecar.
        let pend = TaskSpec { member: 0, epoch: 1, seed: 1, parent_span: 0 };
        pool.seed(&pend).unwrap();
        let claim = TaskSpec { member: 1, epoch: 1, seed: 2, parent_span: 0 };
        pool.seed(&claim).unwrap();
        pool.try_claim(&claim.file_name()).unwrap().unwrap();
        let live = ResultRecord { member: 2, epoch: 1, code: 0, pid: 1, fc_crc: 9, reason: 0 };
        pool.publish_result(&live).unwrap();
        pool.write_trace_sidecar(&format!("{}{TRACE_SUFFIX}", live.file_name()), b"x").unwrap();
        // A worker wind-down sidecar (no record to mark it consumed).
        pool.write_trace_sidecar("w00001.final.trace", b"x").unwrap();
        // History: three fenced records with sidecars, two consumed
        // sidecars (record ingested and removed).
        for m in 10..13u64 {
            let r = ResultRecord { member: m, epoch: 1, code: 0, pid: 1, fc_crc: 1, reason: 0 };
            pool.publish_result(&r).unwrap();
            pool.write_trace_sidecar(&format!("{}{TRACE_SUFFIX}", r.file_name()), b"x").unwrap();
            pool.fence_result(&r).unwrap();
            fs::rename(
                pool.results_dir().join(format!("{}{TRACE_SUFFIX}", r.file_name())),
                pool.stale_dir().join(format!("{}{TRACE_SUFFIX}", r.file_name())),
            )
            .unwrap();
        }
        for m in 20..22u64 {
            let r = ResultRecord { member: m, epoch: 1, code: 0, pid: 1, fc_crc: 1, reason: 0 };
            pool.publish_result(&r).unwrap();
            pool.write_trace_sidecar(&format!("{}{TRACE_SUFFIX}", r.file_name()), b"x").unwrap();
            pool.consume_result(&r).unwrap();
        }

        let report = pool.gc(1).unwrap();
        // Two of three fenced records pruned (with their sidecars), one
        // of two consumed sidecars pruned.
        assert_eq!(report.stale_results, 2);
        assert_eq!(report.trace_sidecars, 3);
        assert_eq!(report.total(), 5);
        // The newest of each class survives.
        assert!(pool.stale_dir().join("r000012.e00001").exists());
        assert!(pool.stale_dir().join("r000012.e00001.trace").exists());
        assert!(pool.results_dir().join("r000021.e00001.trace").exists());
        // Live state is untouched.
        let scan = pool.scan().unwrap();
        assert_eq!(scan.pending, vec![pend]);
        assert_eq!(scan.claims.len(), 1);
        assert_eq!(scan.results, vec![live]);
        assert!(pool.trace_sidecar_for(live.member, live.epoch).is_some());
        assert!(pool.results_dir().join("w00001.final.trace").exists());
        // A second sweep with the same retention is a no-op.
        assert_eq!(pool.gc(1).unwrap().total(), 0);
        // Retention 0 clears all history but still leaves live state.
        let report = pool.gc(0).unwrap();
        assert_eq!(report.stale_results, 1);
        assert_eq!(report.trace_sidecars, 2);
        assert_eq!(pool.scan().unwrap().results, vec![live]);
    }

    #[test]
    fn claim_is_exclusive() {
        let dir = tmpdir("claim");
        let pool = TaskPool::create(&dir, &manifest()).unwrap();
        let t = TaskSpec { member: 0, epoch: 1, seed: 9, parent_span: 0 };
        pool.seed(&t).unwrap();
        let name = t.file_name();
        let won = pool.try_claim(&name).unwrap();
        assert_eq!(won, Some(t));
        // The second claimer loses gracefully.
        assert_eq!(pool.try_claim(&name).unwrap(), None);
        // The claim shows up in the coordinator's scan, pending is empty.
        let scan = pool.scan().unwrap();
        assert!(scan.pending.is_empty());
        assert_eq!(scan.claims.len(), 1);
        assert_eq!(scan.claims[0].spec, t);
        assert!(scan.claims[0].heartbeat.is_none());
    }

    #[test]
    fn concurrent_claimers_exactly_one_wins() {
        let dir = tmpdir("race");
        let pool = TaskPool::create(&dir, &manifest()).unwrap();
        let t = TaskSpec { member: 7, epoch: 1, seed: 1, parent_span: 0 };
        pool.seed(&t).unwrap();
        let name = t.file_name();
        let wins: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let pool = pool.clone();
                    let name = name.clone();
                    s.spawn(move || pool.try_claim(&name).unwrap().is_some() as usize)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wins, 1, "exactly one concurrent claimer must win");
    }

    #[test]
    fn heartbeat_and_result_flow() {
        let dir = tmpdir("flow");
        let pool = TaskPool::create(&dir, &manifest()).unwrap();
        let t = TaskSpec { member: 2, epoch: 1, seed: 5, parent_span: 0 };
        pool.seed(&t).unwrap();
        pool.try_claim(&t.file_name()).unwrap().unwrap();
        pool.heartbeat(&t, &Heartbeat { pid: 1, counter: 1 }).unwrap();
        let scan = pool.scan().unwrap();
        assert_eq!(scan.claims[0].heartbeat, Some(Heartbeat { pid: 1, counter: 1 }));
        let r = ResultRecord { member: 2, epoch: 1, code: 0, pid: 1, fc_crc: 0x55, reason: 0 };
        pool.publish_result(&r).unwrap();
        pool.release_claim(&t).unwrap();
        let scan = pool.scan().unwrap();
        assert!(scan.claims.is_empty());
        assert_eq!(scan.results, vec![r]);
    }

    #[test]
    fn in_flight_temp_files_are_invisible_to_listing_and_scan() {
        let dir = tmpdir("tmpfiles");
        let pool = TaskPool::create(&dir, &manifest()).unwrap();
        let t = TaskSpec { member: 0, epoch: 1, seed: 7, parent_span: 0 };
        pool.seed(&t).unwrap();
        // A publisher's atomic_write temp sitting in each directory —
        // exactly what a concurrent seed/publish (or a crash mid-write)
        // leaves. None of them may be claimed, scanned, or decoded.
        let pool_root = dir.join(POOL_DIR);
        fs::write(pool_root.join("pending/t000001.e00001.tmp"), t.encode()).unwrap();
        fs::write(pool_root.join("claimed/t000002.e00001.tmp"), t.encode()).unwrap();
        fs::write(pool_root.join("results/r000003.e00001.tmp"), b"junk").unwrap();
        assert_eq!(pool.pending_names().unwrap(), vec![t.file_name()]);
        let scan = pool.scan().unwrap();
        assert_eq!(scan.pending, vec![t]);
        assert!(scan.claims.is_empty());
        assert!(scan.results.is_empty());
        // Epoch recovery must not see phantom members either.
        assert_eq!(pool.epochs().unwrap().len(), 1);
    }

    #[test]
    fn fencing_moves_stale_results_out_of_scan() {
        let dir = tmpdir("fence");
        let pool = TaskPool::create(&dir, &manifest()).unwrap();
        let stale = ResultRecord { member: 4, epoch: 1, code: 0, pid: 9, fc_crc: 1, reason: 0 };
        let fresh = ResultRecord { member: 4, epoch: 2, code: 0, pid: 10, fc_crc: 1, reason: 0 };
        pool.publish_result(&stale).unwrap();
        pool.publish_result(&fresh).unwrap();
        pool.fence_result(&stale).unwrap();
        let scan = pool.scan().unwrap();
        assert_eq!(scan.results, vec![fresh]);
        // The fenced record survives for post-mortem.
        let kept = dir.join(POOL_DIR).join(RESULTS_DIR).join(STALE_DIR).join(stale.file_name());
        assert!(kept.exists());
        // Fencing twice is a no-op.
        pool.fence_result(&stale).unwrap();
    }

    #[test]
    fn epochs_recover_from_all_three_directories() {
        let dir = tmpdir("epochs");
        let pool = TaskPool::create(&dir, &manifest()).unwrap();
        pool.seed(&TaskSpec { member: 0, epoch: 3, seed: 1, parent_span: 0 }).unwrap();
        let t1 = TaskSpec { member: 1, epoch: 2, seed: 1, parent_span: 0 };
        pool.seed(&t1).unwrap();
        pool.try_claim(&t1.file_name()).unwrap().unwrap();
        pool.publish_result(&ResultRecord {
            member: 2,
            epoch: 5,
            code: 0,
            pid: 0,
            fc_crc: 0,
            reason: 0,
        })
        .unwrap();
        let epochs = pool.epochs().unwrap();
        assert_eq!(epochs.get(&0), Some(&3));
        assert_eq!(epochs.get(&1), Some(&2));
        assert_eq!(epochs.get(&2), Some(&5));
    }

    #[test]
    fn tombstones() {
        let dir = tmpdir("tomb");
        let pool = TaskPool::create(&dir, &manifest()).unwrap();
        assert!(!pool.cancelled());
        assert!(!pool.shutdown());
        pool.seed(&TaskSpec { member: 0, epoch: 1, seed: 0, parent_span: 0 }).unwrap();
        pool.seed(&TaskSpec { member: 1, epoch: 1, seed: 0, parent_span: 0 }).unwrap();
        pool.write_cancel().unwrap();
        assert_eq!(pool.cancel_pending().unwrap(), 2);
        assert!(pool.cancelled());
        pool.write_shutdown().unwrap();
        assert!(pool.shutdown());
        assert!(pool.scan().unwrap().pending.is_empty());
        // A resumed coordinator clears both tombstones (idempotently).
        pool.clear_tombstones().unwrap();
        pool.clear_tombstones().unwrap();
        assert!(!pool.cancelled());
        assert!(!pool.shutdown());
    }

    #[test]
    fn consume_result_is_idempotent() {
        let dir = tmpdir("consume");
        let pool = TaskPool::create(&dir, &manifest()).unwrap();
        let r = ResultRecord { member: 3, epoch: 1, code: 0, pid: 1, fc_crc: 9, reason: 0 };
        pool.publish_result(&r).unwrap();
        pool.consume_result(&r).unwrap();
        pool.consume_result(&r).unwrap();
        assert!(pool.scan().unwrap().results.is_empty());
    }

    #[test]
    fn torn_records_are_skipped_not_trusted() {
        let dir = tmpdir("torn");
        let pool = TaskPool::create(&dir, &manifest()).unwrap();
        let good = TaskSpec { member: 1, epoch: 1, seed: 1, parent_span: 0 };
        pool.seed(&good).unwrap();
        // A torn task record appears in pending/ (no atomic_write).
        let torn = TaskSpec { member: 2, epoch: 1, seed: 1, parent_span: 0 }.encode();
        fs::write(
            dir.join(POOL_DIR).join(PENDING_DIR).join("t000002.e00001"),
            &torn[..torn.len() - 3],
        )
        .unwrap();
        let scan = pool.scan().unwrap();
        assert_eq!(scan.pending, vec![good], "torn record must be skipped");
    }

    #[test]
    fn lease_watch_grants_renews_and_expires() {
        let mut w = LeaseWatch::new();
        let lease = 100;
        assert_eq!(w.observe(0, 1, None, 0, lease), LeaseState::Granted);
        assert_eq!(w.observe(0, 1, None, 50, lease), LeaseState::Held);
        // First heartbeat counts as a renewal (None -> Some advances).
        assert_eq!(w.observe(0, 1, Some(1), 90, lease), LeaseState::Renewed);
        assert_eq!(w.observe(0, 1, Some(2), 150, lease), LeaseState::Renewed);
        assert_eq!(w.observe(0, 1, Some(2), 200, lease), LeaseState::Held);
        assert_eq!(w.observe(0, 1, Some(2), 250, lease), LeaseState::Expired);
        // A requeue at a new epoch starts a fresh lease.
        assert_eq!(w.observe(0, 2, None, 260, lease), LeaseState::Granted);
        // Forgetting the member clears every epoch.
        w.forget(0);
        assert_eq!(w.observe(0, 2, Some(7), 300, lease), LeaseState::Granted);
    }

    #[test]
    fn lease_watch_never_expires_an_advancing_heartbeat() {
        let mut w = LeaseWatch::new();
        let lease = 40;
        assert_eq!(w.observe(3, 1, Some(0), 0, lease), LeaseState::Granted);
        for i in 1..100u64 {
            let state = w.observe(3, 1, Some(i), i * 39, lease);
            assert_eq!(state, LeaseState::Renewed, "tick {i}");
        }
    }
}
