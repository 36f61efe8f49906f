//! The fleet [`Resource`] `esse_master` runs
//! [`MtcEsse::run_on`](esse_mtc::workflow::MtcEsse::run_on) over: the
//! task pool under `workdir/pool/` (served over TCP too on a listener
//! the caller bound), the caller's journal, the workdir's forecast, covariance
//! and posterior files, and worker processes beside the master or
//! joining from elsewhere.

use crate::cli::{self, files};
use crate::fileio;
use esse_core::subspace::ErrorSubspace;
use esse_core::EsseError;
use esse_mtc::coordinator::{JournalPort, Level, Progress, StorePort};
use esse_mtc::pool::{PoolManifest, PoolScan, TaskPool};
use esse_mtc::workflow::Resource;
use esse_mtc::DiskTripleBuffer;
use esse_obs::event::Lane;
use esse_obs::recorder::{Recorder, RecorderExt};
use esse_obs::registry::MetricsRegistry;
use std::cell::{Cell, RefCell};
use std::fs;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-worker stdio logs and metric snapshots of the local fleet.
pub const WORKER_LOG_DIR: &str = "logs";

/// Nothing wakes the master when a worker publishes, so between steps
/// it sleeps until the coordinator's next deadline, at most this long.
const POLL: Duration = Duration::from_millis(15);

/// The store port: forecast files, their quarantine corner, the
/// covariance checkpoints and the posterior.
pub struct DiskStore {
    /// The run's working directory.
    pub workdir: PathBuf,
    /// The safe/live covariance files.
    pub cov: DiskTripleBuffer,
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

    fn publish_posterior(&self, posterior: &ErrorSubspace) -> io::Result<()> {
        fileio::write_subspace(self.workdir.join(files::POSTERIOR), posterior)
    }
}

/// Worker processes kept at strength beside the master.
pub struct LocalWorkers {
    /// One slot per worker, and the spawns so far.
    slots: RefCell<(Vec<Option<Child>>, usize)>,
}

impl LocalWorkers {
    /// `count` slots, none spawned yet (`0`: external workers only).
    pub fn new(count: usize) -> LocalWorkers {
        LocalWorkers { slots: RefCell::new(((0..count).map(|_| None).collect(), 0)) }
    }

    /// Respawn every dead slot; the respawn budget keeps a worker that
    /// keeps dying from fork-bombing the host.
    fn upkeep(&self, workdir: &Path, rec: &dyn Recorder) -> io::Result<()> {
        let (slots, spawns) = &mut *self.slots.borrow_mut();
        let budget = slots.len() * 8;
        for (slot, entry) in slots.iter_mut().enumerate() {
            let dead = match entry {
                Some(child) => child.try_wait()?.is_some(),
                None => true,
            };
            if dead && *spawns < budget {
                *entry = spawn_local_worker(workdir, slot);
                if entry.is_some() {
                    *spawns += 1;
                    let args = vec![("slot", (slot as u64).into())];
                    rec.instant_at(rec.now_ns(), Lane::Coordinator, "pool", "worker_spawned", args);
                }
            }
        }
        Ok(())
    }

    /// Give the workers ten seconds to see the shutdown tombstone.
    fn reap(&self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(10);
        for child in self.slots.borrow_mut().0.iter_mut().flatten() {
            while child.try_wait()?.is_none() {
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

/// A fleet of worker processes over the on-disk task pool.
pub struct Fleet<J> {
    /// The pool, prepared; [`Resource::serve`] publishes its manifest.
    pub pool: TaskPool,
    /// What workers read at startup: scenario, seeds, lease, run ids.
    pub manifest: PoolManifest,
    /// The run journal.
    pub journal: J,
    /// The workdir's forecast, covariance and posterior files.
    pub store: DiskStore,
    /// Workers spawned beside the master.
    pub local: LocalWorkers,
    /// Serve remote workers over TCP on this bound listener.
    pub listener: Cell<Option<TcpListener>>,
    /// Where the fleet's events go; the TCP server's connection threads
    /// hold it too.
    pub recorder: Arc<dyn Recorder + Send + Sync>,
    /// Start of the run clock.
    pub t0: Instant,
}

impl<J: JournalPort> Resource for Fleet<J> {
    type Pool = TaskPool;
    type Journal = J;
    type Store = DiskStore;

    fn ports(&self) -> (&TaskPool, &J, &DiskStore) {
        (&self.pool, &self.journal, &self.store)
    }

    fn serve(
        &self,
        central: &[f64],
        incarnation: u64,
        (metrics, progress): (&MetricsRegistry, Progress<'_>),
        drive: impl FnOnce() -> esse_mtc::coordinator::Result,
    ) -> Result<(), EsseError> {
        // Workers build their self-check from the central forecast once,
        // at startup: it is durable before the manifest that starts them.
        fileio::write_vector(self.store.workdir.join(files::CENTRAL), central)?;
        self.pool.write_manifest(&self.manifest)?;
        // A previous incarnation may have left CANCEL/SHUTDOWN behind.
        self.pool.clear_tombstones()?;
        metrics.gauge("esse_master_incarnation").set(incarnation as f64);
        // Remote workers claim and publish through proxy threads against
        // this same pool, so one atomic rename arbitrates every claimer.
        let serve_on = |listener: TcpListener| {
            let listen = listener.local_addr()?.to_string();
            esse_net::NetServer::on(
                listener,
                esse_net::ServerConfig {
                    pool: self.pool.clone(),
                    manifest: self.manifest.clone(),
                    workdir: self.store.workdir.clone(),
                    listen,
                    generation: incarnation,
                    metrics: esse_net::NetMetrics::from_registry(metrics),
                    recorder: self.recorder.clone(),
                },
            )
        };
        let mut server = self.listener.take().map(serve_on).transpose()?;
        if let Some(server) = &server {
            let bound = server.local_addr();
            progress(Level::Info, format_args!("listening for remote workers on {bound}"));
        }
        if let Err(e) = drive() {
            // A failed run stops as a crashed coordinator does: no
            // tombstone, so every worker rides it out on its grace.
            server.iter_mut().for_each(esse_net::NetServer::stop);
            return Err(e.into());
        }
        self.pool.write_shutdown()?;
        self.local.reap()?;
        // Remote workers learn of the end from a `Shutdown` claim reply and
        // ship their last trace batch over it: serve until connections drain.
        // A resumed run may have a worker parked and disconnected; 750 ms
        // covers its reconnect poll, so it hears `Shutdown`, not a dead port.
        if let Some(server) = server.as_mut() {
            let linger = if incarnation > 1 { Duration::from_millis(750) } else { Duration::ZERO };
            server.drain(linger, Duration::from_secs(10));
            server.stop();
        }
        Ok(())
    }

    fn now(&self) -> Duration {
        self.t0.elapsed()
    }

    fn scan(&self, converged: bool) -> io::Result<(PoolScan, u64, bool)> {
        if !converged {
            self.local.upkeep(&self.store.workdir, self.recorder.as_ref())?;
        }
        // Workers come and go on their own: the fleet never runs dry.
        Ok((self.pool.scan()?, 0, true))
    }

    fn wait(&self, _version: u64, wake: Option<Duration>) {
        let left = wake.map_or(POLL, |t| t.saturating_sub(self.now()).min(POLL));
        std::thread::sleep(left);
    }
}
