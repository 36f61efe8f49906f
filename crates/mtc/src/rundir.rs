//! The run directory: the name of every file a run keeps in its working
//! directory, and [`DiskStore`], the one [`StorePort`] over them.
//!
//! Paper §4 (Fig. 4) runs every member through one workdir of mean,
//! prior, forecast and covariance files. `esse_master`'s workdir and an
//! in-process [`Checkpoint`](crate::journal::Checkpoint) share this
//! layout; a checkpoint is a fleet workdir without the task pool.
//!
//! | file | written by |
//! |------|------------|
//! | [`JOURNAL`] | the coordinator's write-ahead log ([`crate::journal`]) |
//! | [`MEAN`], [`PRIOR`] | the scenario inputs `pert` perturbs from |
//! | [`CENTRAL`] | the central forecast, before the pool manifest |
//! | [`ic`]`(N)`, [`fc`]`(N)` | member N's initial condition and forecast |
//! | `cov.safe`, `cov.live.{a,b}` | the covariance checkpoints ([`DiskTripleBuffer`]) |
//! | [`POSTERIOR`] | the posterior, before `RunComplete` |
//! | [`QUARANTINE`]`/` | forecasts that failed validation, kept for post-mortems |
//!
//! The fleet adds `master.lock` ([`crate::lock`]) and `pool/`
//! ([`crate::pool`]).

use crate::coordinator::StorePort;
use crate::triple_buffer::DiskTripleBuffer;
use esse_core::durable::atomic_write;
use esse_core::format::{subspace_to_bytes, vector_from_bytes_with_crc, vector_to_bytes};
use esse_core::subspace::ErrorSubspace;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The run journal.
pub const JOURNAL: &str = "run.journal";
/// The mean (analysis/initial) state.
pub const MEAN: &str = "mean.vec";
/// The prior error subspace.
pub const PRIOR: &str = "prior.sub";
/// The central (unperturbed) forecast.
pub const CENTRAL: &str = "fc_central.vec";
/// The posterior subspace.
pub const POSTERIOR: &str = "posterior.sub";
/// The directory forecasts that failed validation are moved to.
pub const QUARANTINE: &str = "quarantine";

/// Member `member`'s initial condition.
pub fn ic(member: u64) -> String {
    format!("ic_{member}.vec")
}

/// Member `member`'s forecast.
pub fn fc(member: u64) -> String {
    format!("fc_{member}.vec")
}

/// The store port over a run directory: forecast files, their
/// quarantine corner, the covariance checkpoints and the posterior.
pub struct DiskStore {
    /// The run directory.
    pub workdir: PathBuf,
    cov: DiskTripleBuffer,
}

impl DiskStore {
    /// The store over `workdir` (created if missing).
    pub fn open(workdir: impl AsRef<Path>) -> io::Result<DiskStore> {
        let workdir = workdir.as_ref().to_path_buf();
        let cov = DiskTripleBuffer::create(&workdir)?;
        Ok(DiskStore { workdir, cov })
    }

    /// Durably write member `member`'s forecast. Fleet workers' `pemodel`
    /// writes its own; an in-process run commits through this.
    pub fn write_forecast(&self, member: u64, data: &[f64]) -> io::Result<()> {
        atomic_write(self.workdir.join(fc(member)), &vector_to_bytes(data))
    }
}

impl StorePort for DiskStore {
    fn read_forecast(&self, member: u64) -> io::Result<(Vec<f64>, u32)> {
        vector_from_bytes_with_crc(&fs::read(self.workdir.join(fc(member)))?)
    }

    fn quarantine_forecast(&self, member: u64) -> io::Result<()> {
        let (name, qdir) = (fc(member), self.workdir.join(QUARANTINE));
        fs::create_dir_all(&qdir)?;
        if self.workdir.join(&name).exists() {
            fs::rename(self.workdir.join(&name), qdir.join(&name))?;
        }
        Ok(())
    }

    fn publish_covariance(&self, estimate: &ErrorSubspace, version: u64) -> io::Result<()> {
        self.cov.publish(&subspace_to_bytes(estimate), version)
    }

    fn publish_posterior(&self, posterior: &ErrorSubspace) -> io::Result<()> {
        atomic_write(self.workdir.join(POSTERIOR), &subspace_to_bytes(posterior))
    }
}
