#![warn(missing_docs)]

//! Many-task computing runtime for ESSE.
//!
//! Two halves, mirroring the paper:
//!
//! **The real thing** — one coordinator, one run, two resources.
//! [`coordinator`] is the paper's master script behind pool, journal
//! and store ports; it asks the [`ledger`] what the loss of an attempt
//! costs, when a member is reissued and when it is lost for good.
//! [`workflow`]'s `MtcEsse::run_on` is the one run (paper Fig. 4) that
//! steps it, over a [`workflow::Resource`]: the in-memory ports of
//! [`mem`] and a crew of worker threads (`MtcEsse::run`), or — in the
//! `esse` package's `fleet`, driven by `esse_master` — the on-disk
//! [`pool`], the [`journal`] and the [`rundir`] store (forecasts, the
//! safe/live covariance files of [`triple_buffer`], the posterior) for
//! worker processes, which reach the pool from disk or, via
//! [`transport`], over TCP. An in-process checkpoint keeps the same
//! run directory, without the pool.
//!
//! **The simulator** — [`sim`] is a discrete-event model of the
//! execution platforms the paper measured: the 240-core Opteron home
//! cluster with NFS vs. prestaged-local I/O (§5.2), SGE vs. Condor
//! dispatch behaviour, Teragrid sites with heterogeneous CPUs and
//! filesystems (Table 1), and EC2 instance types with virtualization
//! overheads and hourly billing (Table 2, §5.4.2 cost model). The
//! simulator reproduces the paper's timing tables *mechanistically*
//! (CPU speed ratios, filesystem behaviour, scheduler latency), not by
//! replaying constants.

pub mod coordinator;
pub mod coverage;
pub mod fault;
pub mod journal;
pub mod ledger;
pub mod lock;
pub mod mem;
pub mod metrics;
pub mod pool;
pub mod rundir;
pub mod staging;
pub mod task;
pub mod transport;
pub mod triple_buffer;
pub mod workflow;

pub mod sim {
    //! Discrete-event simulation of clusters, grids and clouds.
    pub mod cloud;
    pub mod cluster;
    pub mod ec2;
    pub mod event;
    pub mod gang;
    pub mod grid;
    pub mod multicluster;
    pub mod platform;
    pub mod scheduler;
    pub mod storage;
    pub mod submission;
}

pub use fault::{CorruptionKind, FaultPlan, FaultReport, RetryPolicy, RunHealth};
pub use journal::{Checkpoint, Journal, JournalRecord, JournalState};
pub use lock::{LockError, WorkdirLock};
pub use pool::{
    Heartbeat, LeaseState, LeaseWatch, PoolManifest, PoolScan, ResultRecord, TaskPool, TaskSpec,
};
pub use task::{TaskId, TaskOutcome, TaskRecord, TaskState};
pub use transport::{ClaimOutcome, DiskTransport, PoolTransport, RenewAck, RunState};
pub use triple_buffer::DiskTripleBuffer;
pub use workflow::{MtcConfig, MtcEsse, MtcOutcome, RunInit};
