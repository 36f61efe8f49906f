#![warn(missing_docs)]

//! Many-task computing runtime for ESSE.
//!
//! Two halves, mirroring the paper:
//!
//! **The real thing** — two coordinators over one set of member rules.
//! [`workflow`] implements the decoupled ESSE workflow of paper Fig. 4
//! in one process: worker threads pulling perturb/forecast attempts, a
//! continuously running differ, and a continuous SVD + convergence
//! stage, as a receive loop over the steps `tick → on_done →
//! svd_round → advance_stage → finish`. `esse_master` (in the `esse`
//! package) is the paper's master script over a fleet of worker
//! *processes*: it seeds lease-carrying task records into the [`pool`]
//! (reached from disk or, via [`transport`], over TCP), commits every
//! state transition to the [`journal`], and publishes each estimate
//! through the paper's safe/live covariance files ([`triple_buffer`]).
//! Both ask the [`ledger`] what the loss of an attempt costs, when a
//! member is reissued and when it is lost for good.
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

pub mod coverage;
pub mod fault;
pub mod journal;
pub mod ledger;
pub mod lock;
pub mod metrics;
pub mod pool;
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
pub use journal::{Checkpoint, Journal, JournalRecord, JournalState, ResumeState};
pub use lock::{LockError, WorkdirLock};
pub use pool::{
    Heartbeat, LeaseState, LeaseWatch, PoolManifest, PoolScan, ResultRecord, TaskPool, TaskSpec,
};
pub use task::{TaskId, TaskOutcome, TaskRecord, TaskState};
pub use transport::{ClaimOutcome, DiskTransport, PoolTransport, RenewAck, RunState};
pub use triple_buffer::DiskTripleBuffer;
pub use workflow::{MtcConfig, MtcConfigBuilder, MtcEsse, MtcOutcome, ReplayState, RunInit};
