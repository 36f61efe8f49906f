#![warn(missing_docs)]

//! Many-task computing runtime for ESSE.
//!
//! Two halves, mirroring the paper:
//!
//! **The real thing** — [`workflow`] implements the decoupled ESSE
//! workflow of paper Fig. 4 with actual threads: a pool of
//! perturb/forecast tasks (size `M ≥ N`), a continuously running differ,
//! a continuously running SVD + convergence stage reading consistent
//! snapshots through the three-buffer protocol ([`triple_buffer`], the
//! in-memory equivalent of the paper's safe/live covariance files), task
//! cancellation on convergence, and tolerance of member failures.
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
pub use triple_buffer::{DiskTripleBuffer, TripleBuffer};
pub use workflow::{MtcConfig, MtcConfigBuilder, MtcEsse, MtcOutcome, ReplayState, RunInit};
