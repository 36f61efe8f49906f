//! esse-net: network-transparent task pool transport.
//!
//! The on-disk pool of `esse-mtc` assumes every worker can see the
//! coordinator's filesystem — the paper's home-cluster NFS setup. This
//! crate removes that assumption with a hand-rolled TCP protocol:
//! length-prefixed, CRC-framed messages ([`frame`], [`msg`]), a
//! worker-side [`client::TcpTransport`] implementing the
//! [`PoolTransport`] trait, and a coordinator-side [`server::NetServer`]
//! that proxies each remote worker's claims, heartbeats and result
//! streams onto the local on-disk pool, so local and remote workers are
//! arbitrated by the same atomic rename and governed by the same
//! coordinator-clock leases and fencing epochs.
//!
//! The fleet is elastic by construction: a worker is just a connection
//! that claims pending tasks, so workers may join mid-run (they are
//! handed requeued or not-yet-claimed tasks immediately) and leave at
//! any time (their leases expire and the work is requeued under a
//! higher fencing epoch).
//!
//! [`PoolTransport`]: esse_mtc::transport::PoolTransport

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod msg;
pub mod server;

pub use client::{TcpConfig, TcpTransport};
pub use frame::{FrameError, FRAME_OVERHEAD, MAX_FRAME};
pub use msg::{Message, MsgError, PROTO_VERSION};
pub use server::{
    read_endpoint, write_endpoint, NetMetrics, NetServer, ServerConfig, ENDPOINT_FILE,
};

/// Canonical workdir file names shared by the coordinator and remote
/// staging (kept in sync with the binaries' `cli::files`).
pub mod names {
    /// The ensemble mean state.
    pub const MEAN: &str = "mean.vec";
    /// The prior error subspace.
    pub const PRIOR: &str = "prior.sub";
    /// The central (unperturbed) forecast.
    pub const CENTRAL: &str = "fc_central.vec";

    /// Forecast file for ensemble member `member`.
    pub fn fc(member: u64) -> String {
        format!("fc_{member}.vec")
    }
}
