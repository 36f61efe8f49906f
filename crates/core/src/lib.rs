#![warn(missing_docs)]

//! Error Subspace Statistical Estimation (ESSE).
//!
//! The primary contribution of Evangelinos et al. (MTAGS'09) is the MTC
//! formulation of ESSE (Lermusiaux & Robinson 1999; Lermusiaux 2006):
//! uncertainty prediction and data assimilation that track only the
//! *dominant* error subspace of an ocean forecast:
//!
//! 1. [`perturb`] — perturb the initial mean state along the dominant
//!    error modes plus truncated-error white noise (the paper's `pert`
//!    executable),
//! 2. [`model`] — run an ensemble of stochastic model forecasts (the
//!    paper's `pemodel`),
//! 3. [`covariance`] — continuously difference arriving members against
//!    the central forecast into the normalized spread matrix (the
//!    paper's `diff` stage, order-independent per §4.1),
//! 4. [`subspace`] + SVD — extract the dominant error modes,
//! 5. [`convergence`] — compare successive subspaces of growing ensemble
//!    size; stop when the similarity coefficient saturates (Fig. 2),
//! 6. [`assimilate`] — minimum-variance update in the subspace with the
//!    posterior modes re-diagonalized,
//! 7. [`adaptive`] — grow the ensemble `N → N₂ → … → Nmax` under the
//!    forecast deadline `Tmax` (Fig. 3 policy).
//!
//! The `esse-mtc` crate chains these into one engine that runs both the
//! serial workflow of paper Fig. 3 and the decoupled many-task workflow
//! of Fig. 4 (`esse_mtc::workflow`). [`realtime`] models the
//! observation/forecaster/simulation timelines of Fig. 1 and
//! [`adaptive_sampling`] scores the §7 sampling sites, both driven by
//! `examples/monterey_forecast.rs`; [`smoother`] is the §3 smoother pass
//! `tests/cycling.rs` checks. [`durable`] and [`format`] are the
//! crash-durable file primitives and the vector/subspace byte formats
//! every layer shares. DESIGN.md §7.1 names what keeps each module.

pub mod adaptive;
pub mod adaptive_sampling;
pub mod assimilate;
pub mod convergence;
pub mod covariance;
pub mod durable;
pub mod error;
pub mod format;
pub mod model;
pub mod obs;
pub mod perturb;
pub mod priors;
pub mod realtime;
pub mod smoother;
pub mod subspace;
pub mod validate;

pub use assimilate::Analysis;
pub use error::{ConfigError, EsseError};
pub use model::{ForecastError, ForecastModel};
pub use obs::{ObsSet, Observation};
pub use subspace::{
    make_estimator, ErrorSubspace, SubspaceEstimator, SubspaceStrategy, SubspaceUpdate, UpdateKind,
};
