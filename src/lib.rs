#![warn(missing_docs)]

//! # ESSE — Error Subspace Statistical Estimation as Many Task Computing
//!
//! A Rust reproduction of *Evangelinos, Lermusiaux, Xu, Haley, Hill:
//! "Many Task Computing for Multidisciplinary Ocean Sciences: Real-Time
//! Uncertainty Prediction and Data Assimilation"* (MTAGS'09 / SC 2009
//! workshops).
//!
//! The workspace builds the entire stack from scratch:
//!
//! | crate | role |
//! |-------|------|
//! | [`linalg`] | dense matrices, QR/LU/Cholesky, Jacobi eigen/SVD, threaded GEMM |
//! | [`ocean`] | the stochastic primitive-equation regional ocean model (`pemodel`) |
//! | [`acoustics`] | sound-speed sections, ray-traced transmission loss, acoustic climate |
//! | [`core`] | the ESSE algorithm: perturbation, ensembles, covariance, SVD convergence, assimilation |
//! | [`mtc`] | the many-task workflow engine (paper Fig. 4) and the cluster/grid/cloud simulator |
//!
//! ## Quick start
//!
//! ```
//! use esse::core::adaptive::EnsembleSchedule;
//! use esse::core::model::LinearGaussianModel;
//! use esse::core::subspace::ErrorSubspace;
//! use esse::mtc::workflow::{MtcConfig, MtcEsse, RunInit};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A toy linear model with two slow (dominant) error directions.
//! let model = LinearGaussianModel::diagonal(&[0.98, 0.95, 0.2, 0.1], 0.05, 1.0);
//! let mut rng = StdRng::seed_from_u64(1);
//! let prior = ErrorSubspace::isotropic(&mut rng, 4, 4, 1.0);
//! let cfg = MtcConfig {
//!     schedule: EnsembleSchedule::new(16, 128),
//!     duration: 10.0,
//!     max_rank: 4,
//!     ..Default::default()
//! };
//! // The serial workflow of paper Fig. 3; drop `.serial()` for the
//! // many-task pool of Fig. 4.
//! let esse = MtcEsse::new(&model, cfg.serial());
//! let forecast = esse.run(RunInit::new(&[0.0; 4], &prior)).unwrap();
//! assert!(forecast.subspace.rank() >= 1);
//! ```
//!
//! See `examples/` for the full pipeline on the Monterey-Bay-like
//! domain, the acoustic-climate sweep, and the cloud-bursting cost study.

pub mod cli;
pub mod fileio;

pub use esse_acoustics as acoustics;
pub use esse_core as core;
pub use esse_linalg as linalg;
pub use esse_mtc as mtc;
pub use esse_net as net;
pub use esse_ocean as ocean;

// The workspace-wide error hierarchy, re-exported so downstream code can
// `use esse::{ConfigError, EsseError}` without reaching into sub-crates.
pub use esse_core::{ConfigError, EsseError};
