#![warn(missing_docs)]

//! Simplified hydrostatic primitive-equation regional ocean model.
//!
//! This crate is the reproduction's substitute for the Harvard Ocean
//! Prediction System (HOPS) used by Evangelinos et al. (MTAGS'09) — the
//! `pemodel` black box that each ESSE ensemble member runs. It provides:
//!
//! * a terrain-following (sigma-coordinate) grid over synthetic
//!   bathymetry, including a Monterey-Bay-like shelf/canyon domain,
//! * hydrostatic, Boussinesq primitive equations: momentum with
//!   semi-implicit Coriolis, baroclinic + barotropic pressure gradients,
//!   upwind advection, Laplacian mixing; temperature/salinity
//!   advection-diffusion; a split-explicit free surface,
//! * synthetic COAMPS-like wind-event forcing and surface heat flux,
//! * stochastic model-error forcing (spatially correlated noise) so an
//!   ensemble member integrates a *stochastic* PE model, as ESSE requires,
//! * state-vector packing so ESSE can treat a model state as one long
//!   vector (a column of the ensemble matrix),
//! * the AOSN-II-like "Monterey" scenario used by the uncertainty-map
//!   experiments (paper Figs. 5-6).
//!
//! The model is deliberately coarse (tens of km, few vertical levels) —
//! what matters for ESSE is nonlinear perturbation growth with realistic
//! spatial structure and a tunable cost profile, not forecast skill.

pub mod bathymetry;
pub mod boundary;
pub mod dynamics;
pub mod eos;
pub mod field;
pub mod forcing;
pub mod grid;
pub mod model;
pub mod nest;
pub mod render;
pub mod scenario;
pub mod state;
pub mod stochastic;

pub use field::{Field2, Field3};
pub use grid::Grid;
pub use model::{ModelConfig, PeModel};
pub use state::OceanState;

/// Gravitational acceleration (m/s²).
pub const GRAVITY: f64 = 9.81;
/// Reference seawater density (kg/m³).
pub const RHO0: f64 = 1025.0;
