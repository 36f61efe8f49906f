#![warn(missing_docs)]

//! Ocean acoustics for the ESSE reproduction.
//!
//! Section 2.2 of the paper couples the ESSE ocean ensemble to acoustic
//! propagation: each ocean realization's temperature/salinity fields fix
//! a sound-speed section; a broadband transmission-loss (TL) field is
//! computed per realization; and the coupled physical-acoustical
//! covariance transfers ocean uncertainty into acoustic uncertainty.
//! With enough compute one evaluates the whole "acoustic climate" —
//! TL for any source/receiver/frequency — which is the paper's 6000+
//! three-minute acoustics jobs.
//!
//! This crate implements that chain from scratch:
//!
//! * [`ssp`] — sound-speed profiles/sections from ocean state (Mackenzie),
//! * [`ray`] — 2-D ray tracing through range-dependent `c(r, z)`,
//! * [`bottom`] — Rayleigh reflection loss at the seabed,
//! * [`tl`] — incoherent ray-flux transmission loss with Thorp volume
//!   attenuation and broadband averaging,
//! * [`climate`] — the source × frequency × section sweep,
//! * [`coupled`] — ensemble TL statistics and the non-dimensionalized
//!   coupled physical-acoustical covariance with its dominant modes.
//!
//! `examples/acoustic_climate.rs` and section E3 of the `paper_tables`
//! bench drive the chain end to end; DESIGN.md §7.1 names what keeps
//! each module.

pub mod bottom;
pub mod climate;
pub mod coupled;
pub mod ray;
pub mod ssp;
pub mod tl;

pub use ssp::{SoundSpeedProfile, SoundSpeedSection};
pub use tl::{TlField, TlSolver};

/// Thorp volume attenuation (dB/km) at frequency `f_khz` (kHz).
pub fn thorp_attenuation_db_per_km(f_khz: f64) -> f64 {
    let f2 = f_khz * f_khz;
    0.11 * f2 / (1.0 + f2) + 44.0 * f2 / (4100.0 + f2) + 2.75e-4 * f2 + 0.003
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thorp_increases_with_frequency() {
        let a1 = thorp_attenuation_db_per_km(0.1);
        let a2 = thorp_attenuation_db_per_km(1.0);
        let a3 = thorp_attenuation_db_per_km(10.0);
        assert!(a1 < a2 && a2 < a3);
    }

    #[test]
    fn thorp_reference_magnitudes() {
        // ~0.06 dB/km at 1 kHz, ~1 dB/km near 10 kHz, per the formula.
        let a1 = thorp_attenuation_db_per_km(1.0);
        assert!(a1 > 0.03 && a1 < 0.2, "a(1 kHz) = {a1}");
        let a10 = thorp_attenuation_db_per_km(10.0);
        assert!(a10 > 0.5 && a10 < 3.0, "a(10 kHz) = {a10}");
    }
}
