//! Atmospheric forcing: synthetic COAMPS-like wind stress and heat flux.
//!
//! In AOSN-II the ensemble was "forced by forecast COAMPS atmospheric
//! fluxes issued on September 2" — a deterministic forcing shared by all
//! members. Here the equivalent is an analytic wind field with
//! upwelling-favorable (equatorward) events typical of the central
//! California coast in summer, plus a relaxation/weakening cycle.

use crate::grid::Grid;

/// Wind-stress and heat-flux provider.
#[derive(Debug, Clone)]
pub struct Forcing {
    /// Peak alongshore wind stress (N/m², negative = equatorward/upwelling).
    pub tau_peak: f64,
    /// Event period (s): one upwelling + relaxation cycle.
    pub event_period: f64,
    /// Fraction of the cycle with strong wind.
    pub event_duty: f64,
    /// Cross-shore decay scale of the wind (m from the coast).
    pub coastal_scale: f64,
    /// Surface heat flux amplitude (W/m², diurnal).
    pub heat_flux_amp: f64,
}

impl Default for Forcing {
    fn default() -> Self {
        Forcing {
            tau_peak: -0.12,
            event_period: 6.0 * 86400.0,
            event_duty: 0.6,
            coastal_scale: 60_000.0,
            heat_flux_amp: 120.0,
        }
    }
}

impl Forcing {
    /// No forcing at all (spin-down tests).
    pub fn calm() -> Forcing {
        Forcing { tau_peak: 0.0, heat_flux_amp: 0.0, ..Forcing::default() }
    }

    /// Constant steady upwelling wind (no events).
    pub fn steady_upwelling(tau: f64) -> Forcing {
        Forcing {
            tau_peak: tau,
            event_period: f64::INFINITY,
            event_duty: 1.0,
            ..Forcing::default()
        }
    }

    /// Temporal envelope of the wind event in [0, 1].
    fn envelope(&self, time: f64) -> f64 {
        if !self.event_period.is_finite() {
            return 1.0;
        }
        let phase = (time / self.event_period).fract();
        if phase < self.event_duty {
            // Smooth ramp up and down inside the event.
            let x = phase / self.event_duty;
            (std::f64::consts::PI * x).sin().max(0.0)
        } else {
            0.15 // weak background breeze during relaxation
        }
    }

    /// Wind stress `(tau_x, tau_y)` (N/m²) at cell `(i, j)` and `time` s.
    ///
    /// Predominantly alongshore (meridional) wind, strongest near the
    /// coast (eastern side), decaying offshore.
    pub fn wind_stress(&self, grid: &Grid, i: usize, j: usize, time: f64) -> (f64, f64) {
        let (amp_x, amp_y) = self.wind_amplitudes(time);
        (amp_x * Self::latitude_factor(grid, j), amp_y * self.coastal_factor(grid, i))
    }

    /// The time-dependent factors of [`Forcing::wind_stress`]: the
    /// cross-shore and alongshore amplitudes at `time`.
    pub(crate) fn wind_amplitudes(&self, time: f64) -> (f64, f64) {
        let env = self.envelope(time);
        (0.15 * self.tau_peak * env, self.tau_peak * env)
    }

    /// Cross-shore profile of the alongshore stress at column `i`.
    pub(crate) fn coastal_factor(&self, grid: &Grid, i: usize) -> f64 {
        // Distance west of the coastline proxy: use distance from the
        // eastern domain edge as the coastal proximity scale.
        let x_from_coast = (grid.nx - 1 - i) as f64 * grid.dx;
        let coastal = (-x_from_coast / self.coastal_scale).exp();
        0.35 + 0.65 * coastal
    }

    /// Latitude variation of the small cross-shore stress at row `j`.
    pub(crate) fn latitude_factor(grid: &Grid, j: usize) -> f64 {
        ((j as f64 / grid.ny.max(1) as f64) * 3.0).sin()
    }

    /// Net surface heat flux (W/m², positive = warming) — diurnal cycle,
    /// uniform in space.
    pub fn heat_flux(&self, _grid: &Grid, _i: usize, _j: usize, time: f64) -> f64 {
        let day_phase = (time / 86400.0).fract();
        self.heat_flux_amp * (2.0 * std::f64::consts::PI * (day_phase - 0.25)).sin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathymetry::Bathymetry;

    fn grid() -> Grid {
        Grid::new(Bathymetry::flat(20, 10, 500.0), 4, 3000.0, 3000.0)
    }

    #[test]
    fn calm_has_no_stress() {
        let g = grid();
        let f = Forcing::calm();
        let (tx, ty) = f.wind_stress(&g, 5, 5, 1000.0);
        assert_eq!(tx, 0.0);
        assert_eq!(ty, 0.0);
        assert_eq!(f.heat_flux(&g, 5, 5, 43200.0), 0.0);
    }

    #[test]
    fn upwelling_wind_is_equatorward_and_coastal() {
        let g = grid();
        let f = Forcing::steady_upwelling(-0.1);
        let (_tx_off, ty_off) = f.wind_stress(&g, 0, 5, 0.0);
        let (_tx_coast, ty_coast) = f.wind_stress(&g, 19, 5, 0.0);
        assert!(ty_off < 0.0 && ty_coast < 0.0);
        assert!(ty_coast.abs() > ty_off.abs(), "wind should peak near the coast");
    }

    #[test]
    fn events_cycle() {
        let g = grid();
        let f = Forcing::default();
        // During the event (early in the cycle) stress is stronger than
        // during relaxation (late in the cycle).
        let (_, ty_event) = f.wind_stress(&g, 15, 5, 0.3 * f.event_period);
        let (_, ty_relax) = f.wind_stress(&g, 15, 5, 0.9 * f.event_period);
        assert!(ty_event.abs() > ty_relax.abs());
    }

    #[test]
    fn heat_flux_diurnal_sign() {
        let g = grid();
        let f = Forcing::default();
        // Mid-day (phase 0.5): warming. Midnight (phase 0.0): cooling.
        assert!(f.heat_flux(&g, 0, 0, 43200.0) > 0.0);
        assert!(f.heat_flux(&g, 0, 0, 0.0) < 0.0);
    }
}
