//! Discrete operators for the primitive-equation step.
//!
//! Collocated (A-grid) finite differences. Momentum is linear (mesoscale
//! QG-like regime); the nonlinearity that grows ensemble perturbations
//! lives in the tracer advection — T/S anomalies change density, density
//! changes pressure gradients, pressure changes the currents that advect
//! T/S. Land cells are masked; fluxes never cross the mask.

use crate::eos;
use crate::field::Field3;
use crate::grid::Grid;
use crate::state::OceanState;
use crate::{GRAVITY, RHO0};

/// Horizontal-mean density profile ρ̄'(z), used to reduce the
/// sigma-coordinate pressure-gradient error: integrating only the
/// *deviation* from a resting reference profile makes the pressure
/// gradient of a horizontally uniform stratified ocean exactly zero over
/// arbitrarily steep topography.
#[derive(Debug, Clone)]
pub struct RefProfile {
    /// Sample depths (m, ascending from 0).
    depths: Vec<f64>,
    /// Mean density anomaly at each sample depth (kg/m³).
    values: Vec<f64>,
}

impl RefProfile {
    /// Zero reference (recovers the raw integration).
    pub fn zero() -> RefProfile {
        RefProfile { depths: vec![0.0, 1.0], values: vec![0.0, 0.0] }
    }

    /// Build from the horizontal mean of a state's T/S at a set of
    /// common depths.
    pub fn from_state(grid: &Grid, state: &OceanState, samples: usize) -> RefProfile {
        let zmax = grid.max_depth().max(1.0);
        let samples = samples.max(2);
        let mut depths = Vec::with_capacity(samples);
        let mut values = Vec::with_capacity(samples);
        for q in 0..samples {
            let z = zmax * q as f64 / (samples - 1) as f64;
            let mut sum = 0.0;
            let mut n = 0.0;
            for j in 0..grid.ny {
                for i in 0..grid.nx {
                    if !grid.is_wet(i, j) || grid.depth(i, j) < z {
                        continue;
                    }
                    // Interpolate the column's T/S to depth z.
                    let (t, s) = column_interp(grid, state, i, j, z);
                    sum += eos::density_anomaly(t, s);
                    n += 1.0;
                }
            }
            depths.push(z);
            values.push(if n > 0.0 { sum / n } else { 0.0 });
        }
        RefProfile { depths, values }
    }

    /// Reference density anomaly at depth `z` (linear interpolation,
    /// clamped at the ends).
    pub fn at(&self, z: f64) -> f64 {
        let n = self.depths.len();
        if z <= self.depths[0] {
            return self.values[0];
        }
        if z >= self.depths[n - 1] {
            return self.values[n - 1];
        }
        let mut k = 1;
        while self.depths[k] < z {
            k += 1;
        }
        let (z0, z1) = (self.depths[k - 1], self.depths[k]);
        let w = (z - z0) / (z1 - z0).max(1e-12);
        self.values[k - 1] * (1.0 - w) + self.values[k] * w
    }

    /// [`RefProfile::at`] the center depth of every cell.
    pub(crate) fn at_levels(&self, grid: &Grid) -> Field3 {
        Field3::from_fn(grid.nx, grid.ny, grid.nz, |i, j, k| self.at(grid.level_depth(i, j, k)))
    }
}

/// Linear interpolation of a column's (T, S) to depth `z`.
fn column_interp(grid: &Grid, state: &OceanState, i: usize, j: usize, z: f64) -> (f64, f64) {
    let nz = grid.nz;
    let d0 = grid.level_depth(i, j, 0);
    if z <= d0 {
        return (state.t.get(i, j, 0), state.s.get(i, j, 0));
    }
    for k in 1..nz {
        let dk = grid.level_depth(i, j, k);
        if z <= dk {
            let dk1 = grid.level_depth(i, j, k - 1);
            let w = (z - dk1) / (dk - dk1).max(1e-12);
            let t = state.t.get(i, j, k - 1) * (1.0 - w) + state.t.get(i, j, k) * w;
            let s = state.s.get(i, j, k - 1) * (1.0 - w) + state.s.get(i, j, k) * w;
            return (t, s);
        }
    }
    (state.t.get(i, j, nz - 1), state.s.get(i, j, nz - 1))
}

/// Layer thickness of every cell (0 on land).
pub(crate) fn layer_thicknesses(grid: &Grid) -> Field3 {
    Field3::from_fn(grid.nx, grid.ny, grid.nz, |i, j, k| grid.layer_thickness(i, j, k))
}

/// `f(i, j)` of every horizontal cell, row-major.
pub(crate) fn per_column<T>(grid: &Grid, f: impl Fn(usize, usize) -> T) -> Vec<T> {
    let f = &f;
    (0..grid.ny).flat_map(|j| (0..grid.nx).map(move |i| f(i, j))).collect()
}

/// Hydrostatic baroclinic pressure anomaly field φ = p'/ρ₀ (m²/s²) at
/// level centers, integrated downward from the surface, relative to the
/// resting reference profile `rho_ref`.
pub fn baroclinic_pressure(grid: &Grid, t: &Field3, s: &Field3, rho_ref: &RefProfile) -> Field3 {
    let mut phi = Field3::zeros(grid.nx, grid.ny, grid.nz);
    let h = layer_thicknesses(grid);
    let rho_ref = rho_ref.at_levels(grid);
    let wet = per_column(grid, |i, j| grid.is_wet(i, j));
    pressure_into(&mut phi, t, s, &h, &rho_ref, &wet);
    phi
}

/// [`baroclinic_pressure`] over precomputed layer thicknesses `h`,
/// reference densities `rho_ref` (at each cell's center depth) and wet
/// flags, one level at a time; φ is 0 on land.
pub(crate) fn pressure_into(
    phi: &mut Field3,
    t: &Field3,
    s: &Field3,
    h: &Field3,
    rho_ref: &Field3,
    wet: &[bool],
) {
    let n2 = wet.len();
    // Pressure anomaly / rho0 at the top interface of the current level.
    let mut p = vec![0.0; n2];
    let levels = phi.as_mut_slice().chunks_exact_mut(n2).zip(t.as_slice().chunks_exact(n2));
    let inputs = s.as_slice().chunks_exact(n2).zip(h.as_slice().chunks_exact(n2));
    for ((phi, t), ((s, h), r)) in levels.zip(inputs.zip(rho_ref.as_slice().chunks_exact(n2))) {
        for c in 0..n2 {
            let rho = eos::density_anomaly(t[c], s[c]) - r[c];
            // Pressure at level center: interface pressure + half layer.
            phi[c] = if wet[c] { p[c] + GRAVITY * rho / RHO0 * (0.5 * h[c]) } else { 0.0 };
            p[c] += GRAVITY * rho / RHO0 * h[c];
        }
    }
}

/// Which horizontal neighbours of a cell are wet; a neighbour off the
/// grid counts as land. Fluxes and gradients never reach across land.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WetNeighbours {
    pub w: bool,
    pub e: bool,
    pub s: bool,
    pub n: bool,
}

impl WetNeighbours {
    /// The neighbours of `(i, j)` on `grid`.
    pub(crate) fn of(grid: &Grid, i: usize, j: usize) -> WetNeighbours {
        WetNeighbours {
            w: i > 0 && grid.is_wet(i - 1, j),
            e: i + 1 < grid.nx && grid.is_wet(i + 1, j),
            s: j > 0 && grid.is_wet(i, j - 1),
            n: j + 1 < grid.ny && grid.is_wet(i, j + 1),
        }
    }
}

/// Cell `(i, j, k)` of a level-major field (the [`Field3`] layout) as
/// the stencil operators read it: its flat index `n`, the strides to its
/// neighbours and which horizontal neighbours are wet. Layer thicknesses
/// come from a closure over the level index, so the same operator runs
/// on thicknesses derived from the grid or read from a table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    pub n: usize,
    pub k: usize,
    pub nx: usize,
    pub n2: usize,
    pub nz: usize,
    pub wet: WetNeighbours,
}

impl Cell {
    /// Cell `(i, j, k)` of `grid`.
    pub(crate) fn of(grid: &Grid, i: usize, j: usize, k: usize) -> Cell {
        let (nx, n2) = (grid.nx, grid.nx * grid.ny);
        Cell { n: k * n2 + j * nx + i, k, nx, n2, nz: grid.nz, wet: WetNeighbours::of(grid, i, j) }
    }

    /// The cell at level `k` of the same column.
    #[inline(always)]
    pub(crate) fn level(self, k: usize) -> Cell {
        Cell { n: self.n - self.k * self.n2 + k * self.n2, k, ..self }
    }

    /// Masked centered x-derivative.
    #[inline(always)]
    pub(crate) fn ddx(self, f: &[f64], dx: f64) -> f64 {
        let n = self.n;
        masked_diff(self.wet.w.then(|| f[n - 1]), f[n], self.wet.e.then(|| f[n + 1]), dx)
    }

    /// Masked centered y-derivative.
    #[inline(always)]
    pub(crate) fn ddy(self, f: &[f64], dy: f64) -> f64 {
        let (n, nx) = (self.n, self.nx);
        masked_diff(self.wet.s.then(|| f[n - nx]), f[n], self.wet.n.then(|| f[n + nx]), dy)
    }

    /// Masked 5-point horizontal Laplacian.
    #[inline(always)]
    pub(crate) fn laplacian(self, f: &[f64], dx: f64, dy: f64) -> f64 {
        let (n, nx) = (self.n, self.nx);
        let c = f[n];
        let mut acc = 0.0;
        if self.wet.w {
            acc += (f[n - 1] - c) / (dx * dx);
        }
        if self.wet.e {
            acc += (f[n + 1] - c) / (dx * dx);
        }
        if self.wet.s {
            acc += (f[n - nx] - c) / (dy * dy);
        }
        if self.wet.n {
            acc += (f[n + nx] - c) / (dy * dy);
        }
        acc
    }

    /// First-order upwind horizontal advection tendency
    /// `-(u ∂f/∂x + v ∂f/∂y)`, with no flux from land.
    #[inline(always)]
    pub(crate) fn upwind(self, f: &[f64], u: f64, v: f64, dx: f64, dy: f64) -> f64 {
        let (n, nx) = (self.n, self.nx);
        let c = f[n];
        let mut tend = 0.0;
        if u > 0.0 {
            if self.wet.w {
                tend -= u * (c - f[n - 1]) / dx;
            }
        } else if u < 0.0 && self.wet.e {
            tend -= u * (f[n + 1] - c) / dx;
        }
        if v > 0.0 {
            if self.wet.s {
                tend -= v * (c - f[n - nx]) / dy;
            }
        } else if v < 0.0 && self.wet.n {
            tend -= v * (f[n + nx] - c) / dy;
        }
        tend
    }

    /// Explicit vertical diffusion tendency with diffusivity `kv`; `h(k)`
    /// is the column's layer thickness at level `k`.
    #[inline(always)]
    pub(crate) fn vertical_diffusion(self, f: &[f64], kv: f64, h: impl Fn(usize) -> f64) -> f64 {
        let (n, n2, k) = (self.n, self.n2, self.k);
        let hk = h(k).max(1e-6);
        let c = f[n];
        let mut flux = 0.0;
        if k > 0 {
            let hup = h(k - 1).max(1e-6);
            let dz = 0.5 * (hk + hup);
            flux += kv * (f[n - n2] - c) / dz;
        }
        if k + 1 < self.nz {
            let hdn = h(k + 1).max(1e-6);
            let dz = 0.5 * (hk + hdn);
            flux += kv * (f[n + n2] - c) / dz;
        }
        flux / hk
    }

    /// Upwind vertical advection tendency `-w ∂f/∂z` given the column's
    /// interface velocities `w` (positive up, length `nz+1`, from
    /// [`Cell::w_column`]; `k` increases downward).
    #[inline(always)]
    pub(crate) fn vertical_advection(self, f: &[f64], w: &[f64], h: impl Fn(usize) -> f64) -> f64 {
        let (n, n2, k) = (self.n, self.n2, self.k);
        let c = f[n];
        // Cell-center vertical velocity.
        let wc = 0.5 * (w[k] + w[k + 1]);
        if wc > 0.0 {
            // Upward flow: information comes from the layer below.
            if k + 1 < self.nz {
                let dz = 0.5 * (h(k) + h(k + 1)).max(1e-6);
                -wc * (c - f[n + n2]) / dz
            } else {
                0.0
            }
        } else if wc < 0.0 {
            // Downward flow: information comes from the layer above.
            if k > 0 {
                let dz = 0.5 * (h(k) + h(k - 1)).max(1e-6);
                -wc * (f[n - n2] - c) / dz
            } else {
                0.0
            }
        } else {
            0.0
        }
    }

    /// Fill `w` (length `nz+1`) with the column's vertical velocity at
    /// layer interfaces (positive up, m/s), integrating the horizontal
    /// divergence of `(u, v)` up from `w = 0` at the seabed.
    #[inline(always)]
    pub(crate) fn w_column(
        self,
        w: &mut [f64],
        (u, v): (&[f64], &[f64]),
        (dx, dy): (f64, f64),
        h: impl Fn(usize) -> f64,
    ) {
        w[self.nz] = 0.0;
        for k in (0..self.nz).rev() {
            let c = self.level(k);
            let dudx = c.ddx(u, dx);
            let dvdy = c.ddy(v, dy);
            w[k] = w[k + 1] - h(k) * (dudx + dvdy);
        }
    }
}

/// Centered difference of `(left, center, right)` over spacing `d`,
/// one-sided where only one neighbour exists, zero where neither does.
#[inline]
fn masked_diff(l: Option<f64>, c: f64, r: Option<f64>, d: f64) -> f64 {
    match (l, r) {
        (Some(l), Some(r)) => (r - l) / (2.0 * d),
        (Some(l), None) => (c - l) / d,
        (None, Some(r)) => (r - c) / d,
        (None, None) => 0.0,
    }
}

/// Masked centered x-gradient of a level slice at `(i, j)` (1/m units of field/m).
#[inline]
pub fn grad_x(grid: &Grid, f: &Field3, i: usize, j: usize, k: usize) -> f64 {
    Cell::of(grid, i, j, k).ddx(f.as_slice(), grid.dx)
}

/// Masked centered y-gradient.
#[inline]
pub fn grad_y(grid: &Grid, f: &Field3, i: usize, j: usize, k: usize) -> f64 {
    Cell::of(grid, i, j, k).ddy(f.as_slice(), grid.dy)
}

/// Masked 5-point horizontal Laplacian of a 3-D field at `(i, j, k)`.
#[inline]
pub fn laplacian(grid: &Grid, f: &Field3, i: usize, j: usize, k: usize) -> f64 {
    Cell::of(grid, i, j, k).laplacian(f.as_slice(), grid.dx, grid.dy)
}

/// First-order upwind horizontal advection tendency `-(u ∂f/∂x + v ∂f/∂y)`
/// at `(i, j, k)`, mask-aware (no flux from land).
#[inline]
pub fn upwind_advection(
    grid: &Grid,
    f: &Field3,
    u: f64,
    v: f64,
    i: usize,
    j: usize,
    k: usize,
) -> f64 {
    Cell::of(grid, i, j, k).upwind(f.as_slice(), u, v, grid.dx, grid.dy)
}

/// Vertical velocity at layer *interfaces* (positive up, m/s), length
/// `nz+1` per column, diagnosed from the horizontal divergence
/// integrated from the bottom (w = 0 at the seabed).
pub fn diagnose_w_column(grid: &Grid, u: &Field3, v: &Field3, i: usize, j: usize) -> Vec<f64> {
    let mut w = vec![0.0; grid.nz + 1];
    if grid.is_wet(i, j) {
        Cell::of(grid, i, j, 0).w_column(
            &mut w,
            (u.as_slice(), v.as_slice()),
            (grid.dx, grid.dy),
            |k| grid.layer_thickness(i, j, k),
        );
    }
    w
}

/// Vertical diffusion tendency (explicit) for a tracer column.
#[inline]
pub fn vertical_diffusion(grid: &Grid, f: &Field3, kv: f64, i: usize, j: usize, k: usize) -> f64 {
    Cell::of(grid, i, j, k)
        .vertical_diffusion(f.as_slice(), kv, |kk| grid.layer_thickness(i, j, kk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathymetry::Bathymetry;

    fn grid() -> Grid {
        Grid::new(Bathymetry::flat(8, 8, 100.0), 4, 1000.0, 1000.0)
    }

    #[test]
    fn pressure_of_uniform_density_is_uniform_horizontally() {
        let g = grid();
        let t = Field3::constant(8, 8, 4, 10.0);
        let s = Field3::constant(8, 8, 4, 34.0);
        let phi = baroclinic_pressure(&g, &t, &s, &RefProfile::zero());
        // No horizontal gradient anywhere.
        for k in 0..4 {
            for j in 1..7 {
                for i in 1..7 {
                    assert!(grad_x(&g, &phi, i, j, k).abs() < 1e-12);
                    assert!(grad_y(&g, &phi, i, j, k).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn cold_column_has_higher_pressure_below() {
        let g = grid();
        // Column (2,2) colder (denser) than (5,5).
        let t = Field3::from_fn(8, 8, 4, |i, j, _| if i == 2 && j == 2 { 5.0 } else { 15.0 });
        let s = Field3::constant(8, 8, 4, 34.0);
        let phi = baroclinic_pressure(&g, &t, &s, &RefProfile::zero());
        assert!(phi.get(2, 2, 3) > phi.get(5, 5, 3));
        // Pressure anomaly magnitude grows with depth.
        assert!(phi.get(2, 2, 3) > phi.get(2, 2, 0));
    }

    #[test]
    fn gradient_of_linear_field_exact() {
        let g = grid();
        let f = Field3::from_fn(8, 8, 4, |i, j, _| 3.0 * i as f64 + 7.0 * j as f64);
        // interior: df/dx = 3/dx, df/dy = 7/dy
        assert!((grad_x(&g, &f, 4, 4, 0) - 3.0 / 1000.0).abs() < 1e-15);
        assert!((grad_y(&g, &f, 4, 4, 0) - 7.0 / 1000.0).abs() < 1e-15);
        // one-sided at edges still exact for linear fields
        assert!((grad_x(&g, &f, 0, 4, 0) - 3.0 / 1000.0).abs() < 1e-15);
        assert!((grad_x(&g, &f, 7, 4, 0) - 3.0 / 1000.0).abs() < 1e-15);
    }

    #[test]
    fn laplacian_of_linear_field_zero() {
        let g = grid();
        let f = Field3::from_fn(8, 8, 4, |i, j, _| 2.0 * i as f64 - 5.0 * j as f64);
        assert!(laplacian(&g, &f, 4, 4, 1).abs() < 1e-15);
    }

    #[test]
    fn upwind_advection_direction() {
        let g = grid();
        // f increases with i; positive u advects low values from the west:
        // tendency negative... -u*(c - west)/dx = -u*(+1)/dx < 0.
        let f = Field3::from_fn(8, 8, 4, |i, _, _| i as f64);
        let tend = upwind_advection(&g, &f, 1.0, 0.0, 4, 4, 0);
        assert!(tend < 0.0);
        let tend_neg = upwind_advection(&g, &f, -1.0, 0.0, 4, 4, 0);
        assert!(tend_neg > 0.0);
    }

    #[test]
    fn w_zero_for_divergence_free_column() {
        let g = grid();
        let u = Field3::constant(8, 8, 4, 0.1);
        let v = Field3::constant(8, 8, 4, -0.05);
        let w = diagnose_w_column(&g, &u, &v, 4, 4);
        for &wi in &w {
            assert!(wi.abs() < 1e-12);
        }
    }

    #[test]
    fn convergent_flow_produces_upwelling() {
        let g = grid();
        // u decreasing with i: du/dx < 0 -> convergence -> w > 0 (upwelling).
        let u = Field3::from_fn(8, 8, 4, |i, _, _| -0.01 * i as f64);
        let v = Field3::zeros(8, 8, 4);
        let w = diagnose_w_column(&g, &u, &v, 4, 4);
        assert!(w[0] > 0.0, "surface w {w:?}");
        assert_eq!(w[4], 0.0);
    }

    #[test]
    fn vertical_diffusion_smooths() {
        let g = grid();
        // Hot layer k=1 between cold layers: diffusion must cool it.
        let f = Field3::from_fn(8, 8, 4, |_, _, k| if k == 1 { 20.0 } else { 10.0 });
        let tend = vertical_diffusion(&g, &f, 1e-3, 4, 4, 1);
        assert!(tend < 0.0);
        let tend_above = vertical_diffusion(&g, &f, 1e-3, 4, 4, 0);
        assert!(tend_above > 0.0);
    }
}
