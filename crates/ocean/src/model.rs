//! The primitive-equation model driver (`pemodel` of the paper).

use crate::boundary::Sponge;
use crate::dynamics::{self as dyn_ops, Cell, WetNeighbours};
use crate::eos;
use crate::field::Field3;
use crate::forcing::Forcing;
use crate::grid::Grid;
use crate::state::OceanState;
use crate::stochastic::NoiseGenerator;
use crate::{GRAVITY, RHO0};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Model parameters.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Baroclinic time step (s).
    pub dt: f64,
    /// Horizontal eddy viscosity (m²/s).
    pub ah: f64,
    /// Horizontal tracer diffusivity (m²/s).
    pub kh: f64,
    /// Vertical tracer diffusivity (m²/s).
    pub kv: f64,
    /// Vertical momentum viscosity (m²/s); clamped per column so the
    /// explicit scheme stays stable over thin stretched surface layers.
    pub kv_m: f64,
    /// Linear bottom drag coefficient (1/s on the bottom layer).
    pub bottom_drag: f64,
    /// Interior Rayleigh drag (1/s, all layers) — weak, bounds the
    /// coastal jet where the coarse A-grid under-resolves frontal shear.
    pub rayleigh_drag: f64,
    /// Sponge width (cells) at open boundaries.
    pub sponge_width: usize,
    /// Sponge e-folding time at the boundary (s).
    pub sponge_tau: f64,
    /// Stochastic model-error std-dev applied to the T tendency (°C per step).
    pub noise_t: f64,
    /// Stochastic model-error correlation length (cells).
    pub noise_corr_cells: f64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            dt: 300.0,
            ah: 100.0,
            kh: 50.0,
            kv: 1e-4,
            kv_m: 5e-3,
            bottom_drag: 2e-5,
            rayleigh_drag: 3e-6,
            sponge_width: 4,
            sponge_tau: 2.0 * 86400.0,
            noise_t: 0.02,
            noise_corr_cells: 3.0,
        }
    }
}

/// Errors the integrator can report.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A prognostic field became non-finite at the given model time (s).
    NumericalBlowup {
        /// Model time (s) at which the blow-up was detected.
        time: f64,
    },
    /// The requested time step violates the advective CFL bound.
    CflViolation {
        /// The configured step (s).
        dt: f64,
        /// The largest stable step (s).
        limit: f64,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NumericalBlowup { time } => {
                write!(f, "numerical blow-up at model time {time} s")
            }
            ModelError::CflViolation { dt, limit } => {
                write!(f, "dt = {dt} s violates CFL limit {limit} s")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Smallest layer thickness among level `k` and its vertical neighbours
/// (the explicit-diffusion stability scale).
fn grid_min_dz(g: &Grid, i: usize, j: usize, k: usize) -> f64 {
    let mut dz = g.layer_thickness(i, j, k);
    if k > 0 {
        dz = dz.min(g.layer_thickness(i, j, k - 1));
    }
    if k + 1 < g.nz {
        dz = dz.min(g.layer_thickness(i, j, k + 1));
    }
    dz.max(1e-3)
}

/// Everything a step would otherwise re-derive from the grid, forcing,
/// sponge and reference profile: constant per model, built once. 3-D
/// tables are in the [`Field3`] layout, 2-D ones row-major.
struct Tables {
    wet: Vec<bool>,
    neighbours: Vec<WetNeighbours>,
    /// Layer thickness of every cell.
    h: Field3,
    /// [`grid_min_dz`] of every cell.
    min_dz: Field3,
    /// Reference density anomaly at every cell's center depth.
    rho_ref: Field3,
    /// Vertical profile of the model error, `exp(−z/150 m)`.
    decay: Field3,
    /// Model-error suppression inside the sponge band, per column.
    sponge_damp: Vec<f64>,
    /// [`Forcing::coastal_factor`] per column index `i`.
    coastal: Vec<f64>,
    /// [`Forcing::latitude_factor`] per row.
    latitude: Vec<f64>,
    /// Sigma-layer fractions `sigma_w[k+1] − sigma_w[k]`.
    dsigma: Vec<f64>,
    faces: Faces,
    /// [`Grid::barotropic_dt_limit`].
    dt_bt: f64,
}

impl Tables {
    fn new(
        g: &Grid,
        forcing: &Forcing,
        config: &ModelConfig,
        sponge: &Sponge,
        rho_ref: &dyn_ops::RefProfile,
    ) -> Tables {
        let (nx, ny, nz) = (g.nx, g.ny, g.nz);
        Tables {
            wet: dyn_ops::per_column(g, |i, j| g.is_wet(i, j)),
            neighbours: dyn_ops::per_column(g, |i, j| WetNeighbours::of(g, i, j)),
            h: dyn_ops::layer_thicknesses(g),
            min_dz: Field3::from_fn(nx, ny, nz, |i, j, k| grid_min_dz(g, i, j, k)),
            rho_ref: rho_ref.at_levels(g),
            decay: Field3::from_fn(nx, ny, nz, |i, j, k| (-(g.level_depth(i, j, k)) / 150.0).exp()),
            sponge_damp: dyn_ops::per_column(g, |i, j| {
                1.0 - (sponge.rate(i, j) * config.sponge_tau).min(1.0)
            }),
            coastal: (0..nx).map(|i| forcing.coastal_factor(g, i)).collect(),
            latitude: (0..ny).map(|j| Forcing::latitude_factor(g, j)).collect(),
            dsigma: (0..nz).map(|k| g.sigma_w[k + 1] - g.sigma_w[k]).collect(),
            faces: Faces::new(g),
            dt_bt: g.barotropic_dt_limit(),
        }
    }
}

/// C-grid faces of the barotropic subcycle: x-face `(i−½, j)` at
/// `j·(nx+1) + i`, y-face `(i, j−½)` at `j·nx + i`. A face is open when
/// the cells on both sides are wet. A closed face has depth 0.0 and its
/// velocity is held at +0.0, so fluxes and divergences sum over every
/// face without asking which are open — with the same bits as skipping
/// the closed ones.
struct Faces {
    open_x: Vec<bool>,
    h_x: Vec<f64>,
    open_y: Vec<bool>,
    h_y: Vec<f64>,
    /// Open x-faces (west + east) of each cell, at least 1.
    nopen_x: Vec<f64>,
    /// Open y-faces (south + north) of each cell, at least 1.
    nopen_y: Vec<f64>,
}

impl Faces {
    fn new(g: &Grid) -> Faces {
        let (nx, ny) = (g.nx, g.ny);
        let fx = |i: usize, j: usize| j * (nx + 1) + i;
        let fy = |i: usize, j: usize| j * nx + i;
        let mut open_x = vec![false; (nx + 1) * ny];
        let mut h_x = vec![0.0f64; (nx + 1) * ny];
        for j in 0..ny {
            for i in 1..nx {
                if g.is_wet(i - 1, j) && g.is_wet(i, j) {
                    open_x[fx(i, j)] = true;
                    h_x[fx(i, j)] = 0.5 * (g.depth(i - 1, j) + g.depth(i, j));
                }
            }
        }
        let mut open_y = vec![false; nx * (ny + 1)];
        let mut h_y = vec![0.0f64; nx * (ny + 1)];
        for j in 1..ny {
            for i in 0..nx {
                if g.is_wet(i, j - 1) && g.is_wet(i, j) {
                    open_y[fy(i, j)] = true;
                    h_y[fy(i, j)] = 0.5 * (g.depth(i, j - 1) + g.depth(i, j));
                }
            }
        }
        let count = |a: bool, b: bool| (a as u32 + b as u32).max(1) as f64;
        let nopen_x = dyn_ops::per_column(g, |i, j| count(open_x[fx(i, j)], open_x[fx(i + 1, j)]));
        let nopen_y = dyn_ops::per_column(g, |i, j| count(open_y[fy(i, j)], open_y[fy(i, j + 1)]));
        Faces { open_x, h_x, open_y, h_y, nopen_x, nopen_y }
    }
}

/// The stochastic primitive-equation model: grid + forcing + parameters
/// + climatology (initial state, used by the sponge).
///
/// `grid`, `forcing`, `config` and `climatology` are construction
/// inputs. What `new` derives from them — the sponges, the noise
/// generator, the reference density profile and the geometry and forcing
/// tables the step runs on — is not rebuilt when a field is changed
/// afterwards: to change a parameter, build a new model from the changed
/// inputs. (Replacing `climatology` as a sponge target between steps is
/// fine; the reference profile keeps the one it was built from.)
pub struct PeModel {
    /// Model grid.
    pub grid: Grid,
    /// Atmospheric forcing.
    pub forcing: Forcing,
    /// Numerical and physical parameters.
    pub config: ModelConfig,
    /// Climatological state the open boundaries relax to.
    pub climatology: OceanState,
    sponge: Sponge,
    sponge_vel: Sponge,
    noise: NoiseGenerator,
    tables: Tables,
}

impl PeModel {
    /// Build a model; `climatology` is both the sponge target and the
    /// reference state.
    pub fn new(
        grid: Grid,
        forcing: Forcing,
        config: ModelConfig,
        climatology: OceanState,
    ) -> PeModel {
        let sponge = Sponge::new(&grid, config.sponge_width, config.sponge_tau);
        // Velocities are absorbed five times faster than tracers so that
        // boundary jets exit cleanly instead of reflecting.
        let sponge_vel = Sponge::new(&grid, config.sponge_width, config.sponge_tau / 5.0);
        let noise = NoiseGenerator::new(config.noise_t, config.noise_corr_cells);
        // Reference profile from the climatology: cancels the
        // sigma-coordinate pressure-gradient error of the resting state.
        let rho_ref = dyn_ops::RefProfile::from_state(&grid, &climatology, 64);
        let tables = Tables::new(&grid, &forcing, &config, &sponge, &rho_ref);
        PeModel { grid, forcing, config, climatology, sponge, sponge_vel, noise, tables }
    }

    /// Packed state-vector length.
    pub fn state_dim(&self) -> usize {
        OceanState::packed_len(&self.grid)
    }

    /// Advance `state` by one baroclinic step of the configured `dt`.
    /// When `rng` is `Some`, the stochastic model-error forcing is applied
    /// (ESSE ensemble members); `None` integrates the deterministic
    /// central forecast.
    pub fn step(&self, state: &mut OceanState, rng: Option<&mut StdRng>) -> Result<(), ModelError> {
        self.step_dt(state, rng, self.config.dt)
    }

    /// Advance by one step of length `dt` seconds. The stochastic forcing
    /// amplitude is scaled by `√(dt/config.dt)` so that subcycled steps
    /// accumulate the same noise variance per unit time.
    pub fn step_dt(
        &self,
        state: &mut OceanState,
        rng: Option<&mut StdRng>,
        dt: f64,
    ) -> Result<(), ModelError> {
        let limit = self.cfl_limit(state);
        self.advance(state, rng, dt, limit)
    }

    /// Advective CFL limit (s) of `state`: one scan for the fastest cell.
    fn cfl_limit(&self, state: &OceanState) -> f64 {
        let umax = state.max_speed().max(0.01);
        0.9 * self.grid.dx.min(self.grid.dy) / umax
    }

    /// [`PeModel::step_dt`] with `state`'s CFL limit already known.
    fn advance(
        &self,
        state: &mut OceanState,
        rng: Option<&mut StdRng>,
        dt: f64,
        limit: f64,
    ) -> Result<(), ModelError> {
        if dt > limit {
            return Err(ModelError::CflViolation { dt, limit });
        }
        let (nx, ny, nz) = (self.grid.nx, self.grid.ny, self.grid.nz);
        let tb = &self.tables;
        let n2 = nx * ny;
        let time = state.time;

        // --- 1. Baroclinic pressure from the current T/S. ---
        let mut phi = Field3::zeros(nx, ny, nz);
        dyn_ops::pressure_into(&mut phi, &state.t, &state.s, &tb.h, &tb.rho_ref, &tb.wet);

        // --- 2. Provisional momentum update (everything except the
        //        barotropic surface-pressure gradient). ---
        let (mut u_star, mut v_star) = self.momentum(state, &phi, dt);

        // --- 3. Split-explicit barotropic subcycle on the depth means of
        //        the provisional velocity. ---
        let mut mean_u = vec![0.0; n2];
        let mut mean_v = vec![0.0; n2];
        for ((&w, u), v) in tb
            .dsigma
            .iter()
            .zip(u_star.as_slice().chunks_exact(n2))
            .zip(v_star.as_slice().chunks_exact(n2))
        {
            for c in 0..n2 {
                mean_u[c] += w * u[c];
                mean_v[c] += w * v[c];
            }
        }
        let mut ubar = mean_u.clone();
        let mut vbar = mean_v.clone();
        let mut eta = state.eta.clone();
        self.barotropic(&mut ubar, &mut vbar, eta.as_mut_slice(), dt);

        // --- 4. Recombine: replace the depth mean of u* with the final
        //        barotropic velocity. ---
        for (u, v) in u_star
            .as_mut_slice()
            .chunks_exact_mut(n2)
            .zip(v_star.as_mut_slice().chunks_exact_mut(n2))
        {
            for c in 0..n2 {
                if tb.wet[c] {
                    u[c] += ubar[c] - mean_u[c];
                    v[c] += vbar[c] - mean_v[c];
                }
            }
        }

        // --- 5. Tracer advection-diffusion with the *old* velocity
        //        (explicit, upwind) + surface fluxes + model error. ---
        let (mut t_new, mut s_new) = self.tracers(state, rng, dt);

        // --- 5b. Convective adjustment: hydrostatic models cannot
        //        resolve convection, so density inversions created by
        //        upwelling or surface cooling are removed by mixing
        //        adjacent layers (thickness-weighted), as in HOPS-class
        //        models. ---
        self.convect(&mut t_new, &mut s_new);

        // --- 6. Sponge relaxation toward climatology at open boundaries. ---
        let clim = &self.climatology;
        for (f, target, sponge) in [
            (&mut t_new, &clim.t, &self.sponge),
            (&mut s_new, &clim.s, &self.sponge),
            (&mut u_star, &clim.u, &self.sponge_vel),
            (&mut v_star, &clim.v, &self.sponge_vel),
        ] {
            for (level, target) in
                f.as_mut_slice().chunks_exact_mut(n2).zip(target.as_slice().chunks_exact(n2))
            {
                sponge.relax_level(dt, level, target);
            }
        }
        self.sponge.relax_level(dt, eta.as_mut_slice(), clim.eta.as_slice());

        // Volume constraint: an open regional domain with sponges does not
        // conserve volume exactly; remove the spurious domain-mean drift.
        {
            let mut sum = 0.0;
            let mut n = 0.0;
            for (&e, _) in eta.as_slice().iter().zip(&tb.wet).filter(|(_, &wet)| wet) {
                sum += e;
                n += 1.0;
            }
            if n > 0.0 {
                let mean = sum / n;
                for (e, _) in eta.as_mut_slice().iter_mut().zip(&tb.wet).filter(|(_, &wet)| wet) {
                    *e += -mean;
                }
            }
        }

        state.u = u_star;
        state.v = v_star;
        state.t = t_new;
        state.s = s_new;
        state.eta = eta;
        state.time = time + dt;

        if state.has_nan() {
            return Err(ModelError::NumericalBlowup { time: state.time });
        }
        Ok(())
    }

    /// Step 2: the provisional velocity `(u*, v*)` — baroclinic pressure
    /// gradient, viscosity, wind, drag, then the Coriolis rotation.
    fn momentum(&self, state: &OceanState, phi: &Field3, dt: f64) -> (Field3, Field3) {
        let g = &self.grid;
        let cfg = &self.config;
        let tb = &self.tables;
        let (nx, ny, nz) = (g.nx, g.ny, g.nz);
        let n2 = nx * ny;
        let (u, v, phi) = (state.u.as_slice(), state.v.as_slice(), phi.as_slice());
        let mut u_star = state.u.clone();
        let mut v_star = state.v.clone();
        // Semi-implicit Coriolis: exact rotation of the provisional
        // velocity by angle f·dt. The barotropic subcycle is rotation-free
        // — Coriolis acts on the full velocity exactly once per baroclinic
        // step (an O(f·dt) splitting error, and unconditionally neutral,
        // unlike explicit rotation inside the subcycle which amplifies by
        // √(1+f²Δt²) per substep).
        let rotation: Vec<(f64, f64)> = (0..ny)
            .map(|j| {
                let f = g.coriolis(j);
                ((f * dt).cos(), (f * dt).sin())
            })
            .collect();
        let (amp_x, amp_y) = self.forcing.wind_amplitudes(state.time);
        for k in 0..nz {
            for (j, &(cth, sth)) in rotation.iter().enumerate() {
                for i in 0..nx {
                    let c2 = j * nx + i;
                    if !tb.wet[c2] {
                        continue;
                    }
                    let n = k * n2 + c2;
                    let cell = Cell { n, k, nx, n2, nz, wet: tb.neighbours[c2] };
                    let h = |kk: usize| tb.h.as_slice()[kk * n2 + c2];
                    // Vertical viscosity clamped for explicit stability on
                    // thin (stretched-sigma) surface layers.
                    let dz_min = tb.min_dz.as_slice()[n];
                    let kvm = cfg.kv_m.min(0.2 * dz_min * dz_min / dt);
                    let mut du = -cell.ddx(phi, g.dx)
                        + cfg.ah * cell.laplacian(u, g.dx, g.dy)
                        + cell.vertical_diffusion(u, kvm, h);
                    let mut dv = -cell.ddy(phi, g.dy)
                        + cfg.ah * cell.laplacian(v, g.dx, g.dy)
                        + cell.vertical_diffusion(v, kvm, h);
                    // Wind stress enters the top layer; linear drag the bottom.
                    if k == 0 {
                        let (tx, ty) = (amp_x * tb.latitude[j], amp_y * tb.coastal[i]);
                        let h0 = h(0).max(1e-3);
                        du += tx / (RHO0 * h0);
                        dv += ty / (RHO0 * h0);
                    }
                    if k == nz - 1 {
                        du -= cfg.bottom_drag * u[n];
                        dv -= cfg.bottom_drag * v[n];
                    }
                    du -= cfg.rayleigh_drag * u[n];
                    dv -= cfg.rayleigh_drag * v[n];
                    let u0 = u[n] + dt * du;
                    let v0 = v[n] + dt * dv;
                    u_star.as_mut_slice()[n] = cth * u0 + sth * v0;
                    v_star.as_mut_slice()[n] = -sth * u0 + cth * v0;
                }
            }
        }
        (u_star, v_star)
    }

    /// Step 3: the split-explicit barotropic subcycle. `ubar`/`vbar`
    /// carry the depth-mean velocity in and the subcycled one out (wet
    /// cells); `eta` advances in place.
    ///
    /// C-grid: face-normal velocities (`uf` between cells in x, `vf` in
    /// y), conservative flux divergence for η. The C-grid staggering has
    /// consistent gradient/divergence adjoints and exactly closed
    /// boundaries, which the collocated form lacks (an A-grid
    /// forward-backward subcycle pumps energy at edges). Every loop runs
    /// over row slices without branching: see [`Faces`].
    fn barotropic(&self, ubar: &mut [f64], vbar: &mut [f64], eta: &mut [f64], dt: f64) {
        let g = &self.grid;
        let fa = &self.tables.faces;
        let (nx, ny, dx, dy) = (g.nx, g.ny, g.dx, g.dy);
        let dt_bt = self.tables.dt_bt.min(dt);
        let n_sub = (dt / dt_bt).ceil() as usize;
        let dt_bt = dt / n_sub as f64;
        // Row `j` of the x-faces, of the y-faces on its southern edge
        // (`yrow(j + 1)` is its northern edge) and of the cells.
        let xrow = |j: usize| j * (nx + 1)..(j + 1) * (nx + 1);
        let yrow = |j: usize| j * nx..(j + 1) * nx;
        let crow = yrow;

        // Face velocities from the cell-centered depth means.
        let mut uf = vec![0.0f64; (nx + 1) * ny];
        let mut vf = vec![0.0f64; nx * (ny + 1)];
        for j in 0..ny {
            let (uf, open, ub) = (&mut uf[xrow(j)], &fa.open_x[xrow(j)], &ubar[crow(j)]);
            for i in 1..nx {
                uf[i] = if open[i] { 0.5 * (ub[i - 1] + ub[i]) } else { 0.0 };
            }
        }
        for j in 1..ny {
            let (vf, open) = (&mut vf[yrow(j)], &fa.open_y[yrow(j)]);
            let (vs, vn) = (&vbar[crow(j - 1)], &vbar[crow(j)]);
            for i in 0..nx {
                vf[i] = if open[i] { 0.5 * (vs[i] + vn[i]) } else { 0.0 };
            }
        }

        // Divergence damping coefficient (m²/s): damps divergent
        // (inertia-gravity) modes that the rotation/gravity splitting
        // can otherwise pump, without touching geostrophic flow — the
        // standard stabilizer of split-explicit free-surface models.
        let nu_div = 0.01 * dx.min(dy).powi(2) / dt_bt;
        let mut divg = vec![0.0f64; nx * ny];
        for _ in 0..n_sub {
            // Velocity divergence at cell centers (0.0 on land: every
            // face of a land cell is closed).
            for j in 0..ny {
                let (d, uf) = (&mut divg[crow(j)], &uf[xrow(j)]);
                let (vs, vn) = (&vf[yrow(j)], &vf[yrow(j + 1)]);
                for i in 0..nx {
                    d[i] = (uf[i + 1] - uf[i]) / dx + (vn[i] - vs[i]) / dy;
                }
            }
            // Momentum on faces (forward): -g dη/dn + ν_d ∂(∇·u)/∂n.
            for j in 0..ny {
                let (uf, open) = (&mut uf[xrow(j)], &fa.open_x[xrow(j)]);
                let (e, d) = (&eta[crow(j)], &divg[crow(j)]);
                for i in 1..nx {
                    let detax = (e[i] - e[i - 1]) / dx;
                    let ddiv = (d[i] - d[i - 1]) / dx;
                    let next = uf[i] + dt_bt * (-GRAVITY * detax + nu_div * ddiv);
                    uf[i] = if open[i] { next } else { 0.0 };
                }
            }
            for j in 1..ny {
                let (vf, open) = (&mut vf[yrow(j)], &fa.open_y[yrow(j)]);
                let (es, en) = (&eta[crow(j - 1)], &eta[crow(j)]);
                let (ds, dn) = (&divg[crow(j - 1)], &divg[crow(j)]);
                for i in 0..nx {
                    let detay = (en[i] - es[i]) / dy;
                    let ddiv = (dn[i] - ds[i]) / dy;
                    let next = vf[i] + dt_bt * (-GRAVITY * detay + nu_div * ddiv);
                    vf[i] = if open[i] { next } else { 0.0 };
                }
            }
            // Continuity (backward): exactly conservative flux divergence.
            // A land cell's divergence is +0.0, and η + (−dt·0.0) = η.
            for j in 0..ny {
                let (e, uf, hx) = (&mut eta[crow(j)], &uf[xrow(j)], &fa.h_x[xrow(j)]);
                let (vs, vn) = (&vf[yrow(j)], &vf[yrow(j + 1)]);
                let (hs, hn) = (&fa.h_y[yrow(j)], &fa.h_y[yrow(j + 1)]);
                for i in 0..nx {
                    let div = (hx[i + 1] * uf[i + 1] - hx[i] * uf[i]) / dx
                        + (hn[i] * vn[i] - hs[i] * vs[i]) / dy;
                    e[i] += -dt_bt * div;
                }
            }
        }

        // Map face velocities back to the cell-centered depth means.
        for j in 0..ny {
            let (ub, vb) = (&mut ubar[crow(j)], &mut vbar[crow(j)]);
            let (uf, nu, nv) = (&uf[xrow(j)], &fa.nopen_x[crow(j)], &fa.nopen_y[crow(j)]);
            let (vs, vn) = (&vf[yrow(j)], &vf[yrow(j + 1)]);
            for i in 0..nx {
                ub[i] = (uf[i] + uf[i + 1]) / nu[i];
                vb[i] = (vs[i] + vn[i]) / nv[i];
            }
        }
    }

    /// Step 5: T and S advanced by upwind advection with the old
    /// velocity, diffusion, the surface heat flux and (with `rng`) the
    /// model error.
    fn tracers(&self, state: &OceanState, rng: Option<&mut StdRng>, dt: f64) -> (Field3, Field3) {
        let g = &self.grid;
        let cfg = &self.config;
        let tb = &self.tables;
        let (nx, ny, nz) = (g.nx, g.ny, g.nz);
        let n2 = nx * ny;
        let (u, v) = (state.u.as_slice(), state.v.as_slice());
        let (t, s) = (state.t.as_slice(), state.s.as_slice());
        let mut t_new = state.t.clone();
        let mut s_new = state.s.clone();
        // Stochastic model error: one correlated field per step scaled by
        // a vertical profile decaying with depth.
        let noise_scale = (dt / cfg.dt).sqrt();
        let noise_field = rng.map(|r| self.noise.sample(g, r));
        // Surface heat flux: Q / (rho0 cp h).
        let q = self.forcing.heat_flux(g, 0, 0, state.time);
        let mut wcol = vec![0.0; nz + 1];
        for c2 in 0..n2 {
            if !tb.wet[c2] {
                continue;
            }
            let column = Cell { n: c2, k: 0, nx, n2, nz, wet: tb.neighbours[c2] };
            let h = |kk: usize| tb.h.as_slice()[kk * n2 + c2];
            column.w_column(&mut wcol, (u, v), (g.dx, g.dy), h);
            for k in 0..nz {
                let cell = column.level(k);
                let n = cell.n;
                let mut dtt = cell.upwind(t, u[n], v[n], g.dx, g.dy)
                    + cell.vertical_advection(t, &wcol, h)
                    + cfg.kh * cell.laplacian(t, g.dx, g.dy)
                    + cell.vertical_diffusion(t, cfg.kv, h);
                let dss = cell.upwind(s, u[n], v[n], g.dx, g.dy)
                    + cell.vertical_advection(s, &wcol, h)
                    + cfg.kh * cell.laplacian(s, g.dx, g.dy)
                    + cell.vertical_diffusion(s, cfg.kv, h);
                if k == 0 {
                    let h0 = h(0).max(1e-3);
                    dtt += q / (RHO0 * 3990.0 * h0);
                }
                t_new.as_mut_slice()[n] += dt * dtt;
                s_new.as_mut_slice()[n] += dt * dss;
                if let Some(nf) = &noise_field {
                    // Model error concentrated in the upper ocean and
                    // suppressed inside the sponge band: the boundary
                    // zone is pinned to exterior data, so perturbing it
                    // would fabricate spurious boundary uncertainty.
                    t_new.as_mut_slice()[n] += nf.as_slice()[c2]
                        * tb.decay.as_slice()[n]
                        * noise_scale
                        * tb.sponge_damp[c2];
                }
            }
        }
        (t_new, s_new)
    }

    /// Step 5b: mix adjacent layers of each wet column until it is
    /// statically stable (at most `nz` passes).
    fn convect(&self, t: &mut Field3, s: &mut Field3) {
        let tb = &self.tables;
        let (n2, nz) = (tb.wet.len(), self.grid.nz);
        let (t, s, h) = (t.as_mut_slice(), s.as_mut_slice(), tb.h.as_slice());
        for c2 in 0..n2 {
            if !tb.wet[c2] {
                continue;
            }
            for _pass in 0..nz {
                let mut mixed = false;
                for k in 0..nz - 1 {
                    let (up, dn) = (k * n2 + c2, (k + 1) * n2 + c2);
                    let r_up = eos::density_anomaly(t[up], s[up]);
                    let r_dn = eos::density_anomaly(t[dn], s[dn]);
                    if r_up > r_dn + 1e-12 {
                        let (h1, h2) = (h[up], h[dn]);
                        let w1 = h1 / (h1 + h2);
                        let w2 = 1.0 - w1;
                        let tm = w1 * t[up] + w2 * t[dn];
                        let sm = w1 * s[up] + w2 * s[dn];
                        t[up] = tm;
                        t[dn] = tm;
                        s[up] = sm;
                        s[dn] = sm;
                        mixed = true;
                    }
                }
                if !mixed {
                    break;
                }
            }
        }
    }

    /// Integrate `state` forward by `duration` seconds (rounded up to a
    /// whole number of baroclinic steps).
    ///
    /// Adaptive: when sharpened coastal jets push the advective CFL below
    /// the configured step, the step is subcycled (up to 16×) instead of
    /// failing — an ensemble member should survive vigorous frontal
    /// events. Beyond 16× the state is declared blown up.
    pub fn run(
        &self,
        state: &mut OceanState,
        duration: f64,
        mut rng: Option<&mut StdRng>,
    ) -> Result<usize, ModelError> {
        let steps = (duration / self.config.dt).ceil().max(0.0) as usize;
        // One speed scan per (sub)step serves both the subcycling
        // decision here and the CFL guard of the step that follows.
        let mut cfl = self.cfl_limit(state);
        for _ in 0..steps {
            // 60% headroom: the jet can accelerate within the step.
            let n_sub = (1.6 * self.config.dt / cfl).ceil().max(1.0) as usize;
            if n_sub > 16 {
                return Err(ModelError::NumericalBlowup { time: state.time });
            }
            let dt_sub = self.config.dt / n_sub as f64;
            for _ in 0..n_sub {
                self.advance(state, rng.as_deref_mut(), dt_sub, cfl)?;
                cfl = self.cfl_limit(state);
            }
        }
        Ok(steps)
    }

    /// ESSE-facing packed interface: integrate the packed state `x0`
    /// forward `duration` seconds with the stochastic forcing seeded by
    /// `seed` (deterministic per seed); `seed = None` runs the
    /// deterministic central forecast.
    pub fn forecast(
        &self,
        x0: &[f64],
        start_time: f64,
        duration: f64,
        seed: Option<u64>,
    ) -> Result<Vec<f64>, ModelError> {
        let mut st = OceanState::unpack(&self.grid, x0);
        st.time = start_time;
        match seed {
            Some(s) => {
                let mut rng = StdRng::seed_from_u64(s);
                self.run(&mut st, duration, Some(&mut rng))?;
            }
            None => {
                self.run(&mut st, duration, None)?;
            }
        }
        Ok(st.pack())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathymetry::Bathymetry;
    use crate::scenario;

    fn small_model(noise_t: f64) -> (PeModel, OceanState) {
        let grid = Grid::new(Bathymetry::flat(12, 12, 200.0), 3, 2000.0, 2000.0);
        let clim = OceanState::resting(&grid, 12.0, 33.5);
        let cfg = ModelConfig { noise_t, ..ModelConfig::default() };
        let model = PeModel::new(grid, Forcing::calm(), cfg, clim.clone());
        (model, clim)
    }

    /// Mean sea-surface temperature over wet cells (°C).
    fn mean_sst(grid: &Grid, state: &OceanState) -> f64 {
        let wet = (0..grid.ny).flat_map(|j| (0..grid.nx).map(move |i| (i, j)));
        let sst: Vec<f64> =
            wet.filter(|&(i, j)| grid.is_wet(i, j)).map(|(i, j)| state.t.get(i, j, 0)).collect();
        sst.iter().sum::<f64>() / sst.len() as f64
    }

    #[test]
    fn resting_state_stays_resting_without_forcing() {
        let (model, mut st) = small_model(0.0);
        model.run(&mut st, 6.0 * 3600.0, None).unwrap();
        assert!(st.max_speed() < 1e-10, "speed {}", st.max_speed());
        let (lo, hi) = st.eta.min_max();
        assert!(lo.abs() < 1e-10 && hi.abs() < 1e-10);
        let (tlo, thi) = st.t.min_max();
        assert!((tlo - 12.0).abs() < 1e-9 && (thi - 12.0).abs() < 1e-9);
    }

    #[test]
    fn wind_spins_up_currents() {
        let grid = Grid::new(Bathymetry::flat(12, 12, 200.0), 3, 2000.0, 2000.0);
        let clim = OceanState::resting(&grid, 12.0, 33.5);
        let cfg = ModelConfig { noise_t: 0.0, ..ModelConfig::default() };
        let model = PeModel::new(grid, Forcing::steady_upwelling(-0.1), cfg, clim.clone());
        let mut st = clim;
        model.run(&mut st, 12.0 * 3600.0, None).unwrap();
        assert!(st.max_speed() > 0.005, "speed {}", st.max_speed());
        assert!(!st.has_nan());
    }

    #[test]
    fn stochastic_members_diverge_deterministically() {
        let (model, st) = small_model(0.05);
        let x0 = st.pack();
        let a = model.forecast(&x0, 0.0, 3600.0, Some(1)).unwrap();
        let b = model.forecast(&x0, 0.0, 3600.0, Some(2)).unwrap();
        let a2 = model.forecast(&x0, 0.0, 3600.0, Some(1)).unwrap();
        assert_eq!(a, a2, "same seed must reproduce bitwise");
        assert_ne!(a, b, "different seeds must diverge");
    }

    #[test]
    fn central_forecast_is_deterministic() {
        let (model, st) = small_model(0.05);
        let x0 = st.pack();
        let a = model.forecast(&x0, 0.0, 3600.0, None).unwrap();
        let b = model.forecast(&x0, 0.0, 3600.0, None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cfl_violation_detected() {
        let (model, mut st) = small_model(0.0);
        // Inject an absurd velocity.
        st.u.set(5, 5, 0, 50.0);
        let err = model.step(&mut st, None).unwrap_err();
        assert!(matches!(err, ModelError::CflViolation { .. }));
    }

    #[test]
    fn monterey_scenario_runs_one_day_stably() {
        let (model, mut st) = scenario::monterey(24, 24, 5);
        let mut rng = StdRng::seed_from_u64(4);
        model.run(&mut st, 86400.0, Some(&mut rng)).unwrap();
        assert!(!st.has_nan());
        let (tlo, thi) = st.t.min_max();
        assert!(tlo > 0.0 && thi < 30.0, "T range [{tlo}, {thi}]");
        assert!(st.max_speed() < 3.0, "speed {}", st.max_speed());
    }

    #[test]
    fn barotropic_seiche_decays_never_grows() {
        // Regression for the split-scheme instability: an initial
        // free-surface bump in a closed basin must ring down, never grow
        // (the A-grid subcycle and the explicit-Coriolis subcycle both
        // failed this within simulated days).
        let mut grid = Grid::new(Bathymetry::flat(20, 20, 400.0), 3, 3000.0, 3000.0);
        grid.beta = 0.0;
        let mut st = OceanState::resting(&grid, 12.0, 33.5);
        for j in 0..20 {
            for i in 0..20 {
                let dx = (i as f64 - 9.5) / 3.0;
                let dy = (j as f64 - 9.5) / 3.0;
                st.eta.set(i, j, 0.05 * (-(dx * dx + dy * dy)).exp());
            }
        }
        let clim = OceanState::resting(&grid, 12.0, 33.5);
        let cfg = ModelConfig { noise_t: 0.0, ..ModelConfig::default() };
        let model = PeModel::new(grid.clone(), Forcing::calm(), cfg, clim);
        let mut peak: f64 = 0.0;
        for _ in 0..150 {
            model.step(&mut st, None).unwrap();
            peak = peak.max(st.eta.min_max().1.abs()).max(st.eta.min_max().0.abs());
        }
        // 150 steps = 12.5 h: amplitude bounded by the initial bump and
        // the state ends smaller than it started.
        assert!(peak < 0.10, "seiche amplitude grew: {peak}");
        let (lo, hi) = st.eta.min_max();
        assert!(lo.abs().max(hi.abs()) < 0.05, "seiche must decay: [{lo}, {hi}]");
        assert!(st.max_speed() < 0.05);
    }

    #[test]
    fn baroclinic_shear_reaches_thermal_wind_balance() {
        // Warm-north temperature front: geostrophy demands
        // du/dz = (g/(f rho0)) d(rho)/dy < 0 — eastward at depth,
        // westward at the surface. Check sign and magnitude of the
        // adjusted shear after 2 days.
        let mut grid = Grid::new(Bathymetry::flat(24, 24, 400.0), 4, 20_000.0, 20_000.0);
        grid.beta = 0.0;
        let mut st = OceanState::resting(&grid, 12.0, 33.5);
        for j in 0..24 {
            for i in 0..24 {
                let y = (j as f64 - 11.5) / 3.0;
                for k in 0..grid.nz {
                    st.t.set(i, j, k, 12.0 + y.tanh());
                }
            }
        }
        let clim = st.clone();
        let cfg = ModelConfig { noise_t: 0.0, ..ModelConfig::default() };
        let model = PeModel::new(grid.clone(), Forcing::calm(), cfg, clim);
        model.run(&mut st, 2.0 * 86400.0, None).unwrap();
        let (i, j) = (12, 12);
        let dtdy = (st.t.get(i, j + 1, 0) - st.t.get(i, j - 1, 0)) / (2.0 * grid.dy);
        let f = grid.coriolis(j);
        let dz = grid.level_depth(i, j, grid.nz - 1) - grid.level_depth(i, j, 0);
        // d(rho)/dy = -alpha dT/dy; du(top-bottom) = (g/(f rho0)) d(rho)/dy * dz.
        let du_expect = crate::GRAVITY * (-crate::eos::EOS_ALPHA) * dtdy / (crate::RHO0 * f) * dz;
        let du_model = st.u.get(i, j, 0) - st.u.get(i, j, grid.nz - 1);
        assert!(
            du_model.signum() == du_expect.signum(),
            "shear sign: model {du_model} vs thermal wind {du_expect}"
        );
        let ratio = du_model / du_expect;
        assert!(
            (0.6..1.6).contains(&ratio),
            "thermal-wind ratio {ratio} (model {du_model}, expected {du_expect})"
        );
    }

    #[test]
    fn upwelling_wind_drives_coastal_upwelling_and_cooling() {
        // Steady equatorward wind along an eastern coast drives offshore
        // Ekman transport in the surface layer; continuity demands upward
        // vertical velocity at the coast, and the domain SST cools as
        // colder thermocline water is mixed up.
        let (model, mut st) = scenario::upwelling_test(20, 16, 4);
        let g = &model.grid;
        let sst0 = mean_sst(g, &st);
        model.run(&mut st, 2.0 * 86400.0, None).unwrap();
        // Surface-layer offshore (westward, u < 0) Ekman flow near the coast.
        let mut u_coast = 0.0;
        let mut w_coast = 0.0;
        let mut n = 0.0;
        for j in 4..g.ny - 4 {
            let mut lw = 0;
            for i in 0..g.nx {
                if g.is_wet(i, j) {
                    lw = i;
                }
            }
            u_coast += st.u.get(lw, j, 0);
            let wcol = crate::dynamics::diagnose_w_column(g, &st.u, &st.v, lw, j);
            // Upper-interface vertical velocities (below the surface layer).
            w_coast += wcol[1];
            n += 1.0;
        }
        u_coast /= n;
        w_coast /= n;
        assert!(u_coast < -1e-4, "expected offshore surface Ekman flow, got u = {u_coast}");
        assert!(w_coast > 1e-7, "expected coastal upwelling, got w = {w_coast}");
        let sst1 = mean_sst(g, &st);
        assert!(sst1 < sst0 - 0.02, "SST should cool: {sst0} -> {sst1}");
    }
}
