//! Stochastic model-error forcing.
//!
//! ESSE integrates a *stochastic* ocean model: `dx = M(x,t) dt + dη`
//! with `dη` white in time but correlated in space (paper §3.1: state
//! augmentation turns time-correlated forcings into white intermediary
//! processes). The generator below produces horizontally-correlated
//! Gaussian fields by smoothing white noise with diffusion passes —
//! cheap, mask-aware, and with a controllable correlation length.

use crate::field::Field2;
use crate::grid::Grid;
use esse_linalg::random::randn;
use rand::Rng;

/// Spatially correlated noise generator for model-error forcing.
#[derive(Debug, Clone)]
pub struct NoiseGenerator {
    /// Standard deviation of the generated field (after smoothing).
    pub amplitude: f64,
    /// Number of diffusion (smoothing) passes; the correlation length is
    /// roughly `sqrt(passes) · dx`.
    pub smoothing_passes: usize,
}

impl NoiseGenerator {
    /// Generator with amplitude and a correlation length in grid cells.
    pub fn new(amplitude: f64, correlation_cells: f64) -> NoiseGenerator {
        let passes = (correlation_cells * correlation_cells).ceil().max(0.0) as usize;
        NoiseGenerator { amplitude, smoothing_passes: passes.min(200) }
    }

    /// Draw one horizontally correlated field with `amplitude` std-dev,
    /// zero on land.
    pub fn sample(&self, grid: &Grid, rng: &mut impl Rng) -> Field2 {
        let (nx, ny) = (grid.nx, grid.ny);
        let mut f =
            Field2::from_fn(nx, ny, |i, j| if grid.is_wet(i, j) { randn(rng) } else { 0.0 });
        // Diffusive smoothing (5-point, mask-aware), alternating between
        // two buffers: land cells are 0.0 in both and never written.
        let mut g = f.clone();
        for _ in 0..self.smoothing_passes {
            for j in 0..ny {
                for i in 0..nx {
                    if !grid.is_wet(i, j) {
                        continue;
                    }
                    let c = f.get(i, j);
                    let mut acc = 0.0;
                    let mut cnt = 0.0;
                    let mut push = |ii: usize, jj: usize| {
                        if grid.is_wet(ii, jj) {
                            acc += f.get(ii, jj);
                            cnt += 1.0;
                        }
                    };
                    if i > 0 {
                        push(i - 1, j);
                    }
                    if i + 1 < nx {
                        push(i + 1, j);
                    }
                    if j > 0 {
                        push(i, j - 1);
                    }
                    if j + 1 < ny {
                        push(i, j + 1);
                    }
                    let nb = if cnt > 0.0 { acc / cnt } else { c };
                    g.set(i, j, 0.5 * c + 0.5 * nb);
                }
            }
            std::mem::swap(&mut f, &mut g);
        }
        // Re-standardize to the requested amplitude over wet cells.
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let mut n = 0.0;
        for j in 0..ny {
            for i in 0..nx {
                if grid.is_wet(i, j) {
                    let v = f.get(i, j);
                    sum += v;
                    sum2 += v * v;
                    n += 1.0;
                }
            }
        }
        if n > 1.0 {
            let mean = sum / n;
            let std = ((sum2 / n - mean * mean).max(1e-30)).sqrt();
            let scale = self.amplitude / std;
            for j in 0..ny {
                for i in 0..nx {
                    if grid.is_wet(i, j) {
                        let v = (f.get(i, j) - mean) * scale;
                        f.set(i, j, v);
                    }
                }
            }
        }
        f
    }

    /// Sample correlation between two cells separated by `lag` cells in x,
    /// estimated over `trials` draws (diagnostics/tests).
    pub fn estimate_correlation(
        &self,
        grid: &Grid,
        rng: &mut impl Rng,
        lag: usize,
        trials: usize,
    ) -> f64 {
        let i0 = grid.nx / 3;
        let j0 = grid.ny / 2;
        let mut a = Vec::with_capacity(trials);
        let mut b = Vec::with_capacity(trials);
        for _ in 0..trials {
            let f = self.sample(grid, rng);
            a.push(f.get(i0, j0));
            b.push(f.get(i0 + lag, j0));
        }
        esse_linalg::stats::correlation(&a, &b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathymetry::Bathymetry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid() -> Grid {
        Grid::new(Bathymetry::flat(24, 24, 300.0), 3, 2000.0, 2000.0)
    }

    #[test]
    fn amplitude_is_respected() {
        let g = grid();
        let gen = NoiseGenerator::new(0.5, 2.0);
        let mut rng = StdRng::seed_from_u64(11);
        let f = gen.sample(&g, &mut rng);
        let vals: Vec<f64> = f.as_slice().to_vec();
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let std = (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt();
        assert!((std - 0.5).abs() < 0.05, "std = {std}");
    }

    #[test]
    fn smoothing_increases_correlation() {
        let g = grid();
        let mut rng = StdRng::seed_from_u64(5);
        let rough = NoiseGenerator::new(1.0, 0.0);
        let smooth = NoiseGenerator::new(1.0, 3.0);
        let c_rough = rough.estimate_correlation(&g, &mut rng, 2, 60);
        let c_smooth = smooth.estimate_correlation(&g, &mut rng, 2, 60);
        assert!(c_smooth > c_rough + 0.2, "smooth {c_smooth} vs rough {c_rough}");
    }

    #[test]
    fn land_stays_zero() {
        let mut b = Bathymetry::flat(10, 10, 100.0);
        b.depth.set(4, 4, -1.0);
        let g = Grid::new(b, 2, 1000.0, 1000.0);
        let gen = NoiseGenerator::new(1.0, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        let f = gen.sample(&g, &mut rng);
        assert_eq!(f.get(4, 4), 0.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let g = grid();
        let gen = NoiseGenerator::new(1.0, 1.0);
        let f1 = gen.sample(&g, &mut StdRng::seed_from_u64(9));
        let f2 = gen.sample(&g, &mut StdRng::seed_from_u64(9));
        assert_eq!(f1, f2);
    }
}
