//! Figure 2 reproduction (F2): the ESSE convergence loop — the
//! similarity coefficient ρ between successive error-subspace estimates
//! as the ensemble grows, and the adaptive N schedule it drives.
//!
//! Run on both the analytic linear-Gaussian model (where the true
//! dominant subspace is known) and the real primitive-equation ocean
//! model.
//!
//! ```text
//! cargo run --release -p esse-bench --bin convergence
//! ```

use esse_core::adaptive::EnsembleSchedule;
use esse_core::convergence::{similarity, subspace_from_spread};
use esse_core::covariance::SpreadAccumulator;
use esse_core::model::{ForecastModel, LinearGaussianModel, PeForecastModel};
use esse_core::perturb::{PerturbConfig, PerturbationGenerator};
use esse_core::subspace::ErrorSubspace;
use esse_mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use esse_ocean::scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rho_curve<M: ForecastModel>(
    model: &M,
    mean0: &[f64],
    prior: &ErrorSubspace,
    duration: f64,
    stages: &[usize],
    max_rank: usize,
) -> Vec<(usize, f64)> {
    let gen = PerturbationGenerator::new(prior, PerturbConfig::default());
    let central = model.forecast(mean0, 0.0, duration, None).expect("central");
    let mut acc = SpreadAccumulator::new(central);
    let mut previous: Option<ErrorSubspace> = None;
    let mut curve = Vec::new();
    let mut j = 0usize;
    for &target in stages {
        while acc.count() < target {
            let x0 = gen.perturb(mean0, j);
            if let Ok(xf) = model.forecast(&x0, 0.0, duration, Some(gen.forecast_seed(j))) {
                acc.add_member(j, &xf);
            }
            j += 1;
        }
        if let Some(est) = subspace_from_spread(&acc.snapshot().matrix, 1e-4, max_rank) {
            if let Some(prev) = &previous {
                curve.push((target, similarity(prev, &est)));
            }
            previous = Some(est);
        }
    }
    curve
}

fn main() {
    println!("== Figure 2: error-subspace convergence (similarity rho vs ensemble size) ==\n");

    // --- Linear-Gaussian model with a known 3-mode dominant subspace. ---
    let rates = [0.99, 0.97, 0.95, 0.3, 0.25, 0.2, 0.15, 0.1];
    let lin = LinearGaussianModel::diagonal(&rates, 0.05, 1.0);
    let mut rng = StdRng::seed_from_u64(11);
    let prior = ErrorSubspace::isotropic(&mut rng, 8, 8, 1.0);
    let stages: Vec<usize> = vec![8, 16, 32, 64, 128, 256, 512];
    let curve = rho_curve(&lin, &[0.0; 8], &prior, 20.0, &stages, 8);
    println!("linear-Gaussian model (true dominant rank 3):");
    println!("  {:>6} {:>8}", "N", "rho");
    for (n, rho) in &curve {
        println!("  {n:>6} {rho:>8.4}");
    }
    let last = curve.last().map(|c| c.1).unwrap_or(0.0);
    println!("  -> rho climbs toward 1 with N (last = {last:.4}); the Fig. 2 loop stops when\n     rho >= 1 - tol.\n");

    // --- The real ocean model (coarse, short window). ---
    let (pe, st0) = scenario::monterey(14, 14, 3);
    let model = PeForecastModel::new(pe);
    let mean0 = st0.pack();
    let mut rng = StdRng::seed_from_u64(3);
    let prior = ErrorSubspace::isotropic(&mut rng, mean0.len(), 12, 0.04);
    let stages = vec![6, 12, 24, 48];
    let curve = rho_curve(&model, &mean0, &prior, 3.0 * 3600.0, &stages, 24);
    println!("primitive-equation ocean model (3 h window, 14x14x3 domain):");
    println!("  {:>6} {:>8}", "N", "rho");
    for (n, rho) in &curve {
        println!("  {n:>6} {rho:>8.4}");
    }

    // --- The adaptive schedule in action on the serial (Fig. 3) schedule. ---
    println!("\nadaptive N schedule (serial schedule, tolerance 0.05):");
    let cfg = MtcConfig {
        schedule: EnsembleSchedule::new(8, 512),
        tolerance: 0.05,
        duration: 20.0,
        max_rank: 8,
        ..Default::default()
    };
    let esse = MtcEsse::new(&lin, cfg.serial());
    let mut rng = StdRng::seed_from_u64(5);
    let prior = ErrorSubspace::isotropic(&mut rng, 8, 8, 1.0);
    let fc = esse.run(RunInit::new(&[0.0; 8], &prior)).expect("forecast");
    println!(
        "  converged = {} after {} members (rho history {:?})",
        fc.converged,
        fc.members_used,
        fc.rho_history.iter().map(|r| (r * 1000.0).round() / 1000.0).collect::<Vec<_>>()
    );
}
