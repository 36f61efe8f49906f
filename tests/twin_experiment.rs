//! The flagship integration test: a full ESSE twin experiment on the
//! primitive-equation ocean model.
//!
//! A hidden truth starts from a perturbed initial state and evolves
//! deterministically; ESSE forecasts uncertainty with a stochastic
//! ensemble, assimilates noisy observations of the truth, and must (a)
//! reduce the temperature-field error relative to the unassimilated
//! central forecast, (b) reduce the observation-space misfit, and (c)
//! shrink the retained error variance.

mod common;

use common::{smooth_t_prior, t_block_rmse};
use esse::core::adaptive::EnsembleSchedule;
use esse::core::model::{ForecastModel, PeForecastModel};
use esse::core::obs::ObsNetwork;
use esse::core::perturb::{PerturbConfig, PerturbationGenerator};
use esse::core::subspace::ErrorSubspace;
use esse::mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn esse_assimilation_beats_free_forecast() {
    let (pe, st0) = esse::ocean::scenario::monterey(14, 14, 4);
    let grid = pe.grid.clone();
    let model = PeForecastModel::new(pe);
    let mean0 = st0.pack();
    let span = 3.0 * 3600.0;

    // Prior uncertainty with physical structure.
    let prior = smooth_t_prior(&grid, 12, 0.5, 21);

    // The truth: an unknown draw from the prior, evolved deterministically.
    let gen = PerturbationGenerator::new(&prior, PerturbConfig::default());
    let truth0 = gen.perturb(&mean0, 9999);
    let truth = model.forecast(&truth0, 0.0, span, None).expect("truth run");

    // ESSE uncertainty forecast (MTC engine, modest ensemble).
    let cfg = MtcConfig {
        workers: 4,
        schedule: EnsembleSchedule::new(16, 32),
        tolerance: 0.1,
        duration: span,
        svd_stride: 8,
        max_rank: 16,
        ..Default::default()
    };
    // Observe the truth: SST everywhere (coarse swath) + two casts.
    let mut obs = ObsNetwork::merge(vec![
        ObsNetwork::sst_swath(&grid, 2, 0.01),
        ObsNetwork::ctd_cast(&grid, 4, 7, 0.01),
        ObsNetwork::ctd_cast(&grid, 8, 4, 0.01),
    ]);
    let mut rng = StdRng::seed_from_u64(5);
    obs.synthesize(&truth, &mut rng);

    let engine = MtcEsse::new(&model, cfg);
    let (fc, analysis) = engine.cycle(RunInit::new(&mean0, &prior), &obs).expect("cycle");
    assert!(fc.members_used >= 16, "members {}", fc.members_used);

    // (a) full temperature-field error shrinks.
    let rmse_prior = t_block_rmse(&grid, &fc.central, &truth);
    let rmse_post = t_block_rmse(&grid, &analysis.state, &truth);
    assert!(
        rmse_post < rmse_prior * 0.9,
        "analysis must beat the free forecast: {rmse_post} vs {rmse_prior}"
    );
    // (b) observation-space misfit shrinks.
    assert!(analysis.posterior_misfit < analysis.prior_misfit * 0.7);
    // (c) uncertainty shrinks.
    assert!(analysis.subspace.total_variance() < fc.subspace.total_variance());
}

#[test]
fn ensemble_spread_tracks_actual_error_growth() {
    // With a negligible initial uncertainty, the ensemble spread is the
    // accumulated *model error* (the stochastic dη forcing), which must
    // grow with the forecast horizon.
    let (pe, st0) = esse::ocean::scenario::monterey(12, 12, 3);
    let model = PeForecastModel::new(pe);
    let mean0 = st0.pack();
    let prior = ErrorSubspace::isotropic(&mut StdRng::seed_from_u64(3), mean0.len(), 4, 1e-10);

    let mut spreads = Vec::new();
    for hours in [2.0, 6.0] {
        let cfg = MtcConfig {
            workers: 4,
            schedule: EnsembleSchedule::new(12, 12),
            tolerance: 1e-12, // fixed-size ensemble
            duration: hours * 3600.0,
            svd_stride: 12,
            max_rank: 12,
            ..Default::default()
        };
        let engine = MtcEsse::new(&model, cfg);
        let fc = engine.run(RunInit::new(&mean0, &prior)).expect("forecast");
        spreads.push(fc.subspace.total_variance());
    }
    assert!(spreads[1] > spreads[0], "uncertainty should grow with horizon: {spreads:?}");
}

#[test]
fn truth_outside_subspace_is_only_partially_corrected() {
    // Observing-system sanity: if the truth's initial error has a big
    // component outside the prior subspace, the analysis cannot fully
    // recover it — but it must not *increase* the error either.
    let (pe, st0) = esse::ocean::scenario::monterey(12, 12, 3);
    let grid = pe.grid.clone();
    let model = PeForecastModel::new(pe);
    let mean0 = st0.pack();
    let span = 2.0 * 3600.0;
    let prior = smooth_t_prior(&grid, 6, 0.4, 77);
    // Truth error drawn from a DIFFERENT subspace (different seed).
    let rogue = smooth_t_prior(&grid, 6, 0.4, 1234);
    let gen = PerturbationGenerator::new(&rogue, PerturbConfig::default());
    let truth0 = gen.perturb(&mean0, 1);
    let truth = model.forecast(&truth0, 0.0, span, None).expect("truth");

    let cfg = MtcConfig {
        workers: 4,
        schedule: EnsembleSchedule::new(12, 24),
        tolerance: 0.1,
        duration: span,
        svd_stride: 8,
        max_rank: 12,
        ..Default::default()
    };
    let mut obs = ObsNetwork::sst_swath(&grid, 2, 0.01);
    let mut rng = StdRng::seed_from_u64(9);
    obs.synthesize(&truth, &mut rng);
    let engine = MtcEsse::new(&model, cfg);
    let (fc, analysis) = engine.cycle(RunInit::new(&mean0, &prior), &obs).expect("cycle");
    let rmse_prior = t_block_rmse(&grid, &fc.central, &truth);
    let rmse_post = t_block_rmse(&grid, &analysis.state, &truth);
    assert!(
        rmse_post <= rmse_prior * 1.05,
        "analysis must not degrade the state: {rmse_post} vs {rmse_prior}"
    );
}

#[test]
fn perturbation_generator_and_workflow_share_member_identity() {
    // The MTC property that makes retries/restarts safe: member j's
    // initial condition and model-error seed depend only on j, never on
    // which worker or in which order it ran.
    let (pe, st0) = esse::ocean::scenario::monterey(10, 10, 3);
    let model = PeForecastModel::new(pe);
    let mean0 = st0.pack();
    let grid_prior = ErrorSubspace::isotropic(&mut StdRng::seed_from_u64(2), mean0.len(), 4, 0.01);
    let gen = PerturbationGenerator::new(&grid_prior, PerturbConfig::default());
    let x_a = gen.perturb(&mean0, 17);
    let x_b = gen.perturb(&mean0, 17);
    assert_eq!(x_a, x_b);
    let f_a = model.forecast(&x_a, 0.0, 1800.0, Some(gen.forecast_seed(17))).unwrap();
    let f_b = model.forecast(&x_b, 0.0, 1800.0, Some(gen.forecast_seed(17))).unwrap();
    assert_eq!(f_a, f_b, "same member id must reproduce bitwise anywhere");
}
