//! Multi-cycle real-time operation (paper Fig. 1): successive
//! forecast-assimilation cycles where each cycle's posterior subspace
//! seeds the next cycle's perturbations — plus the smoother pass that
//! re-analyses the past with newer data.

mod common;

use common::{smooth_t_prior, t_block_rmse};
use esse::core::adaptive::EnsembleSchedule;
use esse::core::covariance::SpreadAccumulator;
use esse::core::model::{ForecastModel, PeForecastModel};
use esse::core::obs::ObsNetwork;
use esse::core::perturb::{PerturbConfig, PerturbationGenerator};
use esse::core::smoother::smooth;
use esse::mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn two_cycle_assimilation_keeps_improving() {
    let (pe, st0) = esse::ocean::scenario::monterey(12, 12, 3);
    let grid = pe.grid.clone();
    let model = PeForecastModel::new(pe);
    let mean0 = st0.pack();
    let span = 2.0 * 3600.0;
    let prior = smooth_t_prior(&grid, 10, 0.5, 31);

    // Truth from a prior draw, evolving deterministically over 2 cycles.
    let gen = PerturbationGenerator::new(&prior, PerturbConfig::default());
    let truth0 = gen.perturb(&mean0, 4242);
    let truth1 = model.forecast(&truth0, 0.0, span, None).expect("truth c1");
    let truth2 = model.forecast(&truth1, span, span, None).expect("truth c2");

    let mk_cfg = |start: f64| MtcConfig {
        workers: 4,
        schedule: EnsembleSchedule::new(12, 24),
        tolerance: 0.1,
        duration: span,
        start_time: start,
        svd_stride: 6,
        max_rank: 12,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(17);

    // --- Cycle 1. ---
    let mut obs1 = ObsNetwork::sst_swath(&grid, 2, 0.01);
    obs1.synthesize(&truth1, &mut rng);
    let (fc1, an1) = MtcEsse::new(&model, mk_cfg(0.0))
        .cycle(RunInit::new(&mean0, &prior), &obs1)
        .expect("cycle1");
    let rmse_c1_prior = t_block_rmse(&grid, &fc1.central, &truth1);
    let rmse_c1_post = t_block_rmse(&grid, &an1.state, &truth1);
    assert!(rmse_c1_post < rmse_c1_prior);

    // --- Cycle 2: posterior state + posterior subspace carry forward,
    //     with the standard multiplicative variance inflation that keeps
    //     the subspace from collapsing after a well-observed analysis. ---
    let mut carried = an1.subspace.clone();
    for v in &mut carried.variances {
        *v *= 3.0;
    }
    let mut obs2 = ObsNetwork::sst_swath(&grid, 2, 0.01);
    obs2.synthesize(&truth2, &mut rng);
    let engine = MtcEsse::new(&model, mk_cfg(span));
    let (fc2, an2) = engine.cycle(RunInit::new(&an1.state, &carried), &obs2).expect("cycle2");
    let rmse_c2_prior = t_block_rmse(&grid, &fc2.central, &truth2);
    let rmse_c2_post = t_block_rmse(&grid, &an2.state, &truth2);
    // After a successful cycle 1 the forecast error sits at the
    // observation-noise floor; at the floor an analysis is statistically
    // neutral on the full field (it can wiggle either way by overfitting
    // obs noise). The meaningful multi-cycle property is *no filter
    // divergence*: the cycle-2 estimates stay locked on the truth, far
    // below the cycle-1 free-forecast error.
    assert!(
        rmse_c2_post < 0.5 * rmse_c1_prior,
        "filter diverged: cycle-2 posterior {rmse_c2_post} vs cycle-1 free forecast {rmse_c1_prior}"
    );
    assert!(an2.posterior_misfit <= an2.prior_misfit * 1.05);

    // Cycling pays: the cycle-2 forecast (from the analysis) is already
    // better than the cycle-1 free forecast was.
    assert!(
        rmse_c2_prior < rmse_c1_prior,
        "cycled forecast {rmse_c2_prior} should beat first free forecast {rmse_c1_prior}"
    );
}

#[test]
fn smoother_improves_the_past_state_estimate() {
    let (pe, st0) = esse::ocean::scenario::monterey(10, 10, 3);
    let grid = pe.grid.clone();
    let model = PeForecastModel::new(pe);
    let mean0 = st0.pack();
    let span = 1800.0;
    let prior = smooth_t_prior(&grid, 8, 0.5, 99);
    let gen = PerturbationGenerator::new(&prior, PerturbConfig::default());

    // Truth and its later observation.
    let truth0 = gen.perturb(&mean0, 777);
    let truth1 = model.forecast(&truth0, 0.0, span, None).expect("truth");

    // Matched ensemble snapshots at t0 and t1.
    let mut acc0 = SpreadAccumulator::new(mean0.clone());
    let central1 = model.forecast(&mean0, 0.0, span, None).expect("central");
    let mut acc1 = SpreadAccumulator::new(central1.clone());
    for j in 0..16 {
        let x0 = gen.perturb(&mean0, j);
        let x1 = model.forecast(&x0, 0.0, span, Some(gen.forecast_seed(j))).expect("member");
        acc0.add_member(j, &x0);
        acc1.add_member(j, &x1);
    }

    let mut obs = ObsNetwork::sst_swath(&grid, 2, 0.01);
    let mut rng = StdRng::seed_from_u64(12);
    obs.synthesize(&truth1, &mut rng);

    let res =
        smooth(&mean0, &acc0.snapshot(), &central1, &acc1.snapshot(), &obs).expect("smoother");
    assert_eq!(res.members_used, 16);
    let rmse_before = t_block_rmse(&grid, &mean0, &truth0);
    let rmse_after = t_block_rmse(&grid, &res.state, &truth0);
    assert!(
        rmse_after < rmse_before,
        "smoothing with future data must improve the past: {rmse_after} vs {rmse_before}"
    );
}
