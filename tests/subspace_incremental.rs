//! Property suite for the `SubspaceEstimator` API: the incremental
//! rank-updating tracker must agree with the full recompute within its
//! own tracked error bound on seeded random streams, drift refreshes
//! must fire on defect breaches, and the default `FullRecompute`
//! strategy must make the MTC engine's posterior a pure function of
//! the ordered member list.

use esse::core::adaptive::{CompletionPolicy, EnsembleSchedule};
use esse::core::convergence::similarity;
use esse::core::covariance::SpreadAccumulator;
use esse::core::model::{ForecastModel, LinearGaussianModel};
use esse::core::subspace::{make_estimator, ErrorSubspace, SubspaceStrategy, UpdateKind};
use esse::linalg::{LinalgCtx, Svd};
use esse::mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use esse_obs::{MetricsRegistry, RingRecorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded stream of forecasts around `central`: a low-rank signal
/// with decaying mode amplitudes plus white noise, the shape the
/// coordinator's differ actually sees.
fn forecast_stream(state: usize, members: usize, central: &[f64], seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let modes = 6;
    let basis: Vec<Vec<f64>> =
        (0..modes).map(|_| (0..state).map(|_| rng.gen::<f64>() - 0.5).collect()).collect();
    (0..members)
        .map(|_| {
            let mut x = central.to_vec();
            for (r, b) in basis.iter().enumerate() {
                let amp = (rng.gen::<f64>() - 0.5) * 2.0 / (1.0 + r as f64);
                for (xi, bi) in x.iter_mut().zip(b) {
                    *xi += amp * bi;
                }
            }
            for xi in x.iter_mut() {
                *xi += (rng.gen::<f64>() - 0.5) * 0.02;
            }
            x
        })
        .collect()
}

#[test]
fn incremental_agrees_with_full_within_tracked_bound_across_streams() {
    let (state, members, stride, max_rank) = (40, 64, 8, 8);
    let central = vec![0.5; state];
    for seed in [1u64, 2, 3, 5, 8] {
        let stream = forecast_stream(state, members, &central, seed);
        let mut full = make_estimator(
            &SubspaceStrategy::FullRecompute,
            central.clone(),
            1e-6,
            max_rank,
            LinalgCtx::serial(),
        );
        let mut inc = make_estimator(
            &SubspaceStrategy::Incremental { refresh_every: 0, defect_tol: 1e-3 },
            central.clone(),
            1e-6,
            max_rank,
            LinalgCtx::serial(),
        );
        for (j, x) in stream.iter().enumerate() {
            full.add_member(j, x);
            inc.add_member(j, x);
            if (j + 1) % stride != 0 {
                continue;
            }
            let f = full.estimate().unwrap().expect("full estimate");
            let i = inc.estimate().unwrap().expect("incremental estimate");
            assert_eq!(f.members, i.members);
            // Leading variances agree within the tracker's own bound.
            let tol = f.subspace.variances[0] * (i.error_bound + 1e-9);
            let lead = f.subspace.variances.len().min(i.subspace.variances.len());
            for k in 0..lead {
                let (a, b) = (f.subspace.variances[k], i.subspace.variances[k]);
                assert!(
                    (a - b).abs() <= tol,
                    "seed {seed} n={} variance {k}: full {a} vs inc {b} (tol {tol:.3e})",
                    j + 1
                );
            }
            // And the dominant subspaces align.
            let rho = similarity(&f.subspace, &i.subspace);
            assert!(rho > 0.999, "seed {seed} n={}: rho {rho}", j + 1);
            // Drift stays pinned by the tracker's re-orthonormalization.
            assert!(i.defect < 1e-3, "seed {seed}: defect {}", i.defect);
        }
    }
}

#[test]
fn defect_breach_forces_drift_refresh() {
    let state = 30;
    let central = vec![0.0; state];
    let stream = forecast_stream(state, 24, &central, 42);
    // A zero defect tolerance means any measurable defect (machine
    // epsilon included) breaches: every estimate after the first must
    // come back as a drift-triggered full recompute.
    let mut est = make_estimator(
        &SubspaceStrategy::Incremental { refresh_every: 0, defect_tol: 0.0 },
        central.clone(),
        1e-6,
        6,
        LinalgCtx::serial(),
    );
    let mut kinds = Vec::new();
    for (j, x) in stream.iter().enumerate() {
        est.add_member(j, x);
        if (j + 1) % 6 == 0 {
            kinds.push(est.estimate().unwrap().expect("estimate").kind);
        }
    }
    assert_eq!(kinds.len(), 4);
    assert!(
        kinds[1..].iter().all(|k| *k == UpdateKind::Refresh),
        "expected drift refreshes, got {kinds:?}"
    );

    // A generous tolerance never triggers: all later rounds stay
    // incremental folds.
    let mut est = make_estimator(
        &SubspaceStrategy::Incremental { refresh_every: 0, defect_tol: 1e-3 },
        central.clone(),
        1e-6,
        6,
        LinalgCtx::serial(),
    );
    let mut kinds = Vec::new();
    for (j, x) in stream.iter().enumerate() {
        est.add_member(j, x);
        if (j + 1) % 6 == 0 {
            kinds.push(est.estimate().unwrap().expect("estimate").kind);
        }
    }
    assert!(
        kinds[1..].iter().all(|k| *k == UpdateKind::Incremental),
        "expected incremental folds, got {kinds:?}"
    );
}

fn fixed_size_config(n: usize) -> MtcConfig {
    MtcConfig {
        workers: 4,
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(n, n),
        tolerance: 1e-12,
        duration: 10.0,
        max_rank: 8,
        svd_stride: 8,
        completion: CompletionPolicy::UseCompleted,
        ..Default::default()
    }
}

fn setup_model() -> (LinearGaussianModel, ErrorSubspace, Vec<f64>) {
    let rates = [0.98, 0.95, 0.6, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05];
    let model = LinearGaussianModel::diagonal(&rates, 0.05, 1.0);
    let mut rng = StdRng::seed_from_u64(11);
    let prior = ErrorSubspace::isotropic(&mut rng, 10, 6, 1.0);
    (model, prior, vec![0.0; 10])
}

fn assert_bitwise_equal(a: &ErrorSubspace, b: &ErrorSubspace, what: &str) {
    assert_eq!(a.rank(), b.rank(), "{what}: rank");
    for (x, y) in a.variances.iter().zip(b.variances.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: variance bits diverged: {x} vs {y}");
    }
    assert_eq!(a.modes.shape(), b.modes.shape(), "{what}: mode shape");
    for (i, (x, y)) in a.modes.as_slice().iter().zip(b.modes.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: mode entry {i} bits diverged");
    }
}

/// Agreement with a one-sided Jacobi SVD of the normalized spread:
/// 1e-10 relative on the variances, `1 − ρ < 1e-12` on the subspace.
fn assert_matches_jacobi(est: &ErrorSubspace, acc: &SpreadAccumulator, cfg: &MtcConfig) {
    let svd = Svd::jacobi(&acc.snapshot().matrix).expect("reference SVD");
    let reference = ErrorSubspace::from_spread_svd(&svd, cfg.mode_rel_tol, cfg.max_rank);
    assert_eq!(est.rank(), reference.rank());
    for (a, b) in est.variances.iter().zip(reference.variances.iter()) {
        assert!((a - b).abs() <= 1e-10 * b, "variance {a} vs Jacobi {b}");
    }
    let rho = similarity(est, &reference);
    assert!(1.0 - rho < 1e-12, "1 - rho = {:e}", 1.0 - rho);
}

/// What the system relies on from the default strategy: an estimator
/// asked at every stride ends bitwise equal (modes and variances) to a
/// fresh one fed the same members in the same order and asked once —
/// whatever order the workers delivered them in — and both agree with
/// a Jacobi reference.
#[test]
fn fullrecompute_posterior_is_a_pure_function_of_the_member_list() {
    let n = 24usize;
    let (model, prior, mean) = setup_model();
    let cfg = fixed_size_config(n);
    assert_eq!(cfg.subspace, SubspaceStrategy::FullRecompute, "FullRecompute is the default");
    let fresh_estimator = |central: &[f64]| {
        make_estimator(
            &cfg.subspace,
            central.to_vec(),
            cfg.mode_rel_tol,
            cfg.max_rank,
            LinalgCtx::serial(),
        )
    };

    // One worker delivers in id order, so the engine's estimator (asked
    // at every stride) can be compared bit for bit with a fresh one.
    let serial_cfg = MtcConfig { workers: 1, ..cfg.clone() };
    let out = MtcEsse::new(&model, serial_cfg).run(RunInit::new(&mean, &prior)).unwrap();
    assert_eq!(out.members_used, n);
    assert!(out.svd_rounds >= 3, "the engine estimator was asked at every stride");

    // Rebuild every member forecast from its deterministic seed.
    let gen = esse::core::perturb::PerturbationGenerator::new(&prior, cfg.perturb.clone());
    let forecasts: Vec<Vec<f64>> = (0..n)
        .map(|j| {
            let x0 = gen.perturb(&mean, j);
            model.forecast(&x0, cfg.start_time, cfg.duration, Some(gen.forecast_seed(j))).unwrap()
        })
        .collect();
    let mut once = fresh_estimator(&out.central);
    let mut acc = SpreadAccumulator::new(out.central.clone());
    for (j, xf) in forecasts.iter().enumerate() {
        once.add_member(j, xf);
        acc.add_member(j, xf);
    }
    let fresh = once.estimate().unwrap().expect("two or more members").subspace;
    assert_bitwise_equal(&out.subspace, &fresh, "engine vs fresh estimator");
    assert_matches_jacobi(&fresh, &acc, &cfg);

    // Four workers deliver in whatever order they finish: the same
    // subspace to roundoff.
    let out4 = MtcEsse::new(&model, cfg.clone()).run(RunInit::new(&mean, &prior)).unwrap();
    assert_eq!(out4.members_used, n);
    assert_matches_jacobi(&out4.subspace, &acc, &cfg);

    // Any delivery order, seen from the estimator: strided == asked once.
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..5 {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let (mut strided, mut once) =
            (fresh_estimator(&out.central), fresh_estimator(&out.central));
        let mut last = None;
        for (k, &j) in order.iter().enumerate() {
            strided.add_member(j, &forecasts[j]);
            once.add_member(j, &forecasts[j]);
            if (k + 1) % cfg.svd_stride == 0 {
                last = strided.estimate().unwrap();
            }
        }
        let (a, b) = (last.unwrap().subspace, once.estimate().unwrap().unwrap().subspace);
        assert_bitwise_equal(&a, &b, "strided vs asked once");
    }
}

/// Switching the engine to the incremental strategy keeps the posterior
/// within the tracked bound of the full recompute and surfaces the new
/// per-kind timings and drift gauge through the metrics registry and
/// the trace.
#[test]
fn incremental_engine_matches_full_and_surfaces_observability() {
    let n = 32usize;
    let (model, prior, mean) = setup_model();
    let full_out =
        MtcEsse::new(&model, fixed_size_config(n)).run(RunInit::new(&mean, &prior)).unwrap();

    let registry = MetricsRegistry::new();
    let ring = RingRecorder::new();
    let cfg = MtcConfig::builder()
        .workers(4)
        .pool_factor(1.0)
        .schedule(EnsembleSchedule::new(n, n))
        .tolerance(1e-12)
        .duration(10.0)
        .max_rank(8)
        .svd_stride(8)
        .completion(CompletionPolicy::UseCompleted)
        .subspace(SubspaceStrategy::Incremental { refresh_every: 3, defect_tol: 1e-6 })
        .linalg(LinalgCtx::serial())
        .build()
        .unwrap();
    let inc_out = MtcEsse::new(&model, cfg)
        .with_metrics(&registry)
        .with_recorder(&ring)
        .run(RunInit::new(&mean, &prior))
        .unwrap();

    assert_eq!(full_out.members_used, inc_out.members_used);
    let rho = similarity(&full_out.subspace, &inc_out.subspace);
    assert!(rho > 0.999, "posterior subspaces diverged: rho {rho}");

    // The split histograms cover the new lane: at least one incremental
    // fold and at least one refresh ran (refresh_every: 3 over 4 rounds),
    // and the drift gauge was published.
    let snap = registry.snapshot();
    let updates = snap.histogram("esse_subspace_update_ns").expect("update histogram").count();
    let refreshes = snap.histogram("esse_subspace_refresh_ns").expect("refresh histogram").count();
    assert!(updates > 0, "no incremental updates observed");
    assert!(refreshes > 0, "no refreshes observed");
    assert!(snap.gauge("esse_subspace_defect").is_some(), "defect gauge missing");

    // The nested spans land in the trace next to the stable outer
    // "svd" span, named by update flavour.
    let trace = ring.drain();
    let names: Vec<&str> = trace.events.iter().map(|e| e.name).collect();
    assert!(names.contains(&"svd"), "outer svd span missing");
    assert!(names.contains(&"subspace_update"), "subspace_update span missing");
    assert!(names.contains(&"subspace_refresh"), "subspace_refresh span missing");
}
