//! Fig. 3 (serial) vs Fig. 4 (MTC) equivalence and behaviour:
//! with a fixed ensemble size the serial schedule, the 4-worker pool and
//! a straight-line reference write the same posterior bytes (member
//! identity is order- and worker-independent), and the MTC cancellation
//! machinery must account for every task.

mod common;

use common::smooth_t_prior;
use esse::core::adaptive::{CompletionPolicy, EnsembleSchedule};
use esse::core::model::{ForecastModel, PeForecastModel};
use esse::core::perturb::PerturbationGenerator;
use esse::core::subspace::{make_estimator, ErrorSubspace, SubspaceStrategy};
use esse::mtc::task::TaskState;
use esse::mtc::workflow::{MtcConfig, MtcEsse, RunInit};

fn fixed_size_config(n: usize, span: f64) -> MtcConfig {
    MtcConfig {
        workers: 4,
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(n, n),
        tolerance: 1e-12,
        duration: span,
        max_rank: n,
        svd_stride: n,
        completion: CompletionPolicy::UseCompleted,
        ..Default::default()
    }
}

/// Paper Fig. 3 written out: perturb, forecast and fold members `0..n`
/// in turn, then decompose the whole spread once.
fn straight_line_reference<M: ForecastModel>(
    model: &M,
    mean0: &[f64],
    prior: &ErrorSubspace,
    cfg: &MtcConfig,
    n: usize,
) -> (Vec<f64>, ErrorSubspace) {
    let gen = PerturbationGenerator::new(prior, cfg.perturb.clone());
    let (t0, span) = (cfg.start_time, cfg.duration);
    let central = model.forecast(mean0, t0, span, None).expect("central");
    let full = SubspaceStrategy::FullRecompute;
    let mut est =
        make_estimator(&full, central.clone(), cfg.mode_rel_tol, cfg.max_rank, cfg.linalg);
    for j in 0..n {
        let x0 = gen.perturb(mean0, j);
        let xf = model.forecast(&x0, t0, span, Some(gen.forecast_seed(j))).expect("member");
        est.add_member(j, &xf);
    }
    let update = est.estimate().expect("svd").expect("two or more members");
    (central, update.subspace)
}

#[test]
fn serial_and_mtc_estimate_the_same_subspace_on_the_ocean_model() {
    let (pe, st0) = esse::ocean::scenario::monterey(12, 12, 3);
    let grid = pe.grid.clone();
    let model = PeForecastModel::new(pe);
    let mean0 = st0.pack();
    let prior = smooth_t_prior(&grid, 8, 0.4, 11);
    let cfg = fixed_size_config(16, 2.0 * 3600.0);

    let (central, reference) = straight_line_reference(&model, &mean0, &prior, &cfg, 16);
    let serial = MtcEsse::new(&model, cfg.clone().serial());
    let serial = serial.run(RunInit::new(&mean0, &prior)).expect("serial");
    let mtc = MtcEsse::new(&model, cfg).run(RunInit::new(&mean0, &prior)).expect("mtc");

    for out in [&serial, &mtc] {
        assert_eq!(out.members_used, 16);
        assert_eq!(out.central, central, "central forecasts are deterministic");
        assert_eq!(out.subspace.modes.as_slice(), reference.modes.as_slice());
        assert_eq!(out.subspace.variances, reference.variances);
    }
}

#[test]
fn mtc_accounts_for_every_task_under_cancellation() {
    let (pe, st0) = esse::ocean::scenario::monterey(10, 10, 3);
    let grid = pe.grid.clone();
    let model = PeForecastModel::new(pe);
    let mean0 = st0.pack();
    let prior = smooth_t_prior(&grid, 8, 0.4, 5);
    let cfg = MtcConfig {
        workers: 4,
        pool_factor: 1.6, // heavy over-provisioning
        schedule: EnsembleSchedule::new(8, 64),
        tolerance: 0.15, // converge early → cancellations happen
        duration: 1800.0,
        svd_stride: 4,
        max_rank: 16,
        completion: CompletionPolicy::CancelImmediately,
        ..Default::default()
    };
    let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean0, &prior)).expect("mtc");
    // Conservation: every record is Done or Cancelled, and the counters
    // add up.
    let done = out.records.iter().filter(|r| r.state == TaskState::Done).count();
    let cancelled = out.records.iter().filter(|r| r.state == TaskState::Cancelled).count();
    assert_eq!(done + cancelled, out.records.len());
    assert_eq!(cancelled, out.members_cancelled);
    assert_eq!(
        done,
        out.members_used + out.members_failed + out.members_wasted,
        "done tasks split into used/failed/wasted"
    );
}

#[test]
fn workflow_scales_down_to_one_worker() {
    let (pe, st0) = esse::ocean::scenario::monterey(10, 10, 3);
    let grid = pe.grid.clone();
    let model = PeForecastModel::new(pe);
    let mean0 = st0.pack();
    let prior = smooth_t_prior(&grid, 6, 0.3, 8);
    let mcfg = fixed_size_config(8, 1800.0).serial();
    let out = MtcEsse::new(&model, mcfg).run(RunInit::new(&mean0, &prior)).expect("single worker");
    assert_eq!(out.members_used, 8);
    // All tasks ran on worker 0.
    for r in &out.records {
        if r.state == TaskState::Done {
            assert_eq!(r.worker, Some(0));
        }
    }
}
