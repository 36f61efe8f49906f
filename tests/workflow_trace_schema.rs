//! The observable schema of `MtcEsse::run`: every trace event it emits,
//! as `(cat, name)` plus the argument keys, and every `esse_*` metric it
//! registers. Downstream consumers (`esse_obs::analyze`, `trace_report`,
//! the baseline gate) match on these strings, so a refactor of the
//! engine must leave them alone.
//!
//! Seeded scenarios drive the recovery paths — retry, quarantine and
//! replacement, speculation, per-task timeout, the Tmax deadline — and
//! the schedule paths (resume, stage growth, convergence).
//! Which paths a timing-dependent scenario takes varies run to run, so
//! the pin has two halves: every event seen must be in [`SCHEMA`] with
//! exactly those keys, and every event in it outside [`RACY`] must be
//! seen.

use esse::core::adaptive::EnsembleSchedule;
use esse::core::model::LinearGaussianModel;
use esse::core::subspace::{ErrorSubspace, SubspaceStrategy};
use esse::core::validate::{ForecastValidator, ValidatorConfig, VarBounds};
use esse::mtc::fault::{FaultPlan, RetryPolicy};
use esse::mtc::journal::{Checkpoint, JournalRecord};
use esse::mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use esse_obs::{EventKind, MetricsRegistry, RingRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::time::Duration;

/// `(cat, name, kind, arg keys)` of every event the engine may emit.
/// `sched/enqueued` has two shapes: first issue and reissue.
const SCHEMA: &[(&str, &str, &str, &[&str])] = &[
    ("counter", "members_done", "counter", &[]),
    ("counter", "members_failed", "counter", &[]),
    ("counter", "members_wasted", "counter", &[]),
    ("counter", "retries", "counter", &[]),
    ("counter", "timeouts", "counter", &[]),
    ("fault", "member_lost", "instant", &["member", "epoch"]),
    ("fault", "member_quarantined", "instant", &["member", "epoch", "reason"]),
    ("fault", "retry_scheduled", "instant", &["member", "epoch", "delay_ms"]),
    ("fault", "speculative_launch", "instant", &["member", "epoch"]),
    ("fault", "speculative_loss", "instant", &["member", "epoch"]),
    ("fault", "speculative_win", "instant", &["member", "epoch"]),
    ("fault", "worker_died", "instant", &["worker"]),
    ("phase", "central_forecast", "begin", &[]),
    ("phase", "central_forecast", "end", &[]),
    ("pool", "fencing_rejected", "instant", &["member", "epoch", "current"]),
    ("pool", "lease_expired", "instant", &["member", "epoch"]),
    ("pool", "lease_granted", "instant", &["member", "epoch"]),
    ("pool", "replacement_scheduled", "instant", &["member", "epoch", "reason"]),
    ("pool", "result_ingested", "instant", &["member", "epoch"]),
    ("pool", "task_seeded", "instant", &["member", "epoch", "span", "incarnation"]),
    ("sched", "enqueued", "instant", &["member"]),
    ("sched", "enqueued", "instant", &["member", "attempt"]),
    ("svd", "convergence_check", "instant", &["rho", "members"]),
    ("svd", "subspace_refresh", "begin", &["defect", "error_bound"]),
    ("svd", "subspace_refresh", "end", &[]),
    ("svd", "subspace_update", "begin", &["defect", "error_bound"]),
    ("svd", "subspace_update", "end", &[]),
    ("svd", "svd", "begin", &["members"]),
    ("svd", "svd", "end", &[]),
    ("svd", "svd_final", "begin", &["members"]),
    ("svd", "svd_final", "end", &[]),
    ("svd", "svd_published", "instant", &["members", "version"]),
    ("task", "member", "begin", &["member", "attempt"]),
    ("task", "member", "end", &[]),
    ("task", "member_failed", "instant", &["member", "attempt"]),
    ("workflow", "converged", "instant", &["rho", "members"]),
    ("workflow", "deadline_expired", "instant", &["tmax_ms"]),
    ("workflow", "degraded", "instant", &["coverage", "lost", "quarantined", "replaced"]),
    ("workflow", "resumed", "instant", &["members"]),
];

/// Which side of a speculation race lands first is up to the scheduler;
/// every other event in [`SCHEMA`] is reached on every run.
const RACY: &[&str] = &["speculative_loss", "speculative_win"];

/// Every metric `MtcEsse::with_metrics` registers.
const METRICS: &[&str] = &[
    "esse_convergence_rho",
    "esse_coverage",
    "esse_members_done",
    "esse_member_runtime_ns",
    "esse_pool_fencing_rejected_total",
    "esse_pool_lease_expired_total",
    "esse_pool_lease_granted_total",
    "esse_pool_lease_renewed_total",
    "esse_pool_results_ingested_total",
    "esse_pool_tasks_seeded_total",
    "esse_queue_wait_ns",
    "esse_quarantined_total",
    "esse_replaced_total",
    "esse_retries_total",
    "esse_speculative_launches_total",
    "esse_speculative_losses_total",
    "esse_speculative_wins_total",
    "esse_subspace_defect",
    "esse_subspace_refresh_ns",
    "esse_subspace_update_ns",
    "esse_task_attempts_total",
    "esse_task_timeouts_total",
    "esse_tasks_cancelled_total",
    "esse_tasks_completed_total",
    "esse_tasks_failed_total",
    "esse_tasks_wasted_total",
    "esse_workers_died_total",
];

fn fixed(n: usize, workers: usize) -> MtcConfig {
    MtcConfig {
        workers,
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(n, n),
        tolerance: 1e-12,
        duration: 10.0,
        max_rank: 6,
        svd_stride: 8,
        ..Default::default()
    }
}

type Shape = (&'static str, &'static str, &'static str, Vec<&'static str>);

/// Run `cfg` on a `dim`-variable linear model, traced and metered; add
/// the event shapes seen to `seen` and check the metric names.
fn observe(seen: &mut BTreeSet<Shape>, dim: usize, cfg: MtcConfig, validate: bool, resumed: usize) {
    let model = LinearGaussianModel::diagonal(&vec![0.5; dim], 0.05, 1.0);
    let prior = ErrorSubspace::isotropic(&mut StdRng::seed_from_u64(7), dim, 6, 1.0);
    let mean = vec![0.0; dim];
    // What a previous incarnation left: `resumed` completed members.
    let dir = std::env::temp_dir().join(format!("esse-schema-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ck = Checkpoint::create(&dir, 1).expect("checkpoint");
    for j in 0..resumed as u64 {
        ck.store().write_forecast(j, &vec![0.1 * j as f64; dim]).expect("member forecast");
        let done = JournalRecord::MemberCompleted { member: j, attempts: 1 };
        ck.journal().append(&done).expect("journal");
    }
    let (ring, registry) = (RingRecorder::new(), MetricsRegistry::new());
    let mut engine = MtcEsse::new(&model, cfg).with_recorder(&ring).with_metrics(&registry);
    if resumed > 0 {
        engine = engine.with_checkpoint(&ck);
    }
    if validate {
        let bounds = vec![VarBounds { name: "x", range: 0..dim, lo: -1e3, hi: 1e3 }];
        let validator = ForecastValidator::new(bounds, mean.clone(), ValidatorConfig::default());
        engine = engine.with_validator(validator);
    }
    // A deadline run may legitimately end in `EsseError::Deadline`.
    let _ = engine.run(RunInit::new(&mean, &prior));
    let _ = std::fs::remove_dir_all(&dir);
    let trace = ring.drain();
    trace.check_well_formed().expect("well-formed trace");
    for ev in &trace.events {
        let kind = match ev.kind {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Instant => "instant",
            EventKind::Counter(_) => "counter",
        };
        seen.insert((ev.cat, ev.name, kind, ev.args.iter().map(|(k, _)| *k).collect()));
    }
    let snap = registry.snapshot();
    let counters = snap.counters.iter().map(|(n, _)| n.as_str());
    let gauges = snap.gauges.iter().map(|(n, _)| n.as_str());
    let names: BTreeSet<&str> =
        counters.chain(gauges).chain(snap.histograms.iter().map(|(n, _)| n.as_str())).collect();
    assert_eq!(names, METRICS.iter().copied().collect(), "the registered metric names changed");
}

#[test]
fn trace_events_and_metric_names_are_pinned() {
    let mut seen = BTreeSet::new();
    let ms = Duration::from_millis;

    // Retry, quarantine → replacement, a scripted worker death. Every
    // attempt that runs takes 3 ms, so each worker gets its share.
    let mut cfg = fixed(24, 3);
    let plan = FaultPlan::seeded(11).with_crashes(0.25).with_stragglers(0.75, ms(3));
    cfg.faults = Some(plan.with_corruption(0.3).with_worker_death(1, 1));
    cfg.retry = RetryPolicy::retries(8);
    observe(&mut seen, 6, cfg, true, 0);

    // No budget: crashes and quarantines are lost, the run is degraded.
    let mut cfg = fixed(16, 2);
    cfg.faults = Some(FaultPlan::seeded(3).with_crashes(0.25).with_corruption(0.45));
    observe(&mut seen, 6, cfg, true, 0);

    // Speculation against long stragglers.
    let mut cfg = fixed(16, 4);
    cfg.faults = Some(FaultPlan::seeded(17).with_stragglers(0.25, ms(120)));
    cfg.retry = RetryPolicy::retries(3).with_speculation(3.0);
    observe(&mut seen, 6, cfg, false, 0);

    // Per-task timeout.
    let mut cfg = fixed(12, 4);
    cfg.faults = Some(FaultPlan::seeded(11).with_stragglers(0.5, ms(40)));
    cfg.retry = RetryPolicy::retries(6).with_timeout(ms(10));
    observe(&mut seen, 6, cfg, false, 0);

    // The Tmax deadline cuts an ensemble of 20 ms members short.
    let mut cfg = fixed(64, 2);
    cfg.faults = Some(FaultPlan::seeded(1).with_stragglers(1.0, ms(20)));
    cfg.deadline = Some(ms(200));
    observe(&mut seen, 6, cfg, false, 0);

    // A resumed run that grows through its stages without converging,
    // on a state wide enough for the rank-updating lane.
    let mut cfg = fixed(8, 4);
    cfg.schedule = EnsembleSchedule::new(8, 32);
    cfg.subspace = SubspaceStrategy::Incremental { refresh_every: 8, defect_tol: 1e-6 };
    observe(&mut seen, 48, cfg, false, 2);

    // Convergence cancels the queued part of an over-provisioned pool
    // (2 ms members, so the queue outlasts the two SVD rounds).
    let mut cfg = fixed(16, 4);
    cfg.schedule = EnsembleSchedule::new(16, 256);
    cfg.tolerance = 0.05;
    cfg.pool_factor = 4.0;
    cfg.faults = Some(FaultPlan::seeded(1).with_stragglers(1.0, ms(2)));
    observe(&mut seen, 6, cfg, false, 0);

    let schema: BTreeSet<Shape> =
        SCHEMA.iter().map(|&(c, n, k, a)| (c, n, k, a.to_vec())).collect();
    let unknown: Vec<_> = seen.difference(&schema).collect();
    assert!(unknown.is_empty(), "events outside the pinned schema: {unknown:?}");
    let missed: Vec<_> = schema.difference(&seen).filter(|e| !RACY.contains(&e.1)).collect();
    assert!(missed.is_empty(), "no scenario emitted {missed:?}");
}
