//! Cross-crate observability integration: the `esse-obs` ring recorder
//! wired through the real-thread MTC engine, on the pool and on the
//! serial (one-worker) schedule, with the trace cross-checked against the
//! engine's own bookkeeping.

use esse_core::adaptive::EnsembleSchedule;
use esse_core::model::{ForecastError, ForecastModel, LinearGaussianModel};
use esse_core::subspace::ErrorSubspace;
use esse_mtc::metrics::summarize;
use esse_mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use esse_obs::{timeline, Lane, RingRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// A model slow enough (~2 ms/member) that span durations dominate any
/// clock-reading jitter.
struct SleepyModel(LinearGaussianModel);

impl ForecastModel for SleepyModel {
    fn state_dim(&self) -> usize {
        self.0.state_dim()
    }
    fn forecast(
        &self,
        x0: &[f64],
        t: f64,
        d: f64,
        seed: Option<u64>,
    ) -> Result<Vec<f64>, ForecastError> {
        std::thread::sleep(Duration::from_millis(2));
        self.0.forecast(x0, t, d, seed)
    }
}

fn setup() -> (SleepyModel, ErrorSubspace, Vec<f64>) {
    let rates = [0.98, 0.95, 0.3, 0.3, 0.2, 0.1];
    let model = SleepyModel(LinearGaussianModel::diagonal(&rates, 0.05, 1.0));
    let mut rng = StdRng::seed_from_u64(7);
    let prior = ErrorSubspace::isotropic(&mut rng, 6, 6, 1.0);
    (model, prior, vec![0.0; 6])
}

#[test]
fn mtc_trace_busy_time_agrees_with_metrics() {
    let (model, prior, mean) = setup();
    let workers = 3usize;
    let cfg = MtcConfig {
        workers,
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(16, 16),
        tolerance: 1e-12, // run the full fixed ensemble
        duration: 10.0,
        max_rank: 6,
        svd_stride: 8,
        ..Default::default()
    };
    let rec = RingRecorder::new();
    let out =
        MtcEsse::new(&model, cfg).with_recorder(&rec).run(RunInit::new(&mean, &prior)).unwrap();
    let trace = rec.drain();
    assert_eq!(trace.dropped, 0);
    trace.check_well_formed().expect("well-formed workflow trace");

    // Worker task spans carry the same timestamps as the TaskRecords,
    // so pool busy time measured from the trace must agree with
    // metrics::summarize to well within 1%.
    let m = summarize(&out.records, workers);
    let tls = timeline::timelines(&trace, Some("task"));
    let trace_busy_ns: u64 =
        tls.iter().filter(|tl| matches!(tl.lane, Lane::Worker(_))).map(|tl| tl.busy_ns()).sum();
    let metrics_busy_ns = m.total_busy.as_nanos() as u64;
    let rel = (trace_busy_ns as f64 - metrics_busy_ns as f64).abs() / metrics_busy_ns as f64;
    assert!(
        rel < 0.01,
        "trace busy {trace_busy_ns} ns vs metrics busy {metrics_busy_ns} ns (rel {rel:.4})"
    );

    // Per-worker agreement as well: each Worker lane's busy time equals
    // the runtime sum of the records assigned to that worker.
    for tl in tls.iter().filter(|tl| matches!(tl.lane, Lane::Worker(_))) {
        let Lane::Worker(w) = tl.lane else { unreachable!() };
        let record_busy: Duration = out
            .records
            .iter()
            .filter(|r| r.worker == Some(w as usize))
            .filter_map(|r| r.runtime())
            .sum();
        let record_ns = record_busy.as_nanos() as u64;
        let rel = (tl.busy_ns() as f64 - record_ns as f64).abs() / (record_ns.max(1)) as f64;
        assert!(rel < 0.01, "worker {w}: lane {} ns vs records {record_ns} ns", tl.busy_ns());
    }

    // One task span per member that actually ran on a worker.
    let ran = out.records.iter().filter(|r| r.worker.is_some()).count();
    let task_spans = trace
        .spans()
        .into_iter()
        .filter(|s| s.cat == "task" && matches!(s.lane, Lane::Worker(_)))
        .count();
    assert_eq!(task_spans, ran);

    // The coordinator contributed SVD spans and progress counters.
    assert!(trace.spans().iter().any(|s| s.cat == "svd"));
    assert!(!trace.counter("members_done").is_empty());
}

#[test]
fn converging_run_emits_convergence_events() {
    let (model, prior, mean) = setup();
    let cfg = MtcConfig {
        workers: 4,
        schedule: EnsembleSchedule::new(16, 256),
        tolerance: 0.05,
        duration: 10.0,
        max_rank: 6,
        svd_stride: 8,
        ..Default::default()
    };
    let rec = RingRecorder::new();
    let out =
        MtcEsse::new(&model, cfg).with_recorder(&rec).run(RunInit::new(&mean, &prior)).unwrap();
    let trace = rec.drain();
    trace.check_well_formed().expect("well-formed trace");
    assert!(!trace.instants("convergence_check").is_empty());
    if out.converged {
        assert_eq!(trace.instants("converged").len(), 1);
    }
    // Pool utilization from the trace is a sane fraction.
    let u = timeline::mean_utilization(&trace, Some("task"));
    assert!((0.0..=1.0).contains(&u), "utilization {u}");
    assert!(u > 0.0);
}

#[test]
fn offline_analyzer_agrees_with_the_live_trace_view() {
    // The analyzer (offline, schema-driven) and the timeline module
    // (live, typed) must agree on what the pool did.
    let (model, prior, mean) = setup();
    let workers = 3usize;
    let cfg = MtcConfig {
        workers,
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(12, 12),
        tolerance: 1e-12,
        duration: 10.0,
        max_rank: 6,
        svd_stride: 8,
        ..Default::default()
    };
    let rec = RingRecorder::new();
    let out =
        MtcEsse::new(&model, cfg).with_recorder(&rec).run(RunInit::new(&mean, &prior)).unwrap();
    let trace = rec.drain();
    let a = esse_obs::LoadedTrace::from_trace(&trace).analyze();
    let mtc = a.group("mtc").expect("mtc lane group");
    let ran = out.records.iter().filter(|r| r.worker.is_some()).count();
    assert_eq!(mtc.tasks, ran as u64);
    let tls = timeline::timelines(&trace, Some("task"));
    let live_busy: u64 =
        tls.iter().filter(|tl| matches!(tl.lane, Lane::Worker(_))).map(|tl| tl.busy_ns()).sum();
    assert_eq!(mtc.busy_ns, live_busy, "analyzer and timeline disagree on busy time");
    // Queue waits decompose makespan: every wait is bounded by it.
    let waits = a.queue_wait.expect("enqueue instants recorded");
    assert_eq!(waits.count, 12);
    assert!(waits.max_ns <= a.makespan_ns);
}

#[test]
fn serial_driver_trace_covers_every_member() {
    let (model, prior, mean) = setup();
    let cfg = MtcConfig {
        schedule: EnsembleSchedule::new(8, 32),
        tolerance: 0.05,
        duration: 10.0,
        max_rank: 6,
        ..Default::default()
    };
    let rec = RingRecorder::new();
    let out = MtcEsse::new(&model, cfg.serial())
        .with_recorder(&rec)
        .run(RunInit::new(&mean, &prior))
        .unwrap();
    let trace = rec.drain();
    trace.check_well_formed().expect("well-formed serial trace");
    // The serial schedule is the coordinator plus one worker.
    assert_eq!(trace.lanes(), vec![Lane::Coordinator, Lane::Worker(0)]);
    let spans = trace.spans();
    let members: Vec<_> = spans.iter().filter(|s| (s.cat, s.name) == ("task", "member")).collect();
    let attempts: u64 = out.records.iter().map(|r| r.attempts as u64).sum();
    assert_eq!(members.len() as u64, attempts, "one member span per attempt");
    assert!(members.iter().all(|s| s.lane == Lane::Worker(0)), "every member on worker-0");
    assert_eq!(spans.iter().filter(|s| s.name == "central_forecast").count(), 1);
    assert!(spans.iter().any(|s| s.cat == "svd"));
    // The members_done counter ends at the members the posterior used.
    let counter = trace.counter("members_done");
    assert_eq!(counter.last().map(|c| c.1), Some(out.members_used as f64));
    if out.converged {
        assert_eq!(trace.instants("converged").len(), 1);
    }
    // Member latency histogram recorded by the span guards.
    let hist = trace.histograms.get("member").expect("member histogram");
    assert_eq!(hist.count(), attempts);
    assert!(hist.mean_ns() >= 2_000_000, "sleepy member >= 2 ms");
}
