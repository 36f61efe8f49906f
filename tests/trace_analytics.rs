//! Acceptance test for the trace analytics pipeline: a Fig 3-vs-Fig 4
//! pair (the engine on its serial schedule and on a 4-worker pool, each
//! into its own recorder) exported to JSONL, re-loaded by
//! `esse_obs::analyze`, and cross-checked against the engine's own
//! bookkeeping — the phase breakdown, counters and makespans must be
//! recoverable from the events alone. A held clock forces the crew to
//! claim a task before the coordinator reads the time, to pin that
//! every `sched/enqueued` instant is stamped before its task is
//! claimable.

use esse_core::adaptive::EnsembleSchedule;
use esse_core::model::{ForecastError, ForecastModel, LinearGaussianModel};
use esse_core::subspace::ErrorSubspace;
use esse_mtc::workflow::{MtcConfig, MtcEsse, MtcOutcome, RunInit};
use esse_obs::{export, LoadedTrace, MetricsRegistry, Recorder, RingRecorder, RunAnalysis};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// ~2 ms per member: sleeping threads overlap, so the MTC pool shows a
/// real wall-clock speedup even on a single-core runner.
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

/// Run `cfg` traced, round-trip the trace through the JSONL exporter
/// (the analyzer sees only the serialized events, never the engine) and
/// check the analysis against the engine's bookkeeping.
fn traced_arm(cfg: MtcConfig) -> (MtcOutcome, RunAnalysis) {
    let (model, prior, mean) = setup();
    let (ring, registry, workers) = (RingRecorder::new(), MetricsRegistry::new(), cfg.workers);
    let members = cfg.schedule.max;
    let out = MtcEsse::new(&model, cfg)
        .with_recorder(&ring)
        .with_metrics(&registry)
        .run(RunInit::new(&mean, &prior))
        .unwrap();
    let trace = ring.drain();
    let text = export::jsonl_string(&trace);
    let loaded = LoadedTrace::from_jsonl(&text).expect("parse own JSONL export");
    assert_eq!(loaded.events.len(), trace.events.len());
    let a = loaded.analyze();

    // The pool layer: the coordinator plus every worker, one task span
    // per member that ran.
    let mtc = a.group("mtc").expect("mtc layer present");
    assert_eq!(mtc.lanes, workers + 1, "coordinator + {workers} workers");
    let ran = out.records.iter().filter(|r| r.worker.is_some()).count();
    assert_eq!(mtc.tasks, ran as u64);
    assert_eq!(a.task_count, ran);

    // Phase breakdown: member forecasts dominate; SVD rounds and the
    // central forecast appear as their own phases.
    assert_eq!(a.phases[0].key, "task/member");
    assert_eq!(a.phases[0].count, ran as u64);
    assert!(a.phases.iter().any(|p| p.key == "svd/svd"));
    assert!(a.phases.iter().any(|p| p.key == "phase/central_forecast"));
    let member_mean_ms = a.phases[0].mean_ns as f64 / 1e6;
    assert!(member_mean_ms >= 2.0, "sleepy member mean {member_mean_ms:.2} ms");

    // Queue-wait decomposition: every member was enqueued once.
    let waits = a.queue_wait.as_ref().expect("sched/enqueued instants present");
    assert_eq!(waits.count, members as u64);
    assert!(waits.p50_ns <= waits.p95_ns && waits.p95_ns <= waits.p99_ns);

    // Counter cross-check: trace counters vs the engine result vs the
    // metrics registry — three independent paths, one truth.
    assert_eq!(a.counter("members_done"), Some(out.members_used as f64));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("esse_tasks_completed_total"), Some(out.members_used as u64));
    assert_eq!(snap.gauge("esse_members_done"), Some(out.members_used as f64));

    // Throughput windows tile the makespan and account for every task.
    let total: u64 = a.throughput.iter().map(|w| w.completions).sum();
    assert_eq!(total, a.task_count as u64);
    assert!(a.peak_throughput_per_s() > 0.0);

    // The critical path is real work separated by bounded waits, and
    // can never exceed the makespan.
    assert!(!a.critical_path.segments.is_empty());
    assert!(a.critical_path.busy_ns + a.critical_path.wait_ns <= a.makespan_ns);
    (out, a)
}

#[test]
fn analyzer_reproduces_the_serial_vs_mtc_comparison_from_events_alone() {
    let members = 16usize;
    let cfg = MtcConfig {
        workers: 4,
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(members, members),
        tolerance: 1e-12,
        duration: 10.0,
        max_rank: 6,
        svd_stride: 8,
        ..Default::default()
    };
    let (serial_out, serial) = traced_arm(cfg.clone().serial());
    let (mtc_out, mtc) = traced_arm(cfg);
    assert_eq!(serial_out.members_used, members);
    assert_eq!(mtc_out.members_used, members);

    // Fig 3-vs-Fig 4: with 2 ms sleepy members and 4 overlapping
    // workers, the pool's makespan must be measurably shorter.
    let ratio = serial.makespan_ns as f64 / mtc.makespan_ns as f64;
    let (s_ms, m_ms) = (serial.makespan_ns as f64 / 1e6, mtc.makespan_ns as f64 / 1e6);
    assert!(ratio > 1.5, "serial {s_ms:.1} ms vs mtc {m_ms:.1} ms (x{ratio:.2})");
}

#[test]
fn monitor_tee_sees_the_same_run_the_trace_records() {
    let (model, prior, mean) = setup();
    let cfg = MtcConfig {
        workers: 4,
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(16, 16),
        tolerance: 1e-12,
        duration: 10.0,
        max_rank: 6,
        svd_stride: 8,
        ..Default::default()
    };
    let ring = RingRecorder::new();
    let monitor = esse_obs::RunMonitor::start(esse_obs::monitor::MonitorConfig {
        period: Duration::from_millis(5),
        total_members: Some(16),
        ..esse_obs::monitor::MonitorConfig::default()
    });
    let mon_rec = monitor.recorder();
    let tee = esse_obs::monitor::Tee::new(&ring, &mon_rec);
    let out =
        MtcEsse::new(&model, cfg).with_recorder(&tee).run(RunInit::new(&mean, &prior)).unwrap();
    let report = monitor.finish();
    assert_eq!(report.done, out.members_used as u64);
    assert_eq!(report.failed, 0);
    assert!(!report.heartbeats.is_empty(), "16 sleepy members outlive a 5 ms heartbeat period");
    let trace = ring.drain();
    trace.check_well_formed().expect("tee must not corrupt the live trace");
    let hist = report.task_time.expect("member histogram observed through the tee");
    assert_eq!(
        hist.count(),
        out.records.iter().map(|r| r.attempts as u64).sum::<u64>(),
        "one observation per attempt"
    );
}

/// A clock that holds every coordinator-thread reading until a crew
/// thread has read it (or 10 ms pass). An `enqueued` stamp taken after
/// its task became claimable then reads later than the claim.
struct HeldClock<'a> {
    inner: &'a RingRecorder,
    coordinator: std::thread::ThreadId,
    crew_reads: Mutex<u64>,
    read: Condvar,
}

impl Recorder for HeldClock<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn now_ns(&self) -> u64 {
        let mut reads = self.crew_reads.lock().unwrap();
        if std::thread::current().id() != self.coordinator {
            // Read under the lock: the coordinator's next reading is later.
            let t = self.inner.now_ns();
            *reads += 1;
            self.read.notify_all();
            return t;
        }
        let seen = *reads;
        let held = Duration::from_millis(10);
        drop(self.read.wait_timeout_while(reads, held, |r| *r == seen).unwrap());
        self.inner.now_ns()
    }

    fn record(&self, ev: esse_obs::Event) {
        self.inner.record(ev)
    }

    fn observe(&self, name: &'static str, latency_ns: u64) {
        self.inner.observe(name, latency_ns)
    }
}

/// Every member's `sched/enqueued` instant precedes its `task` span,
/// even when the crew claims before the coordinator's clock moves on:
/// the queue-wait decomposition counts every member.
#[test]
fn enqueue_instants_precede_the_claims_they_enable() {
    let (model, prior, mean) = setup();
    let members = 8;
    let cfg = MtcConfig {
        workers: 2,
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(members, members),
        tolerance: 1e-12,
        duration: 10.0,
        max_rank: 6,
        ..Default::default()
    };
    let ring = RingRecorder::new();
    let clock = HeldClock {
        inner: &ring,
        coordinator: std::thread::current().id(),
        crew_reads: Mutex::new(0),
        read: Condvar::new(),
    };
    MtcEsse::new(&model, cfg).with_recorder(&clock).run(RunInit::new(&mean, &prior)).unwrap();
    let text = export::jsonl_string(&ring.drain());
    let a = LoadedTrace::from_jsonl(&text).expect("parse own JSONL export").analyze();
    let waits = a.queue_wait.expect("sched/enqueued instants present");
    assert_eq!(waits.count, members as u64, "a member's task span opened before its enqueue");
}
