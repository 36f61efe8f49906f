//! The parallel ESSE workflow of paper Fig. 4, on real threads.
//!
//! Structure (one box per paper concept):
//!
//! * **pool of ensemble calculations** — worker threads (`Crew::work`)
//!   pull perturb/forecast task attempts from a channel; the pool is
//!   over-provisioned (`M ≥ N`) so the SVD pipeline never drains;
//! * **continuous differ** — the coordinator receives member results as
//!   they arrive (any order) and accumulates difference columns;
//! * **continuous SVD + convergence** — every `svd_stride` new members
//!   the ensemble is decomposed on the coordinator's own thread and
//!   compared with the previous subspace;
//! * **cancellation** — on convergence the cancel flag stops idle
//!   workers, pending tasks are drained, and the completion policy
//!   decides what happens to members already computed or still running;
//! * **failure recovery** — failed or timed-out attempts are requeued
//!   with exponential backoff under the [`RetryPolicy`] budget, slow
//!   members can be speculatively re-launched (first finisher wins),
//!   and exhausted members degrade the run *explicitly*: the outcome
//!   carries a [`RunHealth`] verdict, never a silent partial ensemble
//!   (paper §4 point 3: losses are tolerable unless systematic — so
//!   they must at least be visible).
//!
//! [`MtcEsse::run`] is a receive loop over the steps of its private
//! coordinator state `Run`: `tick` (deadline, elapsed backoffs, pool
//! death, straggler scan) → `on_done` (classify the attempt once and
//! act on the ledger's answer; every lost attempt takes the one
//! `attempt_lost` path) → `svd_round` → `advance_stage`, closed by
//! `finish`. What a lost attempt costs, when a member is reissued and
//! when it is lost for good is decided by the
//! [`crate::ledger::MemberLedger`] — the same rules `esse_master` runs.
//! This file keeps the threads, the channels and the four optional
//! sinks: trace recorder and live meters (`Shared`), run journal
//! (`Run::journal`) and validator.

use crate::fault::{FaultKind, FaultPlan, FaultReport, RetryPolicy, RunHealth};
use crate::journal::Checkpoint;
use crate::ledger::{Budget, Fate, Loss, Member, MemberLedger};
use crate::pool::{CODE_ATTEMPTS_EXHAUSTED, CODE_POOL_DIED, CODE_QUARANTINE_BUDGET};
use crate::task::{TaskId, TaskOutcome, TaskRecord, TaskState};
use crate::triple_buffer::DiskTripleBuffer;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use esse_core::adaptive::{CompletionPolicy, EnsembleSchedule};
use esse_core::convergence::{similarity, ConvergenceTest};
use esse_core::format::subspace_to_bytes;
use esse_core::model::{ForecastError, ForecastModel};
use esse_core::perturb::{PerturbConfig, PerturbationGenerator};
use esse_core::subspace::{
    make_estimator, ErrorSubspace, SubspaceEstimator, SubspaceStrategy, SubspaceUpdate, UpdateKind,
};
use esse_core::validate::{ForecastValidator, Reason, Verdict};
use esse_core::{ConfigError, EsseError};
use esse_linalg::LinalgCtx;
use esse_obs::registry::{Counter, Gauge, Histogram, MetricsRegistry};
use esse_obs::{ArgValue, Event, EventKind, Lane, Recorder, NULL};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Duration since workflow start as trace nanoseconds.
fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Configuration of the MTC workflow.
///
/// Prefer [`MtcConfig::builder`] for new code: it validates the
/// combination before the engine ever sees it. Struct construction with
/// `..Default::default()` keeps working for mechanical migration.
#[derive(Debug, Clone)]
pub struct MtcConfig {
    /// Worker threads (the paper's cluster cores).
    pub workers: usize,
    /// Pool over-provisioning: `M = ceil(pool_factor · N) ≥ N`.
    pub pool_factor: f64,
    /// Ensemble growth schedule.
    pub schedule: EnsembleSchedule,
    /// Convergence tolerance (ρ ≥ 1 − tol).
    pub tolerance: f64,
    /// Relative σ cutoff for retained modes.
    pub mode_rel_tol: f64,
    /// Maximum retained rank.
    pub max_rank: usize,
    /// Perturbation settings.
    pub perturb: PerturbConfig,
    /// Forecast duration (model seconds).
    pub duration: f64,
    /// Forecast start (model seconds).
    pub start_time: f64,
    /// Run the SVD every this many newly arrived members.
    pub svd_stride: usize,
    /// What to do with in-flight members at convergence.
    pub completion: CompletionPolicy,
    /// Hard wall-clock deadline Tmax (paper §4 point 1: "a forecast
    /// needs to be timely"). When it expires, queued members are
    /// cancelled and still-running members are ignored ("runs that have
    /// not finished … by the forecast deadline can be safely ignored").
    pub deadline: Option<Duration>,
    /// Failure recovery policy (default: retries disabled, reproducing
    /// the pre-fault-tolerance engine exactly).
    pub retry: RetryPolicy,
    /// Deterministic fault injection (default: none). Used by resilience
    /// tests and the `fault_sweep` bench harness.
    pub faults: Option<FaultPlan>,
    /// How the error subspace is (re)computed as members arrive. The
    /// default, [`SubspaceStrategy::FullRecompute`], is exact and a
    /// pure function of the ordered member list.
    pub subspace: SubspaceStrategy,
    /// Threading/blocking context handed to the linalg kernels once at
    /// engine construction (replaces per-call `threads` arguments).
    pub linalg: LinalgCtx,
}

impl Default for MtcConfig {
    fn default() -> Self {
        MtcConfig {
            workers: 4,
            pool_factor: 1.25,
            schedule: EnsembleSchedule::new(8, 64),
            tolerance: 0.03,
            mode_rel_tol: 1e-4,
            max_rank: 100,
            perturb: PerturbConfig::default(),
            duration: 86400.0,
            start_time: 0.0,
            svd_stride: 8,
            completion: CompletionPolicy::UseCompleted,
            deadline: None,
            retry: RetryPolicy::default(),
            faults: None,
            subspace: SubspaceStrategy::FullRecompute,
            linalg: LinalgCtx::default(),
        }
    }
}

impl MtcConfig {
    /// Start building a validated configuration from the defaults.
    pub fn builder() -> MtcConfigBuilder {
        MtcConfigBuilder { cfg: MtcConfig::default() }
    }

    /// Validate an already-constructed configuration (the builder calls
    /// this from [`MtcConfigBuilder::build`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::new("workers", "must be at least 1"));
        }
        if !self.pool_factor.is_finite() || self.pool_factor < 1.0 {
            return Err(ConfigError::new("pool_factor", "must be finite and ≥ 1 (M ≥ N)"));
        }
        if !(self.tolerance > 0.0 && self.tolerance < 1.0) {
            return Err(ConfigError::new("tolerance", "must lie strictly within (0, 1)"));
        }
        if self.mode_rel_tol.is_nan() || self.mode_rel_tol < 0.0 {
            return Err(ConfigError::new("mode_rel_tol", "must be ≥ 0"));
        }
        if self.max_rank == 0 {
            return Err(ConfigError::new("max_rank", "must be at least 1"));
        }
        if self.svd_stride == 0 {
            return Err(ConfigError::new("svd_stride", "must be at least 1"));
        }
        if !self.duration.is_finite() || self.duration < 0.0 {
            return Err(ConfigError::new("duration", "must be finite and ≥ 0"));
        }
        if let CompletionPolicy::SpareNearlyDone(frac) = self.completion {
            if frac.is_nan() || frac < 0.0 {
                return Err(ConfigError::new("completion", "SpareNearlyDone fraction must be ≥ 0"));
            }
        }
        if let SubspaceStrategy::Incremental { defect_tol, .. } = self.subspace {
            if defect_tol.is_nan() || defect_tol < 0.0 {
                return Err(ConfigError::new("subspace", "Incremental defect_tol must be ≥ 0"));
            }
        }
        if self.linalg.threads == 0 {
            return Err(ConfigError::new("linalg", "threads must be at least 1"));
        }
        if self.linalg.block_size == 0 {
            return Err(ConfigError::new("linalg", "block_size must be at least 1"));
        }
        self.retry.validate()?;
        Ok(())
    }
}

/// Builder for [`MtcConfig`] with typed defaults and a validating
/// [`build`](MtcConfigBuilder::build).
#[derive(Debug, Clone)]
pub struct MtcConfigBuilder {
    cfg: MtcConfig,
}

impl MtcConfigBuilder {
    /// Worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Pool over-provisioning factor (`M = ceil(pool_factor · N)`).
    pub fn pool_factor(mut self, factor: f64) -> Self {
        self.cfg.pool_factor = factor;
        self
    }

    /// Ensemble growth schedule.
    pub fn schedule(mut self, schedule: EnsembleSchedule) -> Self {
        self.cfg.schedule = schedule;
        self
    }

    /// Convergence tolerance.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.cfg.tolerance = tol;
        self
    }

    /// Relative σ cutoff for retained modes.
    pub fn mode_rel_tol(mut self, tol: f64) -> Self {
        self.cfg.mode_rel_tol = tol;
        self
    }

    /// Maximum retained rank.
    pub fn max_rank(mut self, rank: usize) -> Self {
        self.cfg.max_rank = rank;
        self
    }

    /// Perturbation settings.
    pub fn perturb(mut self, perturb: PerturbConfig) -> Self {
        self.cfg.perturb = perturb;
        self
    }

    /// Forecast duration (model seconds).
    pub fn duration(mut self, seconds: f64) -> Self {
        self.cfg.duration = seconds;
        self
    }

    /// Forecast start (model seconds).
    pub fn start_time(mut self, seconds: f64) -> Self {
        self.cfg.start_time = seconds;
        self
    }

    /// SVD stride (members between decompositions).
    pub fn svd_stride(mut self, stride: usize) -> Self {
        self.cfg.svd_stride = stride;
        self
    }

    /// Completion policy for in-flight members at convergence.
    pub fn completion(mut self, policy: CompletionPolicy) -> Self {
        self.cfg.completion = policy;
        self
    }

    /// Hard Tmax wall-clock deadline.
    pub fn deadline(mut self, tmax: Duration) -> Self {
        self.cfg.deadline = Some(tmax);
        self
    }

    /// Failure recovery policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// Deterministic fault injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Subspace estimation strategy (default: bit-identical
    /// [`SubspaceStrategy::FullRecompute`]).
    pub fn subspace(mut self, strategy: SubspaceStrategy) -> Self {
        self.cfg.subspace = strategy;
        self
    }

    /// Linalg engine context (threads + cache block size), passed to
    /// the kernels once at engine construction.
    pub fn linalg(mut self, ctx: LinalgCtx) -> Self {
        self.cfg.linalg = ctx;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<MtcConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// SVD/convergence state rehydrated from a run journal + the on-disk
/// safe/live covariance files, so a resumed run continues the
/// convergence cadence exactly where the dead coordinator left it
/// instead of restarting the similarity test from scratch.
#[derive(Debug, Clone, Default)]
pub struct ReplayState {
    /// Similarity history from `SvdPublished` journal records.
    pub rho_history: Vec<f64>,
    /// The last published subspace (from the safe/live files), used as
    /// the "previous" estimate of the next convergence check.
    pub previous: Option<ErrorSubspace>,
    /// Ensemble size at the last SVD round (restores the stride phase).
    pub last_svd_members: usize,
    /// Version counter of the last published subspace.
    pub svd_version: u64,
}

/// Input to [`MtcEsse::run`]: the mean state and prior subspace, plus
/// optional resume bookkeeping (paper §4.2: a stopped ESSE execution
/// "can be restarted without rerunning all jobs").
#[derive(Debug, Clone, Copy)]
pub struct RunInit<'a> {
    /// Initial mean state.
    pub mean: &'a [f64],
    /// Prior error subspace supplying the perturbation directions.
    pub prior: &'a ErrorSubspace,
    /// Previously completed `(member index, forecast result)` pairs
    /// recovered from the bookkeeping directory; those indices are
    /// folded into the differ up front and never re-enqueued.
    pub resume: &'a [(TaskId, Vec<f64>)],
    /// Rehydrated SVD/convergence state from a journal replay.
    pub replay: Option<&'a ReplayState>,
}

impl<'a> RunInit<'a> {
    /// Fresh run from `mean` and `prior`.
    pub fn new(mean: &'a [f64], prior: &'a ErrorSubspace) -> RunInit<'a> {
        RunInit { mean, prior, resume: &[], replay: None }
    }

    /// Attach resume bookkeeping from a previous incarnation.
    pub fn resuming(mut self, previous: &'a [(TaskId, Vec<f64>)]) -> RunInit<'a> {
        self.resume = previous;
        self
    }

    /// Attach rehydrated SVD/convergence state from a journal replay.
    pub fn rehydrating(mut self, replay: &'a ReplayState) -> RunInit<'a> {
        self.replay = Some(replay);
        self
    }
}

/// Result of an MTC ESSE run.
#[derive(Debug)]
pub struct MtcOutcome {
    /// Central (unperturbed) forecast.
    pub central: Vec<f64>,
    /// Final error subspace.
    pub subspace: ErrorSubspace,
    /// Whether the convergence criterion fired (vs Nmax exhaustion).
    pub converged: bool,
    /// Similarity history across SVD rounds.
    pub rho_history: Vec<f64>,
    /// Per-task bookkeeping.
    pub records: Vec<TaskRecord>,
    /// Wall-clock makespan of the whole workflow.
    pub makespan: Duration,
    /// Members whose results entered the final subspace.
    pub members_used: usize,
    /// Members that failed permanently (retry budget exhausted).
    pub members_failed: usize,
    /// Members computed but discarded (arrived after convergence under
    /// `CancelImmediately`) — the paper's "wasted cycles".
    pub members_wasted: usize,
    /// Tasks cancelled before starting.
    pub members_cancelled: usize,
    /// SVD rounds executed.
    pub svd_rounds: usize,
    /// Whether the Tmax deadline fired before convergence/Nmax.
    pub deadline_expired: bool,
    /// Statistical health: [`RunHealth::Full`], or an explicit
    /// [`RunHealth::Degraded`] verdict when members were lost.
    pub health: RunHealth,
    /// What the recovery machinery did (retries, timeouts, speculation,
    /// worker deaths).
    pub faults: FaultReport,
}

impl MtcOutcome {
    /// Statistical-coverage report over the planned member set (paper §4
    /// point 3: losses are fine unless they form a systematic hole).
    pub fn coverage(&self) -> crate::coverage::CoverageReport {
        let completed: Vec<TaskId> = self
            .records
            .iter()
            .filter(|r| matches!(r.outcome, Some(TaskOutcome::Success)))
            .map(|r| r.id)
            .collect();
        crate::coverage::analyze(&completed, self.records.len())
    }
}

/// One attempt of one member, as queued to the worker pool.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    id: TaskId,
    attempt: u32,
}

/// A finished attempt, as a worker reports it.
struct Done {
    id: TaskId,
    attempt: u32,
    worker: usize,
    started: Duration,
    finished: Duration,
    result: Result<Vec<f64>, ForecastError>,
}

/// Messages from workers to the coordinator.
enum WorkerMsg {
    /// A worker picked up an attempt (feeds straggler detection).
    Started { id: TaskId, at: Duration },
    /// An attempt finished.
    Done(Done),
}

/// Live metric handles for one run, registered by
/// [`MtcEsse::with_metrics`]. Handles are atomics behind `Arc`s, so
/// workers update them without touching the registry lock.
struct Meters {
    members_done: Gauge,
    coverage: Gauge,
    rho: Gauge,
    completed: Counter,
    failed: Counter,
    wasted: Counter,
    cancelled: Counter,
    attempts: Counter,
    retries: Counter,
    timeouts: Counter,
    spec_launches: Counter,
    spec_wins: Counter,
    spec_losses: Counter,
    workers_died: Counter,
    quarantined: Counter,
    replaced: Counter,
    member_runtime: Histogram,
    /// Incremental rank-block folds of the subspace lane.
    subspace_update: Histogram,
    /// Full recomputes of the subspace lane (every round under
    /// `FullRecompute`; drift-control refreshes under `Incremental`).
    subspace_refresh: Histogram,
    /// Orthonormality defect of the last published estimate.
    subspace_defect: Gauge,
    queue_wait: Histogram,
}

impl Meters {
    fn new(reg: &MetricsRegistry) -> Meters {
        Meters {
            members_done: reg.gauge("esse_members_done"),
            coverage: reg.gauge("esse_coverage"),
            rho: reg.gauge("esse_convergence_rho"),
            completed: reg.counter("esse_tasks_completed_total"),
            failed: reg.counter("esse_tasks_failed_total"),
            wasted: reg.counter("esse_tasks_wasted_total"),
            cancelled: reg.counter("esse_tasks_cancelled_total"),
            attempts: reg.counter("esse_task_attempts_total"),
            retries: reg.counter("esse_retries_total"),
            timeouts: reg.counter("esse_task_timeouts_total"),
            spec_launches: reg.counter("esse_speculative_launches_total"),
            spec_wins: reg.counter("esse_speculative_wins_total"),
            spec_losses: reg.counter("esse_speculative_losses_total"),
            workers_died: reg.counter("esse_workers_died_total"),
            quarantined: reg.counter("esse_quarantined_total"),
            replaced: reg.counter("esse_replaced_total"),
            member_runtime: reg.histogram("esse_member_runtime_ns"),
            subspace_update: reg.histogram("esse_subspace_update_ns"),
            subspace_refresh: reg.histogram("esse_subspace_refresh_ns"),
            subspace_defect: reg.gauge("esse_subspace_defect"),
            queue_wait: reg.histogram("esse_queue_wait_ns"),
        }
    }
}

/// Event arguments, built on the stack: nothing is allocated unless a
/// recorder is attached.
type Args<'a> = &'a [(&'static str, ArgValue)];

/// What the coordinator and every worker thread share: the config, the
/// run clock, the pool's two flags, and the two optional sinks both
/// sides write to — the trace recorder and the live meters. Whether
/// either sink is attached is asked here and nowhere else.
struct Shared<'r> {
    cfg: &'r MtcConfig,
    t0: Instant,
    obs: &'r dyn Recorder,
    met: Option<Meters>,
    /// Raised when the run stops issuing work; idle workers exit on it.
    cancel: AtomicBool,
    /// Worker threads that have not died.
    alive: AtomicUsize,
}

impl Shared<'_> {
    fn now(&self) -> Duration {
        self.t0.elapsed()
    }

    /// Record one trace event on the run clock.
    fn emit(
        &self,
        kind: EventKind,
        at: Duration,
        lane: Lane,
        cat: &'static str,
        name: &'static str,
        args: Args<'_>,
    ) {
        if self.obs.enabled() {
            let args = args.to_vec();
            self.obs.record(Event { ts_ns: ns(at), seq: 0, lane, cat, name, kind, args });
        }
    }

    fn observe(&self, name: &'static str, latency: Duration) {
        if self.obs.enabled() {
            self.obs.observe(name, ns(latency));
        }
    }

    fn meter(&self, update: impl FnOnce(&Meters)) {
        if let Some(m) = &self.met {
            update(m);
        }
    }
}

/// The worker side of the pool.
struct Crew<'r, M> {
    sh: &'r Shared<'r>,
    model: &'r M,
    mean0: &'r [f64],
    gen: &'r PerturbationGenerator<'r>,
}

impl<M: ForecastModel> Crew<'_, M> {
    /// Worker `w`: pull attempts until cancelled, report each one's
    /// start and result.
    fn work(&self, w: usize, task_rx: Receiver<Attempt>, msg_tx: Sender<WorkerMsg>) {
        let (sh, lane) = (self.sh, Lane::Worker(w as u32));
        let mut tasks_started = 0usize;
        while !sh.cancel.load(Ordering::Relaxed) {
            let Attempt { id, attempt } = match task_rx.recv_timeout(Duration::from_millis(5)) {
                Ok(att) => att,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            tasks_started += 1;
            let started = sh.now();
            // Receiver may be gone during shutdown; ignore send errors.
            let _ = msg_tx.send(WorkerMsg::Started { id, at: started });
            let dies = sh.cfg.faults.as_ref().is_some_and(|p| p.worker_dies(w, tasks_started));
            let result = if dies {
                Err(ForecastError::Injected(format!("worker {w} died running member {id}")))
            } else {
                self.forecast(id, attempt)
            };
            let finished = sh.now();
            let runtime = finished.saturating_sub(started);
            sh.meter(|m| {
                m.attempts.inc();
                m.member_runtime.observe(ns(runtime));
            });
            let args = [("member", id.into()), ("attempt", u64::from(attempt).into())];
            sh.emit(EventKind::Begin, started, lane, "task", "member", &args);
            if result.is_err() {
                sh.emit(EventKind::Instant, finished, lane, "task", "member_failed", &args);
            }
            sh.emit(EventKind::End, finished, lane, "task", "member", &[]);
            sh.observe("member", runtime);
            let done = Done { id, attempt, worker: w, started, finished, result };
            let _ = msg_tx.send(WorkerMsg::Done(done));
            if dies {
                let args = [("worker", w.into())];
                sh.emit(EventKind::Instant, finished, lane, "fault", "worker_died", &args);
                sh.alive.fetch_sub(1, Ordering::SeqCst);
                break;
            }
        }
    }

    /// Perturb and forecast member `id`, under the fault plan's verdict
    /// for this attempt.
    fn forecast(&self, id: TaskId, attempt: u32) -> Result<Vec<f64>, ForecastError> {
        let cfg = self.sh.cfg;
        let faults = cfg.faults.as_ref();
        let injected = |what: &str| {
            Err(ForecastError::Injected(format!("{what} (member {id}, attempt {attempt})")))
        };
        match faults.and_then(|p| p.fault_for(id, attempt)) {
            Some(FaultKind::Crash) => return injected("injected crash"),
            Some(FaultKind::TransientIo) => return injected("transient I/O error"),
            // Straggler: the work happens, just late.
            Some(FaultKind::Straggle(extra)) => std::thread::sleep(extra),
            None => {}
        }
        let x0 = self.gen.perturb(self.mean0, id);
        let seed = self.gen.forecast_seed(id);
        let mut forecast = self.model.forecast(&x0, cfg.start_time, cfg.duration, Some(seed));
        // Semantic payload corruption: the forecast "succeeds" but its
        // bytes are wrong — only the ingest validator can catch it.
        if let (Ok(xf), Some(p)) = (&mut forecast, faults) {
            if let Some(kind) = p.corruption_for(id, attempt) {
                kind.apply(p.seed, id as u64, (xf.len() / 5).max(1), xf);
            }
        }
        forecast
    }
}

/// What the engine keeps per member beside its [`TaskRecord`] and the
/// ledger: straggler speculation, which only this coordinator does.
#[derive(Default, Clone, Copy)]
struct Flight {
    /// Attempt index of the speculative twin, once one was launched.
    spec_attempt: Option<u32>,
    /// When the most recent attempt started running.
    running_since: Option<Duration>,
}

/// Why an attempt that came back does not count.
enum Cause {
    /// It reported an error, or outran the per-task timeout.
    Failed(String),
    /// The validator refused its payload.
    Quarantined(Reason),
}

/// The coordinator of one run: differ, SVD, convergence and recovery.
/// [`MtcEsse::run`] is a receive loop over its steps — [`Run::tick`],
/// [`Run::on_done`], [`Run::svd_round`], [`Run::advance_stage`] —
/// closed by [`Run::finish`].
struct Run<'r> {
    sh: &'r Shared<'r>,
    /// The durable journal and the safe/live covariance files beside
    /// it: every published subspace goes through them so a resumed run
    /// recovers its "previous" estimate from disk.
    ck: Option<(&'r Checkpoint, DiskTripleBuffer)>,
    validator: Option<ForecastValidator>,
    task_tx: Sender<Attempt>,
    /// Held to withdraw attempts no worker will pick up any more.
    task_rx: Receiver<Attempt>,
    stages: Vec<usize>,
    stage_idx: usize,
    /// One record per member id planned, resumed ids included.
    records: Vec<TaskRecord>,
    flights: Vec<Flight>,
    ledger: MemberLedger,
    acc: Box<dyn SubspaceEstimator>,
    conv: ConvergenceTest,
    previous: Option<ErrorSubspace>,
    svd_rounds: usize,
    svd_version: u64,
    since_svd: usize,
    deadline_expired: bool,
    /// When the run stopped issuing work (convergence or deadline).
    halted_at: Option<Duration>,
    runtime_sum: Duration,
    runtime_count: u32,
    report: FaultReport,
    members_failed: usize,
    members_wasted: usize,
    /// Members quarantined and never healed (replacement budget
    /// exhausted) — reported separately from `members_failed`.
    members_quarantined_lost: usize,
}

impl<'r> Run<'r> {
    fn new(
        sh: &'r Shared<'r>,
        ck: Option<(&'r Checkpoint, DiskTripleBuffer)>,
        mut validator: Option<ForecastValidator>,
        init: &RunInit<'_>,
        central: Vec<f64>,
        (task_tx, task_rx): (Sender<Attempt>, Receiver<Attempt>),
    ) -> Run<'r> {
        let cfg = sh.cfg;
        let mut acc =
            make_estimator(&cfg.subspace, central, cfg.mode_rel_tol, cfg.max_rank, cfg.linalg);
        for (id, result) in init.resume {
            acc.add_member(*id, result);
            // Resumed members were validated before they were
            // journalled; they re-arm the decided-prefix stats.
            if let Some(v) = validator.as_mut() {
                v.note_decided(*id as u64, result);
            }
        }
        let replay = init.replay;
        Run {
            sh,
            ck,
            validator,
            task_tx,
            task_rx,
            stages: cfg.schedule.stages(),
            stage_idx: 0,
            records: Vec::new(),
            flights: Vec::new(),
            // The jitter stream is seeded from the run's own config and
            // only advanced when a retry is actually scheduled, so
            // zero-fault runs never consume it.
            ledger: MemberLedger::new(cfg.retry.clone(), 0, cfg.perturb.base_seed ^ 0x7E57_FA17),
            conv: match replay {
                Some(r) => ConvergenceTest::restore(cfg.tolerance, &r.rho_history),
                None => ConvergenceTest::new(cfg.tolerance),
            },
            previous: replay.and_then(|r| r.previous.clone()),
            svd_rounds: 0,
            svd_version: replay.map_or(0, |r| r.svd_version),
            // Resume restores the SVD stride phase: members folded from
            // the journal that the dead coordinator never decomposed
            // still count toward the next round.
            since_svd: replay.map_or(0, |r| acc.count().saturating_sub(r.last_svd_members)),
            acc,
            deadline_expired: false,
            halted_at: None,
            runtime_sum: Duration::ZERO,
            runtime_count: 0,
            report: FaultReport::default(),
            members_failed: 0,
            members_wasted: 0,
            members_quarantined_lost: 0,
        }
    }

    /// A coordinator-lane trace instant.
    fn note(&self, at: Duration, cat: &'static str, name: &'static str, args: Args<'_>) {
        self.sh.emit(EventKind::Instant, at, Lane::Coordinator, cat, name, args);
    }

    /// Write to the run journal, if one is attached.
    fn journal(&self, write: impl FnOnce(&Checkpoint) -> io::Result<()>) -> io::Result<()> {
        self.ck.as_ref().map_or(Ok(()), |(ck, _)| write(ck))
    }

    /// The run no longer issues work: it converged or hit its deadline.
    fn stopped(&self) -> bool {
        self.conv.converged() || self.deadline_expired
    }

    /// Planned members that are undecided with nothing in flight: they
    /// wait out a backoff.
    fn parked(&self) -> Vec<u64> {
        self.ledger.parked(self.records.len() as u64).collect()
    }

    /// An attempt is out, or a member waits out a backoff.
    fn unsettled(&self) -> bool {
        let mut parked = self.ledger.parked(self.records.len() as u64);
        self.ledger.in_flight_total() > 0 || parked.next().is_some()
    }

    fn mean_runtime(&self) -> Duration {
        self.runtime_sum.checked_div(self.runtime_count).unwrap_or_default()
    }

    /// Issue the next attempt of member `id` to the pool.
    fn send(&mut self, id: TaskId) {
        let now = self.sh.now();
        let attempt = self.ledger.issue(id as u64);
        self.records[id].enqueued_at = Some(now);
        self.task_tx.send(Attempt { id, attempt }).expect("task channel open");
        let args = [("member", id.into()), ("attempt", u64::from(attempt).into())];
        // A first issue carries no attempt index.
        self.note(now, "sched", "enqueued", &args[..if attempt == 0 { 1 } else { 2 }]);
    }

    /// Plan member ids up to the current stage's over-provisioned pool
    /// size `M = ceil(pool_factor · N)`: ids resumed from an earlier
    /// incarnation (already in the differ) are recorded as done, the
    /// rest go to the pool.
    fn plan_stage(&mut self) {
        let n = self.stages[self.stage_idx];
        let target = ((n as f64 * self.sh.cfg.pool_factor).ceil() as usize).max(n);
        for id in self.records.len()..target {
            self.records.push(TaskRecord::pending(id));
            self.flights.push(Flight::default());
            if self.acc.member_ids().contains(&id) {
                self.records[id].state = TaskState::Done;
                self.records[id].outcome = Some(TaskOutcome::Success);
                self.ledger.decide(id as u64, Fate::Completed(0));
            } else {
                self.send(id);
            }
        }
    }

    /// Stop issuing work: raise the cancel flag, close the ledger,
    /// cancel every member waiting out a backoff and everything still
    /// queued.
    fn halt(&mut self, now: Duration) {
        self.halted_at.get_or_insert(now);
        self.sh.cancel.store(true, Ordering::Relaxed);
        self.ledger.close();
        for m in self.parked() {
            self.records[m as usize].state = TaskState::Cancelled;
            self.ledger.decide(m, Fate::Abandoned);
        }
        self.drain_queued(now);
    }

    /// Withdraw queued attempts after a cancellation point
    /// (convergence, deadline, pool death): they will never be picked
    /// up.
    fn drain_queued(&mut self, now: Duration) {
        while let Ok(att) = self.task_rx.try_recv() {
            let m = att.id as u64;
            self.ledger.landed(m);
            if !self.ledger.decided(m) {
                self.records[att.id].state = TaskState::Cancelled;
                self.ledger.decide(m, Fate::Abandoned);
                self.note(now, "task", "cancelled", &[("member", att.id.into())]);
            }
        }
    }

    /// A result the run has no use for: computed, never ingested.
    fn waste(&mut self, id: TaskId) {
        self.records[id].outcome = Some(TaskOutcome::Wasted);
        self.members_wasted += 1;
        self.ledger.decide(id as u64, Fate::Abandoned);
    }

    /// Step 1, every turn of the loop whether or not a result arrived:
    /// the Tmax deadline, members whose backoff has passed, the death
    /// of the whole pool, and the straggler scan.
    fn tick(&mut self, now: Duration) -> io::Result<()> {
        let deadline = self.sh.cfg.deadline.filter(|&dl| !self.deadline_expired && now >= dl);
        if let Some(dl) = deadline {
            self.deadline_expired = true;
            let tmax_ms = dl.as_millis() as u64;
            self.note(now, "workflow", "deadline_expired", &[("tmax_ms", tmax_ms.into())]);
            self.halt(now);
        }
        for m in self.ledger.seedable(self.records.len() as u64, now) {
            self.send(m as usize);
        }
        if self.sh.alive.load(Ordering::SeqCst) == 0 && self.ledger.in_flight_total() > 0 {
            // The whole pool died: nothing queued will ever run, and
            // nobody is left for a member waiting out its backoff.
            self.drain_queued(now);
            for id in self.parked() {
                let rec = &mut self.records[id as usize];
                rec.state = TaskState::Done;
                rec.outcome = Some(TaskOutcome::Failed("worker pool died".into()));
                self.ledger.decide(id, Fate::Failed);
                self.journal(|ck| ck.record_failed(id as usize, CODE_POOL_DIED))?;
                self.members_failed += 1;
                self.sh.meter(|m| m.failed.inc());
            }
        }
        self.speculate(now);
        Ok(())
    }

    /// Straggler speculation: re-launch members that have been running
    /// much longer than the mean on the (free) pool; the first
    /// finisher resolves the member.
    fn speculate(&mut self, now: Duration) {
        let retry = &self.sh.cfg.retry;
        if !retry.speculative || self.stopped() || self.runtime_count < 2 {
            return;
        }
        let threshold = self.mean_runtime().mul_f64(retry.speculation_factor);
        for id in 0..self.records.len() {
            let (m, flight) = (id as u64, self.flights[id]);
            let alone = !self.ledger.decided(m)
                && flight.spec_attempt.is_none()
                && self.ledger.member(m).in_flight == 1;
            let Some(since) = flight.running_since.filter(|_| alone) else { continue };
            if now.saturating_sub(since) <= threshold {
                continue;
            }
            let attempt = self.ledger.issue_twin(m);
            self.flights[id].spec_attempt = Some(attempt);
            self.report.speculative_launches += 1;
            self.sh.meter(|m| m.spec_launches.inc());
            self.task_tx.send(Attempt { id, attempt }).expect("task channel open");
            let args = [("member", id.into()), ("attempt", u64::from(attempt).into())];
            self.note(now, "fault", "speculative_launch", &args);
        }
    }

    fn on_started(&mut self, id: TaskId, at: Duration) {
        self.flights[id].running_since = Some(at);
        if self.records[id].state == TaskState::Pending {
            self.records[id].state = TaskState::Running;
        }
    }

    /// Step 2: an attempt came back. Classify it once — accepted,
    /// quarantined, failed or timed out — and act on the ledger's
    /// answer. Returns `false` for the late duplicate of a member whose
    /// fate is already decided.
    fn on_done(&mut self, now: Duration, done: Done) -> io::Result<bool> {
        let Done { id, attempt, worker, started, finished, result } = done;
        let m = id as u64;
        self.ledger.landed(m);
        if self.ledger.member(m).in_flight == 0 {
            self.flights[id].running_since = None;
        }
        let twin = self.flights[id].spec_attempt == Some(attempt);
        if self.ledger.decided(m) {
            // The losing side of a speculation race, or a result
            // arriving after cancellation. Only the speculative attempt
            // itself counts as a loss — the original losing to its twin
            // is already scored as a win.
            if twin {
                self.report.speculative_losses += 1;
                self.sh.meter(|m| m.spec_losses.inc());
                self.note(now, "fault", "speculative_loss", &[("member", id.into())]);
            }
            return Ok(false);
        }
        let rec = &mut self.records[id];
        rec.worker = Some(worker);
        rec.started_at = Some(started);
        rec.finished_at = Some(finished);
        rec.state = TaskState::Done;
        let runtime = finished.saturating_sub(started);
        match result {
            // Per-task timeout: an over-budget attempt is discarded
            // even though it succeeded (its slot was needed elsewhere;
            // paper §4 point 1 — timeliness).
            Ok(_) if self.sh.cfg.retry.task_timeout.is_some_and(|limit| runtime > limit) => {
                self.report.timeouts += 1;
                self.sh.meter(|m| m.timeouts.inc());
                let runtime_ms = runtime.as_millis() as u64;
                let args = [("member", id.into()), ("runtime_ms", runtime_ms.into())];
                self.note(now, "fault", "task_timeout", &args);
                let why = format!("attempt exceeded task timeout ({runtime:?})");
                self.attempt_lost(id, now, Cause::Failed(why))?;
            }
            Ok(xf) => {
                self.runtime_sum += runtime;
                self.runtime_count += 1;
                let verdict = self.validator.as_ref().map(|v| v.validate_member(m, &xf));
                if let Some(Verdict::Quarantine(reason)) = verdict {
                    self.quarantine(id, now, reason)?;
                } else {
                    if twin {
                        self.report.speculative_wins += 1;
                        self.sh.meter(|m| m.spec_wins.inc());
                        self.note(now, "fault", "speculative_win", &[("member", id.into())]);
                    }
                    self.accept(id, started, &xf)?;
                }
            }
            Err(e) => self.attempt_lost(id, now, Cause::Failed(e.to_string()))?,
        }
        self.publish_progress(id);
        Ok(true)
    }

    /// A clean payload. Before the run stopped it joins the ensemble;
    /// after a deadline it is ignored ("late runs are safely ignored");
    /// after convergence the completion policy decides (§4.1).
    fn accept(&mut self, id: TaskId, started: Duration, xf: &[f64]) -> io::Result<()> {
        let converged = self.conv.converged();
        let keep = match self.sh.cfg.completion {
            _ if !converged => !self.deadline_expired,
            CompletionPolicy::CancelImmediately => false,
            CompletionPolicy::UseCompleted => true,
            // Spare only members that had already run ≥ frac of the
            // mean runtime when the convergence fired ("spare any
            // ensemble calculations close to finishing").
            CompletionPolicy::SpareNearlyDone(frac) => {
                let progress = self.halted_at.unwrap_or_default().saturating_sub(started);
                progress.as_secs_f64() >= frac * self.mean_runtime().as_secs_f64()
            }
        };
        if !keep {
            self.waste(id);
            return Ok(());
        }
        self.records[id].outcome = Some(TaskOutcome::Success);
        let attempts = self.ledger.complete(id as u64);
        // Blob first, journal record second: the record is the commit
        // point.
        self.journal(|ck| ck.record_member(id, attempts, xf))?;
        self.acc.add_member(id, xf);
        if let Some(v) = self.validator.as_mut() {
            v.note_decided(id as u64, xf);
        }
        if !converged {
            self.since_svd += 1;
        }
        Ok(())
    }

    /// Semantic quarantine: the attempt "succeeded" but its payload is
    /// wrong — it never enters the spread matrix.
    fn quarantine(&mut self, id: TaskId, now: Duration, reason: Reason) -> io::Result<()> {
        self.report.quarantined += 1;
        self.ledger.mark_quarantined(id as u64);
        self.sh.meter(|m| m.quarantined.inc());
        let args = [("member", id.into()), ("reason", u64::from(reason.code()).into())];
        self.note(now, "fault", "member_quarantined", &args);
        if self.stopped() {
            // The member would have been wasted anyway; the corrupt
            // payload is simply never spared.
            self.waste(id);
            return Ok(());
        }
        // The quarantine is a journalled decision: resume replays it
        // bit-for-bit.
        self.journal(|ck| ck.record_quarantined(id, reason.code()))?;
        self.attempt_lost(id, now, Cause::Quarantined(reason))
    }

    /// The one path every lost attempt takes: charge the retry budget
    /// and do what the ledger answers — wait for a twin still in
    /// flight, requeue with backoff (a retry, or the self-healing
    /// replacement of a quarantined member), or record the permanent
    /// loss.
    fn attempt_lost(&mut self, id: TaskId, now: Duration, cause: Cause) -> io::Result<()> {
        let (m, failed) = (id as u64, matches!(cause, Cause::Failed(_)));
        let code = if failed { CODE_ATTEMPTS_EXHAUSTED } else { CODE_QUARANTINE_BUDGET };
        match self.ledger.lose(m, Budget::Attempts, code, now) {
            Loss::Covered => self.records[id].state = TaskState::Running,
            Loss::Reissue { after } => {
                self.report.retries += 1;
                self.sh.meter(|m| m.retries.inc());
                self.records[id].state = TaskState::Pending;
                let attempt = u64::from(self.ledger.member(m).issued);
                let delay_ms = after.as_millis() as u64;
                let args = [
                    ("member", id.into()),
                    ("attempt", attempt.into()),
                    ("delay_ms", delay_ms.into()),
                ];
                if failed {
                    self.note(now, "fault", "retry_scheduled", &args);
                } else {
                    self.note(now, "fault", "replacement_scheduled", &args[..2]);
                }
            }
            Loss::Lost { code } => {
                let (why, lost_as) = match cause {
                    Cause::Failed(why) => {
                        self.members_failed += 1;
                        (why, "member_failed_permanent")
                    }
                    Cause::Quarantined(reason) => {
                        self.members_quarantined_lost += 1;
                        (format!("quarantined: {}", reason.describe()), "member_lost_quarantine")
                    }
                };
                self.records[id].outcome = Some(TaskOutcome::Failed(why));
                self.journal(|ck| ck.record_failed(id, code))?;
                let attempts = u64::from(self.ledger.member(m).issued);
                self.note(
                    now,
                    "fault",
                    lost_as,
                    &[("member", id.into()), ("attempts", attempts.into())],
                );
            }
        }
        Ok(())
    }

    /// Meters and progress counters after member `id`'s attempt.
    fn publish_progress(&self, id: TaskId) {
        let (sh, done, planned) = (self.sh, self.acc.count(), self.records.len().max(1));
        sh.meter(|m| {
            match &self.records[id].outcome {
                Some(TaskOutcome::Success) => m.completed.inc(),
                Some(TaskOutcome::Wasted) => m.wasted.inc(),
                Some(TaskOutcome::Failed(_)) => m.failed.inc(),
                None => {}
            }
            m.members_done.set(done as f64);
            m.coverage.set(done as f64 / planned as f64);
            if let Some(w) = self.records[id].queue_wait() {
                m.queue_wait.observe(ns(w));
            }
        });
        let counter = |name, value: usize, always: bool| {
            if always || value > 0 {
                let kind = EventKind::Counter(value as f64);
                sh.emit(kind, sh.now(), Lane::Coordinator, "counter", name, &[]);
            }
        };
        counter("members_done", done, true);
        counter("members_failed", self.members_failed, true);
        counter("members_wasted", self.members_wasted, true);
        counter("retries", self.report.retries, false);
        counter("timeouts", self.report.timeouts, false);
    }

    /// Step 3, the continuous SVD stage: once `svd_stride` members
    /// arrived since the last round, or the stage filled, decompose
    /// the ensemble and compare with the previous estimate.
    fn svd_round(&mut self) -> Result<(), EsseError> {
        let (sh, lane, members) = (self.sh, Lane::Coordinator, self.acc.count());
        let due = self.since_svd >= sh.cfg.svd_stride || members >= self.stages[self.stage_idx];
        if !due || members < 2 {
            return Ok(());
        }
        self.since_svd = 0;
        let started = sh.now();
        sh.emit(EventKind::Begin, started, lane, "svd", "svd", &[("members", members.into())]);
        let round = match self.acc.estimate()? {
            Some(update) => Some(self.publish(update)?),
            None => None,
        };
        let finished = sh.now();
        let took = finished.saturating_sub(started);
        if let Some((kind, defect, bound)) = round {
            // Nested span naming the update flavour this round took
            // (incremental fold vs full/refresh recompute), emitted
            // retroactively with the measured bounds so the outer "svd"
            // span stays stable for analytics.
            let folded = kind == UpdateKind::Incremental;
            let inner = if folded { "subspace_update" } else { "subspace_refresh" };
            let args = [("defect", defect.into()), ("error_bound", bound.into())];
            sh.emit(EventKind::Begin, started, lane, "svd", inner, &args);
            sh.emit(EventKind::End, finished, lane, "svd", inner, &[]);
            sh.meter(|m| {
                let timing = if folded { &m.subspace_update } else { &m.subspace_refresh };
                timing.observe(ns(took));
                m.subspace_defect.set(defect);
            });
        }
        sh.emit(EventKind::End, finished, lane, "svd", "svd", &[]);
        sh.observe("svd", took);
        Ok(())
    }

    /// One round's estimate: the convergence test against the previous
    /// one, then the safe/live files and the journal. Returns what the
    /// round's trace span reports.
    fn publish(&mut self, update: SubspaceUpdate) -> Result<(UpdateKind, f64, f64), EsseError> {
        self.svd_rounds += 1;
        let members = self.acc.count();
        let mut rho = f64::NAN;
        if let Some(prev) = &self.previous {
            rho = similarity(prev, &update.subspace);
            self.sh.meter(|m| m.rho.set(rho));
            let args = [("rho", rho.into()), ("members", members.into())];
            self.note(self.sh.now(), "svd", "convergence_check", &args);
            if self.conv.check(rho) {
                let now = self.sh.now();
                self.note(now, "workflow", "converged", &args);
                self.halt(now);
            }
        }
        if let Some((ck, cov)) = &self.ck {
            self.svd_version += 1;
            // Covariance files first (safe/live publish), then the
            // journal record as commit point.
            cov.publish(&subspace_to_bytes(&update.subspace), self.svd_version)?;
            ck.record_svd(members, self.svd_version, rho)?;
            if self.conv.converged() {
                ck.record_converged(members, rho)?;
            }
        }
        self.previous = Some(update.subspace);
        Ok((update.kind, update.defect, update.error_bound))
    }

    /// Step 4, pool growth: if the current stage is complete but the
    /// run has not converged, move to the next stage and top up the
    /// pool before the pipeline drains (§4.1). Returns whether it did.
    fn advance_stage(&mut self) -> bool {
        let last = self.stage_idx + 1 == self.stages.len();
        if last || self.conv.converged() || self.acc.count() < self.stages[self.stage_idx] {
            return false;
        }
        self.stage_idx += 1;
        let target = self.stages[self.stage_idx];
        self.note(self.sh.now(), "workflow", "stage_advance", &[("target", target.into())]);
        self.plan_stage();
        true
    }

    /// The last step: stop the pool, decompose whatever the completion
    /// policy admits, and report the run's health.
    fn finish(mut self, central: Vec<f64>) -> Result<MtcOutcome, EsseError> {
        let (sh, cfg, lane) = (self.sh, self.sh.cfg, Lane::Coordinator);
        sh.cancel.store(true, Ordering::Relaxed);
        for rec in &mut self.records {
            rec.attempts = self.ledger.member(rec.id as u64).issued;
        }
        let members_cancelled =
            self.records.iter().filter(|r| r.state == TaskState::Cancelled).count();
        let members = self.acc.count();
        if self.deadline_expired && members < 2 {
            let budget = cfg.deadline.expect("deadline fired");
            return Err(EsseError::Deadline { elapsed: sh.now(), budget });
        }

        // Completion policy: a final SVD over everything that arrived.
        let recompute = cfg.completion != CompletionPolicy::CancelImmediately;
        let mut subspace = self.previous.take();
        if recompute || subspace.is_none() {
            let args = [("members", members.into())];
            sh.emit(EventKind::Begin, sh.now(), lane, "svd", "svd_final", &args);
            if let Some(update) = self.acc.estimate()? {
                self.svd_rounds += 1;
                subspace = Some(update.subspace);
            }
            sh.emit(EventKind::End, sh.now(), lane, "svd", "svd_final", &[]);
        }
        let subspace = subspace.ok_or(EsseError::NotEnoughMembers { have: members, need: 2 })?;

        let mut faults = std::mem::take(&mut self.report);
        let replaced = self.ledger.count(Member::replaced);
        faults.replaced = replaced;
        let workers = cfg.workers.max(1);
        faults.workers_died = workers - sh.alive.load(Ordering::SeqCst).min(workers);
        // Statistical health: permanent losses (and deadline
        // truncation) are reported explicitly, never silently. A
        // quarantined member whose replacement budget ran out is its
        // own degradation class, distinct from crash-shaped losses.
        let converged = self.conv.converged();
        let truncated = self.deadline_expired && !converged;
        let lost_members = self.members_failed
            + if truncated { members_cancelled + self.members_wasted } else { 0 };
        let quarantined = self.members_quarantined_lost;
        let planned = self.records.len().max(1) as f64;
        let health = if lost_members == 0 && quarantined == 0 {
            RunHealth::Full
        } else {
            let succeeded =
                self.records.iter().filter(|r| r.outcome == Some(TaskOutcome::Success)).count();
            let coverage = succeeded as f64 / planned;
            let args = [
                ("coverage", coverage.into()),
                ("lost", lost_members.into()),
                ("quarantined", quarantined.into()),
                ("replaced", replaced.into()),
            ];
            self.note(sh.now(), "workflow", "degraded", &args);
            RunHealth::Degraded { coverage, lost_members, quarantined, replaced }
        };
        sh.meter(|m| {
            m.replaced.add(replaced as u64);
            m.cancelled.add(members_cancelled as u64);
            m.workers_died.add(faults.workers_died as u64);
            m.members_done.set(members as f64);
            m.coverage.set(members as f64 / planned);
        });
        Ok(MtcOutcome {
            central,
            subspace,
            converged,
            rho_history: self.conv.history().to_vec(),
            makespan: sh.now(),
            members_used: members,
            members_failed: self.members_failed,
            members_wasted: self.members_wasted,
            members_cancelled,
            svd_rounds: self.svd_rounds,
            deadline_expired: self.deadline_expired,
            health,
            faults,
            records: self.records,
        })
    }
}

/// The MTC ESSE engine.
pub struct MtcEsse<'m, M: ForecastModel> {
    /// The forecast model shared by all workers.
    pub model: &'m M,
    /// Workflow configuration.
    pub config: MtcConfig,
    /// Observability sink (no-op unless [`MtcEsse::with_recorder`]).
    recorder: &'m dyn Recorder,
    /// Live metrics registry (none unless [`MtcEsse::with_metrics`]).
    metrics: Option<&'m MetricsRegistry>,
    /// Durable run journal (none unless [`MtcEsse::with_checkpoint`]).
    checkpoint: Option<&'m Checkpoint>,
    /// Semantic ingest gate (none unless [`MtcEsse::with_validator`]).
    validator: Option<ForecastValidator>,
}

impl<'m, M: ForecastModel> MtcEsse<'m, M> {
    /// New engine.
    pub fn new(model: &'m M, config: MtcConfig) -> Self {
        MtcEsse { model, config, recorder: &NULL, metrics: None, checkpoint: None, validator: None }
    }

    /// Attach a semantic forecast validator. Every arriving payload
    /// must then pass the validator before it enters the spread matrix:
    /// a quarantined member is journalled with its reason code,
    /// replaced under the retry budget (fresh attempt index, same
    /// member), and — only when the budget is exhausted — reported in
    /// the [`RunHealth::Degraded`] quarantine breakdown. Accepted
    /// members feed the validator's decided-prefix statistics for the
    /// ensemble-relative outlier test.
    pub fn with_validator(mut self, validator: ForecastValidator) -> Self {
        self.validator = Some(validator);
        self
    }

    /// Attach a trace recorder. Workers then emit one `task`/`member`
    /// span per executed attempt on their [`Lane::Worker`] lane
    /// (timestamped on the same workflow clock as [`TaskRecord`]s), and
    /// the coordinator emits SVD spans, convergence/deadline instants,
    /// fault-recovery instants (`retry_scheduled`, `task_timeout`,
    /// `speculative_launch`, `worker_died`) and progress counters on
    /// [`Lane::Coordinator`]. With the default
    /// [`esse_obs::NullRecorder`] every instrumentation site reduces to
    /// a branch on `enabled()`.
    pub fn with_recorder(mut self, recorder: &'m dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach a live metrics registry. The run then keeps task-state
    /// counters (`esse_tasks_*_total`), fault-recovery counters
    /// (retries, timeouts, speculation, worker deaths), the convergence
    /// rho gauge, and runtime/queue-wait histograms current while it
    /// executes — scrape [`MetricsRegistry::snapshot`] at any moment
    /// for a consistent point-in-time view.
    pub fn with_metrics(mut self, registry: &'m MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attach a durable run journal. Every member that enters the
    /// spread matrix is first persisted (result blob + journal record
    /// as the commit point), permanent failures and SVD rounds are
    /// journalled, and each published subspace is written through the
    /// on-disk safe/live covariance files in the checkpoint directory —
    /// so a coordinator killed at any instant can be resumed via
    /// [`Checkpoint::open`] + [`RunInit::resuming`]/
    /// [`RunInit::rehydrating`] without re-running completed members.
    pub fn with_checkpoint(mut self, checkpoint: &'m Checkpoint) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Run the decoupled uncertainty forecast (Fig. 4).
    ///
    /// This is the single entry point: a fresh run is
    /// `run(RunInit::new(&mean, &prior))`; a restarted one chains
    /// [`RunInit::resuming`]. (Before the unified API this was the pair
    /// `run(&mean, &prior)` / `run_resuming(&mean, &prior, &previous)`.)
    pub fn run(&self, init: RunInit<'_>) -> Result<MtcOutcome, EsseError> {
        let cfg = &self.config;
        let workers = cfg.workers.max(1);
        let sh = Shared {
            cfg,
            t0: Instant::now(),
            obs: self.recorder,
            met: self.metrics.map(Meters::new),
            cancel: AtomicBool::new(false),
            alive: AtomicUsize::new(workers),
        };
        let ck = match self.checkpoint {
            Some(ck) => Some((ck, DiskTripleBuffer::create(ck.dir())?)),
            None => None,
        };
        let lane = Lane::Coordinator;
        if !init.resume.is_empty() {
            let args = [("members", init.resume.len().into())];
            sh.emit(EventKind::Instant, Duration::ZERO, lane, "workflow", "resumed", &args);
        }
        let gen = PerturbationGenerator::new(init.prior, cfg.perturb.clone());
        // Central forecast first: the differ needs it.
        sh.emit(EventKind::Begin, sh.now(), lane, "phase", "central_forecast", &[]);
        let central = self.model.forecast(init.mean, cfg.start_time, cfg.duration, None)?;
        sh.emit(EventKind::End, sh.now(), lane, "phase", "central_forecast", &[]);

        let (task_tx, task_rx) = unbounded::<Attempt>();
        let (msg_tx, msg_rx) = unbounded::<WorkerMsg>();
        let crew = Crew { sh: &sh, model: self.model, mean0: init.mean, gen: &gen };
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (crew, task_rx, msg_tx) = (&crew, task_rx.clone(), msg_tx.clone());
                scope.spawn(move || crew.work(w, task_rx, msg_tx));
            }
            drop(msg_tx); // the coordinator keeps only msg_rx
            let (validator, tasks) = (self.validator.clone(), (task_tx, task_rx));
            let mut run = Run::new(&sh, ck, validator, &init, central.clone(), tasks);
            run.plan_stage();
            // Resumed members may already complete early stages.
            while run.advance_stage() {}
            if run.conv.converged() {
                // The replayed history had already converged.
                run.halt(sh.now());
            }
            // Runs until every issued attempt is accounted for and no
            // member waits out a backoff. The wait is bounded so
            // deadlines, backoff releases and the straggler scan run
            // even while results are scarce.
            while run.unsettled() {
                let msg = msg_rx.recv_timeout(Duration::from_millis(5));
                let now = sh.now();
                run.tick(now)?;
                match msg {
                    Ok(WorkerMsg::Started { id, at }) => run.on_started(id, at),
                    Ok(WorkerMsg::Done(done)) => {
                        // A stopped run only drains in-flight results.
                        if run.on_done(now, done)? && !run.stopped() {
                            run.svd_round()?;
                            run.advance_stage();
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            run.finish(central)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esse_core::model::LinearGaussianModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (LinearGaussianModel, ErrorSubspace, Vec<f64>) {
        let rates = [0.98, 0.95, 0.3, 0.3, 0.2, 0.1];
        let model = LinearGaussianModel::diagonal(&rates, 0.05, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let prior = ErrorSubspace::isotropic(&mut rng, 6, 6, 1.0);
        (model, prior, vec![0.0; 6])
    }

    fn config(workers: usize) -> MtcConfig {
        MtcConfig {
            workers,
            schedule: EnsembleSchedule::new(16, 256),
            tolerance: 0.05,
            duration: 10.0,
            max_rank: 6,
            svd_stride: 8,
            ..Default::default()
        }
    }

    fn validator6(mean: &[f64]) -> ForecastValidator {
        use esse_core::validate::{ValidatorConfig, VarBounds};
        ForecastValidator::new(
            vec![VarBounds { name: "x", range: 0..6, lo: -1e3, hi: 1e3 }],
            mean.to_vec(),
            ValidatorConfig::default(),
        )
    }

    #[test]
    fn quarantined_members_are_replaced_under_the_retry_budget() {
        let (model, prior, mean) = setup();
        let mut cfg = config(3);
        cfg.faults = Some(FaultPlan::seeded(11).with_corruption(0.3));
        cfg.retry = RetryPolicy::retries(6);
        // Drain the whole plan so replacements are never cancelled by
        // early convergence — healing is what is under test here.
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(24, 24);
        cfg.pool_factor = 1.0;
        let engine = MtcEsse::new(&model, cfg).with_validator(validator6(&mean));
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        assert!(out.faults.quarantined > 0, "no corruption was ever caught");
        assert!(out.faults.replaced > 0, "no quarantined member was healed");
        assert!(out.faults.replaced <= out.faults.quarantined);
        // Every caught member healed within the budget: full health.
        assert_eq!(out.health, RunHealth::Full, "faults: {:?}", out.faults);
        assert_eq!(out.members_failed, 0);
    }

    #[test]
    fn exhausted_replacement_budget_lands_degraded_with_a_quarantine_breakdown() {
        let (model, prior, mean) = setup();
        let mut cfg = config(2);
        cfg.faults = Some(FaultPlan::seeded(3).with_corruption(0.45));
        cfg.retry = RetryPolicy::disabled();
        cfg.tolerance = 1e-12; // never converge: drain the full plan
        cfg.schedule = EnsembleSchedule::new(16, 16);
        cfg.pool_factor = 1.0;
        let engine = MtcEsse::new(&model, cfg).with_validator(validator6(&mean));
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        match out.health {
            RunHealth::Degraded { quarantined, replaced, lost_members, coverage } => {
                assert!(quarantined > 0, "faults: {:?}", out.faults);
                assert_eq!(replaced, 0, "no retries were allowed");
                assert_eq!(lost_members, 0, "quarantine is not a crash-shaped loss");
                assert!(coverage < 1.0);
                assert!(out.faults.quarantined >= quarantined);
            }
            h => panic!("expected a degraded quarantine verdict, got {h:?}"),
        }
    }

    #[test]
    fn mtc_workflow_converges() {
        let (model, prior, mean) = setup();
        let engine = MtcEsse::new(&model, config(4));
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        assert!(out.converged, "rho: {:?}", out.rho_history);
        assert!(out.members_used >= 16);
        assert!(out.svd_rounds >= 2);
        assert_eq!(out.health, RunHealth::Full);
        assert!(out.faults.is_clean());
        // Dominant subspace captures the slow axes.
        let lead = out.subspace.modes.col(0);
        assert!(lead[0] * lead[0] + lead[1] * lead[1] > 0.8);
    }

    #[test]
    fn all_tasks_accounted_for() {
        let (model, prior, mean) = setup();
        let engine = MtcEsse::new(&model, config(3));
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        for r in &out.records {
            assert!(
                matches!(r.state, TaskState::Done | TaskState::Cancelled),
                "task {} left in {:?}",
                r.id,
                r.state
            );
            if r.state == TaskState::Done {
                assert!(r.outcome.is_some());
                assert!(r.runtime().is_some());
                assert!(r.attempts >= 1);
            }
        }
    }

    #[test]
    fn single_worker_matches_multi_worker_statistics() {
        // Same member seeds ⇒ same member results regardless of worker
        // count; the subspace from the same member set must agree.
        let (model, prior, mean) = setup();
        let mut cfg = config(1);
        cfg.tolerance = 1e-12; // force full Nmax in both runs
        cfg.schedule = EnsembleSchedule::new(32, 32);
        cfg.pool_factor = 1.0;
        let out1 = MtcEsse::new(&model, cfg.clone()).run(RunInit::new(&mean, &prior)).unwrap();
        let mut cfg4 = cfg;
        cfg4.workers = 4;
        let out4 = MtcEsse::new(&model, cfg4).run(RunInit::new(&mean, &prior)).unwrap();
        assert_eq!(out1.members_used, out4.members_used);
        let rho = similarity(&out1.subspace, &out4.subspace);
        assert!(rho > 0.9999, "subspaces should match, rho = {rho}");
    }

    #[test]
    fn failures_are_tolerated_and_counted() {
        struct Flaky(LinearGaussianModel);
        impl ForecastModel for Flaky {
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
                if let Some(s) = seed {
                    if s % 4 == 0 {
                        return Err(ForecastError::Injected("node crash".into()));
                    }
                }
                self.0.forecast(x0, t, d, seed)
            }
        }
        let (inner, prior, mean) = setup();
        let model = Flaky(inner);
        let engine = MtcEsse::new(&model, config(4));
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        assert!(out.members_failed > 0);
        // Every pool slot resolved one way or the other; the survivors
        // still form a usable ensemble. (How many members fail depends
        // on the rand backend's seed hash, so the split is asserted
        // jointly rather than per side.)
        assert!(
            out.members_used + out.members_failed >= 16,
            "used {} + failed {}",
            out.members_used,
            out.members_failed
        );
        assert!(out.members_used >= 2, "used {}", out.members_used);
        // Deterministic failures survive the (default) single attempt,
        // and the outcome says so out loud.
        assert!(out.health.is_degraded(), "losses must be reported: {:?}", out.health);
    }

    #[test]
    fn cancel_immediately_wastes_inflight_results() {
        let (model, prior, mean) = setup();
        let mut cfg = config(4);
        cfg.completion = CompletionPolicy::CancelImmediately;
        cfg.pool_factor = 2.0; // lots of extra in-flight work
        let engine = MtcEsse::new(&model, cfg);
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        if out.converged {
            // Over-provisioned pool + immediate cancel ⇒ some members
            // were computed in vain or cancelled outright.
            assert!(
                out.members_wasted + out.members_cancelled > 0,
                "wasted {}, cancelled {}",
                out.members_wasted,
                out.members_cancelled
            );
        }
    }

    #[test]
    fn resume_skips_completed_members_and_matches_fresh_run() {
        // Precompute members 0..20 as a previous incarnation would have
        // left them (the bookkeeping files of paper 4.2), then resume.
        let (model, prior, mean) = setup();
        let mut cfg = config(2);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(32, 32);
        cfg.pool_factor = 1.0;
        let gen = esse_core::perturb::PerturbationGenerator::new(&prior, cfg.perturb.clone());
        let previous: Vec<(TaskId, Vec<f64>)> = (0..20)
            .map(|j| {
                let x0 = gen.perturb(&mean, j);
                let xf = model
                    .forecast(&x0, cfg.start_time, cfg.duration, Some(gen.forecast_seed(j)))
                    .unwrap();
                (j, xf)
            })
            .collect();
        let resumed = MtcEsse::new(&model, cfg.clone())
            .run(RunInit::new(&mean, &prior).resuming(&previous))
            .unwrap();
        // Only 12 members actually ran in this incarnation.
        let ran = resumed.records.iter().filter(|r| r.worker.is_some()).count();
        assert_eq!(ran, 12, "resume must not rerun completed members");
        assert_eq!(resumed.members_used, 32);
        // Identical subspace to an uninterrupted run (same member seeds).
        let fresh = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        let rho = similarity(&fresh.subspace, &resumed.subspace);
        assert!(rho > 0.9999, "rho = {rho}");
    }

    #[test]
    fn resume_with_all_members_done_skips_straight_to_svd() {
        let (model, prior, mean) = setup();
        let mut cfg = config(2);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(8, 8);
        cfg.pool_factor = 1.0;
        let gen = esse_core::perturb::PerturbationGenerator::new(&prior, cfg.perturb.clone());
        let previous: Vec<(TaskId, Vec<f64>)> = (0..8)
            .map(|j| {
                let x0 = gen.perturb(&mean, j);
                (j, model.forecast(&x0, 0.0, cfg.duration, Some(gen.forecast_seed(j))).unwrap())
            })
            .collect();
        let out =
            MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior).resuming(&previous)).unwrap();
        assert_eq!(out.members_used, 8);
        assert!(out.records.iter().all(|r| r.worker.is_none()), "nothing re-ran");
        assert!(out.subspace.rank() >= 1);
    }

    #[test]
    fn metrics_registry_counters_match_run_result() {
        let (model, prior, mean) = setup();
        let registry = esse_obs::MetricsRegistry::new();
        let engine = MtcEsse::new(&model, config(4)).with_metrics(&registry);
        let result = engine.run(RunInit::new(&mean, &prior)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("esse_tasks_completed_total"),
            Some(result.members_used as u64),
            "completed counter must match members_used"
        );
        assert_eq!(snap.gauge("esse_members_done"), Some(result.members_used as f64));
        let attempts = snap.counter("esse_task_attempts_total").unwrap();
        assert!(
            attempts >= result.members_used as u64,
            "every used member took at least one attempt ({attempts} < {})",
            result.members_used
        );
        let runtime =
            snap.histogram("esse_member_runtime_ns").expect("member runtime histogram registered");
        assert_eq!(runtime.count(), attempts, "one runtime sample per attempt");
        let waits = snap.histogram("esse_queue_wait_ns").expect("queue wait histogram registered");
        assert!(waits.count() > 0, "queue waits observed");
        let cov = snap.gauge("esse_coverage").unwrap();
        assert!((0.0..=1.0).contains(&cov), "coverage {cov} out of range");
    }

    #[test]
    fn unified_resume_entry_is_deterministic() {
        let (model, prior, mean) = setup();
        let mut cfg = config(1);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(16, 16);
        cfg.pool_factor = 1.0;
        let gen = esse_core::perturb::PerturbationGenerator::new(&prior, cfg.perturb.clone());
        let previous: Vec<(TaskId, Vec<f64>)> = (0..4)
            .map(|j| {
                let x0 = gen.perturb(&mean, j);
                (j, model.forecast(&x0, 0.0, cfg.duration, Some(gen.forecast_seed(j))).unwrap())
            })
            .collect();
        let engine = MtcEsse::new(&model, cfg);
        let first = engine.run(RunInit::new(&mean, &prior).resuming(&previous)).unwrap();
        let second = engine.run(RunInit::new(&mean, &prior).resuming(&previous)).unwrap();
        assert_eq!(first.members_used, second.members_used);
        let rho = similarity(&first.subspace, &second.subspace);
        assert!(rho > 0.9999, "rho = {rho}");
    }

    #[test]
    fn spare_nearly_done_interpolates_between_policies() {
        let (model, prior, mean) = setup();
        let run_with = |completion: CompletionPolicy| {
            let cfg = MtcConfig {
                workers: 4,
                pool_factor: 2.0,
                schedule: EnsembleSchedule::new(16, 256),
                tolerance: 0.05,
                duration: 10.0,
                max_rank: 6,
                svd_stride: 8,
                completion,
                ..Default::default()
            };
            MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap()
        };
        // frac = 0: everything in flight counts as "nearly done" → no
        // wasted results (like UseCompleted).
        let spare_all = run_with(CompletionPolicy::SpareNearlyDone(0.0));
        assert_eq!(spare_all.members_wasted, 0, "frac=0 must spare everything");
        // frac huge: nothing qualifies → in-flight results are wasted,
        // like CancelImmediately (if anything was in flight at all).
        let spare_none = run_with(CompletionPolicy::SpareNearlyDone(1e6));
        let cancel = run_with(CompletionPolicy::CancelImmediately);
        assert_eq!(
            spare_none.members_wasted > 0,
            cancel.members_wasted > 0,
            "frac=inf behaves like cancel-immediately"
        );
    }

    #[test]
    fn deadline_cancels_and_is_reported() {
        // A model slow enough that the deadline fires mid-ensemble.
        struct Slow(LinearGaussianModel);
        impl ForecastModel for Slow {
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
                std::thread::sleep(Duration::from_millis(30));
                self.0.forecast(x0, t, d, seed)
            }
        }
        let (inner, prior, mean) = setup();
        let model = Slow(inner);
        let cfg = MtcConfig {
            workers: 2,
            pool_factor: 1.0,
            schedule: EnsembleSchedule::new(64, 64),
            tolerance: 1e-12,
            duration: 10.0,
            max_rank: 6,
            svd_stride: 8,
            deadline: Some(Duration::from_millis(250)),
            ..Default::default()
        };
        let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        assert!(out.deadline_expired, "deadline should fire");
        assert!(!out.converged);
        // Far fewer than 64 members made it; the rest were cancelled or
        // ignored as late.
        assert!(out.members_used < 64, "used {}", out.members_used);
        assert!(out.members_cancelled + out.members_wasted > 0);
        // Deadline truncation is an explicit degradation, not a silent
        // partial ensemble.
        assert!(out.health.is_degraded());
        // Losses at the tail are contiguous-from-the-end, which the
        // coverage check treats as a (known) systematic truncation.
        let cov = out.coverage();
        assert_eq!(cov.total, out.records.len());
        assert!(cov.missing() > 0);
    }

    #[test]
    fn coverage_clean_on_full_run() {
        let (model, prior, mean) = setup();
        let mut cfg = config(2);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(16, 16);
        cfg.pool_factor = 1.0;
        let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        let cov = out.coverage();
        assert_eq!(cov.missing(), 0);
        assert!(!cov.is_systematic_hole());
        assert_eq!(out.health, RunHealth::Full);
    }

    #[test]
    fn pool_is_overprovisioned() {
        let (model, prior, mean) = setup();
        let mut cfg = config(2);
        cfg.pool_factor = 1.5;
        cfg.tolerance = 1e-12; // never converges; runs to Nmax
        cfg.schedule = EnsembleSchedule::new(8, 16);
        let engine = MtcEsse::new(&model, cfg);
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        // M = 1.5 × 16 = 24 tasks were enqueued in total.
        assert!(out.records.len() >= 24, "records {}", out.records.len());
    }

    #[test]
    fn builder_produces_validated_config() {
        let cfg = MtcConfig::builder()
            .workers(3)
            .pool_factor(1.5)
            .schedule(EnsembleSchedule::new(8, 32))
            .tolerance(0.04)
            .duration(3600.0)
            .retry(RetryPolicy::retries(3))
            .build()
            .unwrap();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.retry.max_attempts, 3);
        assert!(cfg.faults.is_none());
    }

    #[test]
    fn builder_rejects_invalid_fields() {
        assert_eq!(MtcConfig::builder().workers(0).build().unwrap_err().field, "workers");
        assert_eq!(MtcConfig::builder().pool_factor(0.5).build().unwrap_err().field, "pool_factor");
        assert_eq!(MtcConfig::builder().tolerance(0.0).build().unwrap_err().field, "tolerance");
        assert_eq!(MtcConfig::builder().tolerance(1.5).build().unwrap_err().field, "tolerance");
        assert_eq!(MtcConfig::builder().svd_stride(0).build().unwrap_err().field, "svd_stride");
        assert_eq!(MtcConfig::builder().max_rank(0).build().unwrap_err().field, "max_rank");
        assert_eq!(MtcConfig::builder().duration(f64::NAN).build().unwrap_err().field, "duration");
        // Builder validation reaches into the retry policy too.
        let bad_retry = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        assert_eq!(
            MtcConfig::builder().retry(bad_retry).build().unwrap_err().field,
            "retry.max_attempts"
        );
    }

    #[test]
    fn config_error_converts_into_esse_error() {
        let err: EsseError = MtcConfig::builder().workers(0).build().unwrap_err().into();
        assert!(matches!(err, EsseError::Config(_)));
        assert!(err.to_string().contains("workers"));
    }

    #[test]
    fn injected_crashes_recover_with_retries() {
        let (model, prior, mean) = setup();
        let mut cfg = config(4);
        cfg.tolerance = 1e-12; // run the whole fixed ensemble
        cfg.schedule = EnsembleSchedule::new(24, 24);
        cfg.pool_factor = 1.0;
        cfg.faults = Some(FaultPlan::seeded(11).with_crashes(0.25));
        cfg.retry = RetryPolicy::retries(5);
        let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        assert!(out.faults.retries > 0, "a 25% crash rate must trigger retries");
        assert_eq!(out.members_failed, 0, "retries should recover every member");
        assert_eq!(out.members_used, 24);
        assert_eq!(out.health, RunHealth::Full);
    }

    #[test]
    fn without_retries_injected_crashes_degrade_explicitly() {
        let (model, prior, mean) = setup();
        let mut cfg = config(4);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(24, 24);
        cfg.pool_factor = 1.0;
        cfg.faults = Some(FaultPlan::seeded(11).with_crashes(0.25));
        cfg.retry = RetryPolicy::disabled();
        let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        assert!(out.members_failed > 0);
        match out.health {
            RunHealth::Degraded { coverage, lost_members, .. } => {
                assert!(coverage < 1.0);
                assert_eq!(lost_members, out.members_failed);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    #[test]
    fn worker_death_reassigns_the_task() {
        let (model, prior, mean) = setup();
        let mut cfg = config(3);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(16, 16);
        cfg.pool_factor = 1.0;
        cfg.faults = Some(FaultPlan::seeded(5).with_worker_death(1, 2));
        cfg.retry = RetryPolicy::retries(3);
        let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        assert_eq!(out.faults.workers_died, 1);
        assert!(out.faults.retries >= 1, "the dying worker's task must be requeued");
        assert_eq!(out.members_failed, 0);
        assert_eq!(out.members_used, 16);
    }
}
