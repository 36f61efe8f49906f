//! The ESSE workflow: paper Fig. 4, and Fig. 3 as the one-worker
//! schedule [`MtcConfig::serial`] of the same engine.
//!
//! [`MtcEsse::run_on`] is the one run: the central forecast, then the
//! [`crate::coordinator::Coordinator`] stepped whenever the pool changes
//! or its next lease, backoff or deadline instant comes, then the
//! posterior. What runs the members is a [`Resource`] — the
//! application is kept apart from it: [`MtcEsse::run`] uses a [`Crew`]
//! of threads over the in-memory ports of [`crate::mem`], `esse_master`
//! a fleet of worker processes over the on-disk pool. This file also
//! keeps the configuration and turns the coordinator's verdicts into an
//! [`MtcOutcome`] with an explicit [`RunHealth`]; [`MtcEsse::cycle`]
//! adds the analysis step.

use crate::coordinator::{
    begin_incarnation, io, quiet, Coordinator, JournalPort, PoolPort, Progress, Setup, StorePort,
};
use crate::fault::{FaultPlan, FaultReport, RetryPolicy, RunHealth};
use crate::journal::{Checkpoint, JournalState};
use crate::mem::{Crew, MemPool};
use crate::pool::{PoolScan, CODE_POOL_DIED, CODE_QUARANTINE_BUDGET};
use crate::task::TaskOutcome::{self, Wasted};
use crate::task::TaskState::{Cancelled, Done};
use crate::task::{TaskId, TaskRecord};
use esse_core::adaptive::{CompletionPolicy, EnsembleSchedule};
use esse_core::assimilate::{assimilate, Analysis};
use esse_core::model::ForecastModel;
use esse_core::obs::ObsSet;
use esse_core::perturb::{PerturbConfig, PerturbationGenerator};
use esse_core::subspace::{ErrorSubspace, SubspaceStrategy};
use esse_core::validate::ForecastValidator;
use esse_core::{ConfigError, EsseError};
use esse_linalg::LinalgCtx;
use esse_obs::registry::MetricsRegistry;
use esse_obs::{Lane, Recorder, RecorderExt, NULL};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::sync::Mutex;
use std::time::Duration;

/// Configuration of the MTC workflow; the engine
/// [`validate`](MtcConfig::validate)s it before a run.
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
    /// Checkpoint the SVD at every multiple of this many decided members.
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
    /// Requeues (expired leases, quarantines) a member may take; `None`:
    /// one fewer than `retry.max_attempts`.
    pub requeue_budget: Option<u32>,
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
            requeue_budget: None,
        }
    }
}

impl MtcConfig {
    /// Paper Fig. 3, the serial workflow: one worker, no
    /// over-provisioning and an SVD only at stage boundaries. Stage N₂ is
    /// seeded in the step after stage N's checkpoint, so the SVD and the
    /// convergence test block between stages as in the serial loop.
    pub fn serial(self) -> MtcConfig {
        let svd_stride = self.schedule.max;
        MtcConfig { workers: 1, pool_factor: 1.0, svd_stride, ..self }
    }

    /// Check every field; [`MtcEsse::run_on`] refuses a configuration
    /// that fails.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let negative = |x: f64| x.is_nan() || x < 0.0;
        let (completion, subspace, tol) = (self.completion, self.subspace, self.tolerance);
        let spare = matches!(completion, CompletionPolicy::SpareNearlyDone(f) if negative(f));
        let drift =
            matches!(subspace, SubspaceStrategy::Incremental { defect_tol: t, .. } if negative(t));
        let (pool, span) = (self.pool_factor, self.duration);
        let rules = [
            (self.workers == 0, "workers", "must be at least 1"),
            (!(pool >= 1.0 && pool.is_finite()), "pool_factor", "must be finite and ≥ 1 (M ≥ N)"),
            (!(tol > 0.0 && tol < 1.0), "tolerance", "must lie strictly within (0, 1)"),
            (negative(self.mode_rel_tol), "mode_rel_tol", "must be ≥ 0"),
            (self.max_rank == 0, "max_rank", "must be at least 1"),
            (self.svd_stride == 0, "svd_stride", "must be at least 1"),
            (!span.is_finite() || span < 0.0, "duration", "must be finite and ≥ 0"),
            (spare, "completion", "SpareNearlyDone fraction must be ≥ 0"),
            (drift, "subspace", "Incremental defect_tol must be ≥ 0"),
            (self.linalg.threads == 0, "linalg", "threads must be at least 1"),
            (self.linalg.block_size == 0, "linalg", "block_size must be at least 1"),
        ];
        if let Some(&(_, field, why)) = rules.iter().find(|rule| rule.0) {
            return Err(ConfigError::new(field, why));
        }
        self.retry.validate()?;
        Ok(())
    }
}

/// Input to [`MtcEsse::run`]: the mean state and the prior subspace. A
/// stopped run resumes from its [`Checkpoint`] (paper §4.2: it "can be
/// restarted without rerunning all jobs").
#[derive(Debug, Clone, Copy)]
pub struct RunInit<'a> {
    /// Initial mean state.
    pub mean: &'a [f64],
    /// Prior error subspace supplying the perturbation directions.
    pub prior: &'a ErrorSubspace,
}

impl<'a> RunInit<'a> {
    /// A run from `mean` and `prior`.
    pub fn new(mean: &'a [f64], prior: &'a ErrorSubspace) -> RunInit<'a> {
        RunInit { mean, prior }
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
    /// Members computed but not in the posterior: the "wasted cycles".
    pub members_wasted: usize,
    /// Tasks cancelled before starting.
    pub members_cancelled: usize,
    /// SVD rounds executed.
    pub svd_rounds: usize,
    /// Whether the Tmax deadline fired before convergence/Nmax.
    pub deadline_expired: bool,
    /// [`RunHealth::Full`], or an explicit [`RunHealth::Degraded`].
    pub health: RunHealth,
    /// What the recovery machinery did.
    pub faults: FaultReport,
}

impl MtcOutcome {
    /// Statistical-coverage report over the planned member set (paper §4
    /// point 3: losses are fine unless they form a systematic hole).
    pub fn coverage(&self) -> crate::coverage::CoverageReport {
        let used = self.records.iter().filter(|r| r.outcome == Some(TaskOutcome::Success));
        let used: Vec<TaskId> = used.map(|r| r.id).collect();
        crate::coverage::analyze(&used, self.records.len())
    }
}

/// What runs a workflow's members, kept apart from the workflow itself:
/// the coordinator's pool, journal and store ports and the workers
/// behind them. [`Crew`] is one process's threads over [`crate::mem`];
/// `esse_master` runs the same [`MtcEsse::run_on`] over a fleet of
/// worker processes, the on-disk pool and `run.journal`.
pub trait Resource {
    /// The task pool the coordinator seeds.
    type Pool: PoolPort;
    /// The run journal.
    type Journal: JournalPort;
    /// Where forecasts, covariance checkpoints and the posterior go.
    type Store: StorePort;
    /// The three ports.
    fn ports(&self) -> (&Self::Pool, &Self::Journal, &Self::Store);
    /// Run `drive` while the workers serve the pool; they may need the
    /// central forecast and the incarnation first. A `drive` that ends
    /// the run stops the workers; one that fails leaves them be, as a
    /// crashed coordinator would.
    fn serve(
        &self,
        central: &[f64],
        incarnation: u64,
        sinks: (&MetricsRegistry, Progress<'_>),
        drive: impl FnOnce() -> crate::coordinator::Result,
    ) -> Result<(), EsseError>;
    /// The run clock.
    fn now(&self) -> Duration;
    /// The pool to step over, its change counter and whether a worker
    /// is left; a `converged` run needs no new workers.
    fn scan(&self, converged: bool) -> io::Result<(PoolScan, u64, bool)>;
    /// Block until the pool changed since `version` or the run clock
    /// reaches `wake`.
    fn wait(&self, version: u64, wake: Option<Duration>);
    /// The members run here, each with its latest attempt, and how many
    /// workers died; `None` when the resource keeps no such records, and
    /// the meters derived from them are left out.
    fn ran(&self) -> Option<(BTreeMap<u64, TaskRecord>, usize)> {
        None
    }
}

/// What a run continues from: the journal's replayed state, the config
/// hash a fresh journal starts with, and the fleet trace run id
/// (nonzero iff workers ship spans).
#[derive(Debug, Clone, Copy)]
pub struct Journalled<'a> {
    /// The replayed state (empty for a fresh journal).
    pub state: &'a JournalState,
    /// Journalled by `RunStart` when the journal is fresh.
    pub config_hash: u64,
    /// Every task's parent span id derives from it; `0`: none.
    pub trace_run: u64,
}

/// Builds the ingestion gate from the run's central forecast.
type Gate<'m> = Box<dyn Fn(&[f64]) -> ForecastValidator + 'm>;

/// The MTC ESSE engine.
pub struct MtcEsse<'m, M: ForecastModel> {
    /// The forecast model shared by all workers.
    pub model: &'m M,
    /// Workflow configuration.
    pub config: MtcConfig,
    recorder: &'m dyn Recorder,
    metrics: Option<&'m MetricsRegistry>,
    checkpoint: Option<&'m Checkpoint>,
    gate: Option<Gate<'m>>,
    progress: Progress<'m>,
}

impl<'m, M: ForecastModel> MtcEsse<'m, M> {
    /// New engine.
    pub fn new(model: &'m M, config: MtcConfig) -> Self {
        let (recorder, progress) = (&NULL, &quiet);
        MtcEsse { model, config, recorder, metrics: None, checkpoint: None, gate: None, progress }
    }

    /// Gate every payload with `validator`: a refused member is replaced
    /// under the retry budget or reported in [`RunHealth::Degraded`].
    pub fn with_validator(self, validator: ForecastValidator) -> Self {
        self.with_gate(move |_| validator.clone())
    }

    /// Gate every payload with the validator `gate` builds from the
    /// central forecast, as workers that check themselves do.
    pub fn with_gate(mut self, gate: impl Fn(&[f64]) -> ForecastValidator + 'm) -> Self {
        self.gate = Some(Box::new(gate));
        self
    }

    /// Trace into `recorder`: a `task`/`member` span per attempt on its
    /// worker's lane, the coordinator's events on the coordinator's.
    pub fn with_recorder(mut self, recorder: &'m dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Keep the task, recovery, pool and subspace meters in `registry`.
    pub fn with_metrics(mut self, registry: &'m MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Send the coordinator's operator lines to `progress`.
    pub fn with_progress(mut self, progress: Progress<'m>) -> Self {
        self.progress = progress;
        self
    }

    /// Journal the run into `checkpoint`, with the member forecasts,
    /// covariance files and posterior of a fleet workdir beside it; a run
    /// on a checkpoint that holds members resumes it through
    /// [`Coordinator::resume`] and never re-runs them.
    pub fn with_checkpoint(mut self, checkpoint: &'m Checkpoint) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Run the decoupled uncertainty forecast (Fig. 4) on a [`Crew`] of
    /// `config.workers` threads. A checkpoint that records a finished run
    /// satisfying the schedule is refused ([`EsseError::Config`]): there
    /// is nothing to run, and the journal is left as it is.
    pub fn run(&self, init: RunInit<'_>) -> Result<MtcOutcome, EsseError> {
        let cfg = &self.config;
        let state = self.checkpoint.map_or(Ok(JournalState::default()), Checkpoint::state)?;
        let crew = Crew {
            pool: MemPool::new(cfg.workers, self.recorder, self.checkpoint),
            journal: self.checkpoint,
            model: self.model,
            mean: init.mean,
            gen: PerturbationGenerator::new(init.prior, cfg.perturb.clone()),
            window: (cfg.start_time, cfg.duration),
            faults: cfg.faults.as_ref(),
            metrics: self.metrics,
            records: Mutex::default(),
        };
        let config_hash = state.config_hash.unwrap_or(0);
        let journalled = Journalled { state: &state, config_hash, trace_run: 0 };
        self.run_on(init, &crew, journalled)?.ok_or_else(|| {
            let why = "records a finished run that satisfies the schedule: nothing to run";
            EsseError::Config(ConfigError::new("checkpoint", why))
        })
    }

    /// Run the workflow on `resource`: a new coordinator incarnation
    /// resumed from the journal, the central forecast, one step per pool
    /// change or [`Coordinator::next_wake`], and the posterior, published
    /// before `RunComplete`. `None` when the journal records a finished
    /// run that satisfies the schedule: nothing is journalled, run or
    /// read.
    pub fn run_on<R: Resource>(
        &self,
        init: RunInit<'_>,
        resource: &R,
        journalled: Journalled<'_>,
    ) -> Result<Option<MtcOutcome>, EsseError> {
        let (cfg, rec, lane) = (&self.config, self.recorder, Lane::Coordinator);
        cfg.validate()?;
        let (pool, journal, store) = resource.ports();
        let (state, limits) = (journalled.state, (cfg.schedule.max, cfg.tolerance));
        let begun =
            begin_incarnation(journal, state, journalled.config_hash, limits, self.progress)?;
        let Some(incarnation) = begun else { return Ok(None) };
        let gen = PerturbationGenerator::new(init.prior, cfg.perturb.clone());
        // A span edge: begin with `Some(args)`, end with `None`.
        let span = |cat, name, args: Option<Vec<_>>| match (rec.enabled(), args) {
            (false, _) => {}
            (true, Some(args)) => rec.begin_at(rec.now_ns(), lane, cat, name, args),
            (true, None) => rec.end_at(rec.now_ns(), lane, cat, name),
        };
        span("phase", "central_forecast", Some(vec![]));
        let central = self.model.forecast(init.mean, cfg.start_time, cfg.duration, None)?;
        span("phase", "central_forecast", None);
        if !state.completed.is_empty() && rec.enabled() {
            let args = vec![("members", state.completed.len().into())];
            rec.instant_at(rec.now_ns(), lane, "workflow", "resumed", args);
        }
        let scratch = MetricsRegistry::new();
        let metrics = self.metrics.unwrap_or(&scratch);
        let setup = Setup {
            cfg,
            gen: &gen,
            central: &central,
            validator: self.gate.as_ref().map(|gate| gate(&central)),
            trace_run: journalled.trace_run,
            incarnation,
            rec,
            metrics,
            progress: self.progress,
        };
        let mut co = Coordinator::resume(state, (pool, journal, store), setup)?;
        resource.serve(&central, incarnation, (metrics, self.progress), || loop {
            let (scan, version, alive) = io(resource.scan(co.converged()), "scan the pool")?;
            let now = resource.now();
            if co.step(&scan, now)? {
                return Ok(());
            }
            if !alive {
                return co.fail_undecided(CODE_POOL_DIED);
            }
            match co.next_wake(now) {
                Some(t) if t <= now => {}
                wake => resource.wait(version, wake),
            }
        })?;

        let (ids, expired) = (co.posterior_ids(), co.deadline_expired());
        if ids.len() < 2 {
            let elapsed = resource.now();
            return Err(match cfg.deadline.filter(|_| expired) {
                Some(budget) => EsseError::Deadline { elapsed, budget },
                None => EsseError::NotEnoughMembers { have: ids.len(), need: 2 },
            });
        }
        span("svd", "svd_final", Some(vec![("members", ids.len().into())]));
        let posterior = co.posterior()?;
        span("svd", "svd_final", None);
        co.complete(&posterior)?;
        let ran = resource.ran();
        let known = ran.is_some();
        let (ran, died) = ran.unwrap_or_default();
        let mut faults = co.report();
        faults.workers_died = died;
        let planned = co.planned.max(ran.keys().last().map_or(0, |&m| m + 1));
        let used: HashSet<u64> = ids.iter().copied().collect();
        let records: Vec<TaskRecord> = (0..planned)
            .map(|m| {
                let mut r = ran.get(&m).cloned().unwrap_or_else(|| TaskRecord::pending(m as usize));
                (r.state, r.outcome) = match (co.failed.get(&m), used.contains(&m), r.worker) {
                    (Some(c), ..) => (Done, Some(TaskOutcome::Failed(format!("lost, code {c}")))),
                    (None, true, _) => (Done, Some(TaskOutcome::Success)),
                    (None, false, Some(_)) => (Done, Some(Wasted)),
                    _ => (Cancelled, None),
                };
                r
            })
            .collect();
        let quarantined = co.failed.values().filter(|&&c| c == CODE_QUARANTINE_BUDGET).count();
        let mut out = MtcOutcome {
            central: central.clone(),
            subspace: posterior.subspace,
            converged: co.converged(),
            rho_history: co.conv.history().to_vec(),
            makespan: Duration::ZERO,
            members_used: ids.len(),
            members_failed: co.failed.len() - quarantined,
            members_wasted: records.iter().filter(|r| r.outcome == Some(Wasted)).count(),
            members_cancelled: records.iter().filter(|r| r.state == Cancelled).count(),
            records,
            svd_rounds: co.rounds + 1,
            deadline_expired: expired,
            health: RunHealth::Full,
            faults,
        };
        self.finish(&mut out, quarantined, known);
        out.makespan = resource.now();
        Ok(Some(out))
    }

    /// One forecast → assimilate cycle: [`run`](Self::run), then the
    /// minimum-variance update of its central forecast by `obs` in its
    /// error subspace.
    pub fn cycle(
        &self,
        init: RunInit<'_>,
        obs: &ObsSet,
    ) -> Result<(MtcOutcome, Analysis), EsseError> {
        let out = self.run(init)?;
        let analysis = assimilate(&out.central, &out.subspace, obs)?;
        Ok((out, analysis))
    }

    /// The run's health verdict — permanent losses, and a deadline's
    /// truncation, are reported explicitly, never silently — and its
    /// closing meters and counters; those read off the per-attempt
    /// records only when the resource `known` them.
    fn finish(&self, out: &mut MtcOutcome, quarantined: usize, known: bool) {
        let (rec, lane) = (self.recorder, Lane::Coordinator);
        let planned = out.records.len().max(1) as f64;
        let coverage = out.members_used as f64 / planned;
        let truncated = out.deadline_expired && !out.converged;
        let lost_members = out.members_failed
            + if truncated { out.members_cancelled + out.members_wasted } else { 0 };
        let replaced = out.faults.replaced;
        if lost_members > 0 || quarantined > 0 {
            out.health = RunHealth::Degraded { coverage, lost_members, quarantined, replaced };
            if rec.enabled() {
                let args = vec![
                    ("coverage", coverage.into()),
                    ("lost", lost_members.into()),
                    ("quarantined", quarantined.into()),
                    ("replaced", replaced.into()),
                ];
                rec.instant_at(rec.now_ns(), lane, "workflow", "degraded", args);
            }
        }
        let f = &out.faults;
        // The third field: read off the per-attempt records.
        let counters = [
            ("members_done", out.members_used, false),
            ("members_failed", out.members_failed, false),
            ("members_wasted", out.members_wasted, true),
            ("retries", f.retries, false),
            ("timeouts", f.timeouts, false),
        ];
        for (name, value, _) in counters.into_iter().filter(|c| rec.enabled() && (known || !c.2)) {
            rec.counter_at(rec.now_ns(), lane, name, value as f64);
        }
        let Some(reg) = self.metrics else { return };
        reg.gauge("esse_members_done").set(out.members_used as f64);
        reg.gauge("esse_coverage").set(coverage);
        if known {
            let waits = reg.histogram("esse_queue_wait_ns");
            for w in out.records.iter().filter_map(TaskRecord::queue_wait) {
                waits.observe(w.as_nanos() as u64);
            }
        }
        let meters = [
            ("esse_tasks_completed_total", out.members_used, false),
            ("esse_tasks_failed_total", out.members_failed, false),
            ("esse_tasks_wasted_total", out.members_wasted, true),
            ("esse_tasks_cancelled_total", out.members_cancelled, true),
            ("esse_retries_total", f.retries, false),
            ("esse_task_timeouts_total", f.timeouts, false),
            ("esse_speculative_launches_total", f.speculative_launches, false),
            ("esse_speculative_wins_total", f.speculative_wins, false),
            ("esse_speculative_losses_total", f.speculative_losses, false),
            ("esse_workers_died_total", f.workers_died, true),
        ];
        for (name, n, _) in meters.into_iter().filter(|c| known || !c.2) {
            reg.counter(name).add(n as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskState;
    use esse_core::model::{ForecastError, LinearGaussianModel};
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
        for cfg in [config(4), config(4).serial()] {
            let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
            let rho = &out.rho_history;
            assert!(out.converged, "rho: {rho:?}");
            assert!(out.members_used >= 16);
            assert!(out.svd_rounds >= 2);
            assert_eq!(out.health, RunHealth::Full);
            assert!(out.faults.is_clean());
            // Similarity tends upward as N grows: the last is the best up
            // to tolerance.
            let best = rho.iter().fold(0.0_f64, |m, &v| m.max(v));
            assert!(rho.last().is_some_and(|&last| last > best - 0.1), "rho: {rho:?}");
            // Dominant subspace captures the slow axes.
            let lead = out.subspace.modes.col(0);
            assert!(lead[0] * lead[0] + lead[1] * lead[1] > 0.8);
        }
    }

    #[test]
    fn cycle_reduces_misfit_and_variance() {
        use esse_core::obs::{ObsKind, Observation};
        let (model, prior, mean) = setup();
        let cfg = MtcConfig { schedule: EnsembleSchedule::new(32, 128), ..config(1) }.serial();
        let mut obs = ObsSet::new();
        obs.obs.push(Observation::point(0, 0.8, 0.01, ObsKind::Point));
        obs.obs.push(Observation::point(1, -0.5, 0.01, ObsKind::Point));
        let engine = MtcEsse::new(&model, cfg);
        let (fc, an) = engine.cycle(RunInit::new(&mean, &prior), &obs).unwrap();
        assert!(an.posterior_misfit < an.prior_misfit);
        assert!(an.subspace.total_variance() < fc.subspace.total_variance());
        // The analysis moved toward the observed values.
        assert!(an.state[0] > 0.3, "state[0] = {}", an.state[0]);
        assert!(an.state[1] < -0.2, "state[1] = {}", an.state[1]);
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
        // count, folded in member order ⇒ the same subspace bytes.
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
        assert_eq!(out1.subspace.modes.as_slice(), out4.subspace.modes.as_slice());
        assert_eq!(out1.subspace.variances, out4.subspace.variances);
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
        for cfg in [config(4), config(4).serial()] {
            let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
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

    /// A checkpoint as a previous incarnation left it: members `0..n`
    /// forecast and journalled as completed.
    fn checkpoint_with(tag: &str, n: usize, cfg: &MtcConfig) -> Checkpoint {
        let (model, prior, mean) = setup();
        let dir = std::env::temp_dir().join(format!("esse-wf-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = Checkpoint::create(&dir, 7).unwrap();
        let gen = PerturbationGenerator::new(&prior, cfg.perturb.clone());
        for j in 0..n {
            let x0 = gen.perturb(&mean, j);
            let seed = Some(gen.forecast_seed(j));
            let xf = model.forecast(&x0, cfg.start_time, cfg.duration, seed).unwrap();
            ck.store().write_forecast(j as u64, &xf).unwrap();
            let done =
                crate::journal::JournalRecord::MemberCompleted { member: j as u64, attempts: 1 };
            ck.journal().append(&done).unwrap();
        }
        ck
    }

    #[test]
    fn resume_skips_completed_members_and_matches_fresh_run() {
        let (model, prior, mean) = setup();
        let mut cfg = config(2);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(32, 32);
        cfg.pool_factor = 1.0;
        let ck = checkpoint_with("resume", 20, &cfg);
        let engine = MtcEsse::new(&model, cfg.clone()).with_checkpoint(&ck);
        let resumed = engine.run(RunInit::new(&mean, &prior)).unwrap();
        // Only 12 members actually ran in this incarnation.
        let ran = resumed.records.iter().filter(|r| r.worker.is_some()).count();
        assert_eq!(ran, 12, "resume must not rerun completed members");
        assert_eq!(resumed.members_used, 32);
        // The bytes of an uninterrupted run (same member seeds).
        let fresh = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        assert_eq!(fresh.subspace.modes.as_slice(), resumed.subspace.modes.as_slice());
        assert_eq!(fresh.subspace.variances, resumed.subspace.variances);
    }

    #[test]
    fn resume_with_all_members_done_skips_straight_to_svd() {
        let (model, prior, mean) = setup();
        let mut cfg = config(2);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(8, 8);
        cfg.pool_factor = 1.0;
        let ck = checkpoint_with("alldone", 8, &cfg);
        let engine = MtcEsse::new(&model, cfg).with_checkpoint(&ck);
        let out = engine.run(RunInit::new(&mean, &prior)).unwrap();
        assert_eq!(out.members_used, 8);
        assert!(out.records.iter().all(|r| r.worker.is_none()), "nothing re-ran");
        assert!(out.subspace.rank() >= 1);
    }

    #[test]
    fn a_finished_checkpoint_is_refused_and_left_as_it_is() {
        let (model, prior, mean) = setup();
        let cfg = MtcConfig { schedule: EnsembleSchedule::new(8, 8), ..config(2) };
        let ck = checkpoint_with("finished", 0, &cfg);
        let engine = MtcEsse::new(&model, cfg).with_checkpoint(&ck);
        engine.run(RunInit::new(&mean, &prior)).unwrap();
        let path = ck.dir().join(crate::rundir::JOURNAL);
        let journal = std::fs::read(&path).unwrap();
        let again = engine.run(RunInit::new(&mean, &prior));
        assert!(matches!(again, Err(EsseError::Config(_))), "{again:?}");
        assert_eq!(std::fs::read(&path).unwrap(), journal, "a finished run appended");
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
    fn resumed_runs_are_deterministic() {
        let (model, prior, mean) = setup();
        let mut cfg = config(1);
        cfg.tolerance = 1e-12;
        cfg.schedule = EnsembleSchedule::new(16, 16);
        cfg.pool_factor = 1.0;
        let run = |tag| {
            let ck = checkpoint_with(tag, 4, &cfg);
            let engine = MtcEsse::new(&model, cfg.clone()).with_checkpoint(&ck);
            engine.run(RunInit::new(&mean, &prior)).unwrap()
        };
        let (first, second) = (run("det1"), run("det2"));
        assert_eq!(first.members_used, second.members_used);
        assert_eq!(first.subspace.modes.as_slice(), second.subspace.modes.as_slice());
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
                // 3 ms members: the crew is busy when the run converges.
                faults: Some(FaultPlan::seeded(1).with_stragglers(1.0, Duration::from_millis(3))),
                ..Default::default()
            };
            MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap()
        };
        // frac = 0: every claim live at convergence is "nearly done" and
        // drained, like UseCompleted — nothing is wasted.
        let spare_all = run_with(CompletionPolicy::SpareNearlyDone(0.0));
        assert!(spare_all.converged);
        assert_eq!(spare_all.members_wasted, 0, "frac=0 must spare everything");
        // frac huge: no claim qualifies, so the live ones run in vain, as
        // under CancelImmediately.
        let spare_none = run_with(CompletionPolicy::SpareNearlyDone(1e6));
        let cancel = run_with(CompletionPolicy::CancelImmediately);
        assert!(spare_none.members_wasted > 0, "frac=inf spares nothing");
        assert!(cancel.members_wasted > 0);
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
    fn invalid_fields_are_refused_before_a_run() {
        let field = |cfg: MtcConfig| cfg.validate().unwrap_err().field;
        assert_eq!(field(MtcConfig { workers: 0, ..Default::default() }), "workers");
        assert_eq!(field(MtcConfig { pool_factor: 0.5, ..Default::default() }), "pool_factor");
        assert_eq!(field(MtcConfig { tolerance: 0.0, ..Default::default() }), "tolerance");
        assert_eq!(field(MtcConfig { tolerance: 1.5, ..Default::default() }), "tolerance");
        assert_eq!(field(MtcConfig { svd_stride: 0, ..Default::default() }), "svd_stride");
        assert_eq!(field(MtcConfig { max_rank: 0, ..Default::default() }), "max_rank");
        assert_eq!(field(MtcConfig { duration: f64::NAN, ..Default::default() }), "duration");
        // Validation reaches into the retry policy too.
        let retry = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        assert_eq!(field(MtcConfig { retry, ..Default::default() }), "retry.max_attempts");
        // The engine refuses it as a typed configuration error.
        let (model, prior, mean) = setup();
        let engine = MtcEsse::new(&model, MtcConfig { workers: 0, ..config(1) });
        let err = engine.run(RunInit::new(&mean, &prior)).unwrap_err();
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
        // 2 ms members, so every worker gets its share.
        let plan = FaultPlan::seeded(5).with_stragglers(1.0, Duration::from_millis(2));
        cfg.faults = Some(plan.with_worker_death(1, 2));
        cfg.retry = RetryPolicy::retries(3);
        let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).unwrap();
        assert_eq!(out.faults.workers_died, 1);
        assert!(out.faults.retries >= 1, "the dying worker's task must be requeued");
        assert_eq!(out.members_failed, 0);
        assert_eq!(out.members_used, 16);
    }
}
