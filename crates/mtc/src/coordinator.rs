//! The master script of paper §4.2 as a library: "The differ, SVD and
//! convergence check calculations proceed semi-independently ….
//! Dependencies are tracked using separate (per perturbation index)
//! files containing the error codes of the singleton scripts."
//!
//! [`Coordinator`] holds the rules and none of the I/O: a [`PoolPort`],
//! a [`JournalPort`] and a [`StorePort`] cover the calls its steps make,
//! and the pool scan and the run clock are handed into each
//! [`step`](Coordinator::step). It is the one coordinator of the
//! workspace: `esse_master` plugs in the on-disk pool, the fsynced journal
//! and the workdir files for a fleet of worker processes;
//! [`crate::workflow::MtcEsse`] plugs in [`crate::mem`] and a crew of
//! threads. It prints nothing: operator lines go to [`Setup::progress`].
//!
//! **Determinism.** Checkpoints fire when the *decided prefix* — the
//! contiguous run of members from index 0 whose fate is settled — crosses
//! fixed member counts, and each decomposes exactly the first `c`
//! completed members of that prefix in ascending order. Forecasts are
//! pure functions of `(member, seed)` and requeues reuse the seed, so the
//! rho sequence, the convergence point and the
//! [`posterior`](Coordinator::posterior) are bit-identical under any
//! worker count, arrival order, kill schedule or resume.
//!
//! **Crash consistency.** Every transition is journalled before the pool
//! or store shows its effect, and [`Coordinator::resume`] rebuilds the
//! coordinator from any replayed journal prefix. A failed append returns
//! [`CoordError::Parked`] at once: nothing after it touches a port.
//!
//! **Time.** A claim that never heartbeats is timed from its first
//! observation, so for a crew the lease *is* the task timeout. Past the
//! Tmax deadline late results are ignored (paper §4 point 1). A straggler
//! may be raced by a twin at its member's next epoch; whichever epoch
//! lands first is ingested — the one exception to "consume only the
//! current epoch".

use crate::fault::FaultReport;
use crate::journal::{JournalRecord, JournalState};
use crate::ledger::{Budget, Fate, Loss, Member, MemberLedger};
use crate::pool::{
    ClaimScan, LeaseState, LeaseWatch, PoolScan, ResultRecord, TaskSpec, CODE_LEASE_BUDGET,
    CODE_QUARANTINE_BUDGET, CODE_REJECTED,
};
use crate::workflow::MtcConfig;
use esse_core::adaptive::CompletionPolicy;
use esse_core::convergence::{similarity, ConvergenceTest};
use esse_core::perturb::PerturbationGenerator;
use esse_core::subspace::{
    make_estimator, ErrorSubspace, SubspaceEstimator, SubspaceStrategy, SubspaceUpdate, UpdateKind,
};
use esse_core::validate::{finite_stat, ForecastValidator, Reason, Verdict};
use esse_obs::event::{ArgValue, Lane};
use esse_obs::recorder::{Recorder, RecorderExt};
use esse_obs::registry::{Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::{Duration, Instant};
use std::{fmt, io};

/// The task pool as the coordinator uses it (the caller takes the scan).
pub trait PoolPort {
    /// Publish a task record: first issue or requeue.
    fn seed(&self, spec: &TaskSpec) -> io::Result<()>;
    /// Move a stale-epoch result out of the scan, kept for post-mortems.
    fn fence_result(&self, rec: &ResultRecord) -> io::Result<()>;
    /// Remove a result the coordinator has decided on.
    fn consume_result(&self, rec: &ResultRecord) -> io::Result<()>;
    /// Remove a claim and its heartbeat; a missing claim is fine.
    fn remove_claim(&self, spec: &TaskSpec) -> io::Result<()>;
    /// Remove every pending task; returns how many.
    fn cancel_pending(&self) -> io::Result<usize>;
    /// Write the cancellation tombstone.
    fn write_cancel(&self) -> io::Result<()>;
    /// The span batch shipped beside the result of `(member, epoch)`.
    fn trace_sidecar(&self, member: u64, epoch: u32) -> Option<Vec<u8>>;
    /// Each member's highest epoch in the pool, which a resume fences
    /// against (default: none, a fresh pool).
    fn epochs(&self) -> io::Result<HashMap<u64, u32>> {
        Ok(HashMap::new())
    }
}

/// The run journal.
pub trait JournalPort {
    /// Durably append one record: the commit point of what it describes.
    fn append(&self, rec: &JournalRecord) -> io::Result<()>;
}

/// No journal: every append succeeds and is forgotten.
impl<J: JournalPort> JournalPort for Option<&J> {
    fn append(&self, rec: &JournalRecord) -> io::Result<()> {
        self.map_or(Ok(()), |j| j.append(rec))
    }
}

/// Where member forecasts and covariance estimates live.
pub trait StorePort {
    /// Member `member`'s committed forecast and the CRC-32 of its bytes.
    fn read_forecast(&self, member: u64) -> io::Result<(Vec<f64>, u32)>;
    /// The forecast a result record reports, for the ingestion gate.
    fn read_result(&self, rec: &ResultRecord) -> io::Result<(Vec<f64>, u32)> {
        self.read_forecast(rec.member)
    }
    /// Make the forecast of `rec` the member's own, durably, right
    /// before the `MemberCompleted` append that commits it.
    fn commit(&self, _rec: &ResultRecord) -> io::Result<()> {
        Ok(())
    }
    /// Move a forecast out of reach, kept for post-mortems; missing is fine.
    fn quarantine_forecast(&self, member: u64) -> io::Result<()>;
    /// Publish a checkpoint estimate at `version` (paper §4.1's safe
    /// file), in the one `ESS2` encoding.
    fn publish_covariance(&self, estimate: &ErrorSubspace, version: u64) -> io::Result<()>;
    /// The checkpoint estimator holds `member`'s forecast now.
    fn release(&self, _member: u64) {}
    /// Make the posterior durable: [`Coordinator::complete`] calls this
    /// right before the `RunComplete` append.
    fn publish_posterior(&self, _posterior: &ErrorSubspace) -> io::Result<()> {
        Ok(())
    }
}

/// Which stream an operator line belongs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Progress (stdout in `esse_master`).
    Info,
    /// A member-level fault (stderr in `esse_master`).
    Warn,
}

/// The sink every operator line goes to; the library prints nothing.
pub type Progress<'a> = &'a dyn Fn(Level, fmt::Arguments<'_>);

/// A [`Progress`] sink that drops every line.
pub fn quiet(_: Level, _: fmt::Arguments<'_>) {}

/// `say!(sink, Level, "format", args…)`: one operator line.
macro_rules! say {
    ($sink:expr, $level:ident, $($fmt:tt)*) => {
        ($sink)(Level::$level, format_args!($($fmt)*))
    };
}

/// Why a step stopped the run; everything journalled so far replays.
#[derive(Debug)]
pub enum CoordError {
    /// A journal append failed (disk full, failed fsync): no transition
    /// can be made durable, so the run parks until storage recovers.
    Parked(io::Error),
    /// A pool or store call failed, or no subspace estimate was formed.
    Failed(String),
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::Parked(e) => write!(
                f,
                "journal append failed ({e}); parking run — resume with --resume once \
                 storage recovers"
            ),
            CoordError::Failed(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for CoordError {}

impl From<CoordError> for esse_core::EsseError {
    fn from(e: CoordError) -> esse_core::EsseError {
        match e {
            CoordError::Parked(e) => esse_core::EsseError::Io(e),
            CoordError::Failed(why) => esse_core::EsseError::Io(io::Error::other(why)),
        }
    }
}

/// What every coordinator call returns.
pub type Result<T = (), E = CoordError> = std::result::Result<T, E>;

pub(crate) fn io<T>(result: io::Result<T>, what: &str) -> Result<T> {
    result
        .map_err(|e| CoordError::Failed(format!("cannot {what}: {e}; --resume continues the run")))
}

/// Everything a coordinator is built from besides its ports and the
/// journal fold.
pub struct Setup<'a> {
    /// The run's settings. A claim whose heartbeat stalls for the task
    /// timeout is reclaimed; the requeue budget defaults to one fewer
    /// than the attempts.
    pub cfg: &'a MtcConfig,
    /// The member seed stream (requeues reuse a member's seed).
    pub gen: &'a PerturbationGenerator<'a>,
    /// The central forecast every spread is taken about.
    pub central: &'a [f64],
    /// The semantic ingestion gate (`None`: every payload passes).
    pub validator: Option<ForecastValidator>,
    /// Fleet-wide trace run id: nonzero iff tracing is on.
    pub trace_run: u64,
    /// This coordinator's incarnation (from [`begin_incarnation`]).
    pub incarnation: u64,
    /// Where coordinator-lane trace events go.
    pub rec: &'a dyn Recorder,
    /// Where the pool, ingest, quarantine and subspace meters live.
    pub metrics: &'a MetricsRegistry,
    /// Where operator lines go.
    pub progress: Progress<'a>,
}

fn new_estimator(setup: &Setup, strategy: &SubspaceStrategy) -> Box<dyn SubspaceEstimator> {
    let cfg = setup.cfg;
    make_estimator(strategy, setup.central.to_vec(), cfg.mode_rel_tol, cfg.max_rank, cfg.linalg)
}

/// Fold the forecasts of `ids` into `est`. They are journalled as
/// completed, so an unreadable one is a storage fault, not a verdict: a
/// resume re-validates every completed member and requeues the bad one.
fn fold_members(est: &mut dyn SubspaceEstimator, store: &impl StorePort, ids: &[u64]) -> Result {
    for &m in ids {
        let (xf, _) = store.read_forecast(m).map_err(|e| {
            CoordError::Failed(format!("cannot re-read journalled forecast {m}: {e}"))
        })?;
        est.add_member(m as usize, &xf);
    }
    Ok(())
}

/// `None` means "not enough spread to decompose yet" (skip the round).
fn estimate(est: &mut dyn SubspaceEstimator) -> Result<Option<SubspaceUpdate>> {
    est.estimate().map_err(|e| CoordError::Failed(format!("subspace update failed: {e}")))
}

/// Journal a new coordinator incarnation before it touches the pool
/// (`RunStart` first on a fresh journal) and return its number: the TCP
/// endpoint generation and the trace labels derive from it. `None`, with
/// nothing journalled, when the journal records a finished run that
/// still satisfies `max` and `tolerance`; a larger ensemble or a tighter
/// tolerance extends it instead.
pub fn begin_incarnation(
    journal: &impl JournalPort,
    state: &JournalState,
    config_hash: u64,
    (max, tolerance): (usize, f64),
    say: Progress,
) -> Result<Option<u64>> {
    if let Some(members) = state.complete {
        if ConvergenceTest::restore(tolerance, &state.rho_history()).converged()
            || state.completed.len() >= max
        {
            say!(say, Info, "run already complete ({members} members); nothing to do");
            return Ok(None);
        }
        say!(
            say,
            Info,
            "completed run falls short of the requested schedule (max {max}, \
            tolerance {tolerance}); extending"
        );
    }
    let append = |rec| journal.append(&rec).map_err(CoordError::Parked);
    if state.config_hash.is_none() {
        append(JournalRecord::RunStart { config_hash })?;
    }
    let incarnation = state.incarnations + 1;
    append(JournalRecord::CoordinatorStarted { incarnation })?;
    if incarnation > 1 {
        say!(say, Info, "coordinator incarnation {incarnation} (resuming a crashed run)");
    }
    Ok(Some(incarnation))
}

/// The coordinator's state. The caller scans the pool and calls
/// [`step`](Self::step) until the run is over, then forms the
/// [`posterior`](Self::posterior) and [`complete`](Self::complete)s.
pub struct Coordinator<'a, P, J, S> {
    pool: &'a P,
    journal: &'a J,
    store: &'a S,
    setup: Setup<'a>,
    m_granted: Counter,
    m_renewed: Counter,
    m_expired: Counter,
    m_fenced: Counter,
    m_seeded: Counter,
    m_ingested: Counter,
    m_quarantined: Counter,
    m_rho: Gauge,
    m_defect: Gauge,
    m_update: Histogram,
    m_refresh: Histogram,
    ledger: MemberLedger,
    /// How long a claim's heartbeat may stall: the task timeout.
    lease_ms: u64,
    /// Current fencing epoch per member.
    epochs: HashMap<u64, u32>,
    /// Members with a pending task or a live claim in this scan.
    outstanding: HashSet<u64>,
    watch: LeaseWatch,
    /// When each claim `(member, epoch)` was first observed.
    claimed_at: HashMap<(u64, u32), Duration>,
    /// Sum and count of claim-to-ingest runtimes: the straggler yardstick.
    runtime: (Duration, u32),
    /// The clock of the previous step.
    last_step: Duration,
    /// Members with a speculative launch not yet scored, with the
    /// original claim's epoch while that claim may still land first.
    races: HashMap<u64, Option<u32>>,
    report: FaultReport,
    /// Journalled `MemberFailed` code of every lost member.
    pub(crate) failed: BTreeMap<u64, i32>,
    stages: Vec<usize>,
    /// Seed ceiling so far: members `0..planned` were seeded.
    pub(crate) planned: u64,
    /// Decided-prefix member counts at which the SVD runs.
    cps: Vec<usize>,
    /// The persistent estimator over the decided prefix.
    estimator: Option<Box<dyn SubspaceEstimator>>,
    pub(crate) conv: ConvergenceTest,
    converged_members: Option<u64>,
    /// When convergence or the deadline stopped the issue of work, and
    /// whether the members the completion policy drops are abandoned.
    halted_at: Option<Duration>,
    swept: bool,
    deadline_expired: bool,
    fired: BTreeSet<u64>,
    last_fired: Option<u64>,
    /// The estimate of `last_fired`, once this incarnation has one.
    previous: Option<(u64, ErrorSubspace)>,
    svd_version: u64,
    /// Subspace estimates this incarnation formed at checkpoints.
    pub(crate) rounds: usize,
    cancelled_tasks: usize,
}

impl<'a, P: PoolPort, J: JournalPort, S: StorePort> Coordinator<'a, P, J, S> {
    /// Rebuild from a replayed journal `state` (empty for a fresh run) and
    /// each member's highest epoch in the pool. Every completed member's
    /// forecast is re-read; a corrupt or missing one is quarantined.
    pub fn resume(
        state: &JournalState,
        (pool, journal, store): (&'a P, &'a J, &'a S),
        setup: Setup<'a>,
    ) -> Result<Self> {
        let pool_epochs = io(pool.epochs(), "recover epochs from the task pool")?;
        let conv = ConvergenceTest::restore(setup.cfg.tolerance, &state.rho_history());
        // The `Converged` record is missing if the coordinator died right
        // after the SVD append: replay the rho sequence (a NaN rho never
        // passes the gate).
        let mut replayed = ConvergenceTest::new(setup.cfg.tolerance);
        let mut rounds = state.svd_rounds.iter();
        let converged_members = (state.converged.map(|(m, _)| m))
            .or_else(|| {
                let round = rounds.find(|r| finite_stat(r.rho).is_pass() && replayed.check(r.rho));
                round.map(|r| r.members)
            })
            .filter(|_| conv.converged());
        let stages = setup.cfg.schedule.stages();
        let max = setup.cfg.schedule.max;
        let mut cps: BTreeSet<usize> =
            (1..).map(|k| k * setup.cfg.svd_stride).take_while(|&c| c <= max).collect();
        cps.extend(stages.iter().copied().filter(|&c| c <= max));
        let jitter_seed = setup.gen.config.base_seed ^ 0x00D1_7A5C;
        let retry = &setup.cfg.retry;
        let requeues = setup.cfg.requeue_budget.unwrap_or(retry.max_attempts - 1);
        let ledger = MemberLedger::new(retry.clone(), requeues, jitter_seed);
        let (counter, metrics) = (|name| setup.metrics.counter(name), setup.metrics);
        let mut co = Coordinator {
            pool,
            journal,
            store,
            m_granted: counter("esse_pool_lease_granted_total"),
            m_renewed: counter("esse_pool_lease_renewed_total"),
            m_expired: counter("esse_pool_lease_expired_total"),
            m_fenced: counter("esse_pool_fencing_rejected_total"),
            m_seeded: counter("esse_pool_tasks_seeded_total"),
            m_ingested: counter("esse_pool_results_ingested_total"),
            m_quarantined: counter("esse_quarantined_total"),
            m_rho: metrics.gauge("esse_convergence_rho"),
            m_defect: metrics.gauge("esse_subspace_defect"),
            m_update: metrics.histogram("esse_subspace_update_ns"),
            m_refresh: metrics.histogram("esse_subspace_refresh_ns"),
            ledger,
            lease_ms: retry.lease_ms(),
            epochs: pool_epochs,
            outstanding: HashSet::new(),
            watch: LeaseWatch::new(),
            claimed_at: HashMap::new(),
            runtime: (Duration::ZERO, 0),
            last_step: Duration::ZERO,
            races: HashMap::new(),
            report: FaultReport::default(),
            failed: state.failed.iter().map(|&m| (m, 0)).collect(),
            stages,
            planned: 0,
            cps: cps.into_iter().filter(|&c| c >= 2).collect(),
            estimator: None,
            converged_members,
            conv,
            halted_at: None,
            swept: false,
            deadline_expired: false,
            fired: state.svd_rounds.iter().map(|r| r.members).collect(),
            last_fired: state.svd_rounds.last().map(|r| r.members),
            previous: None,
            svd_version: state.svd_rounds.last().map_or(0, |r| r.version),
            rounds: 0,
            cancelled_tasks: 0,
            setup,
        };
        // A consumed result leaves nothing in the pool, so the pool alone
        // could rewind a member's epoch and let an old zombie's result
        // pass the fence. Every `EpochAdvanced` is journalled before its
        // seed, so the journal covers every epoch a worker ever saw.
        for &(m, hw) in &state.epoch_high_water {
            let e = co.epochs.entry(m).or_insert(0);
            *e = (*e).max(hw);
        }
        let incarnation = co.setup.incarnation;
        if incarnation > 1 {
            co.instant("coordinator", "restart", vec![("incarnation", incarnation.into())]);
            // Surviving claims are judged on this incarnation's clock only.
            co.watch.rebase();
            // Re-emit `task_seeded` for every epoch already issued, so span
            // batches shipped across the crash find their parent spans.
            let inherited: BTreeMap<u64, u32> = co.epochs.iter().map(|(&m, &e)| (m, e)).collect();
            for (m, hw) in inherited {
                for ep in 1..=hw {
                    co.task_seeded_instant(m, ep, co.setup.rec.now_ns());
                }
            }
        }
        // Past quarantines count, so the healed/lost split stays honest.
        for &(m, _) in &state.quarantine_reasons {
            co.ledger.mark_quarantined(m);
        }
        for &(m, attempts) in &state.completed {
            match co.store.read_forecast(m) {
                Ok((xf, _)) => {
                    co.ledger.decide(m, Fate::Completed(attempts));
                    co.setup.validator.iter_mut().for_each(|v| v.note_decided(m, &xf));
                }
                Err(e) => co.quarantine(m, Reason::CorruptPayload.code(), &e.to_string())?,
            }
        }
        for &m in &state.failed {
            co.ledger.decide(m, Fate::Failed);
        }
        let n = co.ledger.completed_ids().count();
        say!(co.setup.progress, Info, "starting with {n} members in the differ (resumed {n})");
        Ok(co)
    }

    /// One loop turn over a fresh pool `scan` at `now`: ingest → watch
    /// leases → deadline → seed and speculate → checkpoints. `Ok(true)`
    /// once the run is over: the deadline passed, or it converged and
    /// the completion policy has the claims it keeps, or every stage and
    /// every seeded member is decided.
    pub fn step(&mut self, scan: &PoolScan, now: Duration) -> Result<bool> {
        let (stage, halted) = (self.stage(), self.halted_at.is_some());
        self.outstanding = scan.pending.iter().map(|t| t.member).collect();
        self.outstanding.extend(scan.claims.iter().map(|c| c.spec.member));
        self.ingest(&scan.results, now)?;
        self.watch_leases(&scan.claims, now)?;
        if let Some(tmax) = self.setup.cfg.deadline.filter(|&d| now >= d && !self.deadline_expired)
        {
            self.deadline_expired = true;
            let tmax_ms = tmax.as_millis() as u64;
            self.instant("workflow", "deadline_expired", vec![("tmax_ms", tmax_ms.into())]);
            self.halt(now)?;
        }
        if self.conv.converged() && self.halted_at.is_none() {
            self.halt(now)?;
        }
        if halted && !self.swept {
            // The first scan taken after the cancellation shows every
            // claim that escaped it.
            self.sweep(&scan.claims);
        }
        if self.halted_at.is_none() {
            // Past the last stage, over-provisioned members still retry.
            self.seed(stage.map_or(self.planned, |s| self.target(s)), now)?;
            self.speculate(&scan.claims, now)?;
        }
        self.checkpoints(now)?;
        self.last_step = now;
        let undecided = (0..self.planned).any(|m| !self.ledger.decided(m));
        Ok(self.deadline_expired
            || if self.conv.converged() {
                self.swept && !undecided
            } else {
                self.stage().is_none() && !undecided
            })
    }

    /// When the run clock next needs a [`step`](Self::step) although the
    /// pool has not changed: at once (`now`) when the last step opened a
    /// stage it did not seed yet, else when a lease or backoff runs out,
    /// the deadline passes or a claim turns straggler. `None`: only a
    /// pool change.
    pub fn next_wake(&self, now: Duration) -> Option<Duration> {
        if self.halted_at.is_some() && !self.swept {
            return Some(now);
        }
        let ceiling = self.stage().map_or(self.planned, |s| self.target(s));
        let seedable = self.ledger.seedable(ceiling, now);
        if self.halted_at.is_none() && seedable.iter().any(|m| !self.outstanding.contains(m)) {
            return Some(now);
        }
        let now_ms = now.as_millis() as u64;
        let lease = self.watch.next_expiry(self.lease_ms, now_ms).map(Duration::from_millis);
        let ready = self.ledger.parked(self.planned).map(|m| self.ledger.member(m).ready_at);
        let limit = self.straggler_threshold();
        let live = self.claimed_at.iter().filter(|((m, e), _)| *e == self.epoch(*m));
        let straggle = live.filter(|((m, _), _)| !self.races.contains_key(m));
        let straggle = straggle.filter_map(|(_, &t)| limit.map(|limit| t + limit));
        let deadline = self.setup.cfg.deadline.filter(|_| self.halted_at.is_none());
        let times = ready.chain(straggle).chain(lease).chain(deadline);
        times.filter(|&t| t > now).min()
    }

    /// The crew is gone: fail every undecided member with `code`.
    pub fn fail_undecided(&mut self, code: i32) -> Result {
        self.ledger.close();
        for m in 0..self.planned {
            if !self.ledger.decided(m) {
                self.ledger.decide(m, Fate::Failed);
                self.failed.insert(m, code);
                self.append(JournalRecord::MemberFailed { member: m, code })?;
            }
        }
        Ok(())
    }

    /// Has the convergence test fired?
    pub fn converged(&self) -> bool {
        self.conv.converged()
    }

    /// Did the Tmax deadline stop the run?
    pub fn deadline_expired(&self) -> bool {
        self.deadline_expired
    }

    /// What recovery did (crew deaths are the caller's to add); a raced
    /// member never decided by either epoch counts as a lost race.
    pub fn report(&self) -> FaultReport {
        let mut report = self.report.clone();
        report.speculative_losses += self.races.len();
        report.replaced = self.ledger.count(Member::replaced);
        report
    }

    /// The members of the final posterior: the first `converged_members`
    /// of the decided prefix under [`CompletionPolicy::CancelImmediately`]
    /// (not whatever happened to arrive), else every completed member.
    pub fn posterior_ids(&self) -> Vec<u64> {
        let eligible = self.ledger.prefix_eligible();
        match self.converged_members {
            Some(c) if self.setup.cfg.completion == CompletionPolicy::CancelImmediately => {
                eligible[..(c as usize).min(eligible.len())].to_vec()
            }
            _ => self.ledger.completed_ids().collect(),
        }
    }

    /// The final posterior over [`posterior_ids`](Self::posterior_ids),
    /// bit-identical to a one-shot full recompute over them. The
    /// checkpoint estimator is extended when it holds a prefix of the
    /// ids (always, within one incarnation); otherwise, or under the
    /// incremental strategy, every forecast is re-read.
    pub fn posterior(&mut self) -> Result<SubspaceUpdate> {
        let ids = self.posterior_ids();
        let full = SubspaceStrategy::FullRecompute;
        let live = self.estimator.take().filter(|est| {
            let held = est.member_ids();
            self.setup.cfg.subspace == full && held.iter().zip(&ids).all(|(&h, &m)| h as u64 == m)
        });
        let mut est = match live {
            Some(est) if est.count() <= ids.len() => est,
            _ => new_estimator(&self.setup, &full),
        };
        let folded = est.count();
        fold_members(est.as_mut(), self.store, &ids[folded..])?;
        let update = estimate(est.as_mut())?;
        update.ok_or_else(|| CoordError::Failed("not enough members for an SVD".into()))
    }

    /// Publish `posterior` through the store, then journal `RunComplete`,
    /// and report the run.
    pub fn complete(&self, posterior: &SubspaceUpdate) -> Result {
        let (members, sub, ledger) = (posterior.members, &posterior.subspace, &self.ledger);
        io(self.store.publish_posterior(sub), "write the posterior")?;
        self.append(JournalRecord::RunComplete { members: members as u64 })?;
        let failed = ledger.count(|e| e.fate == Some(Fate::Failed));
        let (converged, rank, variance) = (self.conv.converged(), sub.rank(), sub.total_variance());
        let say = self.setup.progress;
        say!(
            say,
            Info,
            "done — {members} members ({failed} failed), converged={converged}, \
            rank {rank}, total variance {variance:.5}"
        );
        // Replaced: quarantined, then healed by a later attempt.
        let replaced = ledger.count(Member::replaced);
        self.setup.metrics.counter("esse_replaced_total").add(replaced as u64);
        say!(
            say,
            Info,
            "pool stats — leases granted {}, renewed {}, expired {}, results fenced {}, \
            tasks seeded {}, ingested {}, cancelled {}",
            self.m_granted.get(),
            self.m_renewed.get(),
            self.m_expired.get(),
            self.m_fenced.get(),
            self.m_seeded.get(),
            self.m_ingested.get(),
            self.cancelled_tasks
        );
        let lost = self.failed.values().filter(|&&code| code == CODE_QUARANTINE_BUDGET).count();
        let quarantined = ledger.count(|e| e.quarantined);
        say!(
            say,
            Info,
            "quarantine stats — quarantined {quarantined} member(s), \
            replaced {replaced}, lost {lost}"
        );
        Ok(())
    }

    fn append(&self, rec: JournalRecord) -> Result {
        self.journal.append(&rec).map_err(CoordError::Parked)
    }

    /// The stage being filled (the smallest with an undecided member);
    /// `None` once every stage is decided.
    fn stage(&self) -> Option<u64> {
        let mut stages = self.stages.iter().map(|&s| s as u64);
        stages.find(|&s| (0..s).any(|m| !self.ledger.decided(m)))
    }

    fn instant(&self, cat: &'static str, name: &'static str, args: Vec<(&'static str, ArgValue)>) {
        let rec = self.setup.rec;
        if rec.enabled() {
            rec.instant_at(rec.now_ns(), Lane::Coordinator, cat, name, args);
        }
    }

    fn epoch(&self, m: u64) -> u32 {
        self.epochs.get(&m).copied().unwrap_or(0)
    }

    /// Pure in (trace run, member, epoch): a restarted coordinator hands
    /// out exactly the ids the dead one did.
    fn span_for(&self, m: u64, epoch: u32) -> u64 {
        match self.setup.trace_run {
            0 => 0,
            run => esse_obs::fleet::span_id(run, m, epoch),
        }
    }

    /// An instant about one task incarnation: `member`, `epoch`, `extra`.
    fn task_instant(
        &self,
        cat: &'static str,
        name: &'static str,
        (m, epoch): (u64, u32),
        extra: &[(&'static str, u64)],
    ) {
        let mut args = vec![("member", m.into()), ("epoch", (epoch as u64).into())];
        args.extend(extra.iter().map(|&(k, v)| (k, v.into())));
        self.instant(cat, name, args);
    }

    /// The `pool/task_seeded` instant of `(m, epoch)`, stamped `ts`.
    fn task_seeded_instant(&self, m: u64, epoch: u32, ts: u64) {
        let rec = self.setup.rec;
        if rec.enabled() {
            let (span, incarnation) = (self.span_for(m, epoch), self.setup.incarnation);
            let mut args = vec![("member", m.into()), ("epoch", u64::from(epoch).into())];
            args.extend([("span", span.into()), ("incarnation", incarnation.into())]);
            rec.instant_at(ts, Lane::Coordinator, "pool", "task_seeded", args);
        }
    }

    /// The one seed path: member `m` at its next fencing epoch. The epoch
    /// is journalled *before* the seed: a crash between the two costs one
    /// unused epoch, never one a worker saw but the journal did not.
    fn issue_epoch(&mut self, m: u64) -> Result {
        let epoch = self.epoch(m) + 1;
        let seed = self.setup.gen.forecast_seed(m as usize);
        let spec = TaskSpec { member: m, epoch, seed, parent_span: self.span_for(m, epoch) };
        self.append(JournalRecord::EpochAdvanced { member: m, epoch })?;
        // Stamped before the task is claimable: no worker's span of it
        // can start before its `task_seeded` instant.
        let stamp = self.setup.rec.now_ns();
        io(self.pool.seed(&spec), "seed a task")?;
        self.epochs.insert(m, epoch);
        self.outstanding.insert(m);
        self.m_seeded.inc();
        self.task_seeded_instant(m, epoch, stamp);
        Ok(())
    }

    /// An attempt of `m` was lost: charge `budget` and do what the ledger
    /// answers — reissue now, leave it to [`seed`](Self::seed) after its
    /// backoff, or journal the loss. Returns whether the member lives on.
    fn requeue(&mut self, m: u64, budget: Budget, code: i32, now: Duration) -> Result<bool> {
        match self.ledger.lose(m, budget, code, now) {
            Loss::Lost { code } => {
                let Member { attempts, requeues, .. } = self.ledger.member(m);
                let say = self.setup.progress;
                say!(
                    say,
                    Warn,
                    "member {m} lost (code {code}) after {attempts} failed attempt(s) \
                    and {requeues} requeue(s)"
                );
                self.append(JournalRecord::MemberFailed { member: m, code })?;
                self.failed.insert(m, code);
                self.task_instant("fault", "member_lost", (m, self.epoch(m)), &[]);
                Ok(false)
            }
            Loss::Reissue { after } => {
                self.report.retries += 1;
                let delay_ms = after.as_millis() as u64;
                let task = (m, self.epoch(m) + 1);
                self.task_instant("fault", "retry_scheduled", task, &[("delay_ms", delay_ms)]);
                if after.is_zero() {
                    self.issue_epoch(m)?;
                }
                Ok(true)
            }
            Loss::Covered => Ok(true),
        }
    }

    /// Quarantine a forecast that failed the gate and journal the verdict,
    /// so a resume replays it and the bytes are never ingested.
    fn quarantine(&mut self, m: u64, reason: u32, why: &str) -> Result {
        io(self.store.quarantine_forecast(m), "quarantine a forecast")?;
        self.append(JournalRecord::MemberQuarantined { member: m, reason })?;
        self.ledger.mark_quarantined(m);
        say!(self.setup.progress, Warn, "quarantined member {m}: {why}");
        Ok(())
    }

    /// The one ingestion gate: a worker's REJECTED verdict, the recorded
    /// CRC against the stored bytes, then the semantic validator.
    fn gate(&self, r: &ResultRecord) -> Result<Vec<f64>, (u32, String)> {
        if r.code == CODE_REJECTED {
            let why = Reason::from_code(r.reason).describe();
            return Err((r.reason, format!("worker self-check rejection ({why})")));
        }
        let corrupt = |why: String| (Reason::CorruptPayload.code(), why);
        let (xf, crc) = self.store.read_result(r).map_err(|e| corrupt(e.to_string()))?;
        if crc != r.fc_crc {
            let recorded = r.fc_crc;
            return Err(corrupt(format!(
                "forecast CRC {crc:#010x} != result record {recorded:#010x}"
            )));
        }
        match self.setup.validator.as_ref().map(|v| v.validate_member(r.member, &xf)) {
            None | Some(Verdict::Pass) => Ok(xf),
            Some(Verdict::Quarantine(reason)) => {
                Err((reason.code(), format!("failed semantic validation: {}", reason.describe())))
            }
        }
    }

    /// Step 1: ingest published results.
    fn ingest(&mut self, results: &[ResultRecord], now: Duration) -> Result {
        for r in results {
            let (m, task, current) = (r.member, (r.member, r.epoch), self.epoch(r.member));
            // A speculation race: the original epoch still counts.
            let original = self.races.get(&m) == Some(&Some(r.epoch));
            if r.epoch != current && !original {
                // Fencing: a zombie published after its lease expired and
                // the task was requeued. Never ingested.
                self.m_fenced.inc();
                self.task_instant("pool", "fencing_rejected", task, &[("current", current as u64)]);
                let (say, stale) = (self.setup.progress, r.epoch);
                say!(
                    say,
                    Warn,
                    "fenced stale result for member {m} (epoch {stale} != current {current})"
                );
                io(self.pool.fence_result(r), "fence a stale result")?;
                continue;
            }
            if self.ledger.decided(m) {
                io(self.pool.consume_result(r), "consume a result")?;
                continue;
            }
            // A claim the scans never saw ran within the last step.
            let ran = now.saturating_sub(self.claimed_at.remove(&task).unwrap_or(self.last_step));
            // A task failure is charged to the attempt budget, a refused
            // payload to the requeue budget, unless the twin races on.
            let failed = r.code != 0 && r.code != CODE_REJECTED;
            match if failed { Err(None) } else { self.gate(r).map_err(Some) } {
                Ok(xf) => {
                    // The store commit, then the journal record as the
                    // commit point.
                    io(self.store.commit(r), "commit a forecast")?;
                    let attempts = self.ledger.complete(m);
                    self.append(JournalRecord::MemberCompleted { member: m, attempts })?;
                    self.setup.validator.iter_mut().for_each(|v| v.note_decided(m, &xf));
                    self.m_ingested.inc();
                    self.task_instant("pool", "result_ingested", task, &[]);
                    self.note_trace_batch(task);
                    self.runtime = (self.runtime.0 + ran, self.runtime.1 + 1);
                    if let Some(open) = self.races.remove(&m) {
                        let report = &mut self.report;
                        let (score, name) = match open != Some(r.epoch) {
                            true => (&mut report.speculative_wins, "speculative_win"),
                            false => (&mut report.speculative_losses, "speculative_loss"),
                        };
                        *score += 1;
                        self.task_instant("fault", name, task, &[]);
                    }
                }
                Err(refused) => {
                    if let Some((reason, why)) = &refused {
                        // The replacement runs at the next epoch, so the
                        // quarantined bytes can never race it in.
                        self.quarantine(m, *reason, why)?;
                        self.m_quarantined.inc();
                        self.report.quarantined += 1;
                        self.task_instant(
                            "fault",
                            "member_quarantined",
                            task,
                            &[("reason", *reason as u64)],
                        );
                    }
                    if original {
                        // The twin carries the member on.
                        self.races.insert(m, None);
                    } else if let Some((reason, _)) = refused {
                        if self.requeue(m, Budget::Requeues, CODE_QUARANTINE_BUDGET, now)? {
                            let extra = [("reason", reason as u64)];
                            self.task_instant(
                                "pool",
                                "replacement_scheduled",
                                (m, self.epoch(m)),
                                &extra,
                            );
                        }
                    } else {
                        self.requeue(m, Budget::Attempts, r.code, now)?;
                    }
                }
            }
            io(self.pool.consume_result(r), "consume a result")?;
            let claim = TaskSpec { member: m, epoch: r.epoch, seed: 0, parent_span: 0 };
            io(self.pool.remove_claim(&claim), "remove a claim")?;
            self.watch.forget(m);
        }
        Ok(())
    }

    /// Note a shipped span batch live, attributed to its worker (the
    /// caller merges the batches at wind-down).
    fn note_trace_batch(&self, task: (u64, u32)) {
        if self.setup.trace_run == 0 {
            return;
        }
        let batch = (self.pool.trace_sidecar(task.0, task.1))
            .and_then(|b| esse_obs::fleet::SpanBatch::decode(&b).ok());
        if let Some(batch) = batch {
            self.task_instant("fleet", "batch", task, &[("worker", batch.worker_id as u64)]);
        }
    }

    /// Step 2: reclaim claims whose heartbeat stalled for the lease.
    fn watch_leases(&mut self, claims: &[ClaimScan], now: Duration) -> Result {
        let now_ms = now.as_millis() as u64;
        for c in claims {
            let task = (c.spec.member, c.spec.epoch);
            let (m, epoch) = task;
            let original = self.races.get(&m) == Some(&Some(epoch));
            if self.ledger.decided(m) || (epoch != self.epoch(m) && !original) {
                // A leftover of an ingested or requeued incarnation.
                io(self.pool.remove_claim(&c.spec), "remove a claim")?;
                self.claimed_at.remove(&task);
                continue;
            }
            let counter = c.heartbeat.map(|hb| hb.counter);
            match self.watch.observe(m, epoch, counter, now_ms, self.lease_ms) {
                LeaseState::Granted => {
                    self.m_granted.inc();
                    self.claimed_at.insert(task, now);
                    self.task_instant("pool", "lease_granted", task, &[]);
                }
                LeaseState::Renewed => self.m_renewed.inc(),
                LeaseState::Held => {}
                LeaseState::Expired => {
                    self.m_expired.inc();
                    self.report.timeouts += 1;
                    self.task_instant("pool", "lease_expired", task, &[]);
                    say!(self.setup.progress, Warn, "lease expired for member {m} (epoch {epoch})");
                    // Successor first, then the dead claim: the member
                    // always has an incarnation in the pool. A raced
                    // original just leaves the race to its twin.
                    if original {
                        self.races.insert(m, None);
                    } else {
                        self.requeue(m, Budget::Requeues, CODE_LEASE_BUDGET, now)?;
                    }
                    io(self.pool.remove_claim(&c.spec), "remove a claim")?;
                    self.claimed_at.remove(&task);
                    self.watch.forget(m);
                }
            }
        }
        Ok(())
    }

    /// Step 3: seed the members below `ceiling` that are neither decided,
    /// outstanding, nor held back by a retry backoff.
    fn seed(&mut self, ceiling: u64, now: Duration) -> Result {
        self.planned = ceiling;
        for m in self.ledger.seedable(self.planned, now) {
            if !self.outstanding.contains(&m) {
                self.issue_epoch(m)?;
            }
        }
        Ok(())
    }

    /// The seed ceiling once `stage` is open: `ceil(pool_factor · stage)`.
    fn target(&self, stage: u64) -> u64 {
        let over = (stage as f64 * self.setup.cfg.pool_factor).ceil() as u64;
        self.planned.max(over).max(stage)
    }

    /// A claim running this long is a straggler; `None` without
    /// speculation or before two runtimes are known.
    fn straggler_threshold(&self) -> Option<Duration> {
        let (retry, (sum, n)) = (&self.setup.cfg.retry, self.runtime);
        (retry.speculative && n >= 2).then(|| (sum / n).mul_f64(retry.speculation_factor))
    }

    /// Race each straggler with a twin at the member's next epoch; the
    /// original claim stays live and whichever lands first is ingested.
    fn speculate(&mut self, claims: &[ClaimScan], now: Duration) -> Result {
        let Some(limit) = self.straggler_threshold() else { return Ok(()) };
        for c in claims {
            let (m, epoch) = (c.spec.member, c.spec.epoch);
            let Some(&since) = self.claimed_at.get(&(m, epoch)) else { continue };
            let racing = self.races.contains_key(&m);
            if racing || epoch != self.epoch(m) || now.saturating_sub(since) <= limit {
                continue;
            }
            self.races.insert(m, Some(epoch));
            self.report.speculative_launches += 1;
            self.issue_epoch(m)?;
            self.task_instant("fault", "speculative_launch", (m, epoch + 1), &[]);
        }
        Ok(())
    }

    /// Stop issuing work (convergence or the deadline): close the ledger
    /// and cancel what is pending. After a deadline or under
    /// `CancelImmediately` every undecided member is abandoned now;
    /// otherwise the next step's [`sweep`](Self::sweep) picks the claims
    /// to drain.
    fn halt(&mut self, now: Duration) -> Result {
        self.halted_at = Some(now);
        self.ledger.close();
        if self.deadline_expired || self.setup.cfg.completion == CompletionPolicy::CancelImmediately
        {
            self.sweep(&[]);
        }
        self.cancelled_tasks = io(self.pool.cancel_pending(), "cancel pending tasks")?;
        io(self.pool.write_cancel(), "write the CANCEL tombstone")
    }

    /// Abandon every undecided member but those whose claim the
    /// completion policy keeps: `UseCompleted` keeps every live claim,
    /// `SpareNearlyDone(f)` those granted ≥ f × the mean runtime before
    /// the halt.
    fn sweep(&mut self, claims: &[ClaimScan]) {
        self.swept = true;
        let halted_at = self.halted_at.unwrap_or_default();
        let (sum, n) = self.runtime;
        let mean = sum.checked_div(n).unwrap_or_default().as_secs_f64();
        let keeps = |since: Duration| match self.setup.cfg.completion {
            CompletionPolicy::CancelImmediately => false,
            CompletionPolicy::UseCompleted => true,
            CompletionPolicy::SpareNearlyDone(f) => {
                halted_at.saturating_sub(since).as_secs_f64() >= f * mean
            }
        };
        let claimed = |c: &&ClaimScan| self.claimed_at.get(&(c.spec.member, c.spec.epoch)).copied();
        let kept: HashSet<u64> = claims
            .iter()
            .filter(|c| claimed(c).is_some_and(keeps))
            .map(|c| c.spec.member)
            .collect();
        for m in (0..self.planned).filter(|m| !kept.contains(m)) {
            self.ledger.decide(m, Fate::Abandoned);
        }
    }

    /// Step 4: the SVD + convergence test at decided-prefix checkpoints.
    fn checkpoints(&mut self, now: Duration) -> Result {
        let eligible = self.ledger.prefix_eligible();
        for cp in self.cps.clone() {
            let c = cp as u64;
            if self.conv.converged() || self.deadline_expired {
                break;
            }
            if self.fired.contains(&c) || eligible.len() < cp {
                continue;
            }
            // A fresh resume rebuilds the previous checkpoint's estimate
            // from the forecasts (never from a half-published covariance
            // file) before the estimator below holds anything.
            if self.previous.as_ref().map(|(m, _)| *m) != self.last_fired {
                self.previous = match self.last_fired {
                    None => None,
                    Some(p) => {
                        let mut est = new_estimator(&self.setup, &SubspaceStrategy::FullRecompute);
                        fold_members(est.as_mut(), self.store, &eligible[..p as usize])?;
                        let Some(update) = estimate(est.as_mut())? else {
                            let why = format!("cannot rebuild the estimate of checkpoint {p}");
                            return Err(CoordError::Failed(why));
                        };
                        Some((p, update.subspace))
                    }
                };
            }
            let (t0, started) = (self.setup.rec.now_ns(), Instant::now());
            let setup = &self.setup;
            let est =
                self.estimator.get_or_insert_with(|| new_estimator(setup, &setup.cfg.subspace));
            let folded = est.count();
            fold_members(est.as_mut(), self.store, &eligible[folded..cp])?;
            let Some(update) = estimate(est.as_mut())? else {
                break;
            };
            if self.setup.cfg.subspace == SubspaceStrategy::FullRecompute {
                eligible[folded..cp].iter().for_each(|&m| self.store.release(m));
            }
            self.rounds += 1;
            self.svd_span((t0, started.elapsed()), c, &update);
            let mut round_rho = f64::NAN;
            if let Some((_, prev)) = &self.previous {
                let rho = similarity(prev, &update.subspace);
                round_rho = rho;
                self.m_rho.set(rho);
                say!(self.setup.progress, Info, "N={cp} rho={rho:.4} (tol {:.3})", self.conv.tol);
                let args = vec![("rho", rho.into()), ("members", c.into())];
                self.instant("svd", "convergence_check", args);
                if finite_stat(rho).is_pass() && self.conv.check(rho) {
                    self.converged_members = Some(c);
                }
            }
            // The covariance files first, then the journal record as the
            // commit point (§4.1).
            self.svd_version += 1;
            let version = self.svd_version;
            let published = self.store.publish_covariance(&update.subspace, version);
            io(published, "publish a checkpoint")?;
            self.append(JournalRecord::SvdPublished { members: c, version, rho: round_rho })?;
            let args = vec![("members", c.into()), ("version", version.into())];
            self.instant("svd", "svd_published", args);
            self.fired.insert(c);
            self.last_fired = Some(c);
            self.previous = Some((c, update.subspace));
            if self.conv.converged() {
                self.append(JournalRecord::Converged { members: c, rho: round_rho })?;
                self.halt(now)?;
                let cancelled = self.cancelled_tasks;
                say!(self.setup.progress, Info, "converged; cancelled {cancelled} queued members");
                let args = vec![("rho", round_rho.into()), ("members", c.into())];
                self.instant("workflow", "converged", args);
            }
        }
        // Past the last checkpoint the posterior only extends the decided
        // prefix: fold it as it grows, so the store need not hold it.
        let last = self.cps.last().is_some_and(|&c| self.fired.contains(&(c as u64)));
        let full = self.setup.cfg.subspace == SubspaceStrategy::FullRecompute;
        if let Some(est) =
            self.estimator.as_mut().filter(|_| last && full && !self.conv.converged())
        {
            let rest = &eligible[est.count()..];
            fold_members(est.as_mut(), self.store, rest)?;
            rest.iter().for_each(|&m| self.store.release(m));
        }
        Ok(())
    }

    /// The `svd/svd` span of one checkpoint estimate that began at `t0`
    /// and `took` so long, with the update flavour nested inside, and its
    /// meters.
    fn svd_span(&self, (t0, took): (u64, Duration), members: u64, update: &SubspaceUpdate) {
        let (rec, lane, took) = (self.setup.rec, Lane::Coordinator, took.as_nanos() as u64);
        let (inner, timing) = match update.kind {
            UpdateKind::Incremental => ("subspace_update", &self.m_update),
            _ => ("subspace_refresh", &self.m_refresh),
        };
        timing.observe(took);
        self.m_defect.set(update.defect);
        if rec.enabled() {
            let args =
                vec![("defect", update.defect.into()), ("error_bound", update.error_bound.into())];
            rec.begin_at(t0, lane, "svd", "svd", vec![("members", members.into())]);
            rec.begin_at(t0, lane, "svd", inner, args);
            rec.end_at(t0 + took, lane, "svd", inner);
            rec.end_at(t0 + took, lane, "svd", "svd");
            rec.observe("svd", took);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Checkpoint;
    use crate::mem::MemPool;
    use esse_core::adaptive::EnsembleSchedule;
    use esse_core::format::subspace_to_bytes;
    use esse_obs::recorder::NULL;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIM: usize = 12;

    /// A member forecast: a pure function of its seed.
    fn forecast(seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..DIM).map(|i| rng.gen::<f64>() / (1.0 + i as f64)).collect()
    }

    /// Run a 4 → 16 schedule over the in-memory ports with an inline
    /// worker that fails every attempt of `lost`; return the posterior
    /// bytes, those of a fresh full recompute over the same ids, whether
    /// the run converged, and whether the first id's forecast was
    /// released from memory once folded.
    fn posterior_against_fresh(
        tolerance: f64,
        lost: Option<u64>,
    ) -> (Vec<u8>, Vec<u8>, bool, bool) {
        let prior = ErrorSubspace::isotropic(&mut StdRng::seed_from_u64(1), DIM, 3, 1.0);
        let gen = PerturbationGenerator::new(&prior, Default::default());
        let (central, metrics) = (vec![0.0; DIM], MetricsRegistry::new());
        let (pool, journal) = (MemPool::new(1, &NULL, None), None::<&Checkpoint>);
        let cfg = MtcConfig {
            schedule: EnsembleSchedule::new(4, 16),
            tolerance,
            max_rank: 64,
            svd_stride: 4,
            pool_factor: 1.0,
            completion: CompletionPolicy::CancelImmediately,
            ..MtcConfig::default()
        };
        let setup = Setup {
            cfg: &cfg,
            gen: &gen,
            central: &central,
            validator: None,
            trace_run: 0,
            incarnation: 1,
            rec: &NULL,
            metrics: &metrics,
            progress: &quiet,
        };
        let state = JournalState::default();
        let ports = (&pool, &journal, &pool);
        let mut co = Coordinator::resume(&state, ports, setup).unwrap();
        for tick in 0.. {
            while let Some((spec, _)) = pool.claim(false) {
                let code = if Some(spec.member) == lost { 3 } else { 0 };
                let (member, epoch) = (spec.member, spec.epoch);
                let rec = ResultRecord { member, epoch, code, pid: 0, fc_crc: 0, reason: 0 };
                pool.publish(rec, (code == 0).then(|| forecast(spec.seed)));
            }
            if co.step(&pool.snapshot().0, Duration::from_millis(tick)).unwrap() {
                break;
            }
        }
        let ids = co.posterior_ids();
        let got = subspace_to_bytes(&co.posterior().unwrap().subspace);
        let mut fresh = new_estimator(&co.setup, &SubspaceStrategy::FullRecompute);
        for &m in &ids {
            fresh.add_member(m as usize, &forecast(gen.forecast_seed(m as usize)));
        }
        let want = subspace_to_bytes(&fresh.estimate().unwrap().unwrap().subspace);
        (got, want, co.converged(), pool.read_forecast(ids[0]).is_err())
    }

    #[test]
    fn the_posterior_extends_the_checkpoint_estimator_to_the_bytes_of_a_fresh_one() {
        for (what, tolerance, lost, converges) in [
            ("converged", 0.9, None, true),
            ("unconverged", 1e-12, None, false),
            ("a failed member in the prefix", 1e-12, Some(2), false),
        ] {
            let (got, want, converged, released) = posterior_against_fresh(tolerance, lost);
            assert_eq!(converged, converges, "{what}");
            assert_eq!(got, want, "{what}: posterior bytes differ from a full recompute");
            assert!(released, "{what}: a folded forecast stayed in memory");
        }
    }
}
