//! The master script of paper §4.2 as a library: "The differ, SVD and
//! convergence check calculations proceed semi-independently ….
//! Dependencies are tracked using separate (per perturbation index)
//! files containing the error codes of the singleton scripts."
//!
//! [`Coordinator`] holds the rules and none of the I/O. It reaches the
//! world through a [`PoolPort`], a [`JournalPort`] and a [`StorePort`],
//! each covering only the calls its steps make; the pool scan and the
//! clock (a [`Duration`] on the caller's run clock, as [`MemberLedger`]
//! takes it) are handed into each [`step`](Coordinator::step).
//! `esse_master` plugs in the on-disk pool, the fsynced journal and the
//! workdir files; a test plugs in memory and a virtual clock.
//!
//! **Determinism.** Checkpoints fire when the *decided prefix* — the
//! contiguous run of members from index 0 whose fate is settled — crosses
//! fixed member counts, and each decomposes exactly the first `c`
//! completed members of that prefix in ascending index order. Forecasts
//! are pure functions of `(member, seed)` and requeues reuse the member's
//! seed, so the rho sequence, the convergence point and the
//! [`posterior`](Coordinator::posterior) are bit-identical under any
//! worker count, arrival order, kill schedule or resume.
//!
//! **Crash consistency.** Every transition is journalled before the pool
//! or store shows its effect, and [`Coordinator::resume`] rebuilds the
//! coordinator from any replayed journal prefix. A failed append returns
//! [`CoordError::Parked`] at once: nothing after it touches a port.

use crate::fault::RetryPolicy;
use crate::journal::{JournalRecord, JournalState};
use crate::ledger::{Budget, Fate, Loss, Member, MemberLedger};
use crate::pool::{
    ClaimScan, LeaseState, LeaseWatch, PoolScan, ResultRecord, TaskSpec, CODE_LEASE_BUDGET,
    CODE_QUARANTINE_BUDGET, CODE_REJECTED,
};
use esse_core::adaptive::EnsembleSchedule;
use esse_core::convergence::{similarity, ConvergenceTest};
use esse_core::format::subspace_to_bytes;
use esse_core::perturb::PerturbationGenerator;
use esse_core::subspace::{
    make_estimator, ErrorSubspace, SubspaceEstimator, SubspaceStrategy, SubspaceUpdate,
};
use esse_core::validate::{finite_stat, ForecastValidator, Reason, Verdict};
use esse_linalg::LinalgCtx;
use esse_obs::event::{ArgValue, Lane};
use esse_obs::recorder::{Recorder, RecorderExt};
use esse_obs::registry::{Counter, MetricsRegistry};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::Duration;
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
}

/// The run journal.
pub trait JournalPort {
    /// Durably append one record: the commit point of what it describes.
    fn append(&self, rec: &JournalRecord) -> io::Result<()>;
}

/// Where member forecasts and covariance estimates live.
pub trait StorePort {
    /// Member `member`'s forecast and the CRC-32 of its stored bytes.
    fn read_forecast(&self, member: u64) -> io::Result<(Vec<f64>, u32)>;
    /// Move a forecast out of reach, kept for post-mortems; missing is fine.
    fn quarantine_forecast(&self, member: u64) -> io::Result<()>;
    /// Publish covariance bytes at `version` (paper §4.1's safe file).
    fn publish_covariance(&self, bytes: &[u8], version: u64) -> io::Result<()>;
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

/// What every coordinator call returns.
pub type Result<T = (), E = CoordError> = std::result::Result<T, E>;

fn io<T>(result: io::Result<T>, what: &str) -> Result<T> {
    result
        .map_err(|e| CoordError::Failed(format!("cannot {what}: {e}; --resume continues the run")))
}

/// Everything a coordinator is built from besides its ports and the
/// journal fold.
pub struct Setup<'a> {
    /// The member seed stream (requeues reuse a member's seed).
    pub gen: &'a PerturbationGenerator<'a>,
    /// The central forecast every spread is taken about.
    pub central: &'a [f64],
    /// The semantic ingestion gate.
    pub validator: ForecastValidator,
    /// The checkpoint estimator (the posterior is a full recompute).
    pub strategy: SubspaceStrategy,
    /// Initial ensemble size.
    pub initial: usize,
    /// Maximum ensemble size.
    pub max: usize,
    /// Convergence tolerance on the similarity of successive estimates.
    pub tolerance: f64,
    /// A claim whose heartbeat stalls this long is reclaimed.
    pub lease_ms: u64,
    /// Attempts a member may fail with a nonzero exit code.
    pub task_attempts: u32,
    /// Requeues (expired leases, quarantines) a member may take.
    pub requeue_budget: u32,
    /// Fleet-wide trace run id: nonzero iff tracing is on.
    pub trace_run: u64,
    /// This coordinator's incarnation (from [`begin_incarnation`]).
    pub incarnation: u64,
    /// Where coordinator-lane trace instants go.
    pub rec: &'a dyn Recorder,
    /// Where the pool, ingest and quarantine counters live.
    pub metrics: &'a MetricsRegistry,
}

/// Mode relative tolerance and rank cap of every subspace estimate.
const SVD_REL_TOL: f64 = 1e-4;
const SVD_MAX_RANK: usize = 64;

fn new_estimator(strategy: &SubspaceStrategy, central: &[f64]) -> Box<dyn SubspaceEstimator> {
    make_estimator(strategy, central.to_vec(), SVD_REL_TOL, SVD_MAX_RANK, LinalgCtx::default())
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

/// A one-shot full recompute over exactly `ids`: same ids, same bytes.
fn subspace_over(
    store: &impl StorePort,
    central: &[f64],
    ids: &[u64],
) -> Result<Option<SubspaceUpdate>> {
    let mut est = new_estimator(&SubspaceStrategy::FullRecompute, central);
    fold_members(est.as_mut(), store, ids)?;
    estimate(est.as_mut())
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
    max: usize,
    tolerance: f64,
) -> Result<Option<u64>> {
    if let Some(members) = state.complete {
        if ConvergenceTest::restore(tolerance, &state.rho_history()).converged()
            || state.completed.len() >= max
        {
            println!("esse_master: run already complete ({members} members); nothing to do");
            return Ok(None);
        }
        println!(
            "esse_master: completed run falls short of the requested schedule \
             (max {max}, tolerance {tolerance}); extending"
        );
    }
    let append = |rec| journal.append(&rec).map_err(CoordError::Parked);
    if state.config_hash.is_none() {
        append(JournalRecord::RunStart { config_hash })?;
    }
    let incarnation = state.incarnations + 1;
    append(JournalRecord::CoordinatorStarted { incarnation })?;
    if incarnation > 1 {
        println!("esse_master: coordinator incarnation {incarnation} (resuming a crashed run)");
    }
    Ok(Some(incarnation))
}

/// The coordinator's state. The caller scans the pool and calls
/// [`step`](Self::step) until the run is over, then publishes the
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
    ledger: MemberLedger,
    /// Current fencing epoch per member.
    epochs: HashMap<u64, u32>,
    /// Members with a pending task or a live claim in this scan.
    outstanding: HashSet<u64>,
    watch: LeaseWatch,
    quarantined_lost: usize,
    stages: Vec<usize>,
    /// Decided-prefix member counts at which the SVD runs: every multiple
    /// of the stride and every stage boundary.
    cps: Vec<usize>,
    /// The one subspace lane: a persistent estimator over the append-only
    /// decided prefix, so every forecast is folded once.
    estimator: Option<Box<dyn SubspaceEstimator>>,
    conv: ConvergenceTest,
    converged_members: Option<u64>,
    fired: BTreeSet<u64>,
    last_fired: Option<u64>,
    /// The estimate of `last_fired`, once this incarnation has one.
    previous: Option<(u64, ErrorSubspace)>,
    svd_version: u64,
    cancelled_tasks: usize,
}

impl<'a, P: PoolPort, J: JournalPort, S: StorePort> Coordinator<'a, P, J, S> {
    /// Rebuild from a replayed journal `state` (empty for a fresh run) and
    /// each member's highest epoch in the pool. Every completed member's
    /// forecast is re-read; a corrupt or missing one is quarantined.
    pub fn resume(
        state: &JournalState,
        pool_epochs: HashMap<u64, u32>,
        (pool, journal, store): (&'a P, &'a J, &'a S),
        setup: Setup<'a>,
    ) -> Result<Self> {
        let conv = ConvergenceTest::restore(setup.tolerance, &state.rho_history());
        // The `Converged` record is missing if the coordinator died right
        // after the SVD append: replay the rho sequence (a NaN rho never
        // passes the gate).
        let mut replayed = ConvergenceTest::new(setup.tolerance);
        let mut rounds = state.svd_rounds.iter();
        let converged_members = (state.converged.map(|(m, _)| m))
            .or_else(|| {
                let round = rounds.find(|r| finite_stat(r.rho).is_pass() && replayed.check(r.rho));
                round.map(|r| r.members)
            })
            .filter(|_| conv.converged());
        let stages = EnsembleSchedule::new(setup.initial, setup.max).stages();
        let stride = (setup.initial / 2).max(4);
        let mut cps: BTreeSet<usize> =
            (1..).map(|k| k * stride).take_while(|&c| c <= setup.max).collect();
        cps.extend(stages.iter().copied().filter(|&c| c <= setup.max));
        let backoff = Duration::from_millis(20);
        let retry = RetryPolicy::retries(setup.task_attempts).with_backoff(backoff, 2.0, 0.0);
        let jitter_seed = setup.gen.config.base_seed ^ 0x00D1_7A5C;
        let counter = |name| setup.metrics.counter(name);
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
            ledger: MemberLedger::new(retry, setup.requeue_budget, jitter_seed),
            epochs: pool_epochs,
            outstanding: HashSet::new(),
            watch: LeaseWatch::new(),
            quarantined_lost: 0,
            stages,
            cps: cps.into_iter().filter(|&c| c >= 2).collect(),
            estimator: None,
            converged_members,
            conv,
            fired: state.svd_rounds.iter().map(|r| r.members).collect(),
            last_fired: state.svd_rounds.last().map(|r| r.members),
            previous: None,
            svd_version: state.svd_rounds.last().map_or(0, |r| r.version),
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
                    co.task_seeded_instant(m, ep);
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
                    co.setup.validator.note_decided(m, &xf);
                }
                Err(e) => co.quarantine(m, Reason::CorruptPayload.code(), &e.to_string())?,
            }
        }
        for &m in &state.failed {
            co.ledger.decide(m, Fate::Failed);
        }
        let resumed = co.ledger.completed_ids().count();
        println!("esse_master: starting with {resumed} members in the differ (resumed {resumed})");
        Ok(co)
    }

    /// One loop turn over a fresh pool `scan` at `now`: ingest → watch
    /// leases → seed → checkpoints. `Ok(true)` once the run is over:
    /// converged, or every stage decided.
    pub fn step(&mut self, scan: &PoolScan, now: Duration) -> Result<bool> {
        let stage = self.stage();
        self.outstanding = scan.pending.iter().map(|t| t.member).collect();
        self.outstanding.extend(scan.claims.iter().map(|c| c.spec.member));
        self.ingest(&scan.results, now)?;
        self.watch_leases(&scan.claims, now)?;
        if let Some(target) = stage.filter(|_| !self.conv.converged()) {
            self.seed(target, now)?;
        }
        self.checkpoints()?;
        Ok(self.conv.converged() || self.stage().is_none())
    }

    /// Has the convergence test fired?
    pub fn converged(&self) -> bool {
        self.conv.converged()
    }

    /// The final posterior: the first `converged_members` completed
    /// members of the decided prefix (not whatever happened to arrive),
    /// or every completed member of an unconverged run. A full recompute,
    /// run after the checkpoint estimator is released.
    pub fn posterior(&mut self) -> Result<SubspaceUpdate> {
        self.estimator = None;
        let eligible = self.ledger.prefix_eligible();
        let ids: Vec<u64> = match self.converged_members {
            Some(c) => eligible[..(c as usize).min(eligible.len())].to_vec(),
            None => self.ledger.completed_ids().collect(),
        };
        let update = subspace_over(self.store, self.setup.central, &ids)?;
        update.ok_or_else(|| CoordError::Failed("not enough members for an SVD".into()))
    }

    /// Journal `RunComplete` once the caller has published `posterior`,
    /// and report the run.
    pub fn complete(&self, posterior: &SubspaceUpdate) -> Result {
        let (members, sub, ledger) = (posterior.members, &posterior.subspace, &self.ledger);
        self.append(JournalRecord::RunComplete { members: members as u64 })?;
        let failed = ledger.count(|e| e.fate == Some(Fate::Failed));
        let (converged, rank, variance) = (self.conv.converged(), sub.rank(), sub.total_variance());
        println!(
            "esse_master: done — {members} members ({failed} failed), converged={converged}, \
             rank {rank}, total variance {variance:.5}"
        );
        // Replaced: quarantined, then healed by a later attempt.
        let replaced = ledger.count(Member::replaced);
        self.setup.metrics.counter("esse_replaced_total").add(replaced as u64);
        println!(
            "esse_master: pool stats — leases granted {}, renewed {}, expired {}, \
             results fenced {}, tasks seeded {}, ingested {}, cancelled {}",
            self.m_granted.get(),
            self.m_renewed.get(),
            self.m_expired.get(),
            self.m_fenced.get(),
            self.m_seeded.get(),
            self.m_ingested.get(),
            self.cancelled_tasks
        );
        println!(
            "esse_master: quarantine stats — quarantined {} member(s), replaced {replaced}, lost {}",
            ledger.count(|e| e.quarantined),
            self.quarantined_lost
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
        rec.instant_at(rec.now_ns(), Lane::Coordinator, cat, name, args);
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

    fn task_seeded_instant(&self, m: u64, epoch: u32) {
        let extra = [("span", self.span_for(m, epoch)), ("incarnation", self.setup.incarnation)];
        self.task_instant("pool", "task_seeded", (m, epoch), &extra);
    }

    /// The one seed path: member `m` at its next fencing epoch. The epoch
    /// is journalled *before* the seed: a crash between the two costs one
    /// unused epoch, never one a worker saw but the journal did not.
    fn issue_epoch(&mut self, m: u64) -> Result {
        let epoch = self.epoch(m) + 1;
        let seed = self.setup.gen.forecast_seed(m as usize);
        let spec = TaskSpec { member: m, epoch, seed, parent_span: self.span_for(m, epoch) };
        self.append(JournalRecord::EpochAdvanced { member: m, epoch })?;
        io(self.pool.seed(&spec), "seed a task")?;
        self.epochs.insert(m, epoch);
        self.outstanding.insert(m);
        self.m_seeded.inc();
        self.task_seeded_instant(m, epoch);
        Ok(())
    }

    /// An attempt of `m` was lost: charge `budget` and do what the ledger
    /// answers — reissue now, leave it to [`seed`](Self::seed) after its
    /// backoff, or journal the loss. Returns whether the member lives on.
    fn requeue(&mut self, m: u64, budget: Budget, code: i32, now: Duration) -> Result<bool> {
        match self.ledger.lose(m, budget, code, now) {
            Loss::Lost { code } => {
                let spent = self.ledger.member(m);
                eprintln!(
                    "esse_master: member {m} lost (code {code}) after {} failed attempt(s) \
                     and {} requeue(s)",
                    spent.attempts, spent.requeues
                );
                self.append(JournalRecord::MemberFailed { member: m, code })?;
                Ok(false)
            }
            Loss::Reissue { after } if after.is_zero() => self.issue_epoch(m).map(|()| true),
            Loss::Reissue { .. } | Loss::Covered => Ok(true),
        }
    }

    /// Quarantine a forecast that failed the gate and journal the verdict,
    /// so a resume replays it and the bytes are never ingested.
    fn quarantine(&mut self, m: u64, reason: u32, why: &str) -> Result {
        io(self.store.quarantine_forecast(m), "quarantine a forecast")?;
        self.append(JournalRecord::MemberQuarantined { member: m, reason })?;
        self.ledger.mark_quarantined(m);
        eprintln!("esse_master: quarantined member {m}: {why}");
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
        let (xf, crc) = self.store.read_forecast(r.member).map_err(|e| corrupt(e.to_string()))?;
        if crc != r.fc_crc {
            let recorded = r.fc_crc;
            return Err(corrupt(format!(
                "forecast CRC {crc:#010x} != result record {recorded:#010x}"
            )));
        }
        match self.setup.validator.validate_member(r.member, &xf) {
            Verdict::Pass => Ok(xf),
            Verdict::Quarantine(reason) => {
                Err((reason.code(), format!("failed semantic validation: {}", reason.describe())))
            }
        }
    }

    /// Step 1: ingest published results.
    fn ingest(&mut self, results: &[ResultRecord], now: Duration) -> Result {
        for r in results {
            let m = r.member;
            let task = (m, r.epoch);
            let current = self.epoch(m);
            if r.epoch != current {
                // Fencing: a zombie published after its lease expired and
                // the task was requeued. Never ingested.
                self.m_fenced.inc();
                self.task_instant("pool", "fencing_rejected", task, &[("current", current as u64)]);
                let stale = r.epoch;
                eprintln!("esse_master: fenced stale result for member {m} (epoch {stale} != current {current})");
                io(self.pool.fence_result(r), "fence a stale result")?;
                continue;
            }
            if self.ledger.decided(m) {
                io(self.pool.consume_result(r), "consume a result")?;
                continue;
            }
            if r.code != 0 && r.code != CODE_REJECTED {
                // A task failure: charged to the attempt budget.
                self.requeue(m, Budget::Attempts, r.code, now)?;
            } else {
                match self.gate(r) {
                    Ok(xf) => {
                        // The journal record is the commit point.
                        let attempts = self.ledger.complete(m);
                        self.append(JournalRecord::MemberCompleted { member: m, attempts })?;
                        self.setup.validator.note_decided(m, &xf);
                        self.m_ingested.inc();
                        self.task_instant("pool", "result_ingested", task, &[]);
                        self.note_trace_batch(task);
                    }
                    Err((reason, why)) => {
                        // The replacement runs at the next epoch, so the
                        // quarantined bytes can never race it in.
                        self.quarantine(m, reason, &why)?;
                        self.m_quarantined.inc();
                        let extra = [("reason", reason as u64)];
                        self.task_instant("fault", "member_quarantined", task, &extra);
                        if self.requeue(m, Budget::Requeues, CODE_QUARANTINE_BUDGET, now)? {
                            let next = (m, r.epoch + 1);
                            self.task_instant("pool", "replacement_scheduled", next, &extra);
                        } else {
                            self.quarantined_lost += 1;
                        }
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
            if self.ledger.decided(m) || epoch != self.epoch(m) {
                // A leftover of an ingested or requeued incarnation.
                io(self.pool.remove_claim(&c.spec), "remove a claim")?;
                continue;
            }
            let counter = c.heartbeat.map(|hb| hb.counter);
            match self.watch.observe(m, epoch, counter, now_ms, self.setup.lease_ms) {
                LeaseState::Granted => {
                    self.m_granted.inc();
                    self.task_instant("pool", "lease_granted", task, &[]);
                }
                LeaseState::Renewed => self.m_renewed.inc(),
                LeaseState::Held => {}
                LeaseState::Expired => {
                    self.m_expired.inc();
                    self.task_instant("pool", "lease_expired", task, &[]);
                    eprintln!("esse_master: lease expired for member {m} (epoch {epoch})");
                    // Successor first, then the dead claim: the member
                    // always has an incarnation in the pool.
                    self.requeue(m, Budget::Requeues, CODE_LEASE_BUDGET, now)?;
                    io(self.pool.remove_claim(&c.spec), "remove a claim")?;
                    self.watch.forget(m);
                }
            }
        }
        Ok(())
    }

    /// Step 3: seed the members below `target` that are neither decided,
    /// outstanding, nor held back by a retry backoff.
    fn seed(&mut self, target: u64, now: Duration) -> Result {
        for m in self.ledger.seedable(target, now) {
            if !self.outstanding.contains(&m) {
                self.issue_epoch(m)?;
            }
        }
        Ok(())
    }

    /// Step 4: the SVD + convergence test at decided-prefix checkpoints.
    fn checkpoints(&mut self) -> Result {
        let eligible = self.ledger.prefix_eligible();
        for cp in self.cps.clone() {
            let c = cp as u64;
            if self.conv.converged() {
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
                        let ids = &eligible[..p as usize];
                        let Some(update) = subspace_over(self.store, self.setup.central, ids)?
                        else {
                            let why = format!("cannot rebuild the estimate of checkpoint {p}");
                            return Err(CoordError::Failed(why));
                        };
                        Some((p, update.subspace))
                    }
                };
            }
            let Setup { strategy, central, .. } = &self.setup;
            let est = self.estimator.get_or_insert_with(|| new_estimator(strategy, central));
            let folded = est.count();
            fold_members(est.as_mut(), self.store, &eligible[folded..cp])?;
            let Some(update) = estimate(est.as_mut())? else {
                break;
            };
            let args = vec![("members", c.into()), ("defect", update.defect.into())];
            self.instant("svd", update.kind.label(), args);
            let mut round_rho = f64::NAN;
            if let Some((_, prev)) = &self.previous {
                let rho = similarity(prev, &update.subspace);
                round_rho = rho;
                println!("esse_master: N={cp} rho={rho:.4} (tol {:.3})", self.conv.tol);
                if finite_stat(rho).is_pass() && self.conv.check(rho) {
                    self.converged_members = Some(c);
                }
            }
            // The covariance files first, then the journal record as the
            // commit point (§4.1).
            self.svd_version += 1;
            let version = self.svd_version;
            let bytes = subspace_to_bytes(&update.subspace);
            io(self.store.publish_covariance(&bytes, version), "publish a checkpoint")?;
            self.append(JournalRecord::SvdPublished { members: c, version, rho: round_rho })?;
            let args = vec![("members", c.into()), ("version", version.into())];
            self.instant("svd", "svd_published", args);
            self.fired.insert(c);
            self.last_fired = Some(c);
            self.previous = Some((c, update.subspace));
            if self.conv.converged() {
                self.append(JournalRecord::Converged { members: c, rho: round_rho })?;
                self.cancelled_tasks = io(self.pool.cancel_pending(), "cancel pending tasks")?;
                io(self.pool.write_cancel(), "write the CANCEL tombstone")?;
                println!(
                    "esse_master: converged; cancelled {} queued members",
                    self.cancelled_tasks
                );
                let args = vec![("members", c.into()), ("rho", round_rho.into())];
                self.instant("convergence", "converged", args);
            }
        }
        Ok(())
    }
}
