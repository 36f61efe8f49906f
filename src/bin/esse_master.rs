//! `esse_master` — the master script of paper §4.2, as a *pure
//! coordinator* over the decoupled on-disk task pool.
//!
//! "This master script that runs on a central machine on the home
//! cluster launches singleton jobs that implement the perturb/forecast
//! ensemble calculations. The differ, SVD and convergence check
//! calculations proceed semi-independently …. Dependencies are tracked
//! using separate (per perturbation index) files containing the error
//! codes of the singleton scripts."
//!
//! Here the per-index error-code file is the pool result record
//! `results/rMMMMMM.eEEEEE` a worker publishes, and the restart record
//! is `run.journal`; a member's outcome is written nowhere else.
//!
//! The master seeds one lease-carrying task record per member into
//! `workdir/pool/pending/`, and any number of autonomous `esse_worker`
//! processes — local children it spawns (`--workers`), or external
//! workers pointed at the workdir or at `--listen` — claim tasks by
//! atomic rename and publish CRC-framed results. The coordinator's loop
//! is four steps, each a method of [`Coordinator`]:
//!
//! * **ingest** published results: every forecast passes the CRC →
//!   decode → validate gate before the journal commit point, and a
//!   result whose epoch is not the member's current epoch is fenced off
//!   into `pool/results/stale/` (a zombie worker resuming after its
//!   lease expired can still publish — it is never ingested);
//! * **watch leases** on its own clock: a claim whose heartbeat counter
//!   stops advancing for `--lease-ms` is reclaimed and the task requeued
//!   at the next fencing epoch;
//! * **seed** the members the current stage still lacks — first issue,
//!   requeue and quarantine replacement all enter the pool through
//!   `Coordinator::issue_epoch`. Which members those are, what a lost
//!   attempt costs and when a member is lost for good is the
//!   [`MemberLedger`]'s answer — the same rules the in-process engine
//!   (`esse::mtc::workflow`) runs; this file keeps the I/O;
//! * run the continuous SVD + convergence test at deterministic
//!   decided-prefix **checkpoints** on one persistent subspace estimator
//!   that folds each forecast once, publishing each estimate through
//!   the §4.1 safe/live covariance files. On convergence it writes the
//!   `CANCEL` tombstone, which workers observe *mid-run* (they kill the
//!   in-flight forecast — the paper's task-cancellation protocol).
//!
//! **Determinism.** SVD checkpoints fire when the *decided prefix* —
//! the contiguous run of members from index 0 whose fate is settled
//! (completed or permanently failed) — crosses fixed member counts, and
//! each checkpoint decomposes exactly the first `c` completed members
//! of that prefix in ascending index order. Member forecasts are pure
//! functions of `(member, seed)` and requeues reuse the member's seed,
//! so the rho sequence, the convergence point and the posterior are
//! bit-identical no matter how many workers run, in what order results
//! land, or how many workers are killed mid-task. The posterior itself
//! is always a fresh full recompute, so `--subspace` never changes its
//! bytes, and tracing (`--trace-out`, see docs/OBSERVABILITY.md) is
//! purely observational.
//!
//! **Crash consistency.** Every state transition is appended to the
//! checksummed, fsynced `run.journal`; `--resume` replays it
//! (truncating any torn tail), validates completed forecasts,
//! quarantines corrupt ones, recovers fencing epochs from the journal
//! and the pool directories and continues. A non-empty workdir is
//! refused unless `--resume` or `--force` is given, and an advisory
//! `master.lock` (O_EXCL, PID-stamped, stale-broken) keeps two live
//! coordinators out of one workdir. [`USAGE`] lists the flags.

use esse::cli::{self, files};
use esse::core::adaptive::EnsembleSchedule;
use esse::core::convergence::{similarity, ConvergenceTest};
use esse::core::perturb::{PerturbConfig, PerturbationGenerator};
use esse::core::subspace::{
    make_estimator, ErrorSubspace, SubspaceEstimator, SubspaceStrategy, SubspaceUpdate,
};
use esse::core::validate::{finite_stat, ForecastValidator, Reason, ValidatorConfig, Verdict};
use esse::fileio;
use esse::linalg::LinalgCtx;
use esse::mtc::journal::{config_hash, Journal, JournalRecord, JournalState, SvdRound};
use esse::mtc::ledger::{Budget, Fate, Loss, Member, MemberLedger};
use esse::mtc::pool::{
    ClaimScan, LeaseState, LeaseWatch, PoolManifest, ResultRecord, TaskPool, TaskSpec,
    CODE_LEASE_BUDGET, CODE_QUARANTINE_BUDGET, CODE_REJECTED,
};
use esse::mtc::{DiskTripleBuffer, LockError, RetryPolicy, WorkdirLock};
use esse_obs::event::{ArgValue, Lane};
use esse_obs::recorder::{Recorder, RecorderExt, NULL};
use esse_obs::registry::{Counter, MetricsRegistry};
use esse_obs::ring::RingRecorder;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "esse_master --workdir DIR --domain monterey:NX,NY,NZ --hours H \
                     [--initial N] [--max NMAX] [--tolerance T] [--workers C] \
                     [--lease-ms MS] [--task-attempts A] [--requeue-budget B] \
                     [--white-noise E] [--base-seed S] [--resume | --force] \
                     [--subspace full|incremental[:REFRESH,TOL]] [--listen ADDR] \
                     [--trace-out PATH] [--trace-capacity N] [--metrics-out PATH]\n\
                     esse_master --workdir DIR --gc [--gc-keep N]";

/// Parse the `--subspace` flag: `full` (the exact default),
/// `incremental` (rank-updating tracker with default drift control), or
/// `incremental:REFRESH,TOL` to pin the periodic full-recompute cadence
/// and the orthonormality-defect tolerance.
fn parse_subspace_flag(v: &str) -> Option<SubspaceStrategy> {
    if v == "full" {
        return Some(SubspaceStrategy::FullRecompute);
    }
    let rest = v.strip_prefix("incremental")?;
    if rest.is_empty() {
        return Some(SubspaceStrategy::Incremental { refresh_every: 8, defect_tol: 1e-6 });
    }
    let (refresh, tol) = rest.strip_prefix(':')?.split_once(',')?;
    Some(SubspaceStrategy::Incremental {
        refresh_every: refresh.parse().ok()?,
        defect_tol: tol.parse().ok()?,
    })
}

/// Journal file name inside the workdir.
const JOURNAL: &str = "run.journal";
/// Quarantine subdirectory for forecast files that failed validation.
const QUARANTINE: &str = "quarantine";
/// Exit code of a run parked because the journal itself could not be
/// appended (ENOSPC, failed fsync): the run stops cleanly and waits for
/// `--resume` on a healthy disk.
const EXIT_JOURNAL_PARKED: i32 = 4;

/// The workdir journal plus the crash-injection counter used by the
/// recovery harness (`--crash-after-appends N` aborts the process the
/// instant the N-th append of this incarnation is durable, simulating
/// a power loss at a chosen journal offset).
struct MasterJournal {
    journal: Journal,
    appends: Cell<u64>,
    crash_after: Option<u64>,
}

impl MasterJournal {
    fn append(&self, rec: &JournalRecord) {
        if let Err(e) = self.journal.append(rec) {
            // A failed append (disk full, failed fsync — or the
            // `--fail-appends` injection) means no further state
            // transition can be made durable. Park the run: the durable
            // prefix replays under `--resume`, workers ride out the
            // outage on their parking grace, and the distinct exit code
            // tells supervisors this is a storage fault, not a crash.
            eprintln!(
                "esse_master: journal append failed ({e}); \
                 parking run — resume with --resume once storage recovers"
            );
            std::process::exit(EXIT_JOURNAL_PARKED);
        }
        self.appends.set(self.appends.get() + 1);
        if self.crash_after.is_some_and(|n| self.appends.get() >= n) {
            // No destructors, no buffered-writer flush: the closest a
            // process can get to losing power.
            std::process::abort();
        }
    }
}

/// Exit on an I/O failure the coordinator cannot work past (the pool
/// directories, the covariance files, the quarantine corner).
/// Everything journalled so far replays under `--resume`.
fn or_die<T>(result: io::Result<T>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("esse_master: cannot {what}: {e}; --resume continues the run");
        std::process::exit(1);
    })
}

/// Mode relative tolerance shared by every subspace estimate.
const SVD_REL_TOL: f64 = 1e-4;
/// Rank cap shared by every subspace estimate.
const SVD_MAX_RANK: usize = 64;

fn new_estimator(strategy: &SubspaceStrategy, central: &[f64]) -> Box<dyn SubspaceEstimator> {
    make_estimator(strategy, central.to_vec(), SVD_REL_TOL, SVD_MAX_RANK, LinalgCtx::default())
}

/// Fold the forecasts of `ids` into `est`, reading each file once. The
/// ids are journalled as completed, so an unreadable file here is a
/// storage fault, not a verdict: name it and stop — `--resume`
/// CRC-validates every completed member and requeues the bad one.
fn fold_members(est: &mut dyn SubspaceEstimator, workdir: &Path, ids: &[u64]) {
    for &m in ids {
        let path = workdir.join(files::fc(m as usize));
        match fileio::read_vector(&path) {
            Ok(xf) => {
                est.add_member(m as usize, &xf);
            }
            Err(e) => {
                eprintln!(
                    "esse_master: cannot re-read journalled forecast {}: {e}; \
                     --resume quarantines and requeues it",
                    path.display()
                );
                std::process::exit(1);
            }
        }
    }
}

/// `None` means "not enough spread to decompose yet" (skip the round).
fn estimate(est: &mut dyn SubspaceEstimator) -> Option<SubspaceUpdate> {
    est.estimate().unwrap_or_else(|e| {
        eprintln!("esse_master: subspace update failed: {e}");
        std::process::exit(1);
    })
}

/// A one-shot full recompute over exactly `ids` (ascending) from the
/// on-disk forecast files. Deterministic: same ids, same bytes, same
/// subspace. Off the checkpoint path — only the final posterior and a
/// resume's rebuild of the previous checkpoint come here, each while no
/// other spread matrix is resident.
fn subspace_over(workdir: &Path, central: &[f64], ids: &[u64]) -> Option<SubspaceUpdate> {
    let mut est = new_estimator(&SubspaceStrategy::FullRecompute, central);
    fold_members(est.as_mut(), workdir, ids);
    estimate(est.as_mut())
}

/// Replay the journalled rho sequence to find the member count at which
/// the run converged under `tolerance` (the Converged record may be
/// missing if the coordinator died between the SVD append and it).
fn converged_members_from(rounds: &[SvdRound], tolerance: f64) -> Option<u64> {
    let mut t = ConvergenceTest::new(tolerance);
    // The validator is the one ingestion gate, for derived scalars too:
    // a journalled NaN rho (coordinator died between appends) never
    // advances the convergence test.
    rounds.iter().find(|r| finite_stat(r.rho).is_pass() && t.check(r.rho)).map(|r| r.members)
}

/// The deterministic checkpoint schedule: every multiple of the SVD
/// stride plus every stage boundary, ascending, capped at `max`.
fn checkpoints(initial: usize, max: usize, stages: &[usize]) -> Vec<usize> {
    let stride = (initial / 2).max(4);
    let mut cps: BTreeSet<usize> = (1..).map(|k| k * stride).take_while(|&c| c <= max).collect();
    cps.extend(stages.iter().copied().filter(|&c| c <= max));
    cps.into_iter().filter(|&c| c >= 2).collect()
}

/// The coordinator loop's state. The loop body is its four steps, in
/// this order: [`ingest`](Self::ingest) →
/// [`watch_leases`](Self::watch_leases) → [`seed`](Self::seed) →
/// [`checkpoints`](Self::checkpoints).
struct Coordinator<'a> {
    workdir: &'a Path,
    journal: &'a MasterJournal,
    pool: &'a TaskPool,
    rec: &'a dyn Recorder,
    gen: &'a PerturbationGenerator<'a>,
    central: &'a [f64],
    /// Fleet-wide trace run id: nonzero iff tracing is on.
    trace_run: u64,
    incarnation: u64,
    lease_ms: u64,
    m_granted: Counter,
    m_renewed: Counter,
    m_expired: Counter,
    m_fenced: Counter,
    m_seeded: Counter,
    m_ingested: Counter,
    m_quarantined: Counter,

    /// Every member's attempts, requeues, backoff hold and fate.
    ledger: MemberLedger,
    /// Current fencing epoch per member.
    epochs: HashMap<u64, u32>,
    /// Members with a pending task or a live claim in this scan.
    outstanding: HashSet<u64>,
    watch: LeaseWatch,
    validator: ForecastValidator,
    /// Members this incarnation lost to the replacement budget.
    quarantined_lost: usize,

    /// The one subspace lane: a persistent estimator over the
    /// append-only decided prefix, so every forecast is folded once no
    /// matter how many checkpoints fire.
    estimator: Box<dyn SubspaceEstimator>,
    disk_cov: DiskTripleBuffer,
    conv: ConvergenceTest,
    /// The member count the run converged at; `Some` only while `conv`
    /// is in the converged state.
    converged_members: Option<u64>,
    fired: BTreeSet<u64>,
    last_fired: Option<u64>,
    /// The estimate of the checkpoint in `last_fired`, once this
    /// incarnation has computed (or rebuilt) it.
    previous: Option<(u64, ErrorSubspace)>,
    svd_version: u64,
    cancelled_tasks: usize,
}

impl Coordinator<'_> {
    /// One coordinator-lane trace instant, stamped now.
    fn instant(&self, cat: &'static str, name: &'static str, args: Vec<(&'static str, ArgValue)>) {
        self.rec.instant_at(self.rec.now_ns(), Lane::Coordinator, cat, name, args);
    }

    fn epoch(&self, m: u64) -> u32 {
        self.epochs.get(&m).copied().unwrap_or(0)
    }

    /// Span ids are pure in (trace run, member, epoch), so a restarted
    /// coordinator reconstructs exactly the ids the dead one handed out.
    fn span_for(&self, m: u64, epoch: u32) -> u64 {
        if self.trace_run != 0 {
            esse_obs::fleet::span_id(self.trace_run, m, epoch)
        } else {
            0
        }
    }

    /// An instant about one task incarnation: `member` and `epoch`
    /// first, then `extra`.
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
        let extra = [("span", self.span_for(m, epoch)), ("incarnation", self.incarnation)];
        self.task_instant("pool", "task_seeded", (m, epoch), &extra);
    }

    /// The one seed path: put member `m` into the pool at its next
    /// fencing epoch. The epoch is journalled *before* the seed (WAL
    /// order): a crash between the two costs one unused epoch, never an
    /// epoch a worker saw but the journal did not. Requeues reuse the
    /// member's canonical forecast seed, so a healed run's posterior is
    /// byte-identical to a fault-free one.
    fn issue_epoch(&mut self, m: u64) -> io::Result<()> {
        let epoch = self.epoch(m) + 1;
        let spec = TaskSpec {
            member: m,
            epoch,
            seed: self.gen.forecast_seed(m as usize),
            parent_span: self.span_for(m, epoch),
        };
        self.journal.append(&JournalRecord::EpochAdvanced { member: m, epoch });
        self.pool.seed(&spec)?;
        self.epochs.insert(m, epoch);
        self.outstanding.insert(m);
        self.m_seeded.inc();
        self.task_seeded_instant(m, epoch);
        Ok(())
    }

    /// An attempt of `m` was lost: charge `budget` and do what the
    /// ledger answers — reissue now, leave the member to
    /// [`seed`](Self::seed) once its backoff has passed, or journal the
    /// permanent loss. Returns whether the member lives on.
    fn requeue(&mut self, m: u64, budget: Budget, code: i32, now: Duration) -> io::Result<bool> {
        match self.ledger.lose(m, budget, code, now) {
            Loss::Lost { code } => {
                let spent = self.ledger.member(m);
                eprintln!(
                    "esse_master: member {m} lost (code {code}) after {} failed attempt(s) \
                     and {} requeue(s)",
                    spent.attempts, spent.requeues
                );
                self.journal.append(&JournalRecord::MemberFailed { member: m, code });
                Ok(false)
            }
            Loss::Reissue { after } if after.is_zero() => self.issue_epoch(m).map(|()| true),
            Loss::Reissue { .. } | Loss::Covered => Ok(true),
        }
    }

    /// Move a forecast file that failed validation (checksum *or* the
    /// semantic gate) into the quarantine corner and journal the
    /// decision with its reason code, so the member is requeued, a
    /// resume replays the same verdict bit-for-bit, and the offending
    /// bytes are never ingested — but remain on disk for post-mortems.
    fn quarantine_file(&mut self, m: u64, reason: u32, why: &str) -> io::Result<()> {
        let name = files::fc(m as usize);
        let qdir = self.workdir.join(QUARANTINE);
        fs::create_dir_all(&qdir)?;
        if self.workdir.join(&name).exists() {
            fs::rename(self.workdir.join(&name), qdir.join(&name))?;
        }
        self.journal.append(&JournalRecord::MemberQuarantined { member: m, reason });
        self.ledger.mark_quarantined(m);
        eprintln!("esse_master: quarantined member {m}: {why}");
        Ok(())
    }

    /// The single ingestion gate, run before the journal commit point:
    /// structural checks (the worker's recorded CRC against the bytes
    /// on disk now) chain straight into the semantic validator, and a
    /// worker's own REJECTED self-check verdict folds into the same
    /// path — one gate, one journal record, one replacement schedule.
    fn gate(&self, r: &ResultRecord) -> Result<Vec<f64>, (u32, String)> {
        if r.code == CODE_REJECTED {
            let why = Reason::from_code(r.reason).describe();
            return Err((r.reason, format!("worker self-check rejection ({why})")));
        }
        let corrupt = |why: String| (Reason::CorruptPayload.code(), why);
        let path = self.workdir.join(files::fc(r.member as usize));
        let (xf, crc) = fileio::read_vector_with_crc(path).map_err(|e| corrupt(e.to_string()))?;
        if crc != r.fc_crc {
            let recorded = r.fc_crc;
            return Err(corrupt(format!(
                "forecast CRC {crc:#010x} != result record {recorded:#010x}"
            )));
        }
        match self.validator.validate_member(r.member, &xf) {
            Verdict::Pass => Ok(xf),
            Verdict::Quarantine(reason) => {
                Err((reason.code(), format!("failed semantic validation: {}", reason.describe())))
            }
        }
    }

    /// Step 1: ingest published results.
    fn ingest(&mut self, results: &[ResultRecord], now: Duration) -> io::Result<()> {
        for r in results {
            let m = r.member;
            let task = (m, r.epoch);
            let current = self.epoch(m);
            if r.epoch != current {
                // Fencing: a zombie worker published after its lease
                // expired and the task was requeued. Never ingested.
                self.m_fenced.inc();
                let extra = [("current", current as u64)];
                self.task_instant("pool", "fencing_rejected", task, &extra);
                eprintln!(
                    "esse_master: fenced stale result for member {m} (epoch {} != current {})",
                    r.epoch, current
                );
                self.pool.fence_result(r)?;
                continue;
            }
            if self.ledger.decided(m) {
                self.pool.consume_result(r)?;
                continue;
            }
            if r.code != 0 && r.code != CODE_REJECTED {
                // A real (deterministic) task failure: count it against
                // the task-attempt budget, under its own exit code.
                self.requeue(m, Budget::Attempts, r.code, now)?;
            } else {
                match self.gate(r) {
                    Ok(xf) => {
                        // The journal record is the commit point.
                        let attempts = self.ledger.complete(m);
                        self.journal
                            .append(&JournalRecord::MemberCompleted { member: m, attempts });
                        self.validator.note_decided(m, &xf);
                        self.m_ingested.inc();
                        self.task_instant("pool", "result_ingested", task, &[]);
                        self.note_trace_batch(task);
                    }
                    Err((reason, why)) => {
                        // Self-healing: the replacement runs at the
                        // next fencing epoch, so the quarantined bytes
                        // can never race it into the SVD.
                        self.quarantine_file(m, reason, &why)?;
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
            self.pool.consume_result(r)?;
            // Only member and epoch name the claim files.
            let claim = TaskSpec { member: m, epoch: r.epoch, seed: 0, parent_span: 0 };
            self.pool.remove_claim(&claim)?;
            self.watch.forget(m);
        }
        Ok(())
    }

    /// A worker that shipped its span batch leaves a `.trace` sidecar
    /// next to the result; note its arrival live, attributed to the
    /// shipping worker (the merge itself is deferred to wind-down so a
    /// straggler batch still counts).
    fn note_trace_batch(&self, task: (u64, u32)) {
        if self.trace_run == 0 {
            return;
        }
        let batch = self
            .pool
            .trace_sidecar_for(task.0, task.1)
            .and_then(|p| fs::read(p).ok())
            .and_then(|b| esse_obs::fleet::SpanBatch::decode(&b).ok());
        if let Some(batch) = batch {
            self.task_instant("fleet", "batch", task, &[("worker", batch.worker_id as u64)]);
        }
    }

    /// Step 2: the lease watchdog — reclaim claims whose heartbeat
    /// stalled for `lease_ms` on the coordinator's own clock.
    fn watch_leases(&mut self, claims: &[ClaimScan], now: Duration) -> io::Result<()> {
        let now_ms = now.as_millis() as u64;
        for c in claims {
            let task = (c.spec.member, c.spec.epoch);
            let (m, epoch) = task;
            if self.ledger.decided(m) || epoch != self.epoch(m) {
                // Leftover claim of an ingested or already-requeued
                // incarnation; sweep it.
                self.pool.remove_claim(&c.spec)?;
                continue;
            }
            let counter = c.heartbeat.map(|hb| hb.counter);
            match self.watch.observe(m, epoch, counter, now_ms, self.lease_ms) {
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
                    // Seed the successor FIRST, then drop the dead
                    // claim: there is never a moment where the member
                    // has no incarnation on disk.
                    self.requeue(m, Budget::Requeues, CODE_LEASE_BUDGET, now)?;
                    self.pool.remove_claim(&c.spec)?;
                    self.watch.forget(m);
                }
            }
        }
        Ok(())
    }

    /// Step 3: seed the members below `target` that are neither decided,
    /// outstanding, nor held back by a retry backoff.
    fn seed(&mut self, target: u64, now: Duration) -> io::Result<()> {
        for m in self.ledger.seedable(target, now) {
            if !self.outstanding.contains(&m) {
                self.issue_epoch(m)?;
            }
        }
        Ok(())
    }

    /// Step 4: the continuous SVD + convergence test at decided-prefix
    /// checkpoints (deterministic under any worker interleaving).
    fn checkpoints(&mut self, cps: &[usize]) -> io::Result<()> {
        let eligible = self.ledger.prefix_eligible();
        for &cp in cps {
            let c = cp as u64;
            if self.conv.converged() {
                break;
            }
            if self.fired.contains(&c) || eligible.len() < cp {
                continue;
            }
            // A fresh resume has not computed the previous checkpoint's
            // estimate; rebuild it from the forecast files (never
            // trusted from a half-published disk state) before the
            // estimator below holds anything.
            if self.previous.as_ref().map(|(m, _)| *m) != self.last_fired {
                self.previous = self.last_fired.map(|p| {
                    let ids = &eligible[..p as usize];
                    let Some(update) = subspace_over(self.workdir, self.central, ids) else {
                        eprintln!("esse_master: cannot rebuild the estimate of checkpoint {p}");
                        std::process::exit(1);
                    };
                    (p, update.subspace)
                });
            }
            let new = &eligible[self.estimator.count()..cp];
            fold_members(self.estimator.as_mut(), self.workdir, new);
            let Some(update) = estimate(self.estimator.as_mut()) else {
                break;
            };
            self.instant(
                "svd",
                update.kind.label(),
                vec![("members", c.into()), ("defect", update.defect.into())],
            );
            let mut round_rho = f64::NAN;
            if let Some((_, prev)) = &self.previous {
                let rho = similarity(prev, &update.subspace);
                round_rho = rho;
                println!("esse_master: N={cp} rho={rho:.4} (tol {:.3})", self.conv.tol);
                if finite_stat(rho).is_pass() && self.conv.check(rho) {
                    self.converged_members = Some(c);
                }
            }
            // Safe/live covariance files first, then the journal
            // record as the commit point (§4.1 on disk).
            self.svd_version += 1;
            self.disk_cov
                .publish(&fileio::subspace_to_bytes(&update.subspace), self.svd_version)?;
            self.journal.append(&JournalRecord::SvdPublished {
                members: c,
                version: self.svd_version,
                rho: round_rho,
            });
            self.instant(
                "svd",
                "svd_published",
                vec![("members", c.into()), ("version", self.svd_version.into())],
            );
            self.fired.insert(c);
            self.last_fired = Some(c);
            self.previous = Some((c, update.subspace));
            if self.conv.converged() {
                self.journal.append(&JournalRecord::Converged { members: c, rho: round_rho });
                self.cancelled_tasks = self.pool.cancel_pending()?;
                self.pool.write_cancel()?;
                println!(
                    "esse_master: converged; cancelled {} queued members",
                    self.cancelled_tasks
                );
                self.instant(
                    "convergence",
                    "converged",
                    vec![("members", c.into()), ("rho", round_rho.into())],
                );
            }
        }
        Ok(())
    }
}

/// Subdirectory of the workdir holding per-worker stdio logs and
/// metric snapshots for the locally spawned fleet.
const WORKER_LOG_DIR: &str = "logs";

fn spawn_local_worker(workdir: &Path, slot: usize) -> Option<Child> {
    // Capture the worker's stdio into a per-slot log file under the
    // workdir (respawns of a slot append, so its history reads in
    // order). A regular file fd — unlike an inherited pipe — cannot
    // keep a caller's `output()` on the master blocked while an
    // orphaned worker outlives the master itself.
    let log_dir = workdir.join(WORKER_LOG_DIR);
    let log_path = log_dir.join(format!("worker-{slot:03}.log"));
    let log = fs::create_dir_all(&log_dir)
        .and_then(|()| fs::OpenOptions::new().create(true).append(true).open(log_path))
        .and_then(|f| {
            let err = f.try_clone()?;
            Ok((Stdio::from(f), Stdio::from(err)))
        });
    let (out, err) = log.unwrap_or_else(|e| {
        eprintln!("esse_master: cannot open worker log for slot {slot}: {e}");
        (Stdio::null(), Stdio::null())
    });
    let mut cmd = Command::new(cli::sibling("esse_worker"));
    cmd.arg("--workdir").arg(workdir).arg("--metrics-out");
    cmd.arg(log_dir.join(format!("worker-{slot:03}.metrics")));
    cmd.args(["--worker-id", &slot.to_string(), "--parent-pid", &std::process::id().to_string()]);
    cmd.args(["--poll-ms", "10"]).stdout(out).stderr(err);
    cli::spawn_with_retry(&mut cmd, "esse_worker", None, 3)
        .map_err(|e| eprintln!("esse_master: {e}"))
        .ok()
}

/// Coordinator exclusion: one live master (or `--gc`) per workdir. A
/// crashed master's lock names a dead PID and is broken automatically.
fn lock_workdir(workdir: &Path) -> WorkdirLock {
    match WorkdirLock::acquire(workdir) {
        Ok(lock) => lock,
        Err(LockError::Held { pid }) => {
            // Distinct exit code: two racing `--resume` invocations
            // after a coordinator crash resolve to exactly one live
            // master; the loser must be distinguishable from config
            // errors (exit 2) by supervisors that retry the resume.
            eprintln!(
                "esse_master: workdir {} is locked by a running master (pid {})",
                workdir.display(),
                pid.map_or_else(|| "unknown".into(), |p| p.to_string())
            );
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("esse_master: cannot acquire master.lock: {e}");
            std::process::exit(2);
        }
    }
}

/// Refuse to resume: one line on stderr, exit code 2, and the workdir
/// left as found — the lock is released by hand because `exit` runs no
/// destructors.
fn refuse_resume(lock: WorkdirLock, why: String) -> ! {
    eprintln!("esse_master: {why}");
    drop(lock);
    std::process::exit(2);
}

/// `--gc` mode: prune the fenced-result history, consumed trace
/// sidecars and superseded covariance blobs of a completed (or parked)
/// run, keeping the newest `keep` fenced records for post-mortems.
/// Takes the workdir lock, so it can never race a live coordinator —
/// and it never touches records under an active lease, live results,
/// or anything a `--resume` would need.
fn run_gc(workdir: &Path, keep: usize) {
    let _lock = lock_workdir(workdir);
    let (pool, _manifest) = TaskPool::open(workdir).unwrap_or_else(|e| {
        eprintln!("esse_master: no task pool under {}: {e}", workdir.display());
        std::process::exit(2);
    });
    let report = pool.gc(keep).expect("pool gc");
    let blobs = DiskTripleBuffer::create(workdir)
        .and_then(|b| b.prune_superseded())
        .expect("prune covariance blobs");
    println!(
        "esse_master: gc removed {} fenced result(s), {} trace sidecar(s), \
         {} superseded covariance blob(s) (kept newest {keep})",
        report.stale_results, report.trace_sidecars, blobs
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse_args(&argv);
    let workdir = PathBuf::from(cli::require(&args, "workdir", USAGE));
    if args.contains_key("gc") {
        run_gc(&workdir, cli::get_or(&args, "gc-keep", 4usize));
        return;
    }
    let domain = cli::require(&args, "domain", USAGE).to_string();
    let hours: f64 = cli::get_or(&args, "hours", 6.0);
    let initial: usize = cli::get_or(&args, "initial", 8);
    let max: usize = cli::get_or(&args, "max", 32);
    let tolerance: f64 = cli::get_or(&args, "tolerance", 0.08);
    // `--workers 0` runs a pure coordinator for external workers.
    let workers: usize = cli::get_or(&args, "workers", 2);
    let white_noise: f64 = cli::get_or(&args, "white-noise", 0.0);
    let base_seed: u64 = cli::get_or(&args, "base-seed", 0x5EED);
    let lease_ms: u64 = cli::get_or(&args, "lease-ms", 1200u64).max(50);
    let task_attempts: u32 = cli::get_or(&args, "task-attempts", 3u32).max(1);
    let requeue_budget: u32 = cli::get_or(&args, "requeue-budget", 16u32).max(1);
    let resume = args.contains_key("resume");
    let force = args.contains_key("force");
    let crash_after: Option<u64> = args.get("crash-after-appends").and_then(|v| v.parse().ok());
    let trace_out = args.get("trace-out").map(PathBuf::from);
    let trace_capacity: usize = cli::get_or(&args, "trace-capacity", 1usize << 18);
    let metrics_out = args.get("metrics-out").map(PathBuf::from);
    // `--listen 127.0.0.1:0` (port 0 = ephemeral) opens the esse-net
    // listener: remote workers join the same pool over TCP, multiplexed
    // alongside the local `--workers` fleet.
    let listen = args.get("listen").cloned();
    // `--subspace` picks the checkpoint estimator only; the posterior
    // is a full recompute either way.
    let strategy = parse_subspace_flag(args.get("subspace").map_or("full", String::as_str));
    let strategy = strategy.unwrap_or_else(|| {
        eprintln!("esse_master: bad --subspace value (want full or incremental[:REFRESH,TOL])");
        std::process::exit(2);
    });

    // The run identity: only the knobs that change member *content* —
    // a member forecast is a pure function of (domain, hours, noise,
    // seed). Schedule knobs (initial, max, tolerance) and execution
    // knobs (workers, lease) are deliberately excluded: a resume may
    // extend the ensemble, tighten the tolerance or change parallelism.
    let run_hash = config_hash(&[
        ("domain", domain.clone()),
        ("hours", hours.to_string()),
        ("white-noise", white_noise.to_string()),
        ("base-seed", base_seed.to_string()),
    ]);

    // --- Workdir safety: a typo must not clobber a run (and a fresh
    // run must not silently mix with a dead one's files). ---
    let journal_path = workdir.join(JOURNAL);
    if !resume && fs::read_dir(&workdir).is_ok_and(|mut d| d.next().is_some()) {
        if !force {
            eprintln!(
                "esse_master: workdir {} is not empty; \
                 pass --resume to continue the run or --force to discard it",
                workdir.display()
            );
            std::process::exit(2);
        }
        eprintln!("esse_master: --force: clearing existing workdir");
        fs::remove_dir_all(&workdir).expect("clear workdir");
    }
    std::fs::create_dir_all(&workdir).expect("create workdir");

    let lock = lock_workdir(&workdir);

    // --- Journal: create fresh, or replay (truncating any torn tail). ---
    let (journal, state) = if resume && journal_path.exists() {
        let (journal, replay) = match Journal::open(&journal_path) {
            Ok(opened) => opened,
            // A foreign file or another build's journal version.
            Err(e) => {
                refuse_resume(lock, format!("cannot resume from {}: {e}", journal_path.display()))
            }
        };
        if replay.torn_bytes > 0 {
            eprintln!(
                "esse_master: truncated {} torn byte(s) from the journal tail",
                replay.torn_bytes
            );
        }
        let state = JournalState::replay(&replay.records);
        if let Some(h) = state.config_hash.filter(|&h| h != run_hash) {
            refuse_resume(
                lock,
                format!(
                    "journal belongs to a different run \
                     (config hash {h:#018x} != {run_hash:#018x}); refusing to mix results"
                ),
            );
        }
        (journal, state)
    } else {
        let journal = Journal::create(&journal_path).expect("create journal");
        (journal, JournalState::replay(&[]))
    };
    let journal = MasterJournal { journal, appends: Cell::new(0), crash_after };
    if let Some(n) = args.get("fail-appends").and_then(|v| v.parse().ok()) {
        // Storage-fault injection: the N-th append of this incarnation
        // (and everything after) errors like a full disk, driving the
        // clean-park path above.
        journal.journal.inject_write_error_after(n);
    }
    if state.config_hash.is_none() {
        journal.append(&JournalRecord::RunStart { config_hash: run_hash });
    }
    if let Some(members) = state.complete {
        // A finished incarnation is only terminal if it still satisfies
        // what *this* invocation asks for; a resume with a larger
        // ensemble or a tighter tolerance legitimately extends the run.
        let satisfied = ConvergenceTest::restore(tolerance, &state.rho_history()).converged()
            || state.completed.len() >= max;
        if satisfied {
            // A durable no-op: nothing journalled, so the incarnation
            // count keeps meaning "coordinators that ran the pool" —
            // resuming a finished run takes over nothing.
            println!("esse_master: run already complete ({members} members); nothing to do");
            return;
        }
        println!(
            "esse_master: completed run falls short of the requested schedule \
             (max {max}, tolerance {tolerance}); extending"
        );
    }
    // Every working (re)start journals its incarnation number before
    // touching the pool: the TCP endpoint generation, the incarnation
    // gauge and the trace labels derive from it, and replay recovers
    // the high-water mark so a resumed resume keeps counting up.
    let incarnation = state.incarnations + 1;
    journal.append(&JournalRecord::CoordinatorStarted { incarnation });
    if incarnation > 1 {
        println!("esse_master: coordinator incarnation {incarnation} (resuming a crashed run)");
    }

    // --- Observability: trace ring + metrics registry. ---
    // The ring is Arc-shared because esse-net connection threads record
    // into it alongside the coordinator loop.
    let ring = std::sync::Arc::new(RingRecorder::with_capacity(trace_capacity));
    let rec: &dyn Recorder = if trace_out.is_some() { ring.as_ref() } else { &NULL };
    let metrics = MetricsRegistry::new();
    let m_replaced = metrics.counter("esse_replaced_total");
    let m_batches = metrics.counter("esse_fleet_trace_batches_total");
    let m_rejected = metrics.counter("esse_fleet_trace_batches_rejected_total");
    let m_merged = metrics.counter("esse_fleet_spans_merged_total");
    metrics.gauge("esse_master_incarnation").set(incarnation as f64);

    // The fleet-wide trace run id: nonzero iff tracing is on. Workers
    // read it from the manifest, and every parent span id a task record
    // carries derives from it, so a batch from a stale or untraced run
    // can never be merged into this run's timeline.
    let trace_run: u64 =
        if trace_out.is_some() { esse_obs::fleet::run_id(run_hash as u32, base_seed) } else { 0 };

    // --- Setup: model, mean, prior. ---
    let (model, st0) = cli::build_model(&domain).unwrap_or_else(|e| {
        eprintln!("esse_master: {e}");
        std::process::exit(2);
    });
    let mean_path = workdir.join(files::MEAN);
    let prior_path = workdir.join(files::PRIOR);
    if !resume || !mean_path.exists() {
        fileio::write_vector(&mean_path, &st0.pack()).expect("write mean");
    }
    if !resume || !prior_path.exists() {
        let prior =
            esse::core::priors::smooth_temperature_prior(&model.grid, 12, 0.5, 2.5, base_seed);
        fileio::write_subspace(&prior_path, &prior).expect("write prior");
    }
    let prior = fileio::read_subspace(&prior_path).expect("read prior");
    let gen = PerturbationGenerator::new(
        &prior,
        PerturbConfig { white_noise, base_seed, frozen_indices: Vec::new() },
    );

    // --- Central forecast (deterministic; reused on resume). ---
    let central_path = workdir.join(files::CENTRAL);
    if !central_path.exists() {
        let mut cmd = Command::new(cli::sibling("pemodel"));
        cmd.arg("--workdir").arg(&workdir);
        cmd.args(["--domain", &domain, "--hours", &hours.to_string(), "--central"]);
        let ok = match cli::spawn_with_retry(&mut cmd, "central pemodel", None, 3) {
            Ok(mut child) => child.wait().expect("wait central pemodel").success(),
            Err(e) => {
                eprintln!("esse_master: {e}");
                false
            }
        };
        if !ok {
            eprintln!("esse_master: central forecast failed");
            std::process::exit(1);
        }
    }
    let central = fileio::read_vector(&central_path).expect("read central");

    // --- The semantic ingestion gate: the validator the workers run
    // before publishing, rebuilt from the same inputs (never trust the
    // wire). Bounds come from the mean and central states widened by
    // the prior spread; outlier statistics fold over the decided prefix.
    let mean_vec = fileio::read_vector(&mean_path).expect("read mean");
    let validator = ForecastValidator::for_scenario(
        &model.grid,
        &[&mean_vec, &central],
        &prior,
        ValidatorConfig::default(),
    );

    // --- The task pool: the contract every worker reads. ---
    let manifest = PoolManifest {
        domain: domain.clone(),
        hours,
        white_noise,
        base_seed,
        lease_ms,
        config_hash: run_hash,
        trace_run_id: trace_run,
    };
    let pool = TaskPool::create(&workdir, &manifest).expect("create task pool");
    // A previous incarnation may have left CANCEL/SHUTDOWN behind.
    pool.clear_tombstones().expect("clear tombstones");

    // --- The esse-net listener: remote workers claim, renew and
    // publish through per-connection proxy threads against this same
    // pool, so local and remote claimers are arbitrated by one atomic
    // rename and the master loop below stays transport-blind. ---
    let mut net_server = listen.map(|addr| {
        let recorder: std::sync::Arc<dyn Recorder + Send + Sync> =
            if trace_out.is_some() { ring.clone() } else { std::sync::Arc::new(NULL) };
        let server = esse::net::NetServer::start(esse::net::ServerConfig {
            pool: pool.clone(),
            manifest: manifest.clone(),
            workdir: workdir.clone(),
            listen: addr,
            generation: incarnation,
            metrics: esse::net::NetMetrics::from_registry(&metrics),
            recorder,
        })
        .unwrap_or_else(|e| {
            eprintln!("esse_master: cannot listen for remote workers: {e}");
            std::process::exit(2);
        });
        println!("esse_master: listening for remote workers on {}", server.local_addr());
        server
    });

    // --- Convergence state, restored from the journal. ---
    let conv = ConvergenceTest::restore(tolerance, &state.rho_history());
    let journalled_convergence = (state.converged.map(|(m, _)| m))
        .or_else(|| converged_members_from(&state.svd_rounds, tolerance));
    let mut co = Coordinator {
        workdir: &workdir,
        journal: &journal,
        pool: &pool,
        rec,
        gen: &gen,
        central: &central,
        trace_run,
        incarnation,
        lease_ms,
        m_granted: metrics.counter("esse_pool_lease_granted_total"),
        m_renewed: metrics.counter("esse_pool_lease_renewed_total"),
        m_expired: metrics.counter("esse_pool_lease_expired_total"),
        m_fenced: metrics.counter("esse_pool_fencing_rejected_total"),
        m_seeded: metrics.counter("esse_pool_tasks_seeded_total"),
        m_ingested: metrics.counter("esse_pool_results_ingested_total"),
        m_quarantined: metrics.counter("esse_quarantined_total"),
        ledger: MemberLedger::new(
            RetryPolicy::retries(task_attempts).with_backoff(Duration::from_millis(20), 2.0, 0.0),
            requeue_budget,
            base_seed ^ 0x00D1_7A5C,
        ),
        // Recover the authoritative fencing-epoch map from the pool
        // dirs; raised to the journal's high-water marks below.
        epochs: pool.epochs().expect("recover epochs"),
        outstanding: HashSet::new(),
        watch: LeaseWatch::new(),
        validator,
        quarantined_lost: 0,
        estimator: new_estimator(&strategy, &central),
        disk_cov: DiskTripleBuffer::create(&workdir).expect("safe/live covariance files"),
        converged_members: journalled_convergence.filter(|_| conv.converged()),
        conv,
        fired: state.svd_rounds.iter().map(|r| r.members).collect(),
        last_fired: state.svd_rounds.last().map(|r| r.members),
        previous: None,
        svd_version: state.svd_rounds.last().map_or(0, |r| r.version),
        cancelled_tasks: 0,
    };
    // The pool scan alone is not enough after a crash: a consumed
    // result leaves no file behind, so a member whose epoch-3 result
    // was ingested just before the crash would rewind to epoch 0 and
    // its next seed (epoch 1) could be satisfied by an epoch-1 zombie
    // from two requeues ago. Every `EpochAdvanced` is journalled
    // *before* its seed, so any replayed prefix covers every epoch a
    // worker could ever have observed.
    for &(m, hw) in &state.epoch_high_water {
        let e = co.epochs.entry(m).or_insert(0);
        *e = (*e).max(hw);
    }
    if incarnation > 1 {
        co.instant("coordinator", "restart", vec![("incarnation", incarnation.into())]);
        // Every surviving claim is judged on this incarnation's clock
        // only (a fresh watch is already rebased; the call pins the
        // restart contract documented on `LeaseWatch::rebase`).
        co.watch.rebase();
        // Re-emit a `task_seeded` instant for every epoch issued by an
        // earlier incarnation: worker span batches that were published
        // across the crash boundary still merge at wind-down, and their
        // parent edges must find a coordinator-side enqueue with the
        // same span id — the orphan-edge validator stays at zero.
        let inherited: BTreeMap<u64, u32> = co.epochs.iter().map(|(&m, &e)| (m, e)).collect();
        for (m, hw) in inherited {
            for ep in 1..=hw {
                co.task_seeded_instant(m, ep);
            }
        }
    }

    // --- Resume: fold journalled members back in, checksum-validating
    // every forecast file. Corrupt or missing files are quarantined and
    // the member is requeued — never silently ingested (§4.2). Past
    // quarantines count too, so the healed/lost split stays honest. ---
    for &(m, _) in &state.quarantine_reasons {
        co.ledger.mark_quarantined(m);
    }
    for (m, attempts) in &state.completed {
        match fileio::read_vector(workdir.join(files::fc(*m as usize))) {
            Ok(xf) => {
                co.ledger.decide(*m, Fate::Completed(*attempts));
                co.validator.note_decided(*m, &xf);
            }
            Err(e) => or_die(
                co.quarantine_file(*m, Reason::CorruptPayload.code(), &e.to_string()),
                "quarantine a forecast",
            ),
        }
    }
    for &m in &state.failed {
        co.ledger.decide(m, Fate::Failed);
    }
    println!(
        "esse_master: starting with {0} members in the differ (resumed {0})",
        co.ledger.completed_ids().count()
    );

    // --- Schedule + checkpoints. ---
    let schedule = EnsembleSchedule::new(initial, max);
    let stages = schedule.stages();
    let cps = checkpoints(initial, max, &stages);
    let mut stage_idx = 0usize;
    while stage_idx + 1 < stages.len()
        && (0..stages[stage_idx] as u64).all(|m| co.ledger.decided(m))
    {
        stage_idx += 1;
    }

    // --- Local worker fleet (the pool is agnostic: any number of
    // external esse_worker processes may also claim tasks). ---
    let mut fleet: Vec<Option<Child>> = (0..workers).map(|_| None).collect();
    let mut worker_spawns = 0usize;
    let spawn_budget = workers * 8;
    let t0 = Instant::now();

    loop {
        // Keep the local fleet at strength (bounded respawn: a worker
        // that keeps dying must not fork-bomb the host).
        if !co.conv.converged() {
            for (slot, entry) in fleet.iter_mut().enumerate() {
                let dead = match entry {
                    Some(child) => child.try_wait().expect("poll worker").is_some(),
                    None => true,
                };
                if dead && worker_spawns < spawn_budget {
                    *entry = spawn_local_worker(&workdir, slot);
                    if entry.is_some() {
                        worker_spawns += 1;
                        co.instant("pool", "worker_spawned", vec![("slot", (slot as u64).into())]);
                    }
                }
            }
        }

        let scan = or_die(pool.scan(), "scan the task pool");
        co.outstanding = scan.pending.iter().map(|t| t.member).collect();
        co.outstanding.extend(scan.claims.iter().map(|c| c.spec.member));
        let now = t0.elapsed();
        or_die(co.ingest(&scan.results, now), "ingest a result");
        or_die(co.watch_leases(&scan.claims, now), "requeue a claim");
        if !co.conv.converged() {
            or_die(co.seed(stages[stage_idx] as u64, now), "seed a task");
        }
        or_die(co.checkpoints(&cps), "publish a checkpoint");
        if co.conv.converged() {
            break;
        }

        // --- Stage growth / completion. ---
        if (0..stages[stage_idx] as u64).all(|m| co.ledger.decided(m)) {
            if stage_idx + 1 == stages.len() {
                break;
            }
            stage_idx += 1;
        }
        std::thread::sleep(Duration::from_millis(15));
    }

    // --- Wind down: tell every worker (local or external) the run is
    // over, then reap the local fleet. ---
    pool.write_shutdown().expect("write shutdown tombstone");
    let deadline = Instant::now() + Duration::from_secs(10);
    for child in fleet.iter_mut().flatten() {
        while child.try_wait().expect("reap worker").is_none() {
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    // Remote workers learn the run is over only through a `Shutdown`
    // claim reply, and ship their final trace batch over the same
    // connection — so keep serving until every live connection drains
    // out (bounded) before closing the listener; stopping first would
    // make still-connected workers exit as orphans. Only a resumed run
    // can have a worker parked-and-disconnected at completion, so only
    // it lingers: 750ms covers a full reconnect-poll interval (250ms
    // ceiling plus jitter and handshake), and that worker's next dial
    // is answered with `Shutdown` instead of a dead port.
    if let Some(server) = net_server.as_mut() {
        let linger = if incarnation > 1 { Duration::from_millis(750) } else { Duration::ZERO };
        server.drain(linger, Duration::from_secs(10));
        server.stop();
    }

    // --- Final subspace. When the run converged the posterior is the
    // first `converged_members` completed members of the decided
    // prefix — NOT "whatever happened to arrive" — so any worker
    // interleaving, kill schedule or resume produces bit-identical
    // posterior bytes. Unconverged runs use every completed member.
    // Always a fresh full recompute, so the bytes do not depend on
    // `--subspace`; the checkpoint estimator is released first, so two
    // spread matrices are never resident at once. ---
    drop(co.estimator);
    let ledger = &co.ledger;
    let eligible = ledger.prefix_eligible();
    let ids: Vec<u64> = match co.converged_members {
        Some(c) => eligible[..(c as usize).min(eligible.len())].to_vec(),
        None => ledger.completed_ids().collect(),
    };
    let Some(posterior) = subspace_over(&workdir, &central, &ids) else {
        eprintln!("esse_master: not enough members for an SVD");
        std::process::exit(1);
    };
    fileio::write_subspace(workdir.join(files::POSTERIOR), &posterior.subspace)
        .expect("write posterior");
    journal.append(&JournalRecord::RunComplete { members: posterior.members as u64 });
    println!(
        "esse_master: done — {} members ({} failed), converged={}, rank {}, total variance {:.5}",
        posterior.members,
        ledger.count(|e| e.fate == Some(Fate::Failed)),
        co.conv.converged(),
        posterior.subspace.rank(),
        posterior.subspace.total_variance()
    );
    // The quarantine ledger: a member counts as *replaced* (healed) once
    // a later attempt of it completed; quarantined-and-lost members are
    // the explicit degraded-health breakdown, distinct from lease losses.
    let replaced = ledger.count(Member::replaced);
    m_replaced.add(replaced as u64);
    println!(
        "esse_master: pool stats — leases granted {}, renewed {}, expired {}, \
         results fenced {}, tasks seeded {}, ingested {}, cancelled {}",
        co.m_granted.get(),
        co.m_renewed.get(),
        co.m_expired.get(),
        co.m_fenced.get(),
        co.m_seeded.get(),
        co.m_ingested.get(),
        co.cancelled_tasks
    );
    println!(
        "esse_master: quarantine stats — quarantined {} member(s), replaced {}, lost {}",
        ledger.count(|e| e.quarantined),
        replaced,
        co.quarantined_lost
    );
    // Point at the captured stdio of locally-spawned workers (also
    // picked up by `RunMonitor` reports via `worker_log_dir`).
    let log_dir = workdir.join(WORKER_LOG_DIR);
    let is_log = |e: &fs::DirEntry| e.path().extension().is_some_and(|x| x == "log");
    let logs = fs::read_dir(&log_dir).map_or(0, |d| d.flatten().filter(is_log).count());
    if logs > 0 {
        println!("esse_master: {logs} worker log(s) under {}", log_dir.display());
    }

    if let Some(path) = trace_out {
        let mut trace = ring.drain();
        // Collect every shipped span batch (disk-transport sidecars and
        // TCP batches both land as `.trace` files next to results),
        // dropping whole batches that fail to decode — a SIGKILL'd
        // worker's truncated sidecar must never corrupt the timeline —
        // and batches from a different run id.
        let mut batches = Vec::new();
        for p in pool.trace_sidecars().unwrap_or_default() {
            match fs::read(&p)
                .map_err(|e| e.to_string())
                .and_then(|b| esse_obs::fleet::SpanBatch::decode(&b))
            {
                Ok(b) if b.run_id == trace_run => {
                    m_batches.inc();
                    batches.push(b);
                }
                Ok(_) => {}
                Err(why) => {
                    m_rejected.inc();
                    eprintln!(
                        "esse_master: dropping unreadable trace batch {}: {why}",
                        p.display()
                    );
                }
            }
        }
        let report = esse_obs::fleet::merge_batches(&mut trace, &batches);
        m_merged.add(report.spans_merged as u64);
        if !report.workers.is_empty() {
            println!(
                "esse_master: fleet trace — merged {} span(s) / {} event(s) from {} worker(s), \
                 {} event(s) dropped at the rings",
                report.spans_merged,
                report.events_merged,
                report.workers.len(),
                report.dropped()
            );
        }
        esse_obs::export::save(&trace, &path).expect("write trace");
        println!("esse_master: trace written to {}", path.display());
    }
    if let Some(path) = metrics_out {
        fs::write(&path, metrics.snapshot().to_prometheus()).expect("write metrics");
        println!("esse_master: metrics written to {}", path.display());
    }
}
